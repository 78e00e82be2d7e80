"""The renderer builds its descriptors in one owned buffer.

render_synthetic_features runs the z-buffer in a helper whose per-point
arrays die before descriptors are made, writes each object's cos block
into one float64 array, draws the noise a block of rows at a time, and
hands that array to FeatureGrid.from_rows, which rounds it in place.
_with_noise draws its noise through the same block helper. Each must
give the bytes of the code it replaces, kept here as the reference, for
winner counts below, at and across multiples of the block size and for
a reference rendered at no, some or every pixel; and a render's peak
memory, beyond what it returns, must stay within one copy of its rows.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from taskaxes import features
from taskaxes.evaluation import _with_noise, reference_scene, validation_spec
from taskaxes.features import DepthMask, FeatureGrid, window_pixels
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.scenes import TASKS, build_task, sample_box, sample_cylinder, scene_from_json
from taskaxes.simulator import (
    FeatureRenderConfig,
    Scene,
    SceneObject,
    _object_basis,
    render_synthetic_features,
)

INTR = CameraIntrinsics(fx=160.0, fy=160.0, cx=40.0, cy=30.0, width=80, height=60)
SIZE = INTR.width * INTR.height


def _old_render(scene, noise_tag=0, pixels=None):
    """(pixels, float64 rows, flat depth) of the renderer as written
    before the owned buffer: one z-buffer pass, a cos per object, one
    (winners, dim) noise draw, rows rounded through a float32 copy."""
    intr = scene.intrinsics
    cfg = scene.features
    world = np.concatenate([obj.cloud @ obj.pose.rotation.T + obj.pose.origin
                            for obj in scene.objects if obj.cloud.shape[0]])
    z = world[:, 2]
    front = z > 1e-6
    safe_z = np.where(front, z, 1.0)
    u = np.rint(intr.fx * world[:, 0] / safe_z + intr.cx).astype(np.int64)
    v = np.rint(intr.fy * world[:, 1] / safe_z + intr.cy).astype(np.int64)
    visible = front & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    point_idx = np.flatnonzero(visible)
    u, v, z = u[point_idx], v[point_idx], z[point_idx]
    size = intr.height * intr.width
    flat = v * intr.width + u
    nearest = np.full(size, np.inf)
    np.minimum.at(nearest, flat, z)
    at_nearest = np.flatnonzero(z == nearest[flat])
    first = np.full(size, flat.size)
    np.minimum.at(first, flat[at_nearest], at_nearest)
    won = np.flatnonzero(first < flat.size)
    winners = first[won]
    depth = np.full(size, np.nan)
    depth[won] = z[winners]
    keep = slice(None)
    if pixels is not None:
        wanted = np.zeros(size, dtype=bool)
        wanted[pixels] = True
        keep = np.flatnonzero(wanted[won])
    won = won[keep]
    point_idx = point_idx[winners[keep]]
    desc = np.empty((won.size, cfg.dim))
    start = 0
    for obj in scene.objects:
        stop = start + obj.cloud.shape[0]
        sel = (point_idx >= start) & (point_idx < stop)
        if sel.any():
            freqs, phase = _object_basis(obj.name, cfg)
            desc[sel] = np.cos(obj.cloud[point_idx[sel] - start] @ freqs.T + phase)
        start = stop
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7919, noise_tag]))
        desc += rng.normal(0.0, cfg.noise_sigma, size=(winners.size, cfg.dim))[keep]
    return won, desc.astype(np.float32).astype(np.float64), depth


def _old_with_noise_rows(grid, mask, sigma, rng):
    """Rows of _with_noise as written before: one (valid pixels, dim) draw."""
    valid = np.flatnonzero(mask.valid)
    noise = rng.normal(0.0, sigma, size=(valid.size, grid.dim))
    hit = mask.valid.reshape(-1)[grid.pixels]
    rows = grid.rows.copy()
    rows[hit] += noise[np.searchsorted(valid, grid.pixels[hit])]
    return rows.astype(grid.dtype).astype(np.float64)


def _scene(sigma):
    """Two overlapping objects filling part of a small image."""
    objects = [SceneObject(name="slab", cloud=sample_box(0.10, 0.06, 0.01, 0.002),
                           pose=Frame.from_rpy_deg((0.01, -0.005, 0.2), (10.0, -5.0, 20.0))),
               SceneObject(name="disc", cloud=sample_cylinder(0.04, 0.012, 0.002),
                           pose=Frame.from_rpy_deg((-0.02, 0.01, 0.18), (0.0, 15.0, 0.0)))]
    return Scene(objects=objects, intrinsics=INTR,
                 features=FeatureRenderConfig(noise_sigma=sigma, seed=3))


def _block_sizes(count):
    """Block sizes putting `count` rows in less than one block, exactly
    one, exactly several (a divisor), and across several with a partial
    last block."""
    factor = next(d for d in range(2, count + 1) if count % d == 0)
    across = next(b for b in range(7, count) if count % b)
    return [count + 1, count, count // factor, across]


def _pixel_sets():
    windows = window_pixels([(5, 5), (40, 30), (79, 59), (60, 12)], INTR.width, INTR.height)
    return {"none": None, "windows": windows, "all": np.arange(SIZE)}


def _winner_count(scene):
    return render_synthetic_features(replace(scene, features=replace(
        scene.features, noise_sigma=0.0)))[1].valid.sum()


def _assert_grid_is(grid, depth, expected):
    won, rows, flat_depth = expected
    assert grid.pixels.tobytes() == won.tobytes()
    assert grid.rows.dtype == np.float64 and grid.rows.tobytes() == rows.tobytes()
    assert grid.norms.tobytes() == np.sqrt(np.einsum("nd,nd->n", rows, rows)).tobytes()
    assert depth.depth.reshape(-1).tobytes() == flat_depth.tobytes()


@pytest.mark.parametrize("sigma", [0.1, 1.0])
@pytest.mark.parametrize("which", ["none", "windows", "all"])
def test_render_equals_the_old_render_at_every_block_size(monkeypatch, sigma, which):
    scene = _scene(sigma)
    pixels = _pixel_sets()[which]
    count = int(_winner_count(scene))
    for block in _block_sizes(count):
        monkeypatch.setattr(features, "_BLOCK_ROWS", block)
        for tag in (0, 5):
            grid, depth = render_synthetic_features(scene, noise_tag=tag, pixels=pixels)
            _assert_grid_is(grid, depth, _old_render(scene, tag, pixels))


@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_render_equals_the_old_render_past_the_real_block_size(sigma):
    scene = reference_scene()
    scene.features = replace(scene.features, noise_sigma=sigma)
    assert _winner_count(scene) > 2 * features._BLOCK_ROWS
    read = window_pixels([kp.pixel for kp in validation_spec().keypoints],
                         scene.intrinsics.width, scene.intrinsics.height)
    for pixels in (None, read):
        grid, depth = render_synthetic_features(scene, noise_tag=3, pixels=pixels)
        _assert_grid_is(grid, depth, _old_render(scene, 3, pixels))


@pytest.mark.parametrize("sigma", [0.1, 1.0])
@pytest.mark.parametrize("which", ["none", "windows", "all"])
def test_with_noise_equals_the_old_draw_at_every_block_size(monkeypatch, sigma, which):
    scene = _scene(0.0)
    grid, depth = render_synthetic_features(scene, pixels=_pixel_sets()[which])
    for block in _block_sizes(int(depth.valid.sum())):
        monkeypatch.setattr(features, "_BLOCK_ROWS", block)
        noisy = _with_noise(grid, depth, sigma, np.random.default_rng(17))
        expected = _old_with_noise_rows(grid, depth, sigma, np.random.default_rng(17))
        assert noisy.pixels.tobytes() == grid.pixels.tobytes()
        assert noisy.rows.tobytes() == expected.tobytes()


def test_with_noise_keeps_rows_at_invalid_pixels_and_the_input_grid():
    data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    grid = FeatureGrid(data)
    before = grid.rows.copy()
    depth = DepthMask(np.array([[0.5, np.nan, 0.4], [-1.0, 0.3, 0.2]]))
    noisy = _with_noise(grid, depth, 0.5, np.random.default_rng(2))
    expected = _old_with_noise_rows(grid, depth, 0.5, np.random.default_rng(2))
    assert noisy.rows.tobytes() == expected.tobytes()
    assert (noisy.rows[[1, 3]] == before[[1, 3]]).all()
    assert grid.rows.tobytes() == before.tobytes()


def test_public_constructor_copies_and_from_rows_takes_over():
    data = np.full((2, 2, 3), 0.1)
    grid = FeatureGrid(data)
    assert (data == 0.1).all() and not np.shares_memory(grid.rows, data)
    rows = np.full((4, 3), 0.1)
    grid = FeatureGrid.from_rows(2, 2, np.arange(4), rows, np.float32)
    assert grid.rows is rows
    assert rows[0, 0] == float(np.float32(0.1))
    frozen = np.full((4, 3), 0.1)
    frozen.flags.writeable = False
    grid = FeatureGrid.from_rows(2, 2, np.arange(4), frozen, np.float32)
    assert frozen[0, 0] == 0.1 and grid.rows[0, 0] == float(np.float32(0.1))


def _run_scene(task):
    return scene_from_json(build_task(task)["scene"])[0]


@pytest.mark.parametrize("task", TASKS)
def test_render_peak_beyond_its_output_is_at_most_one_copy_of_its_rows(task):
    scene = _run_scene(task)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid, depth = render_synthetic_features(scene, noise_tag=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.rows.nbytes > 20e6   # a full render of a demo scene
    assert peak - retained <= grid.rows.nbytes, (
        f"{task}: peak {(peak - base) / 1e6:.1f} MB above the baseline, "
        f"output {(retained - base) / 1e6:.1f} MB, rows {grid.rows.nbytes / 1e6:.1f} MB")
