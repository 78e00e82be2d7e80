"""Bit-exactness of the grounding side's compact arrays.

render_synthetic_features picks each pixel's point with a z-buffer and
computes descriptors and noise only for the pixels some object wins,
_with_noise touches only the stored rows at valid reference pixels, also
on a reference rendered at its keypoint windows only, and cosine_map
scores only stored rows at valid pixels. Each must give the same bytes
as the dense float64 code it replaces, kept here as the reference: on
random poses (occlusion, objects leaving the image or passing behind
the camera), on depth ties between and within objects, on empty views,
every noise level and noise tag, and on grids whose valid pixels include
zero descriptors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.evaluation import _with_noise
from taskaxes.features import DepthMask, FeatureGrid, cosine_map, window_pixels
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.scenes import sample_box, sample_cylinder
from taskaxes.simulator import (
    FeatureRenderConfig,
    Scene,
    SceneObject,
    _object_basis,
    render_synthetic_features,
)

INTR = CameraIntrinsics(fx=160.0, fy=160.0, cx=40.0, cy=30.0, width=80, height=60)
CLOUDS = {"slab": sample_box(0.10, 0.06, 0.01, 0.002),
          "disc": sample_cylinder(0.04, 0.012, 0.002)}


def _dense_render(scene, noise_tag=0):
    """The renderer as written before the compact path: a full float64
    grid, noise added in place by (v, u), one float32 cast at the end."""
    intr = scene.intrinsics
    cfg = scene.features
    pts_world, pts_local, obj_ids = [], [], []
    for i, obj in enumerate(scene.objects):
        if obj.cloud.shape[0] == 0:
            continue
        pts_world.append(obj.cloud @ obj.pose.rotation.T + obj.pose.origin)
        pts_local.append(obj.cloud)
        obj_ids.append(np.full(obj.cloud.shape[0], i, dtype=np.int64))
    world = np.concatenate(pts_world)
    local = np.concatenate(pts_local)
    obj_ids = np.concatenate(obj_ids)
    z = world[:, 2]
    front = z > 1e-6
    u = np.rint(intr.fx * world[:, 0] / np.where(front, z, 1.0) + intr.cx).astype(np.int64)
    v = np.rint(intr.fy * world[:, 1] / np.where(front, z, 1.0) + intr.cy).astype(np.int64)
    visible = front & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    u, v, z = u[visible], v[visible], z[visible]
    local = local[visible]
    obj_ids = obj_ids[visible]
    depth = np.full((intr.height, intr.width), np.nan)
    data = np.zeros((intr.height, intr.width, cfg.dim), dtype=np.float64)
    if u.size:
        flat = v * intr.width + u
        order = np.lexsort((np.arange(flat.size), z, flat))
        flat_sorted = flat[order]
        first = np.ones(flat_sorted.size, dtype=bool)
        first[1:] = flat_sorted[1:] != flat_sorted[:-1]
        winners = order[first]
        wu, wv = u[winners], v[winners]
        depth[wv, wu] = z[winners]
        for i, obj in enumerate(scene.objects):
            sel = obj_ids[winners] == i
            if not sel.any():
                continue
            freqs, phase = _object_basis(obj.name, cfg)
            data[wv[sel], wu[sel]] = np.cos(local[winners][sel] @ freqs.T + phase)
        if cfg.noise_sigma > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 7919, noise_tag]))
            data[wv, wu] += rng.normal(0.0, cfg.noise_sigma,
                                       size=(winners.size, cfg.dim))
    return data.astype(np.float32), depth


def _dense_with_noise(grid, mask, sigma, rng):
    """Reference noise as written before: float64 copy of the whole grid."""
    data = grid.data.astype(np.float64)
    vv, uu = np.nonzero(mask.valid)
    data[vv, uu] += rng.normal(0.0, sigma, size=(vv.size, grid.dim))
    return data.astype(np.float32)


def _dense_cosine(ref, grid, mask):
    """cosine_map as written before: full float64 grid and per-pixel norms."""
    ref = np.asarray(ref, dtype=np.float64)
    data64 = grid.data.astype(np.float64)
    norms = np.sqrt(np.einsum("hwd,hwd->hw", data64, data64))
    valid = mask.valid & (norms > 0)
    score = np.zeros(norms.shape, dtype=np.float64)
    score[valid] = (data64[valid] @ ref) / (norms[valid] * float(np.linalg.norm(ref)))
    return score, valid


_pose = st.tuples(st.floats(-0.06, 0.06), st.floats(-0.05, 0.05),
                  st.sampled_from([-0.02, 0.0, 0.12, 0.2, 0.25]),
                  st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                  st.floats(-180.0, 180.0))


@st.composite
def scenes(draw):
    objects = []
    for name in draw(st.sampled_from([("slab",), ("disc",), ("slab", "disc"),
                                      ("disc", "slab")])):
        x, y, z, r, p, yaw = draw(_pose)
        objects.append(SceneObject(name=name, cloud=CLOUDS[name],
                                   pose=Frame.from_rpy_deg((x, y, z), (r, p, yaw))))
    features = FeatureRenderConfig(dim=draw(st.sampled_from([4, 9, 24])),
                                   noise_sigma=draw(st.sampled_from([0.0, 0.1, 1.0])),
                                   seed=draw(st.integers(0, 2**16)))
    return Scene(objects=objects, intrinsics=INTR, features=features)


@settings(max_examples=60, deadline=None)
@given(scenes(), st.integers(0, 2**31 - 1))
def test_render_equals_dense_render(scene, noise_tag):
    grid, depth = render_synthetic_features(scene, noise_tag=noise_tag)
    data, dense_depth = _dense_render(scene, noise_tag)
    assert grid.data.dtype == np.float32
    assert grid.data.shape == data.shape
    assert grid.data.tobytes() == data.tobytes()
    assert depth.depth.tobytes() == dense_depth.tobytes()


def _copies(origin, rpy, names=("disc", "disc_twin")):
    return [SceneObject(name=name, cloud=CLOUDS["disc"], pose=Frame.from_rpy_deg(origin, rpy))
            for name in names]


def test_render_equals_dense_render_on_ties_and_empty_views():
    features = FeatureRenderConfig(noise_sigma=0.1)
    cases = [
        _copies((0.0, 0.0, 0.2), (0.0, 0.0, 0.0)),     # every point tied with its twin
        _copies((0.01, 0.0, 0.15), (0.0, 0.0, 30.0)),  # flat caps: ties within one object
        _copies((0.0, 0.0, -0.5), (0.0, 0.0, 0.0)),    # behind the camera
        _copies((5.0, 0.0, 0.2), (0.0, 0.0, 0.0)),     # beside the image
    ]
    for objects in cases:
        scene = Scene(objects=objects, intrinsics=INTR, features=features)
        grid, depth = render_synthetic_features(scene, noise_tag=1)
        data, dense_depth = _dense_render(scene, noise_tag=1)
        assert grid.data.tobytes() == data.tobytes()
        assert depth.depth.tobytes() == dense_depth.tobytes()


@settings(max_examples=40, deadline=None)
@given(scenes(), st.sampled_from([0.1, 1.0]), st.integers(0, 2**16))
def test_with_noise_equals_dense_noise(scene, sigma, seed):
    grid, depth = render_synthetic_features(scene)
    before = grid.data.tobytes()
    noisy = _with_noise(grid, depth, sigma, np.random.default_rng(seed))
    expected = _dense_with_noise(grid, depth, sigma, np.random.default_rng(seed))
    assert noisy.data.dtype == np.float32
    assert noisy.data.tobytes() == expected.tobytes()
    assert grid.data.tobytes() == before  # the clean grid is not touched


@settings(max_examples=40, deadline=None)
@given(scenes(), st.sampled_from([0.1, 1.0]), st.integers(0, 2**16),
       st.lists(st.tuples(st.integers(-2, 81), st.integers(-2, 61)), max_size=4),
       st.integers(0, 2))
def test_with_noise_on_a_windows_only_reference_equals_dense_noise(
        scene, sigma, seed, keypoints, radius):
    full, depth = render_synthetic_features(scene)
    read = window_pixels(keypoints, INTR.width, INTR.height, radius)
    grid, _ = render_synthetic_features(scene, pixels=read)
    noisy = _with_noise(grid, depth, sigma, np.random.default_rng(seed))
    expected = _dense_with_noise(full, depth, sigma, np.random.default_rng(seed))
    assert np.array_equal(noisy.pixels, grid.pixels)
    assert np.isin(noisy.pixels, read).all()
    rows = noisy.data.reshape(-1, grid.dim)[noisy.pixels]
    assert rows.tobytes() == expected.reshape(-1, grid.dim)[noisy.pixels].tobytes()


@st.composite
def grids_and_masks(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    data = rng.normal(size=(h, w, dim)).astype(dtype)
    data[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    depth = rng.uniform(-0.1, 1.0, size=(h, w))
    depth[rng.random((h, w)) < 0.3] = np.nan
    return FeatureGrid(data=data), DepthMask(depth=depth), rng.normal(size=dim)


@settings(max_examples=200, deadline=None)
@given(grids_and_masks())
def test_cosine_map_equals_dense_cosine(case):
    grid, mask, ref = case
    sim = cosine_map(ref, grid, mask)
    score, valid = _dense_cosine(ref, grid, mask)
    assert np.array_equal(sim.valid, valid)
    assert np.array_equal(sim.score, score)
    # another mask on the same grid is scored against its own valid pixels
    other = DepthMask(depth=np.where(mask.valid, np.nan, 0.5))
    sim = cosine_map(ref, grid, other)
    score, valid = _dense_cosine(ref, grid, other)
    assert np.array_equal(sim.valid, valid)
    assert np.array_equal(sim.score, score)


def test_cosine_map_on_rendered_grid_equals_dense_cosine():
    scene = Scene(objects=[SceneObject(name="slab", cloud=CLOUDS["slab"],
                                       pose=Frame.from_rpy_deg((0.0, 0.0, 0.2),
                                                               (10.0, 0.0, 20.0)))],
                  intrinsics=INTR, features=FeatureRenderConfig(noise_sigma=0.1))
    grid, depth = render_synthetic_features(scene, noise_tag=3)
    vv, uu = np.nonzero(depth.valid)
    for ref in (grid.data[vv[vv.size // 2], uu[uu.size // 2]], grid.data[0, 0] + 1.0):
        sim = cosine_map(ref, grid, depth)
        score, valid = _dense_cosine(ref, grid, depth)
        assert np.array_equal(sim.valid, valid)
        assert np.array_equal(sim.score, score)
