"""A reference render computes descriptors only where grounding reads it.

render_synthetic_features(scene, pixels=...) must give, at every
requested pixel, the bytes of the full render, zeros everywhere else and
the full render's depth over the whole image, on random scenes with
occlusion and objects leaving the image, every noise level and noise
tag. window_pixels must list exactly the pixels window_average reads,
so a reference rendered at those pixels transfers like a full one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.errors import OutOfBounds
from taskaxes.evaluation import reference_scene, validation_spec
from taskaxes.features import FeatureGrid, window_average, window_pixels
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.scenes import build_task, sample_box, sample_cylinder, scene_from_json
from taskaxes.simulator import (
    FeatureRenderConfig,
    Scene,
    SceneObject,
    SkillRunner,
    render_reference,
    render_synthetic_features,
)
from taskaxes.skill import parse_skill

INTR = CameraIntrinsics(fx=160.0, fy=160.0, cx=40.0, cy=30.0, width=80, height=60)
SIZE = INTR.width * INTR.height
CLOUDS = {"slab": sample_box(0.10, 0.06, 0.01, 0.002),
          "disc": sample_cylinder(0.04, 0.012, 0.002)}

# x, y and z of the pose reach past the image edges and behind the camera
_pose = st.tuples(st.floats(-0.08, 0.08), st.floats(-0.06, 0.06),
                  st.sampled_from([-0.02, 0.12, 0.2, 0.25]),
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
    features = FeatureRenderConfig(dim=draw(st.sampled_from([4, 24])),
                                   noise_sigma=draw(st.sampled_from([0.0, 0.1, 1.0])),
                                   seed=draw(st.integers(0, 2**16)))
    return Scene(objects=objects, intrinsics=INTR, features=features)


_keypoint = st.tuples(st.integers(-2, INTR.width + 1), st.integers(-2, INTR.height + 1))


@st.composite
def pixel_sets(draw):
    kind = draw(st.sampled_from(["empty", "single", "windows", "all", "subset"]))
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "single":
        return np.array([draw(st.integers(0, SIZE - 1))])
    if kind == "all":
        return np.arange(SIZE)
    if kind == "subset":
        return np.array(draw(st.lists(st.integers(0, SIZE - 1), max_size=40)),
                        dtype=np.int64)
    # windows around keypoints, many of them clipped by an image edge
    corners = st.tuples(st.sampled_from([0, 1, INTR.width - 2, INTR.width - 1]),
                        st.sampled_from([0, 1, INTR.height - 2, INTR.height - 1]))
    keypoints = draw(st.lists(st.one_of(corners, _keypoint), min_size=1, max_size=6))
    return window_pixels(keypoints, INTR.width, INTR.height, draw(st.integers(0, 3)))


@settings(max_examples=80, deadline=None)
@given(scenes(), st.integers(0, 2**31 - 1), pixel_sets())
def test_render_at_pixels_equals_full_render_there(scene, noise_tag, pixels):
    full, full_depth = render_synthetic_features(scene, noise_tag=noise_tag)
    lazy, lazy_depth = render_synthetic_features(scene, noise_tag=noise_tag, pixels=pixels)
    assert np.array_equal(lazy_depth.depth, full_depth.depth, equal_nan=True)
    assert lazy.data.dtype == np.float32 and lazy.data.shape == full.data.shape
    assert lazy.meta == full.meta
    rows, full_rows = lazy.data.reshape(SIZE, -1), full.data.reshape(SIZE, -1)
    assert np.array_equal(rows[pixels], full_rows[pixels])
    rest = np.ones(SIZE, dtype=bool)
    rest[pixels] = False
    assert not rows[rest].any()


# ----------------------------------------------------------------------
# the pixels window_average reads


def _window_by_definition(u, v, radius, width, height):
    if not (0 <= u < width and 0 <= v < height):
        return set()
    return {vv * width + uu
            for vv in range(v - radius, v + radius + 1)
            for uu in range(u - radius, u + radius + 1)
            if 0 <= uu < width and 0 <= vv < height}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 9)), max_size=4),
       st.integers(0, 4), st.integers(1, 10), st.integers(1, 7))
def test_window_pixels_is_the_union_of_clipped_windows(keypoints, radius, width, height):
    got = window_pixels(keypoints, width, height, radius)
    want = set().union(*[_window_by_definition(u, v, radius, width, height)
                         for u, v in keypoints])
    assert got.dtype == np.int64
    assert got.tolist() == sorted(want)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 9), st.integers(0, 6)), st.integers(0, 4))
def test_window_average_reads_only_window_pixels(keypoint, radius):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(7, 10, 3)).astype(np.float32)
    kept = np.zeros((70, 3), dtype=np.float32)
    read = window_pixels([keypoint], 10, 7, radius)
    kept[read] = data.reshape(70, 3)[read]
    full = window_average(FeatureGrid(data=data), *keypoint, radius)
    lazy = window_average(FeatureGrid(data=kept.reshape(7, 10, 3)), *keypoint, radius)
    assert full.tobytes() == lazy.tobytes()


def test_validation_reference_windows_average_as_the_full_render():
    scene = reference_scene()
    pixels = [kp.pixel for kp in validation_spec().keypoints]
    full, _ = render_synthetic_features(scene)
    for radius in (0, 1, 3):
        read = window_pixels(pixels, scene.intrinsics.width, scene.intrinsics.height,
                             radius)
        lazy, _ = render_synthetic_features(scene, pixels=read)
        for u, v in pixels:
            assert (window_average(lazy, u, v, radius).tobytes()
                    == window_average(full, u, v, radius).tobytes())


def test_render_reference_carries_the_full_render_in_the_spec_windows():
    bundle = build_task("scrape")
    scene, _ = scene_from_json(bundle["ref_scene"])
    keypoints = [kp for spec in bundle["specs"].values() for kp in spec.keypoints]
    full, full_depth = render_synthetic_features(scene)
    size = scene.intrinsics.width * scene.intrinsics.height
    for radius in (0, 2):
        ref, depth = render_reference(scene, keypoints, radius)
        read = window_pixels([kp.pixel for kp in keypoints], scene.intrinsics.width,
                             scene.intrinsics.height, radius)
        assert read.size and np.array_equal(depth.depth, full_depth.depth, equal_nan=True)
        rows, full_rows = ref.data.reshape(size, -1), full.data.reshape(size, -1)
        assert rows[read].tobytes() == full_rows[read].tobytes()
        rest = np.ones(size, dtype=bool)
        rest[read] = False
        assert not rows[rest].any()


@pytest.mark.parametrize("pixel", [(-1, 200), (640, 10), (5, 480)])
def test_keypoint_outside_the_reference_still_raises_out_of_bounds(pixel):
    bundle = build_task("scrape")
    bundle["specs"]["pan"].keypoints[1].pixel = pixel
    label = bundle["specs"]["pan"].keypoints[1].label
    scene, _ = scene_from_json(bundle["scene"])
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    runner = SkillRunner(parse_skill(bundle["skill_text"]), scene,
                         bundle["specs"], ref_scene=ref_scene)
    with pytest.raises(OutOfBounds, match=f"role 'pan': keypoint '{label}': pixel"):
        runner.ground_all()
