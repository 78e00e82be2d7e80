import math

import numpy as np
import pytest

from taskaxes.errors import (
    ConfigError,
    DegenerateAxis,
    DegenerateNeighborhood,
    InsufficientNeighbors,
    MatchBelowThreshold,
)
from taskaxes.features import DepthMask, FeatureGrid
from taskaxes.geometry import CameraIntrinsics, Frame, deproject_pixel, project_point
from taskaxes.grounding import (
    AxisSpec,
    GroundingConfig,
    GroundingSpec,
    KeypointRef,
    axis_from_keypoints,
    cloud_from_depth,
    edge_direction,
    ground_keypoint,
    ground_spec,
    spec_from_json,
    spec_to_json,
    surface_normal,
)
from taskaxes.scenes import sample_box, snap_to_cloud
from taskaxes.simulator import (
    FeatureRenderConfig,
    Scene,
    SceneObject,
    render_synthetic_features,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240)


# ---------------------------------------------------------------- axes


def test_axis_from_keypoints_unit_case():
    np.testing.assert_allclose(
        axis_from_keypoints([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]), [0.0, 0.0, 1.0])


def test_axis_from_keypoints_degenerate():
    with pytest.raises(DegenerateAxis):
        axis_from_keypoints([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_axis_from_keypoints_hand_normalization():
    got = axis_from_keypoints([1.0, 2.0, 3.0], [4.0, 6.0, 3.0])
    np.testing.assert_allclose(got, [-0.6, -0.8, 0.0], atol=1e-12)


def _plane_points(normal, point, extent=0.03, spacing=0.002):
    normal = np.asarray(normal, float) / np.linalg.norm(normal)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(seed @ normal) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    t1 = seed - (seed @ normal) * normal
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    grid = np.arange(-extent, extent + 1e-12, spacing)
    pts = [np.asarray(point) + a * t1 + b * t2 for a in grid for b in grid]
    return np.array(pts)


def test_surface_normal_ground_plane_tie_breaks_up():
    # plane through the camera origin: viewing ray is tangent, sign falls
    # back to preferring +Z
    pts = _plane_points([0, 0, 1], [0.0, 0.0, 0.0])
    n = surface_normal(pts, [0.0, 0.0, 0.0], radius=0.02)
    np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-9)


def test_surface_normal_tangent_viewing_ray_prefers_up():
    # the plane x = z holds the ray through `at`, and eigh gives -z here
    at = np.array([0.5, 0.0, 0.5])
    n = surface_normal(_plane_points([1, 0, -1], at), at)
    np.testing.assert_allclose(n, np.array([-1.0, 0.0, 1.0]) / math.sqrt(2), atol=1e-9)


def test_point_cloud_must_be_n_by_3():
    with pytest.raises(ConfigError, match=r"^point cloud must have shape \(N, 3\)$"):
        surface_normal(np.zeros((10, 2)), [0.0, 0.0, 0.0])


def test_surface_normal_oblique_plane_points_toward_camera():
    at = np.array([0.2, 0.2, 0.2])  # on the plane x+y+z = 0.6
    pts = _plane_points([1, 1, 1], at)
    n = surface_normal(pts, at, radius=0.02)
    expected = -np.ones(3) / math.sqrt(3.0)  # flipped toward the origin
    np.testing.assert_allclose(n, expected, atol=1e-9)


def test_surface_normal_insufficient_neighbors():
    pts = np.array([[0.0, 0.0, 0.0], [0.001, 0.0, 0.0], [0.002, 0.0, 0.0]])
    with pytest.raises(InsufficientNeighbors):
        surface_normal(pts, [0.0, 0.0, 0.0], radius=0.05)


def test_surface_normal_degenerate_on_a_line():
    pts = np.array([[0.001 * i, 0.0, 0.0] for i in range(-10, 11)])
    with pytest.raises(DegenerateNeighborhood):
        surface_normal(pts, [0.0, 0.0, 0.0], radius=0.05)


def test_edge_direction_x_segment():
    pts = np.array([[0.001 * i, 0.0, 0.0] for i in range(-10, 11)])
    np.testing.assert_allclose(edge_direction(pts, [0.0, 0.0, 0.0], radius=0.05),
                               [1.0, 0.0, 0.0], atol=1e-9)


def test_edge_direction_diagonal_segment_and_sign():
    d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    pts = np.array([0.001 * i * -d for i in range(-10, 11)])
    got = edge_direction(pts, [0.0, 0.0, 0.0], radius=0.05)
    np.testing.assert_allclose(got, d, atol=1e-9)  # sign canonical toward +X


def test_edge_direction_isotropic_blob_degenerate():
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                        for sz in (-1, 1)], dtype=float) * 0.01
    with pytest.raises(DegenerateNeighborhood):
        edge_direction(corners, [0.0, 0.0, 0.0], radius=0.05)


# ---------------------------------------------------------------- spec types


def test_spec_validation():
    kps = [KeypointRef("obj", "a", (1, 2)), KeypointRef("obj", "b", (3, 4))]
    with pytest.raises(ConfigError):
        GroundingSpec("img", kps, [AxisSpec(label="ax", kind="from_keypoints",
                                            a="a", b="missing")])
    with pytest.raises(ConfigError):
        GroundingSpec("img", kps + [KeypointRef("obj", "a", (5, 6))], [])
    with pytest.raises(ConfigError):
        AxisSpec(label="g", kind="global")
    with pytest.raises(ConfigError):
        AxisSpec(label="x", kind="not_a_kind")


def test_spec_json_roundtrip():
    spec = GroundingSpec(
        "ref_img",
        [KeypointRef("tool", "tip", (10, 20)), KeypointRef("tool", "tail", (30, 5))],
        [AxisSpec(label="dir", kind="from_keypoints", a="tip", b="tail"),
         AxisSpec(label="up", kind="global", dir=(0.0, 0.0, -1.0)),
         AxisSpec(label="n", kind="surface_normal", at="tip")])
    back = spec_from_json(spec_to_json(spec))
    assert spec_to_json(back) == spec_to_json(spec)


# ---------------------------------------------------------------- grounding


def _flat_scene(origin=(0.0, 0.0, 0.5), seed=5):
    cloud = sample_box(0.08, 0.05, 0.01, 0.0006)
    keypoints = {
        "tip": snap_to_cloud((0.03, 0.0, -0.005), cloud),
        "tail": snap_to_cloud((-0.03, 0.0, -0.005), cloud),
        "side": snap_to_cloud((0.0, 0.02, -0.005), cloud),
    }
    obj = SceneObject(name="slab", pose=Frame.from_rpy_deg(origin, (0, 0, 0)),
                      cloud=cloud, truth_keypoints=keypoints)
    features = FeatureRenderConfig(dim=16, length_scale=0.015, seed=seed)
    return Scene(objects=[obj], intrinsics=INTR, features=features)


def _spec_for(scene, labels, axes):
    obj = scene.objects[0]
    kps = []
    for label in labels:
        u, v, _ = project_point(obj.world_keypoint(label), scene.intrinsics)
        kps.append(KeypointRef(obj.name, label, (round(u), round(v))))
    return GroundingSpec("ref", kps, axes)


def test_ground_keypoint_identity_scene():
    scene = _flat_scene()
    grid, depth = render_synthetic_features(scene)
    spec = _spec_for(scene, ["tip"], [])
    cfg = GroundingConfig(mode="hard")
    pos, score = ground_keypoint(grid, spec.keypoints[0], grid, depth, INTR, cfg)
    px = spec.keypoints[0].pixel
    expected = deproject_pixel(px[0], px[1], depth.depth[px[1], px[0]], INTR)
    np.testing.assert_allclose(pos, expected, atol=1e-12)
    assert score > 0.99


def test_ground_keypoint_below_threshold():
    scene = _flat_scene(seed=5)
    other = _flat_scene(seed=99)  # different descriptor basis, no correspondence
    grid, depth = render_synthetic_features(scene)
    grid2, depth2 = render_synthetic_features(other)
    spec = _spec_for(scene, ["tip"], [])
    cfg = GroundingConfig(mode="hard", min_score=0.9)
    with pytest.raises(MatchBelowThreshold):
        ground_keypoint(grid, spec.keypoints[0], grid2, depth2, INTR, cfg)


def test_soft_match_on_a_depth_hole_reads_the_nearest_valid_depth():
    # two equal peaks at (u, v) = (1, 2) and (3, 2) put the soft match on
    # the hole at (2, 2); of its four valid neighbours 1 px away, the
    # row-major first, (2, 1), gives the depth
    data = np.zeros((5, 5, 2), dtype=np.float32)
    data[..., 1] = 1.0
    data[2, 1] = data[2, 3] = (1.0, 0.0)
    grid = FeatureGrid(data)
    depth = 0.5 + 0.01 * np.arange(25.0).reshape(5, 5)
    depth[2, 2] = np.nan
    intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=2.0, width=5, height=5)
    cfg = GroundingConfig(mode="soft", window_radius=0)
    kp = KeypointRef(object="o", label="k", pixel=(1, 2))
    pos, score = ground_keypoint(grid, kp, grid, DepthMask(depth), intr, cfg)
    assert score == 1.0
    assert pos[2] == depth[1, 2]
    np.testing.assert_allclose(pos, deproject_pixel(2.0, 2.0, depth[1, 2], intr),
                               rtol=0, atol=1e-12)


def test_ground_spec_global_axis_passthrough():
    scene = _flat_scene()
    grid, depth = render_synthetic_features(scene)
    spec = _spec_for(scene, ["tip"],
                     [AxisSpec(label="down", kind="global", dir=(0.0, 0.0, 2.0))])
    grounded = ground_spec(spec, grid, grid, depth, INTR,
                           GroundingConfig(mode="hard"))
    np.testing.assert_allclose(grounded.axes["down"], [0.0, 0.0, 1.0], atol=1e-12)


def test_ground_spec_error_is_annotated_with_label():
    scene = _flat_scene()
    grid, depth = render_synthetic_features(scene)
    spec = _spec_for(scene, ["tip", "tail"],
                     [AxisSpec(label="edge", kind="edge_direction", at="tip")])
    # a micrometer neighborhood has no 8 points anywhere; the error must
    # name the failing axis label
    cfg = GroundingConfig(mode="hard", normal_radius=1e-6)
    with pytest.raises(InsufficientNeighbors, match="edge"):
        ground_spec(spec, grid, grid, depth, INTR, cfg)


def test_ground_spec_deterministic():
    scene = _flat_scene()
    grid, depth = render_synthetic_features(scene)
    spec = _spec_for(scene, ["tip", "tail", "side"],
                     [AxisSpec(label="dir", kind="from_keypoints", a="tip", b="tail"),
                      AxisSpec(label="n", kind="surface_normal", at="side")])
    cfg = GroundingConfig(mode="hard")
    a = ground_spec(spec, grid, grid, depth, INTR, cfg)
    b = ground_spec(spec, grid, grid, depth, INTR, cfg)
    for label in a.keypoints:
        assert np.array_equal(a.keypoints[label], b.keypoints[label])
    for label in a.axes:
        assert np.array_equal(a.axes[label], b.axes[label])


def _plane_scene(origin, seed=5):
    from taskaxes.scenes import sample_plane
    cloud = sample_plane(0.08, 0.05, 0.0006)
    keypoints = {
        "tip": snap_to_cloud((0.03, 0.0, 0.0), cloud),
        "tail": snap_to_cloud((-0.03, 0.0, 0.0), cloud),
        "side": snap_to_cloud((0.0, 0.02, 0.0), cloud),
    }
    obj = SceneObject(name="slab", pose=Frame.from_rpy_deg(origin, (0, 0, 0)),
                      cloud=cloud, truth_keypoints=keypoints)
    features = FeatureRenderConfig(dim=16, length_scale=0.015, seed=seed)
    return Scene(objects=[obj], intrinsics=INTR, features=features)


def test_pixel_aligned_translation_is_exactly_equivariant():
    # whole-pixel lateral shift of a constant-depth plane: quantization
    # cancels and keypoints plus derived axes transfer to float precision
    depth0 = 0.5
    shift_px = (9, -6)
    t = np.array([shift_px[0] * depth0 / INTR.fx, shift_px[1] * depth0 / INTR.fy, 0.0])
    ref_scene = _plane_scene(origin=(0.0, 0.0, depth0))
    tgt_scene = _plane_scene(origin=tuple(np.array([0.0, 0.0, depth0]) + t))
    ref_grid, ref_depth = render_synthetic_features(ref_scene)
    tgt_grid, tgt_depth = render_synthetic_features(tgt_scene)
    spec = _spec_for(ref_scene, ["tip", "tail", "side"],
                     [AxisSpec(label="dir", kind="from_keypoints", a="tip", b="tail"),
                      AxisSpec(label="n", kind="surface_normal", at="side"),
                      AxisSpec(label="e", kind="edge_direction", at="tip")])
    cfg = GroundingConfig(mode="hard")
    ref_g = ground_spec(spec, ref_grid, ref_grid, ref_depth, INTR, cfg)
    tgt_g = ground_spec(spec, ref_grid, tgt_grid, tgt_depth, INTR, cfg)
    for label in ref_g.keypoints:
        np.testing.assert_allclose(tgt_g.keypoints[label],
                                   ref_g.keypoints[label] + t, atol=1e-9)
    for label in ref_g.axes:
        np.testing.assert_allclose(tgt_g.axes[label], ref_g.axes[label], atol=1e-6)


def test_general_rigid_transform_equivariance():
    rng = np.random.default_rng(17)
    depth0 = 0.5
    ref_scene = _flat_scene(origin=(0.0, 0.0, depth0))
    ref_grid, ref_depth = render_synthetic_features(ref_scene)
    spec = _spec_for(ref_scene, ["tip", "tail"],
                     [AxisSpec(label="dir", kind="from_keypoints", a="tip", b="tail")])
    cfg = GroundingConfig(mode="hard")
    quantum = depth0 * max(1.0 / INTR.fx, 1.0 / INTR.fy)
    baseline = np.linalg.norm(ref_scene.objects[0].truth_keypoints["tip"]
                              - ref_scene.objects[0].truth_keypoints["tail"])
    axis_bound_deg = math.degrees(math.atan2(3.0 * quantum, baseline))
    for _ in range(8):
        origin = np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.015, 0.015),
                           depth0 + rng.uniform(-0.03, 0.03)])
        rpy = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-30, 30))
        pose = Frame.from_rpy_deg(origin, rpy)
        tgt_scene = _flat_scene()
        tgt_scene.objects[0].pose = pose
        tgt_grid, tgt_depth = render_synthetic_features(tgt_scene)
        tgt_g = ground_spec(spec, ref_grid, tgt_grid, tgt_depth, INTR, cfg)
        obj = tgt_scene.objects[0]
        for label in ("tip", "tail"):
            truth = obj.world_keypoint(label)
            err = np.linalg.norm(tgt_g.keypoints[label] - truth)
            assert err <= 1.5 * quantum + 1e-6
        true_dir = pose.apply_dir(
            (obj.truth_keypoints["tip"] - obj.truth_keypoints["tail"]))
        true_dir = true_dir / np.linalg.norm(true_dir)
        ang = math.degrees(math.acos(np.clip(tgt_g.axes["dir"] @ true_dir, -1, 1)))
        assert ang < axis_bound_deg


def test_cloud_from_depth_matches_deproject():
    depth = np.full((4, 4), np.nan)
    depth[1, 2] = 0.8
    depth[3, 0] = 0.3
    cloud = cloud_from_depth(DepthMask(depth=depth), INTR)
    assert cloud.shape == (2, 3)
    np.testing.assert_allclose(cloud[0], deproject_pixel(2, 1, 0.8, INTR), atol=1e-12)
    np.testing.assert_allclose(cloud[1], deproject_pixel(0, 3, 0.3, INTR), atol=1e-12)
