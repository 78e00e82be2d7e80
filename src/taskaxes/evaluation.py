"""Grounding-accuracy validation on randomized synthetic scene pairs.

A fixed reference scene (an elongated paddle and a flat dish) is
re-rendered under per-object rigid transforms; keypoints and axes are
grounded from the rendered features and compared against the analytic
ground truth. Because synthetic descriptors are functions of
object-local coordinates, true correspondences share descriptors
exactly, so the noiseless error floor is the depth-pixel quantization.

Edge-direction axes are compared as lines (sign-insensitive): their
orientation convention is a determinism device, not a semantic claim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TaskAxesError
from .features import DepthMask, FeatureGrid, MatchConfig, window_pixels
from .geometry import CameraIntrinsics, Frame, angle_between
from .grounding import (
    AXIS_EDGE_DIRECTION,
    AXIS_FROM_KEYPOINTS,
    AXIS_GLOBAL,
    AXIS_SURFACE_NORMAL,
    AxisSpec,
    GroundingConfig,
    GroundingSpec,
    axis_from_keypoints,
    ground_spec,
)
from .scenes import make_grounding_spec, sample_box, sample_cylinder, snap_to_cloud
from .simulator import FeatureRenderConfig, Scene, SceneObject, render_synthetic_features

_INTR = CameraIntrinsics(fx=680.0, fy=680.0, cx=320.0, cy=240.0, width=640, height=480)
_FEATURES = FeatureRenderConfig(seed=11)

_REF_POSES = {"paddle": ((-0.07, 0.0, 0.44), 0.0), "dish": ((0.085, 0.0, 0.44), 0.0)}

# local axes the grounded ones are judged against, per axis label
_TRUE_LOCAL = {
    "main_dir": ("paddle", np.array([1.0, 0.0, 0.0]), "signed_from_keypoints"),
    "edge_dir": ("paddle", np.array([1.0, 0.0, 0.0]), "line"),
    "surface_dir": ("dish", np.array([0.0, 0.0, -1.0]), "signed"),
    "up_ref": (None, np.array([0.0, 0.0, -1.0]), "signed"),
}


@dataclass
class _Geometry:
    cloud: np.ndarray
    keypoints: dict


@functools.cache
def _build_geometry():
    paddle_cloud = sample_box(0.20, 0.03, 0.012, 0.0005)
    paddle_kp = {
        "tip_pos": snap_to_cloud((0.085, 0.0, -0.006), paddle_cloud),
        "tail_pos": snap_to_cloud((-0.085, 0.0, -0.006), paddle_cloud),
        "side_pos": snap_to_cloud((0.0, 0.012, -0.006), paddle_cloud),
    }
    dish_cloud = sample_cylinder(0.06, 0.015, 0.0005)
    dish_kp = {
        "center_pos": snap_to_cloud((0.0, 0.0, -0.0075), dish_cloud),
        "rim_pos": snap_to_cloud((0.052, 0.0, -0.0075), dish_cloud),
    }
    return {"paddle": _Geometry(paddle_cloud, paddle_kp),
            "dish": _Geometry(dish_cloud, dish_kp)}


def _make_scene(poses, features: FeatureRenderConfig) -> Scene:
    geo = _build_geometry()
    objects = [SceneObject(name=name, pose=pose, cloud=geo[name].cloud,
                           truth_keypoints=geo[name].keypoints)
               for name, pose in poses.items()]
    return Scene(objects=objects, intrinsics=_INTR, features=features)


def reference_scene() -> Scene:
    poses = {name: Frame.from_rpy_deg(origin, (0.0, 0.0, yaw))
             for name, (origin, yaw) in _REF_POSES.items()}
    return _make_scene(poses, replace(_FEATURES))


def validation_spec() -> GroundingSpec:
    scene = reference_scene()
    keypoints = []
    for obj_name, labels in (("paddle", ("tip_pos", "tail_pos", "side_pos")),
                             ("dish", ("center_pos", "rim_pos"))):
        sub = make_grounding_spec(scene, obj_name, labels, [],
                                  reference_image_id="validation")
        keypoints.extend(sub.keypoints)
    axes = [
        AxisSpec(label="main_dir", kind=AXIS_FROM_KEYPOINTS, a="tip_pos", b="tail_pos"),
        AxisSpec(label="edge_dir", kind=AXIS_EDGE_DIRECTION, at="side_pos"),
        AxisSpec(label="surface_dir", kind=AXIS_SURFACE_NORMAL, at="center_pos"),
        AxisSpec(label="up_ref", kind=AXIS_GLOBAL, dir=(0.0, 0.0, -1.0)),
    ]
    return GroundingSpec(reference_image_id="validation", keypoints=keypoints,
                         axes=axes)


def _draw_poses(rng) -> dict:
    for _ in range(200):
        poses = {}
        centers = {}
        for name, x_range, y_range in (("paddle", (-0.095, -0.04), (-0.04, 0.04)),
                                       ("dish", (0.05, 0.12), (-0.05, 0.05))):
            origin = np.array([rng.uniform(*x_range), rng.uniform(*y_range),
                               rng.uniform(0.425, 0.455)])
            rpy = (rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0),
                   rng.uniform(-40.0, 40.0))
            poses[name] = Frame.from_rpy_deg(origin, rpy)
            centers[name] = origin[:2]
        if np.linalg.norm(centers["paddle"] - centers["dish"]) >= 0.17:
            return poses
    raise RuntimeError("could not draw non-overlapping object poses")


def _with_noise(grid: FeatureGrid, mask: DepthMask, sigma, rng) -> FeatureGrid:
    """The grid with Gaussian noise added, in float64, to its stored rows
    at valid pixels. The draw covers every valid pixel, in pixel order,
    so a row gets the same noise whichever pixels the grid stores; rows
    at invalid pixels keep their values. `grid` is not changed."""
    if sigma <= 0:
        return grid
    valid = np.flatnonzero(mask.valid)
    noise = rng.normal(0.0, sigma, size=(valid.size, grid.dim))
    hit = mask.valid.reshape(-1)[grid.pixels]
    rows = grid.rows.copy()
    rows[hit] += noise[np.searchsorted(valid, grid.pixels[hit])]
    return FeatureGrid.from_rows(grid.height, grid.width, grid.pixels, rows,
                                 grid.dtype, dict(grid.meta))


def _axis_error_deg(grounded, truth, metric) -> float:
    ang = math.degrees(angle_between(grounded, truth))
    if metric == "line":
        return min(ang, 180.0 - ang)
    return ang


def quantization_bound_m(max_depth=0.46) -> float:
    """Two depth-pixel quanta at the far end of the working volume."""
    return 2.0 * max_depth / min(_INTR.fx, _INTR.fy)


def run_validation(trials: int, noise_sigma: float = 0.0, mode: str = "hard",
                   temperature: float = MatchConfig.temperature, seed: int = 0,
                   min_score: float = 0.2) -> dict:
    """Ground the validation spec on `trials` transformed scenes.

    Returns summary statistics of keypoint position error (meters) and
    axis angle error (degrees), overall and per axis kind, plus a view
    keyed by the controller kind that would consume each error type.
    Every setting is checked, also when there are no trials.
    """
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    cfg = GroundingConfig(match=MatchConfig(mode=mode, temperature=temperature),
                          min_score=min_score)
    features = replace(_FEATURES, noise_sigma=noise_sigma)
    stats = {
        "trials": int(trials),
        "noise_sigma": float(noise_sigma),
        "mode": mode,
        "temperature": float(temperature),
        "seed": int(seed),
        "quantization_bound_m": quantization_bound_m(),
    }
    if trials == 0:
        stats.update({"keypoints": {"count": 0}, "axes": {"count": 0},
                      "per_axis_kind": {}, "per_controller_kind": {},
                      "failures": 0})
        return stats

    spec = validation_spec()
    # grounding reads the reference only through its keypoint windows
    read = window_pixels([kp.pixel for kp in spec.keypoints], _INTR.width,
                         _INTR.height, cfg.match.window_radius)
    ref_grid_clean, ref_depth = render_synthetic_features(reference_scene(),
                                                          pixels=read)
    geo = _build_geometry()

    owner = {kp.label: kp.object for kp in spec.keypoints}
    kp_errors = []
    axis_errors = {label: [] for label in _TRUE_LOCAL}
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        poses = _draw_poses(rng)
        scene = _make_scene(poses, features)
        tgt_grid, tgt_depth = render_synthetic_features(scene,
                                                        noise_tag=2 * trial + 1)
        ref_grid = _with_noise(ref_grid_clean, ref_depth, noise_sigma,
                               np.random.default_rng(
                                   np.random.SeedSequence([seed, trial, 5])))
        try:
            grounded = ground_spec(spec, ref_grid, tgt_grid, tgt_depth, None,
                                   _INTR, cfg)
        except TaskAxesError:
            failures += 1
            continue

        truth_kp = {label: poses[owner[label]].apply(geo[owner[label]].keypoints[label])
                    for label in grounded.keypoints}
        for label, pos in grounded.keypoints.items():
            kp_errors.append(float(np.linalg.norm(pos - truth_kp[label])))
        for label, direction in grounded.axes.items():
            obj, local, metric = _TRUE_LOCAL[label]
            if metric == "signed_from_keypoints":
                truth = axis_from_keypoints(truth_kp["tip_pos"], truth_kp["tail_pos"])
                metric = "signed"
            elif obj is None:
                truth = local
            else:
                truth = poses[obj].apply_dir(local)
            axis_errors[label].append(_axis_error_deg(direction, truth, metric))

    def summarize(values, scale=1.0):
        if not values:
            return {"count": 0}
        arr = np.asarray(values) * scale
        return {"count": int(arr.size), "median": float(np.median(arr)),
                "mean": float(arr.mean()), "p90": float(np.percentile(arr, 90)),
                "max": float(arr.max())}

    axis_kind = {ax.label: ax.kind for ax in spec.axes}
    per_kind = {}
    for kind in (AXIS_FROM_KEYPOINTS, AXIS_SURFACE_NORMAL, AXIS_EDGE_DIRECTION,
                 AXIS_GLOBAL):
        values = [e for label, errs in axis_errors.items()
                  for e in errs if axis_kind[label] == kind]
        per_kind[kind] = summarize(values)
    nonglobal = [e for label, errs in axis_errors.items()
                 for e in errs if axis_kind[label] != AXIS_GLOBAL]

    kp_stats = summarize(kp_errors)
    axis_stats = summarize(nonglobal)
    stats.update({
        "failures": failures,
        "keypoints": kp_stats,
        "axes": axis_stats,
        "per_axis_kind": per_kind,
        "per_controller_kind": {
            "PosAlign": kp_stats,
            "PosWaypoint": kp_stats,
            "AxisAlign": axis_stats,
            "ForceAlign": axis_stats,
        },
    })
    return stats
