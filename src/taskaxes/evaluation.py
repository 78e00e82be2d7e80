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

import math
from dataclasses import replace

import numpy as np

from .errors import ConfigError, TaskAxesError
from .features import DepthMask, FeatureGrid, MatchConfig, add_noise
from .geometry import CameraIntrinsics, angle_between
from .grounding import (
    AXIS_EDGE_DIRECTION,
    AXIS_FROM_KEYPOINTS,
    AXIS_GLOBAL,
    AXIS_KINDS,
    AXIS_SURFACE_NORMAL,
    AxisSpec,
    GroundingConfig,
    GroundingSpec,
    axis_from_keypoints,
    ground_spec,
)
from .scenes import make_grounding_spec, object_from_json
from .simulator import FeatureRenderConfig, Scene, render_reference, render_synthetic_features

_INTR = CameraIntrinsics(fx=680.0, fy=680.0, cx=320.0, cy=240.0, width=640, height=480)
_FEATURES = FeatureRenderConfig(seed=11)

# the validation objects, described as scenes.py describes the demo ones
_OBJECTS = {
    "paddle": {"primitive": {"type": "box", "size": [0.20, 0.03, 0.012], "spacing": 0.0005},
               "keypoints": {"tip_pos": [0.085, 0.0, -0.006],
                             "tail_pos": [-0.085, 0.0, -0.006],
                             "side_pos": [0.0, 0.012, -0.006]}},
    "dish": {"primitive": {"type": "cylinder", "radius": 0.06, "height": 0.015,
                           "spacing": 0.0005},
             "keypoints": {"center_pos": [0.0, 0.0, -0.0075],
                           "rim_pos": [0.052, 0.0, -0.0075]}},
}
# their clouds and snapped keypoints, sampled once per process
_MEMO = {}

_REF_POSES = {"paddle": ((-0.07, 0.0, 0.44), (0.0, 0.0, 0.0)),
              "dish": ((0.085, 0.0, 0.44), (0.0, 0.0, 0.0))}

# (object, local direction) of each PCA axis, whose truth is the
# direction turned with its object
_TRUE_LOCAL = {
    "edge_dir": ("paddle", np.array([1.0, 0.0, 0.0])),
    "surface_dir": ("dish", np.array([0.0, 0.0, -1.0])),
}


def _make_scene(poses, features: FeatureRenderConfig) -> Scene:
    """The validation objects at `poses`, name -> (origin, rpy_deg)."""
    objects = [object_from_json({"name": name, "pose": {"origin": origin, "rpy_deg": rpy},
                                 **_OBJECTS[name]}, memo=_MEMO)
               for name, (origin, rpy) in poses.items()]
    return Scene(objects=objects, intrinsics=_INTR, features=features)


def reference_scene() -> Scene:
    return _make_scene(_REF_POSES, replace(_FEATURES))


def validation_spec() -> GroundingSpec:
    scene = reference_scene()
    keypoints = [kp for name, obj in _OBJECTS.items()
                 for kp in make_grounding_spec(scene, name, obj["keypoints"], [],
                                               reference_image_id="validation").keypoints]
    axes = [
        AxisSpec(label="main_dir", kind=AXIS_FROM_KEYPOINTS, a="tip_pos", b="tail_pos"),
        AxisSpec(label="edge_dir", kind=AXIS_EDGE_DIRECTION, at="side_pos"),
        AxisSpec(label="surface_dir", kind=AXIS_SURFACE_NORMAL, at="center_pos"),
        AxisSpec(label="up_ref", kind=AXIS_GLOBAL, dir=(0.0, 0.0, -1.0)),
    ]
    return GroundingSpec(reference_image_id="validation", keypoints=keypoints,
                         axes=axes)


def _draw_poses(rng) -> dict:
    """Object name -> (origin, rpy_deg) of two objects at least 17 cm apart."""
    for _ in range(200):
        poses = {}
        for name, x_range, y_range in (("paddle", (-0.095, -0.04), (-0.04, 0.04)),
                                       ("dish", (0.05, 0.12), (-0.05, 0.05))):
            origin = np.array([rng.uniform(*x_range), rng.uniform(*y_range),
                               rng.uniform(0.425, 0.455)])
            rpy = (rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0),
                   rng.uniform(-40.0, 40.0))
            poses[name] = (origin, rpy)
        if np.linalg.norm(poses["paddle"][0][:2] - poses["dish"][0][:2]) >= 0.17:
            return poses
    raise RuntimeError("could not draw non-overlapping object poses")


def _with_noise(grid: FeatureGrid, mask: DepthMask, sigma, rng) -> FeatureGrid:
    """The grid with Gaussian noise added, in float64, to its stored rows
    at valid pixels: row i of one (valid pixels, dim) draw, in pixel
    order, goes to the i-th valid pixel, so a row gets the same noise
    whichever pixels the grid stores; rows at invalid pixels keep their
    values. `grid` is not changed."""
    if sigma <= 0:
        return grid
    hit = np.flatnonzero(mask.valid.reshape(-1)[grid.pixels])
    noisy = grid.rows[hit]
    add_noise(noisy, np.searchsorted(np.flatnonzero(mask.valid), grid.pixels[hit]),
              sigma, rng)
    rows = grid.rows.copy()
    rows[hit] = noisy
    return FeatureGrid.from_rows(grid.height, grid.width, grid.pixels, rows,
                                 grid.dtype, dict(grid.meta))


def quantization_bound_m(max_depth=0.46) -> float:
    """Two depth-pixel quanta at the far end of the working volume."""
    return 2.0 * max_depth / min(_INTR.fx, _INTR.fy)


def run_validation(trials: int, noise_sigma: float = 0.0, mode: str = MatchConfig.mode,
                   temperature: float = MatchConfig.temperature, seed: int = 0,
                   min_score: float = 0.2) -> dict:
    """Ground the validation spec on `trials` transformed scenes.

    Returns summary statistics of keypoint position error (meters) and
    axis angle error (degrees), overall and per axis kind, plus a view
    keyed by the controller kind that would consume each error type.
    Every setting is checked before any render; with no trials, every
    summary is {"count": 0}.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    cfg = GroundingConfig(match=MatchConfig(mode=mode, temperature=temperature),
                          min_score=min_score)
    features = replace(_FEATURES, noise_sigma=noise_sigma)
    spec = validation_spec()
    ref_grid_clean, ref_depth = render_reference(reference_scene(), spec.keypoints,
                                                 cfg.match.window_radius)

    kp_errors = []
    axis_errors = {ax.label: [] for ax in spec.axes}
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        scene = _make_scene(_draw_poses(rng), features)
        tgt_grid, tgt_depth = render_synthetic_features(scene, noise_tag=2 * trial + 1)
        ref_grid = _with_noise(ref_grid_clean, ref_depth, noise_sigma,
                               np.random.default_rng(
                                   np.random.SeedSequence([seed, trial, 5])))
        try:
            grounded = ground_spec(spec, ref_grid, tgt_grid, tgt_depth, _INTR, cfg)
        except TaskAxesError:
            failures += 1
            continue

        truth_kp = {kp.label: scene.find(kp.object).world_keypoint(kp.label)
                    for kp in spec.keypoints}
        for label, pos in grounded.keypoints.items():
            kp_errors.append(float(np.linalg.norm(pos - truth_kp[label])))
        for ax in spec.axes:
            if ax.kind == AXIS_FROM_KEYPOINTS:
                truth = axis_from_keypoints(truth_kp[ax.a], truth_kp[ax.b])
            elif ax.kind == AXIS_GLOBAL:
                truth = ax.dir
            else:
                obj, local = _TRUE_LOCAL[ax.label]
                truth = scene.find(obj).pose.apply_dir(local)
            ang = math.degrees(angle_between(grounded.axes[ax.label], truth))
            axis_errors[ax.label].append(
                min(ang, 180.0 - ang) if ax.kind == AXIS_EDGE_DIRECTION else ang)

    def summarize(values):
        if not values:
            return {"count": 0}
        arr = np.asarray(values)
        return {"count": int(arr.size), "median": float(np.median(arr)),
                "mean": float(arr.mean()), "p90": float(np.percentile(arr, 90)),
                "max": float(arr.max())}

    def summarize_axes(kinds):
        return summarize([e for ax in spec.axes if ax.kind in kinds
                          for e in axis_errors[ax.label]])

    kp_stats = summarize(kp_errors)
    axis_stats = summarize_axes(set(AXIS_KINDS) - {AXIS_GLOBAL})
    return {
        "trials": int(trials),
        "noise_sigma": float(noise_sigma),
        "mode": mode,
        "temperature": float(temperature),
        "seed": int(seed),
        "quantization_bound_m": quantization_bound_m(),
        "failures": failures,
        "keypoints": kp_stats,
        "axes": axis_stats,
        "per_axis_kind": {kind: summarize_axes((kind,)) for kind in AXIS_KINDS},
        "per_controller_kind": {
            "PosAlign": kp_stats,
            "PosWaypoint": kp_stats,
            "AxisAlign": axis_stats,
            "ForceAlign": axis_stats,
        },
    }
