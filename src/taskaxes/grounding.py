"""Binding symbolic keypoints and axes to a concrete scene.

Keypoints transfer by feature matching plus depth back-projection. Axes
resolve in one of four ways: fixed world directions, differences of
transferred keypoints, or local point-cloud geometry (surface normal /
edge direction) around a transferred anchor point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    DegenerateAxis,
    DegenerateNeighborhood,
    InsufficientNeighbors,
    MatchBelowThreshold,
    TaskAxesError,
    entry,
    finite,
    known_keys,
    name_entry,
    pixel,
    positive,
    typed,
)
from .features import DepthMask, FeatureGrid, MatchConfig, match_keypoint
from .geometry import CameraIntrinsics, deproject_pixel, unit

AXIS_GLOBAL = "global"
AXIS_FROM_KEYPOINTS = "from_keypoints"
AXIS_SURFACE_NORMAL = "surface_normal"
AXIS_EDGE_DIRECTION = "edge_direction"
AXIS_KINDS = (AXIS_GLOBAL, AXIS_FROM_KEYPOINTS, AXIS_SURFACE_NORMAL, AXIS_EDGE_DIRECTION)

_EIG_TOL = 1e-9


@dataclass
class KeypointRef:
    """A labeled pixel on the reference image of one object."""

    object: str
    label: str
    pixel: tuple

    def __post_init__(self):
        self.pixel = (int(self.pixel[0]), int(self.pixel[1]))


@dataclass
class AxisSpec:
    """How one named axis is derived once keypoints are grounded."""

    label: str
    kind: str
    dir: tuple = None          # global
    a: str = None              # from_keypoints: head
    b: str = None              # from_keypoints: tail
    at: str = None             # surface_normal / edge_direction anchor

    def __post_init__(self):
        if self.kind not in AXIS_KINDS:
            raise ConfigError(f"unknown axis kind {self.kind!r}")
        if self.kind == AXIS_GLOBAL and self.dir is None:
            raise ConfigError(f"axis {self.label!r}: global axis needs a direction")
        if self.dir is not None:
            self.dir = tuple(finite(f"axis {self.label!r} dir", self.dir, (3,)).tolist())
        if self.kind == AXIS_FROM_KEYPOINTS and (self.a is None or self.b is None):
            raise ConfigError(f"axis {self.label!r}: needs two keypoint labels")
        if self.kind in (AXIS_SURFACE_NORMAL, AXIS_EDGE_DIRECTION) and self.at is None:
            raise ConfigError(f"axis {self.label!r}: needs an anchor keypoint label")


@dataclass
class GroundingSpec:
    """Lifted side of a skill's scene bindings for one object role."""

    reference_image_id: str
    keypoints: list
    axes: list

    def __post_init__(self):
        for what, items in (("keypoint", self.keypoints), ("axis", self.axes)):
            labels = [item.label for item in items]
            if len(set(labels)) != len(labels):
                raise ConfigError(f"{what} labels must be unique within a spec")
        kp_set = {kp.label for kp in self.keypoints}
        for ax in self.axes:
            for ref in (ax.a, ax.b, ax.at):
                if ref is not None and ref not in kp_set:
                    raise ConfigError(f"axis {ax.label!r} references unknown keypoint {ref!r}")

    @property
    def object_names(self):
        return sorted({kp.object for kp in self.keypoints})


@dataclass
class GroundedParams:
    """Scene-anchored values: world positions, match scores, unit axes."""

    keypoints: dict = field(default_factory=dict)
    scores: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "timestamp": 0,
            "keypoints": {
                label: {"position": [float(x) for x in pos],
                        "score": float(self.scores.get(label, 1.0))}
                for label, pos in self.keypoints.items()
            },
            "axes": {label: [float(x) for x in d] for label, d in self.axes.items()},
        }


@dataclass
class GroundingConfig(MatchConfig):
    min_score: float = 0.4
    normal_radius: float = 0.02
    min_neighbors: int = 8

    def __post_init__(self):
        super().__post_init__()
        finite("min_score", self.min_score)
        positive("normal_radius", self.normal_radius)
        positive("min_neighbors", self.min_neighbors)


# the AxisSpec fields a spec file holds under an axis's "args"
_AXIS_ARGS = tuple(f.name for f in fields(AxisSpec) if f.name not in ("label", "kind"))


def spec_to_json(spec: GroundingSpec) -> dict:
    return {
        "reference_image": spec.reference_image_id,
        "keypoints": [{"object": kp.object, "label": kp.label, "pixel": list(kp.pixel)}
                      for kp in spec.keypoints],
        "axes": [{"label": ax.label, "kind": ax.kind,
                  "args": {key: list(value) if key == "dir" else value
                           for key in _AXIS_ARGS if (value := getattr(ax, key)) is not None}}
                 for ax in spec.axes],
    }


def spec_from_json(data: dict) -> GroundingSpec:
    """Spec of a JSON object; a missing key, or a value of the wrong JSON
    type, is named by its path, such as keypoints[0].label."""
    known_keys(typed(data, dict, "spec"), ("reference_image", "keypoints", "axes"))
    keypoints = []
    for i, k in enumerate(typed(data.get("keypoints", []), list, "keypoints")):
        path = f"keypoints[{i}]"
        known_keys(typed(k, dict, path), ("object", "label", "pixel"), f"{path}.")
        keypoints.append(KeypointRef(
            name_entry(k, "object", f"{path}.object"), name_entry(k, "label", f"{path}.label"),
            pixel(f"{path}.pixel", entry(k, "pixel", f"{path}.pixel"))))
    axes = []
    for i, ax in enumerate(typed(data.get("axes", []), list, "axes")):
        path = f"axes[{i}]"
        known_keys(typed(ax, dict, path), ("label", "kind", "args"), f"{path}.")
        args = typed(ax.get("args", {}), dict, f"{path}.args")
        known_keys(args, _AXIS_ARGS, f"{path}.args.")
        axes.append(AxisSpec(
            name_entry(ax, "label", f"{path}.label"), entry(ax, "kind", f"{path}.kind"),
            **{key: args[key] if key == "dir" else name_entry(args, key, f"{path}.args.{key}")
               for key in _AXIS_ARGS if key in args}))
    return GroundingSpec(typed(data.get("reference_image", ""), str, "reference_image"),
                         keypoints=keypoints, axes=axes)


def cloud_from_depth(mask: DepthMask, intr: CameraIntrinsics,
                     v0=0, v1=None, u0=0, u1=None) -> np.ndarray:
    """World points of the valid depth pixels in rows v0:v1, columns
    u0:u1 (the whole image by default), in row-major order."""
    vv, uu = np.nonzero(mask.valid[v0:v1, u0:u1])
    vv += v0
    uu += u0
    depths = mask.depth[vv, uu]
    x = (uu - intr.cx) * depths / intr.fx
    y = (vv - intr.cy) * depths / intr.fy
    return np.column_stack([x, y, depths])


def _depth_window(mask, intr, at, radius) -> np.ndarray:
    """Back-projected valid pixels of the box holding every pixel whose
    point can lie within `radius` of `at` (the projected corners of the
    cube at +-radius around `at`, plus 1 px), or of the whole image when
    the cube reaches the camera plane: within `radius`, the same rows in
    the same order as the whole image's."""
    x, y, z = at
    r = radius * (1 + 1e-9)     # covers rounding in the distance test
    if not z - r > 0:
        return cloud_from_depth(mask, intr)
    inv_depth = 1.0 / np.array([z - r, z + r])
    us = intr.cx + intr.fx * np.outer([x - r, x + r], inv_depth)
    vs = intr.cy + intr.fy * np.outer([y - r, y + r], inv_depth)
    u0, u1 = np.clip([np.floor(us.min()) - 1, np.ceil(us.max()) + 2], 0, mask.width)
    v0, v1 = np.clip([np.floor(vs.min()) - 1, np.ceil(vs.max()) + 2], 0, mask.height)
    return cloud_from_depth(mask, intr, int(v0), int(v1), int(u0), int(u1))


def ground_keypoint(ref: FeatureGrid, kp: KeypointRef, target: FeatureGrid,
                    target_depth: DepthMask, intr: CameraIntrinsics,
                    cfg: GroundingConfig):
    """Match one keypoint and back-project it; returns (position, score).

    Soft matches carry sub-pixel coordinates; the depth is read at the
    rounded pixel, falling back to the nearest valid pixel when depth
    quantization leaves a hole there (nearest by squared pixel distance,
    ties resolved in row-major order).
    """
    m = match_keypoint(ref, kp.pixel, target, target_depth, cfg)
    if m.peak_score < cfg.min_score:
        raise MatchBelowThreshold(
            f"peak score {m.peak_score:.3f} below threshold {cfg.min_score}",
            score=m.peak_score)
    pu = min(max(int(round(m.u)), 0), target_depth.width - 1)
    pv = min(max(int(round(m.v)), 0), target_depth.height - 1)
    valid = target_depth.valid
    if valid[pv, pu]:
        depth = float(target_depth.depth[pv, pu])
    else:
        vv, uu = np.nonzero(valid)
        d2 = (vv - pv) ** 2 + (uu - pu) ** 2
        i = int(np.argmin(d2))
        depth = float(target_depth.depth[vv[i], uu[i]])
    return deproject_pixel(m.u, m.v, depth, intr), float(m.peak_score)


def axis_from_keypoints(a, b) -> np.ndarray:
    """Unit direction from keypoint b toward keypoint a: (a - b) / |a - b|."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a - b
    n = float(np.linalg.norm(d))
    if n <= 1e-6:
        raise DegenerateAxis(f"keypoints coincide within tolerance (|a-b| = {n:.2e})")
    return d / n


def _neighborhood(points, at, radius, min_neighbors):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ConfigError("point cloud must have shape (N, 3)")
    at = np.asarray(at, dtype=np.float64)
    d = np.linalg.norm(pts - at, axis=1)
    nb = pts[d <= radius]
    if nb.shape[0] < min_neighbors:
        raise InsufficientNeighbors(
            f"{nb.shape[0]} points within {radius} m, need {min_neighbors}")
    centered = nb - nb.mean(axis=0)
    cov = centered.T @ centered / nb.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    return evals, evecs


def surface_normal(points, at, radius: float = GroundingConfig.normal_radius,
                   min_neighbors: int = GroundingConfig.min_neighbors) -> np.ndarray:
    """Smallest-covariance eigenvector of the local neighborhood.

    The sign is chosen so the normal points toward the camera at the
    world origin (negative dot with the viewing ray); when the viewing
    ray is tangent, the sign prefers world +Z.
    """
    evals, evecs = _neighborhood(points, at, radius, min_neighbors)
    if evals[1] - evals[0] <= _EIG_TOL:
        raise DegenerateNeighborhood(
            "no unique surface normal (two smallest eigenvalues coincide)")
    n = evecs[:, 0]
    facing = float(n @ np.asarray(at, dtype=np.float64))
    if abs(facing) > 1e-9:
        if facing > 0:
            n = -n
    elif n[2] < 0:
        n = -n
    return n


def edge_direction(points, at, radius: float = GroundingConfig.normal_radius,
                   min_neighbors: int = GroundingConfig.min_neighbors) -> np.ndarray:
    """Largest-covariance eigenvector: the dominant local elongation.

    The sign is fixed so the dot with world +X (then +Y, then +Z) is
    non-negative.
    """
    evals, evecs = _neighborhood(points, at, radius, min_neighbors)
    if evals[2] - evals[1] <= _EIG_TOL:
        raise DegenerateNeighborhood(
            "no dominant edge direction (two largest eigenvalues coincide)")
    e = evecs[:, 2]
    for i in range(3):
        if abs(e[i]) > 1e-9:
            if e[i] < 0:
                e = -e
            break
    return e


def ground_spec(spec: GroundingSpec, ref: FeatureGrid, target: FeatureGrid,
                target_depth: DepthMask, intr: CameraIntrinsics,
                cfg: GroundingConfig = None) -> GroundedParams:
    """Ground every keypoint, then resolve every axis in two phases.

    A surface-normal or edge axis back-projects only the depth window
    around its anchor.
    Component failures propagate with the failing label prepended so a
    bad grounding can be traced back to the symbol that caused it.
    """
    cfg = cfg or GroundingConfig()
    grounded = GroundedParams()
    for kp in spec.keypoints:
        try:
            pos, score = ground_keypoint(ref, kp, target, target_depth, intr, cfg)
        except TaskAxesError as err:
            raise err.annotate(f"keypoint {kp.label!r}")
        grounded.keypoints[kp.label] = pos
        grounded.scores[kp.label] = score
    for ax in spec.axes:
        try:
            if ax.kind == AXIS_GLOBAL:
                direction = unit(np.asarray(ax.dir, dtype=np.float64))
            elif ax.kind == AXIS_FROM_KEYPOINTS:
                direction = axis_from_keypoints(grounded.keypoints[ax.a],
                                                grounded.keypoints[ax.b])
            else:
                at = grounded.keypoints[ax.at]
                pca = surface_normal if ax.kind == AXIS_SURFACE_NORMAL else edge_direction
                direction = pca(_depth_window(target_depth, intr, at, cfg.normal_radius),
                                at, cfg.normal_radius, cfg.min_neighbors)
        except TaskAxesError as err:
            raise err.annotate(f"axis {ax.label!r}")
        grounded.axes[ax.label] = direction
    return grounded
