"""Shared 3D geometry: vectors, frames, pinhole camera, axis utilities.

All quantities are SI (meters, radians) in a single world frame; the
simulated camera frame coincides with the world frame. Degrees appear
only at file/CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NonPositiveDepth, OutOfBounds, entry, finite, known_keys,
                     positive, typed)

WORLD_X = np.array([1.0, 0.0, 0.0])
WORLD_Y = np.array([0.0, 1.0, 0.0])
WORLD_Z = np.array([0.0, 0.0, 1.0])
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def norm3(v) -> float:
    """np.linalg.norm of a float64 1-D array, by the same dot and sqrt."""
    return math.sqrt(v.dot(v))


def unit(v) -> np.ndarray:
    """Normalize a vector, rejecting near-zero and non-finite input."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):    # an infinite norm is rejected below
        n = np.linalg.norm(v)
    if not 1e-12 <= n < math.inf:
        raise ConfigError(f"cannot normalize the vector {v.tolist()} (norm {n})")
    return v / n


def angle_between(a, b) -> float:
    """Angle in [0, pi] between two unit vectors."""
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return math.acos(c)


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=np.float64).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotvec_to_matrix(w) -> np.ndarray:
    """Rodrigues map from a rotation vector to a rotation matrix."""
    w = np.asarray(w, dtype=np.float64)
    theta = norm3(w)
    if theta < 1e-12:
        return _EYE3 + skew(w)
    k = w / theta
    kx = skew(k)
    return _EYE3 + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def euler_xyz_to_matrix(rx, ry, rz) -> np.ndarray:
    """Extrinsic X-Y-Z Euler rotation (radians): Rz @ Ry @ Rx."""
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rot_z @ rot_y @ rot_x


@dataclass
class CameraIntrinsics:
    """Pinhole intrinsics; pixel (u, v) with u along width, v along height."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        positive("fx", self.fx)
        positive("fy", self.fy)
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ConfigError("principal point must lie inside the image")

    @classmethod
    def from_json(cls, data, prefix=""):
        """Intrinsics of a JSON object; an error names the key after `prefix`."""
        keys = (("fx", float), ("fy", float), ("cx", float), ("cy", float),
                ("width", int), ("height", int))
        known_keys(typed(data, dict, prefix[:-1] or "intrinsics"), (k for k, _ in keys), prefix)
        return cls(*(entry(data, key, prefix + key, cast) for key, cast in keys))


def deproject_pixel(u, v, depth, intr: CameraIntrinsics) -> np.ndarray:
    """Back-project a pixel with known depth into the camera/world frame.

    Sub-pixel coordinates are allowed; depth is along the optical axis.
    """
    if depth <= 0:
        raise NonPositiveDepth(f"depth must be > 0, got {depth}")
    if not (0 <= u < intr.width and 0 <= v < intr.height):
        raise OutOfBounds(f"pixel ({u}, {v}) outside {intr.width}x{intr.height} image")
    return np.array([(u - intr.cx) * depth / intr.fx,
                     (v - intr.cy) * depth / intr.fy,
                     float(depth)])


def project_point(point, intr: CameraIntrinsics):
    """Pinhole projection; returns (u, v, depth). Depth must be positive."""
    x, y, z = np.asarray(point, dtype=np.float64)
    if z <= 0:
        raise NonPositiveDepth(f"point depth must be > 0, got {z}")
    return intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy, float(z)


@dataclass
class Frame:
    """Rigid pose: rotation column vectors are the frame axes in world terms.
    The constructor checks it; `_trusted` skips that for frames computed from
    checked ones, such as every frame of the control tick."""

    origin: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        self.origin = finite("origin", self.origin, (3,))
        self.rotation = finite("rotation", self.rotation, (3, 3))
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > 1e-9:
            raise ConfigError(f"rotation not orthonormal (max deviation {err:.3e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ConfigError("rotation must be right-handed (det = +1)")

    @classmethod
    def _trusted(cls, origin, rotation) -> "Frame":
        """Frame of a float64 (3,) origin and (3, 3) rotation, unchecked."""
        frame = cls.__new__(cls)
        frame.origin, frame.rotation = origin, rotation
        return frame

    @classmethod
    def from_rpy_deg(cls, origin, rpy_deg) -> "Frame":
        r, p, y = (math.radians(a) for a in finite("rpy_deg", rpy_deg, (3,)))
        return cls(origin, euler_xyz_to_matrix(r, p, y))

    def apply(self, point) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=np.float64) + self.origin

    def apply_dir(self, d) -> np.ndarray:
        return self.rotation @ np.asarray(d, dtype=np.float64)

    def inverse(self) -> "Frame":
        rt = self.rotation.T
        return Frame._trusted(-(rt @ self.origin), rt)

    def compose(self, other: "Frame") -> "Frame":
        return Frame._trusted(self.rotation @ other.origin + self.origin,
                              self.rotation @ other.rotation)


def cross3(a, b) -> np.ndarray:
    """Cross product of two float64 3-vectors.

    The same multiply-subtract per component as np.cross, so the result
    is bit-identical, without np.cross's per-call broadcasting overhead.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def completion_matrix(z) -> np.ndarray:
    """Deterministic right-handed rotation whose third column equals unit z.

    Seed vector is world X unless |z . X| > 0.9, in which case world Y;
    the fixed rule makes the output reproducible for regression tests.
    """
    z = np.asarray(z, dtype=np.float64)
    seed = WORLD_X if abs(float(z @ WORLD_X)) <= 0.9 else WORLD_Y
    x = seed - float(seed @ z) * z
    x = x / norm3(x)
    return np.column_stack([x, cross3(z, x), z])


def rotation_between_axes(a, b) -> np.ndarray:
    """Rotation vector taking unit axis a onto unit axis b (angle in [0, pi]).

    The antiparallel case has no unique axis; a deterministic axis
    orthogonal to a is taken from the completion frame of a.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = min(max(float(a @ b), -1.0), 1.0)
    w = cross3(a, b)
    s = norm3(w)
    angle = math.atan2(s, c)
    if angle < 1e-12:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        return angle * completion_matrix(a)[:, 0]
    return (angle / s) * w
