"""The four task-axis controller kinds.

Each controller consumes the current grounded parameters plus sensor
observations and emits a single action magnitude along its primary axis:

  PosAlign     move a robot-attached keypoint onto a target keypoint
               (plus a fixed world-frame offset theta, meters).
  PosWaypoint  like PosAlign but toward a scheduled list of offsets
               expressed in the completion frame of a grounded axis.
  AxisAlign    rotate a robot-attached axis onto a target axis; theta is
               an extrinsic XYZ Euler offset in degrees applied in the
               target axis's own completion frame.
  ForceAlign   admittance velocity along the axis regulating the contact
               force to a scalar setpoint (newtons); never reports done.

All control laws are saturated proportional laws; gains and limits are
configuration. Stepping is a pure function of (config, observation,
per-controller state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, EmptyWaypointList, UnresolvedBinding, finite, positive
from .geometry import (
    WORLD_Z,
    completion_matrix,
    euler_xyz_to_matrix,
    norm3,
    rotation_between_axes,
)
from .grounding import GroundedParams

POS_ALIGN = "PosAlign"
POS_WAYPOINT = "PosWaypoint"
AXIS_ALIGN = "AxisAlign"
FORCE_ALIGN = "ForceAlign"

TRANSLATIONAL = "translational"
ROTATIONAL = "rotational"

KIND_CLASS = {
    POS_ALIGN: TRANSLATIONAL,
    POS_WAYPOINT: TRANSLATIONAL,
    FORCE_ALIGN: TRANSLATIONAL,
    AXIS_ALIGN: ROTATIONAL,
}

BINDING_ARITY = {POS_ALIGN: 2, POS_WAYPOINT: 3, AXIS_ALIGN: 2, FORCE_ALIGN: 1}

# kind-specific convergence tolerances: meters for position controllers,
# degrees for AxisAlign (converted to radians at evaluation time)
DEFAULT_DONE_TOL = {POS_ALIGN: 0.002, POS_WAYPOINT: 0.002, AXIS_ALIGN: 1.0}
# theta of a controller that names none; PosWaypoint needs its waypoints
DEFAULT_THETA = {POS_ALIGN: (0.0, 0.0, 0.0), AXIS_ALIGN: (0.0, 0.0, 0.0), FORCE_ALIGN: 0.0}

_INACTIVE_POS = 1e-6   # meters
_INACTIVE_ANG = 1e-6   # radians


@dataclass(frozen=True)
class Gains:
    kp: float = 4.0     # 1/s
    kr: float = 3.0     # 1/s
    kf: float = 0.02    # m/(s*N)

    def __post_init__(self):
        for f in fields(self):
            positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class Limits:
    v_max: float = 0.25   # m/s
    w_max: float = 1.5    # rad/s

    def __post_init__(self):
        for f in fields(self):
            positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class ControllerConfig:
    """One controller instance: kind, grounded bindings, parameters.

    theta keeps the units it is authored in: meters for PosAlign offsets
    and PosWaypoint waypoints, newtons for ForceAlign, degrees for the
    AxisAlign Euler offset. done_tol follows the same rule (meters or
    degrees). Everything is converted to SI internally when stepped.
    """

    kind: str
    bindings: tuple
    theta: object = None
    gains: Gains = field(default_factory=Gains)
    limits: Limits = field(default_factory=Limits)
    done_tol: float = None

    def __post_init__(self):
        if self.kind not in KIND_CLASS:
            raise ConfigError(f"unknown controller kind {self.kind!r}")
        if len(self.bindings) != BINDING_ARITY[self.kind]:
            raise ConfigError(
                f"{self.kind} takes {BINDING_ARITY[self.kind]} bindings, "
                f"got {len(self.bindings)}")
        object.__setattr__(self, "theta", _normalize_theta(self.kind, self.theta))
        if self.done_tol is None:
            object.__setattr__(self, "done_tol", DEFAULT_DONE_TOL.get(self.kind))
        else:
            positive("done_tol", self.done_tol)

    @property
    def control_class(self) -> str:
        return KIND_CLASS[self.kind]


def _components(value, what):
    """value as a tuple of 3 finite floats; ConfigError for anything else."""
    try:
        comps = tuple(float(x) for x in value)
    except (TypeError, ValueError):
        comps = ()
    if len(comps) != 3:
        raise ConfigError(f"{what} must have 3 components")
    finite(what, comps)
    return comps


def _normalize_theta(kind, theta):
    if theta is None and kind in DEFAULT_THETA:
        return DEFAULT_THETA[kind]
    if kind in (POS_ALIGN, AXIS_ALIGN):
        return _components(theta, f"{kind} theta")
    if kind == FORCE_ALIGN:
        if isinstance(theta, (tuple, list)):
            raise ConfigError("ForceAlign theta is a scalar force in newtons")
        return float(finite("ForceAlign theta", theta))
    # PosWaypoint
    if isinstance(theta, (int, float)):
        raise ConfigError("PosWaypoint theta is a list of [x, y, z] waypoint offsets")
    if theta is None or len(theta) == 0:
        raise EmptyWaypointList("PosWaypoint needs at least one waypoint offset")
    return tuple(_components(wp, "each waypoint") for wp in theta)


@dataclass(frozen=True)
class ControllerState:
    """Mutable-per-tick controller memory, threaded through the steps of
    one controller.

    memo caches the value derived from the controller's bound axis (the
    AxisAlign target, the PosWaypoint completion matrix); memo_key is
    that axis's float64 bytes, so a world-fixed axis is derived once per
    phase and a moving one on every tick, bit-identically either way.
    """

    waypoint_index: int = 0
    last_axis: tuple = None
    memo_key: bytes = None
    memo: np.ndarray = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ControllerOutput:
    """Pre-projection command: unit primary axis and action magnitude."""

    primary_axis: np.ndarray
    action: float
    done: bool
    inactive: bool


@dataclass
class ObservationBundle:
    """Per-tick sensor view handed to every controller.

    measured_force is the float64 force the tool applies on the
    environment at the tool tip (the negated contact reaction), in newtons.
    """

    grounded: GroundedParams
    measured_force: np.ndarray


def _keypoint(obs, label):
    try:
        return obs.grounded.keypoints[label]
    except KeyError:
        raise UnresolvedBinding(f"keypoint binding {label!r} not grounded") from None


def _axis(obs, label):
    try:
        return obs.grounded.axes[label]
    except KeyError:
        raise UnresolvedBinding(f"axis binding {label!r} not grounded") from None


def _fallback_axis(state):
    if state.last_axis is not None:
        return np.asarray(state.last_axis, dtype=np.float64)
    return WORLD_Z.copy()


def _memoized(state, axis, derive, *args):
    """(derive(axis, *args), state carrying it), reusing the state's memo
    when axis has the same bytes as the one it was derived from."""
    key = np.asarray(axis, dtype=np.float64).tobytes()
    if key == state.memo_key:
        return state.memo, state
    value = derive(axis, *args)
    return value, ControllerState(state.waypoint_index, state.last_axis, key, value)


def _servo_toward(cfg, state, current, target, at_last_waypoint=True):
    """Shared position law for PosAlign and PosWaypoint."""
    error = target - current
    dist = norm3(error)
    if dist < _INACTIVE_POS:
        out = ControllerOutput(_fallback_axis(state), 0.0, done=at_last_waypoint,
                               inactive=True)
        return out, dist, state
    axis = error / dist
    action = min(cfg.gains.kp * dist, cfg.limits.v_max)
    done = at_last_waypoint and dist <= cfg.done_tol
    new_state = ControllerState(state.waypoint_index, tuple(axis),
                                state.memo_key, state.memo)
    return ControllerOutput(axis, action, done, False), dist, new_state


def step_pos_align(cfg: ControllerConfig, obs: ObservationBundle,
                   state: ControllerState):
    g1 = _keypoint(obs, cfg.bindings[0])
    g2 = _keypoint(obs, cfg.bindings[1])
    target = g2 + np.asarray(cfg.theta, dtype=np.float64)
    out, _, new_state = _servo_toward(cfg, state, g1, target)
    return out, new_state


def step_pos_waypoint(cfg: ControllerConfig, obs: ObservationBundle,
                      state: ControllerState):
    g1 = _keypoint(obs, cfg.bindings[0])
    g2 = _keypoint(obs, cfg.bindings[1])
    a2 = _axis(obs, cfg.bindings[2])
    waypoints = cfg.theta
    k = min(state.waypoint_index, len(waypoints) - 1)
    frame, state = _memoized(state, a2, completion_matrix)
    target = g2 + frame @ np.asarray(waypoints[k], dtype=np.float64)
    at_last = k == len(waypoints) - 1
    out, dist, new_state = _servo_toward(cfg, state, g1, target, at_last_waypoint=at_last)
    if dist <= cfg.done_tol and not at_last:
        new_state = ControllerState(k + 1, new_state.last_axis,
                                    new_state.memo_key, new_state.memo)
    return out, new_state


def step_axis_align(cfg: ControllerConfig, obs: ObservationBundle,
                    state: ControllerState):
    a1 = _axis(obs, cfg.bindings[0])
    a2 = _axis(obs, cfg.bindings[1])
    target, state = _memoized(state, a2, axis_align_target, cfg.theta)
    w = rotation_between_axes(a1, target)
    ang = norm3(w)
    if ang < _INACTIVE_ANG:
        return ControllerOutput(_fallback_axis(state), 0.0, done=True,
                                inactive=True), state
    axis = w / ang
    action = min(cfg.gains.kr * ang, cfg.limits.w_max)
    done = ang <= math.radians(cfg.done_tol)
    new_state = ControllerState(state.waypoint_index, tuple(axis),
                                state.memo_key, state.memo)
    return ControllerOutput(axis, action, done, False), new_state


def axis_align_target(a2, theta_deg) -> np.ndarray:
    """Target axis for AxisAlign: Euler offset applied around a2.

    The offset rotation acts in the deterministic completion frame of a2
    with a2 playing the local X role, so theta = (roll, pitch, yaw) of
    the target direction relative to a2. A zero theta returns a2 itself;
    (0, 0, deg) tilts the target by deg away from a2.
    """
    a2 = np.asarray(a2, dtype=np.float64)
    comp = completion_matrix(a2)
    frame_x = np.column_stack([a2, comp[:, 0], comp[:, 1]])
    euler = euler_xyz_to_matrix(*(math.radians(t) for t in theta_deg))
    return frame_x @ euler[:, 0]


def step_force_align(cfg: ControllerConfig, obs: ObservationBundle,
                     state: ControllerState):
    a1 = _axis(obs, cfg.bindings[0])
    f_meas = float(obs.measured_force @ a1)
    raw = cfg.gains.kf * (cfg.theta - f_meas)
    action = min(max(raw, -cfg.limits.v_max), cfg.limits.v_max)
    return ControllerOutput(np.asarray(a1, dtype=np.float64), action,
                            done=False, inactive=False), state


_STEPPERS = {
    POS_ALIGN: step_pos_align,
    POS_WAYPOINT: step_pos_waypoint,
    AXIS_ALIGN: step_axis_align,
    FORCE_ALIGN: step_force_align,
}


def step_controller(cfg: ControllerConfig, obs: ObservationBundle,
                    state: ControllerState):
    """Dispatch one control tick; returns (output, next_state)."""
    return _STEPPERS[cfg.kind](cfg, obs, state)


def done_capable(cfg: ControllerConfig) -> bool:
    """ForceAlign regulates indefinitely; every other kind can finish."""
    return cfg.kind != FORCE_ALIGN
