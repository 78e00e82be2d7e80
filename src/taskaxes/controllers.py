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
configuration. A step reads (config, observation) and updates its
controller's state in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, EmptyWaypointList, finite, positive
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

# what each binding slot names: a grounded keypoint or a grounded axis
BINDING_KINDS = {POS_ALIGN: ("keypoints", "keypoints"),
                 POS_WAYPOINT: ("keypoints", "keypoints", "axes"),
                 AXIS_ALIGN: ("axes", "axes"), FORCE_ALIGN: ("axes",)}

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
    degrees). The steppers read `offsets`, the PosAlign offset or each
    waypoint as a read-only float64 array, and `tol`, done_tol in SI.
    """

    kind: str
    bindings: tuple
    theta: object = None
    gains: Gains = field(default_factory=Gains)
    limits: Limits = field(default_factory=Limits)
    done_tol: float = None
    offsets: tuple = field(init=False, repr=False, compare=False)
    tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KIND_CLASS:
            raise ConfigError(f"unknown controller kind {self.kind!r}")
        if len(self.bindings) != len(BINDING_KINDS[self.kind]):
            raise ConfigError(
                f"{self.kind} takes {len(BINDING_KINDS[self.kind])} bindings, "
                f"got {len(self.bindings)}")
        object.__setattr__(self, "theta", _normalize_theta(self.kind, self.theta))
        if self.done_tol is None:
            object.__setattr__(self, "done_tol", DEFAULT_DONE_TOL.get(self.kind))
        else:
            positive("done_tol", self.done_tol)
        offsets = {POS_ALIGN: (self.theta,), POS_WAYPOINT: self.theta}.get(self.kind, ())
        object.__setattr__(self, "offsets", tuple(np.array(o, dtype=np.float64) for o in offsets))
        for offset in self.offsets:
            offset.flags.writeable = False
        object.__setattr__(self, "tol", math.radians(self.done_tol)
                           if self.kind == AXIS_ALIGN else self.done_tol)

    @property
    def control_class(self) -> str:
        return KIND_CLASS[self.kind]


def _components(value, what):
    """value as a tuple of 3 finite floats; ConfigError for anything else."""
    comps = finite(what, value)
    if comps.shape != (3,):
        raise ConfigError(f"{what} must have 3 components")
    return tuple(comps.tolist())


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


@dataclass(slots=True)
class ControllerState:
    """One controller's memory over a phase, updated in place by its steps.
    target is the AxisAlign target or PosWaypoint completion frame of a
    world-fixed bound axis, derived on the phase's first tick; that of a
    held or built-in axis is derived every tick, and target stays None."""

    waypoint_index: int = 0
    last_axis: np.ndarray = None
    target: np.ndarray = None


@dataclass(slots=True)
class ControllerOutput:
    """Pre-projection command: unit primary axis and action magnitude."""

    primary_axis: np.ndarray
    action: float
    done: bool
    inactive: bool


@dataclass(slots=True)
class ObservationBundle:
    """Per-tick sensor view handed to every controller.

    measured_force is the float64 force the tool applies on the
    environment at the tool tip (the negated contact reaction), in newtons.
    fixed_axes holds the labels of the world-fixed axes, which stay put
    for the phase. A bundle may be live, valid until the next observe()."""

    grounded: GroundedParams
    measured_force: np.ndarray
    fixed_axes: object = frozenset()


def _fallback_axis(state):
    return WORLD_Z.copy() if state.last_axis is None else state.last_axis


def _derived(state, obs, label, derive, *args):
    """derive(axis `label`, *args), kept as the state's target if the axis is world-fixed."""
    value = derive(obs.grounded.axes[label], *args)
    if label in obs.fixed_axes:
        state.target = value
    return value


def _servo_toward(cfg, state, current, target, at_last_waypoint=True):
    """Shared position law for PosAlign and PosWaypoint."""
    error = target - current
    dist = norm3(error)
    if dist < _INACTIVE_POS:
        return ControllerOutput(_fallback_axis(state), 0.0, at_last_waypoint, True), dist
    axis = error / dist
    action = min(cfg.gains.kp * dist, cfg.limits.v_max)
    state.last_axis = axis
    return ControllerOutput(axis, action, at_last_waypoint and dist <= cfg.tol, False), dist


def step_pos_align(cfg: ControllerConfig, obs: ObservationBundle,
                   state: ControllerState):
    keypoints = obs.grounded.keypoints
    g1, g2 = keypoints[cfg.bindings[0]], keypoints[cfg.bindings[1]]
    return _servo_toward(cfg, state, g1, g2 + cfg.offsets[0])[0]


def step_pos_waypoint(cfg: ControllerConfig, obs: ObservationBundle,
                      state: ControllerState):
    keypoints = obs.grounded.keypoints
    g1, g2 = keypoints[cfg.bindings[0]], keypoints[cfg.bindings[1]]
    last = len(cfg.offsets) - 1
    k = min(state.waypoint_index, last)
    frame = (state.target if state.target is not None
             else _derived(state, obs, cfg.bindings[2], completion_matrix))
    target = g2 + frame @ cfg.offsets[k]
    out, dist = _servo_toward(cfg, state, g1, target, at_last_waypoint=k == last)
    if dist <= cfg.tol and k < last:
        state.waypoint_index = k + 1
    return out


def step_axis_align(cfg: ControllerConfig, obs: ObservationBundle,
                    state: ControllerState):
    a1 = obs.grounded.axes[cfg.bindings[0]]
    target = (state.target if state.target is not None
              else _derived(state, obs, cfg.bindings[1], axis_align_target, cfg.theta))
    w = rotation_between_axes(a1, target)
    ang = norm3(w)
    if ang < _INACTIVE_ANG:
        return ControllerOutput(_fallback_axis(state), 0.0, True, True)
    axis = w / ang
    action = min(cfg.gains.kr * ang, cfg.limits.w_max)
    state.last_axis = axis
    return ControllerOutput(axis, action, ang <= cfg.tol, False)


def axis_align_target(a2, theta_deg) -> np.ndarray:
    """Target axis for AxisAlign: Euler offset applied around a2.

    The offset rotation acts in the deterministic completion frame of a2
    with a2 playing the local X role, so theta = (roll, pitch, yaw) of
    the target direction relative to a2. A zero theta returns a2 itself;
    (0, 0, deg) tilts the target by deg away from a2.
    """
    comp = completion_matrix(a2)
    frame_x = np.column_stack([a2, comp[:, 0], comp[:, 1]])
    euler = euler_xyz_to_matrix(*(math.radians(t) for t in theta_deg))
    return frame_x @ euler[:, 0]


def step_force_align(cfg: ControllerConfig, obs: ObservationBundle,
                     state: ControllerState):
    a1 = obs.grounded.axes[cfg.bindings[0]]
    f_meas = float(obs.measured_force @ a1)
    raw = cfg.gains.kf * (cfg.theta - f_meas)
    action = min(max(raw, -cfg.limits.v_max), cfg.limits.v_max)
    return ControllerOutput(a1, action, False, False)


_STEPPERS = {
    POS_ALIGN: step_pos_align,
    POS_WAYPOINT: step_pos_waypoint,
    AXIS_ALIGN: step_axis_align,
    FORCE_ALIGN: step_force_align,
}


def step_controller(cfg: ControllerConfig, obs: ObservationBundle,
                    state: ControllerState) -> ControllerOutput:
    """Dispatch one control tick: the output, with `state` updated in place."""
    return _STEPPERS[cfg.kind](cfg, obs, state)


def done_capable(cfg: ControllerConfig) -> bool:
    """ForceAlign regulates indefinitely; every other kind can finish."""
    return cfg.kind != FORCE_ALIGN
