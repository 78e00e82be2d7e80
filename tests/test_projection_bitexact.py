"""Bit-exactness and properties of the prioritized control tick.

project_actions, compose_twist and run_phase were folded from a version
that kept the projected axes, the per-controller commands and the tick
record in separate structures. The reference copies below are that
version, verbatim in behaviour; the folded code must give the same
bits on random stacks (inactive outputs, parallel and antiparallel
axes) and the same tick records (as the tick log writes them),
outcome and twists on a scripted environment. The reference run steps
its controllers with copies of the steppers as they were before targets
were resolved at phase start: a new frozen state each tick and a memo
keyed on the bytes of the bound axis, so world-fixed and held (moving)
bindings are both checked against per-tick derivation. The last
property is the priority contract itself: a lower-priority controller
never moves the twist along a higher one's projected axis.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.controllers import (
    ROTATIONAL,
    TRANSLATIONAL,
    ControllerConfig,
    ControllerOutput,
    Limits,
    ObservationBundle,
    axis_align_target,
    done_capable,
)
from taskaxes.errors import TaskAxesError
from taskaxes.geometry import (
    WORLD_Z,
    Frame,
    completion_matrix,
    euler_xyz_to_matrix,
    norm3,
    rotation_between_axes,
)
from taskaxes.grounding import GroundedParams
from taskaxes.simulator import GroundedAnchors, SimLog, SimState
from taskaxes.skill import (
    PhaseResult,
    SkillPhase,
    Twist,
    compose_twist,
    project_actions,
    project_axes,
    run_phase,
)

# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class RefState:
    waypoint_index: int = 0
    last_axis: tuple = None
    memo_key: bytes = None
    memo: np.ndarray = None


def ref_fallback_axis(state):
    if state.last_axis is not None:
        return np.asarray(state.last_axis, dtype=np.float64)
    return WORLD_Z.copy()


def ref_memoized(state, axis, derive, *args):
    key = np.asarray(axis, dtype=np.float64).tobytes()
    if key == state.memo_key:
        return state.memo, state
    value = derive(axis, *args)
    return value, RefState(state.waypoint_index, state.last_axis, key, value)


def ref_servo_toward(cfg, state, current, target, at_last_waypoint=True):
    error = target - current
    dist = norm3(error)
    if dist < 1e-6:
        out = ControllerOutput(ref_fallback_axis(state), 0.0, done=at_last_waypoint,
                               inactive=True)
        return out, dist, state
    axis = error / dist
    action = min(cfg.gains.kp * dist, cfg.limits.v_max)
    done = at_last_waypoint and dist <= cfg.done_tol
    new_state = RefState(state.waypoint_index, tuple(axis), state.memo_key, state.memo)
    return ControllerOutput(axis, action, done, False), dist, new_state


def ref_step_pos_align(cfg, obs, state):
    keypoints = obs.grounded.keypoints
    g1, g2 = keypoints[cfg.bindings[0]], keypoints[cfg.bindings[1]]
    target = g2 + np.asarray(cfg.theta, dtype=np.float64)
    out, _, new_state = ref_servo_toward(cfg, state, g1, target)
    return out, new_state


def ref_step_pos_waypoint(cfg, obs, state):
    keypoints = obs.grounded.keypoints
    g1, g2 = keypoints[cfg.bindings[0]], keypoints[cfg.bindings[1]]
    a2 = obs.grounded.axes[cfg.bindings[2]]
    waypoints = cfg.theta
    k = min(state.waypoint_index, len(waypoints) - 1)
    frame, state = ref_memoized(state, a2, completion_matrix)
    target = g2 + frame @ np.asarray(waypoints[k], dtype=np.float64)
    at_last = k == len(waypoints) - 1
    out, dist, new_state = ref_servo_toward(cfg, state, g1, target, at_last_waypoint=at_last)
    if dist <= cfg.done_tol and not at_last:
        new_state = RefState(k + 1, new_state.last_axis, new_state.memo_key, new_state.memo)
    return out, new_state


def ref_step_axis_align(cfg, obs, state):
    axes = obs.grounded.axes
    a1, a2 = axes[cfg.bindings[0]], axes[cfg.bindings[1]]
    target, state = ref_memoized(state, a2, axis_align_target, cfg.theta)
    w = rotation_between_axes(a1, target)
    ang = norm3(w)
    if ang < 1e-6:
        return ControllerOutput(ref_fallback_axis(state), 0.0, done=True,
                                inactive=True), state
    axis = w / ang
    action = min(cfg.gains.kr * ang, cfg.limits.w_max)
    done = ang <= math.radians(cfg.done_tol)
    new_state = RefState(state.waypoint_index, tuple(axis), state.memo_key, state.memo)
    return ControllerOutput(axis, action, done, False), new_state


def ref_step_force_align(cfg, obs, state):
    a1 = obs.grounded.axes[cfg.bindings[0]]
    f_meas = float(obs.measured_force @ a1)
    raw = cfg.gains.kf * (cfg.theta - f_meas)
    action = min(max(raw, -cfg.limits.v_max), cfg.limits.v_max)
    return ControllerOutput(np.asarray(a1, dtype=np.float64), action,
                            done=False, inactive=False), state


REF_STEPPERS = {"PosAlign": ref_step_pos_align, "PosWaypoint": ref_step_pos_waypoint,
                "AxisAlign": ref_step_axis_align, "ForceAlign": ref_step_force_align}


def ref_step_controller(cfg, obs, state):
    return REF_STEPPERS[cfg.kind](cfg, obs, state)


@dataclass(frozen=True)
class RefEntry:
    axis: np.ndarray
    action: float
    active: bool


def ref_aligned_projection(outputs):
    axes = [o.primary_axis for o in outputs if not o.inactive]
    projected = iter(project_axes(axes))
    return [None if o.inactive else next(projected) for o in outputs]


def ref_project_actions(outputs, projected):
    entries = []
    for out, ahat in zip(outputs, projected):
        if ahat is None or out.inactive:
            entries.append(RefEntry(np.zeros(3), 0.0, False))
        else:
            u_hat = out.action * float(out.primary_axis @ ahat)
            entries.append(RefEntry(ahat, u_hat, True))
    return entries


def ref_clamped_sum(entries, limit):
    total = np.zeros(3)
    for e in entries:
        if e.active:
            total = total + e.action * e.axis
    n = float(np.linalg.norm(total))
    if n > limit:
        total = total * (limit / n)
    return total


def ref_compose_twist(trans_entries, rot_entries, limits):
    return Twist(v=ref_clamped_sum(trans_entries, limits.v_max),
                 w=ref_clamped_sum(rot_entries, limits.w_max))


def ref_tick_record(phase, stacks, outputs, commands, twist):
    controllers = []
    for cls, cfgs in stacks:
        for i, (cfg, out, cmd) in enumerate(zip(cfgs, outputs[cls], commands[cls])):
            controllers.append({
                "class": cls,
                "priority": i + 1,
                "kind": cfg.kind,
                "axis": out.primary_axis.tolist(),
                "axis_hat": cmd.axis.tolist() if cmd.active else None,
                "u": float(out.action),
                "u_hat": float(cmd.action),
                "active": bool(cmd.active),
                "done": bool(out.done),
            })
    return {
        "phase": phase.name,
        "controllers": controllers,
        "twist": {"v": twist.v.tolist(), "w": twist.w.tolist()},
    }


def ref_run_phase(phase, env, limits, on_tick=None):
    stacks = ((TRANSLATIONAL, phase.translational), (ROTATIONAL, phase.rotational))
    states = {(cls, i): RefState()
              for cls, cfgs in stacks for i in range(len(cfgs))}
    has_done_capable = any(done_capable(c) for _, cfgs in stacks for c in cfgs)
    ticks = 0
    while ticks < phase.step_budget:
        obs = env.observe()
        outputs = {}
        for cls, cfgs in stacks:
            outs = []
            for i, cfg in enumerate(cfgs):
                try:
                    out, states[(cls, i)] = ref_step_controller(cfg, obs,
                                                                states[(cls, i)])
                except TaskAxesError as err:
                    raise err.annotate(
                        f"phase {phase.name!r} tick {ticks} {cls}[{i}] {cfg.kind}")
                outs.append(out)
            outputs[cls] = outs
        proj_t = ref_aligned_projection(outputs[TRANSLATIONAL])
        proj_r = ref_aligned_projection(outputs[ROTATIONAL])
        cmd_t = ref_project_actions(outputs[TRANSLATIONAL], proj_t)
        cmd_r = ref_project_actions(outputs[ROTATIONAL], proj_r)
        twist = ref_compose_twist(cmd_t, cmd_r, limits)
        env.apply(twist)
        ticks += 1
        if on_tick is not None:
            on_tick(ref_tick_record(phase, stacks, outputs, {TRANSLATIONAL: cmd_t,
                                                             ROTATIONAL: cmd_r}, twist))
        all_done = True
        for cls, cfgs in stacks:
            for cfg, out in zip(cfgs, outputs[cls]):
                if done_capable(cfg) and not out.done:
                    all_done = False
        if has_done_capable and all_done:
            return PhaseResult("done", ticks)
    if phase.step_budget > 0 and not has_done_capable:
        return PhaseResult("done", ticks)
    return PhaseResult("budget_exhausted", ticks)


# ---------------------------------------------------------------- strategies

_coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(_coord), draw(_coord), draw(_coord)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v, n = np.array([0.0, 0.0, 1.0]), 1.0
    return v / n


@st.composite
def world_axes(draw):
    v = np.zeros(3)
    v[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0]))
    return v


@st.composite
def stacks(draw, min_size=0, max_size=4):
    """Controller outputs in priority order; later axes may repeat,
    negate or nearly repeat earlier ones."""
    outs = []
    for _ in range(draw(st.integers(min_size, max_size))):
        how = draw(st.sampled_from(["random"] * 3 + ["world"]
                                   + (["parallel", "antiparallel", "near"] if outs else [])))
        if how == "random":
            axis = draw(unit_vectors())
        elif how == "world":
            axis = draw(world_axes())
        else:
            earlier = outs[draw(st.integers(0, len(outs) - 1))].primary_axis
            if how == "parallel":
                axis = earlier.copy()
            elif how == "antiparallel":
                axis = -earlier
            else:
                axis = earlier + draw(st.floats(-1e-8, 1e-8)) * draw(unit_vectors())
                axis = axis / np.linalg.norm(axis)
        outs.append(ControllerOutput(axis, draw(st.floats(-1.0, 1.0)),
                                     done=draw(st.booleans()),
                                     inactive=draw(st.integers(0, 3)) == 0))
    return outs


def _as_commands(entries):
    return [(e.axis, e.action) if e.active else None for e in entries]


def _same_commands(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x[0], y[0]) and x[1] == y[1]


# ---------------------------------------------------------------- projection


@settings(max_examples=400, deadline=None)
@given(stacks(), stacks(), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_project_and_compose_equal_reference_bitwise(trans, rot, v_max, w_max):
    limits = Limits(v_max=v_max, w_max=w_max)
    cmd_t, cmd_r = project_actions(trans), project_actions(rot)
    ref_t = ref_project_actions(trans, ref_aligned_projection(trans))
    ref_r = ref_project_actions(rot, ref_aligned_projection(rot))
    _same_commands(cmd_t, _as_commands(ref_t))
    _same_commands(cmd_r, _as_commands(ref_r))
    twist = compose_twist(cmd_t, cmd_r, limits)
    ref = ref_compose_twist(ref_t, ref_r, limits)
    assert np.array_equal(twist.v, ref.v) and np.array_equal(twist.w, ref.w)


def test_project_and_compose_equal_reference_on_seeded_full_stacks():
    # three active general axes per class: the sums where rounding shows order
    rng = np.random.default_rng(7)
    limits = Limits(v_max=10.0, w_max=10.0)
    for _ in range(200):
        trans, rot = ([ControllerOutput(a / np.linalg.norm(a), float(u), False, False)
                       for a, u in zip(rng.normal(size=(3, 3)), rng.uniform(-1, 1, 3))]
                      for _ in range(2))
        twist = compose_twist(project_actions(trans), project_actions(rot), limits)
        ref = ref_compose_twist(ref_project_actions(trans, ref_aligned_projection(trans)),
                                ref_project_actions(rot, ref_aligned_projection(rot)), limits)
        assert np.array_equal(twist.v, ref.v) and np.array_equal(twist.w, ref.w)


@settings(max_examples=400, deadline=None)
@given(stacks(min_size=1), st.data())
def test_lower_priority_never_moves_higher_projected_axes(outs, data):
    k = data.draw(st.integers(0, len(outs) - 1))
    limits = Limits(v_max=100.0, w_max=100.0)
    higher = project_actions(outs[:k])
    every = project_actions(outs)
    # a controller's command depends only on the controllers above it
    _same_commands(higher, every[:k])
    dv = compose_twist(every, [], limits).v - compose_twist(higher, [], limits).v
    for cmd in higher:
        if cmd is not None:
            assert abs(float(dv @ cmd[0])) < 1e-9


# ---------------------------------------------------------------- run_phase


_TILT = euler_xyz_to_matrix(0.3, -0.5, 0.7)


class ScriptedEnv:
    """A kinematic point and tool axis integrating the applied twist,
    with a goal keypoint and a contact force that follow a fixed script
    per tick. "o.here" sits on the point and "r.x_copy" equals the tool
    axis, so controllers bound to them are inactive. "h.tilt" turns with
    the tool axis, as a grasped role's held axis does; "o.y" and "o.z"
    never move and are the observation's world-fixed axes."""

    def __init__(self, start, goal, tool_x, target_y, dt=0.01):
        self.pos = np.asarray(start, float)
        self.goal = np.asarray(goal, float)
        self.x = np.asarray(tool_x, float)
        self.y = np.asarray(target_y, float)
        self.dt = dt
        self.t = 0
        self.twists = []

    def observe(self):
        wobble = 0.002 * math.sin(0.3 * self.t)
        keypoints = {"r.pos": self.pos.copy(), "o.here": self.pos.copy(),
                     "o.goal": self.goal + np.array([wobble, 0.0, 0.0])}
        axes = {"r.x": self.x.copy(), "r.x_copy": self.x.copy(), "o.y": self.y.copy(),
                "o.z": np.array([0.0, 0.0, 1.0]), "h.tilt": _TILT @ self.x}
        force = np.array([0.0, 0.0, 2.0 + math.cos(0.2 * self.t)])
        return ObservationBundle(GroundedParams(keypoints=keypoints, axes=axes), force,
                                 fixed_axes=frozenset({"o.y", "o.z"}))

    def apply(self, twist):
        self.twists.append((twist.v.copy(), twist.w.copy()))
        self.pos = self.pos + twist.v * self.dt
        x = self.x + np.cross(twist.w, self.x) * self.dt
        self.x = x / np.linalg.norm(x)
        self.t += 1


TRANSLATIONAL_POOL = (
    ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal")),
    ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal"), theta=(0.0, 0.01, 0.0)),
    ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.here")),
    ControllerConfig(kind="PosWaypoint", bindings=("r.pos", "o.goal", "o.z"),
                     theta=((0.0, 0.0, 0.0), (0.01, 0.0, 0.0))),
    ControllerConfig(kind="ForceAlign", bindings=("o.z",), theta=3.0),
)
ROTATIONAL_POOL = (
    ControllerConfig(kind="AxisAlign", bindings=("r.x", "o.y")),
    ControllerConfig(kind="AxisAlign", bindings=("r.x", "o.y"), theta=(0.0, 0.0, 30.0)),
    ControllerConfig(kind="AxisAlign", bindings=("r.x", "r.x_copy")),
)
# controllers that derive their target or waypoint frame from the held axis
HELD_POOL = (
    ControllerConfig(kind="PosWaypoint", bindings=("r.pos", "o.goal", "h.tilt"),
                     theta=((0.0, 0.0, 0.0), (0.01, 0.0, 0.0))),
    ControllerConfig(kind="AxisAlign", bindings=("r.x", "h.tilt"), theta=(0.0, 0.0, 20.0)),
    ControllerConfig(kind="AxisAlign", bindings=("h.tilt", "o.y"), theta=(10.0, 0.0, 0.0)),
)


def _logged_run_phase(phase, env, limits, on_tick):
    """run_phase with its ticks in the runner's tick log (the scripted env
    has no gripper pose: the log's is fixed); on_tick gets the phase,
    controllers and twist of each logged record."""
    log, state = SimLog(), SimState(ee=Frame(np.zeros(3), np.eye(3)))
    log.begin_phase(phase, 0, state.ee, GroundedAnchors().layout())
    result = run_phase(phase, env, limits,
                       on_tick=lambda *tick: log.record(state, [], *tick))
    for record in log.records:
        on_tick({key: record[key] for key in ("phase", "controllers", "twist")})
    return result


def _run_both(phase, start, goal, tool_x, target_y, limits):
    runs = []
    for run in (_logged_run_phase, ref_run_phase):
        env = ScriptedEnv(start, goal, tool_x, target_y)
        records = []
        result = run(phase, env, limits, on_tick=records.append)
        runs.append((result, records, env.twists))
    (result, records, twists), (ref_result, ref_records, ref_twists) = runs
    assert result == ref_result
    assert records == ref_records
    assert len(twists) == len(ref_twists)
    for (v, w), (ref_v, ref_w) in zip(twists, ref_twists):
        assert np.array_equal(v, ref_v) and np.array_equal(w, ref_w)
    return result


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(TRANSLATIONAL_POOL + HELD_POOL[:1]), max_size=3),
       st.lists(st.sampled_from(ROTATIONAL_POOL + HELD_POOL[1:]), max_size=3),
       st.integers(0, 60), unit_vectors(), unit_vectors(),
       st.tuples(*[st.floats(-0.05, 0.05)] * 3))
def test_run_phase_records_equal_reference(trans, rot, budget, tool_x, target_y, goal):
    phase = SkillPhase(name="p", translational=tuple(trans), rotational=tuple(rot),
                       step_budget=budget)
    _run_both(phase, np.zeros(3), goal, tool_x, target_y, Limits())


@settings(max_examples=30, deadline=None)
@given(unit_vectors(), unit_vectors(), st.tuples(*[st.floats(-0.05, 0.05)] * 3))
def test_run_phase_held_bindings_equal_reference(tool_x, target_y, goal):
    # every held-axis controller at once, under a world-fixed one of each kind
    phase = SkillPhase(name="held",
                       translational=(TRANSLATIONAL_POOL[4], HELD_POOL[0]),
                       rotational=(ROTATIONAL_POOL[1],) + HELD_POOL[1:],
                       step_budget=150)
    _run_both(phase, np.zeros(3), goal, tool_x, target_y, Limits())


def test_force_align_does_not_hold_a_phase_open():
    phase = SkillPhase(name="press", translational=TRANSLATIONAL_POOL[::2],
                       rotational=ROTATIONAL_POOL[:1], step_budget=3000)
    result = _run_both(phase, np.zeros(3), np.array([0.03, -0.02, 0.01]),
                       np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), Limits())
    assert result.outcome == "done" and result.ticks < phase.step_budget
