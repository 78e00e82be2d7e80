"""The columnar tick log against the per-tick records it replaced.

SimLog once kept one dict per tick: run_phase built the phase, the
controllers and the twist, and the runner's tick hook added t, the
gripper pose, the contact force and the grounded lists of the tick's
observation; log.jsonl was json.dumps of each dict and trajectory.csv
was formatted from the dicts again. It now keeps one float64 table per
phase and formats both files from it in one pass. The reference copies
below build the old records, verbatim in behaviour; every line and CSV
row must equal theirs on random tables, and a run must keep no
per-tick objects.
"""

import gc
import json
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.controllers import (
    ROTATIONAL,
    TRANSLATIONAL,
    ControllerConfig,
    ControllerOutput,
)
from taskaxes.geometry import Frame
from taskaxes.scenes import build_task, scene_from_json
from taskaxes.simulator import SimLog, SimState, SkillRunner
from taskaxes.skill import SkillPhase, Twist, parse_skill

# ---------------------------------------------------------------- reference


def ref_phase_record(phase, outputs, commands, twist):
    """run_phase's record of one tick."""
    controllers = ([(TRANSLATIONAL, i, cfg) for i, cfg in enumerate(phase.translational)]
                   + [(ROTATIONAL, i, cfg) for i, cfg in enumerate(phase.rotational)])
    return {
        "phase": phase.name,
        "controllers": [{
            "class": cls,
            "priority": i + 1,
            "kind": cfg.kind,
            "axis": out.primary_axis.tolist(),
            "axis_hat": None if cmd is None else cmd[0].tolist(),
            "u": float(out.action),
            "u_hat": 0.0 if cmd is None else float(cmd[1]),
            "active": cmd is not None,
            "done": bool(out.done),
        } for (cls, i, cfg), out, cmd in zip(controllers, outputs, commands)],
        "twist": {"v": twist.v.tolist(), "w": twist.w.tolist()},
    }


def ref_on_tick(record, state, grounded_lists):
    """The runner's tick hook, which completed the record."""
    record.update({
        "t": state.t,
        "ee": {"origin": state.ee.origin.tolist(),
               "rotation": state.ee.rotation.tolist()},
        "contact_force": state.contact_force.tolist(),
        "grounded": grounded_lists,
    })
    return record


def ref_grounded_lists(world, held, robot, observed_ee):
    """GroundedAnchors.current's lists at the observed gripper pose."""
    lists = {kind: dict(table) for kind, table in world.items()}
    for (kind, q), value in held:
        lists[kind][q] = value.tolist()
    for keypoint, builtin_axes in robot:
        lists["keypoints"][keypoint] = observed_ee.origin.tolist()
        for q, i in builtin_axes:
            lists["axes"][q] = observed_ee.rotation[:, i].tolist()
    return lists


def ref_csv_row(rec):
    """A row of the old _write_trajectory_csv."""
    row = ([rec["t"]] + rec["ee"]["origin"] + rec["twist"]["v"]
           + rec["twist"]["w"] + rec["contact_force"])
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in row)


# ---------------------------------------------------------------- strategies

# repr switches to exponent form at 1e16 and below 1e-4
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 1e16, 9999999999999998.0,
           1e-4, 9.999999999999999e-05, 0.1, -2.5, float("nan"), float("inf"),
           float("-inf"))
NUMBER = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
VEC = st.lists(NUMBER, min_size=3, max_size=3).map(np.array)
# a spec label comes from JSON: it may hold a format template's special characters
LABEL = st.text(alphabet="ab.\x00%{}", min_size=1, max_size=4)
POOL = {
    TRANSLATIONAL: (ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal")),
                    ControllerConfig(kind="ForceAlign", bindings=("o.z",), theta=3.0)),
    ROTATIONAL: (ControllerConfig(kind="AxisAlign", bindings=("r.x", "o.y")),),
}


@st.composite
def phase_tables(draw):
    """Phases of random rows: each with its controllers, world, held and
    robot labels, start pose and ticks (drawn as the runner sees them)."""
    phases = []
    for n in range(draw(st.integers(1, 3))):
        trans = draw(st.lists(st.sampled_from(POOL[TRANSLATIONAL]), max_size=3))
        rot = draw(st.lists(st.sampled_from(POOL[ROTATIONAL]), max_size=3))
        ticks = draw(st.integers(0, 5))
        name = draw(st.sampled_from(["p", "\x00", "\x001", "ph", "%s", "%%", "{0}", "}{"]))
        phase = SkillPhase(name=name + str(n),
                           translational=tuple(trans), rotational=tuple(rot),
                           step_budget=ticks + draw(st.integers(0, 2)))
        world = {"keypoints": {}, "axes": {}}
        held = []
        labels = draw(st.lists(LABEL, max_size=6, unique=True))
        for q in labels:
            kind = draw(st.sampled_from(["keypoints", "axes"]))
            if draw(st.booleans()):
                world[kind][q] = draw(VEC).tolist()
            else:
                held.append((kind, q))
        robot = [(f"{role}.pos", tuple((f"{role}.{a}", i) for i, a in enumerate("xyz")))
                 for role in draw(st.lists(st.sampled_from(["g", "h"]), max_size=2,
                                           unique=True))]
        start = Frame._trusted(draw(VEC), np.array([draw(VEC) for _ in range(3)]))
        rows = []
        for _ in range(ticks):
            outputs, commands = [], []
            for _ in trans + rot:
                outputs.append(ControllerOutput(draw(VEC), draw(NUMBER), draw(st.booleans()),
                                                False))
                commands.append((draw(VEC), draw(NUMBER)) if draw(st.booleans()) else None)
            ee = Frame._trusted(draw(VEC), np.array([draw(VEC) for _ in range(3)]))
            rows.append((ee, draw(VEC), [draw(VEC) for _ in held], outputs, commands,
                         Twist(draw(VEC), draw(VEC))))
        phases.append((phase, (world, held, robot), start, rows, draw(st.booleans())))
    return draw(st.integers(0, 10**6)), phases


def _same(a, b):
    """Equal JSON values, telling -0.0 from 0.0 and matching NaN."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------- writer


@settings(max_examples=150, deadline=None)
@given(phase_tables())
def test_lines_and_csv_rows_equal_the_old_records(tmp_path_factory, drawn):
    t, phases = drawn
    log = SimLog()
    ref_lines, ref_rows = [], ["t,x,y,z,vx,vy,vz,wx,wy,wz,fx,fy,fz"]
    for phase, layout, start, rows, ended in phases:
        world, held_labels, robot = layout
        log.begin_phase(phase, t, start, layout)
        observed = start
        for ee, force, held, outputs, commands, twist in rows:
            t += 1
            state = SimState(ee=ee, contact_force=force, t=t)
            log.record(state, held, outputs, commands, twist)
            lists = ref_grounded_lists(world, zip(held_labels, held), robot, observed)
            record = ref_on_tick(ref_phase_record(phase, outputs, commands, twist),
                                 state, lists)
            ref_lines.append(json.dumps(record, sort_keys=True) + "\n")
            ref_rows.append(ref_csv_row(record))
            observed = ee
        if ended:
            log.end_phase()
    out = tmp_path_factory.mktemp("log")
    log.write(out / "log.jsonl", out / "trajectory.csv")
    assert (out / "log.jsonl").read_text(encoding="utf-8") == "".join(ref_lines)
    assert (out / "trajectory.csv").read_text(encoding="utf-8") == "\n".join(ref_rows) + "\n"
    assert len(log.records) == len(ref_lines)
    assert all(_same(r, json.loads(line)) for r, line in zip(log.records, ref_lines))


def test_records_are_decoded_once_and_kept():
    phase = SkillPhase(name="p", translational=(POOL[TRANSLATIONAL][0],), rotational=(),
                       step_budget=3)
    log = SimLog()
    log.begin_phase(phase, 0, Frame(np.zeros(3), np.eye(3)), ({"keypoints": {}, "axes": {}}, [], []))
    axis = np.array([1.0, 0.0, 0.0])
    tick = ([ControllerOutput(axis, 0.5, False, False)], [(axis, 0.5)],
            Twist(axis, np.zeros(3)))
    log.record(SimState(ee=Frame(np.zeros(3), np.eye(3))), [], *tick)
    first = log.records
    assert log.records is first and len(first) == 1
    log.record(SimState(ee=Frame(np.zeros(3), np.eye(3))), [], *tick)
    assert [r["t"] for r in log.records] == [1, 2]


# ---------------------------------------------------------------- memory


def test_run_keeps_at_most_1kb_per_tick_and_no_per_tick_objects():
    bundle = build_task("scrape")
    scene, _ = scene_from_json(bundle["scene"])
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    runner = SkillRunner(parse_skill(bundle["skill_text"]), scene, bundle["specs"],
                         ref_scene=ref_scene)
    runner.ground_all()
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = runner.run()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    ticks = result.state.t
    assert result.success and ticks > 1000
    assert grown <= 1024 * ticks, f"{grown / ticks:.0f} B per tick"
    assert len(gc.get_objects()) - objects < ticks / 20
