import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskaxes.controllers import (
    KIND_CLASS,
    ControllerConfig,
    ControllerOutput,
    Gains,
    Limits,
    ObservationBundle,
)
from taskaxes.errors import (
    ConfigError,
    DuplicateLabel,
    EmptyWaypointList,
    PriorityOverflow,
    SkillSyntaxError,
    SkillValidationError,
    UnboundSymbol,
    UnknownControllerKind,
)
from taskaxes.geometry import Frame
from taskaxes.grounding import GroundedParams
from taskaxes.scenes import load_skill_text
from taskaxes.simulator import GroundedAnchors, SimLog, SimState
from taskaxes.skill import (
    GraspStep,
    LiftedSkill,
    SkillPhase,
    compose_twist,
    format_skill,
    parse_skill,
    project_actions,
    project_axes,
    run_phase,
)


def unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def out(axis, action=0.1, done=False, inactive=False):
    return ControllerOutput(primary_axis=np.asarray(axis, float), action=action,
                            done=done, inactive=inactive)


# ---------------------------------------------------------------- projection


def test_priority_one_passes_through():
    a = np.array([0.0, 1.0, 0.0])
    proj = project_axes([a])
    np.testing.assert_allclose(proj[0], a, atol=1e-15)


def test_hand_gram_schmidt_cases():
    a1 = np.array([1.0, 0.0, 0.0])
    a2 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    a3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    a4 = np.array([0.3, -0.5, 0.7])
    a4 /= np.linalg.norm(a4)
    proj = project_axes([a1, a2, a3, a4])
    np.testing.assert_allclose(proj[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(proj[1], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(proj[2], [0.0, 0.0, 1.0], atol=1e-12)
    assert proj[3] is None  # fourth axis in R^3 is always degenerate


def test_parallel_axis_goes_inactive():
    a = np.array([0.0, 0.0, 1.0])
    proj = project_axes([a, a])
    assert proj[1] is None


def test_projection_orthogonality_fuzz():
    rng = np.random.default_rng(19)
    for _ in range(500):
        axes = [unit(rng) for _ in range(rng.integers(1, 5))]
        proj = project_axes(axes)
        active = [p for p in proj if p is not None]
        for i, p in enumerate(active):
            assert abs(np.linalg.norm(p) - 1.0) < 1e-9
            for q in active[:i]:
                assert abs(p @ q) < 1e-9


def test_projection_ignores_action_magnitudes():
    axes = [np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])]
    p1 = project_axes(axes)
    p2 = project_axes([a.copy() for a in axes])
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_project_actions_single_controller():
    o = out([1.0, 0.0, 0.0], action=0.07)
    (axis_hat, u_hat), = project_actions([o])
    assert np.array_equal(axis_hat, o.primary_axis) and abs(u_hat - 0.07) < 1e-15


def test_project_actions_dot_scaling():
    o1 = out([1.0, 0.0, 0.0], action=0.2)
    o2 = out(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), action=0.1)
    commands = project_actions([o1, o2])
    assert abs(commands[1][1] - 0.1 / math.sqrt(2.0)) < 1e-12


def test_project_actions_inactive_zero():
    o1 = out([0.0, 0.0, 1.0], action=0.2)
    o2 = out([0.0, 0.0, 1.0], action=0.5)
    assert project_actions([o1, o2])[1] is None
    o3 = out([1.0, 0.0, 0.0], action=0.5, inactive=True)
    assert project_actions([o3]) == [None]
    # an inactive output consumes no projected axis
    o4 = out([1.0, 0.0, 0.0], action=0.3)
    assert project_actions([o3, o4])[1][1] == 0.3


def test_compose_twist_zero_and_pythagoras():
    limits = Limits(v_max=10.0, w_max=10.0)
    twist = compose_twist([], [], limits)
    np.testing.assert_allclose(twist.v, np.zeros(3))
    np.testing.assert_allclose(twist.w, np.zeros(3))
    o1 = out([1.0, 0.0, 0.0], action=0.3)
    o2 = out([0.0, 1.0, 0.0], action=0.4)
    twist = compose_twist(project_actions([o1, o2]), [], limits)
    assert abs(np.linalg.norm(twist.v) - 0.5) < 1e-12  # 3-4-5


def test_compose_twist_clamps_norm():
    o = out([1.0, 0.0, 0.0], action=3.0)
    twist = compose_twist(project_actions([o]), [], Limits(v_max=0.25, w_max=1.0))
    assert abs(np.linalg.norm(twist.v) - 0.25) < 1e-12


def test_priority_non_interference():
    rng = np.random.default_rng(23)
    limits = Limits(v_max=100.0, w_max=100.0)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        outs = [out(unit(rng), action=float(rng.uniform(0, 1))) for _ in range(n + 1)]
        cmd_k = project_actions(outs[:n])
        v_k = compose_twist(cmd_k, [], limits).v
        v_k1 = compose_twist(project_actions(outs), [], limits).v
        basis = [cmd[0] for cmd in cmd_k if cmd is not None]
        for b in basis:
            assert abs((v_k1 - v_k) @ b) < 1e-9


# ---------------------------------------------------------------- parsing

SCRAPE_ALIGN_LISTING = """
skill scraping_alignment {
  uses spatula: specs/spatula.json
  uses pan: specs/pan.json
  uses gripper: robot

  phase align budget=2000 {
    AxisAlign(spatula.tip_dir, pan.surface_dir, [0, 0, 45]);
    AxisAlign(gripper.y, pan.scrape_dir);
    PosAlign(spatula.tip_pos, pan.scrape_pos)
  }
}
"""


def test_parse_three_controller_alignment_listing():
    skill = parse_skill(SCRAPE_ALIGN_LISTING)
    assert skill.name == "scraping_alignment"
    assert dict(skill.uses) == {"spatula": "specs/spatula.json",
                           "pan": "specs/pan.json", "gripper": "robot"}
    (phase,) = skill.phases
    assert phase.step_budget == 2000
    assert [c.kind for c in phase.rotational] == ["AxisAlign", "AxisAlign"]
    assert [c.kind for c in phase.translational] == ["PosAlign"]
    assert phase.rotational[0].bindings == ("spatula.tip_dir", "pan.surface_dir")
    assert phase.rotational[0].theta == (0.0, 0.0, 45.0)
    assert phase.rotational[1].bindings == ("gripper.y", "pan.scrape_dir")
    assert phase.rotational[1].theta == (0.0, 0.0, 0.0)
    assert phase.translational[0].bindings == ("spatula.tip_pos", "pan.scrape_pos")


def test_parse_empty_phase_body_is_syntax_error():
    text = "skill s {\n  uses r: robot\n  phase p budget=10 { }\n}\n"
    with pytest.raises(SkillSyntaxError) as err:
        parse_skill(text)
    assert err.value.line == 3 and err.value.col == 23  # position of '}'


def test_parse_unknown_controller_kind():
    text = ("skill s {\n  uses r: robot\n  phase p budget=10 {\n"
            "    Wiggle(r.x)\n  }\n}\n")
    with pytest.raises(UnknownControllerKind) as err:
        parse_skill(text)
    assert err.value.line == 4


def test_parse_unbound_role():
    text = ("skill s {\n  uses r: robot\n  phase p budget=10 {\n"
            "    PosAlign(r.pos, ghost.pos)\n  }\n}\n")
    with pytest.raises(UnboundSymbol):
        parse_skill(text)


def test_parse_duplicate_role_and_phase():
    with pytest.raises(DuplicateLabel):
        parse_skill("skill s {\n  uses r: robot\n  uses r: robot\n"
                    "  phase p budget=1 { ForceAlign(r.x) }\n}\n")
    with pytest.raises(DuplicateLabel):
        parse_skill("skill s {\n  uses r: robot\n"
                    "  phase p budget=1 { ForceAlign(r.x) }\n"
                    "  phase p budget=1 { ForceAlign(r.x) }\n}\n")


def test_parse_priority_overflow():
    body = ";\n    ".join(f"PosAlign(r.pos, r.g{i})" for i in range(4))
    text = f"skill s {{\n  uses r: robot\n  phase p budget=1 {{\n    {body}\n  }}\n}}\n"
    with pytest.raises(PriorityOverflow):
        parse_skill(text)


def test_parse_empty_waypoint_list():
    text = ("skill s {\n  uses r: robot\n  phase p budget=1 {\n"
            "    PosWaypoint(r.pos, r.g, r.a, theta=[])\n  }\n}\n")
    with pytest.raises(EmptyWaypointList):
        parse_skill(text)


def test_parse_requires_a_phase():
    with pytest.raises(SkillValidationError):
        parse_skill("skill s {\n  uses r: robot\n}\n")


def test_parse_grasp_step_and_comments():
    text = """# a comment
skill demo {
  uses gripper: robot
  uses tool: tool.json  # trailing comment
  phase reach budget=100 {
    PosAlign(gripper.pos, tool.grip)  # inline
  }
  grasp tool at grip
  phase go budget=50 {
    ForceAlign(tool.axis, theta=2.5)
  }
}
"""
    skill = parse_skill(text)
    assert isinstance(skill.steps[1], GraspStep)
    assert skill.steps[1] == GraspStep(role="tool", keypoint="grip")
    assert dict(skill.uses)["tool"] == "tool.json"
    assert skill.phases[1].translational[0].theta == 2.5


def test_parse_gain_and_limit_parameters():
    text = ("skill s {\n  uses r: robot\n  phase p budget=5 {\n"
            "    AxisAlign(r.x, r.y, theta=[0, 0, 135], w_max=0.8, kr=2.0, "
            "done_tol=0.5)\n  }\n}\n")
    cfg = parse_skill(text).phases[0].rotational[0]
    assert cfg.theta == (0.0, 0.0, 135.0)
    assert cfg.limits.w_max == 0.8 and cfg.gains.kr == 2.0 and cfg.done_tol == 0.5


def test_syntax_errors_carry_line_and_col():
    cases = [
        "skil s {}",
        "skill s {\n  phase p budget=1 { ForceAlign(r.x) }\n}",  # no uses for r
        "skill s {\n  uses r: robot\n  phase p budget=-2 { ForceAlign(r.x) }\n}",
        "skill s {\n  uses r: robot\n  phase p budget=1.5 { ForceAlign(r.x) }\n}",
        "skill s {\n  uses r:\n  phase p budget=1 { ForceAlign(r.x) }\n}",
        "skill s {\n  uses r: robot\n  phase p budget=1 { ForceAlign(r.x, theta=) }\n}",
    ]
    for text in cases:
        with pytest.raises((SkillSyntaxError, SkillValidationError)) as err:
            parse_skill(text)
        if isinstance(err.value, SkillSyntaxError):
            assert isinstance(err.value.line, int) and err.value.line >= 1
            assert isinstance(err.value.col, int) and err.value.col >= 1


@pytest.mark.parametrize("controller, message", [
    ("PosAlign(r.pos, o.goal, 0.5)", "PosAlign theta must have 3 components"),
    ("PosAlign(r.pos, o.goal, [[0, 0, 1]])", "PosAlign theta must have 3 components"),
    ("PosWaypoint(r.pos, o.goal, o.axis, 0.5)",
     "PosWaypoint theta is a list of [x, y, z] waypoint offsets"),
    ("PosWaypoint(r.pos, o.goal, o.axis, [0.1, 0.2, 0.3])",
     "each waypoint must have 3 components"),
    ("AxisAlign(r.x, o.y, theta=[[0, 0, 1], [1, 0, 0]])",
     "AxisAlign theta must have 3 components"),
    ("PosAlign(r.pos, o.goal, kp=0)", "kp must be positive and finite, got 0.0"),
    ("AxisAlign(r.x, o.y, w_max=-1)", "w_max must be positive and finite, got -1.0"),
    ("PosAlign(r.pos, o.goal, v_max=-1)", "v_max must be positive and finite, got -1.0"),
])
def test_misshaped_theta_and_nonpositive_parameters_name_the_line(controller, message):
    text = ("skill s {\n  uses r: robot\n  uses o: robot\n  phase p budget=5 {\n"
            f"    ForceAlign(o.axis);\n    {controller}\n  }}\n}}\n")
    with pytest.raises(ConfigError) as err:
        parse_skill(text)
    assert str(err.value) == f"line 6, col 5: {message}"


# ------------------------------------------------------------- round-trip


def random_skill_ast(rng):
    roles = [("gripper", "robot")]
    for i in range(rng.integers(1, 3)):
        roles.append((f"obj{i}", f"specs/obj{i}.json"))
    role_names = [r for r, _ in roles]

    def binding():
        return f"{role_names[rng.integers(len(role_names))]}.l{rng.integers(5)}"

    def controller():
        kind = ["PosAlign", "PosWaypoint", "AxisAlign", "ForceAlign"][rng.integers(4)]
        gains = Gains(kp=round(float(rng.uniform(0.5, 10)), 3),
                      kr=round(float(rng.uniform(0.5, 10)), 3),
                      kf=round(float(rng.uniform(0.001, 0.1)), 5))
        limits = Limits(v_max=round(float(rng.uniform(0.05, 1.0)), 3),
                        w_max=round(float(rng.uniform(0.1, 3.0)), 3))
        if kind == "PosAlign":
            return ControllerConfig(kind=kind, bindings=(binding(), binding()),
                                    theta=tuple(round(float(x), 4)
                                                for x in rng.normal(size=3) * 0.1),
                                    gains=gains, limits=limits)
        if kind == "PosWaypoint":
            n = int(rng.integers(1, 4))
            theta = tuple(tuple(round(float(x), 4) for x in rng.normal(size=3) * 0.05)
                          for _ in range(n))
            return ControllerConfig(kind=kind,
                                    bindings=(binding(), binding(), binding()),
                                    theta=theta, gains=gains, limits=limits)
        if kind == "AxisAlign":
            return ControllerConfig(kind=kind, bindings=(binding(), binding()),
                                    theta=tuple(round(float(x), 3)
                                                for x in rng.uniform(-180, 180, 3)),
                                    gains=gains, limits=limits,
                                    done_tol=round(float(rng.uniform(0.1, 5.0)), 3))
        return ControllerConfig(kind=kind, bindings=(binding(),),
                                theta=round(float(rng.normal() * 5), 3),
                                gains=gains, limits=limits)

    steps = []
    for p in range(rng.integers(1, 4)):
        trans, rot = [], []
        for _ in range(rng.integers(1, 5)):
            c = controller()
            (trans if c.control_class == "translational" else rot).append(c)
        if len(trans) > 3 or len(rot) > 3 or not (trans or rot):
            continue
        steps.append(SkillPhase(name=f"phase{p}", translational=tuple(trans),
                                rotational=tuple(rot),
                                step_budget=int(rng.integers(0, 5000))))
        if rng.random() < 0.3:
            role = role_names[rng.integers(1, len(role_names))] \
                if len(role_names) > 1 else role_names[0]
            steps.append(GraspStep(role=role, keypoint=f"kp{rng.integers(3)}"))
    if not any(isinstance(s, SkillPhase) for s in steps):
        steps.insert(0, SkillPhase(name="only", translational=(
            ControllerConfig(kind="PosAlign", bindings=(binding(), binding())),),
            rotational=(), step_budget=10))
    return LiftedSkill(name=f"skill_{rng.integers(1000)}", uses=tuple(roles),
                       steps=tuple(steps))


def test_format_parse_roundtrip_randomized():
    rng = np.random.default_rng(101)
    for _ in range(200):
        ast = random_skill_ast(rng)
        text = format_skill(ast)
        again = parse_skill(text)
        assert again == ast
        assert parse_skill(format_skill(again)) == again


def test_parse_format_parse_idempotent_on_source():
    first = parse_skill(SCRAPE_ALIGN_LISTING)
    assert parse_skill(format_skill(first)) == first


# ------------------------------------------------------------- run_phase


class PointEnv:
    """Force-free kinematic point tracking one grounded keypoint."""

    def __init__(self, start, target, dt=0.005):
        self.pos = np.asarray(start, float)
        self.target = np.asarray(target, float)
        self.dt = dt
        self.t = 0

    def observe(self):
        grounded = GroundedParams(keypoints={"r.pos": self.pos.copy(),
                                             "o.goal": self.target.copy()},
                                  axes={"o.axis": np.array([0.0, 0.0, 1.0])})
        return ObservationBundle(grounded=grounded, measured_force=np.zeros(3))

    def apply(self, twist):
        self.pos = self.pos + twist.v * self.dt
        self.t += 1


def test_run_phase_single_pos_align_converges():
    cfg = ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal"))
    phase = SkillPhase(name="go", translational=(cfg,), rotational=(),
                       step_budget=2000)
    env = PointEnv([0.0, 0.0, 0.0], [0.05, -0.08, 0.12])
    result = run_phase(phase, env, Limits())
    assert result.outcome == "done"
    assert np.linalg.norm(env.target - env.pos) <= cfg.done_tol
    assert result.ticks < 2000


def test_run_phase_zero_budget_exhausts_immediately():
    cfg = ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal"))
    phase = SkillPhase(name="go", translational=(cfg,), rotational=(),
                       step_budget=0)
    result = run_phase(phase, PointEnv([0, 0, 0], [1, 1, 1]), Limits())
    assert result.outcome == "budget_exhausted" and result.ticks == 0


def test_run_phase_force_only_runs_full_budget_then_done():
    cfg = ControllerConfig(kind="ForceAlign", bindings=("o.axis",), theta=1.0)
    phase = SkillPhase(name="press", translational=(cfg,), rotational=(),
                       step_budget=40)
    env = PointEnv([0, 0, 0], [0, 0, 1])
    result = run_phase(phase, env, Limits())
    assert result.outcome == "done" and result.ticks == 40


def test_run_phase_records_ticks():
    cfg = ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal"))
    phase = SkillPhase(name="go", translational=(cfg,), rotational=(),
                       step_budget=500)
    env = PointEnv([0.0, 0.0, 0.0], [0.02, 0.0, 0.0])
    # the runner's tick log, with the point env's fixed state
    log, state = SimLog(), SimState(ee=Frame(np.zeros(3), np.eye(3)))
    log.begin_phase(phase, 0, state.ee, GroundedAnchors().layout())
    run_phase(phase, env, Limits(), on_tick=lambda *tick: log.record(state, [], *tick))
    records = log.records
    assert records and records[0]["phase"] == "go"
    ctl = records[0]["controllers"][0]
    assert ctl["kind"] == "PosAlign" and ctl["class"] == "translational"
    assert set(ctl) >= {"axis", "axis_hat", "u", "u_hat", "active", "done"}


class StaticEnv:
    """One observation that never changes: applied twists are dropped."""

    def __init__(self, keypoints, axes):
        self.obs = ObservationBundle(GroundedParams(keypoints=keypoints, axes=axes),
                                     np.zeros(3))

    def observe(self):
        return self.obs

    def apply(self, twist):
        pass


def test_run_phase_steps_each_controller_with_its_own_state():
    # `a` starts on its first waypoint, so it moves on to its second at
    # tick 0; `b` is far from its first and must keep aiming at it
    a = ControllerConfig(kind="PosWaypoint", bindings=("r.pos", "o.a", "o.z"),
                         theta=((0.0, 0.0, 0.0), (0.01, 0.0, 0.0)))
    b = ControllerConfig(kind="PosWaypoint", bindings=("r.tip", "o.b", "o.z"),
                         theta=((0.0, 0.0, 0.0), (0.0, 0.05, 0.0)))
    env = StaticEnv({"r.pos": np.zeros(3), "o.a": np.zeros(3),
                     "r.tip": np.array([0.1, 0.0, 0.0]), "o.b": np.array([0.1, 0.0, 0.2])},
                    {"o.z": np.array([0.0, 0.0, 1.0])})
    axes = []
    result = run_phase(SkillPhase(name="p", translational=(a, b), rotational=(),
                                  step_budget=4), env, Limits(),
                       on_tick=lambda outputs, *_: axes.append(
                           [o.primary_axis.tolist() for o in outputs]))
    assert result.outcome == "budget_exhausted"
    assert [axis_b for _, axis_b in axes] == [[0.0, 0.0, 1.0]] * 4
    assert [axis_a for axis_a, _ in axes[1:]] == [[1.0, 0.0, 0.0]] * 3


# ------------------------------------------------------ skill-text fuzzing

_WORDS = ("skill", "uses", "phase", "grasp", "at", "budget", "robot", "r", "o", "x",
          "pos", "theta", "kp", "kr", "kf", "v_max", "w_max", "done_tol", "spec.json",
          *KIND_CLASS)
_PUNCTUATION = tuple("{}()[],;:=.#") + ("\n", " ")
_NUMBERS = ("0", "-0", "1", "2.5", "-1", "1e400", "1e-400", "135", ".5", "3.", "+7e2")
_token_soup = st.lists(st.sampled_from(_WORDS + _PUNCTUATION + _NUMBERS),
                       max_size=40).map(" ".join)
_DEMOS = tuple(load_skill_text(task) for task in ("scrape", "pour", "screw"))


@st.composite
def _mutated_demo(draw):
    """A demo skill with one slice replaced by a token soup or any text."""
    text = draw(st.sampled_from(_DEMOS))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 40)))
    return text[:i] + draw(st.one_of(_token_soup, st.text(max_size=8))) + text[j:]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), _token_soup, _mutated_demo()))
@example("skill s {\n  uses r: robot\n  phase p budget=1 {\n"
         "    PosWaypoint(r.pos, r.g, r.a, theta=[])\n  }\n}\n")
def test_arbitrary_skill_text_raises_only_located_skill_errors(text):
    try:
        parse_skill(text)
    except (SkillSyntaxError, SkillValidationError):
        pass
    except ConfigError as err:
        # a controller's value error names the line and column of its kind
        m = re.match(r"line (\d+), col (\d+): ", str(err))
        assert m is not None, str(err)
        line = text.split("\n")[int(m.group(1)) - 1]
        assert re.match(r"[A-Za-z_]\w*", line[int(m.group(2)) - 1:]).group() in KIND_CLASS
