"""Numbers are checked once, where they enter; the control tick trusts them.

A non-finite or out-of-range number in a --config, scene, spec or skill
file stops `taskaxes run` at load (exit 2, file and key or line named,
nothing written), as do a missing key, a value that does not cast and a
contact probe that names no keypoint of its object. Inside the tick, frames are built unchecked, so drift of the
integrated rotation is pinned by a property test instead.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.cli import main
from taskaxes.controllers import Limits
from taskaxes.errors import ConfigError, SkillSyntaxError, finite, positive
from taskaxes.features import MatchConfig
from taskaxes.geometry import CameraIntrinsics, Frame, unit
from taskaxes.grounding import GroundingConfig
from taskaxes.scenes import sample_box
from taskaxes.simulator import (
    ContactSurface,
    RunConfig,
    Scene,
    SceneObject,
    SimState,
    SkillRunner,
    step_sim,
)
from taskaxes.skill import Twist, parse_skill

BAD = "__bad__"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("scrape")
    assert main(["gen", "--task", "scrape", "--out", str(out)]) == 0
    return out


def _json_with_bad(data, literal):
    """JSON text of `data` with every BAD string replaced by `literal`."""
    return json.dumps(data).replace(json.dumps(BAD), literal)


def _edit_json(path, edit, literal):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(_json_with_bad(data, literal))


def _stiffness(scene):
    scene["objects"][2]["surfaces"][0]["stiffness"] = BAD


def _normal(scene):
    scene["objects"][2]["surfaces"][0]["normal"] = [0.0, BAD, -1.0]


def _cloud(scene):
    desk = scene["objects"][0]
    del desk["primitive"]
    desk["cloud"] = [[0.0, 0.0, 0.0], [0.01, BAD, 0.0]]


def _global_dir(spec):
    spec["axes"].append({"label": "up", "kind": "global",
                         "args": {"dir": [0.0, 0.0, BAD]}})


# (input, key its error names, edit of the scene, spec or config JSON)
JSON_CASES = [
    ("config", "gains.kp", lambda c: c.update(gains={"kp": BAD})),
    ("config", "limits.v_max", lambda c: c.update(limits={"v_max": BAD})),
    ("config", "dt", lambda c: c.update(dt=BAD)),
    ("config", "grasp_tol", lambda c: c.update(grasp_tol=BAD)),
    ("scene.json", "object 'pan': stiffness", _stiffness),
    ("scene.json", "object 'pan': normal", _normal),
    ("scene.json", "object 'desk': cloud", _cloud),
    ("spatula.json", "axis 'up' dir", _global_dir),
    ("config", "grounding.min_score", lambda c: c.update(grounding={"min_score": BAD})),
    ("config", "grounding.normal_radius", lambda c: c.update(grounding={"normal_radius": BAD})),
    ("config", "grounding.temperature", lambda c: c.update(grounding={"temperature": BAD})),
]

# (input, key its error names, edit) for values that are finite but out of
# range, or NaN where only the range is checked
RANGE_CASES = [
    ("config", "grounding.min_neighbors", lambda c: c.update(grounding={"min_neighbors": 0})),
    ("config", "grounding.normal_radius", lambda c: c.update(grounding={"normal_radius": -0.02})),
    ("config", "grounding.temperature", lambda c: c.update(grounding={"temperature": 0})),
    ("scene.json", "features.noise_sigma", lambda s: s["features"].update(noise_sigma=-1.0)),
    ("scene.json", "features.noise_sigma", lambda s: s["features"].update(noise_sigma=BAD)),
]

SKILL_CASES = [
    ("PosAlign(gripper.pos, spatula.grasp_pos)",
     "PosAlign(gripper.pos, spatula.grasp_pos, kp={})", "kp="),
    ("PosAlign(gripper.pos, spatula.grasp_pos)",
     "PosAlign(gripper.pos, spatula.grasp_pos, theta=[0, 0, {}])", "theta=[0, 0, "),
]


def _run(work, out, *extra):
    return main(["run", "--skill", str(work / "scrape.skill"),
                 "--scene", str(work / "scene.json"), "--out", str(out), *extra])


def _run_edited(bundle, tmp_path, target, edit, literal):
    """(exit code, edited file, out dir) of `run` on a copy of the bundle
    whose `target` file, or a --config file, went through `edit`."""
    work = tmp_path / "bundle"
    shutil.copytree(bundle, work)
    extra = []
    if target == "config":
        path = tmp_path / "config.json"
        path.write_text("{}")
        extra = ["--config", str(path)]
    else:
        path = work / target
    _edit_json(path, edit, literal)
    out = tmp_path / "out"
    return _run(work, out, *extra), path, out


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("target, key, edit", JSON_CASES,
                         ids=[key for _, key, _ in JSON_CASES])
def test_non_finite_json_number_exits_2_naming_file_and_key(bundle, tmp_path, capsys,
                                                            target, key, edit, literal):
    code, path, out = _run_edited(bundle, tmp_path, target, edit, literal)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and key in err and "must be" in err and "finite" in err
    assert not (out / "result.json").exists()
    assert not (out / "log.jsonl").exists()


@pytest.mark.parametrize("target, key, edit", RANGE_CASES,
                         ids=["min_neighbors=0", "normal_radius<0", "temperature=0",
                              "noise_sigma<0", "noise_sigma=nan"])
def test_out_of_range_setting_exits_2_naming_file_and_key(bundle, tmp_path, capsys,
                                                          target, key, edit):
    code, path, out = _run_edited(bundle, tmp_path, target, edit, "NaN")
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and key in err and "must be" in err
    assert not (out / "result.json").exists()


def _pan_surface(scene):
    return scene["objects"][2]["surfaces"][0]


def _pan_pose(scene):
    return scene["objects"][2]["pose"]


# (input, what its error names, edit) for keys that are missing, do not
# cast or hold a vector of the wrong length
KEY_CASES = [
    ("scene.json", "intrinsics.fx is missing", lambda s: s["intrinsics"].pop("fx")),
    ("scene.json", "object 'pan': surfaces[0].normal is missing",
     lambda s: _pan_surface(s).pop("normal")),
    ("scene.json", "object 'pan': surfaces[0].stiffness: expected float, got 'abc'",
     lambda s: _pan_surface(s).update(stiffness="abc")),
    ("spatula.json", "keypoints[0].label is missing", lambda s: s["keypoints"][0].pop("label")),
    ("scene.json", "object 'pan': origin must hold 3 numbers, got 2",
     lambda s: _pan_pose(s).update(origin=[0.0, 0.0])),
    ("scene.json", "object 'pan': rpy_deg must hold 3 numbers, got 2",
     lambda s: _pan_pose(s).update(rpy_deg=[0.0, 0.0])),
    ("scene.json", "ee_start: origin must hold 3 numbers, got 4",
     lambda s: s["ee_start"].update(origin=[0.0, 0.0, 0.25, 1.0])),
    ("scene.json", "ee_start: rpy_deg must hold 3 numbers, got 2",
     lambda s: s["ee_start"].update(rpy_deg=[0.0, 0.0])),
    ("scene.json", "object 'pan': normal must hold 3 numbers, got 2",
     lambda s: _pan_surface(s).update(normal=[0.0, -1.0])),
    ("scene.json", "object 'pan': keypoints.center_pos must hold 3 numbers, got 2",
     lambda s: s["objects"][2]["keypoints"].update(center_pos=[0.0, 0.0])),
    ("scene.json", "ee_start: must be a JSON object",
     lambda s: s.update(ee_start=[0.0, 0.0, 0.25])),
    ("scene.json", "object 'pan': pose must be a JSON object",
     lambda s: s["objects"][2].update(pose=[0.0, 0.0, 0.0])),
]


def _desk_cloud(scene):
    desk = scene["objects"][0]
    del desk["primitive"]
    desk["cloud"] = [[0.0, 0.0, 0.0], [0.01, "x", 0.0]]


# (key its error names, edit of scene.json) for values that are not numbers
NON_NUMERIC_CASES = [
    ("object 'pan': normal must be numbers",
     lambda s: _pan_surface(s).update(normal="abc")),
    ("object 'pan': origin must be numbers", lambda s: _pan_pose(s).update(origin="xyz")),
    ("object 'pan': rpy_deg must be numbers",
     lambda s: _pan_pose(s).update(rpy_deg=[0.0, {"deg": 1}, 0.0])),
    ("object 'desk': cloud must be numbers", _desk_cloud),
    ("ee_start: origin must be numbers", lambda s: s["ee_start"].update(origin="xyz")),
]


@pytest.mark.parametrize("message, edit", NON_NUMERIC_CASES,
                         ids=["surface normal", "pose origin", "pose rpy_deg", "cloud",
                              "ee_start origin"])
def test_non_numeric_value_exits_2_naming_file_and_key(bundle, tmp_path, capsys,
                                                       message, edit):
    code, path, out = _run_edited(bundle, tmp_path, "scene.json", edit, "0")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {message} (" in err and "malformed input" not in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("target, message, edit", KEY_CASES,
                         ids=["intrinsics.fx", "surfaces[0].normal", "surfaces[0].stiffness",
                              "keypoints[0].label", "pose origin length",
                              "pose rpy_deg length", "ee_start origin length",
                              "ee_start rpy_deg length", "surface normal length",
                              "keypoint length", "ee_start list", "pose list"])
def test_missing_or_bad_key_exits_2_naming_file_and_key_path(bundle, tmp_path, capsys,
                                                             target, message, edit):
    code, path, out = _run_edited(bundle, tmp_path, target, edit, "0")
    assert code == 2
    assert f"error: {path}: {message}\n" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_contact_probe_naming_no_keypoint_exits_2_at_load(bundle, tmp_path, capsys):
    def edit(scene):
        scene["objects"][1]["contact_probe"] = "nope"

    code, path, out = _run_edited(bundle, tmp_path, "scene.json", edit, "0")
    assert code == 2
    assert (f"error: {path}: object 'spatula': contact_probe 'nope' is none of the "
            f"object's keypoints ['grasp_pos', 'handle_pos', 'tip_pos']\n"
            in capsys.readouterr().err)
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("flags, field", [(["--mode", "soft", "--temp", "0"], "temperature"),
                                          (["--noise", "-1"], "noise_sigma"),
                                          (["--noise", "nan"], "noise_sigma")])
def test_validate_rejects_an_out_of_range_setting_naming_it(tmp_path, capsys, flags, field):
    out = tmp_path / "out"
    assert main(["validate", "--trials", "1", *flags, "--out", str(out)]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (out / "stats.json").exists()


@pytest.mark.parametrize("literal", ["nan", "1e999", "-1e999"])
@pytest.mark.parametrize("old, new, before", SKILL_CASES, ids=["kp", "theta"])
def test_non_finite_skill_number_exits_2_naming_line_and_column(bundle, tmp_path, capsys,
                                                                old, new, before, literal):
    work = tmp_path / "bundle"
    shutil.copytree(bundle, work)
    skill = work / "scrape.skill"
    text = skill.read_text()
    assert old in text
    skill.write_text(text.replace(old, new.format(literal)))
    lines = skill.read_text().splitlines()
    line = next(i for i, s in enumerate(lines, 1) if new.format(literal) in s)
    col = lines[line - 1].index(before) + len(before) + 1
    out = tmp_path / "out"
    assert _run(work, out) == 2
    err = capsys.readouterr().err
    assert f"{skill}: line {line}, col {col}: expected " in err
    assert not (out / "result.json").exists()


def test_overflowing_skill_literal_is_a_syntax_error_at_its_token():
    text = "skill s {\n  uses r: robot\n  phase p budget=5 {\n    ForceAlign(r.x, kf=1e999)\n  }\n}\n"
    with pytest.raises(SkillSyntaxError) as err:
        parse_skill(text)
    assert (err.value.line, err.value.col) == (4, 24)
    assert "finite number" in str(err.value)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_each_config_check_names_its_field(value):
    for make, name in [(lambda v: RunConfig(dt=v), "dt"),
                       (lambda v: RunConfig(grasp_tol=v), "grasp_tol"),
                       (lambda v: Limits(w_max=v), "w_max"),
                       (lambda v: CameraIntrinsics(600.0, v, 320.0, 240.0, 640, 480), "fy"),
                       (lambda v: ContactSurface(np.zeros(3), np.array([0, 0, 1.0]), v),
                        "stiffness"),
                       (lambda v: GroundingConfig(normal_radius=v), "normal_radius"),
                       (lambda v: GroundingConfig(min_neighbors=v), "min_neighbors"),
                       (lambda v: MatchConfig(temperature=v), "temperature")]:
        with pytest.raises(ConfigError) as err:
            make(value)
        assert str(err.value) == f"{name} must be positive and finite, got {value}"


def test_helpers_name_the_first_offending_entry():
    positive("kp", 1e-300)
    assert finite("dir", [1, 2, 3]).dtype == np.float64
    with pytest.raises(ConfigError, match=r"^dir must be finite, got -inf$"):
        finite("dir", [0.0, -np.inf, np.nan])
    with pytest.raises(ConfigError, match=r"^theta must be finite, got nan$"):
        finite("theta", float("nan"))
    assert finite("origin", [[1, 2, 3]], (3,)).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError, match=r"^rotation must hold 9 numbers, got 3$"):
        finite("rotation", [1, 0, 0], (3, 3))


@pytest.mark.parametrize("v", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
                               [1e308, 1e308, 0.0]])
def test_unit_rejects_non_finite_and_near_zero_input(v):
    # the overflowing norm raises no RuntimeWarning, which the suite makes an error
    with pytest.raises(ConfigError, match="cannot normalize"):
        unit(v)


def test_public_frame_constructor_still_checks():
    with pytest.raises(ConfigError, match="origin must be finite"):
        Frame([0.0, np.nan, 0.0], np.eye(3))
    with pytest.raises(ConfigError, match="not orthonormal"):
        Frame(np.zeros(3), 2.0 * np.eye(3))
    with pytest.raises(ConfigError, match="right-handed"):
        Frame(np.zeros(3), np.diag([1.0, 1.0, -1.0]))


def test_sim_state_zero_vectors_are_not_shared():
    a, b = SimState(ee=Frame.identity()), SimState(ee=Frame.identity())
    a.contact_force[0] = 1.0
    assert b.contact_force.tolist() == [0.0, 0.0, 0.0]
    assert a.probe_local is not b.probe_local


# ------------------------------------------------------ trusted tick frames


INTR = CameraIntrinsics(fx=300.0, fy=300.0, cx=80.0, cy=60.0, width=160, height=120)


def test_tick_loop_builds_no_checked_frame(monkeypatch):
    block = SceneObject(name="block", pose=Frame.from_rpy_deg((0, 0, 0.5), (0, 0, 0)),
                        cloud=sample_box(0.06, 0.06, 0.01, 0.002),
                        surfaces=[ContactSurface(np.zeros(3), np.array([0, 0, -1.0]),
                                                 5000.0)])
    scene = Scene(objects=[block], intrinsics=INTR)
    skill = parse_skill("skill s {\n  uses r: robot\n  phase p budget=40 {\n"
                        "    AxisAlign(r.x, r.y);\n"
                        "    PosAlign(r.pos, r.pos, theta=[0.01, 0, 0])\n  }\n}\n")
    runner = SkillRunner(skill, scene, {})
    runner.ground_all()
    calls = []
    checked = Frame.__post_init__
    monkeypatch.setattr(Frame, "__post_init__",
                        lambda self: (calls.append(1), checked(self))[1])
    result = runner.run()
    assert result.state.t == 40 and len(result.log.records) == 40
    assert len(calls) == 0


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_integrated_rotation_stays_orthonormal_over_10k_ticks(seed):
    ticks = 10_000
    limits = Limits()
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(ticks, 2, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    v = dirs[:, 0] * rng.uniform(0.0, limits.v_max, size=(ticks, 1))
    w = dirs[:, 1] * rng.uniform(0.0, limits.w_max, size=(ticks, 1))
    scene = Scene(objects=[], intrinsics=INTR)
    state = SimState(ee=Frame.from_rpy_deg((0, 0, 0.25), (10, -20, 30)))
    worst_orth = worst_det = 0.0
    for k in range(ticks):
        state = step_sim(state, Twist(v=v[k], w=w[k]), scene)
        rot = state.ee.rotation
        worst_orth = max(worst_orth, float(np.abs(rot.T @ rot - np.eye(3)).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(rot)) - 1.0))
    assert state.t == ticks
    assert np.isfinite(state.ee.origin).all() and np.isfinite(state.ee.rotation).all()
    assert worst_orth <= 1e-9 and worst_det <= 1e-9
    # the last frame passes the public constructor's check
    Frame(state.ee.origin, state.ee.rotation)
