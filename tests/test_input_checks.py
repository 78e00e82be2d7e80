"""Numbers are checked once, where they enter; the control tick trusts them.

A non-finite or out-of-range number in a --config, scene, spec or skill
file stops `taskaxes run` at load (exit 2, file and key or line named,
nothing written), as do a missing key, a value that does not cast and a
contact probe that names no keypoint of its object. A negative seed
exits 2 from every command that takes one, and a skill binding that its
role does not ground, or a grasp step that its role cannot take, fails
when the SkillRunner is built, before any render. Inside the tick, frames are built and bindings looked up
unchecked, so drift of the integrated rotation is pinned by a property
test instead.
"""

import dataclasses
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes import cli, simulator
from taskaxes.cli import main
from taskaxes.controllers import (
    BINDING_KINDS,
    KIND_CLASS,
    TRANSLATIONAL,
    ControllerConfig,
    Gains,
    Limits,
)
from taskaxes.errors import (
    ConfigError,
    FileFormatError,
    SkillSyntaxError,
    UnresolvedBinding,
    finite,
    positive,
)
from taskaxes.features import (
    DepthMask,
    FeatureGrid,
    MatchConfig,
    write_depth_mask,
    write_feature_grid,
)
from taskaxes.geometry import CameraIntrinsics, Frame, unit
from taskaxes.grounding import (
    AxisSpec,
    GroundingConfig,
    GroundingSpec,
    KeypointRef,
    spec_from_json,
    spec_to_json,
)
from taskaxes.scenes import build_task, config_from_json, sample_box, scene_from_json
from taskaxes.simulator import (
    ContactSurface,
    FeatureRenderConfig,
    RunConfig,
    Scene,
    SceneObject,
    SimState,
    SkillRunner,
    step_sim,
)
from taskaxes.skill import GraspStep, LiftedSkill, SkillPhase, Twist, parse_skill

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
    ("scene.json", "features.noise_sigma", lambda s: s["features"].update(noise_sigma=BAD)),
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
    ("scene.json", "object 'desk': cloud must hold a multiple of 3 numbers, got 4",
     lambda s: _replace_desk_cloud(s, cloud=[0.0, 0.0, 0.0, 1.0])),
    ("scene.json", "object 'desk': cloud must hold a multiple of 3 numbers, got 8",
     lambda s: _replace_desk_cloud(s, cloud=[[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])),
]


def _replace_desk_cloud(scene, **source):
    desk = scene["objects"][0]
    del desk["primitive"]
    desk.update(source)


def _desk_cloud(scene):
    _replace_desk_cloud(scene, cloud=[[0.0, 0.0, 0.0], [0.01, "x", 0.0]])


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
                              "keypoint length", "ee_start list", "pose list",
                              "cloud length", "cloud row length"])
def test_missing_or_bad_key_exits_2_naming_file_and_key_path(bundle, tmp_path, capsys,
                                                             target, message, edit):
    code, path, out = _run_edited(bundle, tmp_path, target, edit, "0")
    assert code == 2
    assert f"error: {path}: {message}\n" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("points, message", [
    ([0.0, 0.0, 0.0, 1.0], "must hold a multiple of 3 numbers, got 4"),
    ([[0.0, 0.0, 0.0], [0.0, "x", 0.0]], "must be numbers ("),
    ([0.0, 0.0, "NaN"], "must be finite, got nan"),
])
def test_bad_cloud_file_exits_2_naming_scene_object_and_file(bundle, tmp_path, capsys,
                                                             points, message):
    def edit(scene):
        # runs on the copied bundle, beside which the points file goes
        _replace_desk_cloud(scene, cloud_file="desk_points.json")
        (tmp_path / "bundle" / "desk_points.json").write_text(
            json.dumps(points).replace('"NaN"', "NaN"))

    code, path, out = _run_edited(bundle, tmp_path, "scene.json", edit, "0")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: object 'desk': cloud_file desk_points.json {message}" in err
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


@pytest.mark.parametrize("cloud, message", [
    ([0.0, 0.0, 0.0, 1.0], r"^cloud must hold a multiple of 3 numbers, got 4$"),
    ([[0.0, np.nan, 0.0]], r"^cloud must be finite, got nan$"),
    ("abc", r"^cloud must be numbers \("),
])
def test_public_scene_object_constructor_checks_its_cloud(cloud, message):
    with pytest.raises(ConfigError, match=message):
        SceneObject(name="x", pose=Frame(np.zeros(3), np.eye(3)), cloud=cloud)


def test_sim_state_zero_vectors_are_not_shared():
    origin = Frame(np.zeros(3), np.eye(3))
    a, b = SimState(ee=origin), SimState(ee=origin)
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


# Inputs that cli.main once reported through a blanket KeyError/ValueError
# catch as "malformed input" each get a check naming the file and key; a
# KeyError or ValueError from the program itself is a bug and propagates.

@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    write_feature_grid(out / "grid.fgrd", FeatureGrid(np.ones((3, 4, 4), dtype=np.float32)))
    write_depth_mask(out / "grid.dpth", DepthMask(np.full((3, 4), 0.5)))
    intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=1.5, width=4, height=3)
    (out / "intr.json").write_text(json.dumps(dataclasses.asdict(intr)))
    return out


@pytest.mark.parametrize("keypoints, message", [
    ({"label": "a"}, "keypoints must be a JSON list"),
    ([{"pixel": [1, 1]}], "[0].label is missing"),
    ([{"label": "a", "pixel": [1, 1]}, {"label": "b"}], "[1].pixel is missing"),
    ([{"label": "a", "pixel": ["x", 1]}], "[0].pixel must be numbers ("),
    ([{"label": "a", "pixel": [1]}], "[0].pixel must hold 2 numbers, got 1"),
], ids=["not a list", "no label", "no pixel", "pixel not numbers", "pixel length"])
def test_match_keypoint_file_error_names_file_and_key(small_files, tmp_path, capsys,
                                                      keypoints, message):
    path = tmp_path / "keypoints.json"
    path.write_text(json.dumps(keypoints))
    grid = str(small_files / "grid.fgrd")
    assert main(["match", "--ref", grid, "--keypoints", str(path), "--target", grid,
                 "--depth", str(small_files / "grid.dpth"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_ground_takes_no_cloud_flag(bundle, small_files, tmp_path, capsys):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps([[0.0, 0.0, 0.5]]))
    grid = str(small_files / "grid.fgrd")
    assert main(["ground", "--spec", str(bundle / "spatula.json"), "--ref", grid,
                 "--target", grid, "--depth", str(small_files / "grid.dpth"),
                 "--intr", str(small_files / "intr.json"), "--cloud", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert "unrecognized arguments: --cloud" in capsys.readouterr().err


def test_validate_noise_sweep_that_is_not_numbers_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--trials", "1", "--noise-sweep", "0.1,abc",
                 "--out", str(out)]) == 2
    assert ("error: --noise-sweep must be comma-separated numbers, got '0.1,abc'"
            in capsys.readouterr().err)
    assert not (out / "stats.json").exists()


@pytest.mark.parametrize("name", ["scene.json", "scrape.skill", "spatula.json"])
def test_file_that_is_not_utf8_exits_2_naming_it(bundle, tmp_path, capsys, name):
    work = tmp_path / "bundle"
    shutil.copytree(bundle, work)
    (work / name).write_bytes(b'{"a": "\xff"}')
    assert _run(work, tmp_path / "out") == 2
    assert f"error: {work / name}: not UTF-8 text (" in capsys.readouterr().err


def test_replay_of_a_manifest_without_a_flag_exits_2_naming_it(tmp_path, capsys):
    recorded = tmp_path / "recorded"
    assert main(["validate", "--trials", "0", "--out", str(recorded)]) == 0
    manifest = json.loads((recorded / "manifest.json").read_text())
    del manifest["flags"]["trials"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "error: manifest flags lack 'trials'" in capsys.readouterr().err
    path.write_text(json.dumps([manifest]))
    assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "r")]) == 2
    assert f"error: {path}: not a manifest" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("trials", "abc", "argument --trials: invalid int value: 'abc'"),
    ("mode", "bogus", "argument --mode: invalid choice: 'bogus'"),
    # a flag the command does not take, or no longer takes, set to a value
    ("trails", 5, "'trails' is set, but validate takes no such flag"),
    ("log", "x.jsonl", "'log' is set, but validate takes no such flag"),
    ("cloud", "pts.json", "'cloud' is set, but validate takes no such flag"),
    ("cloud", 0, "'cloud' is set, but validate takes no such flag"),
])
def test_replay_of_a_manifest_flag_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys,
                                                                      flag, value, message):
    recorded = tmp_path / "recorded"
    assert main(["validate", "--trials", "0", "--out", str(recorded)]) == 0
    manifest = json.loads((recorded / "manifest.json").read_text())
    manifest["flags"][flag] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "r"
    assert main(["replay", "--manifest", str(path), "--out", str(out)]) == 2
    assert f"error: manifest flags: {message}" in capsys.readouterr().err
    assert not (out / "stats.json").exists()


@pytest.mark.parametrize("error", [KeyError("x"), ValueError("y")])
def test_key_or_value_error_of_the_program_propagates(monkeypatch, tmp_path, error):
    def broken(flags, out_dir):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "gen", broken)
    with pytest.raises(type(error)):
        main(["gen", "--task", "scrape", "--out", str(tmp_path / "out")])


def test_finite_takes_any_number_of_rows_of_a_fixed_length():
    assert finite("cloud", [1, 2, 3, 4, 5, 6], (-1, 3)).shape == (2, 3)
    assert finite("cloud", [], (-1, 3)).shape == (0, 3)
    with pytest.raises(ConfigError, match=r"^cloud must hold a multiple of 3 numbers, got 4$"):
        finite("cloud", [[1, 2], [3, 4]], (-1, 3))


# ------------------------------------------------------------ skill bindings

# a skill's bindings are checked against the labels their roles ground
# when the SkillRunner is built, so the tick looks them up unchecked

_SPEC = GroundingSpec(reference_image_id="ref",
                      keypoints=[KeypointRef(object="block", label="goal", pixel=(80, 60))],
                      axes=[AxisSpec(label="dir", kind="global", dir=(0.0, 0.0, 1.0))])

# bindings every role grounds, per controller kind; r is the robot
_GOOD_BINDINGS = {"PosAlign": ("r.pos", "o.goal"), "PosWaypoint": ("r.pos", "o.goal", "o.dir"),
                  "AxisAlign": ("r.x", "o.dir"), "ForceAlign": ("o.dir",)}

# per slot kind: a missing label, a label of the other kind, a robot
# built-in of the other kind
_BAD_LABELS = {"keypoints": {"missing": "o.nope", "other kind": "o.dir", "robot": "r.z"},
               "axes": {"missing": "o.nope", "other kind": "o.goal", "robot": "r.pos"}}

BINDING_CASES = [(kind, slot, case)
                 for kind, slot_kinds in BINDING_KINDS.items()
                 for slot in range(len(slot_kinds))
                 for case in ("missing", "other kind", "robot")]


def _binding_skill(kind, bindings):
    theta = ((0.0, 0.0, 0.0),) if kind == "PosWaypoint" else None
    cfg = ControllerConfig(kind=kind, bindings=bindings, theta=theta)
    trans, rot = ((cfg,), ()) if KIND_CLASS[kind] == TRANSLATIONAL else ((), (cfg,))
    phase = SkillPhase(name="reach", translational=trans, rotational=rot, step_budget=5)
    return LiftedSkill(name="s", uses=(("r", "robot"), ("o", "o.json")), steps=(phase,))


@pytest.mark.parametrize("kind, slot, case", BINDING_CASES,
                         ids=[f"{k}[{s}]-{c}" for k, s, c in BINDING_CASES])
def test_bad_binding_raises_before_any_render(monkeypatch, kind, slot, case):
    def render(*args, **kwargs):
        raise AssertionError("rendered before the bindings were checked")

    monkeypatch.setattr(simulator, "render_synthetic_features", render)
    scene = Scene(objects=[], intrinsics=INTR)
    SkillRunner(_binding_skill(kind, _GOOD_BINDINGS[kind]), scene, {"o": _SPEC})
    slot_kind = BINDING_KINDS[kind][slot]
    label = _BAD_LABELS[slot_kind][case]
    bindings = list(_GOOD_BINDINGS[kind])
    bindings[slot] = label
    with pytest.raises(UnresolvedBinding) as err:
        SkillRunner(_binding_skill(kind, tuple(bindings)), scene, {"o": _SPEC})
    cls = KIND_CLASS[kind]
    assert str(err.value) == (f"phase 'reach' {cls}[0] {kind}: binding {label!r} "
                              f"is none of the grounded {slot_kind}")


@pytest.fixture(scope="module")
def pour_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("pour")
    assert main(["gen", "--task", "pour", "--out", str(out)]) == 0
    return out


def test_misspelt_binding_exits_2_before_anything_is_written(pour_bundle, tmp_path,
                                                              capsys):
    work = tmp_path / "bundle"
    shutil.copytree(pour_bundle, work)
    skill = work / "pour.skill"
    assert "bowl.center_pos" in skill.read_text()
    skill.write_text(skill.read_text().replace("bowl.center_pos", "bowl.centre_pos"))
    out = tmp_path / "out"
    assert main(["run", "--skill", str(skill), "--scene", str(work / "scene.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {skill}: phase 'move' translational[0] "
                                       f"PosAlign: binding 'bowl.centre_pos' is none of "
                                       f"the grounded keypoints\n")
    assert sorted(p.name for p in out.iterdir()) == []


def test_grasp_of_an_undeclared_role_raises_before_any_render(monkeypatch):
    def render(*args, **kwargs):
        raise AssertionError("rendered before the grasp steps were checked")

    monkeypatch.setattr(simulator, "render_synthetic_features", render)
    skill = _binding_skill("PosAlign", _GOOD_BINDINGS["PosAlign"])
    skill = LiftedSkill(skill.name, skill.uses, skill.steps + (GraspStep("cup", "pos"),))
    with pytest.raises(ConfigError, match="grasp role 'cup' is not declared with 'uses'"):
        SkillRunner(skill, Scene(objects=[], intrinsics=INTR), {"o": _SPEC})


# (file, text, replacement, occurrences replaced, message)
GRASP_CASES = [
    ("pour.skill", "grasp mug at", "grasp gripper at", -1,
     "role 'gripper' is the robot, it cannot be grasped"),
    ("mug.json", '"object": "mug"', '"object": "bowl"', 1,
     "role 'mug' spans objects ['bowl', 'mug'], expected one"),
    ("mug.json", '"object": "mug"', '"object": "cup"', -1, "no object named 'cup' in scene"),
    ("pour.skill", "grasp mug at handle_pos", "grasp bowl at center_pos", -1,
     "object 'bowl' is not graspable"),
    ("pour.skill", "at handle_pos", "at handel_pos", -1,
     "object 'mug' has no keypoint 'handel_pos'"),
]


@pytest.mark.parametrize("name, text, replacement, count, message", GRASP_CASES,
                         ids=["robot", "two objects", "not in scene", "not graspable",
                              "no keypoint"])
def test_bad_grasp_step_exits_2_before_anything_is_written(pour_bundle, tmp_path, capsys,
                                                           name, text, replacement, count,
                                                           message):
    work = tmp_path / "bundle"
    shutil.copytree(pour_bundle, work)
    path = work / name
    assert text in path.read_text()
    path.write_text(path.read_text().replace(text, replacement, count))
    out = tmp_path / "out"
    assert main(["run", "--skill", str(work / "pour.skill"),
                 "--scene", str(work / "scene.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {work / 'pour.skill'}: {message}\n"
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------- seeds


def test_negative_seed_exits_2_naming_it(bundle, pour_bundle, tmp_path, capsys):
    out = tmp_path / "validate"
    assert main(["validate", "--trials", "1", "--seed", "-3", "--out", str(out)]) == 2
    assert "error: seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (out / "stats.json").exists()

    out = tmp_path / "run"
    assert main(["run", "--skill", str(pour_bundle / "pour.skill"),
                 "--scene", str(pour_bundle / "scene.json"), "--seed", "-2",
                 "--out", str(out)]) == 2
    assert "error: seed must be >= 0, got -2" in capsys.readouterr().err
    assert list(out.iterdir()) == []

    out = tmp_path / "gen"
    assert main(["gen", "--task", "pour", "--seed", "-1", "--out", str(out)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(out.iterdir()) == []

    code, path, out = _run_edited(bundle, tmp_path, "scene.json",
                                  lambda s: s["features"].update(seed=-1), "NaN")
    assert code == 2
    # every gen scene sets all four feature keys; only the rejected one is named
    assert capsys.readouterr().err == (f"error: {path}: features.seed: "
                                       f"seed must be >= 0, got -1\n")
    assert list(out.iterdir()) == []


# --------------------------------------------------------- config values

_NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))

# values each config field rejects, by field name
_REJECTED = {
    **dict.fromkeys(("dt", "grasp_tol", "v_max", "w_max", "kp", "kr", "kf",
                     "normal_radius", "temperature", "length_scale"), _NOT_POSITIVE),
    "min_score": st.sampled_from([math.nan, math.inf, -math.inf]),
    "min_neighbors": st.integers(max_value=0),
    "mode": st.text().filter(lambda mode: mode not in ("hard", "soft")),
    "window_radius": st.integers(max_value=-1),
    "dim": st.integers(max_value=3),
    "noise_sigma": st.one_of(st.floats(max_value=-5e-324), st.just(math.nan)),
    "seed": st.integers(max_value=-1),
}


def _config_json(config):
    """JSON object of every value of `config`, MatchConfig's keys beside
    the keys of the config holding it, as config_from_json reads them."""
    data = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, MatchConfig):
            data.update(_config_json(value))
        elif dataclasses.is_dataclass(value):
            data[f.name] = _config_json(value)
        else:
            data[f.name] = value
    return data


def _key_paths(data, path=()):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))
        else:
            yield path + (key,)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_rejected_config_value_names_only_its_key(data):
    cls = data.draw(st.sampled_from([RunConfig, FeatureRenderConfig, GroundingConfig,
                                     MatchConfig, Gains, Limits]))
    doc = _config_json(cls())
    path = data.draw(st.sampled_from(sorted(_key_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_REJECTED[path[-1]])
    with pytest.raises(ConfigError) as err:
        config_from_json(cls(), doc)
    assert str(err.value).startswith(".".join(path) + ": ")


def test_run_has_no_log_flag_and_old_manifests_still_parse(bundle, tmp_path, capsys):
    assert _run(bundle, tmp_path / "out", "--log", "result.json") == 1
    assert "unrecognized arguments: --log" in capsys.readouterr().err
    # a manifest recorded while the flag existed still parses for replay
    flags = {"skill": "s.skill", "scene": "scene.json", "seed": None, "log": None,
             "config": None}
    recorded = cli._recorded_flags("run", flags, str(tmp_path / "r"))
    assert "log" not in recorded and recorded["skill"] == "s.skill"
    # as does one whose removed switch reads false
    recorded = cli._recorded_flags("run", {**flags, "log": False}, str(tmp_path / "r"))
    assert "log" not in recorded


def test_every_path_flag_is_a_flag_of_some_command():
    dests = {action.dest for parser in cli._build_parser().commands.values()
             for action in parser._actions}
    assert set(cli._PATH_FLAGS) <= dests


def _set(*keys, value):
    """Edit setting the node at key path `keys` to `value`."""
    def edit(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return data
    return edit


def _drop(*keys):
    """Edit deleting the node at key path `keys`."""
    def edit(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return data
    return edit


# (file, what its error names, edit returning the new JSON root) for
# containers of the wrong JSON type, names that are not strings, keypoint
# pixels that are not two numbers, and primitive keys that are missing,
# malformed, out of range or would sample too many points
MALFORMED_CASES = [
    ("spatula.json", "spec must be a JSON object", lambda s: [s]),
    ("spatula.json", "keypoints must be a JSON list", _set("keypoints", value={"a": 1})),
    ("spatula.json", "keypoints[0].pixel must be numbers (",
     _set("keypoints", 0, "pixel", value="ab")),
    ("spatula.json", "keypoints[0].pixel must be finite, got nan",
     _set("keypoints", 0, "pixel", value=[1, math.nan])),
    ("spatula.json", "keypoints[0].pixel must hold 2 numbers, got 1",
     _set("keypoints", 0, "pixel", value=[3])),
    ("spatula.json", "keypoints[0].pixel must be finite, got nan",
     _set("keypoints", 0, "pixel", value=None)),
    ("spatula.json", "keypoints[0].label must be a JSON string",
     _set("keypoints", 0, "label", value=["tip_pos"])),
    ("spatula.json", "axes[0] must be a JSON object", _set("axes", 0, value="tip_dir")),
    ("spatula.json", "axes[0].args must be a JSON object",
     _set("axes", 0, "args", value=["tip_pos", "handle_pos"])),
    ("spatula.json", "axes[0].args.a must be a JSON string",
     _set("axes", 0, "args", "a", value=["tip_pos"])),
    ("scene.json", "objects must be a JSON list", _set("objects", value={})),
    ("scene.json", "objects[1] must be a JSON object", _set("objects", 1, value="spatula")),
    ("scene.json", "object 'spatula': primitive must be a JSON object",
     _set("objects", 1, "primitive", value="box")),
    ("scene.json", "object 'spatula': keypoints must be a JSON object",
     _set("objects", 1, "keypoints", value=[])),
    ("scene.json", "object 'spatula': size is missing", _drop("objects", 1, "primitive", "size")),
    ("scene.json", "object 'spatula': size must hold 3 numbers, got 2",
     _set("objects", 1, "primitive", "size", value=[0.2, 0.04])),
    ("scene.json", "object 'pan': radius is missing", _drop("objects", 2, "primitive", "radius")),
    ("scene.json", "object 'pan': height is missing", _drop("objects", 2, "primitive", "height")),
    ("scene.json", "object 'pan': radius must be positive and finite, got -0.12",
     _set("objects", 2, "primitive", "radius", value=-0.12)),
    ("scene.json", "object 'desk': primitive would sample 1.9e+11 points, more than "
                   "2000000; raise its spacing",
     _set("objects", 0, "primitive", "spacing", value=1e-6)),
    ("scene.json", "object 'spatula': contact_probe must be a JSON string",
     _set("objects", 1, "contact_probe", value=["tip_pos"])),
    ("scene.json", "reference must be a JSON string", _set("reference", value=1)),
    ("scene.json", "feature_files.ref is missing", _set("feature_files", value={})),
]


@pytest.mark.parametrize("target, message, edit", MALFORMED_CASES,
                         ids=[f"{target}: {message}" for target, message, _ in MALFORMED_CASES])
def test_malformed_spec_or_scene_exits_2_naming_file_and_key(bundle, tmp_path, capsys,
                                                             target, message, edit):
    work = tmp_path / "bundle"
    shutil.copytree(bundle, work)
    path = work / target
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out = tmp_path / "out"
    assert _run(work, out) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (out / "result.json").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)


def _node_paths(value, path=()):
    """Key path of every node of a JSON value, the root's () included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _node_paths(child, path + (key,))


def _with_node(doc, path, value):
    """Deep copy of JSON value `doc` with the node at `path` replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    return _set(*path, value=value)(doc)


# the pan spec names anchors (a, b, at), the block spec a global dir
_SCRAPE = build_task("scrape")
_DECODERS = [(spec_from_json, spec_to_json(_SCRAPE["specs"]["pan"])),
             (spec_from_json, spec_to_json(build_task("screw")["specs"]["block"])),
             (scene_from_json, _SCRAPE["scene"])]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_decoder_returns_or_raises_a_data_error_for_any_one_node(data):
    decode, doc = data.draw(st.sampled_from(_DECODERS))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    edited = _with_node(doc, path, data.draw(_JSON_VALUES))
    try:
        decode(edited)
    except (FileFormatError, ConfigError):
        pass
