import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from taskaxes.cli import main
from taskaxes.features import write_depth_mask, write_feature_grid
from taskaxes.scenes import TASK_SEED, build_task, scene_from_json
from taskaxes.simulator import render_synthetic_features


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scrape_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert main(["gen", "--task", "scrape", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def feature_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    bundle = build_task("scrape")
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    run_scene, _ = scene_from_json(bundle["scene"])
    ref_grid, ref_depth = render_synthetic_features(ref_scene, noise_tag=0)
    tgt_grid, tgt_depth = render_synthetic_features(run_scene, noise_tag=1)
    write_feature_grid(out / "ref.fgrd", ref_grid)
    write_feature_grid(out / "target.fgrd", tgt_grid)
    write_depth_mask(out / "ref.dpth", ref_depth)
    write_depth_mask(out / "target.dpth", tgt_depth)
    from taskaxes.grounding import spec_to_json
    with open(out / "spec.json", "w") as fh:
        json.dump(spec_to_json(bundle["specs"]["spatula"]), fh)
    with open(out / "intr.json", "w") as fh:
        json.dump(dataclasses.asdict(run_scene.intrinsics), fh)
    keypoints = [{"object": kp.object, "label": kp.label,
                  "pixel": list(kp.pixel)}
                 for kp in bundle["specs"]["spatula"].keypoints]
    with open(out / "keypoints.json", "w") as fh:
        json.dump(keypoints, fh)
    return out


def test_gen_writes_bundle(scrape_dir):
    for name in ("scene.json", "ref_scene.json", "spatula.json", "pan.json",
                 "scrape.skill", "manifest.json"):
        assert (scrape_dir / name).exists()
    scene = read_json(scrape_dir / "scene.json")
    assert scene["reference"] == "ref_scene.json"


# SHA-256 of every file `gen --seed 123` writes, recorded before the
# bundle writer and the CLI shared one JSON writer
GEN_SEED_123_SHA256 = {
    "pour/bowl.json":
        "73b8ff216a653a28b180743bc4267e0e3bb3e4e7225f5880a85b80dee46a570f",
    "pour/manifest.json":
        "19cf3a4f7a3cb1efbcd5c9fc5148ac276ed310aa35d76859a9bc3ccd0927d5e3",
    "pour/mug.json":
        "72bb328fd89ea6b643378d17ddfaf6b6879f0681fc814ed2214a262dc5121220",
    "pour/pour.skill":
        "73be056c22be2a6d5e19cb1951f5fd21d58305207c01188648b35efe6aa2cb43",
    "pour/ref_scene.json":
        "9c0540189012221060388764c85f2f40a4f6635b8a53ffeab416dfe20d00cb92",
    "pour/scene.json":
        "2d4945ff3a50df0304e333c0179a2f12052ee221c4d1946c16f56d3bf696cbb1",
    "scrape/manifest.json":
        "2e81607bb8fa24d00598cd7b09aae64f48d18984587c2a11f4ad7e4733fff1c8",
    "scrape/pan.json":
        "2076ad07766677cfd652ab1526d04524ce9efe1875f1ec527bd712001f111add",
    "scrape/ref_scene.json":
        "55560732e563b2ff19429a494129835ff91a57254608f120abd07f060ef2d16f",
    "scrape/scene.json":
        "dda02760a193cde996b5f1d7828bd3c062ed38a6ef00971f8d0b60ac352c0a68",
    "scrape/scrape.skill":
        "8c99cdaa05790fb6a7932b5b01501f8026d9f3ed6901b3fae8208af3e8f788c2",
    "scrape/spatula.json":
        "ef798589563380e03dae4ba873c8560192196d6a108bfbfaa8d024a94ae6bf67",
    "screw/block.json":
        "e755f363c9a3fb5b0087629a5cc9335ddaf7290143d02034bb2ded0b6d2ad0bc",
    "screw/manifest.json":
        "6e7597fe7501a0a9b48200953b6a4f4c13387d29e080d0abf567207aa151b79a",
    "screw/ref_scene.json":
        "75ea9624f21c02f0dc365067084403265075a377373149e7b8de88c5b2c14f40",
    "screw/scene.json":
        "6b91d35bb5268b12d9b5b92dd436eae566f4bbcf848527c826c0cffe067dec6c",
    "screw/screw.json":
        "a5be9ed3b7daa393ef4f2923b7b0af068951ef9aa45e4d58abe273f5f4b73d50",
    "screw/screw.skill":
        "71cc786bfe4be3cd547892d7d06437ba6fab8680b4a62bc2d77e4861b8f94e47",
}


def test_gen_bundles_are_byte_identical(tmp_path):
    for task in ("scrape", "pour", "screw"):
        assert main(["gen", "--task", task, "--seed", "123",
                     "--out", str(tmp_path / task)]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*"))
    assert written == sorted(GEN_SEED_123_SHA256)
    for name, digest in GEN_SEED_123_SHA256.items():
        assert sha(tmp_path / name) == digest, name


# SHA-256 of each heat map `match --dump-simmap` writes for the scrape
# spatula's keypoints matched against their own reference, recorded while
# the similarity map still stored its dense score and valid arrays
SIMMAP_SHA256 = {
    "simmap_spatula_grasp_pos.pgm":
        "aaa4377edbc68260ecebb94226d194ae54b0ec37997427f7f1fc3e17954d7ba4",
    "simmap_spatula_handle_pos.pgm":
        "6ddf16924143af23b4127308d6541e19e5351dbb7164eabd9521385d491b8195",
    "simmap_spatula_tip_pos.pgm":
        "dc9e0163acc652b79044a577bc4b2841780ac06d01c854ae2289596204ca2fb1",
}


def test_cmd_match_identity_and_simmap(feature_files, tmp_path):
    out = tmp_path / "match"
    code = main(["match", "--ref", str(feature_files / "ref.fgrd"),
                 "--keypoints", str(feature_files / "keypoints.json"),
                 "--target", str(feature_files / "ref.fgrd"),
                 "--depth", str(feature_files / "ref.dpth"),
                 "--mode", "hard", "--dump-simmap", "--out", str(out)])
    assert code == 0
    matches = read_json(out / "matches.json")
    for m in matches:
        assert m["pixel"] == m["ref_pixel"]  # identity scene
        assert m["score"] > 0.99
    pgms = {p.name: p for p in out.glob("simmap_*.pgm")}
    assert len(pgms) == len(matches)
    assert pgms["simmap_spatula_tip_pos.pgm"].read_bytes().startswith(b"P5\n640 480\n255\n")
    assert {name: sha(path) for name, path in pgms.items()} == SIMMAP_SHA256
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "match"
    assert set(manifest["outputs"]) >= {"matches.json"}


def test_cmd_match_translated_pair(feature_files, tmp_path):
    out = tmp_path / "match2"
    code = main(["match", "--ref", str(feature_files / "ref.fgrd"),
                 "--keypoints", str(feature_files / "keypoints.json"),
                 "--target", str(feature_files / "target.fgrd"),
                 "--depth", str(feature_files / "target.dpth"),
                 "--mode", "soft", "--temp", "0.01", "--out", str(out)])
    assert code == 0
    for m in read_json(out / "matches.json"):
        assert m["score"] > 0.9
        assert m["mode"] == "soft"


def test_cmd_ground_against_truth(feature_files, tmp_path):
    out = tmp_path / "ground"
    code = main(["ground", "--spec", str(feature_files / "spec.json"),
                 "--ref", str(feature_files / "ref.fgrd"),
                 "--target", str(feature_files / "target.fgrd"),
                 "--depth", str(feature_files / "target.dpth"),
                 "--intr", str(feature_files / "intr.json"),
                 "--mode", "hard", "--out", str(out)])
    assert code == 0
    grounded = read_json(out / "grounded.json")
    bundle = build_task("scrape")
    run_scene, _ = scene_from_json(bundle["scene"])
    spat = run_scene.find("spatula")
    for label, entry in grounded["keypoints"].items():
        truth = spat.world_keypoint(label)
        err = np.linalg.norm(np.asarray(entry["position"]) - truth)
        assert err < 0.002, (label, err)
    assert "tip_dir" in grounded["axes"]


def test_cmd_run_scrape_bundle(scrape_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scrape_dir / "scene.json"),
                 "--out", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["success"] is True
    assert [p["outcome"] for p in result["phases"]] == ["done"] * 3
    log_lines = (out / "log.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == result["ticks_total"]
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("t,x,y,z")
    assert len(traj) == len(log_lines) + 1


@pytest.mark.parametrize("controller, message", [
    ("PosAlign(gripper.pos, spatula.grasp_pos, 0.5)", "PosAlign theta must have 3 components"),
    ("PosAlign(gripper.pos)", "PosAlign takes 2 bindings, got 1"),
], ids=["theta", "binding count"])
def test_cmd_run_misshaped_controller_exits_2_naming_file_and_line(scrape_dir, tmp_path,
                                                                   capsys, controller, message):
    # spec paths resolve relative to the skill file, so keep it in the bundle
    bad = scrape_dir / "bad_controller.skill"
    text = (scrape_dir / "scrape.skill").read_text()
    bad.write_text(text.replace("PosAlign(gripper.pos, spatula.grasp_pos)", controller))
    out = tmp_path / "bad_controller_run"
    code = main(["run", "--skill", str(bad),
                 "--scene", str(scrape_dir / "scene.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 12, col 5: {message}" in err
    assert not (out / "result.json").exists()


def test_cmd_run_grasp_failure_mid_skill_exits_3_reporting_it(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--task", "pour", "--out", str(bundle)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grasp_tol": 1e-9}))
    out = tmp_path / "run"
    assert main(["run", "--skill", str(bundle / "pour.skill"),
                 "--scene", str(bundle / "scene.json"), "--config", str(config),
                 "--out", str(out)]) == 3
    result = read_json(out / "result.json")
    # the reach phase finished; the grasp after it raised GraspTooFar
    assert result["success"] is False
    assert re.fullmatch(r"gripper is \d+\.\d mm from mug\.handle_pos, tolerance 0\.0 mm",
                        result["error"])
    assert result["phases"] == [{"name": "reach", "outcome": "done",
                                 "ticks": result["ticks_total"]}]
    assert len((out / "log.jsonl").read_text().splitlines()) == result["ticks_total"]
    assert "run failed: " in capsys.readouterr().err


def test_cmd_run_zero_budget_exits_3(scrape_dir, tmp_path):
    # spec paths resolve relative to the skill file, so keep it in the bundle
    crippled = scrape_dir / "zero.skill"
    text = (scrape_dir / "scrape.skill").read_text()
    crippled.write_text(text.replace("phase reach budget=1600",
                                     "phase reach budget=0"))
    out = tmp_path / "runzero"
    code = main(["run", "--skill", str(crippled),
                 "--scene", str(scrape_dir / "scene.json"), "--out", str(out)])
    assert code == 3
    result = read_json(out / "result.json")
    assert result["phases"][0]["outcome"] == "budget_exhausted"


def test_cmd_run_huge_budget_writes_the_same_outputs(tmp_path):
    # a phase's tick table grows as the phase runs: a budget far beyond the
    # ticks the phase takes is never allocated
    bundle = tmp_path / "bundle"
    assert main(["gen", "--task", "pour", "--out", str(bundle)]) == 0
    text = (bundle / "pour.skill").read_text()
    (bundle / "huge.skill").write_text(re.sub(r"budget=\d+", "budget=1e12", text))
    for name in ("pour", "huge"):
        assert main(["run", "--skill", str(bundle / f"{name}.skill"),
                     "--scene", str(bundle / "scene.json"),
                     "--out", str(tmp_path / name)]) == 0
    for name in ("log.jsonl", "result.json", "trajectory.csv"):
        assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "pour" / name).read_bytes()


def test_cmd_validate_small_and_empty(tmp_path):
    out = tmp_path / "val"
    code = main(["validate", "--trials", "2", "--mode", "hard", "--out", str(out)])
    assert code == 0
    stats = read_json(out / "stats.json")
    assert stats["trials"] == 2 and stats["keypoints"]["count"] == 10
    out0 = tmp_path / "val0"
    assert main(["validate", "--trials", "0", "--out", str(out0)]) == 0
    stats0 = read_json(out0 / "stats.json")
    assert stats0["keypoints"]["count"] == 0
    # no trials: the keys of any other count, every summary empty
    assert stats0.keys() == stats.keys()
    assert stats0["per_axis_kind"] == {kind: {"count": 0} for kind in stats["per_axis_kind"]}
    assert stats0["per_axis_kind"].keys() == {"from_keypoints", "surface_normal",
                                              "edge_direction", "global"}
    assert stats0["per_controller_kind"] == {kind: {"count": 0}
                                             for kind in stats["per_controller_kind"]}


def test_cmd_validate_noise_sweep_equals_single_noise_runs(tmp_path):
    assert main(["validate", "--trials", "1", "--noise-sweep", "0,0.1",
                 "--out", str(tmp_path / "sweep")]) == 0
    singles = []
    for sigma in ("0", "0.1"):
        out = tmp_path / f"noise-{sigma}"
        assert main(["validate", "--trials", "1", "--noise", sigma, "--out", str(out)]) == 0
        singles.append(read_json(out / "stats.json"))
    assert read_json(tmp_path / "sweep" / "stats.json") == {"sweep": singles}
    assert [s["noise_sigma"] for s in singles] == [0.0, 0.1]


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0", "--temp", "0"], "temperature must be positive"),
    (["--trials", "0", "--noise", "-1"], "noise_sigma must be >= 0"),
    (["--trials", "0", "--noise", "inf"], "noise_sigma must be >= 0 and finite, got inf"),
    (["--trials", "-3"], "trials must be >= 0, got -3"),
])
def test_cmd_validate_checks_settings_without_trials(tmp_path, capsys, argv, message):
    out = tmp_path / "val"
    assert main(["validate"] + argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "stats.json").exists()


def test_gen_twice_into_one_directory_lists_no_manifest_among_outputs(tmp_path):
    out = tmp_path / "bundle"
    for _ in range(2):
        assert main(["gen", "--task", "scrape", "--out", str(out)]) == 0
        outputs = read_json(out / "manifest.json")["outputs"]
        assert "manifest.json" not in outputs and "scrape.skill" in outputs


def test_help_returns_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--skill" in capsys.readouterr().out


def test_usage_error_returns_1():
    assert main(["run", "--scene", "missing-skill.json"]) == 1
    assert main(["nope"]) == 1


def test_data_error_returns_2(tmp_path):
    out = tmp_path / "bad"
    code = main(["match", "--ref", "does-not-exist.fgrd",
                 "--keypoints", "x.json", "--target", "y.fgrd",
                 "--depth", "z.dpth", "--out", str(out)])
    assert code == 2


def test_grounding_failure_returns_2(feature_files, tmp_path):
    out = tmp_path / "ground-fail"
    code = main(["ground", "--spec", str(feature_files / "spec.json"),
                 "--ref", str(feature_files / "ref.fgrd"),
                 "--target", str(feature_files / "target.fgrd"),
                 "--depth", str(feature_files / "target.dpth"),
                 "--intr", str(feature_files / "intr.json"),
                 "--min-score", "1.5", "--out", str(out)])
    assert code == 2


def test_replay_reproduces_match_outputs(feature_files, tmp_path):
    out1 = tmp_path / "m1"
    assert main(["match", "--ref", str(feature_files / "ref.fgrd"),
                 "--keypoints", str(feature_files / "keypoints.json"),
                 "--target", str(feature_files / "target.fgrd"),
                 "--depth", str(feature_files / "target.dpth"),
                 "--out", str(out1)]) == 0
    out2 = tmp_path / "m2"
    assert main(["replay", "--manifest", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    for name, digest in read_json(out1 / "manifest.json")["outputs"].items():
        assert sha(out2 / name) == digest


def test_replay_runs_the_inputs_its_manifest_verified(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    monkeypatch.chdir(a)
    assert main(["gen", "--task", "pour", "--out", "bundle"]) == 0
    assert main(["run", "--skill", "bundle/pour.skill", "--scene", "bundle/scene.json",
                 "--out", "out"]) == 0
    manifest = read_json(a / "out" / "manifest.json")
    assert manifest["flags"]["skill"] == "../bundle/pour.skill"
    assert "../bundle/pour.skill" in manifest["inputs"]
    # the same relative paths from another directory name another skill
    shutil.copytree(a / "bundle", b / "bundle")
    skill = b / "bundle" / "pour.skill"
    skill.write_text(skill.read_text().replace("budget=1400", "budget=3"))
    monkeypatch.chdir(b)
    assert main(["replay", "--manifest", "../a/out/manifest.json", "--out", "out"]) == 0
    replayed = read_json(b / "out" / "manifest.json")
    assert replayed["outputs"] == manifest["outputs"]
    for name, digest in manifest["outputs"].items():
        assert sha(b / "out" / name) == digest
    # the replayed manifest is relative to its own directory
    assert replayed["flags"]["skill"] == "../../a/bundle/pour.skill"
    assert replayed["inputs"] == {f"../../a/{name[3:]}": digest
                                  for name, digest in manifest["inputs"].items()}


def test_replay_detects_modified_input(feature_files, tmp_path, scrape_dir):
    out1 = tmp_path / "r1"
    assert main(["validate", "--trials", "1", "--out", str(out1)]) == 0
    manifest = read_json(out1 / "manifest.json")
    # corrupt a recorded input hash
    manifest["inputs"] = {str(feature_files / "ref.fgrd"): "0" * 64}
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "r2")]) == 2


def test_replay_of_an_unknown_command_exits_2(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "bogus", "flags": {}}))
    assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "r")]) == 2
    assert "error: manifest names unknown command 'bogus'" in capsys.readouterr().err


def test_replay_of_a_deleted_input_exits_2_naming_it(feature_files, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    shutil.copytree(feature_files, inputs)
    assert main(["match", "--ref", str(inputs / "ref.fgrd"),
                 "--keypoints", str(inputs / "keypoints.json"),
                 "--target", str(inputs / "target.fgrd"),
                 "--depth", str(inputs / "target.dpth"), "--out", str(tmp_path / "m")]) == 0
    (inputs / "keypoints.json").unlink()
    assert main(["replay", "--manifest", str(tmp_path / "m" / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 2
    missing = os.path.join(tmp_path / "m", "../inputs/keypoints.json")
    assert f"error: manifest input missing: {missing}" in capsys.readouterr().err


def test_cmd_run_config_presets_gains_and_dt(scrape_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dt": 0.004,
        "gains": {"kp": 5.0},
        "limits": {"v_max": 0.3},
        "grounding": {"mode": "hard", "min_score": 0.5},
    }))
    out = tmp_path / "cfg_run"
    code = main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scrape_dir / "scene.json"),
                 "--config", str(config), "--out", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["success"] is True
    manifest = read_json(out / "manifest.json")
    # recorded relative to the manifest's directory
    assert manifest["flags"]["config"] == "../config.json"
    assert "../config.json" in manifest["inputs"]


def _run_scrape(scrape_dir, out, *extra):
    return main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scrape_dir / "scene.json"), *extra,
                 "--out", str(out)])


def test_cmd_run_empty_config_matches_defaults(scrape_dir, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    assert _run_scrape(scrape_dir, tmp_path / "plain") == 0
    assert _run_scrape(scrape_dir, tmp_path / "cfg", "--config", str(config)) == 0
    for name in ("log.jsonl", "result.json", "trajectory.csv"):
        assert sha(tmp_path / "cfg" / name) == sha(tmp_path / "plain" / name)


def test_cmd_run_config_unknown_key_exits_2(scrape_dir, tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"grounding": {"min_scroe": 1.5}, "gainz": 3}))
    out = tmp_path / "typo_run"
    assert _run_scrape(scrape_dir, out, "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "grounding.min_scroe" in err
    assert not (out / "result.json").exists()


def test_cmd_run_config_rejected_value_names_file_and_key(scrape_dir, tmp_path, capsys):
    config = tmp_path / "negative.json"
    config.write_text(json.dumps({"limits": {"v_max": -1}}))
    out = tmp_path / "negative_run"
    assert _run_scrape(scrape_dir, out, "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "limits.v_max" in err and "positive" in err
    assert not (out / "result.json").exists()


def test_cmd_run_scene_unknown_feature_key_exits_2(scrape_dir, tmp_path, capsys):
    scene_json = read_json(scrape_dir / "scene.json")
    scene_json["features"] = {"seeed": 5}
    scene_json["reference"] = str(scrape_dir / "ref_scene.json")
    scene_path = tmp_path / "typo_scene.json"
    scene_path.write_text(json.dumps(scene_json))
    out = tmp_path / "typo_scene_run"
    code = main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scene_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(scene_path) in err and "features.seeed" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("value, message", [("abc", "expected int, got 'abc'"),
                                            (2, "descriptor dimension must be >= 4")])
def test_cmd_run_scene_bad_feature_value_names_file_and_key(scrape_dir, tmp_path, capsys,
                                                            value, message):
    scene_json = read_json(scrape_dir / "scene.json")
    scene_json["features"] = {"dim": value}
    scene_json["reference"] = str(scrape_dir / "ref_scene.json")
    scene_path = tmp_path / "bad_dim_scene.json"
    scene_path.write_text(json.dumps(scene_json))
    out = tmp_path / "bad_dim_run"
    code = main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scene_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{scene_path}: features.dim: {message}" in err
    assert not (out / "result.json").exists()


def test_cmd_run_grounding_failure_exits_2_before_writing(scrape_dir, tmp_path):
    config = tmp_path / "strict.json"
    config.write_text(json.dumps({"grounding": {"min_score": 1.5}}))
    out = tmp_path / "strict_run"
    assert _run_scrape(scrape_dir, out, "--config", str(config)) == 2
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("name", ["scene.json", "spatula.json", "config.json"])
def test_cmd_run_truncated_json_exits_2_naming_the_file(scrape_dir, tmp_path, capsys, name):
    work = tmp_path / "bundle"
    shutil.copytree(scrape_dir, work)
    path = work / name
    extra = ["--config", str(path)] if name == "config.json" else []
    text = path.read_text() if path.exists() else '{"dt": 0.005}'
    path.write_text(text[:len(text) // 2])
    out = tmp_path / "out"
    assert main(["run", "--skill", str(work / "scrape.skill"),
                 "--scene", str(work / "scene.json"), "--out", str(out), *extra]) == 2
    assert f"error: {path}: malformed JSON at line " in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_gen_default_seed_is_the_task_seed(scrape_dir):
    assert read_json(scrape_dir / "scene.json")["features"]["seed"] == TASK_SEED
    assert build_task("scrape")["ref_scene"]["features"]["seed"] == TASK_SEED


def test_cmd_run_with_file_loaded_features(scrape_dir, tmp_path, feature_files):
    # same grids the simulator would render, but loaded from disk
    scene_json = read_json(scrape_dir / "scene.json")
    scene_json["feature_files"] = {"ref": str(feature_files / "ref.fgrd"),
                                   "target": str(feature_files / "target.fgrd"),
                                   "target_depth": str(feature_files / "target.dpth")}
    scene_path = tmp_path / "scene_files.json"
    scene_path.write_text(json.dumps(scene_json))
    # role specs resolve relative to the skill file, reference relative to
    # the scene file: keep the scene copy pointing back at the bundle
    scene_json["reference"] = str(scrape_dir / "ref_scene.json")
    scene_path.write_text(json.dumps(scene_json))
    out = tmp_path / "run_files"
    code = main(["run", "--skill", str(scrape_dir / "scrape.skill"),
                 "--scene", str(scene_path), "--out", str(out)])
    assert code == 0
    assert read_json(out / "result.json")["success"] is True
    manifest = read_json(out / "manifest.json")
    assert any(p.endswith("ref.fgrd") for p in manifest["inputs"])
