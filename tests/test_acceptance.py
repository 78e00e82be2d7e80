"""Acceptance suite: one test per release criterion.

Each test pins the criterion's stated tolerances and trial counts and
prints a single PASS line (visible with pytest -s; the per-test result
line itself reports pass/fail otherwise).
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from taskaxes.cli import main as cli_main
from taskaxes.controllers import (
    ControllerConfig,
    ControllerState,
    Gains,
    Limits,
    ObservationBundle,
    step_controller,
)
from taskaxes.errors import SkillSyntaxError
from taskaxes.evaluation import run_validation
from taskaxes.features import SimilarityMap, hard_match, soft_match
from taskaxes.geometry import angle_between, completion_matrix, rotvec_to_matrix
from taskaxes.grounding import GroundedParams
from taskaxes.scenes import build_task, scene_from_json
from taskaxes.simulator import SkillRunner
from taskaxes.skill import format_skill, parse_skill, project_axes

from test_skill import SCRAPE_ALIGN_LISTING, random_skill_ast


def _announce(n, message):
    print(f"PASS criterion {n}: {message}")


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _dense_map(score, valid):
    """SimilarityMap of a dense score array at its valid pixels."""
    idx = np.flatnonzero(valid)
    return SimilarityMap(*score.shape, idx, score.reshape(-1)[idx])


def _run_task(task):
    bundle = build_task(task)
    scene, _ = scene_from_json(bundle["scene"])
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    skill = parse_skill(bundle["skill_text"])
    runner = SkillRunner(skill, scene, bundle["specs"], ref_scene=ref_scene)
    result = runner.run()
    return result, scene


# ----------------------------------------------------------------------


def test_criterion_1_null_space_projection_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        axes = [_unit(rng) for _ in range(n)]
        projected = project_axes(axes)
        active = [p for p in projected if p is not None]
        for i, p in enumerate(active):
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-9
            for q in active[:i]:
                assert abs(float(p @ q)) < 1e-9
        if n == 4:
            assert projected[3] is None  # a 4th same-class axis cannot survive
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"projection fuzz took {elapsed:.1f}s"
    _announce(1, f"10,000 projected stacks unit/orthogonal to 1e-9 in {elapsed:.1f}s")


def test_criterion_2_matching_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    cold_checked = 0
    for _ in range(1000):
        h = int(rng.integers(2, 33))
        w = int(rng.integers(2, 33))
        score = rng.uniform(-0.9, 0.9, size=(h, w))
        valid = rng.random((h, w)) < 0.85
        if not valid.any():
            valid[rng.integers(h), rng.integers(w)] = True
        sim = _dense_map(score, valid)
        best = None
        for v in range(h):
            for u in range(w):
                if valid[v, u] and (best is None or score[v, u] > best[0]):
                    best = (score[v, u], u, v)
        m = hard_match(sim)
        assert (m.u, m.v) == (float(best[1]), float(best[2]))

        # enforce a strict peak margin, then the cold soft-argmax must agree
        flat = np.where(valid, score, -np.inf)
        v0, u0 = np.unravel_index(np.argmax(flat), flat.shape)
        score[v0, u0] = flat.max() + 0.05 + float(rng.uniform(0.0, 0.1))
        sim = _dense_map(score, valid)
        hard = hard_match(sim)
        soft = soft_match(sim, temperature=1e-4)
        assert np.hypot(soft.u - hard.u, soft.v - hard.v) < 0.5
        cold_checked += 1

        shifted = soft_match(_dense_map(score + 0.61, valid),
                             temperature=1e-4)
        assert abs(shifted.u - soft.u) < 1e-9 and abs(shifted.v - soft.v) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"matching oracle took {elapsed:.1f}s"
    _announce(2, f"1000 maps: argmax oracle, cold soft-argmax ({cold_checked}), "
                 f"shift invariance in {elapsed:.1f}s")


def test_criterion_3_synthetic_grounding_accuracy():
    start = time.perf_counter()
    clean = run_validation(trials=100, noise_sigma=0.0, mode="hard", seed=0)
    assert clean["failures"] == 0
    bound = clean["quantization_bound_m"]
    assert clean["keypoints"]["median"] <= bound, \
        f"median {clean['keypoints']['median']*1e3:.2f}mm > bound {bound*1e3:.2f}mm"
    assert clean["axes"]["median"] < 0.1, \
        f"noiseless axis median {clean['axes']['median']:.3f} deg"

    noisy = run_validation(trials=100, noise_sigma=0.1, mode="soft",
                           temperature=0.01, seed=0)
    assert noisy["failures"] == 0
    assert noisy["keypoints"]["median"] < 0.01, \
        f"noisy keypoint median {noisy['keypoints']['median']*1e3:.2f}mm"
    assert noisy["axes"]["median"] < 3.0, \
        f"noisy axis median {noisy['axes']['median']:.3f} deg"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"validation took {elapsed:.1f}s"
    _announce(3, "grounding medians: clean "
                 f"{clean['keypoints']['median']*1e3:.2f}mm/"
                 f"{clean['axes']['median']:.3f}deg (bound {bound*1e3:.2f}mm/0.1deg), "
                 f"noise 0.1 -> {noisy['keypoints']['median']*1e3:.2f}mm/"
                 f"{noisy['axes']['median']:.2f}deg, {elapsed:.0f}s")


def test_criterion_4_scraping_end_to_end():
    result, scene = _run_task("scrape")
    assert result.success, result.summary()
    sim_seconds = result.state.t * result.state.dt
    assert sim_seconds < 30.0, f"simulated {sim_seconds:.1f}s"
    records = result.log.records

    align_end = [r for r in records if r["phase"] == "align"][-1]
    tip_dir = np.array(align_end["grounded"]["axes"]["spatula.tip_dir"])
    normal = np.array(align_end["grounded"]["axes"]["pan.surface_dir"])
    ang = math.degrees(angle_between(tip_dir, normal))
    line_angle = min(ang, 180.0 - ang)
    assert abs(line_angle - 45.0) <= 1.0, f"tip axis at {line_angle:.2f} deg"
    tip = np.array(align_end["grounded"]["keypoints"]["spatula.tip_pos"])
    scrape_pos = np.array(align_end["grounded"]["keypoints"]["pan.scrape_pos"])
    tip_err = float(np.linalg.norm(tip - scrape_pos))
    assert tip_err <= 0.002, f"tip {tip_err*1e3:.2f}mm from scrape_pos"

    scrape = [r for r in records if r["phase"] == "scrape"]
    theta = 5.0
    t0 = scrape[0]["t"]
    dt = result.state.dt
    settled = [r for r in scrape if (r["t"] - t0) * dt > 2.0]
    assert settled, "scrape phase shorter than the settling window"
    worst = 0.0
    for r in settled:
        axis = np.array(r["grounded"]["axes"]["spatula.tip_dir"])
        f = float(-np.array(r["contact_force"]) @ axis)
        worst = max(worst, abs(f - theta) / theta)
    assert worst < 0.05, f"force error {worst*100:.1f}% after settling"

    g0 = scrape[0]["grounded"]
    base = np.array(g0["keypoints"]["pan.scrape_pos"])
    frame = completion_matrix(np.array(g0["axes"]["pan.scrape_dir"]))
    visit_t = []
    for off in ((0, 0, 0), (0, 0, 0.02), (0, 0, 0.04)):
        wp = base + frame @ np.array(off, dtype=float)
        dmin, tmin = min(
            (float(np.linalg.norm(np.array(r["grounded"]["keypoints"]
                                           ["spatula.tip_pos"]) - wp)), r["t"])
            for r in scrape)
        assert dmin <= 0.003, f"waypoint missed by {dmin*1e3:.2f}mm"
        visit_t.append(tmin)
    assert visit_t == sorted(visit_t), "waypoints visited out of order"
    _announce(4, f"scrape: {line_angle:.2f} deg tilt, tip {tip_err*1e3:.2f}mm, "
                 f"force within {worst*100:.2f}%, {sim_seconds:.1f}s simulated")


def _rotation_axis_angle(rot):
    w = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0],
                  rot[1, 0] - rot[0, 1]])
    s = np.linalg.norm(w) / 2.0
    c = (np.trace(rot) - 1.0) / 2.0
    angle = math.atan2(s, np.clip(c, -1.0, 1.0))
    if s < 1e-12:
        return np.zeros(3), angle
    return w / (2.0 * s), angle


def test_criterion_5_pouring_and_screwing_analogs():
    start = time.perf_counter()
    result, scene = _run_task("pour")
    assert result.success, result.summary()
    pour = [r for r in result.log.records if r["phase"] == "pour"]
    up0 = np.array(pour[0]["grounded"]["axes"]["mug.up_dir"])
    up1 = np.array(pour[-1]["grounded"]["axes"]["mug.up_dir"])
    tilt = math.degrees(angle_between(up0, up1))
    assert abs(tilt - 115.0) <= 1.5, f"tilt {tilt:.2f} deg"
    center = np.array(pour[-1]["grounded"]["keypoints"]["mug.center_pos"])
    hover = (np.array(pour[-1]["grounded"]["keypoints"]["bowl.center_pos"])
             + np.array([0.0, 0.0, -0.12]))
    center_err = float(np.linalg.norm(center - hover))
    assert center_err <= 0.005, f"center off by {center_err*1e3:.2f}mm"
    # the realized rotation must be about the grounded rim edge axis
    rot0 = np.array(pour[0]["ee"]["rotation"])
    rot1 = np.array(pour[-1]["ee"]["rotation"])
    axis, angle = _rotation_axis_angle(rot1 @ rot0.T)
    edge = np.array(pour[0]["grounded"]["axes"]["mug.edge_dir"])
    axis_off = math.degrees(angle_between(axis, edge))
    axis_off = min(axis_off, 180.0 - axis_off)
    assert axis_off <= 5.0, f"rotation axis {axis_off:.2f} deg off the edge axis"
    pour_elapsed = time.perf_counter() - start
    assert pour_elapsed < 60.0

    start = time.perf_counter()
    result, scene = _run_task("screw")
    assert result.success, result.summary()
    drive = [r for r in result.log.records if r["phase"] == "drive"]
    mouth_z = scene.find("block").world_keypoint("hole_pos")[2]
    crossing = next(r for r in drive
                    if r["grounded"]["keypoints"]["screw.tip_pos"][2] >= mouth_z)
    screw_axis = np.array(crossing["grounded"]["axes"]["screw.axis_dir"])
    hole_axis = np.array(crossing["grounded"]["axes"]["block.hole_dir"])
    ang = math.degrees(angle_between(screw_axis, hole_axis))
    insertion_angle = min(ang, 180.0 - ang)
    assert insertion_angle <= 3.0, f"insertion angle {insertion_angle:.2f} deg"
    theta = 3.0
    t_cross = crossing["t"]
    dt = result.state.dt
    settled = [r for r in drive if (r["t"] - t_cross) * dt > 1.0]
    assert settled
    worst = max(abs(float(-np.array(r["contact_force"])
                          @ np.array(r["grounded"]["axes"]["screw.axis_dir"]))
                    - theta) / theta for r in settled)
    assert worst < 0.05, f"drive force error {worst*100:.1f}%"
    screw_elapsed = time.perf_counter() - start
    assert screw_elapsed < 60.0
    _announce(5, f"pour tilt {tilt:.1f} deg about edge axis ({axis_off:.1f} deg), "
                 f"center {center_err*1e3:.1f}mm; screw insertion "
                 f"{insertion_angle:.2f} deg, force within {worst*100:.2f}%")


def test_criterion_6_controller_reductions():
    rng = np.random.default_rng(55)
    wp_cfg = ControllerConfig(kind="PosWaypoint",
                              bindings=("r.g1", "o.g2", "o.a2"),
                              theta=((0.0, 0.0, 0.0),))
    pa_cfg = ControllerConfig(kind="PosAlign", bindings=("r.g1", "o.g2"))
    for _ in range(1000):
        grounded = GroundedParams(
            keypoints={"r.g1": rng.normal(size=3), "o.g2": rng.normal(size=3)},
            axes={"o.a2": _unit(rng)})
        if rng.random() < 0.1:
            grounded.keypoints["o.g2"] = grounded.keypoints["r.g1"].copy()
        obs = ObservationBundle(grounded=grounded, measured_force=np.zeros(3))
        last_axis = tuple(_unit(rng)) if rng.random() < 0.5 else None
        # a step updates its state in place: each controller gets its own
        out_wp = step_controller(wp_cfg, obs, ControllerState(last_axis=last_axis))
        out_pa = step_controller(pa_cfg, obs, ControllerState(last_axis=last_axis))
        assert np.array_equal(out_wp.primary_axis, out_pa.primary_axis)
        assert out_wp.action == out_pa.action
        assert out_wp.done == out_pa.done
        assert out_wp.inactive == out_pa.inactive

    for _ in range(50):
        kr = float(rng.uniform(0.5, 3.0))
        dt = float(rng.uniform(0.005, 1.0 / kr))
        cfg = ControllerConfig(kind="AxisAlign", bindings=("r.a1", "o.a2"),
                               gains=Gains(kr=kr), limits=Limits(w_max=6.0))
        a1, a2 = _unit(rng), _unit(rng)
        state = ControllerState()
        prev = angle_between(a1, a2)
        for _ in range(400):
            grounded = GroundedParams(axes={"r.a1": a1, "o.a2": a2})
            obs = ObservationBundle(grounded=grounded, measured_force=np.zeros(3))
            out = step_controller(cfg, obs, state)
            if out.inactive:
                break
            a1 = rotvec_to_matrix(out.action * out.primary_axis * dt) @ a1
            ang = angle_between(a1, a2)
            assert ang <= prev + 1e-12
            prev = ang
    _announce(6, "PosWaypoint[0] output-identical to PosAlign on 1000 states; "
                 "AxisAlign angle monotone under kr*dt <= 1")


MALFORMED_PROGRAMS = [
    "skil s { }",
    "skill { }",
    "skill s uses r: robot }",
    "skill s {\n  uses r robot\n}",
    "skill s {\n  uses r:\n}",
    "skill s {\n  uses r: robot\n  phase budget=1 { ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget { ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget= { ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=-2 { ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=1.5 { ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 ForceAlign(r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { ForceAlign }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(foo, r.x) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(r.a r.b) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(r.a, r.b }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(r.a, r.b, theta=[1, 2) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(r.a, r.b, theta=) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { PosAlign(r.a, r.b, zeta=3) }\n}",
    "skill s {\n  uses r: robot\n  phase p budget=5 { ForceAlign(r.x) }\n} trailing",
]


def test_criterion_7_dsl_robustness():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        ast = random_skill_ast(rng)
        assert parse_skill(format_skill(ast)) == ast

    skill = parse_skill(SCRAPE_ALIGN_LISTING)
    (phase,) = skill.phases
    assert [c.kind for c in phase.rotational] == ["AxisAlign", "AxisAlign"]
    assert [c.kind for c in phase.translational] == ["PosAlign"]
    assert phase.rotational[0].theta == (0.0, 0.0, 45.0)

    assert len(MALFORMED_PROGRAMS) == 20
    for text in MALFORMED_PROGRAMS:
        with pytest.raises(SkillSyntaxError) as err:
            parse_skill(text)
        assert isinstance(err.value.line, int) and err.value.line >= 1
        assert isinstance(err.value.col, int) and err.value.col >= 1
    _announce(7, "1000 program round-trips, canonical 3-controller listing, "
                 "20 malformed programs rejected with line/col")


def test_criterion_8_determinism_and_replay(tmp_path):
    bundle_dir = tmp_path / "bundle"
    assert cli_main(["gen", "--task", "scrape", "--out", str(bundle_dir)]) == 0

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["run", "--skill", str(bundle_dir / "scrape.skill"),
                         "--scene", str(bundle_dir / "scene.json"),
                         "--seed", "123", "--out", str(out)]) == 0
        runs.append(out)
    assert sha(runs[0] / "log.jsonl") == sha(runs[1] / "log.jsonl")
    assert sha(runs[0] / "result.json") == sha(runs[1] / "result.json")
    assert sha(runs[0] / "trajectory.csv") == sha(runs[1] / "trajectory.csv")

    replayed = 0
    for src in (bundle_dir, runs[0]):
        manifest_path = src / "manifest.json"
        out = tmp_path / f"replay{replayed}"
        assert cli_main(["replay", "--manifest", str(manifest_path),
                         "--out", str(out)]) == 0
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for name, digest in manifest["outputs"].items():
            assert sha(out / name) == digest, f"{name} differs under replay"
        replayed += 1

    val_out = tmp_path / "val"
    assert cli_main(["validate", "--trials", "2", "--mode", "hard",
                     "--out", str(val_out)]) == 0
    out = tmp_path / "val_replay"
    assert cli_main(["replay", "--manifest", str(val_out / "manifest.json"),
                     "--out", str(out)]) == 0
    assert sha(out / "stats.json") == sha(val_out / "stats.json")
    _announce(8, f"seeded rerun bitwise-identical; {replayed + 1} manifests "
                 "replayed byte-for-byte")
