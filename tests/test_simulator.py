import json
import sys

import numpy as np
import pytest

from taskaxes.controllers import ControllerConfig, ControllerOutput
from taskaxes.errors import ConfigError, EmptyScene, GraspTooFar
from taskaxes.geometry import Frame, rotvec_to_matrix
from taskaxes.scenes import build_task, sample_box, scene_from_json, snap_to_cloud
from taskaxes.simulator import (
    ContactSurface,
    FeatureRenderConfig,
    GroundedAnchors,
    Scene,
    SceneObject,
    SimLog,
    SimState,
    SkillRunner,
    grasp,
    render_synthetic_features,
    step_sim,
)
from taskaxes.skill import SkillPhase, Twist, parse_skill, project_axes

from taskaxes.geometry import CameraIntrinsics

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240)


def slab_scene(seed=3):
    cloud = sample_box(0.08, 0.05, 0.01, 0.0008)
    keypoints = {"grip": snap_to_cloud((0.0, 0.0, -0.005), cloud),
                 "tip": snap_to_cloud((0.035, 0.0, -0.005), cloud)}
    obj = SceneObject(name="slab", pose=Frame.from_rpy_deg((0, 0, 0.5), (0, 0, 0)),
                      cloud=cloud, truth_keypoints=keypoints,
                      graspable=True, contact_probe="tip")
    plane = SceneObject(
        name="table", pose=Frame.from_rpy_deg((0, 0, 0.6), (0, 0, 0)),
        cloud=np.zeros((0, 3)),
        surfaces=[ContactSurface(point=np.zeros(3), normal=np.array([0, 0, -1.0]),
                                 stiffness=5000.0)])
    return Scene(objects=[obj, plane], intrinsics=INTR,
                 features=FeatureRenderConfig(dim=8, length_scale=0.015, seed=seed))


# ---------------------------------------------------------------- rendering


def test_render_is_deterministic():
    scene = slab_scene()
    g1, d1 = render_synthetic_features(scene, noise_tag=0)
    g2, d2 = render_synthetic_features(scene, noise_tag=0)
    assert np.array_equal(g1.data, g2.data)
    assert np.array_equal(d1.depth, d2.depth, equal_nan=True)


def test_render_same_local_point_same_descriptor_across_poses():
    scene = slab_scene()
    ga, _ = render_synthetic_features(scene, noise_tag=0)
    scene.objects[0].pose = Frame.from_rpy_deg((0.01, -0.005, 0.52), (0, 0, 30))
    gb, db = render_synthetic_features(scene, noise_tag=0)
    # descriptors depend only on (object, local point): the grip keypoint's
    # descriptor must reappear somewhere in the second render with cosine 1
    from taskaxes.features import cosine_map, hard_match
    ref_scene = slab_scene()
    from taskaxes.geometry import project_point
    u, v, _ = project_point(ref_scene.objects[0].world_keypoint("grip"), INTR)
    desc = ga.data[int(round(v)), int(round(u))].astype(np.float64)
    sim = cosine_map(desc, gb, db)
    m = hard_match(sim)
    assert m.peak_score > 0.999999


def test_render_empty_scene_raises():
    scene = Scene(objects=[], intrinsics=INTR)
    with pytest.raises(EmptyScene):
        render_synthetic_features(scene)


def test_render_noise_changes_with_tag_but_is_seeded():
    scene = slab_scene()
    scene.features.noise_sigma = 0.05
    a1, _ = render_synthetic_features(scene, noise_tag=1)
    a2, _ = render_synthetic_features(scene, noise_tag=1)
    b, _ = render_synthetic_features(scene, noise_tag=2)
    assert np.array_equal(a1.data, a2.data)
    assert not np.array_equal(a1.data, b.data)


# ---------------------------------------------------------------- stepping


def test_zero_twist_is_fixed_point():
    scene = slab_scene()
    state = SimState(ee=Frame.from_rpy_deg((0.1, 0.0, 0.3), (0, 10, 20)))
    nxt = step_sim(state, Twist(np.zeros(3), np.zeros(3)), scene)
    assert np.array_equal(nxt.ee.origin, state.ee.origin)
    assert np.array_equal(nxt.ee.rotation, state.ee.rotation)
    assert np.array_equal(nxt.contact_force, state.contact_force)
    assert nxt.t == state.t + 1


def test_euler_step_translation():
    scene = slab_scene()
    state = SimState(ee=Frame(np.zeros(3), np.eye(3)), dt=0.005)
    nxt = step_sim(state, Twist(v=np.array([0.0, 0.0, -0.1]), w=np.zeros(3)), scene)
    assert abs(nxt.ee.origin[2] + 0.0005) < 1e-15  # 0.5 mm down


def test_penalty_force_hand_check():
    scene = slab_scene()
    # probe 1 mm past the table plane at z=0.6 (its normal points -z)
    state = SimState(ee=Frame.from_rpy_deg((0.0, 0.0, 0.601), (0, 0, 0)))
    nxt = step_sim(state, Twist(np.zeros(3), np.zeros(3)), scene)
    np.testing.assert_allclose(nxt.contact_force, [0.0, 0.0, -5.0], atol=1e-9)


def test_contact_force_is_continuous_per_tick():
    scene = slab_scene()
    state = SimState(ee=Frame.from_rpy_deg((0.0, 0.0, 0.590), (0, 0, 0)), dt=0.005)
    twist = Twist(v=np.array([0.0, 0.0, 0.05]), w=np.zeros(3))
    prev = np.linalg.norm(state.contact_force)
    k_c, v = 5000.0, 0.05
    for _ in range(80):
        state = step_sim(state, twist, scene)
        f = np.linalg.norm(state.contact_force)
        assert abs(f - prev) <= k_c * v * state.dt + 1e-9
        prev = f


def test_rotation_integration_composes_world_frame():
    scene = slab_scene()
    state = SimState(ee=Frame(np.zeros(3), np.eye(3)), dt=0.5)
    w = np.array([0.0, 0.0, 1.0])
    nxt = step_sim(state, Twist(v=np.zeros(3), w=w), scene)
    np.testing.assert_allclose(nxt.ee.rotation, rotvec_to_matrix(w * 0.5), atol=1e-12)


# ---------------------------------------------------------------- grasping


def test_grasp_attaches_with_relative_pose():
    scene = slab_scene()
    target = scene.objects[0].world_keypoint("grip")
    state = SimState(ee=Frame(target, np.eye(3)))
    attached = grasp(state, scene, "slab", "grip")
    name, grip_tf = attached.attached
    assert name == "slab"
    expected = state.ee.inverse().compose(scene.objects[0].pose)
    np.testing.assert_allclose(grip_tf.origin, expected.origin, atol=1e-12)
    np.testing.assert_allclose(grip_tf.rotation, expected.rotation, atol=1e-12)
    # probe moved to the declared contact keypoint
    np.testing.assert_allclose(attached.ee.apply(attached.probe_local),
                               scene.objects[0].world_keypoint("tip"), atol=1e-12)


def test_grasp_too_far():
    scene = slab_scene()
    state = SimState(ee=Frame.from_rpy_deg((0.1, 0.0, 0.0), (0, 0, 0)))
    with pytest.raises(GraspTooFar) as err:
        grasp(state, scene, "slab", "grip")
    assert err.value.distance > 0.005


def test_grasp_requires_graspable_and_known_keypoint():
    scene = slab_scene()
    state = SimState(ee=Frame(scene.objects[0].world_keypoint("grip"), np.eye(3)))
    with pytest.raises(ConfigError):
        grasp(state, scene, "table", "grip")
    with pytest.raises(ConfigError):
        grasp(state, scene, "slab", "nope")


def test_rigid_attachment_follows_100_random_twists():
    rng = np.random.default_rng(6)
    scene = slab_scene()
    target = scene.objects[0].world_keypoint("grip")
    state = grasp(SimState(ee=Frame(target, np.eye(3))), scene, "slab", "grip")
    grip_tf = state.attached[1]
    local_tip = scene.objects[0].truth_keypoints["tip"]
    for _ in range(100):
        twist = Twist(v=rng.normal(size=3) * 0.2, w=rng.normal(size=3) * 1.0)
        state = step_sim(state, twist, scene)
        pose = state.ee.compose(state.attached[1])
        rel = state.ee.inverse().compose(pose)
        assert np.abs(rel.origin - grip_tf.origin).max() < 1e-9
        assert np.abs(rel.rotation - grip_tf.rotation).max() < 1e-9
        # attached keypoint expressed through the grip equals the pose map
        np.testing.assert_allclose(pose.apply(local_tip),
                                   state.ee.apply(grip_tf.apply(local_tip)),
                                   atol=1e-12)


# ---------------------------------------------------------------- config


def test_stability_check_rejects_large_gain():
    bundle = build_task("scrape")
    scene, _ = scene_from_json(bundle["scene"])
    skill = parse_skill(bundle["skill_text"].replace("kp=6.0", "kp=900.0"))
    with pytest.raises(ConfigError):
        SkillRunner(skill, scene, bundle["specs"])


def test_missing_spec_rejected():
    bundle = build_task("scrape")
    scene, _ = scene_from_json(bundle["scene"])
    skill = parse_skill(bundle["skill_text"])
    with pytest.raises(ConfigError):
        SkillRunner(skill, scene, {"spatula": bundle["specs"]["spatula"]})


# ---------------------------------------------------------------- logging


def test_simlog_jsonl_roundtrip(tmp_path):
    cfg = ControllerConfig(kind="ForceAlign", bindings=("w.down",), theta=1.0)
    phase = SkillPhase(name="press", translational=(cfg,), rotational=(), step_budget=2)
    state = SimState(ee=Frame.from_rpy_deg((0, 0, 0.5), (0, 0, 30)))
    log = SimLog()
    log.begin_phase(phase, 0, state.ee, GroundedAnchors().layout())
    down = np.array([0.0, 0.0, 1.0])
    for u in (0.25, -1.5e-7):
        log.record(state, [], [ControllerOutput(down, u, False, False)], [(down, u)],
                   Twist(down * u, np.zeros(3)))
    path = tmp_path / "log.jsonl"
    log.write(path, tmp_path / "trajectory.csv")
    assert [json.loads(line) for line in path.read_text().splitlines()] == log.records
    assert path.read_text().count("\n") == 2


def test_run_twice_identical_logs(tmp_path):
    bundle = build_task("pour")
    skill = parse_skill(bundle["skill_text"])

    def one_run():
        scene, _ = scene_from_json(bundle["scene"])
        ref_scene, _ = scene_from_json(bundle["ref_scene"])
        runner = SkillRunner(skill, scene, bundle["specs"], ref_scene=ref_scene)
        return runner.run()

    r1, r2 = one_run(), one_run()
    assert r1.success and r2.success
    for name, result in (("1", r1), ("2", r2)):
        result.log.write(tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv")
    assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()


def test_force_align_steady_state_against_static_plane():
    # admittance servo against the table spring: within 5% of the setpoint
    # after 2 s of settling whenever kf * k_c * dt < 1
    from taskaxes.controllers import (ControllerConfig, Gains as CGains,
                                      Limits as CLimits, ObservationBundle)
    from taskaxes.grounding import GroundedParams
    from taskaxes.skill import SkillPhase, run_phase

    scene = slab_scene()
    theta = 4.0
    kf = 0.03  # kf * 5000 * 0.005 = 0.75 < 1
    cfg = ControllerConfig(kind="ForceAlign", bindings=("w.down",), theta=theta,
                           gains=CGains(kf=kf), limits=CLimits(v_max=0.25))

    class PressEnv:
        def __init__(self):
            self.state = SimState(ee=Frame.from_rpy_deg((0, 0, 0.55), (0, 0, 0)),
                                  dt=0.005)
            self.forces = []

        def observe(self):
            grounded = GroundedParams(axes={"w.down": np.array([0.0, 0.0, 1.0])})
            return ObservationBundle(grounded=grounded,
                                     measured_force=-self.state.contact_force)

        def apply(self, twist):
            self.state = step_sim(self.state, twist, scene)
            # applied force along the servo axis = -(reaction) . +z
            self.forces.append(float(-self.state.contact_force[2]))

    env = PressEnv()
    budget = 800  # 4 s
    phase = SkillPhase(name="press", translational=(cfg,), rotational=(),
                       step_budget=budget)
    result = run_phase(phase, env, CLimits())
    assert result.outcome == "done" and result.ticks == budget
    settled = np.array(env.forces[int(2.0 / 0.005):])
    assert np.all(np.abs(settled - theta) / theta < 0.05)


def test_ee_start_default_is_the_same_in_code_and_json():
    loaded, _ = scene_from_json({"intrinsics": {"fx": 600.0, "fy": 600.0, "cx": 320.0,
                                                "cy": 240.0, "width": 640, "height": 480}})
    built = Scene(objects=[], intrinsics=INTR)
    assert np.array_equal(loaded.ee_start.origin, built.ee_start.origin)
    assert np.array_equal(loaded.ee_start.rotation, built.ee_start.rotation)
    assert np.array_equal(built.ee_start.origin, [0.0, 0.0, 0.25])


def test_tick_makes_no_asarray_conversions_of_its_own(monkeypatch):
    """The tick holds float64 arrays and converts none of them again: over
    a run with a held role (the grasped spatula) and a world-fixed one (the
    pan), no np.asarray call comes from the controllers, the skill or the
    simulator, bar the boundary conversion of the public project_axes. The
    last phase gives AxisAlign a held target and PosWaypoint a held frame."""
    bundle = build_task("scrape")
    text = bundle["skill_text"].rstrip()[:-1] + (
        "  phase held budget=20 {\n"
        "    AxisAlign(gripper.x, spatula.tip_dir);\n"
        "    PosWaypoint(spatula.tip_pos, pan.scrape_pos, spatula.tip_dir, "
        "theta=[[0, 0, 0], [0, 0, 0.01]])\n"
        "  }\n}\n")
    scene, _ = scene_from_json(bundle["scene"])
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    runner = SkillRunner(parse_skill(text), scene, bundle["specs"], ref_scene=ref_scene)
    runner.ground_all()
    asarray, callers = np.asarray, []

    def counting(*args, **kwargs):
        caller = sys._getframe(1)
        callers.append((caller.f_globals["__name__"], caller.f_code))
        return asarray(*args, **kwargs)

    monkeypatch.setattr(np, "asarray", counting)
    result = runner.run()
    monkeypatch.undo()
    assert [name for name, _ in result.phases] == ["reach", "align", "scrape", "held"]
    assert result.log.records[-1]["phase"] == "held"
    boundary = project_axes.__code__
    assert any(code is boundary for _, code in callers)   # the wrapper sees the tick
    tick_modules = {"taskaxes.controllers", "taskaxes.skill", "taskaxes.simulator"}
    assert [(module, code.co_name) for module, code in callers
            if module in tick_modules and code is not boundary] == []
