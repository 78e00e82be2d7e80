import dataclasses
import math

import numpy as np
import pytest

from taskaxes.controllers import (
    AXIS_ALIGN,
    FORCE_ALIGN,
    POS_ALIGN,
    POS_WAYPOINT,
    ControllerConfig,
    ControllerState,
    Gains,
    Limits,
    ObservationBundle,
    axis_align_target,
    done_capable,
    step_controller,
)
from taskaxes.errors import ConfigError, EmptyWaypointList
from taskaxes.geometry import completion_matrix, rotvec_to_matrix
from taskaxes.grounding import GroundedParams


def obs_with(keypoints=None, axes=None, force=(0.0, 0.0, 0.0), t=0, dt=0.005):
    grounded = GroundedParams(keypoints={k: np.asarray(v, float)
                                         for k, v in (keypoints or {}).items()},
                              axes={k: np.asarray(v, float)
                                    for k, v in (axes or {}).items()})
    return ObservationBundle(grounded=grounded, measured_force=np.asarray(force, float))


def unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- PosAlign


def test_pos_align_at_target_is_done_and_inactive():
    cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"))
    obs = obs_with({"r.g1": (0.1, 0.2, 0.3), "o.g2": (0.1, 0.2, 0.3)})
    out = step_controller(cfg, obs, ControllerState())
    assert out.done and out.inactive and out.action == 0.0


def test_pos_align_hand_law():
    cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"),
                           gains=Gains(kp=1.0), limits=Limits(v_max=1.0))
    obs = obs_with({"r.g1": (0.0, 0.0, 0.0), "o.g2": (0.0, 0.0, 0.1)})
    out = step_controller(cfg, obs, ControllerState())
    np.testing.assert_allclose(out.primary_axis, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(out.action - 0.1) < 1e-12
    assert not out.done and not out.inactive


def test_pos_align_saturates_at_v_max():
    cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"),
                           gains=Gains(kp=10.0), limits=Limits(v_max=0.2))
    obs = obs_with({"r.g1": (0.0, 0.0, 0.0), "o.g2": (1.0, 0.0, 0.0)})
    out = step_controller(cfg, obs, ControllerState())
    assert out.action == 0.2


def test_pos_align_theta_offset():
    cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"),
                           theta=(0.0, 0.0, -0.05))
    obs = obs_with({"r.g1": (0.0, 0.0, 0.45), "o.g2": (0.0, 0.0, 0.5)})
    out = step_controller(cfg, obs, ControllerState())
    assert out.done  # g2 + theta equals g1


def test_pos_align_error_norm_non_increasing_kinematic():
    rng = np.random.default_rng(2)
    for _ in range(30):
        kp = rng.uniform(0.5, 4.0)
        dt = rng.uniform(0.001, 1.0 / kp)  # kp*dt <= 1
        cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"),
                               gains=Gains(kp=kp), limits=Limits(v_max=5.0))
        g1 = rng.normal(size=3)
        g2 = rng.normal(size=3)
        state = ControllerState()
        prev = np.linalg.norm(g2 - g1)
        for _ in range(200):
            obs = obs_with({"r.g1": g1, "o.g2": g2}, dt=dt)
            out = step_controller(cfg, obs, state)
            g1 = g1 + out.action * out.primary_axis * dt
            err = np.linalg.norm(g2 - g1)
            assert err <= prev + 1e-12
            prev = err


# ---------------------------------------------------------------- PosWaypoint


def test_pos_waypoint_single_zero_offset_equals_pos_align():
    rng = np.random.default_rng(8)
    wp_cfg = ControllerConfig(kind=POS_WAYPOINT, bindings=("r.g1", "o.g2", "o.a2"),
                              theta=((0.0, 0.0, 0.0),))
    pa_cfg = ControllerConfig(kind=POS_ALIGN, bindings=("r.g1", "o.g2"))
    for _ in range(200):
        obs = obs_with({"r.g1": rng.normal(size=3), "o.g2": rng.normal(size=3)},
                       axes={"o.a2": unit(rng)})
        out_wp = step_controller(wp_cfg, obs, ControllerState())
        out_pa = step_controller(pa_cfg, obs, ControllerState())
        assert np.array_equal(out_wp.primary_axis, out_pa.primary_axis)
        assert out_wp.action == out_pa.action
        assert out_wp.done == out_pa.done and out_wp.inactive == out_pa.inactive


def test_pos_waypoint_frame_mapping():
    # offsets are expressed in the completion frame of a2 (third column = a2)
    a2 = np.array([0.0, 0.0, 1.0])
    cfg = ControllerConfig(kind=POS_WAYPOINT, bindings=("r.g1", "o.g2", "o.a2"),
                           theta=((0.0, 0.0, 0.1),), gains=Gains(kp=1.0))
    obs = obs_with({"r.g1": (0.0, 0.0, 0.0), "o.g2": (0.0, 0.0, 0.0)},
                   axes={"o.a2": a2})
    out = step_controller(cfg, obs, ControllerState())
    np.testing.assert_allclose(out.primary_axis, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(out.action - 0.1) < 1e-12


def test_pos_waypoint_advances_and_finishes():
    a2 = np.array([1.0, 0.0, 0.0])
    frame = completion_matrix(a2)
    offsets = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.02), (0.0, 0.0, 0.04))
    cfg = ControllerConfig(kind=POS_WAYPOINT, bindings=("r.g1", "o.g2", "o.a2"),
                           theta=offsets, gains=Gains(kp=8.0),
                           limits=Limits(v_max=0.5))
    g1 = np.zeros(3)
    g2 = np.zeros(3)
    state = ControllerState()
    visited = []
    for t in range(2000):
        obs = obs_with({"r.g1": g1, "o.g2": g2}, axes={"o.a2": a2}, dt=0.005)
        out = step_controller(cfg, obs, state)
        visited.append(state.waypoint_index)
        if out.done:
            break
        g1 = g1 + out.action * out.primary_axis * 0.005
    assert out.done
    assert visited == sorted(visited)  # indices only advance
    target_last = g2 + frame @ np.asarray(offsets[-1])
    assert np.linalg.norm(g1 - target_last) <= cfg.done_tol


def test_pos_waypoint_empty_list_rejected():
    with pytest.raises(EmptyWaypointList):
        ControllerConfig(kind=POS_WAYPOINT, bindings=("a.b", "c.d", "e.f"), theta=())


# ---------------------------------------------------------------- AxisAlign


def test_axis_align_done_when_aligned():
    a = np.array([0.0, 0.0, 1.0])
    cfg = ControllerConfig(kind=AXIS_ALIGN, bindings=("r.a1", "o.a2"))
    out = step_controller(cfg, obs_with(axes={"r.a1": a, "o.a2": a}),
                          ControllerState())
    assert out.done and out.inactive


def test_axis_align_hand_quarter_turn():
    cfg = ControllerConfig(kind=AXIS_ALIGN, bindings=("r.a1", "o.a2"),
                           gains=Gains(kr=1.0), limits=Limits(w_max=10.0))
    obs = obs_with(axes={"r.a1": (1.0, 0.0, 0.0), "o.a2": (0.0, 1.0, 0.0)})
    out = step_controller(cfg, obs, ControllerState())
    np.testing.assert_allclose(out.primary_axis, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(out.action - math.pi / 2) < 1e-12


def test_axis_align_caps_at_w_max():
    cfg = ControllerConfig(kind=AXIS_ALIGN, bindings=("r.a1", "o.a2"),
                           gains=Gains(kr=1.0), limits=Limits(w_max=1.5))
    obs = obs_with(axes={"r.a1": (1.0, 0.0, 0.0), "o.a2": (0.0, 1.0, 0.0)})
    out = step_controller(cfg, obs, ControllerState())
    assert out.action == 1.5


def test_axis_align_target_euler_offset_tilts_by_45():
    a2 = np.array([0.0, 0.0, -1.0])
    target = axis_align_target(a2, (0.0, 0.0, 45.0))
    c = math.cos(math.radians(45.0))
    np.testing.assert_allclose(target, [math.sin(math.radians(45.0)), 0.0, -c],
                               atol=1e-12)
    assert abs(math.degrees(math.acos(np.clip(target @ a2, -1, 1))) - 45.0) < 1e-9
    # 180 degrees flips the axis
    np.testing.assert_allclose(axis_align_target(a2, (0.0, 0.0, 180.0)), -a2,
                               atol=1e-12)
    # zero offset returns the axis itself
    np.testing.assert_allclose(axis_align_target(a2, (0.0, 0.0, 0.0)), a2,
                               atol=1e-12)


def test_axis_align_angle_non_increasing_kinematic():
    rng = np.random.default_rng(12)
    for _ in range(30):
        kr = rng.uniform(0.5, 3.0)
        dt = rng.uniform(0.001, 1.0 / kr)
        cfg = ControllerConfig(kind=AXIS_ALIGN, bindings=("r.a1", "o.a2"),
                               gains=Gains(kr=kr), limits=Limits(w_max=8.0))
        a1, a2 = unit(rng), unit(rng)
        state = ControllerState()
        prev = math.acos(np.clip(a1 @ a2, -1, 1))
        for _ in range(300):
            obs = obs_with(axes={"r.a1": a1, "o.a2": a2}, dt=dt)
            out = step_controller(cfg, obs, state)
            if out.inactive:
                break
            rot = rotvec_to_matrix(out.action * out.primary_axis * dt)
            a1 = rot @ a1
            ang = math.acos(np.clip(a1 @ a2, -1, 1))
            assert ang <= prev + 1e-12
            prev = ang


# ---------------------------------------------------------------- ForceAlign


def test_force_align_at_setpoint():
    cfg = ControllerConfig(kind=FORCE_ALIGN, bindings=("r.a1",), theta=5.0,
                           gains=Gains(kf=0.01))
    obs = obs_with(axes={"r.a1": (0.0, 0.0, 1.0)}, force=(0.0, 0.0, 5.0))
    out = step_controller(cfg, obs, ControllerState())
    assert out.action == 0.0 and not out.done


def test_force_align_hand_law():
    cfg = ControllerConfig(kind=FORCE_ALIGN, bindings=("r.a1",), theta=5.0,
                           gains=Gains(kf=0.01), limits=Limits(v_max=1.0))
    obs = obs_with(axes={"r.a1": (0.0, 0.0, 1.0)}, force=(0.0, 0.0, 0.0))
    out = step_controller(cfg, obs, ControllerState())
    assert abs(out.action - 0.05) < 1e-12
    np.testing.assert_allclose(out.primary_axis, [0.0, 0.0, 1.0], atol=1e-12)


def test_force_align_clamps_and_never_done():
    cfg = ControllerConfig(kind=FORCE_ALIGN, bindings=("r.a1",), theta=1000.0,
                           gains=Gains(kf=1.0), limits=Limits(v_max=0.25))
    obs = obs_with(axes={"r.a1": (1.0, 0.0, 0.0)})
    out = step_controller(cfg, obs, ControllerState())
    assert out.action == 0.25 and not out.done
    assert not done_capable(cfg)
    assert done_capable(ControllerConfig(kind=POS_ALIGN, bindings=("a.b", "c.d")))


def test_force_align_scalar_theta_enforced():
    with pytest.raises(ConfigError):
        ControllerConfig(kind=FORCE_ALIGN, bindings=("r.a1",), theta=(1.0, 2.0, 3.0))


# ---------------------------------------------------------------- fuzzing


def test_outputs_bounded_unit_and_finite_under_fuzz():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        kind = rng.choice([POS_ALIGN, POS_WAYPOINT, AXIS_ALIGN, FORCE_ALIGN])
        gains = Gains(kp=rng.uniform(0.1, 50), kr=rng.uniform(0.1, 50),
                      kf=rng.uniform(0.001, 1.0))
        limits = Limits(v_max=rng.uniform(0.01, 2.0), w_max=rng.uniform(0.01, 4.0))
        keypoints = {"r.g1": rng.normal(size=3) * rng.uniform(0, 2),
                     "o.g2": rng.normal(size=3) * rng.uniform(0, 2)}
        axes = {"r.a1": unit(rng), "o.a2": unit(rng)}
        obs = obs_with(keypoints, axes, force=rng.normal(size=3) * 10)
        if kind == POS_ALIGN:
            cfg = ControllerConfig(kind=kind, bindings=("r.g1", "o.g2"),
                                   theta=tuple(rng.normal(size=3) * 0.1),
                                   gains=gains, limits=limits)
        elif kind == POS_WAYPOINT:
            n = rng.integers(1, 4)
            cfg = ControllerConfig(kind=kind, bindings=("r.g1", "o.g2", "o.a2"),
                                   theta=tuple(tuple(rng.normal(size=3) * 0.1)
                                               for _ in range(n)),
                                   gains=gains, limits=limits)
        elif kind == AXIS_ALIGN:
            cfg = ControllerConfig(kind=kind, bindings=("r.a1", "o.a2"),
                                   theta=tuple(rng.uniform(-180, 180, size=3)),
                                   gains=gains, limits=limits)
        else:
            cfg = ControllerConfig(kind=kind, bindings=("r.a1",),
                                   theta=float(rng.normal() * 20),
                                   gains=gains, limits=limits)
        state = ControllerState(waypoint_index=int(rng.integers(0, 3)))
        out = step_controller(cfg, obs, state)
        limit = limits.w_max if kind == AXIS_ALIGN else limits.v_max
        assert np.isfinite(out.action) and abs(out.action) <= limit + 1e-12
        assert np.all(np.isfinite(out.primary_axis))
        assert abs(np.linalg.norm(out.primary_axis) - 1.0) < 1e-9
        if out.inactive:
            assert out.action == 0.0


# ---------------------------------------------------------------- conversions


@pytest.mark.parametrize("kind, bindings, theta, done_tol", [
    (POS_ALIGN, ("r.g1", "o.g2"), (0.01, -0.02, 0.03), None),
    (POS_WAYPOINT, ("r.g1", "o.g2", "o.a2"), ((0.0, 0.0, 0.0), (0.0, 0.0, 0.04)), 0.003),
    (AXIS_ALIGN, ("r.a1", "o.a2"), (0.0, 0.0, 135.0), 0.5),
])
def test_config_conversions_leave_comparison_hashing_and_freezing_alone(
        kind, bindings, theta, done_tol):
    """offsets and tol are converted once per config; they are not fields
    of its identity, and they cannot be changed after construction."""
    cfg = ControllerConfig(kind=kind, bindings=bindings, theta=theta, done_tol=done_tol)
    as_lists = ControllerConfig(kind=kind, bindings=bindings, done_tol=done_tol,
                                theta=[list(t) if isinstance(t, tuple) else t for t in theta])
    assert cfg == as_lists and hash(cfg) == hash(as_lists)
    assert hash(cfg) == hash((kind, bindings, theta, Gains(), Limits(), cfg.done_tol))
    assert cfg != dataclasses.replace(cfg, done_tol=2 * cfg.done_tol)
    assert cfg.tol == (math.radians(cfg.done_tol) if kind == AXIS_ALIGN else cfg.done_tol)
    expected = {POS_ALIGN: (theta,), POS_WAYPOINT: theta}.get(kind, ())
    assert [o.tolist() for o in cfg.offsets] == [list(t) for t in expected]
    for offset in cfg.offsets:
        assert offset.dtype == np.float64 and offset.shape == (3,)
        with pytest.raises(ValueError):
            offset[0] = 1.0
    with pytest.raises(AttributeError):
        cfg.offsets = ()
    with pytest.raises(AttributeError):
        cfg.tol = 1.0
