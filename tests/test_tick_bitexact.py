"""Bit-exactness of the control tick's fast paths.

cross3, completion_matrix, norm3, the world-fixed contact planes, the
read-only identity of rotvec_to_matrix and the per-state memo of
AxisAlign targets and PosWaypoint completion frames exist only for
speed; each must give the same bits as the generic computation it
replaces, on random unit vectors, near the |z . X| = 0.9 seed switch, on
the world axes and on antiparallel pairs, and norm3 also on signed
zeros, subnormals, huge and tiny magnitudes, infinities and NaN.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.controllers import (
    AXIS_ALIGN,
    POS_WAYPOINT,
    ControllerConfig,
    ControllerState,
    ObservationBundle,
    axis_align_target,
    step_controller,
)
from taskaxes.geometry import (
    CameraIntrinsics,
    Frame,
    completion_matrix,
    cross3,
    norm3,
    orthonormal_completion,
    rotation_between_axes,
    rotvec_to_matrix,
)
from taskaxes.grounding import GroundedParams
from taskaxes.simulator import (
    ContactSurface,
    Scene,
    SceneObject,
    SimState,
    _contact_force,
    step_sim,
)
from taskaxes.skill import Twist

_coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _random_unit(draw):
    v = np.array([draw(_coord), draw(_coord), draw(_coord)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v, n = np.array([0.0, 0.0, 1.0]), 1.0
    return v / n


@st.composite
def _near_seed_switch(draw):
    # |z . X| within a few ulp-scale steps of the 0.9 threshold
    x = draw(st.sampled_from([0.9, -0.9])) + draw(st.floats(-1e-9, 1e-9))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    r = math.sqrt(1.0 - x * x)
    return np.array([x, r * math.cos(phi), r * math.sin(phi)])


@st.composite
def _world_axis(draw):
    v = np.zeros(3)
    v[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0]))
    return v


unit_vectors = st.one_of(_random_unit(), _near_seed_switch(), _world_axis())


@st.composite
def axis_pairs(draw):
    a = draw(unit_vectors)
    b = draw(st.one_of(unit_vectors, st.just(-a), st.just(a.copy())))
    return a, b


def _reference_completion(z):
    """The completion as written before the fast path: np.cross, then a
    validated Frame."""
    z = np.asarray(z, dtype=np.float64)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(float(z @ seed)) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    x = seed - float(seed @ z) * z
    x = x / np.linalg.norm(x)
    return Frame(np.zeros(3), np.column_stack([x, np.cross(z, x), z])).rotation


def _reference_rotation_between(a, b):
    c = float(np.clip(a @ b, -1.0, 1.0))
    w = np.cross(a, b)
    s = float(np.linalg.norm(w))
    angle = math.atan2(s, c)
    if angle < 1e-12:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        return angle * _reference_completion(a)[:, 0]
    return (angle / s) * w


@settings(max_examples=300, deadline=None)
@given(axis_pairs())
def test_cross3_equals_np_cross(pair):
    a, b = pair
    assert np.array_equal(cross3(a, b), np.cross(a, b))


@settings(max_examples=300, deadline=None)
@given(unit_vectors)
def test_completion_matrix_equals_validated_frame(z):
    m = completion_matrix(z)
    assert np.array_equal(m, orthonormal_completion(z).rotation)
    assert np.array_equal(m, _reference_completion(z))


@settings(max_examples=300, deadline=None)
@given(axis_pairs())
def test_rotation_between_axes_matches_reference(pair):
    a, b = pair
    assert np.array_equal(rotation_between_axes(a, b), _reference_rotation_between(a, b))


def _obs(keypoints, axes):
    return ObservationBundle(grounded=GroundedParams(keypoints=keypoints, axes=axes),
                             measured_force=np.zeros(3))


def _same_output(x, y):
    return (np.array_equal(x.primary_axis, y.primary_axis) and x.action == y.action
            and x.done == y.done and x.inactive == y.inactive)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, unit_vectors, unit_vectors,
       st.tuples(*[st.floats(-180.0, 180.0)] * 3))
def test_axis_align_memo_is_bitwise_uncached(a1, a2, a2_moved, theta):
    cfg = ControllerConfig(kind=AXIS_ALIGN, bindings=("r.a1", "o.a2"), theta=theta)
    state = ControllerState()
    for tick in range(6):
        target_axis = a2 if tick < 4 else a2_moved  # the bound axis moves once
        obs = _obs({}, {"r.a1": a1, "o.a2": target_axis})
        uncached = ControllerState(state.waypoint_index, state.last_axis)
        out, state = step_controller(cfg, obs, state)
        out_uncached, _ = step_controller(cfg, obs, uncached)
        assert _same_output(out, out_uncached)
        assert np.array_equal(state.memo, axis_align_target(target_axis, cfg.theta))
        a1 = a1 + 0.1 * out.action * out.primary_axis
        a1 = a1 / np.linalg.norm(a1)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, unit_vectors,
       st.lists(st.tuples(*[st.floats(-0.1, 0.1)] * 3), min_size=1, max_size=3))
def test_pos_waypoint_memo_is_bitwise_uncached(a2, a2_moved, waypoints):
    cfg = ControllerConfig(kind=POS_WAYPOINT, bindings=("r.g1", "o.g2", "o.a2"),
                           theta=tuple(waypoints))
    g1, g2 = np.zeros(3), np.array([0.01, -0.02, 0.03])
    state = ControllerState()
    for tick in range(6):
        axis = a2 if tick < 4 else a2_moved
        obs = _obs({"r.g1": g1, "o.g2": g2}, {"o.a2": axis})
        uncached = ControllerState(state.waypoint_index, state.last_axis)
        out, state = step_controller(cfg, obs, state)
        out_uncached, state_uncached = step_controller(cfg, obs, uncached)
        assert _same_output(out, out_uncached)
        assert state.waypoint_index == state_uncached.waypoint_index
        assert np.array_equal(state.memo, orthonormal_completion(axis).rotation)
        g1 = g1 + 0.05 * out.action * out.primary_axis


# ------------------------------------------------------------- norm3

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
            1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
_any_float = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_subnormal=True),
                       st.floats(-10.0, 10.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(_any_float, min_size=0, max_size=24))
def test_norm3_is_bitwise_np_linalg_norm(values):
    v = np.array(values, dtype=np.float64)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        got, want = norm3(v), np.linalg.norm(v)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --------------------------------------------------------- rotvec_to_matrix

def _reference_skew(v):
    x, y, z = np.asarray(v, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _reference_rotvec_to_matrix(w):
    """Rodrigues as written before the fast path: np.linalg.norm and a
    fresh np.eye(3) on every call."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3) + _reference_skew(w)
    k = w / theta
    kx = _reference_skew(k)
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


_rate = st.one_of(st.floats(-0.02, 0.02), st.floats(-4.0, 4.0),
                  st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-12, 5e-324]))


@settings(max_examples=500, deadline=None)
@given(st.tuples(_rate, _rate, _rate))
def test_rotvec_to_matrix_matches_reference(w):
    rot = rotvec_to_matrix(np.array(w))
    assert rot.tobytes() == _reference_rotvec_to_matrix(np.array(w)).tobytes()
    rot += 1.0   # a fresh, writable array: the shared identity stays intact
    assert np.array_equal(rotvec_to_matrix(np.zeros(3)), np.eye(3))


# ----------------------------------------------------- world-fixed contact

_INTR = CameraIntrinsics(fx=300.0, fy=300.0, cx=80.0, cy=60.0, width=160, height=120)
_NAMES = ("a", "b", "c")
_angle = st.floats(-180.0, 180.0)
_offset = st.floats(-0.2, 0.2)


@st.composite
def contact_scenes(draw):
    """A scene of three objects at random poses, each with zero to three
    random contact surfaces."""
    objects = []
    for name in _NAMES:
        surfaces = [ContactSurface(np.array(draw(st.tuples(_offset, _offset, _offset))),
                                   draw(unit_vectors),
                                   draw(st.floats(10.0, 20000.0)))
                    for _ in range(draw(st.integers(0, 3)))]
        pose = Frame.from_rpy_deg(draw(st.tuples(_offset, _offset, _offset)),
                                  draw(st.tuples(_angle, _angle, _angle)))
        objects.append(SceneObject(name=name, pose=pose, cloud=np.zeros((0, 3)),
                                   surfaces=surfaces))
    return Scene(objects=objects, intrinsics=_INTR)


def _reference_contact_force(scene, attached_name, probe_world):
    """The contact force as written before the planes were kept: each
    surface transformed by its object's pose on every call."""
    force = np.zeros(3)
    for obj in scene.objects:
        if obj.name == attached_name:
            continue
        for surf in obj.surfaces:
            point = obj.pose.rotation @ np.asarray(surf.point, dtype=np.float64) \
                + obj.pose.origin
            normal = obj.pose.rotation @ np.asarray(surf.normal, dtype=np.float64)
            depth = float((point - probe_world) @ normal)
            if depth > 0:
                force = force + surf.stiffness * depth * normal
    return force


@settings(max_examples=200, deadline=None)
@given(contact_scenes(),
       st.lists(st.tuples(st.sampled_from((None,) + _NAMES),
                          st.tuples(_offset, _offset, _offset)), min_size=1, max_size=12))
def test_contact_force_matches_per_tick_transform(scene, probes):
    # one scene serves every probe, so the kept planes are reused across
    # attachments in random order
    ee = Frame.identity()
    for attached_name, probe in probes:
        attached = None if attached_name is None else (attached_name, Frame.identity())
        state = SimState(ee=ee, attached=attached)
        probe = np.array(probe)
        got = _contact_force(scene, state, probe)
        assert got.tobytes() == _reference_contact_force(scene, attached_name, probe).tobytes()


def _reference_step_sim(state, twist, scene):
    """step_sim as written before the fast paths: the reference Rodrigues,
    the per-tick contact transform and dataclasses.replace."""
    rot = _reference_rotvec_to_matrix(np.asarray(twist.w, dtype=np.float64) * state.dt)
    origin = state.ee.origin + np.asarray(twist.v, dtype=np.float64) * state.dt
    ee = Frame._trusted(origin, rot @ state.ee.rotation)
    probe_world = ee.rotation @ state.probe_local + ee.origin
    attached_name = state.attached[0] if state.attached else None
    force = _reference_contact_force(scene, attached_name, probe_world)
    return dataclasses.replace(state, ee=ee, contact_force=force, t=state.t + 1)


@settings(max_examples=100, deadline=None)
@given(contact_scenes(), st.sampled_from((None,) + _NAMES),
       st.sampled_from([0.005, 0.002, 0.01]),
       st.lists(st.tuples(st.tuples(*[st.floats(-0.25, 0.25)] * 3),
                          st.tuples(*[st.floats(-1.5, 1.5)] * 3)), min_size=1, max_size=8))
def test_step_sim_matches_reference(scene, attached_name, dt, twists):
    attached = None if attached_name is None else (attached_name, Frame.identity())
    state = ref = SimState(ee=Frame.identity(), attached=attached,
                           probe_local=np.array([0.0, 0.0, 0.05]), dt=dt)
    for v, w in twists:
        twist = Twist(v=np.array(v), w=np.array(w))
        state, ref = step_sim(state, twist, scene), _reference_step_sim(ref, twist, scene)
        assert state.ee.origin.tobytes() == ref.ee.origin.tobytes()
        assert state.ee.rotation.tobytes() == ref.ee.rotation.tobytes()
        assert state.contact_force.tobytes() == ref.contact_force.tobytes()
        assert (state.t, state.dt, state.attached) == (ref.t, ref.dt, ref.attached)
        assert state.probe_local is ref.probe_local
