"""Bit-exactness of the control tick's fast paths.

cross3, completion_matrix and the per-state memo of AxisAlign targets
and PosWaypoint completion frames exist only for speed; each must give
the same bits as the generic computation it replaces, on random unit
vectors, near the |z . X| = 0.9 seed switch, on the world axes and on
antiparallel pairs.
"""

import math

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
    Frame,
    completion_matrix,
    cross3,
    orthonormal_completion,
    rotation_between_axes,
)
from taskaxes.grounding import GroundedParams

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
