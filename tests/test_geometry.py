import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.errors import ConfigError, NonPositiveDepth, OutOfBounds
from taskaxes.geometry import (
    CameraIntrinsics,
    Frame,
    angle_between,
    deproject_pixel,
    euler_xyz_to_matrix,
    completion_matrix,
    project_point,
    rotation_between_axes,
    rotvec_to_matrix,
    skew,
    unit,
)
from taskaxes.skill import project_axes

INTR = CameraIntrinsics(fx=430.0, fy=430.0, cx=320.0, cy=240.0, width=640, height=480)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_deproject_principal_point():
    p = deproject_pixel(INTR.cx, INTR.cy, 1.0, INTR)
    np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-15)


def test_deproject_unit_tangent():
    wide = CameraIntrinsics(fx=200.0, fy=200.0, cx=320.0, cy=240.0,
                            width=640, height=480)
    p = deproject_pixel(wide.cx + wide.fx, wide.cy, 2.0, wide)
    np.testing.assert_allclose(p, [2.0, 0.0, 2.0], atol=1e-12)


def test_deproject_against_matrix_inverse_oracle():
    # independent oracle: x = d * K^-1 [u, v, 1]
    u, v, depth = 100.0, 50.0, 0.45
    K = np.array([[INTR.fx, 0.0, INTR.cx], [0.0, INTR.fy, INTR.cy], [0.0, 0.0, 1.0]])
    expected = depth * (np.linalg.inv(K) @ np.array([u, v, 1.0]))
    got = deproject_pixel(u, v, depth, INTR)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # hand-applied pinhole arithmetic, frozen
    np.testing.assert_allclose(got, [-99.0 / 430.0, -85.5 / 430.0, 0.45], atol=1e-12)


def test_deproject_errors():
    with pytest.raises(NonPositiveDepth):
        deproject_pixel(10, 10, 0.0, INTR)
    with pytest.raises(NonPositiveDepth):
        deproject_pixel(10, 10, -0.5, INTR)
    with pytest.raises(OutOfBounds):
        deproject_pixel(-1, 10, 1.0, INTR)
    with pytest.raises(OutOfBounds):
        deproject_pixel(10, 480, 1.0, INTR)


def test_intrinsics_and_projection_errors():
    with pytest.raises(ConfigError, match="^principal point must lie inside the image$"):
        CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=1.5, width=4, height=3)
    for z in (0.0, -0.5):
        with pytest.raises(NonPositiveDepth, match=f"^point depth must be > 0, got {z}$"):
            project_point([0.1, 0.0, z], INTR)


def test_deproject_reproject_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        u = rng.uniform(0, INTR.width - 1e-6)
        v = rng.uniform(0, INTR.height - 1e-6)
        depth = rng.uniform(0.05, 3.0)
        point = deproject_pixel(u, v, depth, INTR)
        u2, v2, d2 = project_point(point, INTR)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(d2 - depth) < 1e-9


def test_completion_matrix_identity_case():
    rot = completion_matrix(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-15)


def test_completion_matrix_x_axis():
    rot = completion_matrix(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(rot[:, 2], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)


def test_completion_matrix_properties_and_determinism():
    rng = np.random.default_rng(11)
    for _ in range(300):
        z = random_unit(rng)
        rot = completion_matrix(z)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        np.testing.assert_allclose(rot[:, 2], z, atol=1e-9)
        again = completion_matrix(z)
        assert np.array_equal(rot, again)


def test_rotation_between_same_axis_is_zero():
    a = unit([0.3, -0.4, 0.5])
    np.testing.assert_allclose(rotation_between_axes(a, a), np.zeros(3), atol=1e-12)


def test_rotation_between_quarter_turn():
    w = rotation_between_axes([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(w, [0.0, 0.0, math.pi / 2], atol=1e-12)


def test_rotation_between_antiparallel():
    a = np.array([1.0, 0.0, 0.0])
    w = rotation_between_axes(a, -a)
    assert abs(np.linalg.norm(w) - math.pi) < 1e-9
    assert abs(w @ a) < 1e-9
    # deterministic
    assert np.array_equal(w, rotation_between_axes(a, -a))


def test_rotation_between_rodrigues_property():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = random_unit(rng), random_unit(rng)
        w = rotation_between_axes(a, b)
        np.testing.assert_allclose(rotvec_to_matrix(w) @ a, b, atol=1e-9)


def test_euler_xyz_convention():
    np.testing.assert_allclose(
        euler_xyz_to_matrix(0, 0, math.pi / 2) @ [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        euler_xyz_to_matrix(math.pi / 2, 0, 0) @ [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0], atol=1e-12)


def test_frame_compose_inverse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = Frame(rng.normal(size=3), rotvec_to_matrix(rng.normal(size=3)))
        g = Frame(rng.normal(size=3), rotvec_to_matrix(rng.normal(size=3)))
        p = rng.normal(size=3)
        np.testing.assert_allclose(f.compose(g).apply(p), f.apply(g.apply(p)),
                                   atol=1e-12)
        np.testing.assert_allclose(f.inverse().apply(f.apply(p)), p, atol=1e-12)


def test_angle_between_is_clipped():
    a = unit([1.0, 1e-13, 0.0])
    assert angle_between(a, a) == 0.0


# ------------------------------------------------- public boundary conversions

COMPONENT = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
TRIPLE = st.tuples(COMPONENT, COMPONENT, COMPONENT)


def _bytes(value):
    if isinstance(value, list):
        return [None if v is None else _bytes(v) for v in value]
    assert value.dtype == np.float64
    return value.tobytes()


def _as_given(triple, form):
    return {"tuple": tuple(triple), "list": list(triple),
            "array": np.array(triple, dtype=np.float64)}[form]


@settings(max_examples=200, deadline=None)
@given(st.lists(TRIPLE, min_size=3, max_size=3), st.sampled_from(["tuple", "list"]),
       st.floats(-math.pi, math.pi), TRIPLE)
def test_public_helpers_take_tuples_and_lists_as_float64_arrays(triples, form, turn, axis):
    """The tick hands these helpers float64 arrays and skips conversions of
    its own; the helpers still take any 3-sequence, with the same bytes."""
    frame = Frame._trusted(np.array(triples[2], dtype=np.float64),
                           rotvec_to_matrix(turn * unit(np.array(axis, float) + 4.0)))
    calls = {
        "rotation_between_axes": lambda x, y, z: rotation_between_axes(x, y),
        "rotvec_to_matrix": lambda x, y, z: rotvec_to_matrix(x),
        "skew": lambda x, y, z: skew(x),
        "project_axes": lambda x, y, z: project_axes([x, y, z]),
        "Frame.apply": lambda x, y, z: frame.apply(x),
        "Frame.apply_dir": lambda x, y, z: frame.apply_dir(x),
    }
    for name, call in calls.items():
        want = _bytes(call(*(_as_given(t, "array") for t in triples)))
        assert _bytes(call(*(_as_given(t, form) for t in triples))) == want, name
