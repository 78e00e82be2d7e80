"""Axis PCA scans the depth window around its anchor, with the same bits.

Without a cloud, ground_spec back-projects only the pixel box whose
points can lie within normal_radius of the anchor. The box's rows within
the radius must be the whole cloud's rows within it, in the same order,
so each surface normal and edge direction has the same bits, or fails
with the same error, as a scan of cloud_from_depth: on random depth maps
with holes, anchors on and off the surface and at the image borders, and
radii that reach the camera plane (z - r <= 0), where the box is the
whole image.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes import grounding
from taskaxes.errors import TaskAxesError
from taskaxes.evaluation import run_validation
from taskaxes.features import DepthMask
from taskaxes.geometry import CameraIntrinsics
from taskaxes.grounding import cloud_from_depth, edge_direction, surface_normal

INTR = CameraIntrinsics(fx=150.0, fy=120.0, cx=47.5, cy=30.0, width=96, height=72)


@st.composite
def depth_cases(draw):
    """(depth mask, anchor, radius, min_neighbors)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = INTR.height, INTR.width
    vv, uu = np.mgrid[0:h, 0:w]
    z0 = draw(st.sampled_from([0.02, 0.1, 0.4, 1.5]))
    tilt = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
    depth = z0 * (1.0 + tilt[0] * (uu / w - 0.5) + tilt[1] * (vv / h - 0.5))
    if draw(st.booleans()):     # a step: two surfaces meet along a column
        depth[:, rng.integers(w):] += draw(st.sampled_from([-0.3, 0.01, 0.2])) * z0
    depth += rng.normal(0.0, draw(st.sampled_from([0.0, 1e-4, 0.01, 0.2])) * z0, size=(h, w))

    # an anchor at a pixel's point, anywhere or on a border, maybe moved off it
    if draw(st.booleans()):
        u, v = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    else:
        u, v = draw(st.sampled_from([(0, 0), (w - 1, h - 1), (0, h // 2), (w // 2, h - 1)]))
    at = np.array([(u - INTR.cx) / INTR.fx, (v - INTR.cy) / INTR.fy, 1.0]) * depth[v, u]
    at += draw(st.sampled_from([0.0, 0.3, 1.0])) * z0 * rng.normal(size=3)
    if draw(st.booleans()):
        # each pixel's point is the nearest one of its ray to the anchor, so
        # every ray passing within the radius puts a point within it
        rays = np.stack([(uu - INTR.cx) / INTR.fx, (vv - INTR.cy) / INTR.fy,
                         np.ones((h, w))], axis=-1)
        depth = (rays @ at) / np.einsum("hwk,hwk->hw", rays, rays)

    holes = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    depth[holes] = rng.choice([np.nan, 0.0, -0.1], size=int(holes.sum()))
    mask = DepthMask(depth=depth)

    radius = draw(st.sampled_from([0.01, 0.1, 0.3, 1.0, "z", "past z"]))
    if radius == "z":           # the box reaches the camera plane exactly
        radius = abs(float(at[2])) or 0.01
    elif radius == "past z":
        radius = abs(float(at[2])) + 0.05
    else:
        radius *= z0
    return mask, at, radius, draw(st.sampled_from([1, 3, 8]))


def _near(points, at, radius):
    return points[np.linalg.norm(points - at, axis=1) <= radius]


def _outcome(pca, points, at, radius, min_neighbors):
    try:
        return pca(points, at, radius, min_neighbors).tobytes()
    except TaskAxesError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(depth_cases())
def test_window_neighbourhood_equals_whole_cloud_bit_for_bit(case):
    mask, at, radius, min_neighbors = case
    cloud = cloud_from_depth(mask, INTR)
    window = grounding._depth_window(mask, INTR, at, radius)
    assert window.shape[0] <= cloud.shape[0]
    near = _near(window, at, radius)
    assert near.shape == _near(cloud, at, radius).shape
    assert near.tobytes() == _near(cloud, at, radius).tobytes()
    for pca in (surface_normal, edge_direction):
        assert (_outcome(pca, window, at, radius, min_neighbors)
                == _outcome(pca, cloud, at, radius, min_neighbors))


def test_window_reaching_the_camera_plane_is_the_whole_cloud():
    depth = np.full((INTR.height, INTR.width), 0.05)
    depth[3, 4] = np.nan
    mask = DepthMask(depth=depth)
    at = np.array([0.0, 0.0, 0.05])
    for radius in (0.05, 0.2):
        assert (grounding._depth_window(mask, INTR, at, radius).tobytes()
                == cloud_from_depth(mask, INTR).tobytes())


def test_validation_grounds_the_same_from_the_window_as_from_the_whole_cloud(monkeypatch):
    window = [run_validation(2, noise_sigma=sigma, mode=mode, seed=7)
              for sigma, mode in ((0.0, "hard"), (0.1, "soft"))]
    monkeypatch.setattr(grounding, "_depth_window",
                        lambda mask, intr, at, radius: cloud_from_depth(mask, intr))
    whole = [run_validation(2, noise_sigma=sigma, mode=mode, seed=7)
             for sigma, mode in ((0.0, "hard"), (0.1, "soft"))]
    assert window == whole
