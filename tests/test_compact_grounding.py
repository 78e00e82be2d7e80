"""Grounding reads and checks only what it uses, with the same results.

A SimilarityMap stores only its candidates' flat indices and scores;
its dense score and valid arrays, built on each read, must equal those
cosine_map once scattered into full-size arrays, kept here as the
reference. hard_match and soft_match read the candidates instead of
scanning the full map; they must give the same u, v and peak score, bit
for bit, as the full-map code they replace, also kept here. Grids the
renderer and _with_noise build are checked for finiteness on the rows
they store only, rounded to float32; they must reject exactly what the
whole-grid check rejected.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.errors import ConfigError, NoValidPixels
from taskaxes.evaluation import _with_noise, reference_scene, run_validation
from taskaxes.features import (
    DepthMask,
    FeatureGrid,
    SimilarityMap,
    cosine_map,
    hard_match,
    read_feature_grid,
    soft_match,
    write_feature_grid,
)
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.scenes import sample_box
from taskaxes.simulator import (
    FeatureRenderConfig,
    Scene,
    SceneObject,
    render_synthetic_features,
)

TEMPERATURES = (1e-4, 0.01, 0.5)


def _dense_map(score, valid):
    """SimilarityMap of a dense score array at its valid pixels."""
    idx = np.flatnonzero(valid)
    return SimilarityMap(*score.shape, idx, score.reshape(-1)[idx])


def _full_hard(sim):
    """hard_match as written before: argmax over the masked full map."""
    if not sim.valid.any():
        raise NoValidPixels("similarity map has no valid pixels")
    masked = np.where(sim.valid, sim.score, -np.inf)
    idx = int(np.argmax(masked))
    v, u = divmod(idx, sim.width)
    return float(u), float(v), float(sim.score[v, u])


def _full_soft(sim, temperature):
    """soft_match as written before: candidates found by np.nonzero."""
    if not sim.valid.any():
        raise NoValidPixels("similarity map has no valid pixels")
    vv, uu = np.nonzero(sim.valid)
    scores = sim.score[vv, uu]
    peak = float(scores.max())
    weights = np.exp((scores - peak) / temperature)
    total = float(weights.sum())
    return (float((weights * uu).sum() / total), float((weights * vv).sum() / total),
            peak)


def _assert_matches_equal(sim, temperature):
    if not sim.valid.any():
        with pytest.raises(NoValidPixels):
            hard_match(sim)
        with pytest.raises(NoValidPixels):
            soft_match(sim, temperature)
        return
    m = hard_match(sim)
    assert (m.u, m.v, m.peak_score) == _full_hard(sim)
    m = soft_match(sim, temperature)
    assert (m.u, m.v, m.peak_score) == _full_soft(sim, temperature)


@st.composite
def hand_built_maps(draw):
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["random", "ties", "all_equal"]))
    if kind == "random":
        score = rng.uniform(-1.0, 1.0, size=(h, w))
    elif kind == "ties":  # few distinct values: many tied maxima
        score = rng.integers(-2, 3, size=(h, w)) / 2.0
    else:
        score = np.full((h, w), draw(st.sampled_from([-1.0, 0.0, 0.3])))
    cover = draw(st.sampled_from(["some", "all", "one", "none"]))
    if cover == "some":
        valid = rng.random((h, w)) < 0.5
    elif cover == "all":
        valid = np.ones((h, w), dtype=bool)
    else:
        valid = np.zeros((h, w), dtype=bool)
        if cover == "one":
            valid[rng.integers(h), rng.integers(w)] = True
    return _dense_map(score, valid)


@settings(max_examples=300, deadline=None)
@given(hand_built_maps(), st.sampled_from(TEMPERATURES))
def test_compact_matches_equal_full_map_matches(sim, temperature):
    assert np.array_equal(sim.candidates, np.flatnonzero(sim.valid))
    _assert_matches_equal(sim, temperature)


def test_hard_match_never_returns_an_invalid_pixel():
    # the full-map argmax returned pixel (0, 0), which is not a candidate,
    # when every candidate scored -inf
    score = np.full((2, 3), -np.inf)
    score[0, 0] = 5.0
    valid = np.zeros((2, 3), dtype=bool)
    valid[1, 2] = True
    m = hard_match(_dense_map(score, valid))
    assert (m.u, m.v, m.peak_score) == (2.0, 1.0, -np.inf)


@st.composite
def cosine_inputs(draw):
    """(reference descriptor, target grid, depth mask)."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.normal(size=(h, w, dim)).astype(draw(st.sampled_from([np.float32,
                                                                      np.float64])))
    # zero-norm pixels with valid depth are not candidates
    data[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    if draw(st.booleans()):  # repeated descriptors tie exactly
        data[rng.random((h, w)) < 0.5] = data.reshape(-1, dim)[0]
    depth = rng.uniform(-0.1, 1.0, size=(h, w))
    depth[rng.random((h, w)) < 0.3] = np.nan
    return rng.normal(size=dim), FeatureGrid(data=data), DepthMask(depth=depth)


cosine_maps = cosine_inputs().map(lambda case: cosine_map(*case))


@settings(max_examples=300, deadline=None)
@given(cosine_maps, st.sampled_from(TEMPERATURES))
def test_cosine_map_candidates_match_full_map(sim, temperature):
    rebuilt = _dense_map(sim.score, sim.valid)
    assert np.array_equal(sim.candidates, rebuilt.candidates)
    assert np.array_equal(sim.candidate_scores, rebuilt.candidate_scores)
    _assert_matches_equal(sim, temperature)


def _scattered_cosine(ref, grid, mask):
    """cosine_map's dense score and valid arrays as built when the map
    stored them: the candidates' scores scattered into float64 zeros."""
    ref = np.asarray(ref, dtype=np.float64)
    idx, rows, norms = grid.pixels, grid.rows, grid.norms
    keep = mask.valid.reshape(-1)[idx] & (norms > 0)
    if not keep.all():
        idx, rows, norms = idx[keep], rows[keep], norms[keep]
    scores = (rows @ ref) / (norms * float(np.linalg.norm(ref)))
    score = np.zeros(mask.depth.size, dtype=np.float64)
    score[idx] = scores
    valid = np.zeros(mask.depth.size, dtype=bool)
    valid[idx] = True
    return score.reshape(mask.depth.shape), valid.reshape(mask.depth.shape)


def _assert_same_array(got, expected):
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(cosine_inputs())
def test_compact_map_reads_as_the_scattered_dense_map(case):
    sim = cosine_map(*case)
    score, valid = _scattered_cosine(*case)
    _assert_same_array(sim.score, score)
    _assert_same_array(sim.valid, valid)
    assert (sim.height, sim.width) == score.shape
    # each read builds fresh arrays, so writing to one changes no map
    sim.score[...] = 7.0
    sim.valid[...] = ~valid
    _assert_same_array(sim.score, score)
    _assert_same_array(sim.valid, valid)


def test_candidate_map_reads_as_its_dense_arrays():
    sim = SimilarityMap(2, 3, np.array([0, 2, 5]), np.array([0.5, 0.75, -0.9]))
    _assert_same_array(sim.valid, np.array([[True, False, True], [False, False, True]]))
    _assert_same_array(sim.score, np.array([[0.5, 0.0, 0.75], [0.0, 0.0, -0.9]]))


def test_matches_on_rendered_grid_equal_full_map_matches():
    grid, depth = render_synthetic_features(reference_scene(), noise_tag=1)
    vv, uu = np.nonzero(depth.valid)
    for i in (vv.size // 4, 3 * vv.size // 4):
        sim = cosine_map(grid.data[vv[i], uu[i]], grid, depth)
        for temperature in TEMPERATURES:
            _assert_matches_equal(sim, temperature)


def test_run_validation_repeats():
    first = run_validation(2, noise_sigma=0.1, mode="soft", seed=4)
    second = run_validation(2, noise_sigma=0.1, mode="soft", seed=4)
    assert first == second
    assert first["failures"] == 0


# ----------------------------------------------------------------------
# finiteness


def _small_scene(noise_sigma):
    slab = SceneObject(name="slab", cloud=sample_box(0.10, 0.06, 0.01, 0.002),
                       pose=Frame.from_rpy_deg((0.0, 0.0, 0.2), (0.0, 0.0, 10.0)))
    intr = CameraIntrinsics(fx=160.0, fy=160.0, cx=40.0, cy=30.0, width=80, height=60)
    return Scene(objects=[slab], intrinsics=intr,
                 features=FeatureRenderConfig(noise_sigma=noise_sigma))


def test_infinite_noise_is_rejected_where_it_enters():
    with pytest.raises(ConfigError, match=r"^noise_sigma must be >= 0 and finite, got inf$"):
        _small_scene(math.inf)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("sigma", [1e300])
def test_render_rejects_noise_that_is_not_finite_as_float32(sigma):
    # 1e300 is finite in float64 and overflows in the float32 cast
    with pytest.raises(ConfigError, match="non-finite"):
        render_synthetic_features(_small_scene(sigma), noise_tag=1)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("sigma", [math.inf, 1e300])
def test_with_noise_rejects_noise_that_is_not_finite_as_float32(sigma):
    grid, depth = render_synthetic_features(_small_scene(0.0))
    with pytest.raises(ConfigError, match="non-finite"):
        _with_noise(grid, depth, sigma, np.random.default_rng(0))


def test_public_constructor_and_reader_reject_nan(tmp_path):
    data = np.zeros((2, 3, 4), dtype=np.float32)
    data[1, 2, 3] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        FeatureGrid(data=data)
    path = tmp_path / "nan.fgrd"
    write_feature_grid(path, FeatureGrid(data=np.zeros((2, 3, 4), dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    at = 20 + 4 * ((1 * 3 + 2) * 4 + 3)  # the payload float of data[1, 2, 3]
    raw[at:at + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="non-finite"):
        read_feature_grid(path)


FLT_MAX = float(np.finfo(np.float32).max)
_near_limits = st.sampled_from([
    FLT_MAX, -FLT_MAX, math.nextafter(FLT_MAX, math.inf),
    2.0**128 - 2.0**103, -(2.0**128 - 2.0**103),  # halfway: rounds to inf
    math.nextafter(2.0**128 - 2.0**103, 0.0), 2.0**128, 1e300, 0.0, -1.5,
])
_values = st.one_of(_near_limits, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, min_size=0, max_size=6))
def test_from_rows_rejects_exactly_what_the_whole_grid_check_rejects(values):
    written = np.array(values, dtype=np.float64).reshape(-1, 1)
    data = np.zeros((len(values) + 1, 1, 1), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        data[:len(values), 0] = written
    rejected_before = not np.all(np.isfinite(data))
    pixels = np.arange(len(values), dtype=np.int64)
    if rejected_before:
        with pytest.raises(ConfigError, match="non-finite"):
            FeatureGrid.from_rows(len(values) + 1, 1, pixels, written, np.float32)
    else:
        grid = FeatureGrid.from_rows(len(values) + 1, 1, pixels, written, np.float32)
        assert grid.data.dtype == np.float32
        assert grid.data.tobytes() == data.tobytes()
