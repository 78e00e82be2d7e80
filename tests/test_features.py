import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.errors import (
    ConfigError,
    DimMismatch,
    FileFormatError,
    NonPositiveTemperature,
    NoValidPixels,
    OutOfBounds,
    ZeroReferenceDescriptor,
)
from taskaxes.features import (
    DepthMask,
    FeatureGrid,
    MatchConfig,
    cosine_map,
    hard_match,
    match_keypoint,
    read_depth_mask,
    read_feature_grid,
    soft_match,
    window_average,
    write_depth_mask,
    write_feature_grid,
)


def smooth_grid(height, width, dim=8, seed=1, length_scale=6.0):
    """Slowly varying random-Fourier descriptors, unique per pixel."""
    rng = np.random.default_rng(seed)
    freqs = rng.normal(0.0, 1.0 / length_scale, size=(dim, 2))
    phases = rng.uniform(0.0, 2 * np.pi, size=dim)
    vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    data = np.cos(uu[:, :, None] * freqs[:, 0] + vv[:, :, None] * freqs[:, 1]
                  + phases)
    return FeatureGrid(data=data)


def full_mask(height, width, depth=0.5):
    return DepthMask(depth=np.full((height, width), depth))


def sim_map(score, valid=None):
    from taskaxes.features import SimilarityMap
    score = np.asarray(score, dtype=float)
    if valid is None:
        valid = np.ones_like(score, dtype=bool)
    idx = np.flatnonzero(valid)
    return SimilarityMap(*score.shape, idx, score.reshape(-1)[idx])


# ---------------------------------------------------------------- window


def test_window_average_constant_grid():
    grid = FeatureGrid(data=np.full((5, 7, 3), 2.5))
    np.testing.assert_allclose(window_average(grid, 3, 2, 1), [2.5, 2.5, 2.5])


def test_window_average_radius_zero_is_exact():
    rng = np.random.default_rng(0)
    grid = FeatureGrid(data=rng.normal(size=(4, 4, 5)))
    np.testing.assert_allclose(window_average(grid, 2, 1, 0), grid.data[1, 2])


def test_window_average_corner_clipping():
    # 2x2 ramp, hand-computed mean of the four in-bounds descriptors
    data = np.array([[[0.0, 1.0], [1.0, 1.0]], [[2.0, 1.0], [3.0, 1.0]]])
    grid = FeatureGrid(data=data)
    np.testing.assert_allclose(window_average(grid, 0, 0, 1), [1.5, 1.0])


def test_window_average_out_of_bounds():
    grid = FeatureGrid(data=np.zeros((4, 4, 2)))
    with pytest.raises(OutOfBounds):
        window_average(grid, 4, 0, 1)


# ---------------------------------------------------------------- cosine


def test_cosine_self_similarity_is_one():
    grid = smooth_grid(6, 8)
    sim = cosine_map(grid.data[3, 4], grid, full_mask(6, 8))
    assert abs(sim.score[3, 4] - 1.0) < 1e-12


def test_cosine_orthogonal_is_zero():
    data = np.zeros((1, 2, 2))
    data[0, 0] = [1.0, 0.0]
    data[0, 1] = [0.0, 1.0]
    sim = cosine_map([1.0, 0.0], FeatureGrid(data=data), full_mask(1, 2))
    assert abs(sim.score[0, 1]) < 1e-12


def test_cosine_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    grid = FeatureGrid(data=rng.normal(size=(8, 6, 5)))
    depth = rng.uniform(0.2, 1.0, size=(8, 6))
    depth[rng.random((8, 6)) < 0.3] = np.nan
    mask = DepthMask(depth=depth)
    ref = rng.normal(size=5)
    sim = cosine_map(ref, grid, mask)
    for v in range(8):
        for u in range(6):
            if not mask.valid[v, u]:
                assert not sim.valid[v, u]
                continue
            d = grid.data[v, u]
            expected = float(ref @ d / (np.linalg.norm(ref) * np.linalg.norm(d)))
            assert abs(sim.score[v, u] - expected) < 1e-12
            assert -1.0 - 1e-6 <= sim.score[v, u] <= 1.0 + 1e-6


def test_cosine_dim_mismatch_and_zero_ref():
    grid = smooth_grid(3, 3, dim=4)
    with pytest.raises(DimMismatch):
        cosine_map(np.ones(5), grid, full_mask(3, 3))
    with pytest.raises(ZeroReferenceDescriptor):
        cosine_map(np.zeros(4), grid, full_mask(3, 3))
    with pytest.raises(DimMismatch):
        cosine_map(np.ones(4), grid, full_mask(4, 3))


# ---------------------------------------------------------------- argmax


def test_hard_match_single_peak():
    score = -np.ones((4, 5))
    score[2, 3] = 0.9
    m = hard_match(sim_map(score))
    assert (m.u, m.v) == (3.0, 2.0) and m.mode == "hard"
    assert m.peak_score == 0.9


def test_hard_match_tie_breaks_row_major():
    score = np.zeros((6, 7))
    score[3, 2] = 1.0  # (u=2, v=3)
    score[1, 5] = 1.0  # (u=5, v=1): smaller v wins
    m = hard_match(sim_map(score))
    assert (m.u, m.v) == (5.0, 1.0)


def test_hard_match_equals_exhaustive_scan():
    rng = np.random.default_rng(9)
    for _ in range(200):
        h, w = rng.integers(2, 17, size=2)
        score = rng.uniform(-1, 1, size=(h, w))
        valid = rng.random((h, w)) < 0.8
        if not valid.any():
            valid[0, 0] = True
        best = None
        for v in range(h):
            for u in range(w):
                if valid[v, u] and (best is None or score[v, u] > best[0]):
                    best = (score[v, u], u, v)
        m = hard_match(sim_map(score, valid))
        assert (m.u, m.v) == (float(best[1]), float(best[2]))


def test_hard_match_no_valid_pixels():
    with pytest.raises(NoValidPixels):
        hard_match(sim_map(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool)))


def test_soft_match_uniform_is_centroid():
    m = soft_match(sim_map(np.full((5, 9), 0.25)), temperature=0.5)
    assert abs(m.u - 4.0) < 1e-9 and abs(m.v - 2.0) < 1e-9


def test_soft_match_twin_peaks_midpoint():
    score = -np.ones((5, 7))
    score[2, 1] = 1.0
    score[2, 5] = 1.0
    m = soft_match(sim_map(score), temperature=0.05)
    assert abs(m.u - 3.0) < 1e-9 and abs(m.v - 2.0) < 1e-9


def test_soft_match_shift_invariance():
    rng = np.random.default_rng(21)
    score = rng.uniform(-0.5, 0.5, size=(10, 12))
    m1 = soft_match(sim_map(score), temperature=0.01)
    m2 = soft_match(sim_map(score + 0.37), temperature=0.01)
    assert abs(m1.u - m2.u) < 1e-9 and abs(m1.v - m2.v) < 1e-9


def test_soft_match_cold_limit_approaches_hard():
    rng = np.random.default_rng(33)
    for _ in range(50):
        score = rng.uniform(-0.9, 0.85, size=(12, 12))
        v, u = np.unravel_index(np.argmax(score), score.shape)
        score[v, u] = score.max() + 0.06  # enforce peak margin >= 0.05
        hard = hard_match(sim_map(score))
        soft = soft_match(sim_map(score), temperature=1e-4)
        assert np.hypot(soft.u - hard.u, soft.v - hard.v) < 0.5


def test_soft_match_invalid_temperature():
    with pytest.raises(NonPositiveTemperature):
        soft_match(sim_map(np.zeros((2, 2))), temperature=0.0)


# ---------------------------------------------------------------- pipeline


def test_match_keypoint_identity_hard_exact_pixel():
    grid = smooth_grid(20, 24)
    cfg = MatchConfig(mode="hard")
    m = match_keypoint(grid, (11, 7), grid, full_mask(20, 24), cfg)
    assert (m.u, m.v) == (11.0, 7.0)


def test_match_keypoint_identity_random_grid_radius_zero():
    rng = np.random.default_rng(4)
    grid = FeatureGrid(data=rng.normal(size=(9, 9, 8)))
    cfg = MatchConfig(mode="hard", window_radius=0)
    m = match_keypoint(grid, (5, 2), grid, full_mask(9, 9), cfg)
    assert (m.u, m.v) == (5.0, 2.0)


def test_match_keypoint_translated_grid():
    big = smooth_grid(30, 30)
    ref = FeatureGrid(data=big.data[:20, :20])
    du, dv = 6, 4
    target = FeatureGrid(data=big.data[dv:dv + 20, du:du + 20])
    cfg = MatchConfig(mode="hard")
    m = match_keypoint(ref, (12, 9), target, full_mask(20, 20), cfg)
    assert (m.u, m.v) == (12.0 - du, 9.0 - dv)


# ---------------------------------------------------------------- file io


def test_feature_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    grid = FeatureGrid(data=rng.normal(size=(7, 5, 9)).astype(np.float32),
                       meta={"source": "unit-test", "note": "roundtrip"})
    path = tmp_path / "grid.fgrd"
    write_feature_grid(path, grid)
    back = read_feature_grid(path)
    assert np.array_equal(back.data, grid.data)
    assert back.meta == grid.meta
    # byte-stable writes
    write_feature_grid(tmp_path / "again.fgrd", back)
    assert (tmp_path / "grid.fgrd").read_bytes() == (tmp_path / "again.fgrd").read_bytes()


def test_depth_file_roundtrip_with_nan(tmp_path):
    depth = np.array([[0.5, np.nan], [1.25, 0.75]])
    path = tmp_path / "d.dpth"
    write_depth_mask(path, DepthMask(depth=depth))
    back = read_depth_mask(path)
    assert np.array_equal(back.valid, [[True, False], [True, True]])
    np.testing.assert_allclose(back.depth[back.valid],
                               depth[np.isfinite(depth)], rtol=1e-6)


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.fgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        read_feature_grid(path)
    grid = FeatureGrid(data=np.zeros((2, 2, 2), dtype=np.float32))
    good = tmp_path / "good.fgrd"
    write_feature_grid(good, grid)
    (tmp_path / "trunc.fgrd").write_bytes(good.read_bytes()[:-6])
    with pytest.raises(FileFormatError):
        read_feature_grid(tmp_path / "trunc.fgrd")


def test_truncated_header_and_bad_metadata_name_the_file(tmp_path):
    good = tmp_path / "good.fgrd"
    write_feature_grid(good, FeatureGrid(data=np.zeros((2, 2, 2), dtype=np.float32),
                                         meta={"source": "unit-test"}))
    raw = good.read_bytes()
    short = tmp_path / "short.fgrd"
    short.write_bytes(raw[:6])
    with pytest.raises(FileFormatError, match="short.fgrd: truncated header"):
        read_feature_grid(short)
    undecodable = tmp_path / "meta.fgrd"
    undecodable.write_bytes(raw[:-2] + b"\xff\xfe")
    with pytest.raises(FileFormatError, match="meta.fgrd: metadata is not UTF-8 JSON"):
        read_feature_grid(undecodable)
    listed = tmp_path / "list.fgrd"
    end = 20 + 4 * 2 * 2 * 2    # header and float32 descriptors
    listed.write_bytes(raw[:end] + struct.pack("<I", 2) + b"[]")
    with pytest.raises(FileFormatError, match="list.fgrd: metadata is not a JSON object"):
        read_feature_grid(listed)
    depth = tmp_path / "short.dpth"
    depth.write_bytes(b"DPTH\x01\x00")
    with pytest.raises(FileFormatError, match="short.dpth: truncated header"):
        read_depth_mask(depth)


def test_constructors_reject_a_misshaped_array_or_negative_radius():
    with pytest.raises(ConfigError, match=r"^feature grid must be 3D, got shape \(3, 4\)$"):
        FeatureGrid(np.zeros((3, 4)))
    with pytest.raises(ConfigError, match=r"^depth map must be 2D, got shape \(4,\)$"):
        DepthMask(np.ones(4))
    grid = FeatureGrid(np.ones((3, 4, 2), dtype=np.float32))
    with pytest.raises(ConfigError, match=r"^window radius must be >= 0$"):
        window_average(grid, 1, 1, -1)


# ------------------------------------------------- file io, property tests

_io_grids = st.builds(
    lambda shape, seed: np.random.default_rng(seed).normal(size=shape).astype(np.float32),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 2**16))
_io_meta = st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2)


def _written(tmp_dir, name, grid=None, meta=None, depth=None):
    path = tmp_dir / name
    if depth is None:
        write_feature_grid(path, FeatureGrid(data=grid, meta=meta))
    else:
        write_depth_mask(path, DepthMask(depth=depth))
    return path


def _read_only_file_format_errors(reader, path, raw):
    path.write_bytes(raw)
    try:
        reader(path)
    except FileFormatError as err:
        assert str(path) in str(err)


@settings(max_examples=40, deadline=None)
@given(_io_grids, _io_meta)
def test_feature_grid_file_property(tmp_path_factory, data, meta):
    tmp_dir = tmp_path_factory.mktemp("fgrd")
    path = _written(tmp_dir, "grid.fgrd", data, meta)
    raw = path.read_bytes()
    back = read_feature_grid(path)
    assert back.data.tobytes() == data.tobytes() and back.meta == meta
    assert _written(tmp_dir, "again.fgrd", back.data, back.meta).read_bytes() == raw
    cut = tmp_dir / "cut.fgrd"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FileFormatError, match="cut.fgrd"):
            read_feature_grid(cut)
    # every byte of the header and of the metadata length, set to extremes
    bad = tmp_dir / "bad.fgrd"
    meta_at = 20 + data.nbytes
    for i in list(range(20)) + list(range(meta_at, meta_at + 4)):
        for value in (0x00, 0x01, 0x7F, 0xFF):
            _read_only_file_format_errors(read_feature_grid, bad,
                                          raw[:i] + bytes([value]) + raw[i + 1:])


# A grid stores the pixels whose components are not all +0.0, whichever
# constructor or file it comes from; -0.0 and NaN have set bits, so a
# pixel holding one is stored (and a NaN rejected).

_ROW_FILLS = st.sampled_from(["random", "+0", "-0", "one -0", "one +0"])


@st.composite
def _sparse_grids(draw):
    h, w, dim = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.normal(size=(h, w, dim)).astype(np.float32)
    rows = data.reshape(h * w, dim)
    for k in range(h * w):
        fill = draw(_ROW_FILLS)
        if fill in ("+0", "-0"):
            rows[k] = 0.0 if fill == "+0" else -0.0
        elif fill != "random" and dim:
            rows[k] = 0.0
            rows[k, draw(st.integers(0, dim - 1))] = -0.0 if fill == "one -0" else 1.5
    return data


@settings(max_examples=60, deadline=None)
@given(_sparse_grids())
def test_grid_stores_exactly_the_pixels_not_all_positive_zero(tmp_path_factory, data):
    h, w, dim = data.shape
    stored = np.flatnonzero((data.reshape(h * w, dim).view(np.uint32) != 0).any(axis=1))
    grid = FeatureGrid(data=data)
    assert grid.pixels.tolist() == stored.tolist()
    assert grid.data.tobytes() == data.tobytes()
    path = tmp_path_factory.mktemp("sparse") / "grid.fgrd"
    write_feature_grid(path, grid)
    back = read_feature_grid(path)
    assert back.pixels.tolist() == stored.tolist()
    assert back.rows.tobytes() == grid.rows.tobytes()
    assert back.data.tobytes() == data.tobytes()


def test_negative_zero_pixel_survives_a_write_and_a_read(tmp_path):
    data = np.zeros((2, 3, 4), dtype=np.float32)
    data[0, 1] = -0.0
    data[1, 2, 0] = -0.0
    path = tmp_path / "negzero.fgrd"
    write_feature_grid(path, FeatureGrid(data=data))
    raw = path.read_bytes()
    back = read_feature_grid(path)
    assert back.pixels.tolist() == [1, 5]
    assert back.data.tobytes() == data.tobytes()
    write_feature_grid(tmp_path / "again.fgrd", back)
    assert (tmp_path / "again.fgrd").read_bytes() == raw


def test_dim_zero_file_of_two_billion_pixels_reads_without_allocating(tmp_path):
    side = 46341   # side * side > 2**31
    path = tmp_path / "dim0.fgrd"
    path.write_bytes(b"FGRD" + struct.pack("<IIIII", 1, side, side, 0, 0))
    tracemalloc.start()
    try:
        grid = read_feature_grid(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (grid.height, grid.width, grid.dim) == (side, side, 0)
    assert grid.pixels.size == 0 and grid.rows.shape == (0, 0)
    assert peak < 1_000_000


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**16))
def test_depth_file_property(tmp_path_factory, height, width, seed):
    tmp_dir = tmp_path_factory.mktemp("dpth")
    depth = np.random.default_rng(seed).uniform(0.1, 2.0, size=(height, width))
    depth = depth.astype(np.float32).astype(np.float64)
    path = _written(tmp_dir, "d.dpth", depth=depth)
    raw = path.read_bytes()
    back = read_depth_mask(path)
    assert back.depth.tobytes() == depth.tobytes()
    assert _written(tmp_dir, "again.dpth", depth=back.depth).read_bytes() == raw
    cut = tmp_dir / "cut.dpth"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FileFormatError, match="cut.dpth"):
            read_depth_mask(cut)
    bad = tmp_dir / "bad.dpth"
    for i in range(16):
        for value in (0x00, 0x01, 0x7F, 0xFF):
            _read_only_file_format_errors(read_depth_mask, bad,
                                          raw[:i] + bytes([value]) + raw[i + 1:])
