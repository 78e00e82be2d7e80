"""Feature grids and keypoint matching.

A FeatureGrid stores descriptors only for the pixels that have one, as
float64 rows in pixel order; every other pixel reads as zero. A
reference descriptor is formed by averaging a small window around the
annotated pixel, a cosine similarity map is computed against every
valid pixel of the target grid, and the match is read off either as the
argmax pixel or as the soft-argmax (softmax-weighted expectation of
pixel coordinates).

Binary file layouts (all little-endian):

  .fgrd   magic "FGRD", u32 version=1, u32 height, u32 width, u32 dim,
          height*width*dim float32 row-major (pixel-major, descriptor-minor;
          a pixel without a stored row is written as zeros),
          u32 metadata byte length, that many UTF-8 bytes of JSON metadata.

  .dpth   magic "DPTH", u32 version=1, u32 height, u32 width,
          height*width float32 depth in meters, NaN marking invalid pixels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimMismatch,
    FileFormatError,
    NonPositiveTemperature,
    NoValidPixels,
    OutOfBounds,
    ZeroReferenceDescriptor,
    positive,
)

FGRD_MAGIC = b"FGRD"
DPTH_MAGIC = b"DPTH"
FILE_VERSION = 1

# rows per block where whole (n, dim) arrays are rounded, checked or
# drawn a block at a time, so that no second array of their size is made
_BLOCK_ROWS = 4096


class FeatureGrid:
    """Descriptors of a height x width image, stored only for the pixels
    that have one: the ascending flat indices `pixels` (v * width + u),
    their float64 `rows`, whose values are those of `dtype`, and the row
    `norms`. Every other pixel reads as zero. Both constructors check
    that every stored value is finite; grids are treated as immutable."""

    def __init__(self, data, meta=None):
        """Grid of a (height, width, dim) array, which is copied, never
        changed. It stores the pixels whose components are not all +0.0;
        a pixel of -0.0s is stored, so `data` gives back the array's bytes."""
        data = np.asarray(data)
        if data.ndim != 3:
            raise ConfigError(f"feature grid must be 3D, got shape {data.shape}")
        height, width, dim = data.shape
        flat = data.reshape(height * width, dim)
        # without descriptor components: no pixel stored, no mask made, at any size
        pixels = (np.flatnonzero((flat != 0).any(axis=1) | np.signbit(flat).any(axis=1))
                  if dim else np.empty(0, dtype=np.int64))
        self._store(height, width, pixels, np.asarray(flat[pixels], dtype=np.float64),
                    data.dtype, meta)

    @classmethod
    def from_rows(cls, height, width, pixels, rows, dtype, meta=None) -> "FeatureGrid":
        """Grid of the (n, dim) `rows` at the n ascending flat indices
        `pixels`, each value rounded to `dtype`.

        The grid takes over `rows`: a writeable, C-contiguous float64 array
        is rounded in place, a block of rows at a time, and kept as the
        grid's rows, so the caller must not use it afterwards. Any other
        array is copied first."""
        grid = cls.__new__(cls)
        grid._store(height, width, pixels, np.require(rows, np.float64, ("C", "W")),
                    np.dtype(dtype), meta)
        return grid

    def _store(self, height, width, pixels, rows, dtype, meta):
        for start in range(0, rows.shape[0], _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            with np.errstate(over="ignore"):
                block[...] = block.astype(dtype)
            if not np.isfinite(block).all():
                raise ConfigError("feature grid contains non-finite values")
        self.height, self.width, self.dim = int(height), int(width), rows.shape[1]
        self.pixels, self.rows, self.dtype = np.asarray(pixels, dtype=np.int64), rows, dtype
        self.meta = {} if meta is None else meta
        self.norms = np.sqrt(np.einsum("nd,nd->n", rows, rows))

    @property
    def data(self) -> np.ndarray:
        """The dense (height, width, dim) array in `dtype`, built on each read."""
        dense = np.zeros((self.height * self.width, self.dim), dtype=self.dtype)
        dense[self.pixels] = self.rows
        return dense.reshape(self.height, self.width, self.dim)


@dataclass
class DepthMask:
    """Per-pixel depth in meters; NaN or non-positive entries are invalid."""

    depth: np.ndarray
    valid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        if self.depth.ndim != 2:
            raise ConfigError(f"depth map must be 2D, got shape {self.depth.shape}")
        # computed once: masks are treated as immutable, like grids
        with np.errstate(invalid="ignore"):
            self.valid = np.isfinite(self.depth) & (self.depth > 0)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


class SimilarityMap:
    """Cosine scores of a height x width image, stored only for the
    candidate pixels: their ascending flat indices `candidates`
    (v * width + u) and their `candidate_scores`, which the matchers read.
    Every other pixel is invalid and scores zero."""

    def __init__(self, height, width, candidates, candidate_scores):
        self.height, self.width = height, width
        self.candidates, self.candidate_scores = candidates, candidate_scores

    @property
    def score(self) -> np.ndarray:
        """The dense (height, width) float64 scores, built on each read."""
        score = np.zeros(self.height * self.width)
        score[self.candidates] = self.candidate_scores
        return score.reshape(self.height, self.width)

    @property
    def valid(self) -> np.ndarray:
        """The dense (height, width) candidate mask, built on each read."""
        valid = np.zeros(self.height * self.width, dtype=bool)
        valid[self.candidates] = True
        return valid.reshape(self.height, self.width)


@dataclass
class PixelMatch:
    """Matched pixel; hard mode yields integer-valued coordinates."""

    u: float
    v: float
    peak_score: float
    mode: str

    @property
    def pixel(self) -> tuple:
        return (int(round(self.u)), int(round(self.v)))


@dataclass
class MatchConfig:
    mode: str = "soft"
    temperature: float = 0.01
    window_radius: int = 1

    def __post_init__(self):
        if self.mode not in ("hard", "soft"):
            raise ConfigError(f"unknown match mode {self.mode!r}")
        if self.window_radius < 0:
            raise ConfigError("window radius must be >= 0")
        positive("temperature", self.temperature)


def _window(u, v, radius, width, height) -> np.ndarray:
    """Row-major flat indices (v * width + u) of the (2r+1)^2 window
    around pixel (u, v), clipped to a width x height image."""
    u0, u1 = max(u - radius, 0), min(u + radius, width - 1)
    v0, v1 = max(v - radius, 0), min(v + radius, height - 1)
    rows = np.arange(v0, v1 + 1, dtype=np.int64)[:, None] * width
    return (rows + np.arange(u0, u1 + 1, dtype=np.int64)).ravel()


def window_average(grid: FeatureGrid, u: int, v: int,
                   radius: int = MatchConfig.window_radius) -> np.ndarray:
    """Mean descriptor over a (2r+1)^2 window clipped to the image bounds."""
    if radius < 0:
        raise ConfigError("window radius must be >= 0")
    u = int(u)
    v = int(v)
    if not (0 <= u < grid.width and 0 <= v < grid.height):
        raise OutOfBounds(f"pixel ({u}, {v}) outside {grid.width}x{grid.height} grid")
    # the row-major window, zero where the grid stores no row
    flat = _window(u, v, radius, grid.width, grid.height)
    at = np.searchsorted(grid.pixels, flat)
    found = np.searchsorted(grid.pixels, flat, side="right") > at
    window = np.zeros((flat.size, grid.dim))
    window[found] = grid.rows[at[found]]
    return window.mean(axis=0)


def window_pixels(keypoints, width: int, height: int,
                  radius: int = MatchConfig.window_radius) -> np.ndarray:
    """Ascending flat indices (v * width + u) of every pixel that
    window_average reads around the (u, v) `keypoints` of a width x
    height grid. A keypoint outside the image adds none; window_average
    raises OutOfBounds for it."""
    flat = [np.empty(0, dtype=np.int64)]
    for u, v in keypoints:
        u, v = int(u), int(v)
        if 0 <= u < width and 0 <= v < height:
            flat.append(_window(u, v, radius, width, height))
    return np.unique(np.concatenate(flat))


def add_noise(rows, at, sigma, rng) -> None:
    """Add to rows[j] the row at[j] of one normal(0, sigma) draw of shape
    (at[-1] + 1, dim) from `rng`, for ascending indices `at`.

    The draw is made _BLOCK_ROWS rows at a time, and stops after the last
    row read: the generator hands out its doubles in order, so each row
    equals that of the one whole draw, while a single block of noise is
    held at a time."""
    end = int(at[-1]) + 1 if at.size else 0
    for start in range(0, end, _BLOCK_ROWS):
        noise = rng.normal(0.0, sigma, size=(min(_BLOCK_ROWS, end - start), rows.shape[1]))
        lo, hi = np.searchsorted(at, (start, start + noise.shape[0]))
        # ascending distinct indices that fill the block are all of it
        rows[lo:hi] += noise if hi - lo == noise.shape[0] else noise[at[lo:hi] - start]


def cosine_map(ref_desc, target: FeatureGrid, mask: DepthMask) -> SimilarityMap:
    """Cosine similarity of a reference descriptor against every valid pixel.

    Pixels with invalid depth, no stored row or a zero-norm descriptor
    are excluded from the candidate set. Only the candidates' stored rows
    are scored, one float64 dot product each; scores are computed per
    pixel independently, so the result does not depend on evaluation
    order. When every stored pixel is a candidate, as on a rendered
    target, the grid's rows and norms are scored as they are. The map
    stores the candidates and their scores alone.
    """
    ref = np.asarray(ref_desc, dtype=np.float64).reshape(-1)
    if ref.shape[0] != target.dim:
        raise DimMismatch(f"descriptor dim {ref.shape[0]} != grid dim {target.dim}")
    if (mask.height, mask.width) != (target.height, target.width):
        raise DimMismatch("depth mask dimensions do not match the feature grid")
    idx, rows, norms = target.pixels, target.rows, target.norms
    keep = mask.valid.reshape(-1)[idx] & (norms > 0)
    if not keep.all():
        idx, rows, norms = idx[keep], rows[keep], norms[keep]
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm <= 0:
        raise ZeroReferenceDescriptor("reference descriptor has zero norm")
    scores = (rows @ ref) / (norms * ref_norm)
    return SimilarityMap(mask.height, mask.width, idx, scores)


def hard_match(sim: SimilarityMap) -> PixelMatch:
    """Argmax pixel; ties broken by row-major scan order (smallest v, then u),
    which is the order of the candidates the argmax runs over."""
    if sim.candidates.size == 0:
        raise NoValidPixels("similarity map has no valid pixels")
    best = int(np.argmax(sim.candidate_scores))
    v, u = divmod(int(sim.candidates[best]), sim.width)
    return PixelMatch(u=float(u), v=float(v),
                      peak_score=float(sim.candidate_scores[best]), mode="hard")


def soft_match(sim: SimilarityMap, temperature: float) -> PixelMatch:
    """Soft-argmax: softmax-weighted mean of valid pixel coordinates.

    Scores are shifted by their maximum before exponentiation for
    numerical stability; the weighted sums run over the candidates, in
    row-major order.
    """
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    if sim.candidates.size == 0:
        raise NoValidPixels("similarity map has no valid pixels")
    vv, uu = np.divmod(sim.candidates, sim.width)
    scores = sim.candidate_scores
    peak = float(scores.max())
    weights = np.exp((scores - peak) / temperature)
    total = float(weights.sum())
    u = float((weights * uu).sum() / total)
    v = float((weights * vv).sum() / total)
    return PixelMatch(u=u, v=v, peak_score=peak, mode="soft")


def match_keypoint(ref: FeatureGrid, ref_px, target: FeatureGrid,
                   target_mask: DepthMask, cfg: MatchConfig) -> PixelMatch:
    """Transfer one reference pixel onto the target grid.

    Window-averages the reference descriptor, builds the cosine map over
    valid target pixels, then applies the configured argmax.
    """
    ref_desc = window_average(ref, ref_px[0], ref_px[1], cfg.window_radius)
    return select_match(cosine_map(ref_desc, target, target_mask), cfg)


def select_match(sim: SimilarityMap, cfg: MatchConfig) -> PixelMatch:
    """The configured argmax (hard or soft) of a similarity map."""
    if cfg.mode == "hard":
        return hard_match(sim)
    return soft_match(sim, cfg.temperature)


# ----------------------------------------------------------------------
# file I/O


def write_feature_grid(path, grid: FeatureGrid) -> None:
    meta_bytes = json.dumps(grid.meta, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(grid.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FGRD_MAGIC)
        fh.write(struct.pack("<IIII", FILE_VERSION, grid.height, grid.width, grid.dim))
        fh.write(data.tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)


def _read_header(path, raw, magic, fields, what):
    """The u32 header fields after `magic`; FileFormatError naming the file
    unless `raw` starts with the magic, holds the whole header and has
    the supported version."""
    if raw[:4] != magic:
        raise FileFormatError(f"{path}: not a {what} file")
    if len(raw) < 4 + 4 * fields:
        raise FileFormatError(f"{path}: truncated header")
    version, *header = struct.unpack_from(f"<{fields}I", raw, 4)
    if version != FILE_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    return header


def read_feature_grid(path) -> FeatureGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    height, width, dim = _read_header(path, raw, FGRD_MAGIC, 4, "feature grid")
    offset = 20
    count = height * width * dim
    end = offset + 4 * count
    if len(raw) < end + 4:
        raise FileFormatError(f"{path}: truncated feature grid")
    (meta_len,) = struct.unpack_from("<I", raw, end)
    meta_raw = raw[end + 4:]
    if len(meta_raw) != meta_len:
        raise FileFormatError(f"{path}: {len(meta_raw)} metadata bytes, expected {meta_len}")
    try:
        meta = json.loads(meta_raw.decode("utf-8")) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FileFormatError(f"{path}: metadata is not UTF-8 JSON ({err})") from None
    if not isinstance(meta, dict):
        raise FileFormatError(f"{path}: metadata is not a JSON object")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    try:
        return FeatureGrid(data=data.reshape(height, width, dim), meta=meta)
    except ConfigError as err:
        raise err.annotate(path) from None


def write_depth_mask(path, mask: DepthMask) -> None:
    data = np.ascontiguousarray(mask.depth, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(DPTH_MAGIC)
        fh.write(struct.pack("<III", FILE_VERSION, mask.height, mask.width))
        fh.write(data.tobytes())


def read_depth_mask(path) -> DepthMask:
    with open(path, "rb") as fh:
        raw = fh.read()
    height, width = _read_header(path, raw, DPTH_MAGIC, 3, "depth")
    count = height * width
    if len(raw) != 16 + 4 * count:
        raise FileFormatError(f"{path}: wrong payload size")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=16)
    return DepthMask(depth=data.reshape(height, width).astype(np.float64))
