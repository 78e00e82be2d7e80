"""Dense feature grids and keypoint matching.

A FeatureGrid holds one descriptor per pixel. A reference descriptor is
formed by averaging a small window around the annotated pixel, a cosine
similarity map is computed against every valid pixel of the target grid,
and the match is read off either as the argmax pixel or as the
soft-argmax (softmax-weighted expectation of pixel coordinates).

Binary file layouts (all little-endian):

  .fgrd   magic "FGRD", u32 version=1, u32 height, u32 width, u32 dim,
          height*width*dim float32 row-major (pixel-major, descriptor-minor),
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


@dataclass
class FeatureGrid:
    """Per-pixel descriptor array of shape (height, width, dim). The public
    constructor checks every value is finite; `_built` checks new ones."""

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ConfigError(f"feature grid must be 3D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("feature grid contains non-finite values")

    @classmethod
    def _built(cls, data, meta, written) -> "FeatureGrid":
        """Trusted grid: the rows of 3-D `data` are zeros or from a checked
        grid, but for those just cast from float64 `written`. The cast is
        monotone and NaN propagates, so they are all finite iff the cast
        minimum and maximum are."""
        if written.size:
            with np.errstate(over="ignore"):
                ends = np.array([written.min(), written.max()]).astype(data.dtype)
            if not np.isfinite(ends).all():
                raise ConfigError("feature grid contains non-finite values")
        grid = cls.__new__(cls)
        grid.data, grid.meta = data, meta
        return grid

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


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


@dataclass
class SimilarityMap:
    """Cosine scores per pixel plus the valid-candidate mask, and the
    candidates' ascending flat indices and scores, which the matchers read
    (derived here for a map built from `score` and `valid` alone)."""

    score: np.ndarray
    valid: np.ndarray
    candidates: np.ndarray = field(default=None, repr=False, compare=False)
    candidate_scores: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.candidates is None:
            self.candidates = np.flatnonzero(self.valid)
            self.candidate_scores = np.ravel(self.score)[self.candidates]

    @property
    def height(self) -> int:
        return self.score.shape[0]

    @property
    def width(self) -> int:
        return self.score.shape[1]


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


def _window(u, v, radius, width, height):
    """(u0, u1, v0, v1): inclusive bounds of the (2r+1)^2 window around
    pixel (u, v), clipped to a width x height image."""
    return (max(u - radius, 0), min(u + radius, width - 1),
            max(v - radius, 0), min(v + radius, height - 1))


def window_average(grid: FeatureGrid, u: int, v: int,
                   radius: int = MatchConfig.window_radius) -> np.ndarray:
    """Mean descriptor over a (2r+1)^2 window clipped to the image bounds."""
    if radius < 0:
        raise ConfigError("window radius must be >= 0")
    u = int(u)
    v = int(v)
    if not (0 <= u < grid.width and 0 <= v < grid.height):
        raise OutOfBounds(f"pixel ({u}, {v}) outside {grid.width}x{grid.height} grid")
    u0, u1, v0, v1 = _window(u, v, radius, grid.width, grid.height)
    window = grid.data[v0:v1 + 1, u0:u1 + 1].astype(np.float64)
    return window.reshape(-1, grid.dim).mean(axis=0)


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
            u0, u1, v0, v1 = _window(u, v, radius, width, height)
            rows = np.arange(v0, v1 + 1, dtype=np.int64)[:, None] * width
            flat.append((rows + np.arange(u0, u1 + 1, dtype=np.int64)).ravel())
    return np.unique(np.concatenate(flat))


def cosine_map(ref_desc, target: FeatureGrid, mask: DepthMask) -> SimilarityMap:
    """Cosine similarity of a reference descriptor against every valid pixel.

    Pixels with invalid depth or zero-norm descriptors are excluded from
    the candidate set. Only those candidate rows are scored, one float64
    dot product each, and scattered into the full-size map; scores are
    computed per pixel independently, so the result does not depend on
    evaluation order. The map keeps the candidates for the matchers.
    """
    ref = np.asarray(ref_desc, dtype=np.float64).reshape(-1)
    if ref.shape[0] != target.dim:
        raise DimMismatch(f"descriptor dim {ref.shape[0]} != grid dim {target.dim}")
    if (mask.height, mask.width) != (target.height, target.width):
        raise DimMismatch("depth mask dimensions do not match the feature grid")
    idx, rows, norms = _grid_cache(target, mask)
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm <= 0:
        raise ZeroReferenceDescriptor("reference descriptor has zero norm")
    scores = (rows @ ref) / (norms * ref_norm)
    score = np.zeros(mask.depth.size, dtype=np.float64)
    score[idx] = scores
    valid = np.zeros(mask.depth.size, dtype=bool)
    valid[idx] = True
    return SimilarityMap(score=score.reshape(mask.depth.shape),
                         valid=valid.reshape(mask.depth.shape),
                         candidates=idx, candidate_scores=scores)


def _grid_cache(grid: FeatureGrid, mask: DepthMask):
    """Flat indices, float64 rows and norms of the grid's candidate pixels
    under `mask`, cached for the last mask used (grids and masks are
    treated as immutable)."""
    cache = getattr(grid, "_cosine_cache", None)
    if cache is None or cache[0] is not mask:
        idx = np.flatnonzero(mask.valid)
        rows = grid.data.reshape(-1, grid.dim)[idx].astype(np.float64)
        norms = np.sqrt(np.einsum("nd,nd->n", rows, rows))
        keep = norms > 0
        cache = (mask, idx[keep], rows[keep], norms[keep])
        grid._cosine_cache = cache
    return cache[1:]


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
        return FeatureGrid(data=data.reshape(height, width, dim).copy(), meta=meta)
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
