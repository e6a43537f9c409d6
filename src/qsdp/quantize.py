"""Stochastic quantization primitives.

Two kernels that take their draws from the caller, `shift_round` (random-shift
lattice rounding, rint((a - r) / pitch)) and `flip_round` (unbiased randomized
rounding, floor(a + u)), hold the rounding arithmetic of the two lattice
quantizers, bucketed min-max quantization for transport and the optimizer's
lattice snap.  The codec scales a bucket to (v - lo) * top / span and applies
either kernel at resolution 1.  These rules replaced floor(a) + (u < frac(a))
and a [0, 1]-normalized codec: same draws, other codes (README, Determinism).
Gradient-descent-optimized level tables serve the learned-levels experiment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "BucketSpec",
    "shift_round",
    "flip_round",
    "QuantizedBlock",
    "LevelTable",
    "qshift_scalar",
    "qshift_quantize",
    "qflip_quantize",
    "dequantize",
    "quantize_bucket",
    "bucketed_quantize",
    "Segment",
    "quantize_segment",
    "dequantize_segment",
    "uniform_stochastic_quantize",
    "learn_levels",
    "quantize_with_levels",
    "sample_shift",
]

INNER_MODES = ("shift", "uniform_stochastic")


def _check_finite(v: np.ndarray, what: str = "value") -> None:
    if math.isfinite(np.add.reduce(v, axis=None)):  # a finite sum has finite terms
        return
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"non-finite {what} at index {bad[0]}: {v[bad[0]]!r}")


@dataclass(frozen=True)
class GridSpec:
    """A scalar lattice: multiples of `resolution` offset by `shift`."""

    resolution: float
    shift: float = 0.0

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError(f"resolution must be > 0, got {self.resolution}")
        half = self.resolution / 2
        if not (-half <= self.shift < half):
            raise ValueError(
                f"shift must lie in [-{half}, {half}), got {self.shift}"
            )


@dataclass(frozen=True)
class BucketSpec:
    """Fixed-size bucketing with independent min-max normalization."""

    bucket_size: int = 1024

    def __post_init__(self):
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")


@dataclass
class QuantizedBlock:
    """Wire-ready segment: unsigned codes on a 2**bit_width point grid.

    The grid spans [scale_lo, scale_hi] with pitch
    (scale_hi - scale_lo) / (2**bit_width - 1); reconstruction is
    ``scale_lo + code * pitch + shift``.  Scales and shift are stored as
    float32-exact values when produced by the bucketed transport path.
    """

    codes: np.ndarray
    shift: float
    scale_lo: float
    scale_hi: float
    bit_width: int
    length: int

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint32)
        if self.length <= 0:
            raise ValueError("block length must be positive")
        if self.codes.shape != (self.length,):
            raise ValueError(
                f"expected {self.length} codes, got shape {self.codes.shape}"
            )
        if not 1 <= self.bit_width <= 32:
            raise ValueError(f"bit_width must be in [1, 32], got {self.bit_width}")
        if self.codes.size and int(self.codes.max()) >= (1 << self.bit_width):
            raise ValueError(
                f"code out of range for bit_width {self.bit_width}"
            )
        if not self.scale_lo <= self.scale_hi:
            raise ValueError("scale_lo must be <= scale_hi")

    def __eq__(self, other):
        if not isinstance(other, QuantizedBlock):
            return NotImplemented
        return (
            self.length == other.length
            and self.bit_width == other.bit_width
            and self.shift == other.shift
            and self.scale_lo == other.scale_lo
            and self.scale_hi == other.scale_hi
            and np.array_equal(self.codes, other.codes)
        )


def sample_shift(resolution: float, rng: np.random.Generator) -> float:
    """Draw r uniformly from [-resolution/2, resolution/2)."""
    return float(rng.uniform(-resolution / 2, resolution / 2))


def shift_round(a, r, pitch, out=None):
    """Lattice indices rint((a - r) / pitch) of `a` on pitch * Z + r, ties to
    even.  `r` is the caller's shift, a float or an array broadcasting with `a`;
    writes into `out` when given, and scalar input gives a 0-d array."""
    out = np.asarray(np.subtract(a, r)) if out is None else np.subtract(a, r, out=out)
    if pitch != 1:  # dividing by 1 is exact, so the pass is skipped
        out /= pitch
    return np.rint(out, out=out)


def flip_round(a, u):
    """Round the float array `a` in place to floor(a + u).
    With draws `u` uniform on [0, 1), shaped as `a`, a value rounds up with
    probability its fractional part, so the expectation equals the input."""
    a += u
    return np.floor(a, out=a)


def qshift_scalar(x, grid: GridSpec):
    """Round to the nearest point of the shifted lattice.

    Ties at half-pitch break to the even multiple (numpy rounding).
    Accepts scalars or arrays.
    """
    d, r = grid.resolution, grid.shift
    out = d * shift_round(np.asarray(x, dtype=float), r, d) + r
    return float(out) if np.isscalar(x) else out


def _offset_block(k: np.ndarray, resolution: float, shift: float) -> QuantizedBlock:
    """Pack signed lattice indices into an unsigned-code block."""
    k0 = int(k.min())
    span = int(k.max()) - k0
    bit_width = max(1, span.bit_length())
    if bit_width > 32:
        raise ValueError("value spread too large for 32-bit codes")
    top = (1 << bit_width) - 1
    return QuantizedBlock(
        codes=(k - k0).astype(np.uint32),
        shift=shift,
        scale_lo=k0 * resolution,
        scale_hi=(k0 + top) * resolution,
        bit_width=bit_width,
        length=k.size,
    )


def _lattice_input(v, resolution: float, shift: float = 0.0) -> np.ndarray:
    """`v` as a non-empty, finite 1-D float array, for a valid lattice."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0:
        raise ValueError("cannot quantize an empty vector")
    GridSpec(resolution, shift)  # resolution > 0, shift within half a pitch
    _check_finite(v)
    return v


def qshift_quantize(
    v,
    resolution: float,
    rng: np.random.Generator,
    shift: float | None = None,
) -> QuantizedBlock:
    """Quantize with one random shift shared across all coordinates.

    A single r ~ Unif[-resolution/2, resolution/2) is drawn (or forced via
    `shift`), every coordinate is rounded to the nearest point of the
    shifted lattice, and the lattice indices are stored as codes.
    """
    v = _lattice_input(v, resolution, shift or 0.0)
    if shift is None:
        shift = sample_shift(resolution, rng)
    k = shift_round(v, shift, resolution).astype(np.int64)
    return _offset_block(k, resolution, shift)


def qflip_quantize(v, resolution: float, rng: np.random.Generator) -> QuantizedBlock:
    """Quantize each coordinate independently by randomized rounding.

    x rounds down to resolution*floor(x/resolution) with probability
    1 - frac(x/resolution), up otherwise; no shift is applied.
    """
    v = _lattice_input(v, resolution)
    k = flip_round(v / resolution, rng.random(v.size)).astype(np.int64)
    return _offset_block(k, resolution, 0.0)


def dequantize(block: QuantizedBlock) -> np.ndarray:
    """Reconstruct real values from a block: scale_lo + code * pitch + shift."""
    codes = np.asarray(block.codes)
    if codes.size and int(codes.max()) >= (1 << block.bit_width):
        raise ValueError(
            f"corrupted code >= 2**{block.bit_width} cannot be decoded"
        )
    return _values(codes, block.shift, block.scale_lo, block.scale_hi, block.bit_width)


class Segment(NamedTuple):
    """One message of consecutive buckets, held as whole arrays.

    `rows` holds the unsigned codes of the full buckets, one bucket per row;
    `tail` those of a shorter final bucket (empty when the bucket size divides
    the length).  `shift`, `scale_lo` and `scale_hi` hold one float32-exact
    float64 per bucket, full buckets first.  A message shorter than the
    bucket size is a single full row, which is how wire v1 frames it.
    """

    rows: np.ndarray
    tail: np.ndarray
    shift: np.ndarray
    scale_lo: np.ndarray
    scale_hi: np.ndarray
    bit_width: int

    @property
    def length(self) -> int:
        return self.rows.size + self.tail.size

    def blocks(self) -> list[QuantizedBlock]:
        """The segment as one QuantizedBlock per bucket."""
        codes = [*self.rows, self.tail] if self.tail.size else self.rows
        return [
            QuantizedBlock(c, shift, lo, hi, self.bit_width, c.size)
            for c, shift, lo, hi in zip(
                codes, self.shift.tolist(), self.scale_lo.tolist(), self.scale_hi.tolist()
            )
        ]


_NO_TAIL = np.zeros(0, np.uint32)  # the tail of a segment whose buckets are all full

# Values at or beyond this magnitude round to an infinite float32.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _reject_untransportable(v: np.ndarray) -> None:
    """Raise for the first value whose bucket metadata cannot be a float32."""
    _check_finite(v, "bucket value")
    i = int(np.flatnonzero(np.abs(v) >= _F32_OVERFLOW)[0])
    raise ValueError(
        f"bucket value at index {i}: {v[i]!r} is beyond the float32 range of "
        "the scale metadata"
    )


def _bucket_ends(x, v):
    """Float32-rounded minimum and maximum of each row of `x`, a 2-D view of
    segment `v`, as float64 arrays; raises for the first value of `v` that
    the float32 metadata cannot carry (NaN too), before anything is drawn."""
    ends = np.empty((2, x.shape[0]))
    np.minimum.reduce(x, axis=1, out=ends[0])
    np.maximum.reduce(x, axis=1, out=ends[1])
    if np.count_nonzero(np.abs(ends) < _F32_OVERFLOW) < ends.size:  # NaN too
        _reject_untransportable(v)
    ends = ends.astype(np.float32).astype(np.float64)
    return ends[0], ends[1]


def _draw(y, span, inner, rng):
    """The draws `_code` takes for `y`, from `rng`: one r ~ U[-1/2, 1/2) per
    bucket, shaped as `span` (shift), or one u ~ U[0, 1) per value, shaped as
    `y` (uniform_stochastic)."""
    if inner == "shift":
        return rng.uniform(-0.5, 0.5, size=np.shape(span))
    return rng.random(y.shape)


def _quantize_rows(x, v, bit_width, inner, rng):
    """Quantize each row of `x`, a 2-D view of segment `v`, as one bucket.

    Rows take draws from `rng` in order, and only non-degenerate rows draw,
    exactly as quantizing them one after another would.
    Returns (codes, shift, scale_lo, scale_hi).
    """
    lo, hi = _bucket_ends(x, v)
    live = lo != hi  # degenerate rows keep all-zero codes and no shift
    n_live = np.count_nonzero(live)
    if not n_live:
        return np.zeros(x.shape), np.zeros(x.shape[0]), lo, hi
    if n_live == live.size:
        y, l, h = x, lo, hi
    else:
        y, l, h = x[live], lo[live], hi[live]
    span = (h - l)[:, None]
    q, shift = _code(y, l[:, None], span, bit_width, inner, _draw(y, span, inner, rng))
    shift = np.ravel(shift) if inner == "shift" else np.zeros(n_live)
    if n_live == live.size:
        return q, shift, lo, hi
    codes = np.zeros(x.shape)
    codes[live] = q
    shifts = np.zeros(x.shape[0])
    shifts[live] = shift
    return codes, shifts, lo, hi


def _quantize_row(row, v, bit_width, inner, rng):
    """Quantize `row`, a 1-D view of segment `v`, as one bucket.

    The arithmetic of _quantize_rows with Python-float metadata, which
    keeps the many one-bucket messages of small vectors cheap.
    Returns (codes, shift, scale_lo, scale_hi).
    """
    lo, hi = np.minimum.reduce(row), np.maximum.reduce(row)
    if not (-_F32_OVERFLOW < lo and hi < _F32_OVERFLOW):  # NaN too
        _reject_untransportable(v)
    lo, hi = float(np.float32(lo)), float(np.float32(hi))
    if lo == hi:  # degenerate: all-zero codes, no shift and no draw
        return np.zeros(row.size), 0.0, lo, hi
    span = hi - lo
    codes, shift = _code(row, lo, span, bit_width, inner, _draw(row, span, inner, rng))
    return codes, float(shift), lo, hi


def _code_dtype(bit_width: int) -> np.dtype:
    """The narrowest little-endian unsigned type that holds the codes."""
    return np.dtype("<u1" if bit_width <= 8 else "<u2" if bit_width <= 16 else "<u4")


def _code(y, lo, span, bit_width, inner, draws):
    """Codes of `y` in buckets spanning [lo, lo + span], span > 0.

    `lo` and `span` are floats for one bucket, or columns that broadcast
    against `y`, one entry per bucket (rows of a 2-D or 3-D `y`).
    a = (y - lo) * top / span rounds at resolution 1 to rint(a - r), with
    the caller's `draws` r ~ U[-1/2, 1/2) shaped as `span` (shift), or to
    floor(a + u), with `draws` u ~ U[0, 1) shaped as `y`
    (uniform_stochastic), then clips to [0, top].  Returns (float64 codes,
    shift): shift = r * span / top, float32-exact and shaped as `span`, or
    0.0 for uniform_stochastic.
    """
    top = (1 << bit_width) - 1
    a = y - lo
    a *= top / span
    if inner == "shift":
        shift = (draws * span / top).astype(np.float32).astype(np.float64)
        shift_round(a, draws, 1, out=a)
    else:
        shift = 0.0
        flip_round(a, draws)
    np.maximum(a, 0.0, out=a)  # np.clip without its per-call overhead
    return np.minimum(a, top, out=a), shift


def quantize_segment(
    v,
    bucket_size: int,
    bit_width: int,
    inner: str,
    rng: np.random.Generator,
) -> Segment:
    """Min-max quantize consecutive buckets of `v` as one segment.

    Each bucket is scaled to [0, 2**bit_width - 1] by its own float32-rounded
    minimum and maximum and rounded onto the integer grid by `inner`:
    "shift" (nearest point after one random shift per bucket, for weights)
    or "uniform_stochastic" (unbiased per-value rounding, for gradients).
    Either way the segment decodes from its own fields alone.  A degenerate
    bucket (all values equal) gets all-zero codes and decodes to the constant
    exactly.  The buckets draw from `rng` in order, so the result equals
    quantizing them one at a time from the same generator.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        v = v.ravel()
    if v.size == 0:
        raise ValueError("cannot quantize an empty vector")
    if inner not in INNER_MODES:
        raise ValueError(f"unknown inner mode {inner!r}")
    if not 1 <= bit_width <= 32:
        raise ValueError(f"bit_width must be in [1, 32], got {bit_width}")
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    size = min(bucket_size, v.size)
    k, tail_len = divmod(v.size, size)
    dtype = _code_dtype(bit_width)  # the wire's, so encoding casts nothing
    if k > 1:
        rows = v[: k * size].reshape(k, size)
        codes, shift, lo, hi = _quantize_rows(rows, v, bit_width, inner, rng)
    else:
        row, shift, lo, hi = _quantize_row(v[:size], v, bit_width, inner, rng)
        codes, shift, lo, hi = row[None], np.array([shift]), np.array([lo]), np.array([hi])
    if not tail_len:
        return Segment(codes.astype(dtype), _NO_TAIL, shift, lo, hi, bit_width)
    tail, *tail_meta = _quantize_row(v[k * size :], v, bit_width, inner, rng)
    meta = [np.append(a, t) for a, t in zip((shift, lo, hi), tail_meta)]
    return Segment(codes.astype(dtype), tail.astype(dtype), *meta, bit_width)


def dequantize_segment(seg: Segment) -> np.ndarray:
    """Reconstruct every value of a segment, as `dequantize` does per block."""
    k = seg.rows.shape[0]
    if k == 1 and not seg.tail.size:  # one bucket, as a message no longer than it
        meta = seg.shift.item(), seg.scale_lo.item(), seg.scale_hi.item()
        return _values(seg.rows[0], *meta, seg.bit_width)
    meta = seg.shift[:k, None], seg.scale_lo[:k, None], seg.scale_hi[:k, None]
    out = _values(seg.rows, *meta, seg.bit_width).ravel()
    if not seg.tail.size:
        return out
    meta = seg.shift[k].item(), seg.scale_lo[k].item(), seg.scale_hi[k].item()
    return np.concatenate((out, _values(seg.tail, *meta, seg.bit_width)))


def _roundtrip(v, bucket_size, bit_width, inner, rng):
    """dequantize_segment(quantize_segment(v, ...)) bit for bit, for a
    non-empty 1-D float array `v`, without building the Segment."""
    size = min(bucket_size, v.size)
    k, tail_len = divmod(v.size, size)
    if k > 1:
        codes, *meta = _quantize_rows(v[: k * size].reshape(k, size), v, bit_width, inner, rng)
        out = _values(codes, *(m[:, None] for m in meta), bit_width).ravel()
    else:
        out = _values(*_quantize_row(v[:size], v, bit_width, inner, rng), bit_width)
    if not tail_len:
        return out
    tail = _values(*_quantize_row(v[k * size :], v, bit_width, inner, rng), bit_width)
    return np.concatenate((out, tail))


def _roundtrip_draws(v, count, bucket_size, bit_width, rng):
    """`count` successive `_roundtrip(v, bucket_size, bit_width,
    "uniform_stochastic", rng)` results as the rows of one (count, v.size)
    array, bit for bit and draw for draw.

    Every call sees the same buckets, so each draws one uniform per value
    of its live buckets, bucket by bucket and the tail last, and a
    degenerate bucket draws nothing; rng.random((count, m)) yields the m
    draws of all `count` calls in that order.  Untransportable values raise
    before anything is drawn.
    """
    size = min(bucket_size, v.size)
    k = v.size // size
    buckets = [v[: k * size].reshape(k, size)]
    if v.size > k * size:
        buckets.append(v[k * size :][None])
    ends = [_bucket_ends(x, v) for x in buckets]
    live = [lo != hi for lo, hi in ends]
    widths = [np.count_nonzero(l) * x.shape[1] for x, l in zip(buckets, live)]
    u = rng.random((count, sum(widths)))
    out, col = [], 0
    for x, (lo, hi), l, width in zip(buckets, ends, live, widths):
        codes = np.zeros((count, *x.shape))
        if width:
            y = np.broadcast_to(x[l], (count, width // x.shape[1], x.shape[1]))
            draws = u[:, col : col + width].reshape(y.shape)
            span = (hi[l] - lo[l])[:, None]
            codes[:, l], _ = _code(y, lo[l][:, None], span, bit_width,
                                   "uniform_stochastic", draws)
            col += width
        out.append(_values(codes, 0.0, lo[:, None], hi[:, None], bit_width))
    return np.concatenate([o.reshape(count, -1) for o in out], axis=1)


def _values(codes, shift, lo, hi, bit_width):
    """Values of `codes` in buckets spanning [lo, hi], plus `shift`.

    The metadata are floats for one bucket, or (buckets, 1) columns for the
    rows of a 2-D `codes`, as in `_code`.  Float64 codes are overwritten.
    """
    out = codes.astype(np.float64, copy=False)
    out *= (hi - lo) / ((1 << bit_width) - 1)
    out += lo
    # lo + code * pitch is never -0.0, so adding a zero shift is the identity
    if shift if isinstance(shift, float) else np.count_nonzero(shift):
        out += shift
    return out


def quantize_bucket(
    values: np.ndarray,
    bit_width: int,
    inner: str,
    rng: np.random.Generator,
) -> QuantizedBlock:
    """Min-max scale one bucket onto its code grid and quantize it.

    Degenerate buckets (all values equal) encode all-zero codes with
    scale_lo == scale_hi and decode to the constant exactly.
    """
    values = np.asarray(values, dtype=float)
    seg = quantize_segment(values, values.size, bit_width, inner, rng)
    return seg.blocks()[0]


def bucketed_quantize(
    v,
    bucket: BucketSpec,
    bit_width: int,
    inner: str = "shift",
    rng: np.random.Generator | None = None,
) -> list[QuantizedBlock]:
    """Split into consecutive buckets and quantize each independently.

    Each bucket gets its own min-max scales and, for shift mode, its own
    independently drawn shift.  The final bucket may be short.
    """
    if not 1 <= bit_width <= 16:
        raise ValueError(f"bit_width must be in [1, 16], got {bit_width}")
    if rng is None:
        rng = np.random.default_rng()
    seg = quantize_segment(v, bucket.bucket_size, bit_width, inner, rng)
    return seg.blocks()


def uniform_stochastic_quantize(
    v, bit_width: int, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased randomized rounding onto the uniform grid over [0, 1].

    A value lands on the far endpoint of its cell with probability
    proportional to its distance from the near one, so the expectation
    equals the input.  Entries outside [0, 1] are rejected.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    _check_finite(v)
    bad = np.flatnonzero((v < 0.0) | (v > 1.0))
    if bad.size:
        raise ValueError(
            f"entry outside normalized interval [0, 1] at index {bad[0]}: {v[bad[0]]}"
        )
    top = (1 << bit_width) - 1  # floor(top + u) may round up to top + 1
    return np.minimum(flip_round(v * top, rng.random(v.shape)), top).astype(np.uint32)


@dataclass
class LevelTable:
    """Strictly increasing quantization levels; count is a power of two."""

    levels: np.ndarray

    def __post_init__(self):
        self.levels = np.ascontiguousarray(self.levels, dtype=float)
        n = self.levels.size
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"level count must be a power of two, got {n}")
        if n > 1 and not np.all(np.diff(self.levels) > 0):
            raise ValueError("levels must be strictly increasing")

    @property
    def bit_width(self) -> int:
        return int(self.levels.size).bit_length() - 1

    @classmethod
    def uniform(cls, bit_width: int, lo: float = 0.0, hi: float = 1.0) -> "LevelTable":
        return cls(np.linspace(lo, hi, 1 << bit_width))


def learn_levels(
    values, initial: LevelTable, learning_rate: float = 0.01
) -> LevelTable:
    """One pass of gradient descent on the level locations.

    For each value in order, the closest level moves toward it by
    learning_rate * (level - value).  Levels are re-sorted afterwards if the
    pass broke monotonicity; the level multiset is otherwise preserved.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("cannot learn levels from an empty value set")
    _check_finite(values)
    q = initial.levels.copy()
    if np.unique(values).size < q.size:
        warnings.warn(
            "fewer distinct values than levels; returning the initial table",
            RuntimeWarning,
        )
        return LevelTable(q)
    for x in values:
        i = int(np.abs(q - x).argmin())
        q[i] -= learning_rate * (q[i] - x)
    if np.any(np.diff(q) <= 0):
        q.sort()
        dup = np.flatnonzero(np.diff(q) <= 0)
        if dup.size:
            # exact collisions are rare; nudge so the table stays valid
            eps = max(np.ptp(q), 1.0) * 1e-12
            for j in dup:
                q[j + 1] = q[j] + eps
    return LevelTable(q)


def quantize_with_levels(v, table: LevelTable) -> np.ndarray:
    """Indices of the nearest levels, clamping outside the table's span."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    q = table.levels
    v = np.clip(v, q[0], q[-1])
    if q.size == 1:
        return np.zeros(v.size, dtype=np.uint32)
    mids = (q[:-1] + q[1:]) / 2
    return np.searchsorted(mids, v, side="left").astype(np.uint32)
