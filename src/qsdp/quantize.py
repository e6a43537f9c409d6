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
import struct
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


def _all_finite(v: np.ndarray) -> bool:
    """Whether every value of the float array `v` is finite."""
    # a finite sum has finite terms; scan only when the sum is not finite
    return math.isfinite(np.add.reduce(v, None)) or bool(np.isfinite(v).all())


def _check_finite(v: np.ndarray, what: str = "value") -> None:
    if not _all_finite(v):
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"non-finite {what} at index {i}: {float(v.flat[i])}")


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
    return _values(codes, block.shift, block.scale_lo, block.scale_hi, block.bit_width,
                   np.empty(codes.size))


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


# Values at or beyond this magnitude round to an infinite float32.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _reject_untransportable(v: np.ndarray) -> None:
    """Raise for the first value whose bucket metadata cannot be a float32."""
    _check_finite(v, "bucket value")
    i = int(np.flatnonzero(np.abs(v) >= _F32_OVERFLOW)[0])
    raise ValueError(
        f"bucket value at index {i}: {float(v[i])} is beyond the float32 range of "
        "the scale metadata"
    )


def _layout(length: int, bucket_size: int) -> tuple[int, int, int]:
    """Wire v1's buckets of `length` values as (size, k, tail): k full buckets
    of `size` values, then a shorter tail of `tail` values (0 for none)."""
    size = min(bucket_size, length) or 1  # a shorter message is one full bucket
    return (size, *divmod(length, size))


def _groups(v, bucket_size):
    """The buckets of the 1-D array `v` as one or two groups: the full ones,
    as rows of a 2-D view (a 1-D view if there is one), then any tail."""
    size, k, tail = _layout(v.size, bucket_size)
    full = v[: k * size].reshape(k, size) if k > 1 else v[:size]
    return (full, v[k * size :]) if tail else (full,)


def _ends(x, v):
    """Float32-rounded (lo, hi) of each bucket of the group `x` of `v`, floats
    for a 1-D `x` (cheap for the many one-bucket messages), else one entry
    per row.  Raises for the first value of `v` that float32 metadata cannot
    carry (NaN too)."""
    if x.ndim == 1:
        lo, hi = np.minimum.reduce(x), np.maximum.reduce(x)
        if not (-_F32_OVERFLOW < lo and hi < _F32_OVERFLOW):  # NaN too
            _reject_untransportable(v)
        return np.array((lo, hi), np.float32).tolist()
    ends = np.empty((2, x.shape[0]))
    np.minimum.reduce(x, axis=1, out=ends[0])
    np.maximum.reduce(x, axis=1, out=ends[1])
    if np.count_nonzero(np.abs(ends) < _F32_OVERFLOW) < ends.size:  # NaN too
        _reject_untransportable(v)
    return ends.astype(np.float32).astype(np.float64)


def _quantize_pass(v, bucket_size, bit_width, inner, rng):
    """`v` as the 1-D float array of one message, and `_code` of each of its
    groups.  Every argument and value is checked before anything is drawn.
    Each group then draws for its buckets in order, one r ~ U[-1/2, 1/2) per
    bucket (shift) or one u ~ U[0, 1) per value (uniform_stochastic), which
    equals drawing bucket by bucket."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot quantize an empty vector")
    if inner not in INNER_MODES:
        raise ValueError(f"unknown inner mode {inner!r}")
    if not 1 <= bit_width <= 32:
        raise ValueError(f"bit_width must be in [1, 32], got {bit_width}")
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    if v.size <= bucket_size:  # one bucket: nothing to split
        return v, (_code(v, *_ends(v, v), rng, bit_width, inner),)
    groups = _groups(v, bucket_size)
    ends = [_ends(x, v) for x in groups]  # checks every value first
    return v, tuple(_code(x, *e, rng, bit_width, inner) for x, e in zip(groups, ends))


class _RowBuffer:
    """numpy's ufunc buffer cut to whole rows (in multiples of 16) of the (k, row) group `x`:
    no broadcast (k, 1) operand is copied into a longer buffer (3x at (64, 1024)), and no
    value changes.  numpy 1.x does not scope it, so the caller's size is put back."""

    def __init__(self, x):
        self.row = x.shape[1] if x.ndim == 2 else 0

    def __enter__(self):
        row = self.row
        self.saved = np.setbufsize(row - row % 16) if 16 <= row < np.getbufsize() else 0

    def __exit__(self, *exc):
        if self.saved:
            np.setbufsize(self.saved)


def _code_dtype(bit_width: int) -> np.dtype:
    """The narrowest little-endian unsigned type that holds the codes."""
    return np.dtype("<u1" if bit_width <= 8 else "<u2" if bit_width <= 16 else "<u4")


def _code(x, lo, hi, rng, bit_width, inner):
    """(float64 codes, shift, lo, hi) of the group `x` from its `_ends` lo and
    hi, drawing from `rng`; the codes are whole numbers in [0, top].

    A bucket scales to a = (x - lo) * top / span, or to 0 if span is 0, and
    rounds to rint(a - r) with its draw r (shift), or to floor(a + u) with a
    draw u per value (uniform_stochastic), then clips to [0, top]; its shift
    is the float32-exact r * span / top + 0.0, or 0.  So a degenerate bucket
    draws as any other, and gets all-zero codes and a +0.0 shift.
    """
    top = (1 << bit_width) - 1
    with _RowBuffer(x):
        if x.ndim == 1:
            span = hi - lo
            a = x - lo
            a *= top / span if span else 0.0
        else:
            span = (hi - lo)[:, None]
            a = x - lo[:, None]
            a *= np.divide(top, span, out=np.zeros(span.shape), where=span > 0)
        if inner == "shift":
            r = rng.uniform(-0.5, 0.5) if x.ndim == 1 else rng.uniform(-0.5, 0.5, span.shape)
            shift = np.float32(r * span / top + 0.0).astype(np.float64)  # never -0.0
            shift_round(a, r, 1, out=a)
        else:
            shift = 0.0
            flip_round(a, rng.random(x.shape))
        codes = a.clip(0, top, out=a)  # one pass; a -0.0 stays, and casts to code 0
    if x.ndim == 1:
        return codes, float(shift), lo, hi
    return codes, shift[:, 0] if inner == "shift" else np.zeros(len(x)), lo, hi


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
    exactly.  Every value is checked before anything is drawn, and the
    buckets, degenerate ones too, draw from `rng` in order, so the result
    equals quantizing them one at a time from the same generator.
    """
    _, coded = _quantize_pass(v, bucket_size, bit_width, inner, rng)
    dtype = _code_dtype(bit_width)  # the wire's, so encoding casts nothing
    codes = [group[0].astype(dtype) for group in coded]
    tail = codes[1] if len(codes) > 1 else np.zeros(0, dtype)
    meta = [np.hstack(m) for m in zip(*(group[1:] for group in coded))]  # floats for 1-D groups
    return Segment(codes[0].reshape(-1, codes[0].shape[-1]), tail, *meta, bit_width)


def dequantize_segment(seg: Segment, out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a segment's values as `dequantize` does per block, into `out` if given."""
    (k, size), shift, lo, hi = seg.rows.shape, seg.shift, seg.scale_lo, seg.scale_hi
    out = np.empty(seg.length) if out is None else out
    if k == 1:  # one bucket: float metadata, as `_code` gives it
        _values(seg.rows[0], shift.item(0), lo.item(0), hi.item(0), seg.bit_width, out[:size])
    else:
        _values(seg.rows, shift[:k], lo[:k], hi[:k], seg.bit_width, out[: k * size])
    if seg.tail.size:
        _values(seg.tail, shift.item(k), lo.item(k), hi.item(k), seg.bit_width, out[k * size :])
    return out


# A one-bucket message of at most this many values round-trips in Python
# floats.  Measured with numpy 2.4.6 on CPython 3.11: the array path costs a
# flat 9.0-9.2 us from 4 to 64 values, the scalar path ~2.2 us plus ~0.22 us
# a value, so the two cross near 32.  The converge gradients (4 values) run
# scalar; transport shards (160 values and up) keep the array path.
_SCALAR_MAX = 16
_F32 = struct.Struct("<f")
_F32_PAIR = struct.Struct("<2f")


def _roundtrip(v, bucket_size, bit_width, inner, rng):
    """dequantize_segment(quantize_segment(v, ...)), for a non-empty 1-D float
    array `v`, value by value for a short one-bucket message."""
    if v.size <= min(bucket_size, _SCALAR_MAX):
        return _scalar_roundtrip(v, bit_width, inner, rng)
    return dequantize_segment(quantize_segment(v, bucket_size, bit_width, inner, rng))


def _scalar_roundtrip(v, bit_width, inner, rng):
    """`_roundtrip` of a one-bucket message, value by value: the operations
    of `_ends`, `_code` and `_values`, in their order and with their draws.
    struct's float32 packing rounds to nearest even as numpy's cast does, and
    `round` ties to even as `np.rint` does."""
    xs = v.tolist()
    lo, hi = min(xs), max(xs)
    # min and max skip a NaN that is not first, but a sum of so few values
    # inside the float32 range is finite only if every value is
    if not (-_F32_OVERFLOW < lo and hi < _F32_OVERFLOW and math.isfinite(sum(xs))):
        _reject_untransportable(v)
    lo, hi = _F32_PAIR.unpack(_F32_PAIR.pack(lo, hi))
    top = (1 << bit_width) - 1
    span = hi - lo
    scale = top / span if span else 0.0
    if inner == "shift":
        r = rng.uniform(-0.5, 0.5)
        (shift,) = _F32.unpack(_F32.pack(r * span / top + 0.0))  # never -0.0
        codes = [round((x - lo) * scale - r) for x in xs]
    else:
        shift = 0.0
        u = rng.random(len(xs)).tolist()
        codes = [math.floor((x - lo) * scale + d) for x, d in zip(xs, u)]
    pitch = span / top
    values = [(0 if c < 0 else c if c < top else top) * pitch + lo for c in codes]
    if shift:
        values = [x + shift for x in values]
    return np.array(values)


def _values(codes, shift, lo, hi, bit_width, out):
    """Write lo + code * pitch + shift of one group's unsigned codes into `out`, a float64
    array of their size, and return it shaped as the codes.  Each bucket spans [lo, hi];
    the metadata are floats for a 1-D group, else one entry per row of codes."""
    pitch = (hi - lo) / ((1 << bit_width) - 1)
    out = out.reshape(codes.shape)
    with _RowBuffer(codes):
        if codes.ndim == 2:
            shift, lo, pitch = shift[:, None], lo[:, None], pitch[:, None]
        np.multiply(codes, pitch, out=out)
        out += lo
        # lo + code * pitch is never -0.0, so adding a zero shift is the identity
        if shift if codes.ndim == 1 else np.count_nonzero(shift):
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
