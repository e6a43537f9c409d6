"""The segment codec against a per-bucket oracle, and the decoder's input
checks.

The oracle (`oracles._oracle_bucket` and `_oracle_message`) is the
per-bucket quantize, encode and dequantize loop the segment codec replaced,
kept apart so the comparison does not depend on the code under test.
"""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsdp.optimizer import UniformStochasticGradientQuantizer
from qsdp.quantize import (
    _SCALAR_MAX,
    BucketSpec,
    QuantizedBlock,
    _roundtrip,
    bucketed_quantize,
    dequantize,
    dequantize_segment,
    qflip_quantize,
    qshift_quantize,
    quantize_bucket,
    quantize_segment,
    uniform_stochastic_quantize,
)
from qsdp.wire import (
    DecodeError,
    EncodeError,
    decode,
    decode_segment,
    dequantize_message,
    encode,
    encode_segment,
    quantize_message,
)

from oracles import _oracle_bucket, _oracle_message

INNERS = ("shift", "uniform_stochastic")


@st.composite
def _messages(draw):
    """(values, bucket size, bit width, inner mode, generator seed)."""
    n = draw(st.integers(1, 3000))
    bucket = draw(
        st.one_of(st.integers(1, 40), st.integers(1, 1100), st.integers(n, n + 50))
    )
    bits = draw(st.integers(1, 16))
    inner = draw(st.sampled_from(INNERS))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e6, 1e30]))
    v = np.random.default_rng(seed).standard_normal(n) * scale
    every = draw(st.integers(0, 3))  # make every `every`-th bucket constant
    if every:
        for start in range(0, n, bucket * every):
            v[start : start + bucket] = v[start]
    return v, bucket, bits, inner, seed


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_segment_codec_matches_per_bucket_oracle(message):
    v, bucket, bits, inner, seed = message
    want_bytes, want_values = _oracle_message(
        v, bucket, bits, inner, np.random.default_rng(seed)
    )
    seg = quantize_segment(v, bucket, bits, inner, np.random.default_rng(seed))
    data = encode_segment(seg)
    assert data == want_bytes
    assert _same_bits(dequantize_segment(decode_segment(data)), want_values)
    # the public block-list edge is the same codec
    rng = np.random.default_rng(seed)
    blocks = bucketed_quantize(v, BucketSpec(bucket), bits, inner, rng)
    assert encode(blocks) == want_bytes
    got = np.concatenate([dequantize(b) for b in decode(want_bytes)])
    assert _same_bits(got, want_values)


# -- the transport's writer and reader ------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_messages())
@example((np.array([-3.4028235e38, 3.4028235e38] * 600), 2, 1, "shift", 0))  # |shift| ~ f32 max
def test_quantize_message_is_encode_segment_of_quantize_segment(message):
    v, bucket, bits, inner, seed = message
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = quantize_message(v, bucket, bits, inner, rng)
    assert bytes(data) == encode_segment(quantize_segment(v, bucket, bits, inner, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_messages(), st.integers(0, 5))
def test_dequantize_message_writes_the_segment_values_into_its_slice_alone(message, offset):
    v, bucket, bits, inner, seed = message
    data = bytes(quantize_message(v, bucket, bits, inner, np.random.default_rng(seed)))
    dest = np.full(v.size + 10, np.pi)
    got = dequantize_message(data, dest[offset : offset + v.size])
    assert np.shares_memory(got, dest)  # written in place
    assert _same_bits(dest[offset : offset + v.size], dequantize_segment(decode_segment(data)))
    assert np.all(dest[:offset] == np.pi) and np.all(dest[offset + v.size :] == np.pi)


def test_dequantize_message_refuses_a_destination_of_another_length():
    data = quantize_message(np.arange(10.0), 4, 8, "shift", np.random.default_rng(0))
    for n in (9, 11):
        with pytest.raises(DecodeError, match=f"message of 10 values for {n} destination"):
            dequantize_message(data, np.empty(n))


class _RaisingDraws:
    """A generator stand-in whose every draw raises."""

    def random(self, *args):
        raise RuntimeError("draw failed")

    uniform = random


# (values, bucket size): 1024-wide rows as the transport sends them, rows of
# 20 (a 16-value buffer) with a tail, and rows narrower than 16
_BUFFER_LAYOUTS = [
    (np.random.default_rng(1).standard_normal(16 * 1024), 1024),
    (np.random.default_rng(2).standard_normal(1010), 20),
    (np.random.default_rng(3).standard_normal(100), 7),
]


@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("bits", [3, 8])
def test_the_codec_leaves_the_callers_buffer_size_and_its_output_alone(inner, bits):
    saved = np.getbufsize()
    outputs = []
    try:
        for size in (16, 8192, 65536):
            np.setbufsize(size)
            for v, bucket in _BUFFER_LAYOUTS:
                data = quantize_message(v, bucket, bits, inner, np.random.default_rng(0))
                assert np.getbufsize() == size
                values = dequantize_message(data, np.empty(v.size))
                assert np.getbufsize() == size
                with pytest.raises(RuntimeError, match="draw failed"):
                    quantize_message(v, bucket, bits, inner, _RaisingDraws())
                assert np.getbufsize() == size
                outputs.append((bytes(data), values.tobytes()))
    finally:
        np.setbufsize(saved)
    n = len(_BUFFER_LAYOUTS)
    assert outputs[:n] == outputs[n : 2 * n] == outputs[2 * n :]


@settings(max_examples=50, deadline=None)
@given(_messages())
def test_quantize_bucket_is_a_one_bucket_segment(message):
    v, _, bits, inner, seed = message
    block = quantize_bucket(v, bits, inner, np.random.default_rng(seed))
    codes, shift, lo, hi = _oracle_bucket(v, bits, inner, np.random.default_rng(seed))
    assert block == QuantizedBlock(codes, shift, lo, hi, bits, v.size)


# -- the transport against the paper's quantizers ------------------------------


def _lattice_indices(block, resolution):
    """Signed lattice indices of a `qshift_quantize`/`qflip_quantize` block."""
    return block.codes.astype(np.int64) + round(block.scale_lo / resolution)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 2000),
    st.integers(1, 16),
    st.sampled_from([1e-3, 1.0, 1e6]),
    st.integers(0, 2**32 - 1),
)
def test_one_bucket_codes_are_the_paper_quantizers_on_the_normalized_bucket(
    n, bits, scale, seed
):
    """With a bucket scaled to a = (v - lo) * (top / span), top = 2**bits - 1,
    shift mode gives clip(k, 0, top) for the lattice indices k of
    qshift_quantize(a, 1) at the codec's own shift r, sent as r * span / top,
    and uniform_stochastic mode gives clip(k, 0, top) for those of
    qflip_quantize(a, 1), each drawing from a copy of the codec's generator."""
    v = np.random.default_rng(seed).standard_normal(n) * scale
    lo, hi = float(np.float32(v.min())), float(np.float32(v.max()))
    assume(lo != hi)
    top = (1 << bits) - 1
    a = (v - lo) * (top / (hi - lo))

    rng = np.random.default_rng(seed + 1)
    copy = np.random.default_rng(seed + 1)
    r = copy.uniform(-0.5, 0.5)
    k = _lattice_indices(qshift_quantize(a, 1.0, copy, shift=r), 1.0)
    seg = quantize_segment(v, n, bits, "shift", rng)
    assert np.array_equal(seg.rows[0], np.clip(k, 0, top))
    assert seg.shift[0] == float(np.float32(r * (hi - lo) / top))

    seg = quantize_segment(v, n, bits, "uniform_stochastic", rng)
    k = _lattice_indices(qflip_quantize(a, 1.0, copy), 1.0)
    assert np.array_equal(seg.rows[0], np.clip(k, 0, top))
    assert rng.bit_generator.state == copy.bit_generator.state


class _FixedDraws:
    """A generator stand-in: every `random` draw is `u`, and `uniform` maps
    `u` onto its interval as numpy does."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)

    def uniform(self, low, high, size=None):
        r = low + (high - low) * self.u
        return r if size is None else np.full(size, r)


@pytest.mark.parametrize("bits", [1, 8, 16])
@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_codes_stay_in_range_at_the_ends_of_the_grid(bits, inner, u):
    """Rounding can step past the grid: floor(top + u) is top + 1 once the
    sum rounds up, a shift r = -1/2 ties top + 1/2 up to top + 1, and a value
    below its float32-rounded minimum scales to a < 0, which floor(a + 0)
    and rint(a - r) at r near 1/2 take to -1.  The codes must be the
    oracle's, clipped to [0, top] before any cast could wrap them, and so
    must the values of a round trip."""
    top = (1 << bits) - 1
    # lo = 0 and span = 1, so the ends scale to a = 0 and a = top exactly;
    # float32(0.1) > 0.1, so 0.1 scales to a just below 0
    for v in ([0.0, 0.5, 1.0], [0.1, 1.1]):
        want, *_ = _oracle_bucket(np.array(v), bits, inner, _FixedDraws(u))
        seg = quantize_segment(v, len(v), bits, inner, _FixedDraws(u))
        assert seg.rows[0].tolist() == want.tolist()
        assert seg.rows[0, 0] == 0
        _, values = _oracle_message(np.array(v), len(v), bits, inner, _FixedDraws(u))
        assert _same_bits(_roundtrip(np.array(v), len(v), bits, inner, _FixedDraws(u)), values)
    assert seg.scale_lo[0] > 0.1
    codes = uniform_stochastic_quantize([0.0, 1.0], bits, _FixedDraws(u))
    assert codes.tolist() == [0, top]


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_roundtrip_is_dequantize_of_quantize_segment(message):
    v, bucket, bits, inner, seed = message
    rng = np.random.default_rng(seed)
    got = _roundtrip(v, bucket, bits, inner, rng)
    ref_rng = np.random.default_rng(seed)
    want = dequantize_segment(quantize_segment(v, bucket, bits, inner, ref_rng))
    assert _same_bits(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_codec_has_two_inner_modes_and_decodes_from_the_bytes_alone():
    v = np.random.default_rng(3).standard_normal(2500)
    rng = np.random.default_rng(0)
    for inner in ("levels", "flip"):
        with pytest.raises(ValueError, match="unknown inner mode"):
            quantize_segment(v, 1024, 2, inner, rng)
        with pytest.raises(ValueError, match="unknown inner mode"):
            bucketed_quantize(v, BucketSpec(), 2, inner, rng)
        with pytest.raises(ValueError, match="unknown inner mode"):
            quantize_bucket(v, 2, inner, rng)
    for inner in INNERS:
        seg = quantize_segment(v, 1024, 2, inner, rng)
        received = dequantize_segment(decode_segment(encode_segment(seg)))
        assert _same_bits(received, dequantize_segment(seg))


# -- decoding malformed bytes ---------------------------------------------------


def _decode_or_reject(data: bytes) -> None:
    """Decoding either succeeds, re-encoding exactly, or raises DecodeError."""
    try:
        seg = decode_segment(data)
    except DecodeError:
        with pytest.raises(DecodeError):
            decode(data)
        return
    assert encode_segment(seg) == data
    decode(data)


def _read_or_reject(data: bytes) -> None:
    """The transport's reader either gives the decoded segment's values, or
    raises DecodeError where decoding does."""
    try:
        seg = decode_segment(data)
    except DecodeError:
        with pytest.raises(DecodeError):
            dequantize_message(data, np.empty(0))
        return
    got = dequantize_message(data, np.empty(seg.length))
    assert _same_bits(got, dequantize_segment(seg))


_READERS = {"segment": _decode_or_reject, "message": _read_or_reject}


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS.keys())
@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=96))
def test_random_bytes_raise_only_decode_errors(read, data):
    read(data)


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS.keys())
@settings(max_examples=300, deadline=None)
@given(
    _messages(),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
    st.integers(-8, 8),
)
def test_mutated_messages_raise_only_decode_errors(read, message, flips, resize):
    v, bucket, bits, inner, seed = message
    seg = quantize_segment(v[:64], bucket, bits, inner, np.random.default_rng(seed))
    data = bytearray(encode_segment(seg))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    data = data[:resize] if resize < 0 else data + bytes(resize)
    read(bytes(data))


# -- metadata checks ------------------------------------------------------------

# 10 values in buckets of 4 at 8 bits: blocks of 4, 4 and 2 codes, each record
# 12 metadata bytes (shift, scale_lo, scale_hi as f32) and its code bytes.
_HEADER_BYTES = 14
_BLOCK_STARTS = (_HEADER_BYTES, _HEADER_BYTES + 16, _HEADER_BYTES + 32)


def _valid_message() -> bytes:
    v = np.linspace(-1.0, 1.0, 10)
    return encode_segment(quantize_segment(v, 4, 8, "shift", np.random.default_rng(0)))


def test_valid_message_layout():
    data = _valid_message()
    assert len(data) == _BLOCK_STARTS[2] + 12 + 2
    seg = decode_segment(data)
    for i, start in enumerate(_BLOCK_STARTS):
        fields = struct.unpack_from("<fff", data, start)
        assert fields == (seg.shift[i], seg.scale_lo[i], seg.scale_hi[i])


@pytest.mark.parametrize("block", range(3))
@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_metadata(block, field, value):
    data = bytearray(_valid_message())
    struct.pack_into("<f", data, _BLOCK_STARTS[block] + 4 * field, value)
    with pytest.raises(DecodeError, match="metadata"):
        decode(bytes(data))
    with pytest.raises(DecodeError, match="metadata"):
        decode_segment(bytes(data))


@pytest.mark.parametrize("block", range(3))
def test_decode_rejects_inverted_scales(block):
    data = bytearray(_valid_message())
    struct.pack_into("<ff", data, _BLOCK_STARTS[block] + 4, 2.0, 1.0)
    with pytest.raises(DecodeError, match="scale_lo <= scale_hi"):
        decode(bytes(data))


def test_encode_rejects_non_finite_metadata():
    block = QuantizedBlock(np.zeros(2, np.uint32), 0.0, 0.0, np.inf, 4, 2)
    with pytest.raises(EncodeError, match="scale_hi"):
        encode([block])


# -- values beyond the float32 metadata range -----------------------------------


# the smallest magnitude that rounds to an infinite float32
_F32_OVERFLOW = 2.0**128 - 2.0**103


@pytest.mark.parametrize(
    "values, index",
    [
        ([1e39, 0.0, 1.0], 0),
        ([0.0, -1e39, 1.0], 1),
        ([0.0, 1.0, 2.0, 3.0, _F32_OVERFLOW], 4),  # in the tail bucket
    ],
)
def test_values_beyond_float32_range_are_rejected(values, index):
    rng = np.random.default_rng(0)
    match = f"index {index}: .* beyond the float32 range"
    for inner in INNERS:
        with pytest.raises(ValueError, match=match):
            quantize_segment(values, 2, 8, inner, rng)
        with pytest.raises(ValueError, match=match):
            bucketed_quantize(values, BucketSpec(2), 8, inner, rng)
        with pytest.raises(ValueError, match=match):
            quantize_bucket(np.asarray(values), 8, inner, rng)


@pytest.mark.parametrize(
    "big", [float(np.finfo(np.float32).max), np.nextafter(_F32_OVERFLOW, 0.0)]
)
def test_largest_float32_values_still_quantize(big):
    v = np.array([-big, 0.0, big])
    for inner in INNERS:
        seg = quantize_segment(v, 3, 8, inner, np.random.default_rng(0))
        out = dequantize_segment(decode_segment(encode_segment(seg)))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out - v) <= 2 * big / 255)  # within about one pitch


def test_non_finite_values_keep_their_index_in_the_message():
    v = [0.0, 1.0, 2.0, 3.0, 4.0, np.nan]
    with pytest.raises(ValueError, match="non-finite bucket value at index 5"):
        quantize_segment(v, 4, 8, "shift", np.random.default_rng(0))


# -- short messages, value by value ---------------------------------------------

_F32_MAX = float(np.finfo(np.float32).max)
# signed zeros, the smallest float64 and float32 subnormals (the first rounds
# to a float32 zero), and the largest magnitudes float32 metadata can carry
_EDGE_VALUES = [
    s * x
    for s in (1.0, -1.0)
    for x in (0.0, 2.0**-1074, 2.0**-149, _F32_MAX, np.nextafter(_F32_OVERFLOW, 0.0))
]
_short_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.builds(
        lambda m, scale: m * scale,
        st.floats(-4.0, 4.0),
        st.sampled_from([1e-30, 1e-10, 1e-3, 1.0, 1e3, 1e10, 1e30]),
    ),
)


@st.composite
def _short_messages(draw):
    """(values, bucket size, bit width, inner mode, generator seed): one
    bucket of 1 to _SCALAR_MAX + 1 values, on both sides of the scalar path's
    bound, sometimes constant."""
    n = draw(st.integers(1, _SCALAR_MAX + 1))
    if draw(st.booleans()):
        values = draw(st.lists(_short_values, min_size=n, max_size=n))
    else:
        values = [draw(_short_values)] * n
    bucket = draw(st.sampled_from([n, n + 1, 1024]))
    bits = draw(st.integers(1, 16))
    inner = draw(st.sampled_from(INNERS))
    return np.array(values), bucket, bits, inner, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_short_messages())
@example((np.array([0.0, -0.0]), 2, 4, "shift", 0))
@example((np.array([-0.0, 0.0, 2.0**-1074]), 3, 16, "uniform_stochastic", 1))
@example((np.array([-_F32_MAX, np.nextafter(_F32_OVERFLOW, 0.0)]), 1024, 1, "shift", 2))
def test_short_messages_round_trip_as_the_segment_codec_and_the_oracle(message):
    v, bucket, bits, inner, seed = message
    rng = np.random.default_rng(seed)
    got = _roundtrip(v, bucket, bits, inner, rng)
    seg_rng = np.random.default_rng(seed)
    want = dequantize_segment(quantize_segment(v, bucket, bits, inner, seg_rng))
    oracle_rng = np.random.default_rng(seed)
    _, oracle = _oracle_message(v, bucket, bits, inner, oracle_rng)
    assert _same_bits(got, want)
    assert _same_bits(got, oracle)
    assert rng.bit_generator.state == seg_rng.bit_generator.state
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# (bucket size, index of the bad value) in a message of 14 values: three full
# buckets of 4 and a tail of 2, or a single bucket
_BAD_VALUE_AT = {
    "first-bucket": (4, 1),
    "middle-bucket": (4, 6),
    "tail": (4, 13),
    "one-bucket": (16, 3),
    "one-bucket-first": (16, 0),
    "one-bucket-last": (16, 13),
}
_BAD_VALUES = {
    "nan": (np.nan, "^non-finite bucket value at index {}: nan$"),
    "inf": (np.inf, "^non-finite bucket value at index {}: inf$"),
    "1e39": (1e39, r"^bucket value at index {}: 1e\+39 is beyond the float32 range"),
}
_CODEC_CALLS = {
    **{
        f"quantize_segment-{inner}": lambda v, b, rng, inner=inner: quantize_segment(
            v, b, 8, inner, rng
        )
        for inner in INNERS
    },
    **{
        f"roundtrip-{inner}": lambda v, b, rng, inner=inner: _roundtrip(v, b, 8, inner, rng)
        for inner in INNERS
    },
    **{
        f"quantize_message-{inner}": lambda v, b, rng, inner=inner: quantize_message(
            v, b, 8, inner, rng
        )
        for inner in INNERS
    },
    "gradient-quantizer": lambda v, b, rng: UniformStochasticGradientQuantizer(
        8, BucketSpec(b)
    )(v, rng),
}


@pytest.mark.parametrize("bad, pattern", _BAD_VALUES.values(), ids=_BAD_VALUES.keys())
@pytest.mark.parametrize("bucket, index", _BAD_VALUE_AT.values(), ids=_BAD_VALUE_AT.keys())
@pytest.mark.parametrize("call", _CODEC_CALLS.values(), ids=_CODEC_CALLS.keys())
def test_a_bad_value_is_rejected_before_anything_is_drawn(call, bucket, index, bad, pattern):
    v = np.arange(14.0)
    v[index] = bad
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=pattern.format(index)):
        call(v, bucket, rng)
    assert rng.bit_generator.state == state


# -- the draw count follows from the layout alone -------------------------------

# (name, the inner modes it takes, call) for each codec entry point
_DRAWING_CALLS = [
    ("quantize_segment", INNERS,
     lambda v, b, bits, inner, rng: quantize_segment(v, b, bits, inner, rng)),
    ("roundtrip", INNERS, lambda v, b, bits, inner, rng: _roundtrip(v, b, bits, inner, rng)),
    ("bucketed_quantize", INNERS,
     lambda v, b, bits, inner, rng: bucketed_quantize(v, BucketSpec(b), bits, inner, rng)),
    ("quantize_bucket", INNERS,
     lambda v, b, bits, inner, rng: quantize_bucket(v[:b], bits, inner, rng)),
    ("gradient-quantizer", ("uniform_stochastic",),
     lambda v, b, bits, inner, rng: UniformStochasticGradientQuantizer(
         bits, BucketSpec(b))(v, rng)),
]


@st.composite
def _layouts(draw):
    """(values, bucket size, bit width, generator seed): a message with
    constant runs, which make some buckets degenerate, and often a tail."""
    n = draw(st.integers(1, 200))
    bucket = draw(st.one_of(st.integers(1, 40), st.integers(n, n + 8)))
    seed = draw(st.integers(0, 2**32 - 1))
    v = np.random.default_rng(seed).standard_normal(n)
    for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(1, 2 * bucket)), max_size=3)):
        v[start : start + length] = v[start]
    return v, bucket, draw(st.integers(1, 16)), seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_layouts())
@example((np.array([2.0, 2, 2, 2, 0, 0.7, 1.9, 3]), 4, 2, 0))  # a degenerate first bucket
@example((np.array([0.0, 0.7, 1.9, 3, 2, 2]), 4, 2, 0))  # a degenerate tail
def test_every_bucket_draws_whatever_the_values(layout):
    """A message draws one u per value (uniform_stochastic) or one r per
    bucket, the tail included (shift): the count depends on the layout, not
    on which buckets are degenerate."""
    v, bucket, bits, seed = layout
    for name, inners, call in _DRAWING_CALLS:
        n = min(bucket, v.size) if name == "quantize_bucket" else v.size
        for inner in inners:
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            call(v, bucket, bits, inner, rng)
            twin.random(n if inner == "uniform_stochastic" else -(-n // bucket))
            assert rng.bit_generator.state == twin.bit_generator.state, (name, inner)


def test_numpy_streams_the_codec_draws_from():
    """The installed numpy gives the stream facts that let each group of a
    message draw for itself: a scalar draw is the first of an array draw,
    a (k, s) draw is k * s draws in row order, and two draws in a row are
    one draw of both."""
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    assert a.uniform(-0.5, 0.5) == b.uniform(-0.5, 0.5, 1)[0]
    assert np.array_equal(a.random((3, 5)), b.random(15).reshape(3, 5))
    assert np.array_equal(np.concatenate([a.random(4), a.random(2)]), b.random(6))
    assert a.bit_generator.state == b.bit_generator.state


# The declared change of the draw count (README, Determinism): the degenerate
# first bucket of this message draws as a live one, so the second bucket's
# draws and the generator's next value moved.
_DEGENERATE_FIRST = {
    "shift": ([0, 1, 2, 3], -0.23021328449249268, 0.04097352393619469),
    "uniform_stochastic": ([0, 1, 2, 3], 0.0, 0.5436249914654229),
}


@pytest.mark.parametrize("inner", INNERS)
def test_a_degenerate_bucket_draws_as_a_live_one(inner):
    codes, shift, next_draw = _DEGENERATE_FIRST[inner]
    rng = np.random.default_rng(0)
    seg = quantize_segment([2.0, 2, 2, 2, 0, 0.7, 1.9, 3], 4, 2, inner, rng)
    assert seg.rows.tolist() == [[0, 0, 0, 0], codes]
    assert seg.shift.tolist() == [0.0, shift]
    assert rng.random() == next_draw
    # the first bucket sends codes 0 and shift +0.0, and decodes to its constant
    data = encode_segment(seg)
    assert data[14:18] == struct.pack("<f", 0.0)
    assert dequantize_segment(decode_segment(data))[:4].tolist() == [2.0] * 4
