"""Bit-exact serialization of quantized block sequences.

Message layout (all little-endian, no alignment gaps):

    header:   version  u8   (currently 1)
              bit_width u8
              bucket_size  u32
              block_count  u32
              total_length u32
    per block (block_count times, in order):
              shift     f32
              scale_lo  f32
              scale_hi  f32
              payload   ceil(length * bit_width / 8) bytes

Block lengths are implied by the bucket structure: every block has
`bucket_size` elements except the last, which holds the remainder of
`total_length`.  Codes are packed least-significant-bit first within each
byte; the final byte of each block is zero-padded.  Scales and the shift are
transported as float32, so blocks built by the bucketed quantizers (whose
metadata is float32-exact) round-trip field-exactly.

`quantize_message` quantizes a message into its bytes, and `dequantize_message`
reads its values from views of them into the caller's array.  `encode_segment`
and `decode_segment` handle the same records as one `Segment`, `encode` and
`decode` as `QuantizedBlock`s.  Decoding rejects non-finite metadata and scale_lo > scale_hi.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .quantize import QuantizedBlock, Segment, _code_dtype, _layout, _quantize_pass
from .quantize import _all_finite, dequantize_segment

__all__ = [
    "WIRE_VERSION",
    "HEADER_BITS",
    "BLOCK_META_BITS",
    "encode",
    "decode",
    "encode_segment",
    "decode_segment",
    "quantize_message",
    "dequantize_message",
    "message_size_bits",
    "segment_size_bits",
    "WireError",
    "EncodeError",
    "DecodeError",
    "TruncatedMessageError",
    "UnsupportedVersionError",
    "CodeRangeError",
]

WIRE_VERSION = 1
_HEADER = struct.Struct("<BBIII")
_BLOCK_META = struct.Struct("<fff")
HEADER_BITS = _HEADER.size * 8
BLOCK_META_BITS = _BLOCK_META.size * 8


class WireError(ValueError):
    pass


class EncodeError(WireError):
    pass


class DecodeError(WireError):
    pass


class TruncatedMessageError(DecodeError):
    pass


class UnsupportedVersionError(DecodeError):
    pass


class CodeRangeError(DecodeError):
    pass


def _payload_bytes(length: int, bit_width: int) -> int:
    return (length * bit_width + 7) // 8


def _unpack_rows(payload: np.ndarray, n: int, bit_width: int) -> np.ndarray:
    """Inverse of `_put_codes`, whole-byte codes as views; nonzero padding bits raise."""
    k = payload.shape[0]
    dtype = _code_dtype(bit_width)
    if bit_width in (8, 16, 32):
        return payload.view(dtype)  # the little-endian code bytes
    bits = np.unpackbits(payload, axis=1, bitorder="little")
    used = n * bit_width
    if bits[:, used:].any():
        raise DecodeError("nonzero padding bits in payload")
    planes = np.zeros((k, n, 8 * dtype.itemsize), dtype=np.uint8)
    planes[:, :, :bit_width] = bits[:, :used].reshape(k, n, bit_width)
    return np.packbits(planes, axis=2, bitorder="little").view(dtype).reshape(k, n)


def _put_codes(payload: np.ndarray, codes: np.ndarray, bit_width: int) -> None:
    """Write each row of codes, unsigned or whole floats, into its row of the uint8
    `payload` columns, LSB-first with a zero-padded end, casting each code once."""
    dtype = _code_dtype(bit_width)
    if bit_width in (8, 16, 32):  # whole bytes: the little-endian code bytes
        payload.view(dtype)[...] = codes
        return
    k, n = codes.shape
    code_bytes = codes.astype(dtype, copy=False).reshape(k, n, 1).view(np.uint8)
    planes = np.unpackbits(code_bytes, axis=2, bitorder="little")[:, :, :bit_width]
    payload[...] = np.packbits(planes.reshape(k, n * bit_width), axis=1, bitorder="little")


def _frame(bit_width: int, size: int, k: int, tail: int, length: int):
    """A zeroed message with its header written, and one (offset, uint8 records)
    pair per group to fill: k records of `size` codes, then the tail's."""
    record = _BLOCK_META.size + _payload_bytes(size, bit_width)
    body = _HEADER.size + k * record
    buf = bytearray(body + (_BLOCK_META.size + _payload_bytes(tail, bit_width) if tail else 0))
    _HEADER.pack_into(buf, 0, WIRE_VERSION, bit_width, size, k + (tail > 0), length)
    array = np.frombuffer(buf, np.uint8)
    groups = [(_HEADER.size, array[_HEADER.size : body].reshape(k, record))]
    if tail:
        groups.append((body, array[None, body:]))
    return buf, groups


_EMPTY = Segment(
    np.zeros((0, 0), np.uint32), np.zeros(0, np.uint32),
    np.zeros(0), np.zeros(0), np.zeros(0), 0,
)


def encode_segment(seg: Segment) -> bytes:
    """Serialize one segment: the message of its block list, one record per bucket."""
    k, bucket_size = seg.rows.shape
    meta = np.stack([seg.shift, seg.scale_lo, seg.scale_hi], axis=1)
    with np.errstate(over="ignore"):  # overflow to inf is reported below
        meta32 = meta.astype("<f4")
    bad = np.argwhere((meta32 != meta) | ~np.isfinite(meta32))
    if bad.size:
        i, j = bad[0]
        name = ("shift", "scale_lo", "scale_hi")[j]
        raise EncodeError(
            f"block {i} {name}={float(meta[i, j])!r} is not a finite float32; the "
            "wire carries f32 metadata, quantize through the bucketed path"
        )
    buf, groups = _frame(seg.bit_width, bucket_size, k, seg.tail.size, seg.length)
    for (_, rec), codes, meta in zip(groups, (seg.rows, seg.tail[None]), np.split(meta32, [k])):
        rec[:, : _BLOCK_META.size] = meta.view(np.uint8)
        _put_codes(rec[:, _BLOCK_META.size :], codes, seg.bit_width)
    return bytes(buf)


def quantize_message(v, bucket_size: int, bit_width: int, inner: str, rng) -> bytearray:
    """encode_segment(quantize_segment(v, ...)), quantized straight into the records.
    Its metadata need no check: lo and hi are checked values rounded to float32,
    and |shift| <= span / 2 is at most the float32 maximum."""
    v, coded = _quantize_pass(v, bucket_size, bit_width, inner, rng)
    buf, groups = _frame(bit_width, *_layout(v.size, bucket_size), v.size)
    for (offset, records), (codes, shift, lo, hi) in zip(groups, coded):
        if codes.ndim == 1:  # one bucket, with float metadata
            _BLOCK_META.pack_into(buf, offset, shift, lo, hi)
            codes = codes[None]
        else:
            meta = records[:, : _BLOCK_META.size].view("<f4")
            meta[:, 0], meta[:, 1], meta[:, 2] = shift, lo, hi
        _put_codes(records[:, _BLOCK_META.size :], codes, bit_width)
    return buf


def dequantize_message(data, out: np.ndarray) -> np.ndarray:
    """dequantize_segment(decode_segment(data)) from views of `data` into `out`, a float64
    array of the message's length; a DecodeError for malformed data or another length."""
    seg = decode_segment(data)
    if seg.length != out.size:
        raise DecodeError(f"message of {seg.length} values for {out.size} destination values")
    return dequantize_segment(seg, out)


def decode_segment(data: bytes) -> Segment:
    """Exact inverse of encode_segment; malformed input raises a DecodeError."""
    if len(data) < _HEADER.size:
        raise TruncatedMessageError(
            f"message of {len(data)} bytes is shorter than the header"
        )
    version, bit_width, bucket_size, count, total = _HEADER.unpack_from(data, 0)
    if version != WIRE_VERSION:
        raise UnsupportedVersionError(f"unsupported wire version {version}")
    if count == 0:
        if len(data) != _HEADER.size or total != 0:
            raise DecodeError("empty message carries trailing data")
        return _EMPTY
    if bit_width < 1 or bit_width > 32:
        raise CodeRangeError(f"header bit_width {bit_width} outside [1, 32]")
    if bucket_size < 1:
        raise DecodeError("bucket_size must be positive for non-empty messages")
    last_len = total - (count - 1) * bucket_size
    if not 1 <= last_len <= bucket_size:
        raise DecodeError(
            f"total_length {total} inconsistent with {count} buckets of {bucket_size}"
        )
    k = count if last_len == bucket_size else count - 1
    tail_len = total - k * bucket_size
    record = _BLOCK_META.size + _payload_bytes(bucket_size, bit_width)
    body_end = _HEADER.size + k * record
    end = body_end
    if tail_len:
        end += _BLOCK_META.size + _payload_bytes(tail_len, bit_width)
    if len(data) < end:
        block = min((len(data) - _HEADER.size) // record, count - 1)
        raise TruncatedMessageError(
            f"message truncated in block {block}: {len(data)} of {end} bytes"
        )
    if len(data) > end:
        raise DecodeError(f"{len(data) - end} unexpected trailing bytes")
    buf = np.frombuffer(data, dtype=np.uint8)
    records = buf[_HEADER.size : body_end].reshape(k, record)
    rows = _unpack_rows(records[:, _BLOCK_META.size :], bucket_size, bit_width)
    meta = [records[:, : _BLOCK_META.size]]
    tail = np.zeros(0, rows.dtype)
    if tail_len:
        tail_start = body_end + _BLOCK_META.size
        meta.append(buf[None, body_end:tail_start])
        tail = _unpack_rows(buf[None, tail_start:], tail_len, bit_width)[0]
    meta = np.concatenate(meta).view("<f4").astype(np.float64)
    if not (_all_finite(meta) and (meta[:, 1] <= meta[:, 2]).all()):
        bad = np.flatnonzero(~np.isfinite(meta).all(axis=1) | (meta[:, 1] > meta[:, 2]))
        raise DecodeError(
            f"block {bad[0]} metadata (shift, scale_lo, scale_hi) = "
            f"{tuple(meta[bad[0]].tolist())} is not finite with scale_lo <= scale_hi"
        )
    return Segment(rows, tail, meta[:, 0], meta[:, 1], meta[:, 2], bit_width)


def encode(blocks: list[QuantizedBlock]) -> bytes:
    """Serialize a canonical (bucket-shaped) block list deterministically."""
    if not blocks:
        return encode_segment(_EMPTY)
    bit_width = blocks[0].bit_width
    bucket_size = blocks[0].length
    for i, b in enumerate(blocks):
        if b.bit_width != bit_width:
            raise EncodeError(
                f"mixed bit_width: block 0 has {bit_width}, block {i} has {b.bit_width}"
            )
    if any(b.length != bucket_size for b in blocks[:-1]):
        raise EncodeError("only the final block may be shorter than the bucket")
    if blocks[-1].length > bucket_size:
        raise EncodeError("final block exceeds the bucket size")
    full = blocks if blocks[-1].length == bucket_size else blocks[:-1]
    tail = blocks[-1].codes if len(full) < len(blocks) else blocks[0].codes[:0]
    meta = np.array([(b.shift, b.scale_lo, b.scale_hi) for b in blocks], dtype=float)
    return encode_segment(
        Segment(
            np.stack([b.codes for b in full]), tail,
            meta[:, 0], meta[:, 1], meta[:, 2], bit_width,
        )
    )


def decode(data: bytes) -> list[QuantizedBlock]:
    """Exact inverse of encode; malformed input raises a DecodeError."""
    return decode_segment(data).blocks()


def _block_bits(length: int, bit_width: int) -> int:
    """Encoded bits of one block record: f32 metadata plus its padded payload."""
    return BLOCK_META_BITS + 8 * _payload_bytes(length, bit_width)


def message_size_bits(blocks: list[QuantizedBlock]) -> int:
    """Exact encoded size in bits, metadata and per-block padding included."""
    return HEADER_BITS + sum(_block_bits(b.length, b.bit_width) for b in blocks)


@functools.lru_cache(maxsize=1024)
def segment_size_bits(length: int, bucket_size: int, bit_width: int) -> int:
    """Exact encoded size in bits of the segment `quantize_segment` makes of
    `length` values: message_size_bits of its blocks, without building them."""
    size, k, tail = _layout(length, bucket_size)
    bits = HEADER_BITS + k * _block_bits(size, bit_width)
    return bits + _block_bits(tail, bit_width) if tail else bits
