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

`encode_segment` and `decode_segment` handle a message as one `Segment` of
whole arrays; `encode` and `decode` are the same codec seen as a list of
`QuantizedBlock`.  Decoding rejects non-finite metadata and
scale_lo > scale_hi.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .quantize import QuantizedBlock, Segment, _code_dtype, _layout

__all__ = [
    "WIRE_VERSION",
    "HEADER_BITS",
    "BLOCK_META_BITS",
    "encode",
    "decode",
    "encode_segment",
    "decode_segment",
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


def _pack_rows(codes: np.ndarray, bit_width: int) -> np.ndarray:
    """Pack each row of codes LSB-first into whole bytes, zero-padding its end."""
    k, n = codes.shape
    dtype = _code_dtype(bit_width)
    code_bytes = codes.astype(dtype, copy=False).view(np.uint8)
    if bit_width in (8, 16, 32):  # whole bytes: the little-endian code bytes
        return code_bytes
    planes = np.unpackbits(
        code_bytes.reshape(k, n, dtype.itemsize), axis=2, bitorder="little"
    )
    return np.packbits(
        planes[:, :, :bit_width].reshape(k, n * bit_width), axis=1, bitorder="little"
    )


def _unpack_rows(payload: np.ndarray, n: int, bit_width: int) -> np.ndarray:
    """Inverse of _pack_rows; nonzero padding bits raise a DecodeError."""
    k = payload.shape[0]
    dtype = _code_dtype(bit_width)
    if bit_width in (8, 16, 32):
        return np.ascontiguousarray(payload).view(dtype)
    bits = np.unpackbits(payload, axis=1, bitorder="little")
    used = n * bit_width
    if bits[:, used:].any():
        raise DecodeError("nonzero padding bits in payload")
    planes = np.zeros((k, n, 8 * dtype.itemsize), dtype=np.uint8)
    planes[:, :, :bit_width] = bits[:, :used].reshape(k, n, bit_width)
    return np.packbits(planes, axis=2, bitorder="little").view(dtype).reshape(k, n)


_EMPTY = Segment(
    np.zeros((0, 0), np.uint32), np.zeros(0, np.uint32),
    np.zeros(0), np.zeros(0), np.zeros(0), 0,
)


def encode_segment(seg: Segment) -> bytes:
    """Serialize one segment: the message of its block list, one record per bucket."""
    k, bucket_size = seg.rows.shape
    count = k + (1 if seg.tail.size else 0)
    header = _HEADER.pack(WIRE_VERSION, seg.bit_width, bucket_size, count, seg.length)
    if not count:
        return header
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
    meta_bytes = meta32.view(np.uint8)
    record = _BLOCK_META.size + _payload_bytes(bucket_size, seg.bit_width)
    records = np.empty((k, record), np.uint8)
    records[:, : _BLOCK_META.size] = meta_bytes[:k]
    records[:, _BLOCK_META.size :] = _pack_rows(seg.rows, seg.bit_width)
    out = [header, records]
    if seg.tail.size:
        out += [meta_bytes[k], _pack_rows(seg.tail[None], seg.bit_width)]
    return b"".join(out)


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
    bad = np.flatnonzero(~np.isfinite(meta).all(axis=1) | (meta[:, 1] > meta[:, 2]))
    if bad.size:
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
