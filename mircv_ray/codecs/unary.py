"""Unary codec for term frequencies — vectorized NumPy implementation.

Semantics match the reference's `UnaryCompressor.java` +
`Bits.writeUnary/readUnary` (search_engine/src/main/java/unipi/aide/mircv/
model/UnaryCompressor.java:16-84, Bits.java:68-107): each value ``v`` is
written as ``v`` one-bits followed by a zero-bit, MSB-first within bytes;
the output buffer is sized ``max(1, ceil((sum(v)+n)/8))`` bytes with
trailing bits zero.

Golden vectors (reference `UnaryCompressorTest.java`, `BitsTest.java`):
``[3,10,1,2] <-> bytes [0xEF, 0xFD, 0x60]``.
"""

from __future__ import annotations

import numpy as np


def unary_byte_size(values: np.ndarray) -> int:
    """Bytes needed: ceil((sum+n)/8), minimum 1 (UnaryCompressor.java:16-26)."""
    values = np.asarray(values, dtype=np.int64)
    nbits = int(values.sum()) + len(values)
    size = (nbits + 7) // 8
    return max(size, 1)


def unary_encode(values: np.ndarray) -> bytes:
    """Encode ints >= 0 as unary (v ones then a zero), MSB-first bit stream."""
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    nbytes = unary_byte_size(values)
    bits = np.ones(nbytes * 8, dtype=np.uint8)
    # zero-terminator positions: cumulative (v_i + 1) - 1
    ends = np.cumsum(values + 1) - 1
    bits[ends] = 0
    if n:
        bits[int(ends[-1]) + 1:] = 0  # trailing padding bits are zero
    else:
        bits[:] = 0
    return np.packbits(bits).tobytes()


def unary_decode(buf: bytes, count: int) -> np.ndarray:
    """Decode the first ``count`` unary values from ``buf``."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
    zeros = np.flatnonzero(bits == 0)[:count].astype(np.int64)
    if len(zeros) < count:
        raise ValueError("buffer exhausted before decoding %d values" % count)
    return np.diff(zeros, prepend=-1) - 1


def unary_decode_blocks(bufs: list[bytes], counts) -> np.ndarray:
    """Decode many byte-aligned unary blocks with ONE unpackbits pass.

    Equivalent to concatenating ``unary_decode(buf, n)`` per block, but
    the bit expansion and zero-scan run once over the concatenation —
    per-block cost drops to a searchsorted + diff (hot for cold-term
    decodes of long posting lists, where √df blocks are small)."""
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    data = (np.frombuffer(b"".join(bufs), dtype=np.uint8) if bufs
            else np.zeros(0, dtype=np.uint8))
    return unary_decode_packed(data, lens, counts)


def unary_decode_packed(data: np.ndarray, lens, counts) -> np.ndarray:
    """``unary_decode_blocks`` over an ALREADY-concatenated uint8 buffer
    (e.g. one zero-copy view of an Arrow binary column's values) plus
    per-block byte lengths — no per-block Python bytes objects, and no
    per-block Python loop: one searchsorted finds every block's first
    terminator, a repeat + arange gathers each block's ``count``
    terminators, and one diff (re-anchored at block starts) turns them
    into values. A block's padding bits are zeros past its last
    terminator, so they are never gathered."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    zeros = np.flatnonzero(np.unpackbits(np.ascontiguousarray(data)) == 0)
    lens = np.asarray(lens, dtype=np.int64)
    live = counts > 0
    bit_offs = ((np.cumsum(lens) - lens) * 8)[live]
    cnt = counts[live]
    out_starts = np.cumsum(cnt) - cnt
    first = np.searchsorted(zeros, bit_offs)
    idx = np.repeat(first - out_starts, cnt) + np.arange(total)
    if idx[-1] >= len(zeros):
        raise ValueError("buffer exhausted before decoding %d values" % total)
    z = zeros[idx]
    prev = np.empty(total, dtype=np.int64)
    prev[1:] = z[:-1]
    prev[out_starts] = bit_offs - 1
    return z - prev - 1


def unary_get(buf: bytes, index: int, last_read: int, bit_offset: int) -> tuple[int, int]:
    """Sequential cursor read mirroring `UnaryCompressor.get`
    (UnaryCompressor.java:66-84): advance from ``last_read`` to ``index``,
    returning (value at index, updated bit offset)."""
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
    number = 0
    while last_read < index:
        # read one unary value at bit_offset
        pos = bit_offset
        while bits[pos] == 1:
            pos += 1
        number = pos - bit_offset
        bit_offset = pos + 1
        last_read += 1
    return number, bit_offset
