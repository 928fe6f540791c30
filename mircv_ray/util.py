"""Small shared helpers (no Ray imports — safe at module scope anywhere)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# sentinel hash for NULL values: distinct from sha256(b"") so a NULL doc
# never collides with an empty-string doc (SQL GROUP BY keeps them apart)
NULL_HASH = "null:" + hashlib.sha256(b"\x00null\x00").hexdigest()[:59]


def multi_arange(lens: "np.ndarray") -> "np.ndarray":
    """concat([arange(l) for l in lens]) without the Python loop."""
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    starts = np.cumsum(lens) - lens
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    nz = lens > 0
    out[starts[nz][1:]] = 1 - lens[nz][:-1]
    return np.cumsum(out)


def binary_column_values(col, dtype) -> "np.ndarray":
    """Concatenated values of a tightly-packed arrow binary column as ONE
    typed array (row order == buffer order) — replaces per-row
    to_pylist + frombuffer with a single aligned copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=dtype)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=col.offset * 4)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    return data[offs[0]:offs[-1]].copy().view(dtype)


def binary_column_values_view(col, dtype) -> "np.ndarray":
    """Zero-copy variant of :func:`binary_column_values`: a typed VIEW
    over the column's values buffer when the slice is aligned (the
    common case — our packed-run writers start every buffer at offset
    0), falling back to one copy when it isn't. The returned array may
    alias arrow memory — callers must treat it as read-only."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    dtype = np.dtype(dtype)
    if n == 0:
        return np.zeros(0, dtype=dtype)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=col.offset * 4)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    lo, hi = int(offs[0]), int(offs[-1])
    if lo % dtype.itemsize == 0:
        return data[lo:hi].view(dtype)
    return data[lo:hi].copy().view(dtype)


def packed_tf_values(col, n_col) -> "np.ndarray":
    """Typed read of a PACKED-RUN tf column whose per-row item width is
    SELF-DESCRIBING (row byte length / row value count): the partial-
    posting exchange packs tfs as uint16 when every tf in the producing
    batch fits 16 bits (the overwhelmingly common case — a wider tf
    needs a doc with >= 2^16 occurrences of one term), int32 otherwise,
    halving the tf stream's exchange + sort DRAM traffic. Batches
    decide independently, so width resolves per ROW here. All-uint16 /
    all-int32 columns return the zero-copy flat view; mixed columns
    materialize one int32 array (rare by construction).

    ``n_col`` is the per-row value count (the partial format's ``n``
    column)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    nv = np.asarray(n_col, dtype=np.int64)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=col.offset * 4)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    blen = (offs[1:] - offs[:-1]).astype(np.int64)
    lo, hi = int(offs[0]), int(offs[-1])
    narrow = blen == 2 * nv
    wide = blen == 4 * nv
    if not (narrow | wide).all():
        raise ValueError("tf run byte length matches neither uint16 "
                         "nor int32 packing")
    if narrow.all():
        flat = data[lo:hi]
        return (flat if lo % 2 == 0 else flat.copy()).view(np.uint16)
    if wide.all():
        flat = data[lo:hi]
        return (flat if lo % 4 == 0 else flat.copy()).view(np.int32)
    out = np.empty(int(nv.sum()), dtype=np.int32)
    vout = np.cumsum(nv) - nv
    for width, m in ((2, narrow & ~wide), (4, wide)):
        if not m.any():
            continue
        cnt = nv[m]
        pos_out = np.repeat(vout[m], cnt) + multi_arange(cnt)
        bpos = np.repeat(offs[:-1][m].astype(np.int64), cnt) + \
            width * multi_arange(cnt)
        v = data[bpos].astype(np.int32)
        v |= data[bpos + 1].astype(np.int32) << 8
        if width == 4:
            v |= data[bpos + 2].astype(np.int32) << 16
            v |= data[bpos + 3].astype(np.int32) << 24
        out[pos_out] = v
    return out


def packed_tf_dtype(tfs: "np.ndarray"):
    """Exchange width for a batch's tf run lengths: uint16 while every
    value fits, int32 past 2^16 (see :func:`packed_tf_values`)."""
    if len(tfs) == 0 or int(tfs.max()) < (1 << 16):
        return np.uint16
    return np.int32


def sort_pairs(major: "np.ndarray", minor: "np.ndarray") -> "np.ndarray":
    """argsort of (major, minor) pairs of NON-NEGATIVE int64s.

    When the ranges pack into 63 bits (major < 2^23, minor < 2^40 — an
    in-batch dictionary code paired with a docId), ONE composite-key
    argsort replaces np.lexsort's two stable passes: the sort is the
    bandwidth hot spot of the explode/encode kernels, and the composite
    pass moves half the bytes. Falls back to lexsort outside the packed
    range. Equal pairs are returned in unspecified order — every caller
    sorts pairs that are unique or interchangeable."""
    n = len(major)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if int(major.max()) < (1 << 23) and int(minor.max()) < (1 << 40):
        return np.argsort(major * np.int64(1 << 40) + minor)
    return np.lexsort((minor, major))


def binary_values_parts(col) -> tuple["np.ndarray", "np.ndarray"]:
    """(concatenated values as one uint8 array, per-value byte lengths)
    of a tightly-packed string/binary column — one zero-copy buffer view,
    no per-value Python objects. Offsets are monotone, so the slice
    data[offs[0]:offs[-1]] IS the values' concatenation even for sliced
    arrays."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if col.type == pa.string():
        col = col.cast(pa.binary())
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32, count=n + 1,
                         offset=col.offset * 4).astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.zeros(0, dtype=np.uint8))
    return data[offs[0]:offs[-1]], offs[1:] - offs[:-1]


def binary_values_list(col) -> list:
    """Per-value ``bytes`` of a string/binary column via ONE memoryview
    over the values buffer, sliced per value — replaces element-wise
    ``to_pylist`` boxing where per-value Python bytes are genuinely
    needed (per-block codec calls, small grouped keys)."""
    data, lens = binary_values_parts(col)
    if len(lens) == 0:
        return []
    mv = memoryview(np.ascontiguousarray(data))
    ends = np.cumsum(lens)
    starts = ends - lens
    return [bytes(mv[s:e]) for s, e in zip(starts, ends)]


_CRC32_TABLE: "np.ndarray | None" = None


def _crc32_table() -> "np.ndarray":
    """Standard CRC-32 (zlib/IEEE, reflected poly 0xEDB88320) byte table."""
    global _CRC32_TABLE
    if _CRC32_TABLE is None:
        t = np.arange(256, dtype=np.uint32)
        for _ in range(8):
            t = np.where(t & 1, np.uint32(0xEDB88320) ^ (t >> 1), t >> 1)
        _CRC32_TABLE = t
    return _CRC32_TABLE


def crc32_column(arr: pa.Array | pa.ChunkedArray,
                 seed: int = 0) -> "np.ndarray":
    """zlib.crc32 of every value of a string/binary column, vectorized.

    CRC is byte-serial, so the loop runs over byte POSITIONS (bounded by
    the longest value — 64 for index terms) with each step a numpy gather
    over all still-alive rows, instead of a Python loop over rows.
    Verified equal to ``zlib.crc32`` per value (tests/test_util.py).
    ``seed`` perturbs the initial register for a second decorrelated
    pass (seed=0 is exactly zlib.crc32).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint32)
    if arr.type == pa.string():
        arr = arr.cast(pa.binary())
    # large_string/large_binary carry 64-bit offsets — reading them as
    # int32 would silently misparse starts/lengths into garbage hashes
    if arr.type == pa.binary():
        off_dtype, off_w = np.int32, 4
    elif arr.type in (pa.large_string(), pa.large_binary()):
        if arr.type == pa.large_string():
            arr = arr.cast(pa.large_binary())
        off_dtype, off_w = np.int64, 8
    else:
        raise TypeError(f"crc32_column: unsupported column type {arr.type}")
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype, count=n + 1,
                         offset=arr.offset * off_w).astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None
            else np.zeros(0, dtype=np.uint8))
    lens = offs[1:] - offs[:-1]
    starts = offs[:-1]
    table = _crc32_table()
    crc = np.full(n, 0xFFFFFFFF ^ (seed & 0xFFFFFFFF), dtype=np.uint32)
    # iterate longest-first over positions; rows drop out as they end
    alive = np.flatnonzero(lens > 0)
    j = 0
    while len(alive):
        b = data[starts[alive] + j]
        c = crc[alive]
        crc[alive] = table[(c ^ b) & np.uint32(0xFF)] ^ (c >> np.uint8(8))
        j += 1
        alive = alive[lens[alive] > j]
    return crc ^ np.uint32(0xFFFFFFFF)


def default_join_partitions(lo: int = 2, hi: int = 64) -> int:
    """Hash-partition count for ``ops.equijoin.lookup_join``'s
    partitioned path (one split task per block, one reduce per
    partition), sized to the cluster: too many partitions make tiny
    reduces on a small node, too few under-parallelize a big cluster.
    ~half the CPUs leaves room for the split tasks."""
    import ray
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(lo, min(hi, cpus // 2))


_worker_cache: dict = {}


def _cached_get(ref):
    """``ray.get`` memoized per worker process, keyed by the ref: every
    broadcast (the build's id mapping, a lookup join's prepared right
    side) is fetched once per worker, not once per batch. Bounded:
    an entry can be broadcast-sized and pin its plasma object through
    zero-copy views, so repeated jobs in one long-lived process must
    not accumulate them."""
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    if key not in _worker_cache:
        import ray
        while len(_worker_cache) >= 8:
            _worker_cache.pop(next(iter(_worker_cache)))
        _worker_cache[key] = ray.get(ref)
    return _worker_cache[key]


def sha256_hex_column(arr: pa.Array | pa.ChunkedArray,
                      null_sentinel: str | None = None) -> pa.Array:
    """Per-value sha256 hexdigest of a string/binary column.

    hashlib is inherently per-value, but the values are fed as zero-copy
    memoryview slices of the Arrow data buffer — no to_pylist() round
    trip copying every document into a Python object first.

    NULL values hash to ``null_sentinel`` (required if the column can
    contain NULLs).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if t in (pa.string(), pa.binary()):
        arr = arr.cast(pa.binary())
        off_dtype = np.int32
    else:
        arr = arr.cast(pa.large_binary())
        off_dtype = np.int64
    n = len(arr)
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype,
                         count=n + 1, offset=arr.offset * off_dtype().nbytes)
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    sha = hashlib.sha256
    if arr.null_count == 0:
        out = [sha(data[offs[i]:offs[i + 1]]).hexdigest() for i in range(n)]
    else:
        if null_sentinel is None:
            raise ValueError("column contains NULLs; pass null_sentinel")
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
        out = [sha(data[offs[i]:offs[i + 1]]).hexdigest() if valid[i]
               else null_sentinel for i in range(n)]
    return pa.array(out, type=pa.string())
