"""Distinct-count operators: exact per-group COUNT(DISTINCT) and a
mergeable HyperLogLog sketch.

Ray Data has no count-distinct aggregate; at 100 TB the exact answer
needs a shuffle of the DISTINCT keys, while an approximate answer can
travel as fixed-size mergeable register blobs (one per group per batch)
— the classic sketch trade. Both shapes here:

- ``exact_distinct_per_group``: map-side pair dedupe -> one shuffle of
  the UNIQUE (group, value) pairs -> tiny count aggregation. The shuffle
  is bounded by the distinct-pair count, not the row count; the
  SQL-oracle-gated path.
- ``hll_distinct_per_group``: per-batch HyperLogLog registers per group
  (vectorized splitmix64 + exact integer clz, uint8 register scatter),
  merged with an elementwise max inside a single small groupby — only
  ``m = 2**p`` bytes per (group, batch) ever move, rows never shuffle.
  Standard bias handling: linear counting below 2.5m (64-bit hashes
  need no large-range correction). Relative error ~ 1.04/sqrt(m)
  (p=12 -> ~1.6%); deterministic and partitioning-independent (register
  max is associative+commutative), pytest-pinned against exact counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ------------------------------------------------------------------ exact

def exact_distinct_per_group(ds, group_col: str, value_col: str,
                             alias: str = "n_distinct"):
    """(group_col, n_distinct) — exact COUNT(DISTINCT value) per group.

    NULL rule, shared with :func:`hll_distinct_per_group`: a NULL group
    key names no group, so its rows are dropped; NULL values never
    count, and a group whose every value is NULL appears with 0."""
    from ray.data.aggregate import Sum

    from .. import use_push_shuffle
    use_push_shuffle(ds)

    def local_pairs(batch: pa.Table) -> pa.Table:
        # per-batch dedupe so only locally-unique pairs enter the
        # shuffle; NULL values are excluded like SQL COUNT(DISTINCT)
        t = batch.select([group_col, value_col])
        return t.filter(pc.and_(pc.is_valid(t[group_col]),
                                pc.is_valid(t[value_col]))) \
                .group_by([group_col, value_col]).aggregate([])

    uniq = (ds.map_batches(local_pairs, batch_format="pyarrow")
              .groupby([group_col, value_col]).count())

    def local_counts(batch: pa.Table) -> pa.Table:
        a = batch.group_by(group_col).aggregate([("count()", "count")])
        return pa.table({group_col: a[group_col],
                         "c": a["count()_count"].cast(pa.int64())})

    def group_zeros(batch: pa.Table) -> pa.Table:
        # groups whose every value is NULL must still appear with 0
        # (SQL: SELECT g, COUNT(DISTINCT v) GROUP BY g) — emit one
        # zero partial per batch-distinct group
        gonly = batch.select([group_col]) \
            .filter(pc.is_valid(batch[group_col])) \
            .group_by(group_col).aggregate([])
        return pa.table({group_col: gonly[group_col],
                         "c": pa.array(
                             np.zeros(gonly.num_rows, dtype=np.int64))})

    agg = (uniq.map_batches(local_counts, batch_format="pyarrow")
               .union(ds.map_batches(group_zeros,
                                     batch_format="pyarrow"))
               .groupby(group_col).aggregate(Sum("c", alias_name=alias)))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({group_col: batch[group_col],
                         alias: batch[alias].cast(pa.int64())})
    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------------------- HLL

def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over uint64 (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _clz64(w: np.ndarray) -> np.ndarray:
    """Exact leading-zero count of uint64 values (w == 0 -> 64): six
    halving steps, pure integer — float log2 would misround near
    power-of-two boundaries above 2^53."""
    n = np.full(w.shape, 64, dtype=np.int64)
    w = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = w >= (np.uint64(1) << np.uint64(shift))
        n[big] -= shift
        w[big] >>= np.uint64(shift)
    n[w > 0] -= 1
    return n


def _hash_column(col: pa.Array) -> np.ndarray:
    """Column -> uint64 hashes. Integer columns hash their values
    directly (splitmix64 is a bijective mixer); strings/binary hash
    their bytes via two crc32 passes combined into 64 bits."""
    if pa.types.is_integer(col.type):
        return _splitmix64(col.cast(pa.int64()).to_numpy()
                           .astype(np.uint64))
    from ..util import crc32_column
    c1 = crc32_column(col).astype(np.uint64)
    # second, decorrelated pass: crc of the values with a rotated seed
    c2 = crc32_column(col, seed=0x9E3779B9).astype(np.uint64)
    return _splitmix64((c1 << np.uint64(32)) | c2)


def _estimate(regs: np.ndarray) -> int:
    """Bias-corrected HLL estimate from one uint8 register array."""
    m = len(regs)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)   # linear counting (small range)
    return int(round(e))


def hll_distinct_per_group(ds, group_col: str, value_col: str,
                           p: int = 12, alias: str = "n_distinct_hll"):
    """(group_col, n_distinct_hll) — HyperLogLog estimate per group.

    Per batch: one register blob (2**p bytes) per group present; the
    only shuffle moves those blobs. p=12 -> 4 KiB/blob, ~1.6% error.
    NULLs follow :func:`exact_distinct_per_group`, so both return the
    same groups."""
    if not 4 <= p <= 18:
        raise ValueError(f"p={p} outside [4, 18]")
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({group_col: batch[group_col],
                             "regs": pa.array([], pa.binary())})
        # NULL-group rows are dropped — without the filter the
        # zero-copy index/hash paths raise ArrowInvalid mid-pipeline
        ok = pc.is_valid(batch[group_col])
        if not pc.all(ok).as_py():
            batch = batch.filter(ok)
            if batch.num_rows == 0:
                return pa.table({group_col: batch[group_col],
                                 "regs": pa.array([], pa.binary())})
        g = batch[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        denc = pc.dictionary_encode(g)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy().astype(np.int64)
        ng = len(denc.dictionary)
        # a NULL value sets no register, but its group still emits a
        # blob: an all-NULL group estimates 0, as the exact count is 0
        vals = batch[value_col]
        valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        h = _hash_column(vals.filter(pa.array(valid)))
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = (h << np.uint64(p)).astype(np.uint64)
        rho = (_clz64(w) + 1).clip(max=64 - p + 1).astype(np.uint8)
        regs = np.zeros((ng, m), dtype=np.uint8)
        np.maximum.at(regs, (codes[valid], idx), rho)
        return pa.table({
            group_col: denc.dictionary,
            "regs": pa.array([regs[i].tobytes() for i in range(ng)],
                             type=pa.binary()),
        })

    def _max_blobs(group: pa.Table) -> np.ndarray:
        blobs = np.frombuffer(
            b"".join(group["regs"].to_pylist()), dtype=np.uint8
        ).reshape(group.num_rows, m)
        return blobs.max(axis=0)

    def pre_merge(group: pa.Table) -> pa.Table:
        return pa.table({
            group_col: group[group_col].slice(0, 1),
            "regs": pa.array([_max_blobs(group).tobytes()],
                             type=pa.binary()),
        })

    def merge(group: pa.Table) -> pa.Table:
        return pa.table({
            group_col: group[group_col].slice(0, 1),
            alias: pa.array([_estimate(_max_blobs(group))],
                            type=pa.int64()),
        })

    def add_sub(batch: pa.Table) -> pa.Table:
        # deterministic fan-in key from the blob bytes: the two-level
        # merge bounds any single task to ~n_batches/64 blobs per group
        # (register max is associative + commutative, so the tree shape
        # cannot change the result)
        from ..util import crc32_column
        sub = crc32_column(batch["regs"]) % np.uint32(64)
        return batch.append_column(
            "__sub", pa.array(sub.astype(np.int64)))

    from .. import use_push_shuffle
    use_push_shuffle(ds)
    return (ds.select_columns([group_col, value_col])
              .map_batches(partial, batch_format="pyarrow")
              .map_batches(add_sub, batch_format="pyarrow")
              .groupby([group_col, "__sub"])
              .map_groups(pre_merge, batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(merge, batch_format="pyarrow"))


# --------------------------------------------------------- heavy hitters

def _mg_prune(t: pa.Table, group_col: str, item_col: str, c_col: str,
              k: int) -> pa.Table:
    """Misra-Gries prune, vectorized over EVERY group at once: within
    each group sort counts desc (item asc ties), subtract the (k+1)-th
    largest count from all, drop <= 0 — at most k survivors per group.
    The subtraction is what buys the mergeable error bound (Agarwal et
    al., Mergeable Summaries, PODS'12 §3.1)."""
    if t.num_rows == 0:
        return t
    order = pc.sort_indices(t, sort_keys=[
        (group_col, "ascending"), (c_col, "descending"),
        (item_col, "ascending")])
    t = t.take(order)
    g = t[group_col].combine_chunks()
    if len(g) > 1:
        neq = pc.not_equal(g.slice(1), g.slice(0, len(g) - 1)) \
            .to_numpy(zero_copy_only=False)
    else:
        neq = np.zeros(0, dtype=bool)
    run_id = np.cumsum(np.append(0, neq.astype(np.int64)))
    starts = np.flatnonzero(np.append(True, neq))
    c = t[c_col].to_numpy()
    lens = np.diff(np.append(starts, len(g)))
    # the (k+1)-th largest per run, 0 where the run has <= k items
    thr_pos = starts + np.minimum(k, lens - 1)
    thr = np.where(lens > k, c[thr_pos], 0)
    resid = c - thr[run_id]
    keep = resid > 0
    out = t.filter(pa.array(keep))
    return out.set_column(out.schema.get_field_index(c_col), c_col,
                          pa.array(resid[keep], type=pa.int64()))


def mg_heavy_hitters(ds, group_col: str, item_col: str, k: int = 8):
    """Per-group frequent items via mergeable Misra-Gries summaries.

    Unlike the exact grouped count (which must shuffle every distinct
    (group, item) pair), only <= k+1 rows per (group, batch) ever move:
    each batch emits its exact per-group item counts PRUNED to a
    capacity-k MG summary plus one exact group-total row, and one small
    groupby merges summaries (sum per item, prune again).

    Returns (group, item, est_count, err_bound, n_group) for the items
    retained by the final summary, with the PODS'12 guarantees:
    ``est_count <= true_count <= est_count + err_bound`` and every item
    with ``true_count > err_bound`` present, where ``err_bound =
    (n_group - sum(est_count)) // (k+1)`` per group. Estimates depend
    on batch boundaries (any MG merge tree does); the BOUNDS always
    hold — the driver entry asserts them against the exact counts
    in-entry, and pytest pins them across partitionings.
    """
    from .. import use_push_shuffle
    use_push_shuffle(ds)

    def partial(batch: pa.Table) -> pa.Table:
        a = batch.select([group_col, item_col]) \
                 .group_by([group_col, item_col]) \
                 .aggregate([([], "count_all")])
        cnt = pa.table({group_col: a[group_col], item_col: a[item_col],
                        "c": a["count_all"].cast(pa.int64())})
        pruned = _mg_prune(cnt, group_col, item_col, "c", k)
        tot = batch.select([group_col]).group_by(group_col) \
                   .aggregate([([], "count_all")])
        totals = pa.table({
            group_col: tot[group_col],
            item_col: pa.nulls(tot.num_rows, cnt[item_col].type),
            "c": tot["count_all"].cast(pa.int64())})
        return pa.concat_tables([pruned, totals.cast(pruned.schema)])

    def merge(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return pa.table({})
        is_tot = pc.is_null(group[item_col])
        n_group = int(pc.sum(group.filter(is_tot)["c"]).as_py() or 0)
        items = group.filter(pc.invert(is_tot))
        summed = items.group_by([group_col, item_col]).aggregate(
            [("c", "sum")])
        summed = pa.table({group_col: summed[group_col],
                           item_col: summed[item_col],
                           "c": summed["c_sum"].cast(pa.int64())})
        final = _mg_prune(summed, group_col, item_col, "c", k)
        est_sum = int(pc.sum(final["c"]).as_py() or 0)
        err = (n_group - est_sum) // (k + 1)
        n = final.num_rows
        return pa.table({
            group_col: final[group_col],
            item_col: final[item_col],
            "est_count": final["c"],
            "err_bound": pa.array(np.full(n, err, dtype=np.int64)),
            "n_group": pa.array(np.full(n, n_group, dtype=np.int64)),
        })

    return (ds.select_columns([group_col, item_col])
              .map_batches(partial, batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(merge, batch_format="pyarrow"))


# ------------------------------------------------------------------ Bloom

def bloom_params(n_items: int, fpr: float = 1e-3) -> tuple[int, int]:
    """Optimal (n_bits, k) for ``n_items`` keys at false-positive rate
    ``fpr``: n_bits = -n ln p / ln^2 2 (rounded up to a multiple of 8),
    k = (n_bits/n) ln 2."""
    import math
    n_items = max(int(n_items), 1)
    n_bits = int(math.ceil(-n_items * math.log(fpr) / (math.log(2) ** 2)))
    n_bits = max((n_bits + 7) & ~7, 64)
    k = max(int(round(n_bits / n_items * math.log(2))), 1)
    return n_bits, k


def _bloom_positions(h: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """k bit positions per uint64 hash via Kirsch–Mitzenmacher double
    hashing: pos_i = (h1 + i*h2) mod n_bits, h2 forced odd. Returns a
    flat int64 array of len(h)*k positions."""
    h = h.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        h2 = _splitmix64(h ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        i = np.arange(k, dtype=np.uint64)
        pos = (h[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)
    return pos.reshape(-1).astype(np.int64)


def bloom_build(ds, value_col: str | None = None, *, n_bits: int,
                k: int = 4, hash_col: str | None = None) -> np.ndarray:
    """Bloom filter over a column -> one uint8 bitmap (little-endian bit
    order: bit i lives at ``bitmap[i >> 3] & (1 << (i & 7))``).

    Assembly is RANGE-PARTITIONED so nothing larger than the final
    bitmap ever concentrates: map tasks emit per-batch DEDUPLICATED bit
    positions (k*rows*8 bytes, the only exchange), a 64-way groupby
    over ``pos // sub_range`` packs each range's bits in parallel, and
    the driver concatenates the 64 range blobs — exactly bitmap-sized,
    the same driver budget as HLL registers or k-means centroids. At
    1e8 keys / 1e-3 fpr the bitmap is ~180 MB: broadcast once with
    ``ray.put``; for key sets far beyond that, use the partitioned
    exact joins instead (a bloom that big stops being the small side).

    ``hash_col`` names a precomputed uint64-as-int64 hash column
    (e.g. a rolling-window hash); otherwise ``value_col`` is hashed
    with the sketch family's `_hash_column`.
    """
    if (value_col is None) == (hash_col is None):
        raise ValueError("pass exactly one of value_col / hash_col")
    n_sub = 64
    sub_range = -(-n_bits // n_sub)
    sub_range = (sub_range + 7) & ~7          # byte-aligned ranges
    n_bytes = n_bits // 8

    def positions(batch: pa.Table) -> pa.Table:
        col = batch[hash_col or value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if hash_col is not None:
            h = col.to_numpy(zero_copy_only=False).view(np.uint64)
        else:
            h = _hash_column(col)
        pos = np.unique(_bloom_positions(h, n_bits, k))
        return pa.table({"pos": pa.array(pos, type=pa.int64()),
                         "sub": pa.array(pos // sub_range)})

    def pack(group: pa.Table) -> pa.Table:
        sub = int(group["sub"][0].as_py())
        lo = sub * sub_range
        width = min(sub_range, n_bits - lo)
        bits = np.zeros(width, dtype=np.uint8)
        bits[group["pos"].to_numpy() - lo] = 1
        return pa.table({
            "sub": pa.array([sub], type=pa.int64()),
            "bits": pa.array([np.packbits(bits, bitorder="little")
                              .tobytes()], type=pa.binary()),
        })

    parts = (ds.map_batches(positions, batch_format="pyarrow")
               .groupby("sub")
               .map_groups(pack, batch_format="pyarrow")
               .take_all())                       # <= 64 bitmap-range rows
    bitmap = np.zeros(n_bytes, dtype=np.uint8)
    for row in parts:
        lo = row["sub"] * sub_range // 8
        blob = np.frombuffer(row["bits"], dtype=np.uint8)
        bitmap[lo:lo + len(blob)] |= blob
    return bitmap


def bloom_test(h: np.ndarray, bitmap: np.ndarray, n_bits: int,
               k: int) -> np.ndarray:
    """Membership test of uint64 hashes against a `bloom_build` bitmap:
    bool array, True = maybe-member (no false negatives)."""
    if len(h) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(h, n_bits, k).reshape(len(h), k)
    hits = (bitmap[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
    return hits.all(axis=1)


def bloom_probe(ds, value_col: str, bitmap_ref, n_bits: int, k: int,
                alias: str = "maybe_member"):
    """Map-only membership flags against a broadcast bitmap
    (``bitmap_ref`` = ``ray.put(bitmap)``, fetched zero-copy once per
    worker)."""
    import ray

    def probe(batch: pa.Table) -> pa.Table:
        bitmap = ray.get(bitmap_ref)
        h = _hash_column(batch[value_col])
        return batch.append_column(
            alias, pa.array(bloom_test(h, bitmap, n_bits, k)))

    return ds.map_batches(probe, batch_format="pyarrow")


# --------------------------------------------------------------- Count-Min

def _cm_cols(h: np.ndarray, width: int, depth: int) -> np.ndarray:
    """(len(h), depth) column indices: row i hashes h through
    splitmix64 with a row-derived seed."""
    with np.errstate(over="ignore"):
        seeds = _splitmix64(np.arange(1, depth + 1, dtype=np.uint64)
                            * np.uint64(0x9E3779B97F4A7C15))
        cols = _splitmix64(h[:, None] ^ seeds[None, :]) % np.uint64(width)
    return cols.astype(np.int64)


def cm_build(ds, key_col: str, width: int = 1 << 16,
             depth: int = 4) -> np.ndarray:
    """Count-Min sketch (Cormode & Muthukrishnan '05) of a key column:
    one (depth, width) int64 matrix. Point estimates via `cm_query`
    never under-count; over-count <= e*N/width with probability
    1 - e^-depth per query.

    Deterministic and partitioning-independent (cell sums are
    associative), pytest-pinned. Build is SPARSE + range-partitioned:
    map tasks emit (row, col, count) triples for the keys PRESENT in
    the batch (<= depth * distinct-per-batch rows — never the dense
    matrix), one `col // sub_range` groupby sums each column range in
    parallel, and the driver assembles exactly matrix-sized blobs
    (the HLL/bloom driver budget)."""
    n_sub = 64
    sub_range = -(-width // n_sub)

    def triples(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if col.null_count:
            # NULL keys are dropped (zero-copy index/hash paths would
            # raise ArrowInvalid; a NULL key has no sketch cell)
            batch = batch.filter(pc.is_valid(col))
            col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        denc = pc.dictionary_encode(col)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy().astype(np.int64)
        cnt = np.bincount(codes, minlength=len(denc.dictionary))
        h = _hash_column(denc.dictionary)
        cols = _cm_cols(h, width, depth)          # (n_distinct, depth)
        nk = len(h)
        rows = np.broadcast_to(np.arange(depth, dtype=np.int64),
                               (nk, depth))
        return pa.table({
            "r": pa.array(rows.reshape(-1)),
            "c": pa.array(cols.reshape(-1)),
            "v": pa.array(np.repeat(cnt, depth).astype(np.int64)),
            "sub": pa.array(cols.reshape(-1) // sub_range),
        })

    def pack(group: pa.Table) -> pa.Table:
        sub = int(group["sub"][0].as_py())
        lo = sub * sub_range
        w = min(sub_range, width - lo)
        m = np.zeros((depth, w), dtype=np.int64)
        np.add.at(m, (group["r"].to_numpy(),
                      group["c"].to_numpy() - lo), group["v"].to_numpy())
        return pa.table({
            "sub": pa.array([sub], type=pa.int64()),
            "blob": pa.array([m.tobytes()], type=pa.binary()),
        })

    parts = (ds.select_columns([key_col])
               .map_batches(triples, batch_format="pyarrow")
               .groupby("sub")
               .map_groups(pack, batch_format="pyarrow")
               .take_all())                      # <= 64 matrix-range rows
    matrix = np.zeros((depth, width), dtype=np.int64)
    for row in parts:
        lo = row["sub"] * sub_range
        blob = np.frombuffer(row["blob"], dtype=np.int64).reshape(depth, -1)
        matrix[:, lo:lo + blob.shape[1]] += blob
    return matrix


def cm_query(matrix: np.ndarray, keys: pa.Array) -> np.ndarray:
    """Point count estimates (int64, >= true count) for each key."""
    depth, width = matrix.shape
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    h = _hash_column(keys)
    if len(h) == 0:
        return np.zeros(0, dtype=np.int64)
    cols = _cm_cols(h, width, depth)
    return matrix[np.arange(depth)[None, :], cols].min(axis=1)
