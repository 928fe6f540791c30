"""Deduplication operators.

- exact: content-hash partition + per-group min-id keeper (the classic
  hash-partition + first-of-group pattern; one shuffle of (hash, id)
  pairs only — content never re-shuffles).
- MinHash + LSH: shingle -> 64-perm minhash signature -> banded LSH
  buckets -> candidate pairs -> signature-estimate verification. The
  per-batch signature computation is fully vectorized (dictionary-encoded
  tokens, universal hashing, segment minima via ufunc.reduceat).
- SimHash: 64-bit weighted sign fingerprint; near-dup pairs by banded
  pigeonhole bucketing + exact Hamming verification.

All stages are `map_batches`/`groupby`/`join` compositions — no
driver-side loops over rows and no driver materialization of per-doc
state: bucket groupbys move only (key, id) pairs, and verification
state (signatures / shingle sets / embeddings) reaches the verify stage
through two lookup joins of the distinct candidate pairs against the
state dataset (`_join_pair_state`): broadcast under the one byte gate,
hash-partitioned above it.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import (NULL_HASH, crc32_column, multi_arange,
                    sha256_hex_column)

logger = logging.getLogger(__name__)

_MERSENNE = np.uint64((1 << 61) - 1)
_NUM_PERM = 64


def _token_ids_flat(batch: pa.Table, text_col: str, hash64: bool = False,
                    return_lens: bool = False):
    """Lowercased alnum tokens per doc -> (flat base hashes, doc offsets).

    ``hash64=False`` keeps the historical 32-bit crc32 token hash (the
    minhash/simhash signature tests pin its exact values). ``hash64=True``
    widens to 64 bits — crc32(term) in the high word, crc32(reversed
    term) in the low — for the EXACT-join operators, where a 32-bit
    token collision would perturb a set's distinct count and break the
    SQL-oracle equality (still two vectorized passes over the
    dictionary's value buffer, never per-token Python)."""
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    lists = pc.split_pattern_regex(pc.utf8_lower(t), pattern=r"[^a-z0-9]+")
    flat = pc.list_flatten(lists)
    keep = pc.greater(pc.binary_length(flat), 0)
    # rebuild per-doc counts after dropping empties
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep_np = keep.to_numpy(zero_copy_only=False)
    parent = parent[keep_np]
    flat = flat.filter(keep)
    counts = np.bincount(parent, minlength=len(t)).astype(np.int64)
    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    vocab_hash = crc32_column(denc.dictionary).astype(np.uint64)
    if hash64:
        rev = pc.utf8_reverse(denc.dictionary)
        vocab_hash = (vocab_hash << np.uint64(32)) \
            | crc32_column(rev).astype(np.uint64)
    base = vocab_hash[denc.indices.to_numpy(zero_copy_only=False)] \
        if len(flat) else np.zeros(0, dtype=np.uint64)
    if return_lens:
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return base, counts, lens
    return base, counts


def _shingle_hashes(base: np.ndarray, counts: np.ndarray, k: int = 3):
    """k-token shingle hashes, flat across the whole batch.

    Fully vectorized over the flat token stream: the hash at flat
    position i combines base[i..i+k-1]; positions whose window crosses a
    document boundary are masked out. Returns (flat shingle hashes in
    doc order, per-doc shingle counts = max(count-k+1, 0))."""
    mults = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9], dtype=np.uint64)[:k]
    out_counts = np.maximum(counts - k + 1, 0)
    total = len(base)
    if total < k:
        return np.zeros(0, dtype=np.uint64), out_counts
    m = total - k + 1
    h = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h ^= base[j:m + j] * mults[j]
    parent = np.repeat(np.arange(len(counts)), counts)
    valid = parent[:m] == parent[k - 1:]
    return h[valid], out_counts


def _perm_params(num_perm: int = _NUM_PERM, seed: int = 1):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    return a, b


# ------------------------------------------------------------------ exact

def exact_hash_batch(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    # NULL text hashes to a sentinel distinct from sha256('') — SQL's
    # GROUP BY text keeps NULL and '' as separate groups, so must we
    hashes = sha256_hex_column(batch[text_col], null_sentinel=NULL_HASH)
    return pa.table({id_col: batch[id_col],
                     "content_hash": hashes})


def exact_dedup_keep(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Dataset of (content_hash, keep_id=min id, n_dups) per distinct text."""
    from ray.data.aggregate import Count, Min
    from .. import use_push_shuffle
    use_push_shuffle(ds)
    hashed = ds.map_batches(
        lambda b: exact_hash_batch(b, text_col, id_col), batch_format="pyarrow")
    return hashed.groupby("content_hash").aggregate(
        Min(id_col, alias_name="keep_id"), Count(alias_name="n_dups"))


# ---------------------------------------------------------------- minhash

def minhash_signatures(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id", num_perm: int = _NUM_PERM,
                       shingle_k: int = 3, seed: int = 1) -> pa.Table:
    """(doc_id, sig: list<uint64>[num_perm]); empty docs get all-max sig."""
    base, counts = _token_ids_flat(batch, text_col)
    sh_flat, sh_counts = _shingle_hashes(base, counts, shingle_k)
    a, b = _perm_params(num_perm, seed)
    sigs = np.full((len(counts), num_perm), np.iinfo(np.uint64).max,
                   dtype=np.uint64)
    if len(sh_flat):
        starts = np.cumsum(sh_counts) - sh_counts
        nz = sh_counts > 0
        starts_nz = starts[nz]
        # one vector pass per permutation (loop over the 64 perms, never
        # over docs) — a full (perms x shingles) matrix would allocate
        # hundreds of MB per batch
        with np.errstate(over="ignore"):
            for p in range(num_perm):
                vals = (a[p] * sh_flat + b[p]) % _MERSENNE
                sigs[nz, p] = np.minimum.reduceat(vals, starts_nz)
    return pa.table({
        id_col: batch[id_col],
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).astype(np.int64)), num_perm),
    })


def explode_bands(batch: pa.Table, id_col: str = "doc_id",
                  bands: int = 16) -> pa.Table:
    sig = batch["sig"]
    if isinstance(sig, pa.ChunkedArray):
        sig = sig.combine_chunks()
    num_perm = sig.type.list_size
    if bands <= 0 or num_perm % bands:
        # a non-divisor silently dead-weights trailing permutations;
        # bands > num_perm would degenerate to ONE global bucket
        raise ValueError(f"bands={bands} must divide num_perm="
                         f"{num_perm}")
    rows = num_perm // bands
    mat = sig.values.to_numpy(zero_copy_only=False).reshape(-1, num_perm)
    out_id, out_band, out_hash = [], [], []
    with np.errstate(over="ignore"):
        for bi in range(bands):
            chunk = mat[:, bi * rows:(bi + 1) * rows].astype(np.uint64)
            h = np.zeros(len(mat), dtype=np.uint64)
            for j in range(rows):
                h = h * np.uint64(1099511628211) ^ chunk[:, j]
            out_id.append(batch[id_col].to_numpy())
            out_band.append(np.full(len(mat), bi, dtype=np.int64))
            out_hash.append(h.astype(np.int64))
    return pa.table({
        id_col: pa.array(np.concatenate(out_id)),
        "band": pa.array(np.concatenate(out_band)),
        "band_hash": pa.array(np.concatenate(out_hash)),
    })


_PAIR_PARTITIONS = 512  # LSH buckets hash-packed into this many groups


def _pair_rows_in_partition(
        sort_keys: list[np.ndarray],
        max_bucket: int,
        star_neg_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-index pairs within equal-key runs, fully vectorized.

    ``sort_keys`` are already-sorted parallel key arrays defining the
    runs (an LSH bucket each). Instead of one UDF call per bucket (Ray's
    map_groups dispatch costs ~6µs x millions of tiny buckets), runs are
    detected with one diff and pairs expanded per DISTINCT RUN SIZE —
    a handful of vectorized triu broadcasts.

    Buckets larger than ``max_bucket`` emit STAR pairs against the
    bucket's first row (min id, since rows are id-sorted within a run)
    instead of all O(n²) pairs: a large duplicate CLUSTER (the most
    common real near-dup shape — hundreds of copies of one document) is
    exactly such a bucket, and every member must stay reachable. Star
    pairs are O(n) and preserve connected components — member k links
    to the representative, so the component {rep, m1, .., mk} survives
    any transitive-closure dedup. Returns (row_idx_a, row_idx_b,
    n_capped_buckets) into the sorted table.
    """
    n = len(sort_keys[0])
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), 0
    change = np.zeros(n - 1, dtype=bool)
    for k in sort_keys:
        change |= k[1:] != k[:-1]
    starts = np.flatnonzero(np.append(True, change))
    lens = np.diff(np.append(starts, n))
    out_a, out_b = [], []
    n_capped = 0
    for s in np.unique(lens):
        if s < 2:
            continue
        sel = starts[lens == s]
        if s > max_bucket:
            # star expansion: (first row, each other row) per bucket
            n_capped += len(sel)
            out_a.append(np.repeat(sel, int(s) - 1))
            out_b.append((sel[:, None]
                          + np.arange(1, int(s))[None, :]).ravel())
            if star_neg_ids is not None:
                # contamination mode (round-5 review): EVERY negative-
                # id row (a probe) must ALSO star against the bucket —
                # the min-id star alone preserves connectivity for
                # transitive dedup, but probe-doc pairs are consumed
                # DIRECTLY, so a probe sharing a bucket with another
                # probe would otherwise silently lose all its docs.
                # Over-cap buckets are rare and probes are few, so the
                # per-bucket loop is cheap.
                for st in sel.tolist():
                    rows = np.arange(st, st + int(s))
                    negs = rows[star_neg_ids[rows]]
                    for c in negs[1:] if (len(negs) and negs[0] == st) \
                            else negs:
                        others = rows[rows != c]
                        out_a.append(np.full(len(others), c,
                                             dtype=np.int64))
                        out_b.append(others)
            continue
        idx = sel[:, None] + np.arange(s)[None, :]   # (runs, s) row indices
        ia, ib = np.triu_indices(int(s), k=1)
        out_a.append(idx[:, ia].ravel())
        out_b.append(idx[:, ib].ravel())
    if not out_a:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), n_capped
    return (np.concatenate(out_a).astype(np.int64),
            np.concatenate(out_b).astype(np.int64), n_capped)


def _add_pkey(batch: pa.Table, key_cols: list[str],
              parts: int = _PAIR_PARTITIONS) -> pa.Table:
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in key_cols:
            h = h * np.uint64(1099511628211) ^ \
                batch[c].to_numpy().astype(np.uint64)
    return batch.append_column("pkey", pa.array(
        (h % np.uint64(parts)).astype(np.int64)))


def _make_partition_pairs(key_cols: list[str], id_col: str,
                          max_bucket: int, extra_col: str | None = None,
                          star_neg: bool = False):
    """map_groups fn over one pkey partition: sort by bucket keys + id,
    emit (a, b[, extra_a, extra_b]) for every intra-bucket pair.
    ``star_neg``: negative-id rows (reserved probe range) also star
    against over-cap buckets (see _pair_rows_in_partition)."""

    def fn(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[(c, "ascending") for c in key_cols]
            + [(id_col, "ascending")])
        group = group.take(order)
        keys = [group[c].to_numpy() for c in key_cols]
        neg = (group[id_col].to_numpy() < 0) if star_neg else None
        ra, rb, n_capped = _pair_rows_in_partition(keys, max_bucket, neg)
        if n_capped:
            logger.warning(
                "%d bucket(s) over max_bucket=%d in this partition: "
                "emitted star pairs against each bucket's min-id "
                "representative instead of all O(n^2) pairs (connected "
                "components preserved)", n_capped, max_bucket)
        ids = group[id_col].to_numpy()
        ia, ib = ids[ra], ids[rb]
        swap = ia > ib           # probe stars can emit center > other;
        if swap.any():           # the pair contract is a < b by id
            ra, rb = np.where(swap, rb, ra), np.where(swap, ra, rb)
            ia, ib = ids[ra], ids[rb]
        cols = {"a": pa.array(ia, type=pa.int64()),
                "b": pa.array(ib, type=pa.int64())}
        if extra_col is not None:
            ex = group[extra_col].to_numpy()
            cols["extra_a"] = pa.array(ex[ra])
            cols["extra_b"] = pa.array(ex[rb])
        return pa.table(cols)
    return fn


def _pack_rows(mat: np.ndarray) -> pa.Array:
    """(n, w) fixed-dtype matrix -> binary column (one row per value).

    Arrow binary is acero-join-compatible (list types are not), so
    per-doc state rides through partitioned joins as packed bytes."""
    mat = np.ascontiguousarray(mat)
    n = len(mat)
    w = mat.dtype.itemsize * (mat.shape[1] if mat.ndim > 1 else 1)
    if n * w >= 2**31:
        # int32 binary offsets would silently wrap — this only happens
        # when a single BATCH packs >2 GiB of state; shrink batch_size
        raise ValueError(
            f"packed state batch is {n * w} bytes (>= 2 GiB): arrow "
            "binary offsets are int32 — reduce the batch size upstream")
    offs = np.arange(n + 1, dtype=np.int32) * w
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(mat.tobytes())])


def _unpack_fixed(col, dtype, width: int) -> np.ndarray:
    """binary column of uniform ``width``-element rows -> (n, width) array,
    vectorized (no per-row Python)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, width), dtype=dtype)
    itemsize = np.dtype(dtype).itemsize
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=col.offset * 4)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    idx = offs[:-1, None] + np.arange(width * itemsize)[None, :]
    return data[idx].reshape(n, width * itemsize).view(dtype)


def _unpack_varlen(col, dtype) -> tuple[np.ndarray, np.ndarray]:
    """binary column of variable-length packed arrays -> (flat values in
    row order, per-row element counts), vectorized."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    itemsize = np.dtype(dtype).itemsize
    if n == 0:
        return np.zeros(0, dtype=dtype), np.zeros(0, np.int64)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=col.offset * 4).astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    lens = (offs[1:] - offs[:-1])
    total = int(lens.sum())
    idx = np.repeat(offs[:-1], lens) + multi_arange(lens)
    return data[idx][:total].view(dtype), (lens // itemsize)


def _attach_state(sides: str, distinct: bool = False):
    """``lookup_join`` apply for the pair-state verify: inner-attach the
    state of each pair member in ``sides`` ("a", "b" or "ab") as
    ``state_<side>``; ``distinct`` also drops repeated (a, b) pairs
    within its input."""
    carry = ["a", "b"] + (["state_a"] if sides == "b" else [])
    schema = pa.schema([("a", pa.int64()), ("b", pa.int64())]
                       + [(c, pa.binary()) for c in carry[2:]]
                       + [(f"state_{s}", pa.binary()) for s in sides])

    def apply(batch: pa.Table, state) -> pa.Table:
        # pair blocks from map_groups can be zero-column
        if batch.num_columns == 0 or batch.num_rows == 0:
            return schema.empty_table()
        from .equijoin import probe
        keys, vals = state
        out = batch.select(carry)
        for side in sides:
            pos, hit = probe(keys, out[side])
            out = out.filter(pa.array(hit)).append_column(
                f"state_{side}", vals.take(pa.array(pos[hit])))
        out = out.cast(schema)
        if distinct and out.num_rows:
            arr = np.stack([out["a"].to_numpy(), out["b"].to_numpy()],
                           axis=1)
            _, idx = np.unique(arr, axis=0, return_index=True)
            out = out.take(pa.array(np.sort(idx)))
        return out
    return apply


def _join_pair_state(pairs_ds, state_ds, id_col: str, state_col: str,
                     num_partitions: int | None = None):
    """Attach per-id state to BOTH sides of the distinct candidate
    pairs through ``lookup_join`` against the state table. Under the
    gate: a global pair-distinct, then one map-side pass attaches both
    states from the one broadcast (map-side attaches see batches, not
    partitions, so the distinct cannot fuse into them). Above it: two
    joins keyed by ``a`` then ``b``, each moving only (a, b, state)
    rows hash-partitioned by its key — the 100-TB path where nothing
    lands on the driver or in any single worker heap. The second
    partitions by b, so every duplicate of a pair (same (a, b) from
    different LSH bands) meets in one partition and the global
    pair-distinct fuses into it."""
    from .equijoin import fits_broadcast, lookup_join

    def prepare(t: pa.Table):
        keys = t[id_col].to_numpy()
        order = np.argsort(keys, kind="stable")
        return (np.ascontiguousarray(keys[order]),
                t[state_col].combine_chunks().take(pa.array(order)))

    if fits_broadcast(state_ds):
        pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

        def norm(batch: pa.Table) -> pa.Table:
            # pin the schema of zero-column blocks before the exchange
            if batch.num_columns == 0 or batch.num_rows == 0:
                return pair_schema.empty_table()
            return batch.select(["a", "b"]).cast(pair_schema)

        # the gate reads the same materialized state_ds, so this join
        # broadcasts too and each batch sees the whole state table
        return lookup_join(_distinct_pairs(
            pairs_ds.map_batches(norm, batch_format="pyarrow")),
            state_ds, "a", prepare, _attach_state("ab"), right_on=id_col)
    j1 = lookup_join(pairs_ds, state_ds, "a", prepare,
                     _attach_state("a"), right_on=id_col,
                     num_partitions=num_partitions)
    return lookup_join(j1, state_ds, "b", prepare,
                       _attach_state("b", distinct=True),
                       right_on=id_col, num_partitions=num_partitions)


def _distinct_pairs(pairs_ds):
    """Global distinct on (a, b), keeping each pair's first row (all
    columns). Packed into _PAIR_PARTITIONS hash partitions so the
    groupby dispatches hundreds of vectorized tasks, not one Python
    call per pair."""

    def dedup(group: pa.Table) -> pa.Table:
        arr = np.stack([group["a"].to_numpy(), group["b"].to_numpy()],
                       axis=1)
        _, idx = np.unique(arr, axis=0, return_index=True)
        return group.take(pa.array(np.sort(idx))).drop_columns(["pkey"])

    packed = pairs_ds.map_batches(lambda b: _add_pkey(b, ["a", "b"]),
                                  batch_format="pyarrow")
    return packed.groupby("pkey").map_groups(dedup, batch_format="pyarrow")


def _bucketed_pairs(band_rows, key_cols: list[str], id_col: str,
                    max_bucket: int = 200, extra_col: str | None = None,
                    star_neg: bool = False):
    """band/bucket rows -> candidate pair rows (one packed-partition
    groupby instead of millions of per-bucket UDF dispatches)."""
    packed = band_rows.map_batches(lambda b: _add_pkey(b, key_cols),
                                   batch_format="pyarrow")
    return packed.groupby("pkey").map_groups(
        _make_partition_pairs(key_cols, id_col, max_bucket, extra_col,
                              star_neg),
        batch_format="pyarrow")


def _pack_sigs(batch: pa.Table, id_col: str, num_perm: int) -> pa.Table:
    """(id, sig list) -> (id, sig binary) for the acero-compatible join."""
    sig = batch["sig"]
    if isinstance(sig, pa.ChunkedArray):
        sig = sig.combine_chunks()
    mat = sig.values.to_numpy(zero_copy_only=False).reshape(-1, num_perm)
    return pa.table({id_col: batch[id_col], "sig": _pack_rows(mat)})


def minhash_candidate_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                            num_perm: int = _NUM_PERM, bands: int = 16,
                            threshold: float = 0.5, seed: int = 1,
                            join_partitions: int | None = None):
    """Near-dup pairs (a < b, jaccard_est >= threshold) via MinHash-LSH.

    Verification uses the signature estimate (matching components /
    num_perm) — the scale-appropriate check (exact shingle Jaccard would
    re-shuffle full text). Signatures reach the verify stage through
    ``_join_pair_state`` (the DISTINCT candidate pairs against the
    signature dataset, keyed by ``a`` then ``b``) — broadcast from a
    task only under the byte gate, so nothing is materialized on the
    driver and the path holds at 10^12 docs.
    """
    from .. import use_push_shuffle
    use_push_shuffle(ds)
    if bands <= 0 or num_perm % bands:
        raise ValueError(f"bands={bands} must divide num_perm={num_perm}")
    # materialize the PACKED signatures once: that single copy feeds both
    # the banding pipeline (unpacked zero-copy per batch) and the two
    # verify joins; blocks stay in the (spill-backed) object store, never
    # on the driver
    sig_bin = ds.map_batches(
        lambda b: _pack_sigs(
            minhash_signatures(b, text_col, id_col, num_perm, seed=seed),
            id_col, num_perm),
        batch_format="pyarrow").materialize()

    def explode_packed(batch: pa.Table) -> pa.Table:
        mat = _unpack_fixed(batch["sig"], np.uint64, num_perm)
        # docs with NO shingles (fewer than shingle_k tokens, empty or
        # NULL text) carry the all-max sentinel signature — real minima
        # are < 2^61 (mod-Mersenne), so the sentinel is unambiguous.
        # They must never band: identical sentinels would otherwise
        # pair EVERY short doc with every other at est 1.0 and a
        # downstream transitive dedup would collapse unrelated docs
        # (round-5 review finding; Jaccard over empty sets is
        # undefined, the convention is "never a candidate")
        real = mat[:, 0] != np.iinfo(np.uint64).max
        if not real.all():
            keep = pa.array(real)
            mat = mat[real]
            batch = batch.filter(keep)
        tbl = pa.table({
            id_col: batch[id_col],
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1).astype(np.int64)), num_perm),
        })
        return explode_bands(tbl, id_col, bands)

    band_rows = sig_bin.map_batches(explode_packed, batch_format="pyarrow")
    pairs = _bucketed_pairs(band_rows, ["band", "band_hash"], id_col)
    joined = _join_pair_state(pairs, sig_bin, id_col, "sig", join_partitions)

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "jaccard_est": pa.array([], type=pa.float64())})
        sa = _unpack_fixed(batch["state_a"], np.uint64, num_perm)
        sb = _unpack_fixed(batch["state_b"], np.uint64, num_perm)
        est = (sa == sb).mean(axis=1)
        keep = est >= threshold
        return pa.table({"a": batch["a"].filter(pa.array(keep)),
                         "b": batch["b"].filter(pa.array(keep)),
                         "jaccard_est": pa.array(est[keep])})

    return joined.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------- simhash

def simhash64(batch: pa.Table, text_col: str = "text",
              id_col: str = "doc_id",
              drop_empty: bool = False) -> pa.Table:
    """64-bit SimHash over token hashes (tf-weighted sign sums),
    vectorized with reduceat over the flat token stream.
    ``drop_empty`` removes zero-token docs (empty/NULL/punct-only
    text) from the OUTPUT — they all share signature 0 and would
    otherwise pair as 'exact' near-duplicates of each other despite
    sharing no content (the pairs pipeline passes True; the plain
    signature table keeps every doc)."""
    base, counts = _token_ids_flat(batch, text_col)
    n_docs = len(counts)
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(base):
        # re-hash crc32 (32-bit) up to 64 bits
        with np.errstate(over="ignore"):
            h64 = base * np.uint64(0x9E3779B97F4A7C15) + np.uint64(0x165667B1)
        starts = (np.cumsum(counts) - counts)
        nz = counts > 0
        starts_nz = starts[nz]
        tot = counts[nz]
        vals = np.zeros(len(tot), dtype=np.uint64)
        # one flat pass per BIT position (64 passes of O(flat) temps)
        # instead of a (flat, 64) int64 sign matrix — 512 bytes/token
        # of transient allocation on large-doc batches (round-5 review
        # finding). sign-sum > 0  <=>  2*ones > tokens, identical bits.
        for j in range(64):
            bit = ((h64 >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
            ones = np.add.reduceat(bit, starts_nz)
            vals |= (2 * ones > tot).astype(np.uint64) << np.uint64(j)
        out[nz] = vals
    t = pa.table({id_col: batch[id_col],
                  "simhash": pa.array(out.astype(np.int64))})
    if drop_empty:
        t = t.filter(pa.array(counts > 0))
    return t


def near_dup_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                   max_hamming: int = 3):
    """SimHash near-dup pairs with exact Hamming verification.

    Pigeonhole: split the 64-bit hash into max_hamming+1 bands; pairs with
    Hamming distance <= max_hamming share at least one full band ->
    bucket-groupby per band, pair within buckets, verify popcount(xor).
    """
    from .. import use_push_shuffle
    use_push_shuffle(ds)
    bands = max_hamming + 1
    width = 64 // bands

    def explode(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy().astype(np.uint64)
        ids, bnd, key = [], [], []
        for bi in range(bands):
            shift = np.uint64(bi * width)
            mask = np.uint64((1 << width) - 1)
            ids.append(batch[id_col].to_numpy())
            bnd.append(np.full(len(h), bi, dtype=np.int64))
            key.append(((h >> shift) & mask).astype(np.int64))
        return pa.table({id_col: pa.array(np.concatenate(ids)),
                         "band": pa.array(np.concatenate(bnd)),
                         "band_key": pa.array(np.concatenate(key)),
                         "simhash": pa.array(np.tile(
                             batch["simhash"].to_numpy(), bands))})

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "hamming": pa.array([], type=pa.int64())})
        x = batch["extra_a"].to_numpy().astype(np.uint64) ^ \
            batch["extra_b"].to_numpy().astype(np.uint64)
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        keep = ham <= max_hamming
        return pa.table({"a": batch["a"].filter(pa.array(keep)),
                         "b": batch["b"].filter(pa.array(keep)),
                         "hamming": pa.array(ham[keep])})

    sig = ds.map_batches(lambda b: simhash64(b, text_col, id_col,
                                             drop_empty=True),
                         batch_format="pyarrow")
    pairs = _bucketed_pairs(sig.map_batches(explode, batch_format="pyarrow"),
                            ["band", "band_key"], id_col, max_bucket=500,
                            extra_col="simhash")
    verified = pairs.map_batches(verify, batch_format="pyarrow")
    return _distinct_pairs(verified)


# ----------------------------------------------------------- n-gram jaccard

def shingle_sets(batch: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id", shingle_k: int = 3,
                 hash64: bool = False) -> pa.Table:
    """(doc_id, shingles: list<int64>) — sorted distinct k-token shingle
    hashes per doc (the exact-Jaccard ground set)."""
    base, counts = _token_ids_flat(batch, text_col, hash64=hash64)
    sh_flat, sh_counts = _shingle_hashes(base, counts, shingle_k)
    # per-doc sorted distinct via ONE lexsort + adjacent-dedup over the
    # whole batch (identical to np.unique per doc, no per-doc Python)
    n_docs = len(sh_counts)
    parent = np.repeat(np.arange(n_docs, dtype=np.int64), sh_counts)
    order = np.lexsort((sh_flat, parent))
    v, p = sh_flat[order], parent[order]
    keep = np.ones(len(v), dtype=bool)
    if len(v) > 1:
        keep[1:] = (v[1:] != v[:-1]) | (p[1:] != p[:-1])
    values = v[keep]
    u_counts = np.bincount(p[keep], minlength=n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(u_counts, out=offsets[1:])
    return pa.table({
        id_col: batch[id_col],
        "shingles": pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(values.astype(np.int64))),
    })


def _pack_shingle_sets(batch: pa.Table, id_col: str) -> pa.Table:
    """(id, shingles list<int64>) -> (id, shingles binary) for the join."""
    sh = batch["shingles"]
    if isinstance(sh, pa.ChunkedArray):
        sh = sh.combine_chunks()
    lens = pc.list_value_length(sh).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(sh).to_numpy(zero_copy_only=False)
    if int(lens.sum()) * 8 >= 2**31:
        raise ValueError("packed shingle-set batch >= 2 GiB: int32 "
                         "binary offsets would wrap — reduce batch size")
    boffs = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens * 8, out=boffs[1:])
    arr = pa.Array.from_buffers(
        pa.binary(), len(lens),
        [None, pa.py_buffer(boffs.tobytes()),
         pa.py_buffer(np.ascontiguousarray(flat).tobytes())])
    return pa.table({id_col: batch[id_col], "shingles": arr})


def _sigs_from_sets(batch: pa.Table, id_col: str, num_perm: int,
                    seed: int) -> pa.Table:
    """Minhash signatures FROM packed shingle sets (min over the distinct
    set equals min over the multiset, so these are identical to
    minhash_signatures' output) — lets one content scan feed both the
    banding pipeline and the exact-verify join."""
    flat, counts = _unpack_varlen(batch["shingles"], np.uint64)
    a, b = _perm_params(num_perm, seed)
    sigs = np.full((len(counts), num_perm), np.iinfo(np.uint64).max,
                   dtype=np.uint64)
    if len(flat):
        starts = np.cumsum(counts) - counts
        nz = counts > 0
        starts_nz = starts[nz]
        with np.errstate(over="ignore"):
            for p in range(num_perm):
                vals = (a[p] * flat + b[p]) % _MERSENNE
                sigs[nz, p] = np.minimum.reduceat(vals, starts_nz)
    return pa.table({
        id_col: batch[id_col],
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).astype(np.int64)), num_perm),
    })


def ngram_jaccard_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                        threshold: float = 0.5, shingle_k: int = 3,
                        num_perm: int = _NUM_PERM, bands: int = 16,
                        seed: int = 1, join_partitions: int | None = None,
                        max_bucket: int = 200, *,
                        star_neg_probes: bool = False):
    """Near-dup pairs with EXACT n-gram (shingle-set) Jaccard >= threshold.

    Candidates come from the same MinHash-LSH banding as
    minhash_candidate_pairs (recall bounded by the band curve); the
    verification intersects the true shingle sets — which reach the
    verify stage through ``_join_pair_state`` (the distinct candidate
    pairs against the packed shingle-set dataset), never a driver
    materialization. The per-batch intersection is one sort +
    adjacent-equality count over all pairs at once (both sides are
    distinct-element sets, so an equal adjacent duo within a pair is
    exactly one a/b match) — no per-pair Python loop.
    """
    from .. import use_push_shuffle
    use_push_shuffle(ds)
    if bands <= 0 or num_perm % bands:
        raise ValueError(f"bands={bands} must divide num_perm={num_perm}")
    # ONE content scan: shingle sets are materialized packed; signatures
    # derive from the sets (identical minima), so text never re-tokenizes
    sets_bin = ds.map_batches(
        lambda b: _pack_shingle_sets(
            shingle_sets(b, text_col, id_col, shingle_k), id_col),
        batch_format="pyarrow").materialize()
    sig_in = sets_bin.map_batches(
        lambda b: _sigs_from_sets(b, id_col, num_perm, seed),
        batch_format="pyarrow")

    def band_nonempty(b: pa.Table) -> pa.Table:
        # zero-shingle docs carry the all-max sentinel signature: the
        # exact verify would reject their pairs anyway (jac 0), but
        # banding them puts EVERY short doc in one bucket — a
        # quadratic candidate blowup for nothing
        sig = b["sig"]
        if isinstance(sig, pa.ChunkedArray):
            sig = sig.combine_chunks()
        mat = sig.values.to_numpy(zero_copy_only=False)             .reshape(-1, sig.type.list_size).astype(np.uint64)
        real = mat[:, 0] != np.iinfo(np.uint64).max
        if not real.all():
            b = b.filter(pa.array(real))
        return explode_bands(b, id_col, bands)

    band_rows = sig_in.map_batches(band_nonempty,
                                   batch_format="pyarrow")
    pairs = _bucketed_pairs(band_rows, ["band", "band_hash"], id_col,
                            max_bucket=max_bucket,
                            star_neg=star_neg_probes)
    joined = _join_pair_state(pairs, sets_bin, id_col, "shingles",
                              join_partitions)
    return joined.map_batches(_make_exact_jaccard_verify(threshold),
                              batch_format="pyarrow")


def _make_exact_jaccard_verify(threshold: float):
    """Batch fn: joined pair rows with packed shingle sets on both sides
    -> (a, b, jaccard) for pairs with EXACT set Jaccard >= threshold.
    One sort + adjacent-equality count over all pairs at once (both
    sides are distinct-element sets, so an equal adjacent duo within a
    pair is exactly one a/b match) — no per-pair Python loop."""

    def verify(batch: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "jaccard": pa.array([], type=pa.float64())})
        if batch.num_rows == 0:
            return empty
        fa, la = _unpack_varlen(batch["state_a"], np.uint64)
        fb, lb = _unpack_varlen(batch["state_b"], np.uint64)
        n = batch.num_rows
        pid = np.concatenate([np.repeat(np.arange(n), la),
                              np.repeat(np.arange(n), lb)])
        vals = np.concatenate([fa, fb])
        order = np.lexsort((vals, pid))
        v, p = vals[order], pid[order]
        dup = np.zeros(len(v), dtype=bool)
        if len(v) > 1:
            dup[1:] = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
        inter = np.bincount(p[dup], minlength=n).astype(np.int64)
        union = la + lb - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = jac >= threshold
        return pa.table({"a": batch["a"].filter(pa.array(keep)),
                         "b": batch["b"].filter(pa.array(keep)),
                         "jaccard": pa.array(jac[keep])})

    return verify


def jaccard_simjoin_exact(ds, text_col: str = "text", id_col: str = "doc_id",
                          threshold: float = 0.5, shingle_k: int = 3,
                          join_partitions: int | None = None):
    """EXACT set-similarity self-join: every pair (a < b) whose k-token
    shingle-set Jaccard is >= threshold — no LSH recall loss.

    Candidate generation uses PREFIX FILTERING (Chaudhuri et al.
    SSJoin / Bayardo et al. All-Pairs): with each doc's shingle set
    sorted under one global total order, any pair with J >= t must share
    an element within both docs' prefixes of length
    ``n - ceil(t*n) + 1`` — so only prefix shingles are emitted as
    (shingle, id) bucket rows, and bucketing those rows has RECALL 1 by
    construction. Verification intersects the true sets, which reach the
    verify stage through the adaptive broadcast-or-partitioned-join path
    (`_join_pair_state`), never a driver materialization.

    Token hashes are 64-bit here (``hash64=True``): a 32-bit collision
    would change a set's distinct count and break exactness.

    Scale notes: the global order is shingle-hash value — any fixed
    order is CORRECT; production would rank by ascending global shingle
    frequency (one extra count aggregate) to shrink hot buckets, since a
    corpus-wide stop-shingle that lands in many prefixes makes an O(n^2)
    bucket. Star-capping is disabled (exactness forbids dropping
    pairs), so a low threshold over a highly self-similar corpus is
    intrinsically quadratic — that is the operator's contract, not a
    bug; use `ngram_jaccard_pairs` when LSH recall is acceptable.
    """
    from .. import use_push_shuffle
    use_push_shuffle(ds)
    sets_bin = ds.map_batches(
        lambda b: _pack_shingle_sets(
            shingle_sets(b, text_col, id_col, shingle_k, hash64=True),
            id_col),
        batch_format="pyarrow").materialize()

    def prefix_rows(batch: pa.Table) -> pa.Table:
        flat, lens = _unpack_varlen(batch["shingles"], np.uint64)
        n = lens.astype(np.int64)
        # downward-biased float ceil: overshooting ceil(t*n) at an exact
        # integer boundary would SHORTEN the prefix and cost recall;
        # undershooting only adds candidates
        ceil_tn = np.ceil(threshold * n - 1e-9).astype(np.int64)
        p = np.clip(n - ceil_tn + 1, 0, n)
        starts = np.cumsum(n) - n
        idx = np.repeat(starts, p) + multi_arange(p)
        ids = np.repeat(batch[id_col].to_numpy(), p)
        return pa.table({
            "shingle": pa.array(flat[idx].astype(np.int64)),
            id_col: pa.array(ids, type=pa.int64()),
        })

    prefix_ds = sets_bin.map_batches(prefix_rows, batch_format="pyarrow")
    pairs = _bucketed_pairs(prefix_ds, ["shingle"], id_col,
                            max_bucket=1 << 62)
    joined = _join_pair_state(pairs, sets_bin, id_col, "shingles",
                              join_partitions)
    return joined.map_batches(_make_exact_jaccard_verify(threshold),
                              batch_format="pyarrow")


def contamination_fuzzy(ds, probe_texts, threshold: float = 0.5,
                        shingle_k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = _NUM_PERM,
                        bands: int = 16, seed: int = 1,
                        join_partitions: int | None = None,
                        max_bucket: int = 200):
    """Fuzzy decontamination: (doc_id, probe_idx, jaccard) for every
    document whose EXACT shingle-set Jaccard against a benchmark probe
    is >= threshold (the n-gram-overlap half of the standard LLM
    training-data decontamination recipe; ``ContaminationCheck`` is the
    verbatim half).

    Composition, not new machinery: the probes enter the existing
    MinHash-LSH banding + partitioned-join verify of
    ``ngram_jaccard_pairs`` as extra rows in the RESERVED negative id
    range (probe i -> -(i+1)), so candidate generation stays
    banded/bucketed, verification stays a reduce-side join, and the doc
    corpus is scanned once and never broadcast — the probe suite is the
    only (tiny) extra input. Pairs with both sides in one class
    (doc-doc, probe-probe) are filtered out of the banding output.
    Document ids must be >= 0.
    """
    import ray.data as rd
    probe_texts = [str(p) for p in probe_texts]
    if not probe_texts:
        raise ValueError("probe_texts must be non-empty")
    probes_tbl = pa.table({
        id_col: pa.array([-(i + 1) for i in range(len(probe_texts))],
                         type=pa.int64()),
        text_col: pa.array(probe_texts, type=pa.string()),
    })
    union = ds.select_columns([id_col, text_col]).union(
        rd.from_arrow(probes_tbl))
    pairs = ngram_jaccard_pairs(
        union, text_col=text_col, id_col=id_col, threshold=threshold,
        shingle_k=shingle_k, num_perm=num_perm, bands=bands, seed=seed,
        join_partitions=join_partitions, max_bucket=max_bucket,
        # probes (negative ids) must each star against over-cap
        # buckets: the min-id star alone preserves transitive
        # connectivity but contamination consumes probe-doc pairs
        # DIRECTLY, and two probes sharing a hot bucket would
        # otherwise silently lose one probe's matches entirely
        star_neg_probes=True)

    def cross_only(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          "probe_idx": pa.array([], type=pa.int64()),
                          "jaccard": pa.array([], type=pa.float64())})
        if batch.num_rows == 0 or batch.num_columns == 0:
            return empty
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        # pairs are emitted a < b, so a cross pair always has a = probe
        # (negative) and b = doc (non-negative)
        keep = (a < 0) & (b >= 0)
        return pa.table({
            id_col: pa.array(b[keep], type=pa.int64()),
            "probe_idx": pa.array(-a[keep] - 1, type=pa.int64()),
            "jaccard": batch["jaccard"].filter(pa.array(keep)),
        })

    return pairs.map_batches(cross_only, batch_format="pyarrow")


def corpus_diff(left_ds, right_ds, id_col: str = "doc_id",
                text_col: str = "text"):
    """New-content anti-join between two corpus snapshots — the
    incremental-crawl ingestion step ("which documents of crawl N carry
    content crawl N-1 did not have?"). A left row survives iff its
    EXACT text bytes (the sha256 identity of :func:`exact_hash_batch`,
    NULL text = a sentinel so NULL matches NULL, mirroring SQL's
    IS NOT DISTINCT FROM) appear nowhere in ``right_ds``.

    Both corpora reduce to slim (id, content_hash) rows map-side, and
    ``semi_join(anti=True)`` on ``content_hash`` keeps the left rows
    whose hash the right lacks: only the right's distinct hashes travel
    (broadcast under the one byte gate, hash-partitioned above it), and
    content never moves.

    Returns (id_col, content_hash) of the new documents.
    """
    from .equijoin import semi_join

    def hashed(ds):
        return ds.map_batches(
            lambda b: exact_hash_batch(b, text_col, id_col),
            batch_format="pyarrow")

    return semi_join(hashed(left_ds), hashed(right_ds), "content_hash",
                     anti=True)
