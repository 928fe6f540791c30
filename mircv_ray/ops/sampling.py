"""Data-mixture sampling operators for training-data pipelines."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textops import TOKEN_COUNT_RE
from .windows import _keyed_scan


def source_quota_sample(ds, budget_tokens: int, source_col: str = "source",
                        id_col: str = "doc_id", text_col: str = "text",
                        salt_ids: int | None = None):
    """Per-source token-budget quota (the mixture-weighting primitive:
    cap each source's contribution at ``budget_tokens``).

    Documents are taken in ascending ``id_col`` order within each source
    while the running token total (inclusive) stays <= the budget; a
    NULL text counts 0 tokens. Returns (doc_id, source, n_tokens,
    cum_tokens) for the KEPT docs.

    Shape: one vectorized counting scan (content never shuffles — only
    slim (id, source, n_tokens) rows move), then a per-source group task
    doing a sort + cumsum. A source whose row count dwarfs a worker
    (the mega-source analogue of `sessionize`'s mega-user) passes
    ``salt_ids``: rows fragment into (source, id // salt_ids) ranges of
    :func:`~mircv_ray.ops.windows._keyed_scan`, whose carry is the token
    sum of the ranges before, and each fragment filters locally against
    ``carry + cumsum`` — identical output (prefix sums associate),
    pytest-pinned, with no task ever holding a whole source.
    """
    if salt_ids is not None and salt_ids <= 0:
        raise ValueError("salt_ids must be positive")

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch[text_col], TOKEN_COUNT_RE)
        rows = pa.table({id_col: batch[id_col],
                         source_col: batch[source_col],
                         "n_tokens": pc.fill_null(n, 0).cast(pa.int64())})
        if salt_ids is not None:
            frag = batch[id_col].to_numpy() // salt_ids
            rows = rows.append_column("__frag", pa.array(frag, pa.int64()))
        return rows

    def finish(g: pa.Table, carry: np.ndarray) -> pa.Table:
        cum = carry[0] + np.cumsum(g["n_tokens"].to_numpy())
        keep = cum <= budget_tokens
        sel = pa.array(keep)
        return pa.table({id_col: g[id_col].filter(sel),
                         source_col: g[source_col].filter(sel),
                         "n_tokens": g["n_tokens"].filter(sel),
                         "cum_tokens": pa.array(cum[keep])})

    empty = pa.schema([(id_col, pa.int64()), (source_col, pa.string()),
                       ("n_tokens", pa.int64()), ("cum_tokens", pa.int64())])
    return _keyed_scan(
        ds.map_batches(count, batch_format="pyarrow"), source_col, [id_col],
        empty, np.zeros(1, dtype=np.int64), finish,
        lambda run: np.array([pc.sum(run["n_tokens"]).as_py()]),
        lambda carry, parts: carry + sum(parts),
        salted=salt_ids is not None)


def hash_split(ds, id_col: str, fractions: dict[str, float],
               hash_mode: str = "crc32", salt: int = 0):
    """Deterministic train/val/test splitting: adds a ``split`` column
    that is a pure function of each row's id — map-only, no shuffle, no
    RNG state, identical at any partitioning or cluster size (the
    property a 100-TB split needs: resume and backfill re-derive every
    assignment bit-identically).

    bucket = hash(id, salt) % 1_000_000; splits own consecutive bucket
    ranges in ``fractions`` insertion order (values must sum to 1).
    ``hash_mode``: "crc32" hashes the id's string form (any type);
    "knuth32" is the Knuth multiplicative hash on integer ids —
    weaker mixing, but exactly expressible in ANSI SQL, so oracle-
    checkable end to end.
    """
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {total}, expected 1.0")
    if hash_mode not in ("crc32", "knuth32"):
        raise ValueError(f"unknown hash_mode {hash_mode!r}")
    names = list(fractions)
    bounds = np.cumsum([fractions[n] for n in names]) * 1_000_000
    bounds[-1] = 1_000_000  # float-roundoff guard: last split owns the tail

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        if hash_mode == "knuth32":
            v = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((v + np.uint64(salt)) * np.uint64(2654435761)) \
                % np.uint64(2**32)
        else:
            from ..util import crc32_column
            s = pc.cast(ids, pa.string())
            h = crc32_column(s, seed=salt).astype(np.uint64)
        bucket = (h % np.uint64(1_000_000)).astype(np.int64)
        idx = np.searchsorted(bounds, bucket, side="right")
        split = pa.DictionaryArray.from_arrays(
            pa.array(idx, type=pa.int32()), pa.array(names)) \
            .cast(pa.string())
        return batch.append_column("split", split)

    return ds.map_batches(assign, batch_format="pyarrow")


def _make_row_hash(hash_mode: str, salt: int):
    """The deterministic sample key: knuth32 (SQL-mirrorable, integer
    ids) or crc32 of the id's string form (any type). Shared by every
    hash-bottom-n sampler so the selection rule can never drift
    between them."""
    if hash_mode not in ("crc32", "knuth32"):
        raise ValueError(f"unknown hash_mode {hash_mode!r}")

    def row_hash(ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if hash_mode == "knuth32":
            v = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
            return (((v + np.uint64(salt)) * np.uint64(2654435761))
                    % np.uint64(2**32)).astype(np.int64)
        from ..util import crc32_column
        return crc32_column(pc.cast(ids, pa.string()),
                            seed=salt).astype(np.int64)
    return row_hash


def _bottom_n_select(ds, group_col: str, id_col: str, row_hash,
                     dict_targets):
    """Deterministic per-group bottom-n selection — the shared
    machinery of `stratified_sample` (constant n) and
    `temperature_mix_sample` (per-group targets): each group keeps its
    ``target`` rows with the smallest (hash(id), id), rank 1.. in hash
    order. ``dict_targets(dictionary_values: np.bytes_ array) ->
    int64 targets`` resolves each batch-dictionary value's quota.

    Shape: map-side LOSSLESS pre-bottom-n (the global bottom-n is a
    subset of the union of per-batch bottom-ns), so at most target
    rows per (group, batch) enter the single ``group_col`` exchange;
    the per-group merge re-applies the same rule. Content never
    shuffles."""
    empty = pa.table({id_col: pa.array([], type=pa.int64()),
                      group_col: pa.array([], type=pa.string()),
                      "sample_rank": pa.array([], type=pa.int64())})

    def bottom_n(tbl: pa.Table, with_rank: bool) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return empty if with_rank else tbl
        ids = tbl[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        h = row_hash(ids)
        idv = ids.to_numpy(zero_copy_only=False)
        grp = tbl[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        denc = grp.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        dtgt = dict_targets(
            np.asarray(denc.dictionary.to_pylist(), dtype="S"))
        order = np.lexsort((idv, h, codes))
        gc = codes[order]
        # rank within each group run (runs are contiguous after lexsort)
        starts = np.flatnonzero(
            np.concatenate([[True], gc[1:] != gc[:-1]]))
        pos = np.arange(len(gc)) - np.repeat(starts, np.diff(
            np.concatenate([starts, [len(gc)]])))
        keepm = pos < dtgt[gc]
        keep = order[keepm]
        out = pa.table({id_col: ids.take(pa.array(keep)),
                        group_col: grp.take(pa.array(keep))})
        if with_rank:
            out = out.append_column(
                "sample_rank",
                pa.array(pos[keepm] + 1, type=pa.int64()))
        return out

    pre = ds.map_batches(lambda b: bottom_n(b, False),
                         batch_format="pyarrow")
    return pre.groupby(group_col).map_groups(
        lambda g: bottom_n(g, True), batch_format="pyarrow")


def stratified_sample(ds, group_col: str, n_per_group: int,
                      id_col: str = "doc_id", hash_mode: str = "knuth32",
                      salt: int = 0):
    """Deterministic stratified sampling: the ``n_per_group`` rows of
    each group with the smallest (hash(id), id) — a uniform
    without-replacement sample per stratum that is a pure function of
    the ids (no RNG state; resume / backfill / any partitioning
    re-derives the identical sample, the property a 100-TB sampling
    pass needs). ``salt`` re-draws the sample.

    Shape: see :func:`_bottom_n_select` (the shared machinery; this is
    the constant-target case).

    Returns (id_col, group_col, sample_rank) with rank 1..n in hash
    order. ``hash_mode`` as in :func:`hash_split` ("knuth32" is
    SQL-mirrorable; "crc32" for general string ids).
    """
    if n_per_group <= 0:
        raise ValueError("n_per_group must be positive")
    row_hash = _make_row_hash(hash_mode, salt)
    return _bottom_n_select(
        ds.select_columns([id_col, group_col]), group_col, id_col,
        row_hash,
        lambda dvals: np.full(len(dvals), n_per_group, dtype=np.int64))


def alpha_mix_weights(ds, alpha: float = 0.3, source_col: str = "source",
                      text_col: str = "text"):
    """Temperature-scaled mixture weights over sources/languages — the
    multilingual alpha-sampling rule (mBERT/XLM/mC4: sample source g
    with probability share_g^alpha, renormalized), used to up-weight
    low-resource strata when composing a training mix.

    Returns one row per source: (source, n_tokens, share, weight),
    share = n_tokens / total, weight = share^alpha / sum(share^alpha),
    both rounded to 6 decimals for oracle hash stability.

    Shape: one vectorized token-count scan with per-batch map-side
    combine (only (source, partial_sum) rows enter the exchange), one
    tiny source groupby, then one constant-key group task over the
    source-count rows (group-count-sized, never content-sized) does the
    normalization.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch[text_col], TOKEN_COUNT_RE)
        n = n.combine_chunks() if isinstance(n, pa.ChunkedArray) else n
        part = pa.table({source_col: batch[source_col],
                         "n": n.cast(pa.int64())}) \
            .group_by(source_col).aggregate([("n", "sum")])
        return pa.table({source_col: part[source_col],
                         "n_tokens": part["n_sum"]})

    from ray.data.aggregate import Sum
    sums = (ds.map_batches(count, batch_format="pyarrow")
            .groupby(source_col)
            .aggregate(Sum("n_tokens", alias_name="n_tokens")))

    def normalize(group: pa.Table) -> pa.Table:
        cols = [source_col, "n_tokens"]
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({source_col: pa.array([], type=pa.string()),
                             "n_tokens": pa.array([], type=pa.int64()),
                             "share": pa.array([], type=pa.float64()),
                             "weight": pa.array([], type=pa.float64())})
        g = group.select(cols)
        n = g["n_tokens"].to_numpy().astype(np.float64)
        share = n / n.sum()
        pw = np.power(share, alpha)
        w = pw / pw.sum()
        r6 = lambda x: np.trunc(x * 1e6 + 0.5) / 1e6
        return pa.table({source_col: g[source_col],
                         "n_tokens": g["n_tokens"],
                         "share": pa.array(r6(share)),
                         "weight": pa.array(r6(w))})

    def tag_all(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__all", pa.array(np.zeros(batch.num_rows, np.int8)))

    return (sums.map_batches(tag_all, batch_format="pyarrow")
            .groupby("__all").map_groups(normalize, batch_format="pyarrow"))


TEMPERATURE_MIX_MAX_SOURCES = 1_000_000


def temperature_mix_sample(ds, total_docs: int, temperature: float = 2.0,
                           source_col: str = "source",
                           id_col: str = "doc_id", salt: int = 0):
    """MATERIALIZED temperature-scaled source mix — the sampling step
    the `alpha_mix_weights` table feeds (XLM/mC4-style mixing, applied
    at the document level): per-source DOC targets from count^(1/T)
    weights with largest-remainder rounding (ties by source asc),
    capped at each source's size (single-pass, no redistribution — the
    SQL-mirrorable rule), then each source's target_s docs with the
    smallest (knuth32(id), id) — the `stratified_sample` deterministic
    without-replacement rule with a per-source n.

    Returns (id_col, source_col, sample_rank), rank 1..target_s in
    hash order. T > 1 flattens the mix toward uniform (up-weights
    low-resource sources); T = 1 is proportional sampling.

    Shape: one source-cardinality groupby count; the quota math runs
    on the driver over the SOURCE TABLE (mixing is over named
    sources/domains — bounded by construction; a guard raises past
    ``TEMPERATURE_MIX_MAX_SOURCES`` rather than pulling an unbounded
    table). Selection is the stratified machinery: map-side lossless
    per-batch bottom-n (at most target_s rows per (source, batch)
    enter the ONE source exchange), per-group re-apply. Content never
    shuffles.
    """
    import ray

    if total_docs < 0:
        raise ValueError("total_docs must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    counts_ds = ds.groupby(source_col).count().materialize()
    # cardinality check BEFORE any driver pull — the guard must protect
    # the driver heap, not fire after it is already blown
    n_sources = counts_ds.count()
    if n_sources > TEMPERATURE_MIX_MAX_SOURCES:
        raise ValueError(
            f"{n_sources} distinct sources exceed the mixing-table "
            f"bound ({TEMPERATURE_MIX_MAX_SOURCES}); temperature "
            "mixing is defined over a bounded set of named sources")
    rows = counts_ds.take_all()
    empty = pa.table({id_col: pa.array([], type=pa.int64()),
                      source_col: pa.array([], type=pa.string()),
                      "sample_rank": pa.array([], type=pa.int64())})
    if not rows or total_docs == 0:
        import ray.data as rd
        return rd.from_arrow(empty)
    srcs = np.asarray([r[source_col] for r in rows], dtype="S")
    n = np.asarray([r["count()"] for r in rows], dtype=np.int64)
    order = np.argsort(srcs, kind="stable")
    srcs, n = srcs[order], n[order]
    # quota: largest-remainder rounding of total * n^(1/T) / sum,
    # frac ties broken by source asc (same rule as the SQL oracle)
    w = np.power(n.astype(np.float64), 1.0 / temperature)
    exact = total_docs * w / w.sum()
    base = np.floor(exact).astype(np.int64)
    rem = int(total_docs - base.sum())
    bump_order = np.lexsort((srcs, -(exact - np.floor(exact))))
    target = base.copy()
    target[bump_order[:max(rem, 0)]] += 1
    target = np.minimum(target, n)
    tgt_ref = ray.put((srcs, target))
    cache: dict = {}

    def dict_targets(dvals: np.ndarray) -> np.ndarray:
        # per-dictionary-value target via the broadcast source table
        key = tgt_ref.hex() if hasattr(tgt_ref, "hex") else id(tgt_ref)
        if key not in cache:
            cache[key] = ray.get(tgt_ref)
            while len(cache) > 4:
                cache.pop(next(iter(cache)))
        skeys, tvals = cache[key]
        if not len(skeys):
            return np.zeros(len(dvals), dtype=np.int64)
        pos_d = np.minimum(np.searchsorted(skeys, dvals),
                           len(skeys) - 1)
        return np.where(skeys[pos_d] == dvals, tvals[pos_d], 0)

    row_hash = _make_row_hash("knuth32", salt)
    return _bottom_n_select(
        ds.select_columns([id_col, source_col]), source_col, id_col,
        row_hash, dict_targets)


def importance_resample(ds, n: int, log10_weight_col: str = "log_weight",
                        id_col: str = "doc_id", salt: int = 0):
    """Deterministic importance resampling — the RESAMPLE step of DSIR
    (Xie et al. 2023 arXiv:2302.03169 §2: after scoring, draw examples
    with probability proportional to their importance weight). Draws
    ``n`` rows WITHOUT replacement with probability proportional to
    ``10**log10_weight`` via the Efraimidis-Spirakis exponential race
    (Efraimidis & Spirakis IPL 2006): each row gets an Exp(1) variate
    scaled by 1/w, the ``n`` smallest win. Equivalently (one monotone
    log10) the ranking key is

        sample_key = log10(-ln(u)) - log10_weight,
        u = (((id + salt) * 2654435761) % 2**32 + 0.5) / 2**32

    — a pure function of the row id (the hash_split/stratified_sample
    knuth32 hash), so there is no RNG state: resume, backfill, or any
    repartitioning re-derives the identical sample, and the whole
    expression is ANSI-SQL-mirrorable (ln/log10 over exact doubles).
    Keys round to 6 decimals half-away-from-zero BEFORE ranking on both
    the engine and the oracle side (absorbing any libm ULP skew between
    engines); ties break by id ascending. ``salt`` re-draws.

    Shape: map-only key stamp + per-batch LOSSLESS bottom-n (the global
    bottom-n by key is a subset of the union of per-batch bottom-ns),
    then ONE constant-key group task merges the <= n·blocks surviving
    rows — content never shuffles and nothing corpus-sized exists
    anywhere. Returns (id_col, log10_weight_col, sample_key,
    sample_rank) sorted by rank within the single output group.
    """
    if n <= 0:
        raise ValueError("n must be positive")

    def key_of(tbl: pa.Table) -> np.ndarray:
        ids = tbl[id_col]
        v = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((v + np.uint64(salt)) * np.uint64(2654435761)) \
            % np.uint64(2 ** 32)
        u = (h.astype(np.float64) + 0.5) / float(2 ** 32)
        lw = tbl[log10_weight_col].to_numpy(
            zero_copy_only=False).astype(np.float64)
        key = np.log10(-np.log(u)) - lw
        return np.trunc(key * 1e6 + np.copysign(0.5, key)) / 1e6

    def bottom_n(tbl: pa.Table, with_rank: bool) -> pa.Table:
        if tbl.num_rows == 0 or id_col not in tbl.column_names:
            out = {id_col: pa.array([], type=pa.int64()),
                   log10_weight_col: pa.array([], type=pa.float64()),
                   "sample_key": pa.array([], type=pa.float64())}
            if with_rank:
                out["sample_rank"] = pa.array([], type=pa.int64())
            return pa.table(out)
        key = key_of(tbl)
        idv = tbl[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((idv, key))[:n]
        take = pa.array(order)
        out = pa.table({
            id_col: tbl[id_col].take(take),
            log10_weight_col: tbl[log10_weight_col].take(take),
            "sample_key": pa.array(key[order], type=pa.float64()),
        })
        if with_rank:
            out = out.append_column(
                "sample_rank", pa.array(np.arange(1, len(order) + 1),
                                        type=pa.int64()))
        return out

    pre = ds.map_batches(lambda b: bottom_n(b, False),
                         batch_format="pyarrow")

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__all", pa.array(np.zeros(batch.num_rows, np.int8)))

    def merge(group: pa.Table) -> pa.Table:
        cols = [c for c in group.column_names if c != "__all"]
        return bottom_n(group.select(cols) if cols else group, True)

    return (pre.map_batches(tag, batch_format="pyarrow")
            .groupby("__all").map_groups(merge, batch_format="pyarrow"))


def shuffle_shards(ds, n_shards: int, id_col: str = "doc_id",
                   salt: int = 0):
    """Deterministic global corpus shuffle into training shards — the
    "shuffle the corpus, split into N files" step every LLM training
    run needs. Each row gets its global position in the pseudo-random
    permutation ordered by (knuth32(id, salt), id) and a round-robin
    shard = (rank-1) % n_shards, so shards are balanced to ±1 row and
    each shard is a stride sample of the permutation (reading shards
    in order replays the full shuffle). A pure function of the ids —
    no RNG state, any partitioning / resume re-derives it bit-
    identically; ``salt`` re-shuffles.

    Scale shape (the global_ntile machinery, ops/quantiles.py:190):
    map-only hash stamp, ONE ``Dataset.sort`` by (hash, id) — the
    range-partitioning exchange is the shuffle itself — then per-block
    ranks from block-METADATA prefix offsets (one int per block on the
    driver, never rows) and a map-only closed-form shard stamp.

    Returns the input columns + (shuffle_rank 1-based, shard 0-based).
    """
    import ray
    import ray.data as rd

    if n_shards <= 0:
        raise ValueError("n_shards must be positive")

    def stamp_hash(batch: pa.Table) -> pa.Table:
        v = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((v + np.uint64(salt)) * np.uint64(2654435761)) \
            % np.uint64(2 ** 32)
        return batch.append_column("__hv", pa.array(h.astype(np.int64)))

    sorted_ds = ds.map_batches(stamp_hash, batch_format="pyarrow") \
        .sort(["__hv", id_col])

    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            rows.append(meta.num_rows)
    offsets = np.concatenate([[0], np.cumsum(rows[:-1])]).astype(np.int64) \
        if rows else np.zeros(0, dtype=np.int64)

    @ray.remote
    def stamp(tbl: pa.Table, off: int) -> pa.Table:
        rank0 = off + np.arange(tbl.num_rows, dtype=np.int64)
        out = tbl.drop_columns(["__hv"])
        out = out.append_column("shuffle_rank", pa.array(rank0 + 1))
        return out.append_column("shard", pa.array(rank0 % n_shards))

    out_refs = [stamp.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return rd.from_arrow_refs(out_refs)
