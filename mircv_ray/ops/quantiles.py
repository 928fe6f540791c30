"""Per-group quantiles: exact, and a mergeable t-digest sketch.

``grouped_quantiles``: exact per-group continuous quantiles (the SQL
``quantile_cont`` / NumPy ``linear`` definition: rank h = (n-1)q,
interpolate the two adjacent order statistics). One hash-partition
shuffle co-locates each group; the per-task sort is the whole cost.
Partitioning assumption: one group's values fit a worker task — the
same contract as unsalted sessionize / as-of join.

``grouped_quantiles_tdigest``: the scale path for groups beyond one
task. Each batch compresses its per-group values into <= delta weighted
centroids (Dunning's merging t-digest with the uniform k0 scale, which
bounds every quantile's RANK error by total_weight / delta); only those
fixed-size centroid rows shuffle, and one small per-group merge
re-compresses and interpolates. Deterministic given the same input
partitioning; accuracy (rank error <= 2/delta of the population, the
merge doubles the bound) is pytest-pinned against exact quantiles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def grouped_quantiles(ds, group_col: str, value_col: str,
                      qs: dict[str, float]):
    """(group_col, <name per qs entry>) — exact linear-interpolation
    quantiles of ``value_col`` per group. NULL values are dropped (SQL
    aggregate semantics); a group with no non-null values yields nulls.
    """
    for name, q in qs.items():
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {name}={q} outside [0, 1]")
    items = list(qs.items())

    def per_group(group: pa.Table) -> pa.Table:
        v = group[value_col].drop_null().to_numpy(zero_copy_only=False)
        out: dict = {group_col: group[group_col].slice(0, 1)}
        if len(v) == 0:
            for name, _ in items:
                out[name] = pa.nulls(1, pa.float64())
            return pa.table(out)
        v = np.sort(v.astype(np.float64))
        n = len(v)
        for name, q in items:
            h = (n - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            val = v[lo] + (h - lo) * (v[hi] - v[lo])
            out[name] = pa.array([val], type=pa.float64())
        return pa.table(out)

    from .. import use_push_shuffle
    use_push_shuffle(ds)
    return (ds.select_columns([group_col, value_col])
              .groupby(group_col)
              .map_groups(per_group, batch_format="pyarrow"))


# ------------------------------------------------------------- t-digest

def _compress(means: np.ndarray, weights: np.ndarray,
              delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge (mean, weight) centroids, sorted by mean, into <= delta
    clusters of bounded weight (k0 / uniform scale: each cluster holds
    at most ceil(total/delta) weight). Vectorized: the bound assigns
    each input centroid a cluster id from its cumulative weight; merged
    means are weight-averaged within clusters."""
    order = np.argsort(means, kind="stable")
    means, weights = means[order], weights[order]
    total = weights.sum()
    cap = max(total / delta, 1e-12)
    # cluster id by cumulative weight BEFORE each centroid: a centroid
    # starts a new cluster when its span would cross a cap boundary
    cum_before = np.cumsum(weights) - weights
    cid = np.floor(cum_before / cap).astype(np.int64)
    # ragged mean: sum(w*m)/sum(w) per cid
    n_cl = int(cid[-1]) + 1 if len(cid) else 0
    wsum = np.bincount(cid, weights=weights, minlength=n_cl)
    msum = np.bincount(cid, weights=weights * means, minlength=n_cl)
    keep = wsum > 0
    return msum[keep] / wsum[keep], wsum[keep]


def _tdigest_quantile(means: np.ndarray, weights: np.ndarray,
                      q: float) -> float:
    """Standard t-digest interpolation: centroids contribute their
    weight around their mean; query by cumulative-weight midpoints."""
    total = weights.sum()
    if len(means) == 1:
        return float(means[0])
    target = q * total
    cum = np.cumsum(weights)
    mids = cum - weights / 2.0
    if target <= mids[0]:
        return float(means[0])
    if target >= mids[-1]:
        return float(means[-1])
    i = int(np.searchsorted(mids, target, side="right")) - 1
    frac = (target - mids[i]) / max(mids[i + 1] - mids[i], 1e-300)
    return float(means[i] + frac * (means[i + 1] - means[i]))


def grouped_quantiles_tdigest(ds, group_col: str, value_col: str,
                              qs: dict[str, float], delta: int = 200):
    """(group_col, <name per qs entry>) — t-digest approximate
    quantiles per group; only <= delta centroid rows per (group, batch)
    ever shuffle. Rank error <= ~2 * total/delta per group."""
    for name, q in qs.items():
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {name}={q} outside [0, 1]")
    if delta < 8:
        raise ValueError("delta must be >= 8")
    items = list(qs.items())

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({group_col: batch[group_col],
                      "v": batch[value_col]}).drop_null()
        if t.num_rows == 0:
            return pa.table({group_col: t[group_col],
                             "mean": pa.array([], pa.float64()),
                             "weight": pa.array([], pa.float64())})
        import pyarrow.compute as pc
        g = t[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        denc = pc.dictionary_encode(g)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy().astype(np.int64)
        vals = t["v"].to_numpy(zero_copy_only=False).astype(np.float64)
        out_g, out_m, out_w = [], [], []
        for code in np.unique(codes):
            m = vals[codes == code]
            cm, cw = _compress(m, np.ones(len(m)), delta)
            out_g.append(np.full(len(cm), code))
            out_m.append(cm)
            out_w.append(cw)
        gi = pa.array(np.concatenate(out_g), type=pa.int64())
        return pa.table({
            group_col: denc.dictionary.take(gi),
            "mean": pa.array(np.concatenate(out_m), type=pa.float64()),
            "weight": pa.array(np.concatenate(out_w), type=pa.float64()),
        })

    def pre_merge(group: pa.Table) -> pa.Table:
        # 64-way fan-in: bounds the final per-group task to ~delta*64
        # centroids no matter how many batches fed the group (t-digest
        # merging is re-compression, the same operation either way)
        means = group["mean"].to_numpy(zero_copy_only=False)
        weights = group["weight"].to_numpy(zero_copy_only=False)
        cm, cw = _compress(means, weights, delta)
        n = len(cm)
        return pa.table({
            group_col: group[group_col].take(
                pa.array(np.zeros(n, dtype=np.int64))),
            "mean": pa.array(cm, type=pa.float64()),
            "weight": pa.array(cw, type=pa.float64()),
        })

    def add_sub(batch: pa.Table) -> pa.Table:
        # deterministic value-derived fan-in key (bit pattern of mean)
        bits = batch["mean"].to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        return batch.append_column(
            "__sub", pa.array((bits % np.uint64(64)).astype(np.int64)))

    def merge(group: pa.Table) -> pa.Table:
        means = group["mean"].to_numpy(zero_copy_only=False)
        weights = group["weight"].to_numpy(zero_copy_only=False)
        cm, cw = _compress(means, weights, delta)
        out: dict = {group_col: group[group_col].slice(0, 1)}
        for name, q in items:
            out[name] = pa.array([_tdigest_quantile(cm, cw, q)],
                                 type=pa.float64())
        return pa.table(out)

    from .. import use_push_shuffle
    use_push_shuffle(ds)
    return (ds.select_columns([group_col, value_col])
              .map_batches(partial, batch_format="pyarrow")
              .map_batches(add_sub, batch_format="pyarrow")
              .groupby([group_col, "__sub"])
              .map_groups(pre_merge, batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(merge, batch_format="pyarrow"))


def global_ntile(ds, sort_cols: list, n_tiles: int,
                 out_col: str = "tile"):
    """Exact SQL ``ntile(n) OVER (ORDER BY sort_cols)``: rows in global
    ``sort_cols`` order are dealt into ``n_tiles`` buckets, the first
    ``n_rows % n_tiles`` buckets one row larger — the quality-decile /
    percentile-bucket step of perplexity- and entropy-based corpus
    filtering (CCNet buckets its corpus by LM perplexity terciles).

    Scalable exact global rank WITHOUT a driver materialization:
    ``Dataset.sort`` range-partitions the rows into globally ordered
    blocks; the per-block row counts (block METADATA, never block data)
    give each block's exclusive prefix offset, and one raw Ray task per
    block stamps rank = offset + arange and the closed-form ntile of
    that rank. Everything after the sort is map-only; the only driver
    state is one int per block.
    """
    import ray
    import ray.data as rd

    if n_tiles <= 0:
        raise ValueError("n_tiles must be positive")
    sorted_ds = ds.sort(sort_cols)

    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            rows.append(meta.num_rows)
    offsets = np.concatenate([[0], np.cumsum(rows[:-1])]).astype(np.int64) \
        if rows else np.zeros(0, dtype=np.int64)
    n_rows = int(sum(rows))
    base = n_rows // n_tiles
    rem = n_rows % n_tiles

    @ray.remote
    def stamp(tbl: pa.Table, off: int) -> pa.Table:
        rank = off + np.arange(tbl.num_rows, dtype=np.int64)
        big = (base + 1) * rem  # rows living in the size-(base+1) tiles
        tile = np.where(
            rank < big,
            rank // max(base + 1, 1) + 1,
            rem + (rank - big) // max(base, 1) + 1).astype(np.int64)
        return tbl.append_column(out_col, pa.array(tile))

    out_refs = [stamp.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return rd.from_arrow_refs(out_refs)


def global_rank(ds, sort_cols: list, out_prefix: str = ""):
    """Exact SQL rank() / percent_rank() / cume_dist() over the global
    ``sort_cols`` order — the normalized-score step of corpus filtering
    (CCNet-style "keep the best X%" cuts read percent_rank directly).
    ``sort_cols`` should end in a unique tiebreaker (e.g. the id): with
    a total order every row is its own peer group, so rank is dense,
    percent_rank = (rank-1)/(n-1) and cume_dist = rank/n, both exactly
    the SQL definitions (doubles round 6 for the oracle hash).

    Scale shape = :func:`global_ntile`: one range-partitioning sort,
    per-block ranks from block-METADATA prefix offsets, map-only
    stamping; the only driver state is one int per block.
    """
    import ray
    import ray.data as rd

    sorted_ds = ds.sort(sort_cols)
    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            rows.append(meta.num_rows)
    offsets = np.concatenate([[0], np.cumsum(rows[:-1])]).astype(np.int64) \
        if rows else np.zeros(0, dtype=np.int64)
    n_rows = int(sum(rows))

    @ray.remote
    def stamp(tbl: pa.Table, off: int) -> pa.Table:
        rank = off + np.arange(1, tbl.num_rows + 1, dtype=np.int64)
        if n_rows > 1:
            pr = (rank - 1).astype(np.float64) / (n_rows - 1)
        else:
            pr = np.zeros(tbl.num_rows)
        cd = rank.astype(np.float64) / max(n_rows, 1)
        rnd = lambda x: np.trunc(x * 1e6 + np.copysign(0.5, x)) / 1e6
        out = tbl.append_column(f"{out_prefix}rank", pa.array(rank))
        out = out.append_column(f"{out_prefix}percent_rank",
                                pa.array(rnd(pr), type=pa.float64()))
        return out.append_column(f"{out_prefix}cume_dist",
                                 pa.array(rnd(cd), type=pa.float64()))

    out_refs = [stamp.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return rd.from_arrow_refs(out_refs)


def winsorize(ds, value_col: str, lo: float = 0.01, hi: float = 0.99,
              out_col: str | None = None):
    """Winsorization at exact GLOBAL quantiles — the outlier-clipping
    step before scaling/featurizing (clip ``value_col`` into the
    [q_lo, q_hi] exact linear-interpolation quantiles, SQL
    ``quantile_cont``). NULL values pass through NULL and are excluded
    from the quantile computation (SQL aggregate semantics).

    Scale shape: one range-partitioning sort of the value column ONLY
    (column-pruned; the data never moves twice), the two order
    statistics each quantile needs come from block-METADATA prefix
    offsets + one remote scalar pick per needed position (the driver
    never holds a block), then a map-only clip over the original
    dataset. Adds ``out_col`` (default ``<value_col>_w``) rounded 4.
    """
    import ray

    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    out_col = out_col or f"{value_col}_w"

    def vals_only(b: pa.Table) -> pa.Table:
        v = b[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        return pa.table({value_col: v.drop_null()})

    sorted_ds = ds.map_batches(vals_only, batch_format="pyarrow") \
        .sort(value_col)
    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
                rows.append(meta.num_rows)
    n = int(sum(rows))
    if n == 0:
        raise ValueError("winsorize needs at least one non-null value")
    offsets = np.concatenate([[0], np.cumsum(rows)]).astype(np.int64)

    @ray.remote
    def pick(tbl: pa.Table, local_idx: int) -> float:
        return float(tbl[value_col][int(local_idx)].as_py())

    def order_stat_refs(q: float):
        h = (n - 1) * q
        lo_i, hi_i = int(np.floor(h)), min(int(np.floor(h)) + 1, n - 1)
        picks = []
        for pos in (lo_i, hi_i):
            b = int(np.searchsorted(offsets, pos, side="right") - 1)
            picks.append(pick.remote(refs[b], pos - offsets[b]))
        return h - np.floor(h), picks

    f_lo, p_lo = order_stat_refs(lo)
    f_hi, p_hi = order_stat_refs(hi)
    (lo_a, lo_b), (hi_a, hi_b) = ray.get(p_lo), ray.get(p_hi)
    q_lo = lo_a + f_lo * (lo_b - lo_a)
    q_hi = hi_a + f_hi * (hi_b - hi_a)

    def clip(batch: pa.Table) -> pa.Table:
        v = batch[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.to_numpy(zero_copy_only=False).astype(np.float64)
        c = np.clip(x, q_lo, q_hi)
        c = np.trunc(c * 1e4 + np.copysign(0.5, c)) / 1e4
        arr = pa.array(c, type=pa.float64())
        if v.null_count:
            import pyarrow.compute as pc
            arr = pc.if_else(v.is_valid(), arr,
                             pa.scalar(None, pa.float64()))
        return batch.append_column(out_col, arr)

    return ds.map_batches(clip, batch_format="pyarrow")


def zscore_normalize(ds, group_col: str, value_col: str,
                     id_col: str = "event_id"):
    """Per-group feature scaling — z-score ((x − mean)/stddev_pop) and
    min-max ((x − min)/(max − min)) of ``value_col`` within each
    ``group_col``: the standardization step before training on tabular
    features. Returns (id, group, value, zscore, minmax), both scaled
    columns rounded 4 (mean/std are float sums whose association
    differs across engines; 1e-12 relative noise vs a 1e-4 grid).

    Scale shape: ONE pass emits per-batch map-side sufficient
    statistics (count, sum, sum-of-squares, min, max) per group; one
    group-sized groupby merges them. A ``lookup_join`` on the group
    then scales the rows: map-only against the broadcast stats when
    they fit the gate (content never shuffles), else group-partitioned
    (per-user scaling at 10^9 users), where each partition scales with
    only ITS groups' stats. Degenerate groups (one value / zero
    variance) emit 0. NULL values pass through NULL and are excluded
    from the stats; rows whose group is NULL or absent from the stats
    emit NULL scaled columns (never another group's statistics).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    from .equijoin import lookup_join

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({group_col: batch[group_col],
                      "v": batch[value_col]}).drop_null()
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64()),
                             "ss": pa.array([], type=pa.float64()),
                             "mn": pa.array([], type=pa.float64()),
                             "mx": pa.array([], type=pa.float64())})
        v = t["v"]
        sq = pc.multiply(v, v)
        t2 = pa.table({group_col: t[group_col], "v": v, "sq": sq,
                       "one": pa.array(np.ones(t.num_rows, np.int64))})
        a = t2.group_by(group_col).aggregate(
            [("one", "sum"), ("v", "sum"), ("sq", "sum"),
             ("v", "min"), ("v", "max")])
        return pa.table({group_col: a[group_col],
                         "n": a["one_sum"].cast(pa.int64()),
                         "s": a["v_sum"], "ss": a["sq_sum"],
                         "mn": a["v_min"], "mx": a["v_max"]})

    stats_ds = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(group_col)
                .aggregate(Sum("n", alias_name="n"),
                           Sum("s", alias_name="s"),
                           Sum("ss", alias_name="ss"),
                           Min("mn", alias_name="mn"),
                           Max("mx", alias_name="mx"))).materialize()
    return lookup_join(
        ds, stats_ds, group_col, lambda st: _zs_stats_arrays(st, group_col),
        lambda batch, state: _zs_scale_batch(batch, *state, group_col,
                                             value_col, id_col))


def _zs_stats_arrays(st: pa.Table, group_col: str):
    """Finalize merged sufficient statistics into sorted lookup arrays
    (keys, mean / stddev_pop / min / max) — the one place both
    execution paths derive mean/std, so they are value-identical by
    construction."""
    from .equijoin import sorted_keys
    keys, order = sorted_keys(st[group_col])
    n = st["n"].to_numpy()[order].astype(np.float64)
    s = st["s"].to_numpy()[order]
    ss = st["ss"].to_numpy()[order]
    mn = st["mn"].to_numpy()[order]
    mx = st["mx"].to_numpy()[order]
    mean = s / n
    var = np.maximum(ss / n - mean * mean, 0.0)
    return keys, mean, np.sqrt(var), mn, mx


def _zs_scale_batch(batch: pa.Table, kv, me, sd, lo, hi,
                    group_col: str, value_col: str,
                    id_col: str) -> pa.Table:
    """Scale one batch against sorted per-group stat arrays. Rows whose
    group is NULL or ABSENT from the stats emit NULL scaled columns —
    a clamped searchsorted alone would silently borrow a neighboring
    group's statistics."""
    import pyarrow.compute as pc

    from .equijoin import probe
    pos, found = probe(kv, batch[group_col])
    v = batch[value_col]
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    x = v.to_numpy(zero_copy_only=False).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(sd[pos] > 0, (x - me[pos]) / sd[pos], 0.0) \
            if len(kv) else np.zeros(len(x))
        span = hi[pos] - lo[pos] if len(kv) else np.zeros(len(x))
        mmx = np.where(span > 0, (x - lo[pos]) / span, 0.0) \
            if len(kv) else np.zeros(len(x))
    r4 = lambda a: np.trunc(a * 1e4 + np.copysign(0.5, a)) / 1e4
    ok = found.copy()
    if v.null_count:
        ok &= v.is_valid().to_numpy(zero_copy_only=False)
    okp = pa.array(ok)
    za = pc.if_else(okp, pa.array(np.nan_to_num(r4(z)),
                                  type=pa.float64()),
                    pa.scalar(None, pa.float64()))
    ma = pc.if_else(okp, pa.array(np.nan_to_num(r4(mmx)),
                                  type=pa.float64()),
                    pa.scalar(None, pa.float64()))
    return pa.table({id_col: batch[id_col],
                     group_col: batch[group_col],
                     value_col: v,
                     "zscore": za, "minmax": ma})
