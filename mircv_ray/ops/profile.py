"""Table profiling — the data-validation pass every ingestion pipeline
runs before anything else: per-column row counts, NULL counts and EXACT
distinct counts (the check that catches a broken join key, a collapsed
enum, or an all-NULL column at the door).

Scale shape: one map pass emits, per column, the batch-DISTINCT value
strings (a uniform (column, value) pair schema across heterogeneous
column types — distinct counts are cast-invariant because the casts are
injective per engine) plus slim per-batch (column, n, n_null) partials;
one (column, value) groupby is the only content-sized exchange (bounded
by the true distinct count per column, the quantity being measured),
two tiny column groupbys fold the counts, and ``equi_join(how="left")``
attaches n_distinct to each column's counts. The approximate twin at
10^12-distinct scale is `ops.sketches.hll_distinct_per_group` —
documented pairing, same shape as distinct_users / distinct_users_hll.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def profile_table(ds, columns: list[str] | None = None):
    """One row per column: (column, n_rows, n_null, n_distinct).
    NULLs are excluded from the distinct count (SQL COUNT(DISTINCT)).
    The per-column counts LEFT-join the per-column distinct counts on
    ``column``; an all-NULL column has no distinct row and gets 0."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .equijoin import equi_join

    def pair_partials(batch: pa.Table) -> pa.Table:
        cols = columns or batch.column_names
        pairs_c, pairs_v = [], []
        for c in cols:
            v = batch[c]
            if isinstance(v, pa.ChunkedArray):
                v = v.combine_chunks()
            uniq = pc.unique(v.drop_null())
            s = pc.cast(uniq, pa.string())
            pairs_c.append(pa.array([c] * len(s), type=pa.string()))
            pairs_v.append(s)
        return pa.table({
            "column": pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in pairs_c]) if pairs_c
            else pa.array([], type=pa.string()),
            "value": pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in pairs_v]) if pairs_v
            else pa.array([], type=pa.string())})

    def stat_partials(batch: pa.Table) -> pa.Table:
        cols = columns or batch.column_names
        rows = [(c, batch.num_rows, batch[c].null_count) for c in cols]
        return pa.table({
            "column": pa.array([r[0] for r in rows], type=pa.string()),
            "n_rows": pa.array([r[1] for r in rows], type=pa.int64()),
            "n_null": pa.array([r[2] for r in rows], type=pa.int64())})

    pairs_ds = ds.map_batches(pair_partials, batch_format="pyarrow")
    stats_ds = (ds.map_batches(stat_partials, batch_format="pyarrow")
                .groupby("column")
                .aggregate(Sum("n_rows", alias_name="n_rows"),
                           Sum("n_null", alias_name="n_null")))

    def add_pk(batch: pa.Table) -> pa.Table:
        # pack pairs into bounded hash partitions (the dedup
        # _distinct_pairs shape: hundreds of vectorized tasks, never
        # one dispatch per pair)
        from ..util import crc32_column
        if batch.num_rows == 0:
            return batch.append_column("pk",
                                       pa.array([], type=pa.int64()))
        h = crc32_column(batch["column"]).astype(np.uint64) \
            * np.uint64(1099511628211) \
            ^ crc32_column(batch["value"]).astype(np.uint64)
        return batch.append_column(
            "pk", pa.array((h % np.uint64(512)).astype(np.int64)))

    def count_distinct(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "column" not in group.column_names:
            return pa.table({"column": pa.array([], type=pa.string()),
                             "one": pa.array([], type=pa.int64())})
        g = group.group_by(["column", "value"]).aggregate([])
        c = g.group_by("column").aggregate([([], "count_all")])
        return pa.table({"column": c["column"],
                         "one": c["count_all"].cast(pa.int64())})

    # the typed empty block keeps the schema when every profiled column
    # is all-NULL (an aggregate over no rows has none)
    distinct_ds = (pairs_ds.map_batches(add_pk, batch_format="pyarrow")
                   .groupby("pk")
                   .map_groups(count_distinct, batch_format="pyarrow")
                   .groupby("column")
                   .aggregate(Sum("one", alias_name="n_distinct"))
                   .union(rd.from_arrow(pa.table({
                       "column": pa.array([], type=pa.string()),
                       "n_distinct": pa.array([], type=pa.int64())}))))

    def fill(b: pa.Table) -> pa.Table:
        return b.set_column(b.schema.get_field_index("n_distinct"),
                            "n_distinct",
                            pc.fill_null(b["n_distinct"], 0))

    return equi_join(stats_ds, distinct_ds, "column", how="left") \
        .map_batches(fill, batch_format="pyarrow")
