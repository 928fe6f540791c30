"""Windowed aggregates over the events stream table.

The reference has no streaming operators (SURVEY.md §2.10); these are
the training-data-pipeline additions for event-shaped data:

- ``tumbling_window_agg``: fixed-width time windows, pre-aggregated
  inside ``map_batches`` (map-side combine: one row per (window, type)
  per batch) before a small groupby — the shuffle moves window metadata,
  never events.
- ``sessionize``: per-user gap-based session windows via
  ``groupby(user_id).map_groups`` with an explicit (ts, event_id) sort —
  the partitioning assumption is one user's events fit one task (true
  unless a single user exceeds ~10^8 events; salt by day for such keys).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

US_PER_HOUR = 3_600_000_000


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (DuckDB/SQL round()), not numpy's
    half-to-even — pins the exact-.5-cent boundary to the oracle."""
    return np.trunc(x + np.copysign(0.5, x)).astype(np.int64)


def _value_cents(value) -> np.ndarray:
    """Per-event ``value`` in whole cents, rounded half away from zero.
    A NULL value adds nothing to a window's sum (Arrow's null-aware sum
    skips it) but the event still counts in n_events."""
    return _round_half_away(pc.fill_null(value, 0).to_numpy() * 100.0)


def tumbling_window_agg(events_ds, width_us: int = US_PER_HOUR):
    """(window_start_us, event_type) -> n_events, sum_value.

    Map-side partial aggregation per batch, then a groupby over the tiny
    (window, type) partials — equivalent to a streaming tumbling-window
    count/sum with batch semantics.
    """
    from ray.data.aggregate import Count, Sum

    from .. import use_push_shuffle
    use_push_shuffle(events_ds)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()  # epoch micros
        win = (ts // width_us) * width_us
        # cents at the LEAF (one half-away round per event, int64 sums
        # after — the rollup_agg convention): integer partial sums
        # associate exactly, so any partial boundary (Ray block,
        # stream batch, hop replication) yields the identical result
        # for ANY float input, not just 2-decimal values
        t = pa.table({"window_start_us": pa.array(win, type=pa.int64()),
                      "event_type": batch["event_type"],
                      "c": pa.array(_value_cents(batch["value"]))})
        a = t.group_by(["window_start_us", "event_type"]).aggregate(
            [([], "count_all"), ("c", "sum")])
        return pa.table({"window_start_us": a["window_start_us"],
                         "event_type": a["event_type"],
                         "n": a["count_all"].cast(pa.int64()),
                         "c": a["c_sum"].cast(pa.int64())})

    partials = events_ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["window_start_us", "event_type"]).aggregate(
        Sum("n", alias_name="n_events"),
        Sum("c", alias_name="sum_value_cents"))


def hopping_window_agg(events_ds, width_us: int = US_PER_HOUR,
                       hop_us: int = US_PER_HOUR // 2):
    """Overlapping (hopping/sliding) windows: every window of length
    ``width_us`` starting at multiples of ``hop_us``; an event at t
    belongs to ceil(width/hop) consecutive windows. Map-side combine
    replicates each batch row once PER COVERING WINDOW into (window,
    type) partials before the tiny groupby — events never shuffle.
    ``width_us`` must be a multiple of ``hop_us``."""
    from ray.data.aggregate import Sum

    from .. import use_push_shuffle
    if width_us % hop_us:
        raise ValueError("width_us must be a multiple of hop_us")
    k = width_us // hop_us
    use_push_shuffle(events_ds)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        # last window start covering t: floor(t/hop)*hop; the k covering
        # starts are that minus j*hop for j in [0, k)
        base = (ts // hop_us) * hop_us
        n = len(ts)
        win = (np.repeat(base, k)
               - np.tile(np.arange(k, dtype=np.int64) * hop_us, n))
        t = pa.table({
            "window_start_us": pa.array(win, type=pa.int64()),
            "event_type": pa.array(
                np.repeat(batch["event_type"].to_numpy(zero_copy_only=False),
                          k)),
            "c": pa.array(np.repeat(_value_cents(batch["value"]), k)),
        })
        a = t.group_by(["window_start_us", "event_type"]).aggregate(
            [([], "count_all"), ("c", "sum")])
        return pa.table({"window_start_us": a["window_start_us"],
                         "event_type": a["event_type"],
                         "n": a["count_all"].cast(pa.int64()),
                         "c": a["c_sum"].cast(pa.int64())})

    partials = events_ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["window_start_us", "event_type"]).aggregate(
        Sum("n", alias_name="n_events"),
        Sum("c", alias_name="sum_value_cents"))


def sessionize(events_ds, gap_us: int = 30 * 60 * 1_000_000,
               salt_width_us: int | None = None):
    """Per-user gap-based sessions: a new session starts when the time
    since the previous event (ordered by ts, event_id) exceeds ``gap_us``.

    Returns (user_id, session_id [0-based per user], n_events,
    start_us, end_us, sum_value_cents).

    ``salt_width_us`` bounds per-task memory for MEGA users (one key
    exceeding a task's heap): events group by (user, ts // width) so each
    task holds one user-time-slice; the per-user pass then merges only
    SUB-SESSION aggregates (one row per fragment, never events) with the
    same gap rule — fragments split inside a slice have gap > gap_us by
    construction, so the uniform merge is exact. Values convert to int64
    cents at the LEAF (per event), so fragment sums are exact integer
    partials and the salted path is identical to the unsalted one for
    ANY float input (pytest-pinned), not just 2-decimal values. Pick width >> gap_us (e.g. a day
    for a 30-min gap) so fragments stay few.
    """
    from .. import use_push_shuffle
    use_push_shuffle(events_ds)
    if salt_width_us is not None:
        if salt_width_us <= gap_us:
            raise ValueError("salt_width_us must exceed gap_us")
        return _sessionize_salted(events_ds, gap_us, salt_width_us)

    def build(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("ts", "ascending"),
                                                  ("event_id", "ascending")])
        group = group.take(order)
        ts = group["ts"].cast(pa.int64()).to_numpy()
        # cents at the LEAF (one half-away round per event, int64 sums
        # after): integer addition associates, so salted / streaming /
        # unsalted agree EXACTLY for ANY float input — float session
        # sums re-associated across fragment boundaries could flip a
        # cent (the rollup_agg convention; round-5 review finding)
        cents = _value_cents(group["value"])
        user = int(group["user_id"][0].as_py())
        new_sess = np.empty(len(ts), dtype=np.int64)
        new_sess[0] = 0
        if len(ts) > 1:
            new_sess[1:] = (np.diff(ts) > gap_us).astype(np.int64)
        sess = np.cumsum(new_sess)
        starts = np.flatnonzero(np.diff(sess, prepend=-1))
        ends = np.append(starts[1:], len(sess))
        return pa.table({
            "user_id": pa.array([user] * len(starts), type=pa.int64()),
            "session_id": pa.array(sess[starts], type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
            "start_us": pa.array(ts[starts], type=pa.int64()),
            "end_us": pa.array(ts[ends - 1], type=pa.int64()),
            "sum_value_cents": pa.array(
                np.add.reduceat(cents, starts).astype(np.int64)),
        })

    return (events_ds
            .select_columns(["user_id", "ts", "event_id", "value"])
            .groupby("user_id")
            .map_groups(build, batch_format="pyarrow"))


def _sessionize_salted(events_ds, gap_us: int, salt_width_us: int):
    """Day-salted sessionize (see sessionize): phase 1 builds per-slice
    session FRAGMENTS carrying exact int64 cent sums; phase 2 merges
    fragment rows per user — events never regroup globally."""

    def add_salt(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        return pa.table({
            "user_id": batch["user_id"],
            "salt": pa.array(ts // salt_width_us, type=pa.int64()),
            "ts": pa.array(ts, type=pa.int64()),
            "event_id": batch["event_id"],
            "value": batch["value"],
        })

    def fragments(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("ts", "ascending"),
                                                  ("event_id", "ascending")])
        group = group.take(order)
        ts = group["ts"].to_numpy()
        cents = _value_cents(group["value"])
        user = int(group["user_id"][0].as_py())
        new_f = np.empty(len(ts), dtype=np.int64)
        new_f[0] = 0
        if len(ts) > 1:
            new_f[1:] = (np.diff(ts) > gap_us).astype(np.int64)
        frag = np.cumsum(new_f)
        starts = np.flatnonzero(np.diff(frag, prepend=-1))
        ends = np.append(starts[1:], len(frag))
        return pa.table({
            "user_id": pa.array([user] * len(starts), type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
            "start_us": pa.array(ts[starts], type=pa.int64()),
            "end_us": pa.array(ts[ends - 1], type=pa.int64()),
            "sum_cents": pa.array(
                np.add.reduceat(cents, starts).astype(np.int64)),
        })

    def merge(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("start_us", "ascending")])
        group = group.take(order)
        user = int(group["user_id"][0].as_py())
        s = group["start_us"].to_numpy()
        e = group["end_us"].to_numpy()
        n = group["n_events"].to_numpy()
        v = group["sum_cents"].to_numpy()
        new_sess = np.empty(len(s), dtype=np.int64)
        new_sess[0] = 0
        if len(s) > 1:
            new_sess[1:] = ((s[1:] - e[:-1]) > gap_us).astype(np.int64)
        sess = np.cumsum(new_sess)
        starts = np.flatnonzero(np.diff(sess, prepend=-1))
        bounds = np.append(starts, len(sess))
        ends_idx = bounds[1:] - 1
        return pa.table({
            "user_id": pa.array([user] * len(starts), type=pa.int64()),
            "session_id": pa.array(sess[starts], type=pa.int64()),
            "n_events": pa.array(np.add.reduceat(n, starts), type=pa.int64()),
            "start_us": pa.array(s[starts], type=pa.int64()),
            "end_us": pa.array(e[ends_idx], type=pa.int64()),
            "sum_value_cents": pa.array(
                np.add.reduceat(v, starts).astype(np.int64)),
        })

    frags = (events_ds
             .select_columns(["user_id", "ts", "event_id", "value"])
             .map_batches(add_salt, batch_format="pyarrow")
             .groupby(["user_id", "salt"])
             .map_groups(fragments, batch_format="pyarrow"))
    return frags.groupby("user_id").map_groups(merge, batch_format="pyarrow")


US_PER_WEEK = 7 * 24 * 60 * 60 * 1_000_000


def retention_cohorts(events_ds, bucket_us: int = US_PER_WEEK,
                      key_col: str = "user_id"):
    """Classic cohort retention: bucket users by their FIRST-activity
    period (the cohort), then count how many of each cohort were active
    again ``k`` periods later — the product-analytics retention
    triangle. Returns (cohort_us, period_offset, n_users): cohort_us =
    the cohort bucket's start epoch-us, period_offset = whole buckets
    since the cohort (0 = the cohort period itself, where every cohort
    member is active by definition), n_users = DISTINCT active users.

    Shape: per-batch arrow distinct over (key, bucket) — only
    batch-distinct slim pairs enter the ONE key groupby; each key
    group (its distinct buckets: bounded by the corpus's period count,
    never events) derives cohort = min(bucket) and emits one
    (cohort, offset) row per active bucket; a final aggregate-sized
    (cohort, offset) groupby counts. Content and event rows never
    shuffle; no driver state.
    """
    if bucket_us <= 0:
        raise ValueError("bucket_us must be positive")

    from .. import use_push_shuffle
    use_push_shuffle(events_ds)

    def pairs(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        bucket = (ts // bucket_us) * bucket_us
        t = pa.table({key_col: batch[key_col],
                      "bucket_us": pa.array(bucket, type=pa.int64())})
        return t.group_by([key_col, "bucket_us"]).aggregate([])

    empty = pa.table({"cohort_us": pa.array([], type=pa.int64()),
                      "period_offset": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64())})

    def per_key(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return empty
        b = group["bucket_us"]
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        buckets = np.unique(b.to_numpy())     # re-distinct across batches
        cohort = int(buckets[0])              # unique() sorts ascending
        return pa.table({
            "cohort_us": pa.array(np.full(len(buckets), cohort),
                                  type=pa.int64()),
            "period_offset": pa.array((buckets - cohort) // bucket_us,
                                      type=pa.int64()),
            "n": pa.array(np.ones(len(buckets), dtype=np.int64)),
        })

    from ray.data.aggregate import Sum
    rows = (events_ds.map_batches(pairs, batch_format="pyarrow")
            .groupby(key_col)
            .map_groups(per_key, batch_format="pyarrow")
            .groupby(["cohort_us", "period_offset"])
            .aggregate(Sum("n", alias_name="n_users")))
    return rows


def props_extract(batch: pa.Table) -> pa.Table:
    """Vectorized JSON field extraction from the events ``props`` column
    (schema '{"k": <int>}'): one regex kernel pass, no per-row Python."""
    m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>-?\d+)')
    k = pc.struct_field(m, [0])
    return pa.table({
        "event_id": batch["event_id"],
        "k": pc.cast(k, pa.int64()),
    })


def top_users_by_type(events_ds, k: int = 5):
    """Per event_type: top-k users by total value (ties: user_id asc).

    Map-side partial (user, type) sums inside map_batches, a small
    groupby over the partials, then per-type top-k — the grouped-top-k
    pattern (only aggregates shuffle, never events). Between the global
    sum and the final per-type merge, a map-side PRE-top-k cuts each
    block to k rows per type, so the last exchange moves O(k x types x
    blocks) rows even when one type has billions of users (the
    pre-cut is lossless: a row dropped at a block's (total desc,
    user asc) boundary is preceded by >= k rows of that type globally,
    so it can never enter the global top-k)."""
    from ray.data.aggregate import Sum

    from .. import use_push_shuffle
    use_push_shuffle(events_ds)

    def partial(batch: pa.Table) -> pa.Table:
        a = batch.group_by(["event_type", "user_id"]).aggregate(
            [("value", "sum")])
        return pa.table({"event_type": a["event_type"],
                         "user_id": a["user_id"],
                         "v": a["value_sum"]})

    sums = (events_ds.select_columns(["event_type", "user_id", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "user_id"])
            .aggregate(Sum("v", alias_name="total")))

    def pre_topk(batch: pa.Table) -> pa.Table:
        # per-block, per-type cut to k rows (lossless, see docstring);
        # rank on integer cents: float totals summed in different orders
        # can differ by 1 ulp, which would make tie order engine-dependent
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "user_id": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64())})
        cents = pc.round(pc.multiply(batch["total"], 100.0),
                         round_mode="half_towards_infinity").cast(pa.int64())
        t = pa.table({"event_type": batch["event_type"],
                      "user_id": batch["user_id"],
                      "total_cents": cents})
        order = pc.sort_indices(t, sort_keys=[
            ("event_type", "ascending"), ("total_cents", "descending"),
            ("user_id", "ascending")])
        t = t.take(order)
        et = t["event_type"].combine_chunks()
        neq = pc.not_equal(et.slice(1), et.slice(0, len(et) - 1)) \
            .to_numpy(zero_copy_only=False) if len(et) > 1 else \
            np.zeros(0, dtype=bool)
        run_id = np.cumsum(np.append(0, neq.astype(np.int64)))
        starts = np.flatnonzero(np.append(True, neq))
        within = np.arange(len(et)) - starts[run_id]
        return t.filter(pa.array(within < k))

    def topk(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[
            ("total_cents", "descending"), ("user_id", "ascending")])
        g = group.take(order.slice(0, k))
        return pa.table({
            "event_type": g["event_type"],
            "user_id": g["user_id"],
            "rank": pa.array(np.arange(1, g.num_rows + 1)),
            "total_cents": g["total_cents"],
        })

    return (sums.map_batches(pre_topk, batch_format="pyarrow")
                .groupby("event_type")
                .map_groups(topk, batch_format="pyarrow"))


def _running_prep(batch: pa.Table, key_col: str, order_col: str,
                  value_col: str, id_col: str,
                  frag_width_us: int | None) -> pa.Table:
    ts = batch[order_col]
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    us = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
    # a NULL value stays a NULL cents entry: it adds 0 to the running
    # sum, and the next row's lag is NULL (SQL's lag of a NULL)
    value = batch[value_col]
    cents = pa.array(_value_cents(value),
                     mask=value.is_null().to_numpy(zero_copy_only=False))
    out = pa.table({id_col: batch[id_col],
                    key_col: batch[key_col],
                    "__us": pa.array(us),
                    "__cents": cents})
    if frag_width_us is not None:
        out = out.append_column(
            "__frag", pa.array(us // frag_width_us, type=pa.int64()))
    return out


_RUNNING_EMPTY = {"row_number": pa.int64(),
                  "running_sum_cents": pa.int64(),
                  "lag_value_cents": pa.int64()}


def _running_rank(group: pa.Table, key_col: str, id_col: str,
                  rn_off: int = 0, sum_off: int = 0,
                  lag_carry=None) -> pa.Table:
    """Sort one (key[, fragment]) group by (__us, id) and stamp
    row_number / inclusive running sum / lag, all exact int64 cents."""
    order = pc.sort_indices(group, sort_keys=[("__us", "ascending"),
                                              (id_col, "ascending")])
    g = group.take(order)
    cents = g["__cents"].fill_null(0).to_numpy()
    rn = rn_off + np.arange(1, len(cents) + 1, dtype=np.int64)
    run = sum_off + np.cumsum(cents)
    lag = np.empty(len(cents), dtype=np.int64)
    lag[1:] = cents[:-1]
    lag_mask = np.zeros(len(cents), dtype=bool)
    lag_mask[1:] = g["__cents"].is_null().to_numpy(
        zero_copy_only=False)[:-1]
    if len(cents):
        if lag_carry is None:
            lag[0] = 0
            lag_mask[0] = True          # NULL: no previous row
        else:
            lag[0] = lag_carry
    return pa.table({
        id_col: g[id_col], key_col: g[key_col],
        "row_number": pa.array(rn),
        "running_sum_cents": pa.array(run.astype(np.int64)),
        "lag_value_cents": pa.array(
            np.ma.masked_array(lag, mask=lag_mask)),
    })


def running_agg(events_ds, key_col: str = "user_id",
                order_col: str = "ts", value_col: str = "value",
                id_col: str = "event_id",
                salt_bucket_us: int | None = None):
    """Per-key running window functions — SQL's row_number(),
    sum(cents) OVER (PARTITION BY key ORDER BY order, id ROWS UNBOUNDED
    PRECEDING) and lag(cents): the per-event cumulative-spend /
    session-progress features of a behavioral pipeline. Values convert
    to int64 CENTS before accumulating, so every running sum is exact
    integer arithmetic — bit-identical at any partitioning and in SQL
    (float cumsums would associate differently).

    Returns (id, key, row_number, running_sum_cents, lag_value_cents
    [null on each key's first row]); total order per key is
    (order_col, id_col) — deterministic for unique ids.

    Unsalted: slim (id, key, us, cents) rows only enter ONE key
    groupby; each group sorts + cumsums. A key whose rows dwarf a
    worker (the mega-user) passes ``salt_bucket_us``: rows fragment
    into (key, order // width) groups, ONE metadata-sized fragment
    exchange turns per-fragment (count, sum, last-value) partials into
    exclusive prefix offsets + the lag carry for each fragment's first
    row, and every fragment finishes locally — pytest pins salted ≡
    unsalted. (The source_quota_sample salting shape, sampling.py:65.)
    """
    if salt_bucket_us is not None:
        return _running_salted(events_ds, key_col, order_col, value_col,
                               id_col, salt_bucket_us)

    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col,
                                id_col, None),
        batch_format="pyarrow")

    def rank(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()),
                 key_col: pa.array([], type=pa.int64()),
                 **{k: pa.array([], type=t)
                    for k, t in _RUNNING_EMPTY.items()}})
        return _running_rank(group, key_col, id_col)

    return prep.groupby(key_col).map_groups(rank, batch_format="pyarrow")


def _running_salted(events_ds, key_col: str, order_col: str,
                    value_col: str, id_col: str, bucket_us: int):
    if bucket_us <= 0:
        raise ValueError("salt_bucket_us must be positive")

    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col,
                                id_col, bucket_us),
        batch_format="pyarrow").materialize()

    # per-(key, frag) partials, map-side combined: count, cents sum and
    # the LAST row's cents under the (us, id) order
    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "__frag": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64()),
                             "last_us": pa.array([], type=pa.int64()),
                             "last_id": pa.array([], type=pa.int64()),
                             "last_cents": pa.array([], type=pa.int64())})
        order = pc.sort_indices(
            batch, sort_keys=[(key_col, "ascending"),
                              ("__frag", "ascending"),
                              ("__us", "ascending"),
                              (id_col, "ascending")])
        g = batch.take(order)
        key = g[key_col].to_numpy()
        frag = g["__frag"].to_numpy()
        new = np.concatenate(
            [[True], (key[1:] != key[:-1]) | (frag[1:] != frag[:-1])])
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [len(key)]]) - 1
        cents = g["__cents"].fill_null(0).to_numpy()
        sums = np.add.reduceat(cents, starts)
        return pa.table({
            key_col: pa.array(key[starts]),
            "__frag": pa.array(frag[starts]),
            "cnt": pa.array((ends - starts + 1).astype(np.int64)),
            "s": pa.array(sums.astype(np.int64)),
            "last_us": pa.array(g["__us"].to_numpy()[ends]),
            "last_id": pa.array(g[id_col].to_numpy()[ends]),
            "last_cents": g["__cents"].take(pa.array(ends))})

    def combine(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "__frag": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64()),
                             "last_cents": pa.array([], type=pa.int64())})
        order = pc.sort_indices(group,
                                sort_keys=[("last_us", "ascending"),
                                           ("last_id", "ascending")])
        g = group.take(order)
        return pa.table({
            key_col: g[key_col].slice(0, 1),
            "__frag": g["__frag"].slice(0, 1),
            "cnt": pa.array([int(g["cnt"].to_numpy().sum())]),
            "s": pa.array([int(g["s"].to_numpy().sum())]),
            "last_cents": g["last_cents"].slice(g.num_rows - 1, 1)})

    frag_stats = (prep.map_batches(partials, batch_format="pyarrow")
                  .groupby([key_col, "__frag"])
                  .map_groups(combine, batch_format="pyarrow"))

    # per-key exclusive prefix offsets + the previous fragment's last
    # value (the lag carry) — fragment rows only, metadata-sized
    def offsets(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "__frag": pa.array([], type=pa.int64()),
                             "rn_off": pa.array([], type=pa.int64()),
                             "sum_off": pa.array([], type=pa.int64()),
                             "carry": pa.array([], type=pa.int64())})
        order = pc.sort_indices(group["__frag"])
        g = group.take(order)
        cnt = g["cnt"].to_numpy()
        s = g["s"].to_numpy()
        last = g["last_cents"].fill_null(0).to_numpy()
        rn_off = np.concatenate([[0], np.cumsum(cnt[:-1])])
        sum_off = np.concatenate([[0], np.cumsum(s[:-1])])
        carry = np.empty(len(last), dtype=np.int64)
        carry[1:] = last[:-1]
        # a NULL last value carries as a NULL lag
        mask = np.zeros(len(last), dtype=bool)
        mask[1:] = g["last_cents"].is_null().to_numpy(
            zero_copy_only=False)[:-1]
        if len(last):
            carry[0] = 0
            mask[0] = True
        return pa.table({
            key_col: g[key_col], "__frag": g["__frag"],
            "rn_off": pa.array(rn_off.astype(np.int64)),
            "sum_off": pa.array(sum_off.astype(np.int64)),
            "carry": pa.array(np.ma.masked_array(carry, mask=mask))})

    frag_offsets = frag_stats.groupby(key_col).map_groups(
        offsets, batch_format="pyarrow")

    schema = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                        ("__us", pa.int64()), ("__cents", pa.int64()),
                        ("__frag", pa.int64()),
                        ("rn_off", pa.int64()), ("sum_off", pa.int64()),
                        ("carry", pa.int64()), ("__side", pa.int8())])

    def tag_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: batch[id_col], key_col: batch[key_col],
            "__us": batch["__us"], "__cents": batch["__cents"],
            "__frag": batch["__frag"],
            "rn_off": pa.nulls(m, pa.int64()),
            "sum_off": pa.nulls(m, pa.int64()),
            "carry": pa.nulls(m, pa.int64()),
            "__side": pa.array(np.zeros(m, np.int8))}, schema=schema)

    def tag_offsets(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: pa.nulls(m, pa.int64()),
            key_col: batch[key_col],
            "__us": pa.nulls(m, pa.int64()),
            "__cents": pa.nulls(m, pa.int64()),
            "__frag": batch["__frag"],
            "rn_off": batch["rn_off"], "sum_off": batch["sum_off"],
            "carry": batch["carry"],
            "__side": pa.array(np.ones(m, np.int8))}, schema=schema)

    def rank_frag(group: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          key_col: pa.array([], type=pa.int64()),
                          **{k: pa.array([], type=t)
                             for k, t in _RUNNING_EMPTY.items()}})
        if group.num_rows == 0 or group.num_columns == 0:
            return empty
        side = group["__side"].to_numpy(zero_copy_only=False)
        rows = group.filter(pa.array(side == 0))
        offs = group.filter(pa.array(side == 1))
        if rows.num_rows == 0:
            return empty
        rn_off = int(offs["rn_off"][0].as_py()) if offs.num_rows else 0
        sum_off = int(offs["sum_off"][0].as_py()) if offs.num_rows else 0
        carry = offs["carry"][0].as_py() if offs.num_rows else None
        return _running_rank(rows, key_col, id_col, rn_off, sum_off,
                             carry)

    tagged = prep.map_batches(tag_rows, batch_format="pyarrow").union(
        frag_offsets.map_batches(tag_offsets, batch_format="pyarrow"))
    return tagged.groupby([key_col, "__frag"]).map_groups(
        rank_frag, batch_format="pyarrow")


def funnel(events_ds, stages: list[str], key_col: str = "user_id",
           order_col: str = "ts", type_col: str = "event_type"):
    """Ordered-funnel analysis — for each key, how far through the
    ``stages`` sequence it progressed: stage i counts only with an
    event of that type STRICTLY AFTER the first qualifying event of
    stage i-1 (the standard product-analytics funnel; strict ordering
    keeps equal-timestamp ties deterministic and SQL-mirrorable).

    Returns one row per key: (key, n_stages, stage1_us .. stageK_us)
    with each stage's first qualifying event time in int64 micros
    (NULL once the funnel broke).

    Scale shape: only (key, us, stage-index) rows for events whose type
    IS a funnel stage enter the single key groupby (map-side filter —
    off-funnel events never move); each group walks the K stages with
    one searchsorted per stage over its sorted times. K is a constant;
    per-key work is linear in that key's on-funnel events.
    """
    if not stages:
        raise ValueError("stages must be non-empty")
    if len(set(stages)) != len(stages):
        raise ValueError("stages must be distinct")
    k = len(stages)
    stage_of = {s: i for i, s in enumerate(stages)}

    def prep(batch: pa.Table) -> pa.Table:
        t = batch[type_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        keep = pc.is_in(t, value_set=pa.array(stages))
        b = batch.filter(keep)
        tt = b[type_col]
        if isinstance(tt, pa.ChunkedArray):
            tt = tt.combine_chunks()
        idx = pc.index_in(tt, value_set=pa.array(stages)) \
            .to_numpy(zero_copy_only=False).astype(np.int8) \
            if b.num_rows else np.zeros(0, dtype=np.int8)
        ts = b[order_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        return pa.table({
            key_col: b[key_col],
            "__us": pa.array(ts.cast(pa.int64()).to_numpy(
                zero_copy_only=False)),
            "__stage": pa.array(idx)})

    out_fields = {f"stage{i + 1}_us": pa.int64() for i in range(k)}

    def walk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "n_stages": pa.array([], type=pa.int64()),
                             **{n: pa.array([], type=t)
                                for n, t in out_fields.items()}})
        us = group["__us"].to_numpy()
        st = group["__stage"].to_numpy(zero_copy_only=False)
        times: list = []
        prev = None
        for i in range(k):
            cand = us[st == i]
            if prev is not None:
                cand = cand[cand > prev]
            if len(cand) == 0:
                break
            prev = int(cand.min())
            times.append(prev)
        n = len(times)
        cols = {key_col: group[key_col].slice(0, 1),
                "n_stages": pa.array([n], type=pa.int64())}
        for i in range(k):
            cols[f"stage{i + 1}_us"] = pa.array(
                [times[i]] if i < n else [None], type=pa.int64())
        return pa.table(cols)

    return (events_ds.map_batches(prep, batch_format="pyarrow")
            .groupby(key_col).map_groups(walk, batch_format="pyarrow"))


def moving_agg(events_ds, window_rows: int, key_col: str = "user_id",
               order_col: str = "ts", value_col: str = "value",
               id_col: str = "event_id",
               salt_bucket_us: int | None = None):
    """Per-key MOVING window aggregate over the last ``window_rows``
    rows — SQL's sum/count OVER (PARTITION BY key ORDER BY order, id
    ROWS BETWEEN N-1 PRECEDING AND CURRENT ROW): the trailing-spend /
    rolling-activity feature. Exact int64-cents arithmetic like
    :func:`running_agg` (moving sum = cumsum difference — associative,
    bit-identical at any partitioning and in SQL).

    Returns (id, key, moving_sum_cents, moving_count) with
    moving_count = min(row_number, N).

    Unsalted: one key groupby, per-group sort + cumsum-difference.
    Mega-key: ``salt_bucket_us`` fragments by (key, order // width); the
    per-key offsets task additionally threads each fragment the TAIL of
    the previous fragments' last min(N, count) cents (an N-int list per
    fragment — metadata-sized for the small N a rolling feature uses),
    so every fragment computes its windows locally over
    concat(tail, own cents). pytest pins salted ≡ unsalted.
    """
    if window_rows <= 0:
        raise ValueError("window_rows must be positive")
    n_win = int(window_rows)

    def win_from(cents: np.ndarray, tail: np.ndarray):
        """Moving sums/counts for the rows AFTER the tail prefix."""
        full = np.concatenate([tail, cents]) if len(tail) else cents
        cum = np.cumsum(full)
        lo = np.arange(len(tail), len(full)) - n_win
        sums = cum[len(tail):] - np.where(lo >= 0, cum[np.maximum(lo, 0)],
                                          0)
        cnt = np.minimum(np.arange(len(tail) + 1, len(full) + 1), n_win)
        return sums.astype(np.int64), cnt.astype(np.int64)

    empty = {id_col: pa.array([], type=pa.int64()),
             key_col: pa.array([], type=pa.int64()),
             "moving_sum_cents": pa.array([], type=pa.int64()),
             "moving_count": pa.array([], type=pa.int64())}

    if salt_bucket_us is None:
        prep = events_ds.map_batches(
            lambda b: _running_prep(b, key_col, order_col, value_col,
                                    id_col, None),
            batch_format="pyarrow")

        def rank(group: pa.Table) -> pa.Table:
            if group.num_rows == 0 or group.num_columns == 0:
                return pa.table(empty)
            order = pc.sort_indices(group,
                                    sort_keys=[("__us", "ascending"),
                                               (id_col, "ascending")])
            g = group.take(order)
            sums, cnt = win_from(g["__cents"].to_numpy(),
                                 np.zeros(0, np.int64))
            return pa.table({id_col: g[id_col], key_col: g[key_col],
                             "moving_sum_cents": pa.array(sums),
                             "moving_count": pa.array(cnt)})

        return prep.groupby(key_col).map_groups(rank,
                                                batch_format="pyarrow")

    if salt_bucket_us <= 0:
        raise ValueError("salt_bucket_us must be positive")
    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col,
                                id_col, salt_bucket_us),
        batch_format="pyarrow").materialize()

    # per-(key, frag) partials: count + the LAST min(N, count) cents in
    # (us, id) order, packed little-endian (metadata-sized carry)
    def partials(batch: pa.Table) -> pa.Table:
        cols = {key_col: pa.array([], type=pa.int64()),
                "__frag": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
                "tail": pa.array([], type=pa.binary())}
        if batch.num_rows == 0:
            return pa.table(cols)
        order = pc.sort_indices(
            batch, sort_keys=[(key_col, "ascending"),
                              ("__frag", "ascending"),
                              ("__us", "ascending"),
                              (id_col, "ascending")])
        g = batch.take(order)
        key = g[key_col].to_numpy()
        frag = g["__frag"].to_numpy()
        cents = g["__cents"].to_numpy()
        new = np.concatenate(
            [[True], (key[1:] != key[:-1]) | (frag[1:] != frag[:-1])])
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [len(key)]])
        us_np = g["__us"].to_numpy()
        id_np = g[id_col].to_numpy()
        tails = [np.stack([us_np[max(e - n_win, s):e],
                           id_np[max(e - n_win, s):e],
                           cents[max(e - n_win, s):e]], axis=1)
                 .astype("<i8").tobytes()
                 for s, e in zip(starts, ends)]
        return pa.table({
            key_col: pa.array(key[starts]),
            "__frag": pa.array(frag[starts]),
            "cnt": pa.array((ends - starts).astype(np.int64)),
            "tail": pa.array(tails, type=pa.binary())})

    def offsets(group: pa.Table) -> pa.Table:
        out = {key_col: pa.array([], type=pa.int64()),
               "__frag": pa.array([], type=pa.int64()),
               "tail": pa.array([], type=pa.binary())}
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table(out)
        order = pc.sort_indices(group["__frag"])
        g = group.take(order)
        frags = g["__frag"].to_numpy()
        tails = g["tail"].to_pylist()
        rows_frag, rows_tail = [], []
        roll = np.zeros(0, dtype=np.int64)
        for f, t in zip(frags.tolist(), tails):
            rows_frag.append(f)
            rows_tail.append(roll.astype("<i8").tobytes())
            tc = np.frombuffer(t, dtype="<i8").reshape(-1, 3)[:, 2]
            roll = np.concatenate([roll, tc])[-n_win:]
        return pa.table({
            key_col: pa.array([int(g[key_col][0].as_py())] *
                              len(rows_frag), type=pa.int64()),
            "__frag": pa.array(rows_frag, type=pa.int64()),
            "tail": pa.array(rows_tail, type=pa.binary())})

    frag_tails = (prep.map_batches(partials, batch_format="pyarrow")
                  .groupby([key_col, "__frag"])
                  .map_groups(lambda g: _merge_frag_partials(
                      g, key_col, n_win), batch_format="pyarrow")
                  .groupby(key_col)
                  .map_groups(offsets, batch_format="pyarrow"))

    schema = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                        ("__us", pa.int64()), ("__cents", pa.int64()),
                        ("__frag", pa.int64()), ("tail", pa.binary()),
                        ("__side", pa.int8())])

    def tag_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: batch[id_col], key_col: batch[key_col],
            "__us": batch["__us"], "__cents": batch["__cents"],
            "__frag": batch["__frag"],
            "tail": pa.nulls(m, pa.binary()),
            "__side": pa.array(np.zeros(m, np.int8))}, schema=schema)

    def tag_tails(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: pa.nulls(m, pa.int64()),
            key_col: batch[key_col],
            "__us": pa.nulls(m, pa.int64()),
            "__cents": pa.nulls(m, pa.int64()),
            "__frag": batch["__frag"], "tail": batch["tail"],
            "__side": pa.array(np.ones(m, np.int8))}, schema=schema)

    def rank_frag(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table(empty)
        side = group["__side"].to_numpy(zero_copy_only=False)
        rows = group.filter(pa.array(side == 0))
        tails = group.filter(pa.array(side == 1))
        if rows.num_rows == 0:
            return pa.table(empty)
        tail = np.frombuffer(tails["tail"][0].as_py() or b"",
                             dtype="<i8") if tails.num_rows else \
            np.zeros(0, dtype=np.int64)
        order = pc.sort_indices(rows, sort_keys=[("__us", "ascending"),
                                                 (id_col, "ascending")])
        g = rows.take(order)
        sums, cnt = win_from(g["__cents"].to_numpy(),
                             tail.astype(np.int64))
        return pa.table({id_col: g[id_col], key_col: g[key_col],
                         "moving_sum_cents": pa.array(sums),
                         "moving_count": pa.array(cnt)})

    tagged = prep.map_batches(tag_rows, batch_format="pyarrow").union(
        frag_tails.map_batches(tag_tails, batch_format="pyarrow"))
    return tagged.groupby([key_col, "__frag"]).map_groups(
        rank_frag, batch_format="pyarrow")


def _merge_frag_partials(group: pa.Table, key_col: str,
                         n_win: int) -> pa.Table:
    """Merge one (key, frag)'s per-batch partials into a single row:
    total count and the fragment's TRUE last-N tail. Tails carry
    (us, id, cents) triples, because batch slices of a fragment can
    INTERLEAVE in time — a cents-only concatenation could keep the
    wrong elements. Exactness: every element of the fragment's global
    last-N is, within its own batch, followed by fewer than N fragment
    rows, hence inside that batch's last-N — so the global last-N is a
    subset of the union of batch tails, and sorting the union by
    (us, id) and keeping the last N reproduces it exactly, in order."""
    if group.num_rows == 0 or group.num_columns == 0:
        return pa.table({key_col: pa.array([], type=pa.int64()),
                         "__frag": pa.array([], type=pa.int64()),
                         "cnt": pa.array([], type=pa.int64()),
                         "tail": pa.array([], type=pa.binary())})
    cat = np.concatenate([np.frombuffer(t, dtype="<i8").reshape(-1, 3)
                          for t in group["tail"].to_pylist()])
    order = np.lexsort((cat[:, 1], cat[:, 0]))
    cat = cat[order][-n_win:]
    return pa.table({
        key_col: group[key_col].slice(0, 1),
        "__frag": group["__frag"].slice(0, 1),
        "cnt": pa.array([int(group["cnt"].to_numpy().sum())]),
        "tail": pa.array([cat.astype("<i8").tobytes()],
                         type=pa.binary())})


def rollup_agg(events_ds, width_us: int = US_PER_HOUR):
    """SQL GROUP BY ROLLUP(event_type, window): the (type, window)
    aggregate plus per-type subtotals plus the grand total in one
    result — the standard reporting cube slice. Values convert to
    int64 cents at the LEAF (one round per event), so every rollup
    level is an exact integer sum — no float re-association anywhere.

    Scale shape: the leaf level is the tumbling_window_agg exchange
    (map-side (window, type) combine, events never shuffle); both
    subtotal levels re-aggregate the LEAF AGGREGATE (aggregate-sized,
    never content-sized) with arrow group_bys inside one task per
    block + one tiny groupby each. NULL window/type mark subtotal rows
    exactly like SQL ROLLUP.
    """
    from ray.data.aggregate import Sum
    from .. import use_push_shuffle
    use_push_shuffle(events_ds)
    if width_us <= 0:
        raise ValueError("width_us must be positive")

    def leaf_partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        win = (ts // width_us) * width_us
        cents = _value_cents(batch["value"])
        t = pa.table({"window_start_us": pa.array(win, type=pa.int64()),
                      "event_type": batch["event_type"],
                      "cents": pa.array(cents)})
        a = t.group_by(["window_start_us", "event_type"]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return pa.table({"window_start_us": a["window_start_us"],
                         "event_type": a["event_type"],
                         "n": a["count_all"].cast(pa.int64()),
                         "c": a["cents_sum"].cast(pa.int64())})

    leaf = (events_ds.map_batches(leaf_partial, batch_format="pyarrow")
            .groupby(["window_start_us", "event_type"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("c", alias_name="c"))
            .materialize())

    def out_rows(b: pa.Table, null_window: bool,
                 null_type: bool) -> pa.Table:
        m = b.num_rows
        return pa.table({
            "event_type": (pa.nulls(m, pa.string()) if null_type
                           else b["event_type"]),
            "window_start_us": (pa.nulls(m, pa.int64()) if null_window
                                else b["window_start_us"]),
            "n_events": b["n"].cast(pa.int64()),
            "sum_value_cents": b["c"].cast(pa.int64())})

    leaf_rows = leaf.map_batches(
        lambda b: out_rows(b, False, False), batch_format="pyarrow")

    def type_partial(b: pa.Table) -> pa.Table:
        a = b.group_by("event_type").aggregate([("n", "sum"),
                                                ("c", "sum")])
        return pa.table({"event_type": a["event_type"],
                         "n": a["n_sum"], "c": a["c_sum"]})

    type_rows = (leaf.map_batches(type_partial, batch_format="pyarrow")
                 .groupby("event_type")
                 .aggregate(Sum("n", alias_name="n"),
                            Sum("c", alias_name="c"))
                 .map_batches(lambda b: out_rows(b, True, False),
                              batch_format="pyarrow"))

    def total_partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": pa.array([0], type=pa.int8()),
            "n": pa.array([int(b["n"].to_numpy().sum())]),
            "c": pa.array([int(b["c"].to_numpy().sum())])})

    total_rows = (leaf.map_batches(total_partial, batch_format="pyarrow")
                  .groupby("k")
                  .aggregate(Sum("n", alias_name="n"),
                             Sum("c", alias_name="c"))
                  .map_batches(lambda b: out_rows(b, True, True),
                               batch_format="pyarrow"))

    return leaf_rows.union(type_rows).union(total_rows)


def pivot_counts(events_ds, pivot_values: list[str],
                 key_col: str = "user_id", pivot_col: str = "event_type",
                 value_col: str = "value"):
    """SQL PIVOT: one row per key with a count and an exact-cents sum
    column per pivot value (n_<v>, cents_<v>) — the wide per-user
    activity-feature table. ``pivot_values`` is the explicit column
    list (like SQL PIVOT's IN clause; values outside it are ignored).

    Scale shape: per-batch arrow group_by over (key, pivot) means only
    batch-distinct pairs enter the ONE key groupby; the wide columns
    materialize per output block (key-sized), vectorized scatter by
    index_in — never a Python loop over rows.
    """
    from ray.data.aggregate import Sum
    from .. import use_push_shuffle
    use_push_shuffle(events_ds)
    if not pivot_values:
        raise ValueError("pivot_values must be non-empty")
    if len(set(pivot_values)) != len(pivot_values):
        raise ValueError("pivot_values must be distinct")

    def partial(batch: pa.Table) -> pa.Table:
        t = batch[pivot_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        keep = pc.is_in(t, value_set=pa.array(pivot_values))
        b = batch.filter(keep)
        cents = _value_cents(b[value_col])
        t2 = pa.table({key_col: b[key_col],
                       pivot_col: b[pivot_col],
                       "cents": pa.array(cents)})
        a = t2.group_by([key_col, pivot_col]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return pa.table({key_col: a[key_col],
                         pivot_col: a[pivot_col],
                         "n": a["count_all"].cast(pa.int64()),
                         "c": a["cents_sum"].cast(pa.int64())})

    pairs = (events_ds.map_batches(partial, batch_format="pyarrow")
             .groupby([key_col, pivot_col])
             .aggregate(Sum("n", alias_name="n"),
                        Sum("c", alias_name="c")))

    def widen(b: pa.Table) -> pa.Table:
        cols = {key_col: pa.array([], type=pa.int64())}
        for v in pivot_values:
            cols[f"n_{v}"] = pa.array([], type=pa.int64())
            cols[f"cents_{v}"] = pa.array([], type=pa.int64())
        if b.num_rows == 0 or key_col not in b.column_names:
            return pa.table(cols)
        keys = b[key_col].to_numpy()
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        starts = np.flatnonzero(
            np.append(True, keys_s[1:] != keys_s[:-1]))
        uniq = keys_s[starts]
        pos = np.searchsorted(uniq, keys)
        pv = b[pivot_col]
        if isinstance(pv, pa.ChunkedArray):
            pv = pv.combine_chunks()
        vidx = pc.index_in(pv, value_set=pa.array(pivot_values)) \
            .to_numpy(zero_copy_only=False)
        n = b["n"].to_numpy()
        c = b["c"].to_numpy()
        wide_n = np.zeros((len(uniq), len(pivot_values)), np.int64)
        wide_c = np.zeros((len(uniq), len(pivot_values)), np.int64)
        wide_n[pos, vidx] = n
        wide_c[pos, vidx] = c
        out = {key_col: pa.array(uniq, type=pa.int64())}
        for j, v in enumerate(pivot_values):
            out[f"n_{v}"] = pa.array(wide_n[:, j])
            out[f"cents_{v}"] = pa.array(wide_c[:, j])
        return pa.table(out)

    # the groupby already co-located each key's pairs in one block, so
    # widening is map-only — but a key's rows could straddle two output
    # blocks at a block boundary; group once more by key hash to pin it
    def tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or key_col not in b.column_names:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             pivot_col: pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64()),
                             "pk": pa.array([], type=pa.int64())})
        h = (b[key_col].to_numpy().astype(np.uint64)
             * np.uint64(2654435761)) % np.uint64(509)
        return b.append_column("pk", pa.array(h.astype(np.int64)))

    def widen_group(g: pa.Table) -> pa.Table:
        cols = [cn for cn in g.column_names if cn != "pk"]
        return widen(g.select(cols) if cols else g)

    return (pairs.map_batches(tag, batch_format="pyarrow")
            .groupby("pk").map_groups(widen_group,
                                      batch_format="pyarrow"))


def time_window_agg(events_ds, width_us: int, key_col: str = "user_id",
                    order_col: str = "ts", value_col: str = "value",
                    id_col: str = "event_id",
                    salt_bucket_us: int | None = None):
    """Per-key trailing TIME window — SQL's sum/count OVER (PARTITION
    BY key ORDER BY us RANGE BETWEEN width PRECEDING AND CURRENT ROW):
    the "activity in the last hour" feature. RANGE semantics exactly:
    the window holds every row with us in [us_i − width, us_i]
    INCLUDING equal-timestamp peers that sort after the current row.
    Exact int64-cents sums (cumsum differences over the sorted key
    group — associative, engine-identical).

    Returns (id, key, win_sum_cents, win_count).

    Mega-key ``salt_bucket_us`` (must be > width): fragments by
    (key, us // bucket); each fragment needs only the previous
    fragment's rows within ``width`` of its boundary — a TIME-bounded
    carry of (us, cents) pairs assembled by the per-key metadata walk
    (carry size is the key's event count in one trailing width; pick
    bucket >> width so it stays small). pytest pins salted ≡ unsalted.
    """
    if width_us <= 0:
        raise ValueError("width_us must be positive")

    def win_from(us: np.ndarray, cents: np.ndarray, n_tail: int):
        """RANGE sums/counts for rows after the n_tail carry prefix;
        (us, cents) must be sorted by us."""
        cum = np.concatenate([[0], np.cumsum(cents)])
        q = us[n_tail:]
        hi = np.searchsorted(us, q, side="right")
        lo = np.searchsorted(us, q - width_us, side="left")
        return ((cum[hi] - cum[lo]).astype(np.int64),
                (hi - lo).astype(np.int64))

    empty = {id_col: pa.array([], type=pa.int64()),
             key_col: pa.array([], type=pa.int64()),
             "win_sum_cents": pa.array([], type=pa.int64()),
             "win_count": pa.array([], type=pa.int64())}

    if salt_bucket_us is None:
        prep = events_ds.map_batches(
            lambda b: _running_prep(b, key_col, order_col, value_col,
                                    id_col, None),
            batch_format="pyarrow")

        def rank(group: pa.Table) -> pa.Table:
            if group.num_rows == 0 or group.num_columns == 0:
                return pa.table(empty)
            order = pc.sort_indices(group,
                                    sort_keys=[("__us", "ascending"),
                                               (id_col, "ascending")])
            g = group.take(order)
            sums, cnt = win_from(g["__us"].to_numpy(),
                                 g["__cents"].to_numpy(), 0)
            return pa.table({id_col: g[id_col], key_col: g[key_col],
                             "win_sum_cents": pa.array(sums),
                             "win_count": pa.array(cnt)})

        return prep.groupby(key_col).map_groups(rank,
                                                batch_format="pyarrow")

    if salt_bucket_us <= width_us:
        raise ValueError("salt_bucket_us must exceed width_us")
    bucket = int(salt_bucket_us)
    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col,
                                id_col, bucket),
        batch_format="pyarrow").materialize()

    # per-(key, frag) partials: the rows within `width` of the
    # fragment's END boundary, as (us, cents) pairs (only those can be
    # visible to the NEXT fragment — RANGE looks back at most width)
    def partials(batch: pa.Table) -> pa.Table:
        cols = {key_col: pa.array([], type=pa.int64()),
                "__frag": pa.array([], type=pa.int64()),
                "tail": pa.array([], type=pa.binary())}
        if batch.num_rows == 0:
            return pa.table(cols)
        order = pc.sort_indices(
            batch, sort_keys=[(key_col, "ascending"),
                              ("__frag", "ascending"),
                              ("__us", "ascending")])
        g = batch.take(order)
        key = g[key_col].to_numpy()
        frag = g["__frag"].to_numpy()
        us = g["__us"].to_numpy()
        cents = g["__cents"].to_numpy()
        new = np.concatenate(
            [[True], (key[1:] != key[:-1]) | (frag[1:] != frag[:-1])])
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [len(key)]])
        tails = []
        for s, e in zip(starts, ends):
            boundary = (frag[s] + 1) * bucket   # fragment end (excl.)
            k = np.searchsorted(us[s:e], boundary - width_us,
                                side="left")
            tails.append(np.stack([us[s + k:e], cents[s + k:e]],
                                  axis=1).astype("<i8").tobytes())
        return pa.table({
            key_col: pa.array(key[starts]),
            "__frag": pa.array(frag[starts]),
            "tail": pa.array(tails, type=pa.binary())})

    def merge_partials(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({key_col: pa.array([], type=pa.int64()),
                             "__frag": pa.array([], type=pa.int64()),
                             "tail": pa.array([], type=pa.binary())})
        cat = np.concatenate(
            [np.frombuffer(t, dtype="<i8").reshape(-1, 2)
             for t in group["tail"].to_pylist()])
        cat = cat[np.argsort(cat[:, 0], kind="stable")]
        return pa.table({
            key_col: group[key_col].slice(0, 1),
            "__frag": group["__frag"].slice(0, 1),
            "tail": pa.array([cat.astype("<i8").tobytes()],
                             type=pa.binary())})

    # per-key walk: fragment i's carry = the PREVIOUS fragment's tail
    # rows still within width of any row fragment i can hold (only the
    # immediately preceding fragment can reach, since bucket > width)
    def offsets(group: pa.Table) -> pa.Table:
        out = {key_col: pa.array([], type=pa.int64()),
               "__frag": pa.array([], type=pa.int64()),
               "tail": pa.array([], type=pa.binary())}
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table(out)
        order = pc.sort_indices(group["__frag"])
        g = group.take(order)
        frags = g["__frag"].to_numpy()
        tails = g["tail"].to_pylist()
        rows_frag, rows_tail = [], []
        for i, f in enumerate(frags.tolist()):
            if i > 0 and frags[i - 1] == f - 1:
                rows_tail.append(tails[i - 1])
            else:
                rows_tail.append(b"")
            rows_frag.append(f)
        return pa.table({
            key_col: pa.array([int(g[key_col][0].as_py())] *
                              len(rows_frag), type=pa.int64()),
            "__frag": pa.array(rows_frag, type=pa.int64()),
            "tail": pa.array(rows_tail, type=pa.binary())})

    frag_tails = (prep.map_batches(partials, batch_format="pyarrow")
                  .groupby([key_col, "__frag"])
                  .map_groups(merge_partials, batch_format="pyarrow")
                  .groupby(key_col)
                  .map_groups(offsets, batch_format="pyarrow"))

    schema = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                        ("__us", pa.int64()), ("__cents", pa.int64()),
                        ("__frag", pa.int64()), ("tail", pa.binary()),
                        ("__side", pa.int8())])

    def tag_rows(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: batch[id_col], key_col: batch[key_col],
            "__us": batch["__us"], "__cents": batch["__cents"],
            "__frag": batch["__frag"],
            "tail": pa.nulls(m, pa.binary()),
            "__side": pa.array(np.zeros(m, np.int8))}, schema=schema)

    def tag_tails(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({
            id_col: pa.nulls(m, pa.int64()),
            key_col: batch[key_col],
            "__us": pa.nulls(m, pa.int64()),
            "__cents": pa.nulls(m, pa.int64()),
            "__frag": batch["__frag"], "tail": batch["tail"],
            "__side": pa.array(np.ones(m, np.int8))}, schema=schema)

    def rank_frag(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table(empty)
        side = group["__side"].to_numpy(zero_copy_only=False)
        rows = group.filter(pa.array(side == 0))
        tails = group.filter(pa.array(side == 1))
        if rows.num_rows == 0:
            return pa.table(empty)
        carry = np.zeros((0, 2), dtype=np.int64)
        if tails.num_rows:
            raw = tails["tail"][0].as_py() or b""
            carry = np.frombuffer(raw, dtype="<i8").reshape(-1, 2) \
                .astype(np.int64)
        order = pc.sort_indices(rows, sort_keys=[("__us", "ascending"),
                                                 (id_col, "ascending")])
        g = rows.take(order)
        us = np.concatenate([carry[:, 0], g["__us"].to_numpy()])
        cents = np.concatenate([carry[:, 1], g["__cents"].to_numpy()])
        sums, cnt = win_from(us, cents, len(carry))
        return pa.table({id_col: g[id_col], key_col: g[key_col],
                         "win_sum_cents": pa.array(sums),
                         "win_count": pa.array(cnt)})

    tagged = prep.map_batches(tag_rows, batch_format="pyarrow").union(
        frag_tails.map_batches(tag_tails, batch_format="pyarrow"))
    return tagged.groupby([key_col, "__frag"]).map_groups(
        rank_frag, batch_format="pyarrow")


def event_transitions(events_ds, key_col: str = "user_id",
                      order_col: str = "ts", type_col: str = "event_type",
                      id_col: str = "event_id"):
    """First-order Markov transition matrix over per-key event
    sequences: for consecutive events (ordered by (order, id)) of the
    same key, count (from_type, to_type) pairs and the row-normalized
    transition probability — the behavioral sibling of the text
    bigram LM (ops/lm.py). Returns (from_type, to_type, n_transitions,
    prob [round 6]).

    Scale shape: slim (key, us, id, type) rows enter ONE key groupby;
    each group sorts and emits its arrow-combined (from, to) counts —
    only type-pair rows (|types|² at most) leave the group; one tiny
    pair groupby sums and ONE constant-key task row-normalizes
    (types²-sized, never event-sized).
    """
    from ray.data.aggregate import Sum

    prep = events_ds.select_columns([key_col, order_col, id_col,
                                     type_col])

    def pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"from_type": pa.array([], type=pa.string()),
                          "to_type": pa.array([], type=pa.string()),
                          "c": pa.array([], type=pa.int64())})
        if group.num_rows < 2 or group.num_columns == 0:
            return empty
        order = pc.sort_indices(group,
                                sort_keys=[(order_col, "ascending"),
                                           (id_col, "ascending")])
        g = group.take(order)
        t = g[type_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        n = len(t)
        tp = pa.table({"from_type": t.slice(0, n - 1),
                       "to_type": t.slice(1, n - 1)})
        a = tp.group_by(["from_type", "to_type"]).aggregate(
            [([], "count_all")])
        return pa.table({"from_type": a["from_type"],
                         "to_type": a["to_type"],
                         "c": a["count_all"].cast(pa.int64())})

    counts = (prep.groupby(key_col)
              .map_groups(pairs, batch_format="pyarrow")
              .groupby(["from_type", "to_type"])
              .aggregate(Sum("c", alias_name="n_transitions")))

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__all", pa.array(np.zeros(batch.num_rows, np.int8)))

    def normalize(group: pa.Table) -> pa.Table:
        empty = pa.table({"from_type": pa.array([], type=pa.string()),
                          "to_type": pa.array([], type=pa.string()),
                          "n_transitions": pa.array([], type=pa.int64()),
                          "prob": pa.array([], type=pa.float64())})
        if group.num_rows == 0 or "from_type" not in group.column_names:
            return empty
        f = group["from_type"]
        if isinstance(f, pa.ChunkedArray):
            f = f.combine_chunks()
        n = group["n_transitions"].to_numpy().astype(np.float64)
        denc = pc.dictionary_encode(f)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        tot = np.bincount(codes, weights=n)
        p = n / tot[codes]
        p = np.trunc(p * 1e6 + 0.5) / 1e6
        return pa.table({"from_type": f, "to_type": group["to_type"],
                         "n_transitions": group["n_transitions"]
                         .cast(pa.int64()),
                         "prob": pa.array(p, type=pa.float64())})

    return (counts.map_batches(tag, batch_format="pyarrow")
            .groupby("__all").map_groups(normalize,
                                         batch_format="pyarrow"))


def funnel_rates(events_ds, stages: list[str], key_col: str = "user_id",
                 order_col: str = "ts", type_col: str = "event_type"):
    """Funnel conversion summary — one row per stage: how many keys
    reached it (cumulative, i.e. n_stages >= i) and the conversion
    rate from the previous stage (round 6; stage 1's rate is vs the
    keys that entered the funnel at all). Composes :func:`funnel`;
    the aggregate is ONE constant-key task over the (keys)-sized
    funnel output's n_stages histogram partials.
    """
    fun = funnel(events_ds, stages, key_col, order_col, type_col)
    k = len(stages)

    def hist(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_stages" not in batch.column_names:
            return pa.table({"n_stages": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        n = batch["n_stages"].to_numpy()
        cnt = np.bincount(n, minlength=k + 1)
        return pa.table({"n_stages": pa.array(np.arange(k + 1),
                                              type=pa.int64()),
                         "c": pa.array(cnt.astype(np.int64))})

    from ray.data.aggregate import Sum
    h = (fun.map_batches(hist, batch_format="pyarrow")
         .groupby("n_stages").aggregate(Sum("c", alias_name="c")))

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__all", pa.array(np.zeros(batch.num_rows, np.int8)))

    def finalize(group: pa.Table) -> pa.Table:
        empty = pa.table({"stage": pa.array([], type=pa.int64()),
                          "stage_name": pa.array([], type=pa.string()),
                          "n_reached": pa.array([], type=pa.int64()),
                          "conversion": pa.array([], type=pa.float64())})
        if group.num_rows == 0 or "n_stages" not in group.column_names:
            return empty
        ns = group["n_stages"].to_numpy()
        c = group["c"].to_numpy()
        counts = np.zeros(k + 1, dtype=np.int64)
        counts[ns] = c
        total = counts.sum()
        # reached(i) = # keys with n_stages >= i (suffix sums)
        reached = np.cumsum(counts[::-1])[::-1]
        prev = np.concatenate([[total], reached[1:k]])
        with np.errstate(invalid="ignore", divide="ignore"):
            conv = np.where(prev > 0, reached[1:] / prev, 0.0)
        conv = np.trunc(conv * 1e6 + 0.5) / 1e6
        return pa.table({
            "stage": pa.array(np.arange(1, k + 1), type=pa.int64()),
            "stage_name": pa.array(list(stages), type=pa.string()),
            "n_reached": pa.array(reached[1:].astype(np.int64)),
            "conversion": pa.array(conv, type=pa.float64())})

    return (h.map_batches(tag, batch_format="pyarrow")
            .groupby("__all").map_groups(finalize,
                                         batch_format="pyarrow"))


def interarrival_stats(events_ds, key_col: str = "user_id",
                       order_col: str = "ts", id_col: str = "event_id"):
    """Per-key inter-event gap statistics — n_gaps, min/max gap and the
    mean gap in whole microseconds (the burstiness/regularity feature
    behind rate limiting and bot detection; the aggregate reading of
    the sessionizer's gap rule). Keys with a single event emit NULL
    gaps. Mean rounds half away from zero to an integer µs — exact
    integer arithmetic everywhere else, bit-identical to SQL.

    Shape: slim (key, us, id) rows into ONE key groupby; each group is
    one sort + one diff.
    """
    prep = events_ds.select_columns([key_col, order_col, id_col])

    def per_key(group: pa.Table) -> pa.Table:
        empty = pa.table({
            key_col: pa.array([], type=pa.int64()),
            "n_gaps": pa.array([], type=pa.int64()),
            "min_gap_us": pa.array([], type=pa.int64()),
            "max_gap_us": pa.array([], type=pa.int64()),
            "mean_gap_us": pa.array([], type=pa.int64())})
        if group.num_rows == 0 or group.num_columns == 0:
            return empty
        order = pc.sort_indices(group,
                                sort_keys=[(order_col, "ascending"),
                                           (id_col, "ascending")])
        g = group.take(order)
        us = g[order_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = np.diff(us)
        key = g[key_col].slice(0, 1)
        if len(d) == 0:
            return pa.table({
                key_col: key,
                "n_gaps": pa.array([0], type=pa.int64()),
                "min_gap_us": pa.nulls(1, pa.int64()),
                "max_gap_us": pa.nulls(1, pa.int64()),
                "mean_gap_us": pa.nulls(1, pa.int64())})
        mean = float(d.sum()) / len(d)
        mean_i = int(_round_half_away(np.array([mean]))[0])
        return pa.table({
            key_col: key,
            "n_gaps": pa.array([len(d)], type=pa.int64()),
            "min_gap_us": pa.array([int(d.min())], type=pa.int64()),
            "max_gap_us": pa.array([int(d.max())], type=pa.int64()),
            "mean_gap_us": pa.array([mean_i], type=pa.int64())})

    return prep.groupby(key_col).map_groups(per_key,
                                            batch_format="pyarrow")
