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


def _key_stand_in(col) -> pa.Array:
    """A group key as a non-NULL string: "" for NULL, "+" + the key
    otherwise. Ray's sort shuffle cannot place a NULL among strings (a
    groupby on a nullable string key raises once its rows span blocks),
    and a lookup matches NULL keys to nothing; on the stand-in NULL
    stays one group, as in SQL's GROUP BY."""
    k = pc.cast(col, pa.string())
    return pc.fill_null(pc.binary_join_element_wise("+", k, ""), "")


def _key_from_stand_in(k) -> pa.Array:
    """The string key a :func:`_key_stand_in` value stands for."""
    return pc.if_else(pc.equal(k, ""), pa.scalar(None, pa.string()),
                      pc.utf8_slice_codeunits(k, 1))


def tumbling_window_agg(events_ds, width_us: int = US_PER_HOUR):
    """(window_start_us, event_type) -> n_events, sum_value.

    Map-side partial aggregation per batch, then a groupby over the tiny
    (window, type) partials — equivalent to a streaming tumbling-window
    count/sum with batch semantics.
    """
    from ray.data.aggregate import Sum

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
    so it can never enter the global top-k). The type groups on its
    :func:`_key_stand_in`, so NULL is one type."""
    from ray.data.aggregate import Sum

    from .. import use_push_shuffle
    use_push_shuffle(events_ds)

    def partial(batch: pa.Table) -> pa.Table:
        a = batch.group_by(["event_type", "user_id"]).aggregate(
            [("value", "sum")])
        return pa.table({"__k": _key_stand_in(a["event_type"]),
                         "user_id": a["user_id"],
                         "v": a["value_sum"]})

    sums = (events_ds.select_columns(["event_type", "user_id", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["__k", "user_id"])
            .aggregate(Sum("v", alias_name="total")))

    def pre_topk(batch: pa.Table) -> pa.Table:
        # per-block, per-type cut to k rows (lossless, see docstring);
        # rank on integer cents: float totals summed in different orders
        # can differ by 1 ulp, which would make tie order engine-dependent
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table({"__k": pa.array([], pa.string()),
                             "user_id": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64())})
        cents = pc.round(pc.multiply(batch["total"], 100.0),
                         round_mode="half_towards_infinity").cast(pa.int64())
        t = pa.table({"__k": batch["__k"],
                      "user_id": batch["user_id"],
                      "total_cents": cents})
        order = pc.sort_indices(t, sort_keys=[
            ("__k", "ascending"), ("total_cents", "descending"),
            ("user_id", "ascending")])
        t = t.take(order)
        et = t["__k"].combine_chunks()
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
            "event_type": _key_from_stand_in(g["__k"]),
            "user_id": g["user_id"],
            "rank": pa.array(np.arange(1, g.num_rows + 1)),
            "total_cents": g["total_cents"],
        })

    return (sums.map_batches(pre_topk, batch_format="pyarrow")
                .groupby("__k")
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


def _keyed_scan(rows, key_col: str, order: list, empty: pa.Schema,
                start: np.ndarray, finish, part, hand, salted: bool):
    """One ordered scan per key: ``finish(group, carry)`` gets rows of
    one key sorted by the ``order`` columns (ascending) and an int64
    carry array from the rows before them, and returns output rows.

    Unsalted, each key is one ``groupby(key).map_groups`` group whose
    carry is ``start``. Salted (``rows`` hold ``__frag``), a key splits
    into (key, frag) groups, so no task holds a mega-key whole:

    1. per batch, ``part(run)`` summarizes each sorted (key, frag) run
       as an int64 array;
    2. one groupby(key) folds them in fragment order,
       ``carry(next frag) = hand(carry(frag), [parts of frag])``;
    3. ``lookup_join`` attaches each carry (one row per (key, frag):
       metadata-sized, so it broadcasts) to the first row of its run in
       every batch, so a carry is never copied per row;
    4. one groupby(key, frag) finishes each fragment.

    A NULL key is one partition: every groupby and the lookup key on
    ``__k``, the key's :func:`_key_stand_in`.
    """
    from .equijoin import lookup_join

    sort_keys = [(c, "ascending") for c in order]

    def run(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return empty.empty_table()
        carry = start
        if "__carry" in group.column_names:
            carry = np.frombuffer(
                pc.drop_null(group["__carry"])[0].as_py(), dtype=np.int64)
        return finish(group.take(pc.sort_indices(group, sort_keys=sort_keys)),
                      carry)

    def add_k(batch: pa.Table) -> pa.Table:
        return batch.append_column("__k", _key_stand_in(batch[key_col]))

    rows = rows.map_batches(add_k, batch_format="pyarrow")
    if not salted:
        return rows.groupby("__k").map_groups(run, batch_format="pyarrow")

    frame = ["__k", "__frag"]

    def partials(batch: pa.Table) -> pa.Table:
        g = batch.take(pc.sort_indices(
            batch, sort_keys=[(c, "ascending") for c in frame] + sort_keys))
        n = g.num_rows
        new = np.ones(n, dtype=bool)
        if n > 1:
            k = g["__k"]
            new[1:] = pc.not_equal(k.slice(1), k.slice(0, n - 1)) \
                .to_numpy() | (np.diff(g["__frag"].to_numpy()) != 0)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n)
        return pa.table({
            "__k": g["__k"].take(starts), "__frag": g["__frag"].take(starts),
            "__p": pa.array([part(g.slice(s, e - s)).tobytes()
                             for s, e in zip(starts, ends)], pa.binary())})

    def fold(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({"__k": pa.array([], pa.string()),
                             "__frag": pa.array([], pa.int64()),
                             "__carry": pa.array([], pa.binary())})
        g = group.take(pc.sort_indices(group["__frag"]))
        frags, firsts = np.unique(g["__frag"].to_numpy(), return_index=True)
        parts = [np.frombuffer(p, dtype=np.int64)
                 for p in g["__p"].to_pylist()]
        carries, carry = [], start
        for s, e in zip(firsts, np.append(firsts[1:], len(parts))):
            carries.append(carry.tobytes())
            carry = hand(carry, parts[s:e])
        return pa.table({"__k": g["__k"].take(firsts),
                         "__frag": pa.array(frags, pa.int64()),
                         "__carry": pa.array(carries, pa.binary())})

    def attach(batch: pa.Table, carries: pa.Table) -> pa.Table:
        heads = (batch.append_column("__row",
                                     pa.array(np.arange(batch.num_rows)))
                 .group_by(frame).aggregate([("__row", "min")])
                 .join(carries, keys=frame))
        at = np.full(batch.num_rows, -1)
        at[heads["__row_min"].to_numpy()] = np.arange(heads.num_rows)
        return batch.append_column("__carry", heads["__carry"].take(
            pa.array(at, mask=at < 0)))

    rows = rows.materialize()      # read by the partials and the attach
    carries = (rows.map_batches(partials, batch_format="pyarrow")
               .groupby("__k").map_groups(fold, batch_format="pyarrow"))
    return (lookup_join(rows, carries, frame, lambda t: t, attach)
            .groupby(frame).map_groups(run, batch_format="pyarrow"))


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
    into (key, order // width) groups of :func:`_keyed_scan`, whose
    carry is (row count, cents sum, last cents, its NULL flag) of the
    fragments before — pytest pins salted ≡ unsalted.
    """
    if salt_bucket_us is not None and salt_bucket_us <= 0:
        raise ValueError("salt_bucket_us must be positive")

    def part(run: pa.Table) -> np.ndarray:
        last = run.slice(run.num_rows - 1).to_pylist()[0]
        return np.array([run.num_rows, pc.sum(run["__cents"]).as_py() or 0,
                         last["__us"], last[id_col], last["__cents"] or 0,
                         last["__cents"] is None], dtype=np.int64)

    def hand(carry: np.ndarray, parts: list) -> np.ndarray:
        p = np.stack(parts)
        last = p[np.lexsort((p[:, 3], p[:, 2]))[-1]]
        return np.array([carry[0] + p[:, 0].sum(), carry[1] + p[:, 1].sum(),
                         last[4], last[5]], dtype=np.int64)

    def finish(g: pa.Table, carry: np.ndarray) -> pa.Table:
        rn_off, sum_off, lag0, lag0_null = carry
        cents = g["__cents"].fill_null(0).to_numpy()
        lag = np.concatenate([[lag0], cents[:-1]])
        lag_null = np.concatenate([[lag0_null != 0], g["__cents"].is_null()
                                   .to_numpy()[:-1]])
        return pa.table({
            id_col: g[id_col], key_col: g[key_col],
            "row_number": pa.array(
                rn_off + np.arange(1, len(cents) + 1, dtype=np.int64)),
            "running_sum_cents": pa.array(sum_off + np.cumsum(cents)),
            "lag_value_cents": pa.array(lag, mask=lag_null)})

    empty = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                       ("row_number", pa.int64()),
                       ("running_sum_cents", pa.int64()),
                       ("lag_value_cents", pa.int64())])
    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col, id_col,
                                salt_bucket_us), batch_format="pyarrow")
    # start: no rows before, so the first row's lag is NULL
    return _keyed_scan(prep, key_col, ["__us", id_col], empty,
                       np.array([0, 0, 0, 1], dtype=np.int64), finish,
                       part, hand, salted=salt_bucket_us is not None)


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
    bit-identical at any partitioning and in SQL); a NULL value adds 0
    and still counts.

    Returns (id, key, moving_sum_cents, moving_count) with
    moving_count = min(row_number, N).

    Unsalted: one key groupby, per-group sort + cumsum-difference.
    Mega-key: ``salt_bucket_us`` fragments by (key, order // width) in
    :func:`_keyed_scan`; a fragment's carry is the last min(N, rows
    before) cents of the fragments before it (N ints — metadata-sized
    for the small N a rolling feature uses), so every fragment computes
    its windows locally over concat(carry, own cents). pytest pins
    salted ≡ unsalted.
    """
    if window_rows <= 0:
        raise ValueError("window_rows must be positive")
    if salt_bucket_us is not None and salt_bucket_us <= 0:
        raise ValueError("salt_bucket_us must be positive")
    n_win = int(window_rows)

    def part(run: pa.Table) -> np.ndarray:
        t = run.slice(max(run.num_rows - n_win, 0))
        return np.stack([t["__us"].to_numpy(), t[id_col].to_numpy(),
                         t["__cents"].fill_null(0).to_numpy()],
                        axis=1).ravel()

    def hand(carry: np.ndarray, parts: list) -> np.ndarray:
        # runs of one fragment from different batches can INTERLEAVE in
        # time, but every row of the fragment's last N is among its own
        # run's last N: so sort the runs' (us, id, cents) rows and keep
        # the last N
        p = np.concatenate(parts).reshape(-1, 3)
        p = p[np.lexsort((p[:, 1], p[:, 0]))]
        return np.concatenate([carry, p[:, 2]])[-n_win:]

    def finish(g: pa.Table, tail: np.ndarray) -> pa.Table:
        cum = np.cumsum(np.concatenate(
            [tail, g["__cents"].fill_null(0).to_numpy()]))
        lo = np.arange(len(tail), len(cum)) - n_win
        sums = cum[len(tail):] - np.where(lo >= 0, cum[np.maximum(lo, 0)],
                                          0)
        cnt = np.minimum(np.arange(len(tail) + 1, len(cum) + 1), n_win)
        return pa.table({id_col: g[id_col], key_col: g[key_col],
                         "moving_sum_cents": pa.array(sums, pa.int64()),
                         "moving_count": pa.array(cnt, pa.int64())})

    empty = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                       ("moving_sum_cents", pa.int64()),
                       ("moving_count", pa.int64())])
    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col, id_col,
                                salt_bucket_us), batch_format="pyarrow")
    return _keyed_scan(prep, key_col, ["__us", id_col], empty,
                       np.zeros(0, dtype=np.int64), finish, part, hand,
                       salted=salt_bucket_us is not None)


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
    group — associative, engine-identical); a NULL value adds 0 and
    still counts.

    Returns (id, key, win_sum_cents, win_count).

    Mega-key ``salt_bucket_us`` (must be > width): fragments by
    (key, us // bucket) in :func:`_keyed_scan`; a fragment's carry is
    the previous fragment's (us, cents) rows within ``width`` of their
    shared boundary — a TIME-bounded carry (its size is the key's event
    count in one trailing width; pick bucket >> width so it stays
    small). pytest pins salted ≡ unsalted.
    """
    if width_us <= 0:
        raise ValueError("width_us must be positive")
    if salt_bucket_us is not None and salt_bucket_us <= width_us:
        raise ValueError("salt_bucket_us must exceed width_us")

    def part(run: pa.Table) -> np.ndarray:
        # only rows within width of the fragment's end reach the next one
        end = (run["__frag"][0].as_py() + 1) * salt_bucket_us
        t = run.filter(pc.greater_equal(run["__us"], end - width_us))
        return np.stack([t["__us"].to_numpy(),
                         t["__cents"].fill_null(0).to_numpy()],
                        axis=1).ravel()

    def hand(carry: np.ndarray, parts: list) -> np.ndarray:
        # bucket > width, so no window reaches past the previous
        # fragment: its rows replace the carry (a carry from an older
        # fragment lies outside every window, and adds nothing)
        p = np.concatenate(parts).reshape(-1, 2)
        return p[np.argsort(p[:, 0], kind="stable")].ravel()

    def finish(g: pa.Table, carry: np.ndarray) -> pa.Table:
        c = carry.reshape(-1, 2)
        us = np.concatenate([c[:, 0], g["__us"].to_numpy()])
        cum = np.concatenate([[0], np.cumsum(np.concatenate(
            [c[:, 1], g["__cents"].fill_null(0).to_numpy()]))])
        q = us[len(c):]
        hi = np.searchsorted(us, q, side="right")
        lo = np.searchsorted(us, q - width_us, side="left")
        return pa.table({id_col: g[id_col], key_col: g[key_col],
                         "win_sum_cents": pa.array(cum[hi] - cum[lo],
                                                   pa.int64()),
                         "win_count": pa.array(hi - lo, pa.int64())})

    empty = pa.schema([(id_col, pa.int64()), (key_col, pa.int64()),
                       ("win_sum_cents", pa.int64()),
                       ("win_count", pa.int64())])
    prep = events_ds.map_batches(
        lambda b: _running_prep(b, key_col, order_col, value_col, id_col,
                                salt_bucket_us), batch_format="pyarrow")
    return _keyed_scan(prep, key_col, ["__us", id_col], empty,
                       np.zeros(0, dtype=np.int64), finish, part, hand,
                       salted=salt_bucket_us is not None)


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
    (types²-sized, never event-sized). The pairs group on their types'
    :func:`_key_stand_in`, so NULL is one type.
    """
    from ray.data.aggregate import Sum

    prep = events_ds.select_columns([key_col, order_col, id_col,
                                     type_col])

    def pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"__from": pa.array([], type=pa.string()),
                          "__to": pa.array([], type=pa.string()),
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
        return pa.table({"__from": _key_stand_in(a["from_type"]),
                         "__to": _key_stand_in(a["to_type"]),
                         "c": a["count_all"].cast(pa.int64())})

    counts = (prep.groupby(key_col)
              .map_groups(pairs, batch_format="pyarrow")
              .groupby(["__from", "__to"])
              .aggregate(Sum("c", alias_name="n_transitions")))

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__all", pa.array(np.zeros(batch.num_rows, np.int8)))

    def normalize(group: pa.Table) -> pa.Table:
        empty = pa.table({"from_type": pa.array([], type=pa.string()),
                          "to_type": pa.array([], type=pa.string()),
                          "n_transitions": pa.array([], type=pa.int64()),
                          "prob": pa.array([], type=pa.float64())})
        if group.num_rows == 0 or "__from" not in group.column_names:
            return empty
        f = group["__from"]
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
        return pa.table({"from_type": _key_from_stand_in(f),
                         "to_type": _key_from_stand_in(group["__to"]),
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
