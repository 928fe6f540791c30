"""Streaming windowed aggregation: event-time tumbling windows with
watermarks, as an incremental stateful operator.

The batch engine's ``tumbling_window_agg`` answers the same question
over a bounded dataset; this operator answers it over an UNBOUNDED
stream consumed batch-by-batch (``ds.iter_batches`` on a shard, a Kafka
poll loop, ...). It is the Ray-idiomatic shape for stateful streaming:
the class is actor state — construct once per actor / per stream shard,
feed batches in arrival order, collect finalized windows as they close.

Semantics (the standard event-time contract):
- watermark = max event time seen - ``allowed_lateness``;
- a window [start, start+width) FINALIZES when the watermark passes its
  end; finalized windows are emitted exactly once, with counts/sums
  over every row that arrived before finalization;
- rows arriving for an already-finalized window are LATE: dropped and
  counted in ``late_rows`` (the usual default; route them to a
  side-output if the pipeline needs them).

If the stream's disorder is bounded by ``allowed_lateness`` (e.g. any
roughly time-ordered log), the union of emitted windows equals the
batch ``tumbling_window_agg`` answer exactly — pytest-pinned, and the
``window_agg_streaming`` driver entry shares the batch operator's SQL
oracle. Per-batch work is vectorized (one arrow group_by per batch);
operator state is one dict entry per OPEN window, bounded by
``(lateness / width) + 1`` windows per event type, independent of
stream length.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .windows import US_PER_HOUR, _value_cents

_EMPTY = pa.table({
    "window_start_us": pa.array([], pa.int64()),
    "event_type": pa.array([], pa.string()),
    "n_events": pa.array([], pa.int64()),
    "sum_value_cents": pa.array([], pa.int64()),
})


class StreamingTumblingWindow:
    """Stateful streaming tumbling-window count/sum (see module doc).

    Use per stream shard:
        agg = StreamingTumblingWindow(width_us=..., allowed_lateness_us=...)
        for batch in shard.iter_batches(batch_format="pyarrow"):
            closed = agg.ingest(batch)     # finalized windows, if any
        tail = agg.flush()                 # remaining open windows
    """

    def __init__(self, width_us: int = US_PER_HOUR,
                 allowed_lateness_us: int = 0):
        if width_us <= 0:
            raise ValueError("width_us must be positive")
        if allowed_lateness_us < 0:
            raise ValueError("allowed_lateness_us must be >= 0")
        self.width = width_us
        self.lateness = allowed_lateness_us
        self.watermark = None           # max_ts - lateness, None = no data
        self._open: dict[tuple[int, bytes], list] = {}  # (win, type) -> [n, sum]
        self.late_rows = 0
        self._finalized_until = None    # windows with start < this are closed

    def ingest(self, batch: pa.Table) -> pa.Table:
        """Absorb one batch (ts timestamp/int64 micros, event_type,
        value); returns the windows this batch's watermark advance
        finalized (possibly empty)."""
        if batch.num_rows:
            ts = batch["ts"].cast(pa.int64()).to_numpy()
            win = (ts // self.width) * self.width
            # cents at the LEAF (the batch operator's convention):
            # integer sums associate, so stream batching is invisible
            t = pa.table({"w": pa.array(win, type=pa.int64()),
                          "event_type": batch["event_type"],
                          "c": pa.array(_value_cents(batch["value"]))})
            a = t.group_by(["w", "event_type"]).aggregate(
                [([], "count_all"), ("c", "sum")])
            ws = a["w"].to_numpy()
            ns = a["count_all"].to_numpy()
            vs = a["c_sum"].to_numpy()
            # grouped (window, type) keys — bytes via one values-buffer
            # view; state keys stay bytes until emit
            from ..util import binary_values_list
            types = binary_values_list(a["event_type"])
            for w, et, n, v in zip(ws, types, ns, vs):
                if (self._finalized_until is not None
                        and w < self._finalized_until):
                    self.late_rows += int(n)    # window already emitted
                    continue
                slot = self._open.setdefault((int(w), et), [0, 0])
                slot[0] += int(n)
                slot[1] += int(v)
            new_wm = int(ts.max()) - self.lateness
            if self.watermark is None or new_wm > self.watermark:
                self.watermark = new_wm
        return self._emit_closed()

    def _emit_closed(self) -> pa.Table:
        if self.watermark is None:
            return _EMPTY
        # a window [w, w+width) closes when the watermark reaches its end
        closing = sorted(k for k in self._open
                         if k[0] + self.width <= self.watermark)
        self._finalized_until = self.watermark - self.width + 1 \
            if self.watermark is not None else None
        if not closing:
            return _EMPTY
        return self._table_for(closing, pop=True)

    def flush(self) -> pa.Table:
        """Finalize every remaining open window (end of stream)."""
        keys = sorted(self._open)
        return self._table_for(keys, pop=True)

    def _table_for(self, keys: list, pop: bool) -> pa.Table:
        if not keys:
            return _EMPTY
        rows = [(k[0], k[1], *self._open[k]) for k in keys]
        if pop:
            for k in keys:
                del self._open[k]
        return pa.table({
            "window_start_us": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1].decode() for r in rows],
                                   pa.string()),
            "n_events": pa.array([r[2] for r in rows], pa.int64()),
            "sum_value_cents": pa.array([r[3] for r in rows],
                                        pa.int64()),
        })

    @property
    def n_open_windows(self) -> int:
        return len(self._open)


def stream_tumbling_window_agg(events_ds, width_us: int = US_PER_HOUR,
                               allowed_lateness_us: int = 0,
                               batch_size: int = 4096) -> pa.Table:
    """Drive a time-ordered Dataset through the streaming operator and
    return all finalized windows — the bounded-input harness used by
    tests and the driver entry. At real scale each stream SHARD owns an
    operator instance (one actor per shard, windows finalized per shard
    then merged); here the single-stream case demonstrates the
    semantics against the batch oracle."""
    ordered = events_ds.sort("ts")
    agg = StreamingTumblingWindow(width_us, allowed_lateness_us)
    parts = []
    for batch in ordered.iter_batches(batch_format="pyarrow",
                                      batch_size=batch_size):
        parts.append(agg.ingest(batch))
    parts.append(agg.flush())
    out = pa.concat_tables([p for p in parts if p.num_rows])
    assert agg.late_rows == 0       # time-ordered input is never late
    return out


_SESS_EMPTY = pa.table({
    "user_id": pa.array([], pa.int64()),
    "session_id": pa.array([], pa.int64()),
    "n_events": pa.array([], pa.int64()),
    "start_us": pa.array([], pa.int64()),
    "end_us": pa.array([], pa.int64()),
    "sum_value_cents": pa.array([], pa.int64()),
})


class StreamingSessionizer:
    """Stateful event-time sessionization with watermarks — the
    streaming twin of the batch ``ops.windows.sessionize`` (same gap
    rule, same output schema), consuming an unbounded stream
    batch-by-batch per shard (one instance per stream shard / actor).

    - watermark = max event time seen − ``allowed_lateness_us``;
    - a user's open session FINALIZES when the watermark passes
      last_event_ts + gap (no event can legally extend it any more);
      sessions emit exactly once, session_id 0-based per user in close
      order (== the batch operator's time order);
    - a batch-segment whose events could only form an
      already-finalizable session (seg_end + gap < watermark, STRICT:
      at equality a future in-contract event at exactly watermark can
      still sit exactly gap away and merge) is LATE:
      dropped and counted in ``late_rows`` (the tumbling operator's
      default).

    If stream disorder is bounded by ``allowed_lateness_us``, the union
    of emitted sessions equals the batch answer exactly (pytest-pinned;
    the driver entry shares the batch SQL oracle). Per-batch work is
    vectorized to one sort + run-length segment extraction; the Python
    loop is per SEGMENT (contiguous same-session events), never per
    row. State = one open session per recently-active user (bounded by
    users active within gap+lateness of the stream head) plus one
    session counter per user seen (emit a (user, start_us) key instead
    if user cardinality is unbounded).
    """

    def __init__(self, gap_us: int = 30 * 60 * 1_000_000,
                 allowed_lateness_us: int = 0):
        if gap_us <= 0:
            raise ValueError("gap_us must be positive")
        if allowed_lateness_us < 0:
            raise ValueError("allowed_lateness_us must be >= 0")
        self.gap = gap_us
        self.lateness = allowed_lateness_us
        self.watermark = None
        self._open: dict[int, list] = {}   # user -> [start, last, n, sum]
        self._pending: list = []           # closed-by-successor, awaiting
        self._next_sid: dict[int, int] = {}
        self.late_rows = 0

    def _segments(self, batch: pa.Table):
        order = pc.sort_indices(
            batch, sort_keys=[("user_id", "ascending"),
                              ("ts", "ascending"),
                              ("event_id", "ascending")])
        g = batch.take(order)
        user = g["user_id"].to_numpy()
        ts = g["ts"].cast(pa.int64()).to_numpy()
        # cents at the LEAF (the batch sessionize convention): integer
        # segment sums associate exactly across merges and re-merges
        val = _value_cents(g["value"])
        new_seg = np.empty(len(ts), dtype=bool)
        new_seg[0] = True
        if len(ts) > 1:
            new_seg[1:] = (user[1:] != user[:-1]) | \
                (np.diff(ts) > self.gap)
        starts = np.flatnonzero(new_seg)
        ends = np.append(starts[1:], len(ts))
        return (user[starts], ts[starts], ts[ends - 1],
                (ends - starts).astype(np.int64),
                np.add.reduceat(val, starts))

    def ingest(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            u, s0, s1, n, v = self._segments(batch)
            for user, seg_start, seg_end, cnt, sm in zip(
                    u.tolist(), s0.tolist(), s1.tolist(),
                    n.tolist(), v.tolist()):
                slot = self._open.get(user)
                # symmetric bridge rule (sessions-as-intervals merge,
                # covers out-of-order segments on EITHER side of the
                # open slot; for in-order input it reduces to the
                # classic seg_start - last <= gap)
                if slot is not None and \
                        max(seg_start, slot[0]) - \
                        min(seg_end, slot[1]) <= self.gap:
                    slot[0] = min(slot[0], seg_start)
                    slot[1] = max(slot[1], seg_end)
                    slot[2] += cnt
                    slot[3] += sm
                    continue
                if (self.watermark is not None
                        and seg_end + self.gap < self.watermark):
                    self.late_rows += cnt      # could never stay open
                    continue
                if slot is None:
                    self._open[user] = [seg_start, seg_end, cnt, sm]
                elif seg_start > slot[1]:
                    # a later segment with gap > gap_us supersedes the
                    # open session; it PENDS until its own finalization
                    # rule (last + gap < watermark) allows the emit
                    self._pend_segment([user, *slot])
                    self._open[user] = [seg_start, seg_end, cnt, sm]
                else:
                    # an EARLIER disjoint segment (disorder > gap):
                    # pends directly, the open session stays open
                    self._pend_segment(
                        [user, seg_start, seg_end, cnt, sm])
            # a late (but in-lateness) segment can EXTEND the open
            # session backward far enough to bridge a pending one —
            # without re-absorbing it, bounded-disorder input would emit
            # two sessions where the batch operator emits one
            if self._pending:
                for user in dict.fromkeys(u.tolist()):
                    self._absorb_pending(user)
            ts_max = batch["ts"].cast(pa.int64()).to_numpy().max()
            wm = int(ts_max) - self.lateness
            if self.watermark is None or wm > self.watermark:
                self.watermark = wm
        return self._emit_closed(flush=False)

    def _pend_segment(self, seg: list) -> None:
        """Park a closed-for-now session, first coalescing it with any
        pending session of the same user it bridges (two directly-
        pended out-of-order segments can bridge EACH OTHER without
        either bridging the open slot — the pending list must stay
        merge-closed or such pairs would emit as two sessions)."""
        user = seg[0]
        merged = True
        while merged:
            merged = False
            for i in range(len(self._pending) - 1, -1, -1):
                p = self._pending[i]
                if p[0] != user:
                    continue
                if max(seg[1], p[1]) - min(seg[2], p[2]) <= self.gap:
                    seg[1] = min(seg[1], p[1])
                    seg[2] = max(seg[2], p[2])
                    seg[3] += p[3]
                    seg[4] += p[4]
                    self._pending.pop(i)
                    merged = True
        self._pending.append(seg)

    def _absorb_pending(self, user) -> None:
        """Merge the user's pending sessions that now bridge the open
        slot (two event sets merge iff the gap between the later start
        and the earlier end is <= gap_us — covers both orders and
        overlap). Looping re-checks after each merge: absorbing one
        pending extends the open span, which can bridge an earlier one."""
        slot = self._open.get(user)
        if slot is None:
            return
        merged = True
        while merged:
            merged = False
            for i in range(len(self._pending) - 1, -1, -1):
                p = self._pending[i]
                if p[0] != user:
                    continue
                if max(slot[0], p[1]) - min(slot[1], p[2]) <= self.gap:
                    slot[0] = min(slot[0], p[1])
                    slot[1] = max(slot[1], p[2])
                    slot[2] += p[3]
                    slot[3] += p[4]
                    self._pending.pop(i)
                    merged = True

    def _emit_closed(self, flush: bool) -> pa.Table:
        rows = [p for p in self._pending
                if flush or (self.watermark is not None
                             and p[2] + self.gap < self.watermark)]
        if rows:
            emitted = {id(p) for p in rows}
            self._pending = [p for p in self._pending
                             if id(p) not in emitted]
        if self.watermark is not None or flush:
            for user in sorted(self._open):
                st = self._open[user]
                if flush or st[1] + self.gap < self.watermark:
                    rows.append([user, *st])
                    del self._open[user]
        if not rows:
            return _SESS_EMPTY
        rows.sort(key=lambda r: (r[0], r[1]))   # (user, start)
        sids = []
        for r in rows:
            sid = self._next_sid.get(r[0], 0)
            self._next_sid[r[0]] = sid + 1
            sids.append(sid)
        return pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "session_id": pa.array(sids, pa.int64()),
            "n_events": pa.array([r[3] for r in rows], pa.int64()),
            "start_us": pa.array([r[1] for r in rows], pa.int64()),
            "end_us": pa.array([r[2] for r in rows], pa.int64()),
            "sum_value_cents": pa.array(
                [int(r[4]) for r in rows], pa.int64()),
        })

    def flush(self) -> pa.Table:
        return self._emit_closed(flush=True)

    @property
    def n_open_sessions(self) -> int:
        return len(self._open)


def stream_sessionize(events_ds, gap_us: int = 30 * 60 * 1_000_000,
                      allowed_lateness_us: int = 0,
                      batch_size: int = 4096) -> pa.Table:
    """Drive a time-ordered Dataset through StreamingSessionizer and
    return all finalized sessions (the bounded-input harness; at real
    scale each USER-HASH shard owns an instance — sessions are per-user
    state, so sharding by user hash is the natural stream partition)."""
    ordered = events_ds.select_columns(
        ["user_id", "ts", "event_id", "value"]).sort("ts")
    agg = StreamingSessionizer(gap_us, allowed_lateness_us)
    parts = []
    for batch in ordered.iter_batches(batch_format="pyarrow",
                                      batch_size=batch_size):
        parts.append(agg.ingest(batch))
    parts.append(agg.flush())
    out = pa.concat_tables([p for p in parts if p.num_rows])
    assert agg.late_rows == 0       # time-ordered input is never late
    return out
