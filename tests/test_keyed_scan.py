"""The keyed fragment scan behind running_agg, moving_agg,
time_window_agg and source_quota_sample (ops/windows.py: _keyed_scan):
for random keys with NULLs, NULL values and texts, random fragment
widths and random block splits, the salted path equals the unsalted
one, and both equal a brute force over Python lists."""

import re

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mircv_ray.ops import equijoin
from mircv_ray.ops.textops import TOKEN_COUNT_RE


def _blocks(tbl: pa.Table, cuts: list):
    import ray.data as rd
    bounds = sorted({0, tbl.num_rows, *(c % (tbl.num_rows + 1)
                                         for c in cuts)})
    return rd.from_arrow([tbl.slice(a, b - a)
                          for a, b in zip(bounds, bounds[1:])])


def _by_key(rows, key, order):
    groups = {}
    for r in rows:
        groups.setdefault(r[key], []).append(r)
    return [sorted(g, key=order) for g in groups.values()]


def _cents(v):
    return 0 if v is None else round(v * 100)


def _brute_running(rows):
    out = {}
    for g in _by_key(rows, "user_id", lambda r: (r["ts"], r["event_id"])):
        total, lag = 0, None
        for i, r in enumerate(g):
            total += _cents(r["value"])
            out[r["event_id"]] = (r["user_id"], i + 1, total, lag)
            lag = None if r["value"] is None else _cents(r["value"])
    return out


def _brute_moving(rows, n_win):
    out = {}
    for g in _by_key(rows, "user_id", lambda r: (r["ts"], r["event_id"])):
        for i, r in enumerate(g):
            win = g[max(i - n_win + 1, 0):i + 1]
            out[r["event_id"]] = (r["user_id"],
                                  sum(_cents(w["value"]) for w in win),
                                  len(win))
    return out


def _brute_range(rows, width):
    out = {}
    for g in _by_key(rows, "user_id", lambda r: (r["ts"], r["event_id"])):
        for r in g:
            win = [w for w in g if r["ts"] - width <= w["ts"] <= r["ts"]]
            out[r["event_id"]] = (r["user_id"],
                                  sum(_cents(w["value"]) for w in win),
                                  len(win))
    return out


def _brute_quota(docs, budget):
    out = {}
    for g in _by_key(docs, "source", lambda d: d["doc_id"]):
        cum = 0
        for d in g:
            n = len(re.findall(TOKEN_COUNT_RE, d["text"] or ""))
            cum += n
            if cum <= budget:
                out[d["doc_id"]] = (d["source"], n, cum)
    return out


def _got(ds, id_col, cols):
    import ray
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    if not blocks:
        return {}
    t = pa.concat_tables(blocks)
    for c in cols[1:]:
        assert t.schema.field(c).type == pa.int64(), c
    return dict(zip(t[id_col].to_pylist(),
                    zip(*(t[c].to_pylist() for c in cols))))


_values = st.one_of(st.none(), st.integers(-500, 500).map(lambda c: c / 100))


@st.composite
def _events(draw):
    n = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(n)))
    return pa.table({
        "event_id": pa.array(ids, pa.int64()),
        "ts": pa.array(draw(st.lists(st.integers(0, 100), min_size=n,
                                     max_size=n)), pa.timestamp("us")),
        "user_id": pa.array(draw(st.lists(
            st.sampled_from([None, 0, 1, 2]), min_size=n, max_size=n)),
            pa.int64()),
        "value": pa.array(draw(st.lists(_values, min_size=n, max_size=n)),
                          pa.float64()),
    })


@st.composite
def _docs(draw):
    n = draw(st.integers(1, 30))
    words = st.lists(st.sampled_from(["a", "bc", "7", "!"]), max_size=4)
    return pa.table({
        "doc_id": pa.array(draw(st.permutations(range(n))), pa.int64()),
        "source": pa.array(draw(st.lists(
            st.sampled_from([None, "a", "b"]), min_size=n, max_size=n)),
            pa.string()),
        "text": pa.array(draw(st.lists(
            st.one_of(st.none(), words.map(" ".join)), min_size=n,
            max_size=n)), pa.string()),
    })


class TestKeyedScanProperty:
    @pytest.mark.usefixtures("ray_session")
    @given(_events(), _docs(), st.lists(st.integers(0, 30), max_size=3),
           st.integers(1, 60), st.integers(1, 4), st.integers(1, 30),
           st.integers(1, 60), st.integers(1, 15), st.integers(0, 40),
           st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_salted_equals_unsalted_equals_brute(
            self, events, docs, cuts, bucket, n_win, width, extra, salt_ids,
            budget, bcast):
        from mircv_ray.ops import (moving_agg, running_agg,
                                   source_quota_sample, time_window_agg)
        rows = events.set_column(1, "ts", events["ts"].cast(pa.int64())) \
            .to_pylist()
        cases = [
            (lambda s: running_agg(_blocks(events, cuts),
                                   salt_bucket_us=s),
             ["user_id", "row_number", "running_sum_cents",
              "lag_value_cents"], _brute_running(rows), "event_id",
             bucket),
            (lambda s: moving_agg(_blocks(events, cuts), n_win,
                                  salt_bucket_us=s),
             ["user_id", "moving_sum_cents", "moving_count"],
             _brute_moving(rows, n_win), "event_id", bucket),
            (lambda s: time_window_agg(_blocks(events, cuts), width,
                                       salt_bucket_us=s),
             ["user_id", "win_sum_cents", "win_count"],
             _brute_range(rows, width), "event_id", width + extra),
            (lambda s: source_quota_sample(_blocks(docs, cuts), budget,
                                           salt_ids=s),
             ["source", "n_tokens", "cum_tokens"],
             _brute_quota(docs.to_pylist(), budget), "doc_id", salt_ids),
        ]
        with pytest.MonkeyPatch.context() as mp:
            # the carry attach takes the broadcast or partitioned path
            mp.setattr(equijoin, "BROADCAST_MAX_BYTES",
                       (1 << 30) if bcast else 0)
            for op, cols, exp, id_col, salt in cases:
                plain = _got(op(None), id_col, cols)
                salted = _got(op(salt), id_col, cols)
                assert plain == exp
                assert salted == exp
