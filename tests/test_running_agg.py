"""running_agg: per-key running window functions
(ops/windows.py: running_agg) vs pandas, salted ≡ unsalted."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mircv_ray.ops import running_agg


def _events(seed=13, n=4000, n_users=40, mega_user=None):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n)
    if mega_user is not None:
        users[: n // 2] = mega_user          # one key holds half the rows
    ts = rng.integers(0, 3_600_000_000 * 48, n)  # 48h of us
    return pa.table({
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(users, type=pa.int64()),
        "value": pa.array(np.round(rng.normal(50, 20, n), 4)),
    })


def _brute(tbl):
    df = tbl.to_pandas()
    df["us"] = df.ts.astype("int64")
    c = df.value.to_numpy() * 100.0
    df["cents"] = np.trunc(c + np.copysign(0.5, c)).astype(np.int64)
    df = df.sort_values(["user_id", "us", "event_id"])
    g = df.groupby("user_id")
    df["row_number"] = g.cumcount() + 1
    df["running_sum_cents"] = g.cents.cumsum()
    df["lag_value_cents"] = g.cents.shift(1)
    return (df.sort_values("event_id").reset_index(drop=True)
            [["event_id", "user_id", "row_number", "running_sum_cents",
              "lag_value_cents"]])


def _got(out):
    df = out.to_pandas().sort_values("event_id").reset_index(drop=True)
    return df[["event_id", "user_id", "row_number", "running_sum_cents",
               "lag_value_cents"]]


def _assert_equal(got, exp):
    assert list(got.event_id) == list(exp.event_id)
    assert list(got.row_number) == list(exp.row_number)
    assert list(got.running_sum_cents) == list(exp.running_sum_cents)
    assert list(got.lag_value_cents.fillna(-1).astype(np.int64)) == \
        list(exp.lag_value_cents.fillna(-1).astype(np.int64))


class TestRunningAgg:
    @pytest.mark.parametrize("parts", [1, 7])
    def test_matches_pandas(self, ray_session, parts):
        import ray.data as rd
        tbl = _events()
        out = running_agg(rd.from_arrow(tbl).repartition(parts))
        _assert_equal(_got(out), _brute(tbl))

    def test_salted_equals_unsalted_with_mega_key(self, ray_session):
        import ray.data as rd
        tbl = _events(seed=17, mega_user=7)
        plain = _got(running_agg(rd.from_arrow(tbl).repartition(5)))
        salted = _got(running_agg(rd.from_arrow(tbl).repartition(5),
                                  salt_bucket_us=3_600_000_000))
        _assert_equal(salted, plain)
        _assert_equal(salted, _brute(tbl))

    def test_single_user_lag_and_validation(self, ray_session):
        import ray.data as rd
        tbl = pa.table({
            "event_id": pa.array([3, 1, 2], type=pa.int64()),
            "ts": pa.array([30, 10, 20], type=pa.timestamp("us")),
            "user_id": pa.array([5, 5, 5], type=pa.int64()),
            "value": pa.array([1.0, 2.0, 3.0]),
        })
        out = _got(running_agg(rd.from_arrow(tbl)))
        # (ts,event_id) order: e1(2.0) -> e2(3.0) -> e3(1.0);
        # _got sorts rows by event_id, so index i holds event i+1
        assert list(out.row_number) == [1, 2, 3]
        assert list(out.running_sum_cents) == [200, 500, 600]
        assert pd.isna(out.lag_value_cents[0])           # e1 is first
        assert out.lag_value_cents[1] == 200
        assert out.lag_value_cents[2] == 300
        with pytest.raises(ValueError):
            running_agg(rd.from_arrow(tbl), salt_bucket_us=0)

    @pytest.mark.parametrize("salt_bucket_us", [None, 10])
    def test_null_value_adds_zero_and_nulls_next_lag(self, ray_session,
                                                     salt_bucket_us):
        """As in SQL: a NULL value adds 0 to the running sum, and the next
        row's lag of it is NULL. A 10 us salt puts every row in its own
        fragment, so the NULL also crosses the fragment carry."""
        import ray.data as rd
        tbl = pa.table({
            "event_id": pa.array([1, 2, 3], type=pa.int64()),
            "ts": pa.array([10, 20, 30], type=pa.timestamp("us")),
            "user_id": pa.array([5, 5, 5], type=pa.int64()),
            "value": pa.array([1.25, None, 2.00]),
        })
        out = _got(running_agg(rd.from_arrow(tbl),
                               salt_bucket_us=salt_bucket_us))
        assert list(out.running_sum_cents) == [125, 125, 325]
        lags = out.lag_value_cents
        assert pd.isna(lags[0]) and lags[1] == 125 and pd.isna(lags[2])


class TestFunnel:
    """funnel: ordered stage completion per user
    (ops/windows.py: funnel) vs a python brute force."""

    STAGES = ["signup", "click", "purchase"]

    def _events(self, seed=23, n=3000, n_users=30):
        rng = np.random.default_rng(seed)
        types = rng.choice(self.STAGES + ["view", "error"], n)
        return pa.table({
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(rng.integers(0, 10**9, n),
                           type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n),
                                type=pa.int64()),
            "event_type": pa.array(types.tolist()),
            "value": pa.array(rng.uniform(0, 10, n)),
        })

    def _brute(self, tbl):
        df = tbl.to_pandas()
        df["us"] = df.ts.astype("int64")
        out = {}
        for user, g in df.groupby("user_id"):
            prev, times = None, []
            for s in self.STAGES:
                c = g[g.event_type == s].us
                if prev is not None:
                    c = c[c > prev]
                if len(c) == 0:
                    break
                prev = int(c.min())
                times.append(prev)
            out[int(user)] = times
        return out

    @pytest.mark.parametrize("parts", [1, 6])
    def test_matches_brute_force(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import funnel
        tbl = self._events()
        got = (funnel(rd.from_arrow(tbl).repartition(parts), self.STAGES)
               .to_pandas().sort_values("user_id")
               .reset_index(drop=True))
        exp = self._brute(tbl)
        assert list(got.user_id) == sorted(exp)
        for _, r in got.iterrows():
            t = exp[r.user_id]
            assert r.n_stages == len(t)
            for i in range(3):
                v = r[f"stage{i+1}_us"]
                if i < len(t):
                    assert v == t[i]
                else:
                    assert pd.isna(v)

    def test_strict_ordering_and_validation(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import funnel
        # click BEFORE signup does not count; click AT the same ts as
        # signup does not count (strict >)
        tbl = pa.table({
            "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "ts": pa.array([100, 50, 100, 200], type=pa.timestamp("us")),
            "user_id": pa.array([1, 1, 2, 2], type=pa.int64()),
            "event_type": pa.array(["signup", "click",
                                    "signup", "click"]),
            "value": pa.array([0.0] * 4),
        })
        # give user 2 a same-ts click too -> still counts only the 200
        out = (funnel(rd.from_arrow(tbl), ["signup", "click"])
               .to_pandas().sort_values("user_id")
               .reset_index(drop=True))
        assert list(out.n_stages) == [1, 2]
        assert out.stage2_us[1] == 200
        assert pd.isna(out.stage2_us[0])
        with pytest.raises(ValueError):
            funnel(rd.from_arrow(tbl), [])
        with pytest.raises(ValueError):
            funnel(rd.from_arrow(tbl), ["a", "a"])


class TestMovingAgg:
    """moving_agg: last-N-rows window sum/count per key
    (ops/windows.py: moving_agg) vs pandas rolling."""

    @staticmethod
    def _brute(tbl, n_win):
        df = tbl.to_pandas()
        df["us"] = df.ts.astype("int64")
        c = df.value.to_numpy() * 100.0
        df["cents"] = np.trunc(c + np.copysign(0.5, c)).astype(np.int64)
        df = df.sort_values(["user_id", "us", "event_id"])
        g = df.groupby("user_id")
        df["moving_sum_cents"] = g.cents.transform(
            lambda s: s.rolling(n_win, min_periods=1).sum()).astype(
            np.int64)
        df["moving_count"] = g.cents.transform(
            lambda s: s.rolling(n_win, min_periods=1).count()).astype(
            np.int64)
        return (df.sort_values("event_id").reset_index(drop=True)
                [["event_id", "moving_sum_cents", "moving_count"]])

    @staticmethod
    def _got(out):
        return (out.to_pandas().sort_values("event_id")
                .reset_index(drop=True)
                [["event_id", "moving_sum_cents", "moving_count"]])

    @pytest.mark.parametrize("n_win,parts", [(1, 3), (5, 1), (5, 7),
                                             (100, 3)])
    def test_matches_pandas(self, ray_session, n_win, parts):
        import ray.data as rd
        from mircv_ray.ops import moving_agg
        tbl = _events(seed=29)
        got = self._got(moving_agg(
            rd.from_arrow(tbl).repartition(parts), n_win))
        exp = self._brute(tbl, n_win)
        assert list(got.moving_sum_cents) == list(exp.moving_sum_cents)
        assert list(got.moving_count) == list(exp.moving_count)

    @pytest.mark.parametrize("n_win", [3, 7])
    def test_salted_equals_unsalted_with_mega_key(self, ray_session,
                                                  n_win):
        import ray.data as rd
        from mircv_ray.ops import moving_agg
        tbl = _events(seed=31, mega_user=4)
        plain = self._got(moving_agg(
            rd.from_arrow(tbl).repartition(6), n_win))
        salted = self._got(moving_agg(
            rd.from_arrow(tbl).repartition(6), n_win,
            salt_bucket_us=3_600_000_000))
        assert list(salted.moving_sum_cents) == \
            list(plain.moving_sum_cents)
        assert list(salted.moving_count) == list(plain.moving_count)
        exp = self._brute(tbl, n_win)
        assert list(salted.moving_sum_cents) == \
            list(exp.moving_sum_cents)

    def test_validation(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import moving_agg
        tbl = _events(seed=1, n=50)
        with pytest.raises(ValueError):
            moving_agg(rd.from_arrow(tbl), 0)
        with pytest.raises(ValueError):
            moving_agg(rd.from_arrow(tbl), 3, salt_bucket_us=-1)


class TestRollupPivot:
    """rollup_agg / pivot_counts (ops/windows.py) vs pandas."""

    @pytest.mark.parametrize("parts", [1, 6])
    def test_rollup_matches_pandas(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import rollup_agg
        rng = np.random.default_rng(41)
        n = 3000
        tbl = pa.table({
            "ts": pa.array(rng.integers(0, 3_600_000_000 * 6, n),
                           type=pa.timestamp("us")),
            "event_type": pa.array(
                rng.choice(["a", "b", "c"], n).tolist()),
            "value": pa.array(np.round(rng.uniform(0, 9, n), 2)),
        })
        out = rollup_agg(rd.from_arrow(tbl).repartition(parts),
                         width_us=3_600_000_000).to_pandas()
        df = tbl.to_pandas()
        df["w"] = (df.ts.astype("int64") // 3_600_000_000) \
            * 3_600_000_000
        c = df.value.to_numpy() * 100.0
        df["cents"] = np.trunc(c + np.copysign(0.5, c)).astype(np.int64)
        leaf = df.groupby(["event_type", "w"]).agg(
            n=("cents", "size"), s=("cents", "sum")).reset_index()
        # leaf level
        got_leaf = out[out.window_start_us.notna()
                       & out.event_type.notna()]
        assert len(got_leaf) == len(leaf)
        gl = got_leaf.sort_values(["event_type", "window_start_us"]) \
            .reset_index(drop=True)
        assert list(gl.n_events) == list(leaf.n)
        assert list(gl.sum_value_cents) == list(leaf.s)
        # type subtotals
        ty = df.groupby("event_type").cents.agg(["size", "sum"])
        gt = out[out.window_start_us.isna() & out.event_type.notna()] \
            .sort_values("event_type")
        assert list(gt.n_events) == list(ty["size"])
        assert list(gt.sum_value_cents) == list(ty["sum"])
        # grand total
        g0 = out[out.event_type.isna()]
        assert len(g0) == 1
        assert g0.n_events.iloc[0] == n
        assert g0.sum_value_cents.iloc[0] == df.cents.sum()

    @pytest.mark.parametrize("parts", [1, 6])
    def test_pivot_matches_pandas(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import pivot_counts
        rng = np.random.default_rng(43)
        n = 2500
        tbl = pa.table({
            "user_id": pa.array(rng.integers(0, 40, n),
                                type=pa.int64()),
            "event_type": pa.array(
                rng.choice(["x", "y", "z", "skipme"], n).tolist()),
            "value": pa.array(np.round(rng.uniform(0, 9, n), 2)),
        })
        out = (pivot_counts(rd.from_arrow(tbl).repartition(parts),
                            ["x", "y", "z"])
               .to_pandas().sort_values("user_id")
               .reset_index(drop=True))
        df = tbl.to_pandas()
        c = df.value.to_numpy() * 100.0
        df["cents"] = np.trunc(c + np.copysign(0.5, c)).astype(np.int64)
        df = df[df.event_type != "skipme"]
        assert list(out.user_id) == sorted(df.user_id.unique())
        for v in ["x", "y", "z"]:
            sub = df[df.event_type == v].groupby("user_id").cents
            exp_n = sub.size().reindex(out.user_id, fill_value=0)
            exp_c = sub.sum().reindex(out.user_id, fill_value=0)
            assert list(out[f"n_{v}"]) == list(exp_n), v
            assert list(out[f"cents_{v}"]) == list(exp_c), v

    def test_validation(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import pivot_counts, rollup_agg
        tbl = pa.table({"user_id": pa.array([1], type=pa.int64()),
                        "ts": pa.array([0], type=pa.timestamp("us")),
                        "event_type": pa.array(["a"]),
                        "value": pa.array([1.0])})
        with pytest.raises(ValueError):
            rollup_agg(rd.from_arrow(tbl), width_us=0)
        with pytest.raises(ValueError):
            pivot_counts(rd.from_arrow(tbl), [])
        with pytest.raises(ValueError):
            pivot_counts(rd.from_arrow(tbl), ["a", "a"])


class TestTimeWindowAgg:
    """time_window_agg: RANGE-frame trailing time window per key
    (ops/windows.py: time_window_agg) vs a brute force with exact SQL
    RANGE semantics (equal-ts peers included)."""

    W = 3_600_000_000  # 1h

    def _brute(self, tbl):
        df = tbl.to_pandas()
        df["us"] = df.ts.astype("int64")
        c = df.value.to_numpy() * 100.0
        df["cents"] = np.trunc(c + np.copysign(0.5, c)).astype(np.int64)
        sums, cnts = {}, {}
        for user, g in df.groupby("user_id"):
            g = g.sort_values(["us", "event_id"])
            us = g.us.to_numpy()
            ce = g.cents.to_numpy()
            for i, eid in enumerate(g.event_id):
                m = (us >= us[i] - self.W) & (us <= us[i])
                sums[eid] = int(ce[m].sum())
                cnts[eid] = int(m.sum())
        return sums, cnts

    @staticmethod
    def _got(out):
        df = out.to_pandas()
        return (dict(zip(df.event_id, df.win_sum_cents)),
                dict(zip(df.event_id, df.win_count)))

    @pytest.mark.parametrize("parts", [1, 7])
    def test_matches_brute_force(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import time_window_agg
        tbl = _events(seed=37, n=1500, n_users=10)
        gs, gc = self._got(time_window_agg(
            rd.from_arrow(tbl).repartition(parts), self.W))
        es, ec = self._brute(tbl)
        assert gs == es and gc == ec

    def test_peers_at_equal_ts_included(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import time_window_agg
        tbl = pa.table({
            "event_id": pa.array([0, 1, 2], type=pa.int64()),
            "ts": pa.array([100, 100, 100], type=pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1], type=pa.int64()),
            "value": pa.array([1.0, 2.0, 3.0]),
        })
        out = time_window_agg(rd.from_arrow(tbl), 50).to_pandas()
        # RANGE CURRENT ROW includes all three peers for every row
        assert list(out.win_count) == [3, 3, 3]
        assert list(out.win_sum_cents) == [600, 600, 600]

    def test_salted_equals_unsalted_with_mega_key(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import time_window_agg
        tbl = _events(seed=39, mega_user=2)
        plain = self._got(time_window_agg(
            rd.from_arrow(tbl).repartition(6), self.W))
        salted = self._got(time_window_agg(
            rd.from_arrow(tbl).repartition(6), self.W,
            salt_bucket_us=4 * self.W))
        assert salted == plain
        with pytest.raises(ValueError):
            time_window_agg(rd.from_arrow(tbl), self.W,
                            salt_bucket_us=self.W)
        with pytest.raises(ValueError):
            time_window_agg(rd.from_arrow(tbl), 0)


class TestEventTransitions:
    """event_transitions: per-user Markov transition counts
    (ops/windows.py: event_transitions) vs pandas."""

    @pytest.mark.parametrize("parts", [1, 6])
    def test_matches_pandas(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import event_transitions
        rng = np.random.default_rng(47)
        n = 2500
        tbl = pa.table({
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(rng.integers(0, 10**9, n),
                           type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 30, n),
                                type=pa.int64()),
            "event_type": pa.array(
                rng.choice(["a", "b", "c", "d"], n).tolist()),
        })
        out = (event_transitions(rd.from_arrow(tbl).repartition(parts))
               .to_pandas().sort_values(["from_type", "to_type"])
               .reset_index(drop=True))
        df = (tbl.to_pandas()
              .sort_values(["user_id", "ts", "event_id"]))
        df["to"] = df.groupby("user_id").event_type.shift(-1)
        pairs = df[df.to.notna()].groupby(["event_type", "to"]) \
            .size().reset_index(name="n")
        tot = pairs.groupby("event_type").n.transform("sum")
        pairs["p"] = np.trunc(pairs.n / tot * 1e6 + 0.5) / 1e6
        pairs = pairs.sort_values(["event_type", "to"]) \
            .reset_index(drop=True)
        assert list(out.from_type) == list(pairs.event_type)
        assert list(out.to_type) == list(pairs.to)
        assert list(out.n_transitions) == list(pairs.n)
        np.testing.assert_allclose(out.prob, pairs.p, atol=1e-12)
        # row-normalization: probs per from_type sum to ~1
        sums = out.groupby("from_type").prob.sum()
        np.testing.assert_allclose(sums, 1.0, atol=1e-4)

    def test_single_event_users_emit_nothing(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import event_transitions
        tbl = pa.table({
            "event_id": pa.array([0, 1, 2], type=pa.int64()),
            "ts": pa.array([10, 20, 5], type=pa.timestamp("us")),
            "user_id": pa.array([1, 1, 2], type=pa.int64()),
            "event_type": pa.array(["a", "b", "c"]),
        })
        out = event_transitions(rd.from_arrow(tbl)).to_pandas()
        assert len(out) == 1
        assert (out.from_type[0], out.to_type[0],
                out.n_transitions[0], out.prob[0]) == ("a", "b", 1, 1.0)


    def test_null_event_type_is_one_type(self, ray_session):
        """Events with a NULL event_type over 3 blocks: NULL is one type
        on both sides of a transition, as in SQL's GROUP BY (a groupby
        on the nullable type pair raised in Ray's sort shuffle)."""
        import ray.data as rd
        from mircv_ray.ops import event_transitions
        types = ["a", None, "b", None, "a", None,
                 "b", None, "a", "a", None, "b"]
        users = [1, 1, 1, 2, 2, 2, 1, 2, 3, 3, 3, 3]
        tbl = pa.table({
            "event_id": pa.array(np.arange(12), type=pa.int64()),
            "ts": pa.array(np.arange(12) * 10, type=pa.timestamp("us")),
            "user_id": pa.array(users, type=pa.int64()),
            "event_type": pa.array(types, type=pa.string()),
        })
        ds = rd.from_arrow([tbl.slice(0, 4), tbl.slice(4, 4),
                            tbl.slice(8, 4)])
        got = {(r["from_type"], r["to_type"]): (r["n_transitions"],
                                                r["prob"])
               for r in event_transitions(ds).take_all()}
        seqs: dict = {}
        for u, t in zip(users, types):
            seqs.setdefault(u, []).append(t)
        n: dict = {}
        for seq in seqs.values():
            for pair in zip(seq, seq[1:]):
                n[pair] = n.get(pair, 0) + 1
        out_n = {f: sum(c for (ff, _), c in n.items() if ff == f)
                 for f, _ in n}
        assert got == {p: (c, np.trunc(c / out_n[p[0]] * 1e6 + 0.5) / 1e6)
                       for p, c in n.items()}
        assert (None, None) in got and ("a", None) in got


class TestFunnelRates:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import funnel_rates
        tbl = TestFunnel()._events(seed=61)
        out = (funnel_rates(rd.from_arrow(tbl).repartition(4),
                            TestFunnel.STAGES)
               .to_pandas().sort_values("stage").reset_index(drop=True))
        exp = TestFunnel()._brute(tbl)
        total = len(exp)
        reached = [sum(1 for t in exp.values() if len(t) >= i)
                   for i in (1, 2, 3)]
        assert list(out.stage) == [1, 2, 3]
        assert list(out.stage_name) == TestFunnel.STAGES
        assert list(out.n_reached) == reached
        prev = [total, reached[0], reached[1]]
        conv = [np.trunc(r / p * 1e6 + 0.5) / 1e6 if p else 0.0
                for r, p in zip(reached, prev)]
        np.testing.assert_allclose(out.conversion, conv, atol=1e-12)
        assert (np.diff(out.n_reached) <= 0).all()   # monotone funnel


class TestInterarrivalStats:
    def test_matches_pandas(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import interarrival_stats
        tbl = _events(seed=67, n=1500, n_users=20)
        out = (interarrival_stats(rd.from_arrow(tbl).repartition(5))
               .to_pandas().sort_values("user_id")
               .reset_index(drop=True))
        df = (tbl.to_pandas()
              .assign(us=lambda d: d.ts.astype("int64"))
              .sort_values(["user_id", "us", "event_id"]))
        for _, r in out.iterrows():
            d = np.diff(df[df.user_id == r.user_id].us.to_numpy())
            assert r.n_gaps == len(d)
            assert r.min_gap_us == d.min()
            assert r.max_gap_us == d.max()
            m = d.sum() / len(d)
            assert r.mean_gap_us == int(np.trunc(m + 0.5))

    def test_single_event_key(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import interarrival_stats
        tbl = pa.table({"event_id": pa.array([0], type=pa.int64()),
                        "ts": pa.array([5], type=pa.timestamp("us")),
                        "user_id": pa.array([9], type=pa.int64()),
                        "value": pa.array([0.0])})
        out = interarrival_stats(rd.from_arrow(tbl)).to_pandas()
        assert out.n_gaps[0] == 0
        assert pd.isna(out.min_gap_us[0])
        assert pd.isna(out.mean_gap_us[0])


class TestRetentionCohorts:
    def _events(self, seed=13, n=2500, n_users=40):
        rng = np.random.default_rng(seed)
        return pa.table({
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(np.sort(rng.integers(
                0, 6 * 7 * 24 * 3600 * 1_000_000, n)), type=pa.int64()),
            "user_id": pa.array(rng.integers(0, n_users, n),
                                type=pa.int64()),
            "event_type": pa.array(["e"] * n),
            "value": pa.array(np.ones(n)),
        })

    @pytest.mark.parametrize("npart", [1, 6])
    def test_matches_brute_force(self, ray_session, npart):
        import ray.data as rd
        from mircv_ray.ops import retention_cohorts
        W = 7 * 24 * 3600 * 1_000_000
        tbl = self._events()
        got = (retention_cohorts(rd.from_arrow(tbl).repartition(npart),
                                 bucket_us=W)
               .to_pandas().sort_values(["cohort_us", "period_offset"])
               .reset_index(drop=True))
        # brute force
        import collections
        buckets = collections.defaultdict(set)
        for uid, ts in zip(tbl["user_id"].to_pylist(),
                           tbl["ts"].to_pylist()):
            buckets[uid].add((ts // W) * W)
        exp = collections.Counter()
        for uid, bs in buckets.items():
            c = min(bs)
            for b in bs:
                exp[(c, (b - c) // W)] += 1
        assert {(r.cohort_us, r.period_offset): r.n_users
                for r in got.itertuples()} == dict(exp)
        # offset 0 of the earliest cohort covers every user active then
        assert (got.period_offset >= 0).all()

    def test_validation(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import retention_cohorts
        with pytest.raises(ValueError, match="bucket_us"):
            retention_cohorts(rd.from_arrow(self._events()), bucket_us=0)
