"""equi_join: generic distributed SQL equi-join (ops/equijoin.py)
vs pandas merge, on both the broadcast and the partitioned path."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import mircv_ray.ops.equijoin as ej
from mircv_ray.ops import equi_join


def _tables(seed=7, n_left=900, n_right=250):
    rng = np.random.default_rng(seed)
    left = pa.table({
        "k": pa.array(rng.integers(0, 120, n_left), type=pa.int64()),
        "lv": pa.array(rng.integers(0, 10**6, n_left)),
        "name": pa.array([f"l{i}" for i in range(n_left)]),
    })
    # many-to-many: right repeats keys; some keys never occur on left
    right = pa.table({
        "k": pa.array(rng.integers(0, 150, n_right), type=pa.int64()),
        "rv": pa.array(rng.normal(size=n_right)),
        "name": pa.array([f"r{i}" for i in range(n_right)]),  # clash
    })
    return left, right


def _expected(left, right, how):
    lf, rf = left.to_pandas(), right.to_pandas()
    m = lf.merge(rf, on="k", how=how, suffixes=("", "_r"))
    return m.sort_values(["k", "lv", "name", "name_r"],
                         na_position="last").reset_index(drop=True)


def _got(out, how):
    df = out.to_pandas()
    return df.sort_values(["k", "lv", "name", "name_r"],
                          na_position="last").reset_index(drop=True)


class TestEquiJoin:
    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("bcast", [None, 0])   # None=broadcast, 0=mr
    def test_matches_pandas(self, ray_session, monkeypatch, how, bcast):
        import ray.data as rd
        left, right = _tables()
        kw = {} if bcast is None else {"num_partitions": 5}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = equi_join(rd.from_arrow(left).repartition(4),
                        rd.from_arrow(right).repartition(3),
                        "k", how=how, **kw)
        got = _got(out, how)
        exp = _expected(left, right, how)
        assert list(got.columns) == list(exp.columns)
        assert len(got) == len(exp)
        for c in ["k", "lv", "name", "name_r"]:
            assert list(got[c].fillna("~")) == list(exp[c].fillna("~")), c
        np.testing.assert_allclose(got.rv.fillna(0.0), exp.rv.fillna(0.0))

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_null_keys_sql_semantics(self, ray_session, monkeypatch, bcast):
        import ray.data as rd
        left = pa.table({"k": pa.array([1, None, 2], type=pa.int64()),
                         "lv": pa.array([10, 20, 30])})
        right = pa.table({"k": pa.array([1, None], type=pa.int64()),
                          "rv": pa.array(["x", "y"])})
        kw = {} if bcast is None else {"num_partitions": 3}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        inner = equi_join(rd.from_arrow(left), rd.from_arrow(right),
                          "k", how="inner", **kw).to_pandas()
        assert list(inner.k) == [1] and list(inner.rv) == ["x"]
        lj = (equi_join(rd.from_arrow(left), rd.from_arrow(right),
                        "k", how="left", **kw)
              .to_pandas().sort_values("lv").reset_index(drop=True))
        assert list(lj.lv) == [10, 20, 30]
        assert list(lj.rv.fillna("~")) == ["x", "~", "~"]

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_empty_right_and_string_keys(self, ray_session, monkeypatch,
                                         bcast):
        import ray.data as rd
        left = pa.table({"k": pa.array(["a", "b"]),
                         "lv": pa.array([1, 2])})
        right_empty = pa.table({"k": pa.array([], type=pa.string()),
                                "rv": pa.array([], type=pa.int64())})
        kw = {} if bcast is None else {"num_partitions": 2}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        inner = equi_join(rd.from_arrow(left), rd.from_arrow(right_empty),
                          "k", how="inner", **kw).to_pandas()
        assert len(inner) == 0
        if len(inner.columns):   # Ray may drop all-empty blocks' schema
            assert "rv" in inner.columns
        lj = (equi_join(rd.from_arrow(left), rd.from_arrow(right_empty),
                        "k", how="left", **kw)
              .to_pandas().sort_values("lv"))
        assert list(lj.lv) == [1, 2]
        assert lj.rv.isna().all()
        right = pa.table({"k": pa.array(["b", "c"]),
                          "rv": pa.array([7, 8], type=pa.int64())})
        inner2 = equi_join(rd.from_arrow(left), rd.from_arrow(right),
                           "k", **kw).to_pandas()
        assert list(inner2.k) == ["b"] and list(inner2.rv) == [7]

    def test_validation(self, ray_session):
        import ray.data as rd
        left = pa.table({"k": pa.array([1], type=pa.int64())})
        with pytest.raises(ValueError, match="how"):
            equi_join(rd.from_arrow(left), rd.from_arrow(left),
                      "k", how="outer")

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_right_on_different_key_names(self, ray_session, monkeypatch,
                                          bcast):
        import ray.data as rd
        left = pa.table({"o_custkey": pa.array([1, 2, 2, 9],
                                               type=pa.int64()),
                         "total": pa.array([10.0, 20.0, 30.0, 40.0])})
        right = pa.table({"c_custkey": pa.array([1, 2], type=pa.int64()),
                          "c_name": pa.array(["alice", "bo"])})
        kw = {} if bcast is None else {"num_partitions": 3}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = (equi_join(rd.from_arrow(left), rd.from_arrow(right),
                         "o_custkey", right_on="c_custkey", **kw)
               .to_pandas().sort_values(["o_custkey", "total"])
               .reset_index(drop=True))
        assert list(out.columns) == ["o_custkey", "total", "c_name"]
        assert list(out.o_custkey) == [1, 2, 2]
        assert list(out.c_name) == ["alice", "bo", "bo"]


class TestSemiAntiJoin:
    @pytest.mark.parametrize("anti", [False, True])
    @pytest.mark.parametrize("bcast", [None, 0])
    def test_matches_pandas(self, ray_session, monkeypatch, anti, bcast):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left, right = _tables()
        kw = {} if bcast is None else {"num_partitions": 4}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = (semi_join(rd.from_arrow(left).repartition(4),
                         rd.from_arrow(right).repartition(3),
                         "k", anti=anti, **kw)
               .to_pandas().sort_values(["k", "lv"])
               .reset_index(drop=True))
        lf = left.to_pandas()
        rset = set(right["k"].to_pylist())
        mask = lf.k.isin(rset)
        exp = (lf[~mask] if anti else lf[mask]) \
            .sort_values(["k", "lv"]).reset_index(drop=True)
        assert list(out.columns) == list(exp.columns)   # left cols only
        assert list(out.lv) == list(exp.lv)
        # left rows never multiply on duplicate right keys
        assert len(out) == len(exp)

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_null_keys(self, ray_session, monkeypatch, bcast):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left = pa.table({"k": pa.array([1, None, 2], type=pa.int64()),
                         "lv": pa.array([10, 20, 30])})
        right = pa.table({"k": pa.array([1, None], type=pa.int64())})
        kw = {} if bcast is None else {"num_partitions": 3}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        semi = semi_join(rd.from_arrow(left), rd.from_arrow(right),
                         "k", **kw).to_pandas()
        assert list(semi.lv) == [10]        # NULL matches nothing
        anti = (semi_join(rd.from_arrow(left), rd.from_arrow(right),
                          "k", anti=True, **kw)
                .to_pandas().sort_values("lv"))
        assert list(anti.lv) == [20, 30]    # NULL-key row kept by anti

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_right_on_and_empty_right(self, ray_session, monkeypatch, bcast):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left = pa.table({"o_ck": pa.array([1, 2, 3], type=pa.int64()),
                         "lv": pa.array([10, 20, 30])})
        right = pa.table({"c_ck": pa.array([2], type=pa.int64()),
                          "junk": pa.array(["z"])})
        kw = {} if bcast is None else {"num_partitions": 2}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = semi_join(rd.from_arrow(left), rd.from_arrow(right),
                        "o_ck", right_on="c_ck", **kw).to_pandas()
        assert list(out.lv) == [20]
        empty = pa.table({"c_ck": pa.array([], type=pa.int64())})
        s = semi_join(rd.from_arrow(left), rd.from_arrow(empty),
                      "o_ck", right_on="c_ck", **kw).to_pandas()
        assert len(s) == 0
        a = (semi_join(rd.from_arrow(left), rd.from_arrow(empty),
                       "o_ck", right_on="c_ck", anti=True, **kw)
             .to_pandas().sort_values("lv"))
        assert list(a.lv) == [10, 20, 30]


class TestCompositeKeys:
    @pytest.mark.parametrize("bcast", [None, 0])
    def test_composite_key_join(self, ray_session, monkeypatch, bcast):
        import ray.data as rd
        from mircv_ray.ops import equi_join
        rng = np.random.default_rng(3)
        left = pa.table({
            "a": pa.array(rng.integers(0, 9, 400), type=pa.int64()),
            "b": pa.array(rng.choice(["p", "q", "r"], 400).tolist()),
            "lv": pa.array(np.arange(400)),
        })
        right = pa.table({
            "a": pa.array(rng.integers(0, 9, 60), type=pa.int64()),
            "b": pa.array(rng.choice(["p", "q", "r"], 60).tolist()),
            "rv": pa.array(np.arange(60) * 7),
        })
        kw = {} if bcast is None else {"num_partitions": 4}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = (equi_join(rd.from_arrow(left).repartition(3),
                         rd.from_arrow(right).repartition(2),
                         ["a", "b"], **kw)
               .to_pandas().sort_values(["a", "b", "lv", "rv"])
               .reset_index(drop=True))
        exp = (left.to_pandas().merge(right.to_pandas(), on=["a", "b"])
               .sort_values(["a", "b", "lv", "rv"])
               .reset_index(drop=True))
        assert len(out) == len(exp)
        for c in ["a", "b", "lv", "rv"]:
            assert list(out[c]) == list(exp[c]), c
        with pytest.raises(ValueError, match="length"):
            equi_join(rd.from_arrow(left), rd.from_arrow(right),
                      ["a", "b"], right_on=["a"])

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_semi_composite_keys(self, ray_session, monkeypatch, bcast):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left = pa.table({"a": pa.array([1, 1, 2, None], type=pa.int64()),
                         "b": pa.array(["x", "y", "x", "x"]),
                         "lv": pa.array([10, 20, 30, 40])})
        right = pa.table({"a": pa.array([1, 2], type=pa.int64()),
                          "b": pa.array(["x", "z"])})
        kw = {} if bcast is None else {"num_partitions": 3}
        if bcast is not None:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        semi = semi_join(rd.from_arrow(left), rd.from_arrow(right),
                         ["a", "b"], **kw).to_pandas()
        assert list(semi.lv) == [10]          # only (1,x) matches
        anti = (semi_join(rd.from_arrow(left), rd.from_arrow(right),
                          ["a", "b"], anti=True, **kw)
                .to_pandas().sort_values("lv"))
        assert list(anti.lv) == [20, 30, 40]  # null-key row kept
        with pytest.raises(ValueError, match="length"):
            semi_join(rd.from_arrow(left), rd.from_arrow(right),
                      ["a", "b"], right_on=["a"])


class TestSemiJoinSeparatorEscape:
    # ADVICE r4: composite key values containing the \x1f separator (or
    # the \x1e escape char) must never collide across distinct tuples
    @pytest.mark.parametrize("bcast", [1 << 30, 0])
    @pytest.mark.parametrize("anti", [False, True])
    def test_separator_values_do_not_collide(self, ray_session, anti,
                                             bcast, monkeypatch):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left = pa.table({
            "a": ["x\x1f", "x", "x\x1e", "x\x1e1", "plain"],
            "b": ["y", "\x1fy", "1y", "y", "p"],
            "v": [0, 1, 2, 3, 4],
        })
        # only the exact tuple ("x\x1f", "y") and ("plain", "p") exist
        # on the right; the old concatenation collided rows 0/1 and 2/3
        right = pa.table({"a": ["x\x1f", "plain"], "b": ["y", "p"]})
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", bcast)
        out = (semi_join(rd.from_arrow(left).repartition(3),
                         rd.from_arrow(right), on=["a", "b"],
                         anti=anti, num_partitions=4)
               .to_pandas().sort_values("v").v.tolist())
        assert out == ([1, 2, 3] if anti else [0, 4])


from hypothesis import given, settings
from hypothesis import strategies as st

_keytext = st.text(
    alphabet=st.sampled_from(list("ab\x1e\x1f01")), max_size=4)


class TestSemiJoinProperty:
    # property fuzz of the separator escaping: composite keys drawn
    # from an alphabet CONTAINING the separator and escape chars must
    # match pandas tuple semantics exactly, both paths, semi and anti
    @pytest.mark.usefixtures("ray_session")
    @given(st.lists(st.tuples(_keytext, _keytext), min_size=1,
                    max_size=25),
           st.lists(st.tuples(_keytext, _keytext), max_size=15),
           st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_pandas_tuples(self, left_keys, right_keys, anti,
                                   bcast):
        import ray.data as rd
        from mircv_ray.ops import semi_join
        left = pa.table({
            "a": [a for a, _ in left_keys],
            "b": [b for _, b in left_keys],
            "v": list(range(len(left_keys))),
        })
        right = pa.table({"a": [a for a, _ in right_keys] or
                          pa.array([], pa.string()),
                          "b": [b for _, b in right_keys] or
                          pa.array([], pa.string())})
        rset = set(right_keys)
        exp = [i for i, k in enumerate(left_keys)
               if (k in rset) != anti]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ej, "BROADCAST_MAX_BYTES", (1 << 30) if bcast else 0)
            df = semi_join(rd.from_arrow(left).repartition(2),
                           rd.from_arrow(right), on=["a", "b"],
                           anti=anti, num_partitions=3).to_pandas()
        # all-empty results may drop block schema (known Ray quirk,
        # see test_empty_right_and_string_keys)
        got = sorted(df.v.tolist()) if "v" in df.columns else []
        assert got == exp


def _null_keys(rng, n, hi, null_frac):
    keys = rng.integers(0, hi, n)
    return pa.array(keys, type=pa.int64(), mask=rng.random(n) < null_frac)


def _lookup_inputs(case):
    rng = np.random.default_rng(23)
    left = pa.table({"k": _null_keys(rng, 500, 40, 0.2),
                     "lv": pa.array(np.arange(500))})
    if case == "empty_right":
        return left, pa.table({"k": pa.array([], type=pa.int64()),
                               "rv": pa.array([], type=pa.int64())}), 4
    if case == "sparse":
        # far more partitions than keys: most reduces get no rows
        left = pa.table({"k": _null_keys(rng, 300, 3, 0.1),
                         "lv": pa.array(np.arange(300))})
        return left, pa.table({"k": pa.array([0, 2], type=pa.int64()),
                               "rv": pa.array([5, 7])}), 16
    keys = rng.permutation(60)[:30]
    right = pa.table({"k": pa.array(np.append(keys, 0), type=pa.int64(),
                                    mask=np.arange(31) == 30),
                      "rv": pa.array(np.arange(31) * 3)})
    return left, right, 5


def _rows(ds, cols):
    df = ds.to_pandas()
    if not len(df.columns):     # Ray may drop all-empty blocks' schema
        return []
    return sorted(df[cols].astype(object).where(df[cols].notna(), None)
                  .itertuples(index=False, name=None),
                  key=lambda r: tuple((v is None, v) for v in r))


class TestLookupJoinPaths:
    """Both paths of lookup_join give equal output, on random data with
    NULL keys, an empty right side, and more partitions than keys."""

    def _both(self, monkeypatch, run):
        broadcast = run()
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        return broadcast, run()

    @pytest.mark.parametrize("case", ["random", "empty_right", "sparse"])
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_equi_join_paths_equal(self, ray_session, monkeypatch, case,
                                   how):
        import ray.data as rd
        left, right, parts = _lookup_inputs(case)
        b, p = self._both(monkeypatch, lambda: _rows(equi_join(
            rd.from_arrow(left).repartition(3),
            # repartitioning an empty table drops its schema
            rd.from_arrow(right).repartition(2) if right.num_rows
            else rd.from_arrow(right), "k", how=how,
            num_partitions=parts), ["k", "lv", "rv"]))
        exp = left.to_pandas().merge(right.to_pandas().dropna(), on="k",
                                     how=how)
        exp = exp[exp.k.notna()] if how == "inner" else exp
        assert b == p
        assert len(b) == len(exp)

    @pytest.mark.parametrize("case", ["random", "empty_right", "sparse"])
    def test_searchsorted_apply_paths_equal(self, ray_session,
                                            monkeypatch, case):
        import ray.data as rd
        from mircv_ray.ops.equijoin import lookup, lookup_join, sorted_keys
        left, right, parts = _lookup_inputs(case)

        def prepare(t):
            keys, order = sorted_keys(t["k"].drop_null())
            return keys, t["rv"].drop_null().to_numpy()[order]

        def apply(batch, state):
            return batch.append_column("rv", pa.array(
                lookup(*state, batch["k"], -1), type=pa.int64()))

        b, p = self._both(monkeypatch, lambda: _rows(lookup_join(
            rd.from_arrow(left).repartition(3),
            rd.from_arrow(right.filter(right["k"].is_valid())),
            "k", prepare, apply, num_partitions=parts), ["k", "lv", "rv"]))
        rmap = {k: v for k, v in zip(right["k"].to_pylist(),
                                     right["rv"].to_pylist())
                if k is not None}
        assert b == p
        assert sorted(r[1] for r in b) == list(range(left.num_rows))
        assert all(rv == rmap.get(k, -1) for k, _, rv in b)


def test_left_join_null_keys_spread_over_reduces(ray_session, monkeypatch):
    # NULL keys match nothing, so a LEFT join's NULL-key rows must not
    # all pile into one reduce
    import ray
    import ray.data as rd
    rng = np.random.default_rng(5)
    left = pa.table({"k": _null_keys(rng, 2000, 50, 0.9),
                     "lv": pa.array(np.arange(2000))})
    right = pa.table({"k": pa.array(np.arange(50), type=pa.int64()),
                      "rv": pa.array(np.arange(50))})
    monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
    out = equi_join(rd.from_arrow(left).repartition(4),
                    rd.from_arrow(right), "k", how="left",
                    num_partitions=4)
    per_reduce = [t["k"].null_count for t in ray.get(out.to_arrow_refs())]
    assert sum(per_reduce) == left["k"].null_count
    assert max(per_reduce) < left["k"].null_count
