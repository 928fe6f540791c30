"""LTR feature export (ops/ltr.py) vs per-feature brute force."""

import math

import numpy as np
import pyarrow as pa
import pytest

from mircv_ray.config import IndexConfig
from mircv_ray.oracle import OracleIndex


def _corpus(n=200, seed=4):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        toks = [f"rare{i % 23}"]
        if i % 2 == 0:
            toks.extend(["hot"] * int(rng.integers(1, 4)))
        if i % 5 == 0:
            toks.append("warm")
        rows.append(" ".join(toks * int(rng.integers(1, 4))))
    return [{"repo": "r", "path": f"f{i:05d}", "commit": "c", "lang": "py",
             "content": rows[i]} for i in range(n)]


def _emb(n=200, dim=8, seed=5):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, dim))
    return pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array([r.astype(np.float32).tolist() for r in m]),
    }), m.astype(np.float32).astype(np.float64)


QUERIES = [["hot", "rare3"], ["warm"], ["hot", "warm", "rare1"],
           ["zzz", "hot"]]


@pytest.fixture(scope="module")
def ltr_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from mircv_ray.build import build_index
    rows = _corpus()
    out = str(tmp_path_factory.mktemp("ltridx"))
    build_index(rd.from_items(rows), out,
                IndexConfig(parse=False, squeeze=False, num_shards=2,
                            salt_buckets=1))
    return rows, out


@pytest.fixture(scope="module")
def ltr_setup(ltr_index):
    import ray.data as rd

    from mircv_ray.ops import ltr_features
    rows, out = ltr_index
    oracle = OracleIndex.build(rows, parse=False, squeeze=False)
    tbl, m = _emb()
    qv = m[: len(QUERIES)]
    feats = ltr_features(out, rd.from_arrow(tbl), QUERIES, qv,
                         k=10).to_pylist()
    return oracle, m, qv, feats


def test_candidates_are_union_of_tops(ltr_setup):
    oracle, m, qv, feats = ltr_setup

    def norm(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)
    mn = norm(m)
    for qi, terms in enumerate(QUERIES):
        sparse = [d - 1 for d, _ in oracle.score_query(terms, "BM25", k=10)]
        sims = mn @ norm(qv)[qi]
        dense = np.lexsort((np.arange(len(mn)), -sims))[:10]
        want = sorted(set(sparse) | set(int(d) for d in dense))
        got = sorted(r["doc_id"] for r in feats if r["qid"] == qi)
        assert got == want, (qi, got, want)


def test_sparse_features_match_oracle(ltr_setup):
    oracle, m, qv, feats = ltr_setup
    for r in feats:
        terms = QUERIES[r["qid"]]
        bm = dict(oracle.score_query(terms, "BM25", k=10**6))
        tfi = dict(oracle.score_query(terms, "TFIDF", k=10**6))
        qld = dict(oracle.score_query_qld(terms, k=10**6))
        d = r["doc_id"] + 1
        assert r["bm25"] == pytest.approx(bm.get(d, 0.0), rel=1e-9, abs=1e-12)
        assert r["tfidf"] == pytest.approx(tfi.get(d, 0.0), rel=1e-9,
                                           abs=1e-12)
        assert r["qld"] == pytest.approx(qld.get(d, 0.0), rel=1e-9,
                                         abs=1e-12)


def test_dense_and_meta_features(ltr_setup):
    oracle, m, qv, feats = ltr_setup

    def norm(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)
    mn = norm(m)
    qn = norm(qv)
    for r in feats:
        d = r["doc_id"]
        assert r["cosine"] == pytest.approx(float(mn[d] @ qn[r["qid"]]),
                                            rel=1e-9)
        assert r["dl"] == oracle.doc_len[d + 1]
        n_match = sum(1 for t in set(QUERIES[r["qid"]])
                      if (d + 1) in oracle.postings.get(t, {}))
        assert r["n_match"] == n_match


def test_empty_decoded_list_matches_nothing(ltr_index, monkeypatch):
    """A lexicon term whose decoded posting list is empty (a pruning or
    vacuum edge state) adds no score to any candidate instead of raising
    IndexError; it still counts in the QLD query length, as in the
    engine's QLD evaluator."""
    import ray.data as rd

    from mircv_ray.config import QueryConfig
    from mircv_ray.ops import ltr_features
    from mircv_ray.query import IndexReader, QueryEngine
    _, out = ltr_index
    tbl, m = _emb()
    qv = m[:1]
    want = ltr_features(out, rd.from_arrow(tbl), [["hot"]], qv,
                        k=10).to_pylist()
    orig = IndexReader.decoded
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    monkeypatch.setattr(IndexReader, "decoded", lambda self, t:
                        empty if t == "warm" else orig(self, t))
    got = ltr_features(out, rd.from_arrow(tbl), [["hot", "warm"]], qv,
                       k=10).to_pylist()
    qld = dict(QueryEngine(out, QueryConfig(
        standard="QLD", k=10**6, parse=False, squeeze=False))
        .score_terms(["hot", "warm"]))
    keys = ("doc_id", "bm25", "tfidf", "cosine", "dl", "n_match")
    assert [{k: r[k] for k in keys} for r in got] == \
        [{k: r[k] for k in keys} for r in want]
    for r in got:
        assert r["qld"] == pytest.approx(qld.get(r["doc_id"] + 1, 0.0),
                                         rel=1e-9, abs=1e-12)
