"""Round-3 operators: PII redaction, repetition quality stats, the
prefix-filtered EXACT Jaccard similarity join, and the tiled exact
cosine all-pairs join — each against a driver-side brute-force ground
truth, plus driver-gate dry runs (Ray result == DuckDB oracle on the
real sf0.001 tables, value-level)."""

import re

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from tests.test_ops import _brute_jaccard, _docs_table


class TestPiiRedact:
    def test_planted_pii_vs_re(self, ray_session):
        from mircv_ray.ops import pii_redact
        from mircv_ray.ops.textops import PII_PATTERNS
        texts = [
            "mail bob.smith+x@ex-a.co and 10.0.0.1 call 555-123-4567",
            "two mails a@b.io c_d%e@f.org one ip 192.168.255.3",
            "digits 1234567890 no pii, 1.2.3 not an ip, 12-345-6789 no",
            "phone with spaces 555 123 4567 and 999-888-7777",
            "",
            None,
        ]
        tbl = pa.table({"doc_id": pa.array(range(len(texts)),
                                           type=pa.int64()),
                        "text": pa.array(texts, type=pa.string())})
        out = pii_redact(tbl).to_pydict()
        for i, t in enumerate(texts):
            if t is None:
                assert out["clean_text"][i] is None
                assert out["n_emails"][i] is None
                continue
            exp = t
            for name, pat, repl in PII_PATTERNS:
                assert out[name][i] == len(re.findall(pat, t)), (name, t)
                exp = re.sub(pat, repl, exp)
            assert out["clean_text"][i] == exp, t
        # sanity: the planted rows actually redacted something
        assert out["n_emails"][0] == 1 and out["n_ipv4"][0] == 1 \
            and out["n_phones"][0] == 1
        assert out["n_emails"][1] == 2 and out["n_phones"][3] == 2

    def test_counts_on_original_text(self, ray_session):
        # an IP adjacent to an email must count even though the email
        # is redacted first (counts are defined over the original text)
        from mircv_ray.ops import pii_redact
        tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                        "text": ["x@y.zw 1.2.3.4"]})
        out = pii_redact(tbl).to_pydict()
        assert out["n_emails"] == [1] and out["n_ipv4"] == [1]
        assert out["clean_text"] == ["<EMAIL> <IP>"]


class TestRepetitionStats:
    def test_hand_computed(self, ray_session):
        from mircv_ray.ops import repetition_stats
        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
            "text": ["a b a b a",          # bigrams: ab,ba,ab,ba -> top 2/4
                     "x x x x",            # bigrams: xx,xx,xx -> top 3/3
                     "one two three",      # all distinct -> top 1/2
                     "solo",               # no bigrams
                     None],
        })
        out = repetition_stats(tbl).to_pydict()
        assert out["n_tokens"] == [5, 4, 3, 1, 0]
        assert out["n_distinct_tokens"] == [2, 1, 3, 1, 0]
        assert out["ttr"] == [2 / 5, 1 / 4, 1.0, 1.0, 0.0]
        assert out["top_bigram_count"] == [2, 3, 1, 0, 0]
        assert out["top_bigram_frac"] == [0.5, 1.0, 0.5, 0.0, 0.0]

    def test_vs_brute_force_random(self, ray_session):
        from mircv_ray.ops import repetition_stats
        tbl = _docs_table(50)
        out = repetition_stats(tbl).to_pydict()
        from collections import Counter
        for i, t in enumerate(tbl["text"].to_pylist()):
            toks = [w for w in re.split(r"[^a-z0-9]+", t.lower()) if w]
            bgs = list(zip(toks, toks[1:]))
            assert out["n_tokens"][i] == len(toks)
            assert out["n_distinct_tokens"][i] == len(set(toks))
            top = max(Counter(bgs).values()) if bgs else 0
            assert out["top_bigram_count"][i] == top


class TestJaccardSimjoinExact:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
    def test_recall_1_vs_brute_force(self, ray_session, threshold):
        from mircv_ray.ops import jaccard_simjoin_exact
        tbl = _docs_table(80)
        texts = tbl["text"].to_pylist()
        bf = {p: j for p, j in _brute_jaccard(texts).items()
              if j >= threshold}
        out = jaccard_simjoin_exact(rd.from_arrow(tbl),
                                    threshold=threshold).to_pandas()
        got = {(int(r.a), int(r.b)): float(r.jaccard)
               for r in out.itertuples()}
        assert set(got) == set(bf), threshold
        for p in bf:
            assert got[p] == pytest.approx(bf[p], abs=0.0), p

    def test_large_identical_cluster_all_pairs(self, ray_session):
        # exactness forbids star-capping: a 120-copy cluster must yield
        # ALL 120*119/2 pairs at jaccard 1.0
        from mircv_ray.ops import jaccard_simjoin_exact
        n = 120
        body = "alpha beta gamma delta epsilon zeta eta theta " * 4
        tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                        "text": [body] * n})
        out = jaccard_simjoin_exact(rd.from_arrow(tbl),
                                    threshold=0.9).to_pandas()
        assert len(out) == n * (n - 1) // 2
        assert (out["jaccard"] == 1.0).all()

    def test_short_and_empty_docs(self, ray_session):
        from mircv_ray.ops import jaccard_simjoin_exact
        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": ["", "one two", "alpha beta gamma alpha beta gamma",
                     "alpha beta gamma alpha beta gamma"],
        })
        out = jaccard_simjoin_exact(rd.from_arrow(tbl),
                                    threshold=0.5).to_pandas()
        assert [(int(r.a), int(r.b), float(r.jaccard))
                for r in out.itertuples()] == [(2, 3, 1.0)]


class TestCosineAllPairs:
    @pytest.mark.parametrize("block_rows", [64, 1024])
    def test_vs_numpy_brute_force(self, ray_session, block_rows):
        from mircv_ray.ops import cosine_all_pairs
        rng = np.random.default_rng(3)
        m = rng.standard_normal((257, 16))
        m[200] = m[0] + 0.01 * rng.standard_normal(16)   # planted near-dup
        emb = pa.table({
            "vec_id": pa.array(range(len(m)), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), 16),
        })
        out = cosine_all_pairs(rd.from_arrow(emb), threshold=0.5,
                               block_rows=block_rows).to_pandas()
        n = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = n @ n.T
        iu = np.triu_indices(len(m), k=1)
        keep = sims[iu] >= 0.5
        bf = {(int(a), int(b)): s for a, b, s in
              zip(iu[0][keep], iu[1][keep], sims[iu][keep])}
        got = {(int(r.a), int(r.b)): float(r.cosine)
               for r in out.itertuples()}
        assert set(got) == set(bf)
        for p in bf:
            assert got[p] == pytest.approx(bf[p], abs=1e-12)
        assert (0, 200) in got


class TestConnectedComponents:
    @staticmethod
    def _union_find(n, pairs):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # canonical min-id label per component
        roots = [find(i) for i in range(n)]
        comp_min = {}
        for i, r in enumerate(roots):
            comp_min[r] = min(comp_min.get(r, i), i)
        return [comp_min[r] for r in roots]

    def _check(self, n, pairs):
        from mircv_ray.ops import connected_components
        nodes = pa.table({"doc_id": pa.array(range(n), type=pa.int64())})
        ptbl = pa.table({
            "a": pa.array([a for a, _ in pairs], type=pa.int64()),
            "b": pa.array([b for _, b in pairs], type=pa.int64())})
        out = connected_components(rd.from_arrow(ptbl),
                                   rd.from_arrow(nodes)) \
            .to_pandas().sort_values("node")
        assert list(out["node"]) == list(range(n))
        assert list(out["label"]) == self._union_find(n, pairs)

    def test_random_graph_vs_union_find(self, ray_session):
        rng = np.random.default_rng(5)
        n = 200
        pairs = [(int(min(a, b)), int(max(a, b)))
                 for a, b in rng.integers(0, n, size=(60, 2)) if a != b]
        self._check(n, pairs)

    def test_long_chain_diameter(self, ray_session):
        # a 40-hop chain needs ~20 propagation rounds — well past the
        # star-capped diameter-2 fast path
        n = 50
        pairs = [(i, i + 1) for i in range(40)]
        self._check(n, pairs)

    def test_no_pairs_identity(self, ray_session):
        self._check(10, [])

    def test_partitioned_join(self, ray_session, monkeypatch):
        # every round's lookup_join above the byte gate
        import mircv_ray.ops.equijoin as ej
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        self.test_random_graph_vs_union_find(ray_session)
        self.test_long_chain_diameter(ray_session)
        self.test_no_pairs_identity(ray_session)

    @pytest.mark.parametrize("bcast", [None, 0])
    def test_endpoint_outside_nodes(self, ray_session, monkeypatch, bcast):
        # 8 and 9 are pair endpoints outside the nodes table: the first
        # label sent to each creates its row, and 9 links 2 and 3. A
        # label-sum-only convergence check stopped after round 1 here
        # ({2: 1, 3: 3, 9: 2}): the new rows made up for the fallen sum
        from mircv_ray.ops import connected_components
        import mircv_ray.ops.equijoin as ej
        if bcast == 0:
            monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        pairs = [(0, 1), (1, 2), (2, 9), (3, 9), (0, 8), (3, 3)]
        out = connected_components(
            rd.from_arrow(pa.table({
                "a": pa.array([a for a, _ in pairs], type=pa.int64()),
                "b": pa.array([b for _, b in pairs], type=pa.int64())})),
            rd.from_arrow(pa.table({
                "doc_id": pa.array(range(5), type=pa.int64())}))) \
            .to_pandas().sort_values("node")
        assert dict(zip(out["node"], out["label"])) == \
            {0: 0, 1: 0, 2: 0, 3: 0, 4: 4, 8: 0, 9: 0}


class TestPqAnn:
    def test_recall_vs_exact_on_clustered_data(self, ray_session):
        from mircv_ray.ops import (cosine_topk, pq_cosine_topk, pq_encode,
                                   pq_train)
        rng = np.random.default_rng(8)
        # clustered vectors: PQ codebooks must capture the structure
        centers = rng.standard_normal((16, 64)) * 3
        m = centers[rng.integers(0, 16, size=2000)] \
            + rng.standard_normal((2000, 64))
        emb = pa.table({
            "vec_id": pa.array(range(len(m)), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), 64),
        })
        ds = rd.from_arrow(emb)
        queries = m[:5]
        books = pq_train(ds, m=8, k=64, iters=8)
        assert books.shape == (8, 64, 8)
        codes = pq_encode(ds, books).materialize()
        exact = cosine_topk(ds, queries, k=10).to_pandas()

        # raw ADC scan: within-cluster top-10 orderings sit below the
        # quantization error, so only require the right NEIGHBORHOOD —
        # PQ's top-10 true cosines must be close to the true top-10's
        approx = pq_cosine_topk(codes, books, queries, k=10).to_pandas()
        nrm = m / np.linalg.norm(m, axis=1, keepdims=True)
        for qi in range(len(queries)):
            got = approx[approx.query_id == qi]["vec_id"].to_numpy()
            q = nrm[qi]
            got_true = np.sort(nrm[got] @ q)[::-1].sum()
            best = exact[exact.query_id == qi]["score"].sum()
            assert got_true >= 0.93 * best, (qi, got_true, best)

        # oversample + exact re-rank (the production shape): full recall
        from mircv_ray.ops import pq_cosine_topk_rerank
        rr = pq_cosine_topk_rerank(ds, codes, books, queries,
                                   k=10, factor=10).to_pandas()
        recalls = []
        for qi in range(len(queries)):
            got = set(rr[rr.query_id == qi]["vec_id"])
            want = set(exact[exact.query_id == qi]["vec_id"])
            assert len(got) == 10 and len(want) == 10
            recalls.append(len(got & want) / 10)
        assert np.mean(recalls) >= 0.9, recalls

    def test_codes_are_m_bytes(self, ray_session):
        from mircv_ray.ops import pq_encode, pq_train
        rng = np.random.default_rng(2)
        m = rng.standard_normal((300, 32))
        emb = pa.table({
            "vec_id": pa.array(range(len(m)), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), 32),
        })
        ds = rd.from_arrow(emb)
        books = pq_train(ds, m=4, k=32, iters=4)
        codes = pq_encode(ds, books).to_pandas()
        assert all(len(c) == 4 for c in codes["code"])


class TestSourceQuota:
    def test_hand_computed(self, ray_session):
        from mircv_ray.ops import source_quota_sample
        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
            "source": ["s1", "s1", "s1", "s2", "s2", "s3"],
            # token counts under the BPE-ish regex: 3, 2, 2, 5, 1, 1
            "text": ["one two three", "four five", "six seven",
                     "a b c d e", "x", "y"],
        })
        out = source_quota_sample(rd.from_arrow(tbl), budget_tokens=5) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        # s1 keeps 0 (cum 3) and 1 (cum 5), drops 2 (cum 7);
        # s2 keeps 3 (cum 5), drops 4 (cum 6); s3 keeps 5
        assert list(out["doc_id"]) == [0, 1, 3, 5]
        assert list(out["cum_tokens"]) == [3, 5, 5, 1]

    def test_budget_zero_keeps_nothing(self, ray_session):
        from mircv_ray.ops import source_quota_sample
        tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                        "source": ["s"], "text": ["hello"]})
        out = source_quota_sample(rd.from_arrow(tbl), budget_tokens=0) \
            .to_pandas()
        assert len(out) == 0

    @pytest.mark.parametrize("salt_ids", [1, 2, 7, 100, 10_000])
    def test_salted_equals_unsalted(self, ray_session, salt_ids):
        """Mega-source path (per-id-range fragments + prefix-offset
        exchange) is exactly the unsalted output, even when the quota
        cut lands mid-fragment or before a fragment starts."""
        from mircv_ray.ops import source_quota_sample
        import numpy as np
        rng = np.random.default_rng(5)
        n = 400
        tbl = pa.table({
            "doc_id": pa.array(np.arange(n), type=pa.int64()),
            "source": pa.array([f"s{int(i)}" for i in
                                rng.integers(0, 3, n)]),
            "text": pa.array([" ".join(["tok"] * int(k)) for k in
                              rng.integers(1, 9, n)]),
        })
        kw = dict(budget_tokens=300)
        a = source_quota_sample(rd.from_arrow(tbl), **kw) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = source_quota_sample(rd.from_arrow(tbl).repartition(16),
                                salt_ids=salt_ids, **kw) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        import pandas as pd
        pd.testing.assert_frame_equal(a, b)

    def test_salted_validation(self, ray_session):
        from mircv_ray.ops import source_quota_sample
        tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                        "source": ["s"], "text": ["hello"]})
        with pytest.raises(ValueError, match="salt_ids"):
            source_quota_sample(rd.from_arrow(tbl), budget_tokens=5,
                                salt_ids=0)


@pytest.mark.parametrize("name", ["pii_redact", "repetition_stats",
                                  "ngram_jaccard_exact",
                                  "substring_dup_exact",
                                  "embedding_near_dups_exact",
                                  "semantic_dedup_exact",
                                  "dedup_clusters", "source_quota",
                                  "distinct_users", "asof_purchases",
                                  "value_quantiles", "dataset_split",
                                  "source_quota_salted", "lm_logprob",
                                  "event_sessions",
                                  "window_agg_streaming",
                                  "merge_postings", "delete_postings",
                                  "vacuum_postings", "snippet_search",
                                  "bm25_prf", "fuzzy_bm25",
                                  "facet_search", "boolean_not",
                                  "phrase_bm25", "more_like_this"])
def test_entry_matches_oracle_sql(ray_session, name):
    """Driver-gate dry run at sf0.001: identical column names, row
    counts, and values (after each side's documented rounding). Entries
    returning a Dataset (the postings family) compare as sorted sets,
    mirroring the driver's own sort-before-hash."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as e
    sf = "/root/testdata/sf0.001"
    res = e.queries()[name](sf)
    if hasattr(res, "to_arrow_refs"):   # Dataset -> table
        import ray
        tbls = [t for t in ray.get(res.to_arrow_refs()) if t.num_rows]
        res = pa.concat_tables(tbls).combine_chunks()
    rdf = res.to_pandas() if hasattr(res, "to_pandas") else res
    con = duckdb.connect()
    for t in ("documents", "embeddings", "events"):
        con.execute(f"CREATE VIEW {t} AS "
                    f"SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    ora = con.execute(e.oracle_sql()[name]).fetchdf()
    assert sorted(rdf.columns) == sorted(ora.columns)
    assert len(rdf) == len(ora)
    cols = sorted(rdf.columns)
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = ora[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(rdf) > 0
