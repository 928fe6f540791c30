"""Training-data ops vs brute-force ground truth (dedup family,
similarity search, text analysis). The Ray pipelines must agree with a
driver-side exhaustive computation on small synthetic inputs."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


def _docs_table(n=60, dup_every=7, seed=11):
    """Synthetic docs with planted exact dups and near-dups."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa", "lambda", "mu"]
    texts = []
    for i in range(n):
        body = " ".join(rng.choice(words, size=30))
        if i % dup_every == 1 and i > 0:
            texts.append(texts[i - 1])                     # exact dup
        elif i % dup_every == 2 and i > 1:
            texts.append(texts[i - 2] + " omega")          # near dup
        else:
            texts.append(body)
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array(texts)})


def _brute_jaccard(texts, k=3):
    """Exact shingle-set Jaccard for every pair, driver-side."""
    import zlib
    sets = []
    for t in texts:
        toks = [w for w in __import__("re").split(r"[^a-z0-9]+", t.lower())
                if w]
        sh = set()
        for i in range(len(toks) - k + 1):
            sh.add(tuple(toks[i:i + k]))
        sets.append(sh)
    out = {}
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            u = len(sets[a] | sets[b])
            out[(a, b)] = (len(sets[a] & sets[b]) / u) if u else 0.0
    return out


class TestDedup:
    def test_exact_dedup(self, ray_session):
        from mircv_ray.ops import exact_dedup_keep
        tbl = _docs_table()
        res = exact_dedup_keep(rd.from_arrow(tbl)).to_pandas()
        # ground truth driver-side
        import collections
        groups = collections.defaultdict(list)
        for i, t in enumerate(tbl["text"].to_pylist()):
            groups[t].append(i)
        assert len(res) == len(groups)
        want = sorted((min(v), len(v)) for v in groups.values())
        got = sorted(zip(res["keep_id"], res["n_dups"]))
        assert [tuple(map(int, g)) for g in got] == want

    def test_ngram_jaccard_pairs_exact_values(self, ray_session):
        from mircv_ray.ops import ngram_jaccard_pairs
        tbl = _docs_table()
        res = ngram_jaccard_pairs(rd.from_arrow(tbl), threshold=0.5)
        got = {(int(r["a"]), int(r["b"])): r["jaccard"]
               for r in res.to_pandas().to_dict("records")}
        truth = _brute_jaccard(tbl["text"].to_pylist())
        # every reported pair must carry the EXACT brute-force jaccard
        for (a, b), j in got.items():
            assert truth[(a, b)] == pytest.approx(j)
            assert j >= 0.5
        # exact duplicates (jaccard 1.0) must always be found (any band
        # collides when signatures are identical)
        for (a, b), j in truth.items():
            if j == 1.0:
                assert (a, b) in got

    def test_ngram_jaccard_pairs_star_neg_probes_keyword_only(self):
        """A positional value can never bind to star_neg_probes: the 4th
        positional parameter is threshold, and one past the last
        positional parameter raises instead of binding silently."""
        import inspect

        from mircv_ray.ops import ngram_jaccard_pairs
        params = list(inspect.signature(ngram_jaccard_pairs).parameters)
        assert params[3] == "threshold"
        with pytest.raises(TypeError):
            ngram_jaccard_pairs(None, "text", "doc_id", 0.5, 3, 128, 16, 1,
                                None, 200, True)

    def test_minhash_pairs_find_exact_dups(self, ray_session):
        from mircv_ray.ops import minhash_candidate_pairs
        tbl = _docs_table()
        res = minhash_candidate_pairs(rd.from_arrow(tbl), threshold=0.9)
        got = {(int(r["a"]), int(r["b"]))
               for r in res.select_columns(["a", "b"]).to_pandas()
               .to_dict("records")}
        truth = _brute_jaccard(tbl["text"].to_pylist())
        for (a, b), j in truth.items():
            if j == 1.0:
                assert (a, b) in got

    def test_simhash_identical_docs_zero_hamming(self, ray_session):
        from mircv_ray.ops import near_dup_pairs
        tbl = _docs_table()
        res = near_dup_pairs(rd.from_arrow(tbl), max_hamming=3).to_pandas()
        texts = tbl["text"].to_pylist()
        pairs = {(int(a), int(b)): int(h)
                 for a, b, h in zip(res["a"], res["b"], res["hamming"])}
        for (a, b), h in pairs.items():
            assert h <= 3
        for a in range(len(texts)):
            for b in range(a + 1, len(texts)):
                if texts[a] == texts[b]:
                    assert pairs.get((a, b)) == 0


class TestSimilarity:
    def _emb_table(self, n=80, d=16, seed=5):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, d))
        m[10] = m[3] + 0.01 * rng.standard_normal(d)   # planted near-dup
        m[25] = m[25 - 1]                               # exact dup vector
        return pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), d),
        }), m

    def test_cosine_topk_matches_numpy(self, ray_session):
        from mircv_ray.ops import cosine_topk
        tbl, m = self._emb_table()
        q = m[:3]
        res = cosine_topk(rd.from_arrow(tbl), q, k=5).to_pandas()
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = qn @ mn.T
        for qi in range(3):
            want = np.lexsort((np.arange(len(m)), -sims[qi]))[:5]
            got = res[res["query_id"] == qi].sort_values(
                ["score", "vec_id"], ascending=[False, True])["vec_id"]
            assert list(got) == list(want)

    def test_ivf_recall_with_partial_probe(self, ray_session):
        """IVF with nprobe < nclusters is approximate: recall@10 against
        exact brute force must still be high on clustered data."""
        from mircv_ray.ops import cosine_topk, ivf_build_centroids, ivf_cosine_topk
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((8, 16)) * 4
        m = np.vstack([c + 0.3 * rng.standard_normal((40, 16))
                       for c in centers])
        tbl = pa.table({
            "vec_id": pa.array(np.arange(len(m), dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), 16),
        })
        q = m[:4]
        ds = rd.from_arrow(tbl)
        cents = ivf_build_centroids(ds, n_clusters=8, iters=8)
        exact = cosine_topk(ds, q, k=10).to_pandas()
        approx = ivf_cosine_topk(ds, q, cents, k=10, nprobe=2).to_pandas()
        recalls = []
        for qi in range(4):
            want = set(exact[exact["query_id"] == qi]["vec_id"])
            got = set(approx[approx["query_id"] == qi]["vec_id"])
            recalls.append(len(want & got) / len(want))
        assert sum(recalls) / len(recalls) >= 0.9

    def test_embedding_near_dup_pairs(self, ray_session):
        from mircv_ray.ops import embedding_near_dup_pairs
        tbl, m = self._emb_table()
        res = embedding_near_dup_pairs(rd.from_arrow(tbl),
                                       threshold=0.95).to_pandas()
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        got = {(int(a), int(b)): c
               for a, b, c in zip(res["a"], res["b"], res["cosine"])}
        # reported cosines must be exact
        for (a, b), c in got.items():
            assert mn[a] @ mn[b] == pytest.approx(c)
            assert c >= 0.95
        # the planted exact-duplicate vector is always found (identical
        # sketch -> same bucket in every band)
        assert (24, 25) in got
        assert (3, 10) in got  # planted near-dup, cosine ~0.9999


class TestTextOps:
    def test_token_count_and_quality(self, ray_session):
        from mircv_ray.ops import quality_stats, token_count
        tbl = _docs_table(20)
        tc = rd.from_arrow(tbl).map_batches(
            token_count, batch_format="pyarrow").to_pandas()
        assert (tc["n_tokens"] > 0).all()
        qs = rd.from_arrow(tbl).map_batches(
            quality_stats, batch_format="pyarrow").to_pandas()
        texts = tbl["text"].to_pylist()
        assert list(qs["n_chars"]) == [len(t) for t in texts]
        assert list(qs["n_spaces"]) == [t.count(" ") for t in texts]

    def test_lang_id_shape(self, ray_session):
        from mircv_ray.ops import lang_id
        tbl = _docs_table(20)
        out = rd.from_arrow(tbl).map_batches(
            lang_id, batch_format="pyarrow").to_pandas()
        assert set(out.columns) >= {"doc_id", "lang_pred"}
        assert len(out) == 20

    def test_char_entropy_brute_force(self, ray_session):
        # character (not byte) semantics: multibyte, empty, null,
        # single-char, long repeated — all against collections.Counter
        import math
        from collections import Counter
        from mircv_ray.ops import char_entropy
        texts = ["aabb", "", None, "héllo wörld", "aaaa",
                 "the quick brown fox", "日本語テキスト日本", "ab" * 500]
        tbl = pa.table({
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string())})
        out = rd.from_arrow(tbl).map_batches(
            char_entropy, batch_format="pyarrow").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        for i, s in enumerate(texts):
            s = s or ""
            c, n = Counter(s), len(s)
            ent = (-sum((v / n) * math.log2(v / n) for v in c.values())
                   if n else 0.0)
            ent = math.trunc(ent * 1e4 + 0.5) / 1e4
            assert out["n_chars"][i] == n
            assert abs(out["char_entropy"][i] - ent) < 1e-12


class TestContamination:
    def test_contamination_vs_brute_force(self, ray_session):
        from mircv_ray.ops import contamination_check
        tbl = _docs_table(40)
        texts = tbl["text"].to_pylist()
        probes = ["alpha beta", "kappa", "omega", "never-present-probe",
                  "mu mu"]
        out = (contamination_check(rd.from_arrow(tbl), probes)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        exp_hits = [sum(p in t for p in probes) for t in texts]
        assert list(out["n_probes_hit"]) == exp_hits
        assert list(out["contaminated"]) == [h > 0 for h in exp_hits]
        # planted guarantees: near-dups append " omega" -> some hits,
        # and the never-present probe contributes nowhere
        assert out["contaminated"].any()
        assert not all(out["contaminated"])

    def test_contamination_regex_metachars_and_nulls(self, ray_session):
        from mircv_ray.ops import contamination_check
        tbl = pa.table({
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["cost is $4.99 (sale)", None, "plain"]),
        })
        out = (contamination_check(rd.from_arrow(tbl), ["$4.99 (sale)"])
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert list(out["n_probes_hit"]) == [1, 0, 0]
        assert list(out["contaminated"]) == [True, False, False]

    def test_contamination_matches_oracle_sql(self, ray_session, tmp_path):
        """Driver-gate dry run: Ray result == DuckDB oracle on real
        sf0.001 documents (value-level, same column names)."""
        import duckdb
        import __ray_entry__ as e
        sf = "/root/testdata/sf0.001"
        ray_tbl = e.queries()["contamination"](sf)
        if hasattr(ray_tbl, "to_pandas"):
            ray_df = ray_tbl.to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS "
            f"SELECT * FROM read_parquet('{sf}/documents.parquet')")
        ora = con.execute(e.oracle_sql()["contamination"]).fetchdf()
        assert list(ray_df.columns) == list(ora.columns)
        assert ray_df["n_probes_hit"].astype("int64").tolist() == \
            ora["n_probes_hit"].astype("int64").tolist()
        assert ray_df["contaminated"].astype(bool).tolist() == \
            ora["contaminated"].astype(bool).tolist()
        assert ray_df["contaminated"].any()

    def test_contamination_fuzzy_finds_planted_overlap(self, ray_session):
        from mircv_ray.ops import contamination_fuzzy
        tbl = _docs_table(40)
        texts = tbl["text"].to_pylist()
        # probe 0 == doc 5 verbatim (jaccard 1.0); probe 1 is unrelated
        probes = [texts[5], "xyzzy plugh quux " * 10]
        out = (contamination_fuzzy(rd.from_arrow(tbl), probes,
                                   threshold=0.8)
               .to_pandas().sort_values(["doc_id", "probe_idx"])
               .reset_index(drop=True))
        hits5 = out[(out.doc_id == 5) & (out.probe_idx == 0)]
        assert len(hits5) == 1 and hits5.iloc[0].jaccard == 1.0
        assert (out.probe_idx == 1).sum() == 0        # unrelated probe
        assert (out.doc_id >= 0).all()                # never probe-probe
        # exact-dup docs of doc 5 (if any) also match probe 0; every
        # reported jaccard honors the threshold
        assert (out.jaccard >= 0.8).all()


class TestTopUsersPreTopK:
    """The map-side pre-top-k cut before the final per-type merge is
    lossless, including at tied-total block boundaries."""

    def _events(self):
        import pyarrow as pa
        # 3 types x 60 users; many tied totals (value = user % 7)
        rows = {"event_type": [], "user_id": [], "value": []}
        for t in ("a", "b", "c"):
            for u in range(60):
                rows["event_type"].append(t)
                rows["user_id"].append(u)
                rows["value"].append(float(u % 7))
        return pa.table({
            "event_type": pa.array(rows["event_type"]),
            "user_id": pa.array(rows["user_id"], type=pa.int64()),
            "value": pa.array(rows["value"]),
        })

    def _expected(self, tbl, k=5):
        df = tbl.to_pandas()
        df["total_cents"] = (df.value * 100).round().astype("int64")
        out = []
        for t, g in df.groupby("event_type"):
            g = g.sort_values(["total_cents", "user_id"],
                              ascending=[False, True]).head(k)
            for r, (_, row) in enumerate(g.iterrows(), start=1):
                out.append((t, int(row.user_id), r,
                            int(row.total_cents)))
        return out

    @pytest.mark.parametrize("parts", [1, 16])
    def test_ties_and_partitions(self, ray_session, parts):
        from mircv_ray.ops import top_users_by_type
        tbl = self._events()
        got = (top_users_by_type(rd.from_arrow(tbl).repartition(parts),
                                 k=5)
               .to_pandas().sort_values(["event_type", "rank"])
               .reset_index(drop=True))
        assert [tuple(r) for r in got.itertuples(index=False)] == \
            self._expected(tbl)

    def test_null_event_type_is_one_group(self, ray_session):
        """Rows with a NULL event_type over 3 blocks: NULL is its own
        type, as in SQL's GROUP BY (a groupby on the nullable string
        itself raised in Ray's sort shuffle)."""
        from mircv_ray.ops import top_users_by_type
        types = ["a", None, "b", None, "a", None,
                 "b", None, "a", "a", None, "b"]
        users = [1, 2, 3, 4, 2, 2, 1, 5, 3, 1, 4, 3]
        values = [1.0, 2.5, 3.0, 0.5, 4.0, 1.0,
                  2.0, 7.0, 0.25, 2.0, 1.5, 1.0]
        tbl = pa.table({"event_type": pa.array(types, pa.string()),
                        "user_id": pa.array(users, pa.int64()),
                        "value": pa.array(values)})
        ds = rd.from_arrow([tbl.slice(0, 4), tbl.slice(4, 4),
                            tbl.slice(8, 4)])
        got = top_users_by_type(ds, k=2).take_all()
        totals: dict = {}
        for t, u, v in zip(types, users, values):
            totals[(t, u)] = totals.get((t, u), 0) + round(v * 100)
        want = []
        for t in ("a", "b", None):
            rows = sorted(((-c, u) for (tt, u), c in totals.items()
                           if tt == t))[:2]
            want += [{"event_type": t, "user_id": u, "rank": r,
                      "total_cents": -c}
                     for r, (c, u) in enumerate(rows, start=1)]
        key = lambda r: (r["event_type"] is None, r["event_type"] or "",
                         r["rank"])
        assert sorted(got, key=key) == want


class TestUnigramLogprob:
    def test_matches_brute_force(self, ray_session):
        import math
        import re
        from collections import Counter
        from mircv_ray.ops import unigram_logprob
        tbl = _docs_table(60)
        got = (unigram_logprob(rd.from_arrow(tbl).repartition(8))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        toks = {r["doc_id"]:
                [t for t in re.split(r"[^a-z0-9]+", r["text"].lower())
                 if t] for r in tbl.to_pylist()}
        freq = Counter(t for ts in toks.values() for t in ts)
        total = sum(freq.values())
        for _, row in got.iterrows():
            ts = toks[row.doc_id]
            assert row.n_tokens == len(ts)
            slc = sum(math.log10(freq[t]) for t in ts)
            assert abs(row.sum_log10_count - round(slc, 4)) <= 1e-9
            if ts:
                exp = math.log10(total) - slc / len(ts)
                assert abs(row.avg_neg_logprob - round(exp, 4)) <= 1e-9
            else:
                assert row.avg_neg_logprob == 0.0

    def test_rare_tokens_score_higher(self, ray_session):
        from mircv_ray.ops import unigram_logprob
        tbl = pa.table({
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "text": ["common common common common",
                     "common zyxwvu"],   # one hapax
        })
        out = (unigram_logprob(rd.from_arrow(tbl))
               .to_pandas().sort_values("doc_id"))
        assert out.iloc[1].avg_neg_logprob > out.iloc[0].avg_neg_logprob
