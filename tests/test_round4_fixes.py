"""Round-4 fixes (ADVICE r3 + VERDICT r3 items 2/3/7):

- merge_indexes carries pending tombstones (deleted docs stay deleted);
- an in-place rebuild that changes doc lengths but not n_docs gives new
  readers the new lengths;
- crc32_column handles 64-bit-offset (large_string/large_binary)
  columns and rejects non-binary types;
- pq_cosine_topk_rerank survives an empty ADC candidate set;
- the broadcast-state worker cache is bounded;
- unigram_logprob's partitioned-join vocab path is value-identical to
  the broadcast path;
- interval_join_salted == interval_join (incl. a mega-key and the
  end-check-failure final-null semantics).
"""

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import mircv_ray.ops.equijoin as ej

from mircv_ray.config import IndexConfig
from mircv_ray.sources import generate_corpus_table

CFG = IndexConfig(parse=True, codec="vbyte", num_shards=4, salt_buckets=2)


def _sorted_corpus(n=120, seed=11):
    t = generate_corpus_table(n, seed=seed).drop_columns(["sha256"])
    return t.take(pc.sort_indices(
        t, sort_keys=[("repo", "ascending"), ("path", "ascending")]))


def _build(tbl: pa.Table, out: str, cfg: IndexConfig = CFG):
    import ray.data as rd

    from mircv_ray.build import build_index
    return build_index(rd.from_arrow(tbl), out, cfg)


def _collect(ds, keys):
    import ray
    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return None
    t = pa.concat_tables(tbls).combine_chunks()
    return t.take(pc.sort_indices(
        t, sort_keys=[(k, "ascending") for k in keys]))


# ---------------------------------------------- merge carries tombstones

class TestMergeCarriesTombstones:
    def test_carry_union_with_offset(self, ray_session, tmp_path):
        from mircv_ray.build import (delete_docs, load_tombstones,
                                     merge_indexes)
        corpus = _sorted_corpus()
        base_t, delta_t = corpus.slice(0, 80), corpus.slice(80)
        base, delta = str(tmp_path / "base"), str(tmp_path / "delta")
        s_base = _build(base_t, base)
        _build(delta_t, delta)
        n_base = s_base["n_docs"]
        delete_docs(base, [3, 17, 40])
        delete_docs(delta, [2, 9])
        merge_indexes(base, delta, str(tmp_path / "merged"))
        got = load_tombstones(str(tmp_path / "merged"))
        want = np.unique(np.array([3, 17, 40, n_base + 2, n_base + 9]))
        np.testing.assert_array_equal(got, want)

    def test_deleted_docs_stay_invisible(self, ray_session, tmp_path):
        """Query results from the merged index never contain a doc
        tombstoned on an input — the r3 behavior silently resurrected
        them."""
        from mircv_ray.build import delete_docs, merge_indexes
        from mircv_ray.config import QueryConfig
        from mircv_ray.query import QueryEngine
        corpus = _sorted_corpus()
        base_t, delta_t = corpus.slice(0, 80), corpus.slice(80)
        base, delta = str(tmp_path / "base"), str(tmp_path / "delta")
        _build(base_t, base)
        _build(delta_t, delta)
        merged_clean = str(tmp_path / "m0")
        merge_indexes(base, delta, merged_clean)
        eng = QueryEngine(merged_clean, QueryConfig(k=50))
        probe = "def return value function class import"
        before = [d for d, _ in eng.query(probe)]
        assert before, "probe query must hit something"
        # docno = str(docId - 1) (DocumentIndex.java:82-84)
        vid = int(before[0]) + 1
        if vid <= 80:
            delete_docs(base, [vid])
        else:
            delete_docs(delta, [vid - 80])
        merged = str(tmp_path / "m1")
        merge_indexes(base, delta, merged)
        eng2 = QueryEngine(merged, QueryConfig(k=50))
        after = {d for d, _ in eng2.query(probe)}
        assert before[0] not in after

    def test_no_tombstones_no_sidecar(self, ray_session, tmp_path):
        from mircv_ray.build import load_tombstones, merge_indexes
        corpus = _sorted_corpus()
        base, delta = str(tmp_path / "base"), str(tmp_path / "delta")
        _build(corpus.slice(0, 80), base)
        _build(corpus.slice(80), delta)
        merged = str(tmp_path / "merged")
        merge_indexes(base, delta, merged)
        assert len(load_tombstones(merged)) == 0


# ---------------------------------------------- doc_len.i64 on rebuild

class TestDocLenRebuild:
    def test_inplace_rebuild_same_ndocs_new_lengths(self, ray_session,
                                                    tmp_path, monkeypatch):
        """Rebuilding an index in place from a corpus with the same keys
        but other contents keeps n_docs and changes the doc lengths: new
        readers, dense and memory-mapped, see the new lengths."""
        import ray.data as rd

        import mircv_ray.query.engine as qe
        from mircv_ray.build import build_index
        from mircv_ray.query import IndexReader
        out = str(tmp_path / "idx")
        corpus = _sorted_corpus(60, seed=5)
        s1 = _build(corpus, out)
        old = IndexReader(out).doc_len.copy()
        i = corpus.schema.get_field_index("content")
        # each doc's text twice: blank docs stay blank, so n_docs holds
        longer = corpus.set_column(i, "content", pc.binary_join_element_wise(
            corpus["content"], corpus["content"], " "))
        s2 = build_index(rd.from_arrow(longer), out, CFG,
                         lineage={"corpus": "longer"})
        assert s2["n_docs"] == s1["n_docs"]
        docs = pq.read_table(f"{out}/docs",
                             columns=["doc_id", "doc_len"]).sort_by("doc_id")
        want = docs["doc_len"].to_numpy()
        assert not np.array_equal(want, old)
        np.testing.assert_array_equal(IndexReader(out).doc_len, want)
        monkeypatch.setattr(qe, "DENSE_DOCLEN_MAX_DOCS", 0)
        np.testing.assert_array_equal(IndexReader(out).doc_len, want)


# ---------------------------------------------- crc32 offset widths

class TestCrc32LargeTypes:
    def test_large_string_matches_zlib(self):
        from mircv_ray.util import crc32_column
        vals = ["", "a", "def foo():", "x" * 100, "päß"]
        for typ in (pa.large_string(), pa.large_binary()):
            arr = pa.array([v.encode() if typ == pa.large_binary() else v
                            for v in vals], type=typ)
            got = crc32_column(arr)
            want = np.array([zlib.crc32(v.encode()) for v in vals],
                            dtype=np.uint32)
            np.testing.assert_array_equal(got, want)

    def test_large_equals_narrow(self):
        from mircv_ray.util import crc32_column
        vals = pa.array(["term", "shard", "posting", ""] * 7)
        np.testing.assert_array_equal(
            crc32_column(vals), crc32_column(vals.cast(pa.large_string())))

    def test_sliced_large(self):
        from mircv_ray.util import crc32_column
        arr = pa.array(["aa", "bb", "cc", "dd"], type=pa.large_string())
        got = crc32_column(arr.slice(1, 2))
        want = np.array([zlib.crc32(b"bb"), zlib.crc32(b"cc")],
                        dtype=np.uint32)
        np.testing.assert_array_equal(got, want)

    def test_unsupported_type_raises(self):
        from mircv_ray.util import crc32_column
        with pytest.raises(TypeError, match="unsupported"):
            crc32_column(pa.array([1, 2, 3]))


# ---------------------------------------------- pq rerank empty cands

class TestPqRerankEmptyCandidates:
    def test_empty_codes_ds_returns_empty(self, ray_session):
        import ray.data as rd

        from mircv_ray.ops.similarity import (pq_cosine_topk_rerank,
                                              pq_train)
        rng = np.random.default_rng(2)
        emb = pa.table({
            "vec_id": pa.array(np.arange(64), type=pa.int64()),
            "embedding": pa.array(list(rng.normal(size=(64, 16)))),
        })
        emb_ds = rd.from_arrow(emb)
        books = pq_train(emb_ds, m=4, k=8)
        empty_codes = rd.from_arrow(pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "code": pa.array([], type=pa.binary()),
        }))
        out = pq_cosine_topk_rerank(emb_ds, empty_codes, books,
                                    rng.normal(size=(2, 16)), k=3)
        assert out.count() == 0   # no crash, empty result


# ---------------------------------------------- bounded bcast cache

class TestBcastCacheBound:
    def test_eviction(self, ray_session):
        import ray

        from mircv_ray import util
        util._worker_cache.clear()
        refs = [ray.put(i) for i in range(10)]
        for r in refs:
            assert util._cached_get(r) is not None
        assert len(util._worker_cache) <= 8
        # most recent entry still cached and correct
        assert util._cached_get(refs[-1]) == 9


# ---------------------------------------------- LM join-path parity

class TestLmJoinPathParity:
    def _docs(self):
        rng = np.random.default_rng(9)
        words = ["alpha", "beta", "gamma", "delta", "foo", "bar", "baz",
                 "return", "def", "x1", "y2"]
        texts = [" ".join(rng.choice(words,
                                     size=rng.integers(1, 30)))
                 for _ in range(300)]
        texts += ["", "!!! ???", "   "]          # zero-token docs
        return pa.table({
            "doc_id": pa.array(np.arange(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        })

    def test_join_equals_broadcast(self, ray_session, monkeypatch):
        import ray.data as rd

        from mircv_ray.ops.textops import unigram_logprob
        tbl = self._docs()
        a = _collect(unigram_logprob(
            rd.from_arrow(tbl).repartition(6)), ["doc_id"])
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        b = _collect(unigram_logprob(
            rd.from_arrow(tbl).repartition(6)), ["doc_id"])
        assert a.num_rows == tbl.num_rows        # zero-token docs survive
        assert a.equals(b)

    def test_empty_corpus(self, ray_session, monkeypatch):
        import ray.data as rd

        from mircv_ray.ops.textops import unigram_logprob
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "text": pa.array([], type=pa.string())})
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        out = unigram_logprob(rd.from_arrow(empty))
        assert out.count() == 0


# ---------------------------------------------- salted interval join

ATTACH_IV = {"iv_id": "iv_id", "end": "iv_end"}


class TestSaltedIntervalJoin:
    def _brute(self, left, ivals):
        out = []
        for lr in left.to_pylist():
            cands = [r for r in ivals.to_pylist()
                     if r["k"] == lr["k"] and r["start"] <= lr["t"]]
            best = max(cands, key=lambda r: (r["start"], r["end"]),
                       default=None)
            hit = best if best and lr["t"] <= best["end"] else None
            out.append({**lr,
                        "iv_id": hit["iv_id"] if hit else None,
                        "iv_end": hit["end"] if hit else None})
        out.sort(key=lambda r: r["lid"])
        return out

    def _tables(self, seed=17, n_left=2500, n_keys=8):
        rng = np.random.default_rng(seed)
        rows = {"k": [], "start": [], "end": [], "iv_id": []}
        iv = 0
        for k in range(n_keys):
            m = 60 if k == 0 else 12      # k=0 is the mega-key
            starts = np.sort(rng.choice(10_000, size=m, replace=False))
            for s in starts:              # overlapping intervals allowed
                rows["k"].append(k)
                rows["start"].append(int(s))
                rows["end"].append(int(s + rng.integers(0, 900)))
                rows["iv_id"].append(iv)
                iv += 1
        ivals = pa.table({c: pa.array(v, type=pa.int64())
                          for c, v in rows.items()})
        k_l = np.where(rng.random(n_left) < 0.5, 0,
                       rng.integers(0, n_keys, n_left))
        left = pa.table({
            "k": pa.array(k_l, type=pa.int64()),
            "t": pa.array(rng.integers(0, 11_000, n_left), type=pa.int64()),
            "lid": pa.array(np.arange(n_left), type=pa.int64()),
        })
        return left, ivals

    @pytest.mark.parametrize("salt_width", [150, 1000, 20_000])
    def test_salted_equals_unsalted(self, ray_session, salt_width):
        import ray.data as rd

        from mircv_ray.ops import interval_join, interval_join_salted
        left, ivals = self._tables()
        a = _collect(interval_join(
            rd.from_arrow(left).repartition(8),
            rd.from_arrow(ivals).repartition(4),
            by="k", on="t", start_col="start", end_col="end",
            attach=ATTACH_IV), ["lid"])
        b = _collect(interval_join_salted(
            rd.from_arrow(left).repartition(8),
            rd.from_arrow(ivals).repartition(4),
            by="k", on="t", start_col="start", end_col="end",
            attach=ATTACH_IV, salt_width=salt_width), ["lid"])
        assert a.equals(b), salt_width
        if salt_width == 150:
            assert a.to_pylist() == self._brute(left, ivals)

    def test_end_fail_is_final_null(self, ray_session):
        """A left whose own-bucket latest-starting interval fails the end
        check must NOT fall through to an earlier interval (unsalted
        tests only the latest-starting candidate)."""
        import ray.data as rd

        from mircv_ray.ops import interval_join, interval_join_salted
        ivals = pa.table({
            "k": pa.array([1, 1], type=pa.int64()),
            "start": pa.array([0, 540], type=pa.int64()),
            "end": pa.array([1000, 545], type=pa.int64()),
            "iv_id": pa.array([0, 1], type=pa.int64()),
        })
        # t=550: in-bucket candidate (start 540) fails end check -> null
        # t=700: no in-bucket start; carry hit (start 540) fails -> null
        # t=400: carry hit is iv 0 (start 0), 400 <= 1000 -> match
        left = pa.table({
            "k": pa.array([1, 1, 1], type=pa.int64()),
            "t": pa.array([550, 700, 400], type=pa.int64()),
            "lid": pa.array([0, 1, 2], type=pa.int64()),
        })
        for sw in (300, 10_000):
            got = _collect(interval_join_salted(
                rd.from_arrow(left), rd.from_arrow(ivals),
                by="k", on="t", start_col="start", end_col="end",
                attach=ATTACH_IV, salt_width=sw), ["lid"])
            assert got["iv_id"].to_pylist() == [None, None, 0], sw
        un = _collect(interval_join(
            rd.from_arrow(left), rd.from_arrow(ivals),
            by="k", on="t", start_col="start", end_col="end",
            attach=ATTACH_IV), ["lid"])
        assert un["iv_id"].to_pylist() == [None, None, 0]

    def test_key_without_intervals(self, ray_session):
        import ray.data as rd

        from mircv_ray.ops import interval_join_salted
        left = pa.table({"k": pa.array([5], type=pa.int64()),
                         "t": pa.array([100], type=pa.int64()),
                         "lid": pa.array([0], type=pa.int64())})
        ivals = pa.table({"k": pa.array([1], type=pa.int64()),
                          "start": pa.array([0], type=pa.int64()),
                          "end": pa.array([10], type=pa.int64()),
                          "iv_id": pa.array([0], type=pa.int64())})
        got = _collect(interval_join_salted(
            rd.from_arrow(left), rd.from_arrow(ivals),
            by="k", on="t", start_col="start", end_col="end",
            attach=ATTACH_IV, salt_width=50), ["lid"])
        assert got["iv_id"].to_pylist() == [None]


class TestFixedWidthIdKeys:
    """AttachIds' broadcast lookup uses one contiguous fixed-width
    \\x00-padded 'S<w>' key buffer instead of a per-worker Python-object
    array (round 4: per-worker warmup was ~mapping-sized object churn).
    Padding must preserve bytewise (repo, path) order, including the
    prefix/extension and embedded-NUL cases."""

    def test_order_and_lookup_tricky_keys(self):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from mircv_ray.build.index_build import (AttachIds,
                                                 _fixed_width_keys)

        # prefix pairs, shared prefixes across the separator, and
        # mixed-length repos/paths — sorted by (repo, path)
        rows = [("a", "b"), ("a", "bb"), ("aa", "b"),
                ("ab", ""), ("ab", "c"), ("b", "longer/path/x.py")]
        repo = pa.array([r for r, _ in rows])
        path = pa.array([p for _, p in rows])
        joined = pc.binary_join_element_wise(repo, path, "\x00")
        w = int(pc.max(pc.binary_length(joined)).as_py())
        keys = _fixed_width_keys(joined, w)
        # padded order == original bytewise order
        assert np.all(keys[:-1] < keys[1:])

        # end-to-end lookup through AttachIds against a fake ObjectRef
        # carrying the lookup-ready broadcast payload (width, keys, ids)
        payload = (w, keys,
                   np.arange(1, len(rows) + 1, dtype=np.int64))

        class FakeRef:
            def hex(self):
                return "fixedwidthtest"

        import mircv_ray.build.index_build as ib
        ref = FakeRef()
        real_get = ib.ray.get
        ib.ray.get = lambda r: payload if isinstance(r, FakeRef) else real_get(r)
        try:
            batch = pa.table({
                "repo": pa.array([r for r, _ in reversed(rows)]),
                "path": pa.array([p for _, p in reversed(rows)]),
            })
            out = AttachIds(ref)(batch)
            assert out["doc_id"].to_pylist() == list(
                range(len(rows), 0, -1))
        finally:
            ib.ray.get = real_get
            ib._worker_cache.pop("fixedwidthtest", None)

    def test_empty_mapping(self):
        import pyarrow as pa

        from mircv_ray.build.index_build import _fixed_width_keys
        keys = _fixed_width_keys(pa.array([], type=pa.string()), 4)
        assert len(keys) == 0


class TestStreamBlockEncode:
    """build_segments' vbyte/none encode is one vectorized pass over the
    whole (shard, seg) value stream (codecs.blocks.encode_stream_blocks)
    — round 4: the per-block Python loop made hot term-hash shards the
    build's straggler tasks (10.6 s max vs 1.25 s mean at 32 cpus).
    Must stay byte-identical to encode_blocks called per term."""

    def test_byte_identity_incl_mega_term(self):
        import numpy as np

        from mircv_ray.codecs.blocks import (encode_blocks,
                                             encode_stream_blocks,
                                             split_blocks,
                                             stream_block_bounds)
        rng = np.random.default_rng(7)
        # single-block sizes, the 512-boundary, and multi-block incl. a
        # mega-df term (full skip-block chain)
        dfs = [1, 2, 511, 512, 513, 5000, 120001, 3, 1]
        ids_parts, tfs_parts = [], []
        for df in dfs:
            ids_parts.append(np.sort(rng.choice(
                np.arange(1, 400000), size=df,
                replace=False)).astype(np.int64))
            tfs_parts.append(rng.integers(1, 9, size=df).astype(np.int64))
        ids_all = np.concatenate(ids_parts)
        tfs_all = np.concatenate(tfs_parts)
        df_arr = np.array(dfs, dtype=np.int64)
        bounds = np.cumsum(df_arr) - df_arr

        bb, nb_t = stream_block_bounds(df_arr, 2048)
        ofs = k = 0
        for t, df in enumerate(dfs):
            ranges = split_blocks(df, int(ids_parts[t][-1]), "vbyte", 2048)
            assert nb_t[t] == len(ranges)
            for s, e in ranges:
                assert bb[k] == ofs + s and bb[k + 1] == ofs + e
                k += 1
            ofs += df

        id_buf, id_bounds, tf_buf, tf_bounds = encode_stream_blocks(
            ids_all, tfs_all, bb, bounds)
        ib, tb = bytes(id_buf), bytes(tf_buf)
        k = 0
        for t in range(len(dfs)):
            enc = encode_blocks(ids_parts[t], tfs_parts[t], "vbyte", 2048)
            for bi in range(len(enc["ids"])):
                assert ib[id_bounds[k]:id_bounds[k + 1]] == enc["ids"][bi]
                assert tb[tf_bounds[k]:tf_bounds[k + 1]] == enc["tfs"][bi]
                k += 1
        assert k == len(bb) - 1

    def test_empty_stream(self):
        import numpy as np

        from mircv_ray.codecs.blocks import (encode_stream_blocks,
                                             stream_block_bounds)
        bb, nb = stream_block_bounds(np.zeros(0, dtype=np.int64))
        assert len(bb) == 1 and len(nb) == 0
        ib, ibo, tfb, tfo = encode_stream_blocks(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            bb, np.zeros(0, dtype=np.int64))
        assert ib == b"" and tfb == b""


# ------------------------------------------------ round-5 review fixes

class TestShortDocFalseDuplicates:
    def test_minhash_short_docs_never_pair(self, ray_session):
        # round-5 review: docs with fewer than shingle_k tokens share
        # the sentinel signature and must NOT pair (confirmed live
        # before the fix: "hi" vs "good morning" at est 1.0)
        import ray.data as rd
        from mircv_ray.ops import minhash_candidate_pairs
        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["hi", "good morning", None,
                     "a real document with enough tokens to shingle "
                     "a real document with enough tokens to shingle"],
        })
        out = minhash_candidate_pairs(rd.from_arrow(t),
                                      threshold=0.5).to_pandas()
        assert len(out) == 0

    def test_simhash_empty_docs_never_pair(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import near_dup_pairs
        t = pa.table({
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": ["!!!", "???", "regular words here"],
        })
        out = near_dup_pairs(rd.from_arrow(t),
                             max_hamming=3).to_pandas()
        assert len(out) == 0

    def test_bands_must_divide_num_perm(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import minhash_candidate_pairs
        t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                      "text": ["some words in a longer doc here ok"]})
        with pytest.raises(ValueError, match="divide"):
            minhash_candidate_pairs(rd.from_arrow(t), bands=12,
                                    num_perm=64).to_pandas()


class TestContaminationFuzzyProbeStar:
    def test_two_probes_in_one_hot_bucket_both_report(self, ray_session):
        # round-5 review: with two near-identical probes and a bucket
        # larger than the star cap, BOTH probes must report their docs
        import ray.data as rd
        from mircv_ray.ops import contamination_fuzzy
        base = ("alpha beta gamma delta epsilon zeta eta theta iota "
                "kappa " * 4)
        p1 = base + "one"
        p2 = base + "two"
        docs = [base + ("one" if i % 2 else "two") for i in range(24)]
        t = pa.table({"doc_id": pa.array(range(len(docs)),
                                         type=pa.int64()),
                      "text": pa.array(docs)})
        # max_bucket=5 FORCES the star-cap path on every bucket
        out = contamination_fuzzy(
            rd.from_arrow(t), [p1, p2], threshold=0.5,
            max_bucket=5).to_pandas()
        # every doc is >= 0.5-jaccard to BOTH probes; with the tiny
        # star cap the old code lost one probe's pairs entirely
        assert set(out.probe_idx) == {0, 1}
        per_probe = out.groupby("probe_idx").doc_id.nunique()
        assert per_probe.min() == len(docs)


class TestSimilarityEmptyGuards:
    def test_mmr_and_rocchio_empty_corpus(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import mmr_rerank, rocchio_dense
        empty = rd.from_arrow(pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "embedding": pa.array([], type=pa.list_(pa.float64())),
        }))
        q = np.ones((2, 4))
        assert mmr_rerank(empty, q, k=1, n_cand=2).num_rows == 0
        assert rocchio_dense(empty, q).num_rows == 0

    def test_pq_train_rejects_k_over_256(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import pq_train
        rng = np.random.default_rng(0)
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(50), type=pa.int64()),
            "embedding": pa.array([rng.normal(size=8).tolist()
                                   for _ in range(50)]),
        }))
        with pytest.raises(ValueError, match="256"):
            pq_train(ds, m=2, k=512)


class TestNullSemanticsReviewBatch4:
    def test_lang_id_null_text(self, ray_session):
        from mircv_ray.ops.textops import lang_id
        t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                      "text": pa.array(["the of and to in is that",
                                        None])})
        out = lang_id(t).to_pylist()
        assert out[0]["lang_pred"] == "en"
        assert out[1] == {"doc_id": 2, "lang_pred": "unknown",
                          "lang_votes": 0}

    def test_exact_distinct_sql_null_semantics(self, ray_session):
        # NULL values never count (SQL COUNT(DISTINCT)); a group whose
        # every value is NULL still appears with 0
        import ray.data as rd
        from mircv_ray.ops import exact_distinct_per_group
        t = pa.table({"g": ["a", "a", "a", "b", "b"],
                      "v": ["x", None, "x", None, None]})
        out = (exact_distinct_per_group(rd.from_arrow(t), "g", "v")
               .to_pandas().set_index("g").n_distinct.to_dict())
        assert out == {"a": 1, "b": 0}

    def test_hll_and_cm_tolerate_nulls(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import cm_build, hll_distinct_per_group
        t = pa.table({"g": ["a", None, "a", "b"],
                      "v": ["x", "y", None, "z"]})
        out = (hll_distinct_per_group(rd.from_arrow(t), "g", "v")
               .to_pandas().set_index("g").n_distinct_hll.to_dict())
        assert out == {"a": 1, "b": 1}          # null rows dropped
        sk = cm_build(rd.from_arrow(pa.table({
            "k": pa.array(["x", None, "x"])})), key_col="k")
        assert sk is not None

    def test_hits_edge_to_unknown_node(self, ray_session):
        # an edge dst absent from the nodes table used to crash the
        # final pivot with unequal column lengths
        import ray.data as rd
        from mircv_ray.ops import hits
        nodes = rd.from_arrow(pa.table({
            "node": pa.array([1, 2], type=pa.int64())}))
        edges = rd.from_arrow(pa.table({
            "src": pa.array([1, 2], type=pa.int64()),
            "dst": pa.array([2, 7], type=pa.int64())}))  # 7 unknown
        out = hits(edges, nodes, n_iter=3).to_pandas() \
            .set_index("node")
        assert 7 in out.index
        assert out.loc[7].authority > 0
        assert out.loc[7].hub == 0.0
