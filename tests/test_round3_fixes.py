"""Round-3 fixes: driver-free doc lengths, vectorized term sharding,
fingerprinted checkpoint resume (VERDICT r2 items 1/10 + ADVICE r2)."""

import zlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mircv_ray.config import IndexConfig
from mircv_ray.sources import generate_corpus_table

N_DOCS = 120


def _corpus(ray_session):
    import ray.data as rd
    table = generate_corpus_table(N_DOCS, seed=7)
    return rd.from_arrow(table.drop_columns(["sha256"]))


# ------------------------------------------------------------- crc32

class TestCrc32Column:
    def test_matches_zlib(self):
        from mircv_ray.util import crc32_column
        rng = np.random.default_rng(0)
        vals = ["", "a", "def", "x" * 63, "päß", "\x00\x01", "return"]
        vals += ["".join(chr(rng.integers(33, 127)) for _ in
                         range(rng.integers(1, 64))) for _ in range(200)]
        got = crc32_column(pa.array(vals, type=pa.string()))
        want = np.array([zlib.crc32(v.encode()) for v in vals],
                        dtype=np.uint32)
        assert (got == want).all()

    def test_sliced_and_binary(self):
        from mircv_ray.util import crc32_column
        arr = pa.array([b"abc", b"", b"hello world", b"\xff\x00"],
                       type=pa.binary())
        got = crc32_column(arr.slice(1, 3))
        want = np.array([zlib.crc32(b""), zlib.crc32(b"hello world"),
                         zlib.crc32(b"\xff\x00")], dtype=np.uint32)
        assert (got == want).all()

    def test_empty(self):
        from mircv_ray.util import crc32_column
        assert len(crc32_column(pa.array([], type=pa.string()))) == 0

    def test_term_shard_unchanged(self):
        """Shard assignment must stay crc32-stable (index layout parity)."""
        from mircv_ray.build.index_build import term_shard
        terms = ["def", "return", "posting", "a" * 63]
        got = term_shard(terms, 16)
        want = [zlib.crc32(t.encode()) % 16 for t in terms]
        assert got.tolist() == want


# ------------------------------------------------- doc-length file (J2)

class TestDocLenSidecar:
    """doc_len.i64 holds docs/ (doc_id, doc_len) densely at docId-1, from
    the broadcast path's assign task and from the scale path's writer
    alike."""

    def test_sidecar_matches_docs(self, ray_session, tmp_path):
        self._check(ray_session, tmp_path)

    def test_scale_path_file_matches_docs(self, ray_session, tmp_path,
                                          monkeypatch):
        from mircv_ray.build import index_build as ib
        monkeypatch.setattr(ib, "DRIVER_IDMAP_MAX_ROWS", 0)
        self._check(ray_session, tmp_path)

    def _check(self, ray_session, tmp_path):
        from mircv_ray.build import build_index
        out = tmp_path / "idx"
        cfg = IndexConfig(num_shards=4, salt_buckets=3)
        stats = build_index(_corpus(ray_session), str(out), cfg)
        lens = np.fromfile(out / "doc_len.i64", dtype=np.int64)
        docs = pq.read_table(str(out / "docs"),
                             columns=["doc_id", "doc_len"]).sort_by("doc_id")
        assert docs["doc_id"].to_pylist() == list(range(1, len(lens) + 1))
        assert lens.tolist() == docs["doc_len"].to_pylist()
        assert stats["total_doc_len"] == int(lens.sum())

    def test_seg_bounds_cover_all_docs(self):
        from mircv_ray.build.index_build import _seg_bounds
        for n, salt in [(0, 4), (3, 8), (100, 7), (1, 1)]:
            spans = [_seg_bounds(s, n, salt) for s in range(salt)]
            assert spans[0][0] == 0 and spans[-1][1] == n
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c
            # matches the explode-side assignment
            for did in range(1, n + 1):
                s = (did - 1) * salt // n
                lo, hi = spans[s]
                assert lo <= did - 1 < hi


# ------------------------------------- fingerprinted resume (ADVICE r2)

class TestFingerprintResume:
    def test_codec_change_rebuilds_postings(self, ray_session, tmp_path):
        from mircv_ray.build import build_index, read_manifest
        from mircv_ray.query import IndexReader
        out = str(tmp_path / "idx")
        ds = _corpus(ray_session)
        build_index(ds, out, IndexConfig(num_shards=4, codec="vbyte"))
        stamp1 = read_manifest(out, "postings")["completed_at"]
        # same dir, changed codec: postings+lexicon must NOT be resumed
        stats2 = build_index(ds, out, IndexConfig(num_shards=4, codec="none"))
        assert read_manifest(out, "postings")["completed_at"] != stamp1
        assert read_manifest(out, "postings")["codec"] == "none"
        reader = IndexReader(out)
        assert reader.codec == "none"
        assert stats2["codec"] == "none"

    def test_parse_change_rebuilds_docs(self, ray_session, tmp_path):
        from mircv_ray.build import build_index, read_manifest
        out = str(tmp_path / "idx")
        ds = _corpus(ray_session)
        s1 = build_index(ds, out, IndexConfig(num_shards=4, parse=True))
        s2 = build_index(ds, out, IndexConfig(num_shards=4, parse=False))
        # unparsed keeps stopwords: strictly more distinct terms
        assert s2["num_terms"] > s1["num_terms"]
        assert read_manifest(out, "docs")["fingerprint"]["parse"] is False

    def test_same_config_still_resumes(self, ray_session, tmp_path):
        from mircv_ray.build import build_index, read_manifest
        out = str(tmp_path / "idx")
        ds = _corpus(ray_session)
        cfg = IndexConfig(num_shards=4, salt_buckets=2)
        build_index(ds, out, cfg)
        stamps = {st: read_manifest(out, st)["completed_at"]
                  for st in ("docs", "postings", "lexicon")}
        build_index(ds, out, cfg)
        for st, t in stamps.items():
            assert read_manifest(out, st)["completed_at"] == t, st

    def test_mr_partial_wiped_on_salt_change(self, ray_session, tmp_path):
        """Crashed mr build + changed salt_buckets: stale partition files
        must be wiped, not resumed beside new ones (ADVICE r2 medium)."""
        from mircv_ray.build import build_index
        from mircv_ray.oracle import OracleIndex
        out = tmp_path / "idx"
        ds = _corpus(ray_session)
        build_index(ds, str(out),
                    IndexConfig(num_shards=4, salt_buckets=2))
        # simulate crash mid-postings: stage manifests gone, files remain
        (out / "_manifests" / "postings.json").unlink()
        (out / "_manifests" / "lexicon.json").unlink()
        stats = build_index(
            ds, str(out),
            IndexConfig(num_shards=4, salt_buckets=3))
        # no stale seg files: every shard dir holds segs < 3 only, and
        # the rebuilt index matches the oracle posting count exactly
        for d in (out / "postings").glob("shard=*"):
            segs = sorted(int(f.stem.split("-")[1])
                          for f in d.glob("seg-*.parquet"))
            assert all(s < 3 for s in segs), (d, segs)
        oracle = OracleIndex.build(
            generate_corpus_table(N_DOCS, seed=7).to_pylist(), parse=True)
        assert stats["metrics"]["n_postings"] == sum(
            len(v) for v in oracle.postings.values())

    def test_docs_rebuild_invalidates_downstream(self, ray_session, tmp_path):
        """Postings built against docs run A must not survive a docs
        rebuild (docs completed_at is part of the postings fingerprint)."""
        from mircv_ray.build import build_index, read_manifest
        out = str(tmp_path / "idx")
        ds = _corpus(ray_session)
        cfg = IndexConfig(num_shards=4)
        build_index(ds, out, cfg)
        # force a docs rerun only (manifest gone), keep postings manifest
        (Path(out) / "_manifests" / "docs.json").unlink()
        build_index(ds, out, cfg)
        docs_stamp = read_manifest(out, "docs")["completed_at"]
        assert read_manifest(
            out, "postings")["fingerprint"]["docs_completed_at"] == docs_stamp


# ---------------------------------------------- LSH star pairs (r2 item 2)

class TestStarPairsOverCap:
    def test_pair_rows_star_expansion(self):
        """A run larger than max_bucket emits star pairs against the
        run's first row instead of nothing (the r2 silent-drop bug)."""
        from mircv_ray.ops.dedup import _pair_rows_in_partition
        # two runs: key 1 x5 (over cap 3), key 2 x3 (at cap)
        keys = [np.array([1, 1, 1, 1, 1, 2, 2, 2], dtype=np.int64)]
        ra, rb, n_capped = _pair_rows_in_partition(keys, max_bucket=3)
        assert n_capped == 1
        pairs = set(zip(ra.tolist(), rb.tolist()))
        # capped run: star (0,1)(0,2)(0,3)(0,4); uncapped run: full triu
        assert {(0, 1), (0, 2), (0, 3), (0, 4)} <= pairs
        assert {(5, 6), (5, 7), (6, 7)} <= pairs
        assert len(pairs) == 7
        assert not any(a >= b for a, b in pairs)

    def test_pair_rows_uncapped_unchanged(self):
        from mircv_ray.ops.dedup import _pair_rows_in_partition
        keys = [np.array([3, 3, 4, 4, 4], dtype=np.int64)]
        ra, rb, n_capped = _pair_rows_in_partition(keys, max_bucket=200)
        assert n_capped == 0
        assert set(zip(ra.tolist(), rb.tolist())) == {
            (0, 1), (2, 3), (2, 4), (3, 4)}

    def test_300_identical_docs_all_connected(self, ray_session):
        """VERDICT r2 item 2's done-criterion: a 300-copy duplicate
        cluster (bucket size 300 > max_bucket 200) must keep every
        member reachable (directly or transitively) in minhash output."""
        import ray.data as rd
        from mircv_ray.ops import minhash_candidate_pairs
        n_dup, n_other = 300, 20
        rng = np.random.default_rng(3)
        words = ["red", "green", "blue", "cyan", "teal", "plum", "gold"]
        texts = ["the same exact duplicated document body here"] * n_dup
        texts += [" ".join(rng.choice(words, size=25))
                  for _ in range(n_other)]
        tbl = pa.table({
            "doc_id": pa.array(np.arange(n_dup + n_other, dtype=np.int64)),
            "text": pa.array(texts)})
        res = minhash_candidate_pairs(rd.from_arrow(tbl), threshold=0.9) \
            .to_pandas()
        # union-find over reported pairs
        parent = list(range(n_dup + n_other))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(res["a"], res["b"]):
            parent[find(int(a))] = find(int(b))
        roots = {find(i) for i in range(n_dup)}
        assert len(roots) == 1, "300-dup cluster split by the bucket cap"
        assert (res["jaccard_est"] == 1.0).all() or \
            (res[res["a"] < n_dup]["jaccard_est"] == 1.0).all()


# ------------------------------------- adaptive broadcast verify (item 3)

class TestAdaptiveBroadcastParity:
    """The broadcast (small-state) and partitioned-join (100-TB) verify
    paths must produce identical pairs — parameterized over the
    threshold so BOTH paths run on the same input."""

    def _pairs_df(self, ds_fn, monkeypatch, max_bytes):
        import mircv_ray.ops.equijoin as ej
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", max_bytes)
        df = ds_fn().to_pandas()
        return df.sort_values(["a", "b"]).reset_index(drop=True)

    @pytest.mark.parametrize("op", ["minhash", "ngram", "embedding"])
    def test_paths_identical(self, ray_session, monkeypatch, op):
        import pandas as pd
        import ray.data as rd
        from mircv_ray.ops import (embedding_near_dup_pairs,
                                   minhash_candidate_pairs,
                                   ngram_jaccard_pairs)
        rng = np.random.default_rng(17)
        if op == "embedding":
            base = rng.normal(size=(40, 16))
            base[1] = base[0] + 0.001 * rng.normal(size=16)  # near dup
            base[7] = base[6]                                # exact dup
            tbl = pa.table({
                "vec_id": pa.array(np.arange(40, dtype=np.int64)),
                "embedding": pa.array(list(base.astype(np.float64))),
            })
            fn = lambda: embedding_near_dup_pairs(
                rd.from_arrow(tbl), threshold=0.9, id_col="vec_id")
        else:
            words = ["ash", "oak", "elm", "fir", "yew", "bay", "box"]
            texts = [" ".join(rng.choice(words, size=30)) for _ in range(50)]
            texts[11] = texts[10]
            texts[21] = texts[20] + " extra"
            tbl = pa.table({
                "doc_id": pa.array(np.arange(50, dtype=np.int64)),
                "text": pa.array(texts)})
            mk = (minhash_candidate_pairs if op == "minhash"
                  else ngram_jaccard_pairs)
            fn = lambda: mk(rd.from_arrow(tbl), threshold=0.5)
        via_bcast = self._pairs_df(fn, monkeypatch, 1 << 40)
        via_join = self._pairs_df(fn, monkeypatch, 0)
        assert len(via_bcast) > 0
        pd.testing.assert_frame_equal(via_bcast, via_join)


# --------------------------------------------- _pack_rows overflow guard

class TestPackRowsGuard:
    def test_over_2gib_raises(self):
        from mircv_ray.ops.dedup import _pack_rows
        mat = np.zeros(((1 << 31) // 8 + 1, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="2 GiB"):
            _pack_rows(mat)

    def test_small_roundtrip(self):
        from mircv_ray.ops.dedup import _pack_rows, _unpack_fixed
        mat = np.arange(12, dtype=np.uint64).reshape(3, 4)
        packed = _pack_rows(mat)
        back = _unpack_fixed(pa.chunked_array([packed]), np.uint64, 4)
        assert np.array_equal(back, mat)


# ------------------------------- mmap doc lengths (VERDICT r2 item 7)

class TestMmapDocLengths:
    """Above DENSE_DOCLEN_MAX_DOCS the reader memory-maps the index's
    doc_len.i64 instead of loading O(n_docs) per actor; scores must stay
    bit-identical to the dense path."""

    @pytest.fixture(scope="class")
    def index_dir(self, ray_session, tmp_path_factory):
        from mircv_ray.build import build_index
        out = str(tmp_path_factory.mktemp("mmapidx") / "idx")
        build_index(_corpus(ray_session), out,
                    IndexConfig(parse=True, num_shards=4))
        return out

    def _results(self, index_dir, algo="maxscore"):
        from mircv_ray.config import QueryConfig
        from mircv_ray.query import QueryEngine
        eng = QueryEngine(index_dir,
                          QueryConfig(standard="BM25", k=10, parse=True,
                                      algo=algo))
        queries = ["def return value", "import class self",
                   "read write buffer", "hash map set"]
        out = [eng.query(q) for q in queries]
        out.append(eng.score_terms_strict_and(
            eng.query_terms("def return")))
        return eng, out

    def test_mmap_path_bit_identical(self, index_dir, monkeypatch):
        import mircv_ray.query.engine as qe
        eng_d, dense = self._results(index_dir)
        assert not isinstance(eng_d.reader.doc_len, np.memmap)
        assert eng_d.reader._bj is not None
        monkeypatch.setattr(qe, "DENSE_DOCLEN_MAX_DOCS", 0)
        eng_m, mmapped = self._results(index_dir)
        assert isinstance(eng_m.reader.doc_len, np.memmap)
        assert eng_m.reader._bj is None          # never materialized
        assert dense == mmapped                  # exact float equality
        # bj_at parity on a vector of indices
        idx = np.arange(eng_d.reader.n_docs, dtype=np.int64)
        assert np.array_equal(eng_d.reader.bj_at(idx),
                              eng_m.reader.bj_at(idx))

    def test_sidecar_built_once_and_reused(self, index_dir, monkeypatch):
        """The build writes doc_len.i64 once; readers of either kind only
        read it and create no file of their own."""
        import mircv_ray.query.engine as qe
        from mircv_ray.query import IndexReader
        p = Path(index_dir) / "doc_len.i64"
        files = sorted(Path(index_dir).iterdir())
        stamp = p.stat().st_mtime_ns
        r1 = IndexReader(index_dir)
        monkeypatch.setattr(qe, "DENSE_DOCLEN_MAX_DOCS", 0)
        r2 = IndexReader(index_dir)
        assert p.stat().st_size == 8 * r1.n_docs
        assert p.stat().st_mtime_ns == stamp     # read, not rewritten
        assert sorted(Path(index_dir).iterdir()) == files
        assert np.array_equal(r1.doc_len, np.asarray(r2.doc_len))

    def test_taat_guard_on_huge_index(self, index_dir, monkeypatch):
        """auto-algo must not allocate dense accumulators when n_docs
        exceeds the dense ceiling — the disjunctive query falls back to
        the accumulator-free MaxScore walk, same results."""
        import mircv_ray.query.engine as qe
        from mircv_ray.config import QueryConfig
        from mircv_ray.query import QueryEngine
        eng_auto_dense = QueryEngine(index_dir, QueryConfig(
            standard="BM25", k=10, parse=True))
        want = eng_auto_dense.query("def return value function")
        monkeypatch.setattr(qe, "DENSE_DOCLEN_MAX_DOCS", 0)
        eng = QueryEngine(index_dir, QueryConfig(standard="BM25", k=10,
                                                 parse=True))
        got = eng.query("def return value function")
        assert eng._acc is None                  # TAAT never ran
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, sa), (_, sb) in zip(got, want):
            assert sa == pytest.approx(sb, abs=0, rel=0) or sa == sb


# ----------------------------------------- ADVICE r2 lows: TSV pids, prefetch

class TestTsvPidPadding:
    def _tsv_ds(self, tmp_path, lines):
        from mircv_ray.sources.corpus import collection_tsv_as_corpus
        p = tmp_path / "collection.tsv"
        p.write_text("".join(f"{pid}\t{txt}\n" for pid, txt in lines))
        return collection_tsv_as_corpus(str(p))

    def test_per_value_padding_in_mixed_collection(self, ray_session,
                                                   tmp_path):
        """Padding is a pure function of each pid — numeric pids pad,
        non-numeric pass through, regardless of which batch they share
        (the r2 per-batch pc.all decision flipped whole batches)."""
        ds = self._tsv_ds(tmp_path, [("3", "alpha beta"),
                                     ("x9", "gamma delta"),
                                     ("12", "epsilon zeta")])
        paths = sorted(ds.to_pandas()["path"])
        assert paths == ["000000000003", "000000000012", "x9"]

    def test_all_numeric_keeps_pid_order_contract(self, ray_session,
                                                  tmp_path):
        ds = self._tsv_ds(tmp_path, [("10", "a b"), ("2", "c d"),
                                     ("1", "e f")])
        paths = sorted(ds.to_pandas()["path"])
        assert paths == ["000000000001", "000000000002", "000000000010"]

    def test_overwide_numeric_pid_raises(self, ray_session, tmp_path):
        ds = self._tsv_ds(tmp_path, [("1234567890123", "too wide")])
        with pytest.raises(Exception, match="12-digit"):
            ds.to_pandas()


class TestPrefetchEmptyShardStub:
    def test_prefetch_survives_stub_shard(self, ray_session, tmp_path):
        """A shard the lexicon routes to but whose files yield no row
        groups must not break pa.concat_tables in prefetch (ADVICE r2:
        empty stub's blocks type is list<struct<>>)."""
        from mircv_ray.build import build_index
        from mircv_ray.query import IndexReader
        out = str(tmp_path / "idx")
        build_index(_corpus(ray_session), out,
                    IndexConfig(parse=True, num_shards=4))
        r = IndexReader(out)
        terms = [t for t in ("return", "def", "import", "value")
                 if t in r._lex]
        assert len(terms) >= 2
        shards = {r._lex[t][4] for t in terms}
        assert len(shards) >= 2, "fixture terms must span 2+ shards"
        # one shard's metadata claims no files -> stub table path
        starved = next(iter(shards))
        orig = r._shard_meta

        def fake_meta(shard):
            return [] if shard == starved else orig(shard)

        r._shard_meta = fake_meta
        r.prefetch(terms)          # must not raise
        cached = [t for t in terms if t in r._cache]
        assert cached, "non-starved shards still cache their terms"
        assert all(r._lex[t][4] != starved for t in cached)
