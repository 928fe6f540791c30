"""End-to-end: Ray build + query engine vs the pure-Python oracle
(SURVEY.md §5 "reference-semantics oracle" plan)."""

import numpy as np
import pyarrow as pa
import pytest

from mircv_ray.codecs.blocks import decode_block_ids, decode_block_tfs
from mircv_ray.config import IndexConfig, QueryConfig
from mircv_ray.oracle import OracleIndex
from mircv_ray.query import IndexReader, QueryEngine
from mircv_ray.sources import generate_corpus_table

N_DOCS = 150
QUERIES = [
    "def return value",
    "posting term lexicon query",
    "uniq5token",              # rare term
    "the of and",              # all stopwords (parse mode -> no results)
    "xkcdqz def",  # unknown term silently ignored
    "def def return",          # duplicate query terms
    "hash map set list dict array",
    "running runs runner",
]


def _corpus_rows():
    return generate_corpus_table(N_DOCS, seed=42).to_pylist()


def _decode_term_postings(reader, term):
    lex = reader.lexicon_entry(term)
    assert lex is not None
    bmax, bn, bbase, ibufs, tbufs, _, _ = reader._fetch_blocks(term, lex[4])
    ids, tfs = [], []
    for mx, n, base, ib, tb in zip(bmax, bn, bbase, ibufs, tbufs):
        ids.append(decode_block_ids(ib, reader.codec, int(n), int(mx), int(base)))
        tfs.append(decode_block_tfs(tb, reader.codec, int(n)))
    return np.concatenate(ids), np.concatenate(tfs)


@pytest.fixture(scope="module", params=["parsed", "not_parsed"])
def built(request, ray_session, tmp_path_factory):
    import ray.data as rd
    parse = request.param == "parsed"
    out = str(tmp_path_factory.mktemp(f"idx_{request.param}"))
    table = generate_corpus_table(N_DOCS, seed=42)
    cfg = IndexConfig(parse=parse, codec="vbyte", num_shards=4, salt_buckets=2)
    from mircv_ray.build import build_index
    stats = build_index(rd.from_arrow(table.drop_columns(["sha256"])), out, cfg)
    oracle = OracleIndex.build(_corpus_rows(), parse=parse)
    return out, stats, oracle, parse


class TestBuildParity:
    def test_stats(self, built):
        out, stats, oracle, _ = built
        assert stats["n_docs"] == oracle.n_docs
        assert stats["total_doc_len"] == oracle.total_doc_len
        assert stats["num_terms"] == len(oracle.postings)
        # below MR2_TREE_FANIN map tasks the exchange's merge tree is dormant
        assert stats["metrics"]["postings_sub"]["n_combines"] == 0

    def test_doc_table(self, built):
        import pyarrow.parquet as pq
        out, stats, oracle, _ = built
        t = pq.read_table(f"{out}/docs").sort_by("doc_id")
        assert t.num_rows == oracle.n_docs
        for i in range(t.num_rows):
            did = t["doc_id"][i].as_py()
            meta = oracle.doc_meta[did]
            assert t["repo"][i].as_py() == meta["repo"]
            assert t["path"][i].as_py() == meta["path"]
            assert t["doc_len"][i].as_py() == oracle.doc_len[did]
            assert t["sha256"][i].as_py() == meta["sha256"]

    def test_sha256_invariant_vs_input(self, built):
        """BASELINE.json per-row invariant: sha256(content) equality."""
        import pyarrow.parquet as pq
        out, *_ = built
        src = generate_corpus_table(N_DOCS, seed=42)
        expected = dict(zip(
            [f"{r}//{p}" for r, p in zip(src["repo"].to_pylist(),
                                         src["path"].to_pylist())],
            src["sha256"].to_pylist()))
        t = pq.read_table(f"{out}/docs")
        for i in range(t.num_rows):
            key = f"{t['repo'][i].as_py()}//{t['path'][i].as_py()}"
            assert t["sha256"][i].as_py() == expected[key]

    def test_lexicon_and_postings(self, built):
        out, stats, oracle, _ = built
        reader = IndexReader(out)
        olex = oracle.lexicon()
        assert set(reader._lex) == set(olex)
        for term, o in olex.items():
            df, idf, bm25_ub, tfidf_ub, shard = reader._lex[term]
            assert df == o["df"], term
            assert idf == pytest.approx(o["idf"], abs=1e-12)
            assert bm25_ub == pytest.approx(o["bm25_ub"], abs=1e-12)
            assert tfidf_ub == pytest.approx(o["tfidf_ub"], abs=1e-12)
        # postings payload: every term decodes to the oracle's (ids, tfs)
        for term in list(olex)[::7] + ["uniq5token" if not oracle.parse
                                       else "uniq5token"]:
            if term not in olex:
                continue
            ids, tfs = _decode_term_postings(reader, term)
            oids, otfs = oracle.posting_list(term)
            assert ids.tolist() == oids, term
            assert tfs.tolist() == otfs, term
            assert np.all(np.diff(ids) > 0)  # strictly ascending (O3)


class TestQueryParity:
    @pytest.mark.parametrize("standard", ["BM25", "TFIDF"])
    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_topk_vs_oracle(self, built, standard, conjunctive):
        out, stats, oracle, parse = built
        eng = QueryEngine(out, QueryConfig(standard=standard, k=10,
                                           parse=parse))
        for q in QUERIES:
            terms = eng.query_terms(q, sort_terms=True)
            got = eng.score_terms(terms, conjunctive=conjunctive)
            exp = oracle.score_query(terms, standard=standard, k=10,
                                     conjunctive=conjunctive)
            got_ids = [d for d, _ in got]
            exp_ids = [d for d, _ in exp]
            assert got_ids == exp_ids, (q, standard, conjunctive, got, exp)
            for (gd, gs), (ed, es) in zip(got, exp):
                assert gs == pytest.approx(es, rel=1e-9), (q, gd)

    def test_empty_and_unknown_queries(self, built):
        out, stats, oracle, parse = built
        eng = QueryEngine(out, QueryConfig(standard="BM25", k=10, parse=parse))
        assert eng.query("xkcdqz") == []
        if parse:
            assert eng.query("the of and") == []  # all stopwords

    def test_docno_mapping(self, built):
        out, stats, oracle, parse = built
        eng = QueryEngine(out, QueryConfig(standard="BM25", k=5, parse=parse))
        res = eng.query("def return value")
        for docno, _ in res:
            assert 0 <= int(docno) < oracle.n_docs  # docno = docId-1


class TestDeterminism:
    def test_salt_and_shard_invariance(self, ray_session, tmp_path):
        """Same corpus, different partitioning knobs -> identical lexicon
        and identical decoded postings (F6 requirement)."""
        import ray.data as rd
        import pyarrow.parquet as pq
        from mircv_ray.build import build_index
        table = generate_corpus_table(80, seed=7)
        cfgs = [IndexConfig(parse=True, num_shards=2, salt_buckets=1),
                IndexConfig(parse=True, num_shards=8, salt_buckets=4)]
        readers = []
        for i, cfg in enumerate(cfgs):
            out = str(tmp_path / f"idx{i}")
            build_index(rd.from_arrow(table.drop_columns(["sha256"])), out, cfg)
            readers.append(IndexReader(out))
        a, b = readers
        assert set(a._lex) == set(b._lex)
        for term in a._lex:
            assert a._lex[term][:2] == b._lex[term][:2]  # df, idf
            ia, ta = _decode_term_postings(a, term)
            ib, tb = _decode_term_postings(b, term)
            assert ia.tolist() == ib.tolist()
            assert ta.tolist() == tb.tolist()

    def test_exchange_invariance(self, ray_session, tmp_path,
                                 monkeypatch):
        """The postings exchange with its reduce merge tree FORCED on
        (fan-in 2 over ~9 map tasks of 8 docs) must produce the oracle's
        lexicon and postings: the tree must be invisible in the output."""
        import ray.data as rd
        from mircv_ray.build import build_index
        from mircv_ray.build import index_build
        table = generate_corpus_table(70, seed=29)
        monkeypatch.setattr(index_build, "MR2_TREE_FANIN", 2)
        monkeypatch.setattr(index_build, "EXPLODE_BATCH_SIZE", 8)
        out = str(tmp_path / "idx_tree")
        stats = build_index(rd.from_arrow(table.drop_columns(["sha256"])),
                            out, IndexConfig(parse=True, num_shards=4,
                                             salt_buckets=2))
        # the forced-low threshold really activated the combine level
        sub = stats["metrics"]["postings_sub"]
        assert sub["n_map_tasks"] > sub["tree_fanin"] == 2
        assert sub["n_combines"] > 0
        # ~9 maps at fan-in 2 recurse: 9 -> 5 -> 3 -> 2 groups
        assert sub["tree_levels"] >= 2
        # blank docs get no docId (InvertedIndex.java:45-47)
        rows = [r for r in table.to_pylist()
                if r["content"] and r["content"].strip()]
        oracle = OracleIndex.build(rows, parse=True)
        assert stats["n_docs"] == oracle.n_docs < table.num_rows
        olex = oracle.lexicon()
        reader = IndexReader(out)
        assert set(reader._lex) == set(olex)
        for term, o in olex.items():
            df, idf, bm25_ub, tfidf_ub, _shard = reader._lex[term]
            assert df == o["df"], term
            assert idf == pytest.approx(o["idf"], abs=1e-12)
            assert bm25_ub == pytest.approx(o["bm25_ub"], abs=1e-12)
            assert tfidf_ub == pytest.approx(o["tfidf_ub"], abs=1e-12)
            ids, tfs = _decode_term_postings(reader, term)
            oids, otfs = oracle.posting_list(term)
            assert ids.tolist() == oids, term
            assert tfs.tolist() == otfs, term

    @pytest.mark.parametrize("codec", ["ef", "none"])
    def test_codec_invariance(self, ray_session, tmp_path, codec):
        """Compression choice changes bytes, never postings or scores:
        an 'ef'/'none' index decodes identically to the vbyte one and
        returns identical query results (SURVEY.md §2.8 note)."""
        import ray.data as rd
        from mircv_ray.build import build_index
        table = generate_corpus_table(70, seed=21)
        ds = rd.from_arrow(table.drop_columns(["sha256"]))
        readers = {}
        for c in ["vbyte", codec]:
            out = str(tmp_path / f"idx_{c}")
            build_index(ds, out, IndexConfig(parse=True, codec=c,
                                             num_shards=4, salt_buckets=2))
            readers[c] = IndexReader(out)
        a, b = readers["vbyte"], readers[codec]
        assert set(a._lex) == set(b._lex)
        for term in a._lex:
            ia, ta = _decode_term_postings(a, term)
            ib, tb = _decode_term_postings(b, term)
            assert ia.tolist() == ib.tolist()
            assert ta.tolist() == tb.tolist()
        ea = QueryEngine(None, QueryConfig(standard="BM25", k=10), reader=a)
        eb = QueryEngine(None, QueryConfig(standard="BM25", k=10), reader=b)
        for q in QUERIES:
            assert ea.query(q) == eb.query(q)

    def test_resume_skips_completed_stages(self, ray_session, tmp_path):
        import ray.data as rd
        from mircv_ray.build import build_index, read_manifest
        table = generate_corpus_table(40, seed=3)
        out = str(tmp_path / "idx")
        cfg = IndexConfig(parse=False, num_shards=2)
        ds = rd.from_arrow(table.drop_columns(["sha256"]))
        build_index(ds, out, cfg)
        m1 = read_manifest(out, "docs")
        # rerun: all stages complete -> manifests untouched
        build_index(ds, out, cfg)
        assert read_manifest(out, "docs")["completed_at"] == m1["completed_at"]

    def test_resume_mid_build_matches_clean_build(self, ray_session,
                                                  tmp_path):
        """Kill-after-docs resume: delete the postings+lexicon manifests
        (as if the build died mid-shuffle) and rerun — the docs stage is
        skipped, the token stream is re-derived through the checkpointed
        id mapping, and the final index equals a clean build's."""
        import shutil

        import pyarrow.parquet as pq
        import ray.data as rd
        from mircv_ray.build import build_index, read_manifest
        from mircv_ray.build.manifests import stage_complete
        table = generate_corpus_table(60, seed=13)
        cfg = IndexConfig(parse=True, num_shards=4, salt_buckets=2)
        clean = str(tmp_path / "clean")
        ds = rd.from_arrow(table.drop_columns(["sha256"]))
        build_index(ds, clean, cfg)

        resumed = str(tmp_path / "resumed")
        build_index(ds, resumed, cfg)
        docs_stamp = read_manifest(resumed, "docs")["completed_at"]
        # simulate a crash between the docs and postings stages
        for stage in ("postings", "lexicon"):
            (tmp_path / "resumed" / "_manifests" / f"{stage}.json").unlink()
        shutil.rmtree(tmp_path / "resumed" / "postings")
        shutil.rmtree(tmp_path / "resumed" / "lexicon")
        assert not stage_complete(resumed, "postings")
        build_index(ds, resumed, cfg)  # exercises the resume path
        assert read_manifest(resumed, "docs")["completed_at"] == docs_stamp

        a = pq.read_table(f"{clean}/lexicon").sort_by([("term", "ascending")])
        b = pq.read_table(f"{resumed}/lexicon").sort_by(
            [("term", "ascending")]).select(a.column_names)
        assert a.equals(b)
        ra, rb = IndexReader(clean), IndexReader(resumed)
        for term in list(ra._lex)[:25]:
            ia, ta = _decode_term_postings(ra, term)
            ib, tb = _decode_term_postings(rb, term)
            assert ia.tolist() == ib.tolist()
            assert ta.tolist() == tb.tolist()
