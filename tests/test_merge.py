"""merge_indexes: incremental compaction == full rebuild.

The reference engine is batch-only (full re-tokenize to add documents);
merge_indexes compacts a base index + a delta index over the new docs
into the union index without any content scan. Pinned here:

- append-ordered delta (all delta (repo, path) keys sort after base's)
  -> merged index is IDENTICAL to a from-scratch build of the union
  (postings dump, lexicon, stats, query scores);
- cross-codec inputs re-encode to the requested output codec;
- interleaved keys still produce a CORRECT index (same postings per
  document identity, different docno mapping);
- tokenizer-knob mismatch fails loudly.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from mircv_ray.config import IndexConfig, QueryConfig
from mircv_ray.sources import generate_corpus_table

N_DOCS = 120


def _sorted_corpus():
    t = generate_corpus_table(N_DOCS, seed=11).drop_columns(["sha256"])
    return t.take(pc.sort_indices(
        t, sort_keys=[("repo", "ascending"), ("path", "ascending")]))


def _build(tbl: pa.Table, out: str, cfg: IndexConfig):
    import ray.data as rd
    from mircv_ray.build import build_index
    return build_index(rd.from_arrow(tbl), out, cfg)


def _dump_sorted(idx: str) -> pa.Table:
    import ray
    from mircv_ray.query.dump import dump_postings
    t = pa.concat_tables(
        ray.get(dump_postings(idx, docno_offset=0).to_arrow_refs()))
    return t.take(pc.sort_indices(t, sort_keys=[
        ("term", "ascending"), ("doc_id", "ascending")])).combine_chunks()


def _lex_sorted(idx: str) -> pa.Table:
    t = pq.read_table(f"{idx}/lexicon")
    return t.take(pc.sort_indices(t["term"])).combine_chunks()


CFG = IndexConfig(parse=True, codec="vbyte", num_shards=4, salt_buckets=2)


@pytest.fixture(scope="module")
def merged_vs_full(ray_session, tmp_path_factory):
    from mircv_ray.build import merge_indexes
    root = tmp_path_factory.mktemp("merge")
    corpus = _sorted_corpus()
    cut = 70
    _build(corpus.slice(0, cut), str(root / "base"), CFG)
    _build(corpus.slice(cut), str(root / "delta"), CFG)
    full_stats = _build(corpus, str(root / "full"), CFG)
    merged_stats = merge_indexes(str(root / "base"), str(root / "delta"),
                                 str(root / "merged"), CFG)
    return root, merged_stats, full_stats


class TestAppendMergeIdentity:
    def test_stats(self, merged_vs_full):
        _, m, f = merged_vs_full
        for k in ("n_docs", "total_doc_len", "num_terms", "avg_doc_len"):
            assert m[k] == f[k], k
        assert m["metrics"]["bytes_compressed"] == \
            f["metrics"]["bytes_compressed"]

    def test_postings_dump_identical(self, merged_vs_full):
        root, _, _ = merged_vs_full
        dm = _dump_sorted(str(root / "merged"))
        df = _dump_sorted(str(root / "full"))
        assert dm.num_rows == df.num_rows
        assert dm.equals(df)

    def test_lexicon_identical(self, merged_vs_full):
        root, _, _ = merged_vs_full
        assert _lex_sorted(str(root / "merged")).equals(
            _lex_sorted(str(root / "full")))

    def test_query_scores_identical(self, merged_vs_full):
        from mircv_ray.query import QueryEngine
        root, _, _ = merged_vs_full
        qcfg = QueryConfig(standard="BM25", k=10, parse=True)
        em = QueryEngine(str(root / "merged"), qcfg)
        ef = QueryEngine(str(root / "full"), qcfg)
        for q in ("def return value", "hash map set list",
                  "running runs runner"):
            assert em.score_terms(q.split()) == ef.score_terms(q.split())

    def test_docs_table_identical(self, merged_vs_full):
        root, _, _ = merged_vs_full
        cols = ["doc_id", "repo", "path", "doc_len", "sha256"]
        tm = pq.read_table(str(root / "merged" / "docs"), columns=cols)
        tf_ = pq.read_table(str(root / "full" / "docs"), columns=cols)
        tm = tm.take(pc.sort_indices(tm["doc_id"]))
        tf_ = tf_.take(pc.sort_indices(tf_["doc_id"]))
        assert tm.equals(tf_)


class TestMergeVariants:
    def test_cross_codec_inputs(self, ray_session, tmp_path):
        """base=ef, delta=none, output vbyte == full vbyte build."""
        from mircv_ray.build import merge_indexes
        corpus = _sorted_corpus()
        cut = 60
        cfg_ef = IndexConfig(parse=True, codec="ef", num_shards=4,
                             salt_buckets=2)
        cfg_none = IndexConfig(parse=True, codec="none", num_shards=4,
                               salt_buckets=2)
        _build(corpus.slice(0, cut), str(tmp_path / "base"), cfg_ef)
        _build(corpus.slice(cut), str(tmp_path / "delta"), cfg_none)
        _build(corpus, str(tmp_path / "full"), CFG)
        merge_indexes(str(tmp_path / "base"), str(tmp_path / "delta"),
                      str(tmp_path / "merged"), CFG)
        assert _dump_sorted(str(tmp_path / "merged")).equals(
            _dump_sorted(str(tmp_path / "full")))
        assert _lex_sorted(str(tmp_path / "merged")).equals(
            _lex_sorted(str(tmp_path / "full")))

    def test_mixed_shard_layouts(self, ray_session, tmp_path):
        """base num_shards=4, delta num_shards=3 (and salt 1): a source
        shard is term-complete only within its own index, so the two
        sides' lists of a term meet in the exchange — still == the full
        rebuild, with one map task per source shard directory."""
        from mircv_ray.build import merge_indexes
        from mircv_ray.build.manifests import read_manifest
        corpus = _sorted_corpus()
        cut = 70
        _build(corpus.slice(0, cut), str(tmp_path / "base"), CFG)
        _build(corpus.slice(cut), str(tmp_path / "delta"),
               IndexConfig(parse=True, codec="vbyte", num_shards=3,
                           salt_buckets=1))
        _build(corpus, str(tmp_path / "full"), CFG)
        merge_indexes(str(tmp_path / "base"), str(tmp_path / "delta"),
                      str(tmp_path / "merged"), CFG)
        assert _dump_sorted(str(tmp_path / "merged")).equals(
            _dump_sorted(str(tmp_path / "full")))
        assert _lex_sorted(str(tmp_path / "merged")).equals(
            _lex_sorted(str(tmp_path / "full")))
        n_src = sum(len(list((tmp_path / side / "postings").glob("shard=*")))
                    for side in ("base", "delta"))
        assert n_src == 4 + 3
        sub = read_manifest(str(tmp_path / "merged"), "postings")["sub"]
        assert sub["n_map_tasks"] == n_src

    def test_default_cfg_from_base(self, ray_session, tmp_path):
        """cfg=None derives the output layout from the base index."""
        from mircv_ray.build import load_stats, merge_indexes
        corpus = _sorted_corpus()
        _build(corpus.slice(0, 80), str(tmp_path / "base"), CFG)
        _build(corpus.slice(80), str(tmp_path / "delta"), CFG)
        merge_indexes(str(tmp_path / "base"), str(tmp_path / "delta"),
                      str(tmp_path / "merged"))
        st = load_stats(str(tmp_path / "merged"))
        assert st["codec"] == CFG.codec
        assert st["num_shards"] == CFG.num_shards
        assert st["n_docs"] == N_DOCS

    def test_interleaved_keys_still_correct(self, ray_session, tmp_path):
        """Even/odd split: docno mapping differs from a full rebuild, but
        per-DOCUMENT postings are identical (join through the docs
        table's (repo, path) identity)."""
        from mircv_ray.build import merge_indexes
        corpus = _sorted_corpus()
        even = corpus.take(pa.array(range(0, N_DOCS, 2)))
        odd = corpus.take(pa.array(range(1, N_DOCS, 2)))
        _build(even, str(tmp_path / "base"), CFG)
        _build(odd, str(tmp_path / "delta"), CFG)
        _build(corpus, str(tmp_path / "full"), CFG)
        merge_indexes(str(tmp_path / "base"), str(tmp_path / "delta"),
                      str(tmp_path / "merged"), CFG)

        def by_identity(idx: str) -> pa.Table:
            dump = _dump_sorted(idx)
            docs = pq.read_table(f"{idx}/docs",
                                 columns=["doc_id", "repo", "path"])
            j = dump.join(docs, "doc_id")
            key = pc.binary_join_element_wise(j["repo"], j["path"], "/")
            t = pa.table({"term": j["term"], "key": key, "tf": j["tf"]})
            return t.take(pc.sort_indices(t, sort_keys=[
                ("term", "ascending"), ("key", "ascending")])) \
                .combine_chunks()

        assert by_identity(str(tmp_path / "merged")).equals(
            by_identity(str(tmp_path / "full")))

    def test_tokenizer_mismatch_raises(self, ray_session, tmp_path):
        from mircv_ray.build import merge_indexes
        corpus = _sorted_corpus()
        _build(corpus.slice(0, 60), str(tmp_path / "base"), CFG)
        _build(corpus.slice(60), str(tmp_path / "delta"),
               IndexConfig(parse=False, codec="vbyte", num_shards=4,
                           salt_buckets=2))
        with pytest.raises(ValueError, match="tokenizer knob"):
            merge_indexes(str(tmp_path / "base"), str(tmp_path / "delta"),
                          str(tmp_path / "merged"))
