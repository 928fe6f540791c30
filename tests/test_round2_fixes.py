"""Round-2 regression tests: ADVICE.md fixes + sessions determinism."""

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


# ------------------------------------------------------------- sha256 helper

def test_sha256_column_matches_hashlib_and_nulls():
    import hashlib

    from mircv_ray.util import NULL_HASH, sha256_hex_column
    vals = ["abc", "", None, "x" * 1000, "café"]
    arr = pa.array(vals, type=pa.string())
    out = sha256_hex_column(arr, null_sentinel=NULL_HASH).to_pylist()
    for v, h in zip(vals, out):
        if v is None:
            assert h == NULL_HASH
        else:
            assert h == hashlib.sha256(v.encode()).hexdigest()
    # NULL is distinct from empty string
    assert out[2] != out[1]
    # sliced array (non-zero offset) still hashes the right values
    sl = pa.array(vals[:2], type=pa.string())
    chunked = pa.chunked_array([sl]).combine_chunks()
    assert sha256_hex_column(chunked).to_pylist() == out[:2]


def test_exact_dedup_null_vs_empty(ray_session):
    import ray.data as rd

    from mircv_ray.ops import exact_dedup_keep
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "text": pa.array(["", None, "", None])})
    out = exact_dedup_keep(rd.from_arrow(t)).to_pandas()
    # two distinct groups: the two ''s and the two NULLs
    assert len(out) == 2
    assert sorted(out["n_dups"]) == [2, 2]
    assert sorted(out["keep_id"]) == [1, 2]


# ------------------------------------------------- explode zero-token batches

def test_build_with_all_stopword_docs(ray_session, tmp_path, monkeypatch):
    """Docs that tokenize to zero tokens (all stopwords / punctuation) pass
    the blank filter but must not crash the explode stage."""
    import ray.data as rd

    from mircv_ray.build import build_index, index_build
    from mircv_ray.config import IndexConfig
    n = 8
    t = pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"f{i:02d}" for i in range(n)]),
        "commit": pa.array(["c"] * n),
        "lang": pa.array(["py"] * n),
        # parse=True: 'the of and' stems/stops to nothing; '!!! ...' is
        # punctuation-only
        "content": pa.array(["the of and", "!!! ... ???"] * (n // 2)),
    })
    # single tiny batch per block so at least one explode batch is empty
    ds = rd.from_arrow(t).repartition(4)
    monkeypatch.setattr(index_build, "EXPLODE_BATCH_SIZE", 2)
    stats = build_index(ds, str(tmp_path / "idx"),
                        IndexConfig(parse=True, num_shards=2, salt_buckets=1))
    assert stats["n_docs"] == n
    assert stats["metrics"]["n_postings"] == 0 or "n_postings" not in stats["metrics"]


# ------------------------------------------------------ duplicate-key checks

def test_distributed_assign_ids_rejects_duplicates(ray_session):
    import ray
    import ray.data as rd

    from mircv_ray.build.index_build import _make_assign_ids
    t = pa.table({"repo": pa.array(["r", "r", "r"]),
                  "path": pa.array(["a", "b", "a"])})
    bases_ref = ray.put({"r": 0})
    fn = _make_assign_ids(bases_ref)
    with pytest.raises(ValueError, match="duplicate"):
        fn(t)


def _keyed_corpus(paths, contents):
    n = len(paths)
    return pa.table({"repo": pa.array(["r"] * n),
                     "path": pa.array(paths),
                     "commit": pa.array(["c"] * n),
                     "lang": pa.array(["py"] * n),
                     "content": pa.array(contents)})


def test_broadcast_build_rejects_duplicates(ray_session, tmp_path):
    """The default build (broadcast id mapping) refuses duplicate
    (repo, path) keys, as the distributed assigner does."""
    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    t = _keyed_corpus(["a", "b", "a"], ["alpha text", "beta", "gamma"])
    with pytest.raises(ValueError, match="duplicate"):
        build_index(rd.from_arrow(t), str(tmp_path / "idx"),
                    IndexConfig(num_shards=2, salt_buckets=1))


def test_all_blank_corpus_builds_empty_index(ray_session, tmp_path):
    """Blank docs get no docId, so an all-blank corpus is a zero-doc
    index: an empty doc-length file, which the reader loads."""
    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    from mircv_ray.query import IndexReader
    t = _keyed_corpus(["a", "b", "c", "d"], ["", "   ", None, "\n\t"])
    out = tmp_path / "idx"
    stats = build_index(rd.from_arrow(t), str(out),
                        IndexConfig(num_shards=2, salt_buckets=3))
    assert stats["n_docs"] == 0
    assert stats["total_doc_len"] == 0
    assert (out / "doc_len.i64").stat().st_size == 0
    assert len(IndexReader(str(out)).doc_len) == 0
    # resume with the docs stage done: the mapping comes from a doc
    # table that has no files
    for stage in ("postings", "lexicon"):
        (out / "_manifests" / f"{stage}.json").unlink()
    stats = build_index(rd.from_arrow(t), str(out),
                        IndexConfig(num_shards=2, salt_buckets=3))
    assert (stats["n_docs"], stats["total_doc_len"]) == (0, 0)


def test_positions_skip_blank_docs(ray_session, tmp_path):
    """Blank docs have no docId, so the positions build must drop them
    before attaching ids: a trailing blank key used to index past the
    mapping (IndexError), and a zero-doc index has nothing to attach."""
    import ray.data as rd

    from mircv_ray.build import build_index, build_positions_index
    from mircv_ray.build.positions import read_term_positions
    from mircv_ray.config import IndexConfig
    cfg = IndexConfig(parse=False, num_shards=2, salt_buckets=2)
    t = _keyed_corpus(["a.py", "b.py", "z.py"],
                      ["alpha beta", "beta gamma", "   "])
    out = tmp_path / "idx"
    build_index(rd.from_arrow(t), str(out), cfg)
    res = build_positions_index(str(out), rd.from_arrow(t), cfg)
    assert res["rows"] > 0
    ids, cnts, pos = read_term_positions(str(out), "beta", 2, 2)
    assert (ids.tolist(), cnts.tolist(), pos.tolist()) == ([1, 2], [1, 1],
                                                          [1, 0])
    blank = _keyed_corpus(["a", "b"], ["", None])
    out0 = tmp_path / "idx0"
    assert build_index(rd.from_arrow(blank), str(out0), cfg)["n_docs"] == 0
    res = build_positions_index(str(out0), rd.from_arrow(blank), cfg)
    assert res["rows"] == 0
    assert read_term_positions(str(out0), "beta", 2, 2) is None


def test_positions_resume_with_empty_partitions(ray_session, tmp_path):
    """A 3-doc index over 4x2 partitions leaves some partitions without
    a file; the stage manifest, not a file count, marks the sidecar
    complete, so the second call re-tokenizes nothing."""
    import ray.data as rd

    from mircv_ray.build import build_index, build_positions_index
    from mircv_ray.config import IndexConfig
    cfg = IndexConfig(parse=False, num_shards=4, salt_buckets=2)
    t = _keyed_corpus(["a.py", "b.py", "c.py"],
                      ["alpha beta", "beta gamma", "delta"])
    out = str(tmp_path / "idx")
    build_index(rd.from_arrow(t), out, cfg)
    first = build_positions_index(out, rd.from_arrow(t), cfg)
    assert "resumed" not in first and first["rows"] > 0
    assert len(list(Path(out, "positions").glob("shard=*/*.parquet"))) < 8
    assert build_positions_index(out, rd.from_arrow(t), cfg) == \
        {"partitions": 8, "resumed": True}


# ----------------------------------------------------- stale-stage resumption

def test_incomplete_stage_output_is_cleared(ray_session, tmp_path):
    """A crashed stage leaves partial parquet with no manifest; the rerun
    must clear it instead of double-counting (ADVICE.md medium)."""
    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    from mircv_ray.sources.corpus import generate_corpus_table
    import ray.data as rd
    out = tmp_path / "idx"
    corpus = generate_corpus_table(40, with_sha=False)
    cfg = IndexConfig(parse=False, num_shards=2, salt_buckets=1)
    stats1 = build_index(rd.from_arrow(corpus), str(out), cfg)
    # simulate a crash mid-docs-stage on a FRESH build: leftover partial
    # file present, manifest absent
    import shutil
    shutil.rmtree(out / "_manifests")
    stale = out / "docs" / "zz-stale-partial.parquet"
    pq.write_table(pq.read_table(out / "docs"), stale)
    stats2 = build_index(rd.from_arrow(corpus), str(out), cfg)
    assert not stale.exists()
    assert stats2["n_docs"] == stats1["n_docs"]
    assert stats2["metrics"]["n_postings"] == stats1["metrics"]["n_postings"]


# ------------------------------------------------------- corpus input guards

def test_documents_as_corpus_rejects_blank_text(ray_session, tmp_path):
    from mircv_ray.sources import documents_as_corpus
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["ok text", "   ", "more"]),
        "lang": pa.array(["en"] * 3),
    }), d / "documents.parquet")
    with pytest.raises(Exception, match="blank"):
        documents_as_corpus(str(d)).materialize()


# ------------------------------------------------------ sessions determinism

def test_sessionize_rounding_half_away(ray_session):
    import ray.data as rd

    from mircv_ray.ops import sessionize
    # leaf-cents: EACH EVENT rounds half away from zero (DuckDB
    # round() semantics) to int cents, then sums exactly —
    # 0.125 -> 12.5 -> 13 and 0.0625 -> 6.25 -> 6, total 19
    t = pa.table({
        "user_id": pa.array([7, 7], type=pa.int64()),
        "ts": pa.array([1_000_000, 2_000_000], type=pa.timestamp("us")),
        "event_id": pa.array([1, 2], type=pa.int64()),
        "value": pa.array([0.125, 0.0625], type=pa.float64()),
    })
    out = sessionize(rd.from_arrow(t)).to_pandas()
    assert len(out) == 1
    assert int(out["sum_value_cents"][0]) == 19


# ----------------------------------------------- id-mapping join scale path

def test_idmap_join_path_matches_broadcast(ray_session, tmp_path, monkeypatch):
    """Forcing the >DRIVER_IDMAP_MAX_ROWS branch (hash-join id attach)
    must produce an index identical to the broadcast path — and the
    join-based resume (docs checkpointed, postings rebuilt) must too."""
    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.build import index_build as ib
    from mircv_ray.config import IndexConfig
    from mircv_ray.query.dump import dump_postings
    from mircv_ray.sources.corpus import generate_corpus_table

    corpus = generate_corpus_table(120, with_sha=False)
    cfg = IndexConfig(parse=True, num_shards=2, salt_buckets=2)

    def canon_docs(d):
        t = pq.read_table(d / "docs",
                          columns=["repo", "path", "doc_id", "doc_len",
                                   "sha256"])
        import pyarrow.compute as pc
        return t.take(pc.sort_indices(t["doc_id"]))

    def canon_lex(d):
        t = pq.read_table(d / "lexicon")
        import pyarrow.compute as pc
        return t.take(pc.sort_indices(t["term"]))

    def canon_posts(d):
        import pyarrow.compute as pc
        import ray
        ds = dump_postings(str(d))
        t = pa.concat_tables(ray.get(ds.to_arrow_refs())).combine_chunks()
        return t.take(pc.sort_indices(
            t, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]))

    s_a = build_index(rd.from_arrow(corpus), str(tmp_path / "a"), cfg)
    monkeypatch.setattr(ib, "DRIVER_IDMAP_MAX_ROWS", 0)
    s_b = build_index(rd.from_arrow(corpus), str(tmp_path / "b"), cfg)
    assert s_a["n_docs"] == s_b["n_docs"]
    assert s_a["metrics"]["n_postings"] == s_b["metrics"]["n_postings"]
    assert canon_docs(tmp_path / "a").equals(canon_docs(tmp_path / "b"))
    assert canon_lex(tmp_path / "a").equals(canon_lex(tmp_path / "b"))
    assert canon_posts(tmp_path / "a").equals(canon_posts(tmp_path / "b"))

    # join-based RESUME: docs checkpoint kept, postings+lexicon rebuilt
    for stage in ("postings", "lexicon"):
        (tmp_path / "b" / "_manifests" / f"{stage}.json").unlink()
    s_c = build_index(rd.from_arrow(corpus), str(tmp_path / "b"), cfg)
    assert s_c["metrics"]["n_postings"] == s_a["metrics"]["n_postings"]
    assert canon_posts(tmp_path / "a").equals(canon_posts(tmp_path / "b"))


# ------------------------------------------------------- block-max pruning

def _hot_corpus(n=900):
    """Corpus with one mega-df term ('hot', in 2/3 of docs so idf > 0 ->
    multi-block posting list at threshold 2048) plus scattered rare
    terms; hot's tf varies by docId range so block cores differ."""
    rows = []
    for i in range(n):
        toks = [f"rare{i % 37}"]
        if i % 3 != 0:
            toks.extend(["hot"] * (8 if i < 100 else 1))
        if i % 3 == 0:
            toks.append("warm")
        if i % 11 == 0:
            toks.append("tepid")
        rows.append(" ".join(toks * 3))
    return pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"f{i:05d}" for i in range(n)]),
        "commit": pa.array(["c"] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(rows),
    })


@pytest.fixture(scope="module")
def hot_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    out = str(tmp_path_factory.mktemp("hotidx"))
    build_index(rd.from_arrow(_hot_corpus()), out,
                IndexConfig(parse=False, squeeze=False, num_shards=2,
                            salt_buckets=1))
    return out


def test_blockmax_cores_stored_and_bounded(hot_index):
    from mircv_ray.query import IndexReader
    r = IndexReader(hot_index)
    bmax, bn, bbase, ibufs, tbufs, b25c, tfc = r._fetch_blocks(
        "hot", r._lex["hot"][4])
    assert len(bmax) > 1          # multi-block
    assert len(b25c) == len(bmax)
    idf = r._lex["hot"][1]
    # every block UB <= term UB; at least one strictly smaller or equal
    assert np.all(idf * b25c <= r._lex["hot"][2] + 1e-12)


def test_blockmax_maxscore_rank_identity(hot_index):
    from mircv_ray.config import QueryConfig
    from mircv_ray.query import QueryEngine
    for standard in ("BM25", "TFIDF"):
        ms = QueryEngine(hot_index, QueryConfig(standard=standard, k=5,
                                                parse=False, squeeze=False,
                                                algo="maxscore"))
        ta = QueryEngine(hot_index, QueryConfig(standard=standard, k=5,
                                                parse=False, squeeze=False))
        # NB: a bare zero-idf query (term in EVERY doc) is excluded —
        # there the reference's own MaxScore legitimately stops after the
        # heap fills with zero scores (pivot passes a zero upper bound),
        # which exhaustive TAAT does not reproduce; that divergence is
        # reference semantics, not block-max.
        for q in ["hot rare3", "hot warm tepid", "rare5 rare7 hot",
                  "hot rare9", "tepid warm", "hot warm"]:
            a = ms.query(q)
            b = ta.query(q)
            assert a == b, (standard, q, a, b)


def test_blockmax_skips_block_decodes(monkeypatch):
    """Deterministic cursor-level check: with per-block UBs the
    non-essential list's blocks are never decoded; without them (term-UB
    fallback) they are — and the results are identical."""
    from mircv_ray.query.cursors import PostingCursor
    from mircv_ray.query.scorer import max_score

    calls = {"n": 0}
    orig = PostingCursor._load_block

    def counting(self, bi):
        calls["n"] += 1
        return orig(self, bi)

    monkeypatch.setattr(PostingCursor, "_load_block", counting)

    def enc_ids(ids):
        return np.asarray(ids, dtype="<i8").tobytes()

    def enc_tfs(tfs):
        return np.asarray(tfs, dtype="<i4").tobytes()

    def make_cursors(with_bub):
        # A: essential driver — doc 5 scores 6 (sets theta=6 at k=1,
        # which passes the pivot over B: 5.5 <= 6), docs 6..14 score 1
        a = PostingCursor(
            "A", 10, 1.0, 10.0, "none",
            np.array([14]), np.array([10]), np.array([0]),
            [enc_ids(range(5, 15))], [enc_tfs([6] + [1] * 9)],
            np.array([10.0]))
        # B: non-essential — term UB 5.5 comes from block 2's fat doc
        # 500; the blocks actually probed (targets 6..14) have UB 0.5
        bub = np.array([0.5, 0.5, 5.5]) if with_bub else None
        b = PostingCursor(
            "B", 3, 1.0, 5.5, "none",
            np.array([10, 300, 500]), np.array([1, 1, 1]),
            np.array([0, 0, 0]),
            [enc_ids([10]), enc_ids([300]), enc_ids([500])],
            [enc_tfs([1]), enc_tfs([1]), enc_tfs([5])],
            bub)
        return [b, a]  # sorted by term UB ascending

    def run(with_bub):
        cursors = make_cursors(with_bub)
        calls["n"] = 0
        res = max_score(cursors, 1, False, lambda c: float(c.tf()))
        return calls["n"], res

    n_bm, res_bm = run(True)
    n_fb, res_fb = run(False)
    assert res_bm == res_fb == [(5, 6.0)]
    # (counter resets after cursor construction) only the term-UB
    # fallback decodes B's block 1 when next_geq(11..14) jumps past
    # block 0 — block-max never touches any further block
    assert n_bm == 0 and n_fb == 1, (n_bm, n_fb)


# --------------------------------------------------- mega-user session salt

def test_sessionize_salted_matches_unsalted(ray_session):
    """A single mega user spanning many salt slices (and multiple event
    batches) must sessionize identically with and without day-salting."""
    import ray.data as rd

    from mircv_ray.ops import sessionize

    rng = np.random.default_rng(17)
    day = 24 * 3600 * 1_000_000
    # one mega user: ~6000 events over ~40 days with gaps straddling the
    # 30-min session threshold AND day boundaries; plus two normal users
    gaps = rng.choice([60_000_000, 1_500_000_000, 1_900_000_000,
                       7_200_000_000], size=6000,
                      p=[0.55, 0.2, 0.15, 0.1])
    ts_mega = np.cumsum(gaps) + 1_000_000
    # force events EXACTLY at day boundaries too
    ts_mega[100] = (ts_mega[99] // day + 1) * day
    users = np.concatenate([np.full(len(ts_mega), 1),
                            np.full(200, 2), np.full(50, 3)])
    ts = np.concatenate([ts_mega,
                         np.arange(200) * 2_000_000_000 + 5,
                         np.arange(50) * 100_000_000 + 11])
    t = pa.table({
        "user_id": pa.array(users, type=pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_id": pa.array(np.arange(len(ts)), type=pa.int64()),
        "value": pa.array(np.round(rng.uniform(0, 20, len(ts)), 2)),
    })
    ds = rd.from_arrow(t).repartition(8)  # mega user spans many blocks
    plain = sessionize(ds).to_pandas().sort_values(
        ["user_id", "session_id"]).reset_index(drop=True)
    salted = sessionize(ds, salt_width_us=day).to_pandas().sort_values(
        ["user_id", "session_id"]).reset_index(drop=True)
    assert plain.equals(salted)
    assert salted[salted.user_id == 1].shape[0] > 100  # real session count


def test_sessionize_salt_width_must_exceed_gap(ray_session):
    import ray.data as rd

    from mircv_ray.ops import sessionize
    t = pa.table({"user_id": pa.array([1], type=pa.int64()),
                  "ts": pa.array([1], type=pa.timestamp("us")),
                  "event_id": pa.array([1], type=pa.int64()),
                  "value": pa.array([1.0])})
    with pytest.raises(ValueError, match="salt_width_us"):
        sessionize(rd.from_arrow(t), salt_width_us=1_000_000)


# --------------------------------------------------- dump_postings codecs

def test_dump_postings_codec_equivalence(ray_session, tmp_path):
    """The vectorized vbyte dump and the per-block ef/none fallback must
    decode identical (term, doc_id, tf) rows."""
    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    from mircv_ray.query.dump import dump_postings
    from mircv_ray.sources.corpus import generate_corpus_table

    corpus = generate_corpus_table(60, with_sha=False)

    def canon(codec):
        out = str(tmp_path / codec)
        build_index(rd.from_arrow(corpus), out,
                    IndexConfig(parse=False, codec=codec, num_shards=2,
                                salt_buckets=2))
        t = pa.concat_tables(
            ray.get(dump_postings(out).to_arrow_refs())).combine_chunks()
        return t.take(pc.sort_indices(
            t, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]))

    base = canon("vbyte")
    assert base.num_rows > 0
    for codec in ("ef", "none"):
        assert canon(codec).equals(base), codec


# ----------------------------------------------- reference TSV ingestion

def test_collection_tsv_and_targz_ingestion(ray_session, tmp_path):
    """The reference's collection.tsv (and .tar.gz) format builds the
    same index as the parquet path, with docno == pid."""
    import tarfile
    from pathlib import Path

    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig, QueryConfig
    from mircv_ray.query import QueryEngine
    from mircv_ray.sources import collection_tsv_as_corpus

    rows = [(0, "hash join table scan"), (1, "merge sort run"),
            (2, "   "),                      # blank -> dropped
            (3, "hash table probe build"), (4, "window stream state")]
    tsv = tmp_path / "collection.tsv"
    tsv.write_text("".join(f"{pid}\t{txt}\n" for pid, txt in rows))
    tgz = tmp_path / "collection.tar.gz"
    with tarfile.open(tgz, "w:gz") as tf:
        tf.add(tsv, arcname="collection.tsv")

    results = []
    for src in (str(tsv), str(tgz)):
        out = str(tmp_path / ("idx_" + Path(src).name.replace(".", "_")))
        stats = build_index(collection_tsv_as_corpus(src), out,
                            IndexConfig(parse=False, squeeze=False,
                                        num_shards=2, salt_buckets=1))
        assert stats["n_docs"] == 4          # blank line dropped
        eng = QueryEngine(out, QueryConfig(standard="BM25", k=5,
                                           parse=False, squeeze=False))
        results.append(eng.query("hash table"))
    assert results[0] == results[1]
    # docno must be the pid rank among NON-blank docs (engine docno is
    # 0-based rank in (repo, path) order == pid order)
    docnos = {d for d, _ in results[0]}
    assert docnos <= {"0", "1", "2", "3"}
    assert len(results[0]) >= 2



def test_pair_joins_survive_empty_sort_partitions(ray_session):
    """Many input blocks -> empty sort partitions in the pair groupbys
    emit zero-column blocks; the verify joins must not choke on them
    (regression: sf0.1 bench failed with 'No match for FieldRef a')."""
    import ray.data as rd

    from mircv_ray.ops import minhash_candidate_pairs
    base = ("the quick brown fox jumps over the lazy dog and then "
            "keeps running through the deterministic test corpus")
    texts = [base + (" extra" if i % 2 else "") + f" u{i // 2}"
             for i in range(40)]
    t = pa.table({"doc_id": pa.array(range(40), type=pa.int64()),
                  "text": pa.array(texts)})
    out = minhash_candidate_pairs(
        rd.from_arrow(t).repartition(32), threshold=0.5).to_pandas()
    # pairs (2i, 2i+1) share almost all shingles
    assert len(out) >= 15


# -------------------------------------------- partition-level mr resume

def test_mr_exchange_partition_level_resume(ray_session, tmp_path):
    """With the postings exchange, a crashed postings stage resumes by
    rebuilding ONLY the missing partitions (atomic per-partition files),
    and the resumed index equals the clean build."""
    import os

    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig
    from mircv_ray.sources.corpus import generate_corpus_table

    corpus = generate_corpus_table(80, with_sha=False)
    cfg = IndexConfig(parse=False, num_shards=4, salt_buckets=2)
    out = tmp_path / "idx"
    s1 = build_index(rd.from_arrow(corpus), str(out), cfg)

    # simulate a crash: postings manifest gone, ONE partition file gone,
    # one stale tmp left behind
    (out / "_manifests" / "postings.json").unlink()
    (out / "_manifests" / "lexicon.json").unlink()
    import shutil
    shutil.rmtree(out / "lexicon")
    victim = out / "shard=1".replace("shard=1", "postings/shard=1")
    victim_file = victim / "seg-0.parquet"
    victim_file.unlink()
    (victim / ".seg-0.parquet.tmp").write_bytes(b"garbage")
    survivor = out / "postings" / "shard=0" / "seg-0.parquet"
    mtime_before = survivor.stat().st_mtime_ns

    s2 = build_index(rd.from_arrow(corpus), str(out), cfg)
    assert not (victim / ".seg-0.parquet.tmp").exists()
    assert victim_file.exists()
    # untouched partitions were NOT rewritten
    assert survivor.stat().st_mtime_ns == mtime_before
    assert s2["metrics"]["n_postings"] == s1["metrics"]["n_postings"]
    assert s2["n_docs"] == s1["n_docs"]


def test_hopping_window_covers_each_event_k_times(ray_session):
    import ray.data as rd

    from mircv_ray.ops import hopping_window_agg
    # two events; width 4s, hop 2s -> each event counted in 2 windows
    t = pa.table({
        "ts": pa.array([1_000_000, 5_000_000], type=pa.timestamp("us")),
        "event_type": pa.array(["a", "a"]),
        "value": pa.array([1.0, 2.0]),
    })
    out = hopping_window_agg(rd.from_arrow(t), width_us=4_000_000,
                             hop_us=2_000_000).to_pandas()
    assert out["n_events"].sum() == 4           # 2 events x 2 windows
    assert out["sum_value_cents"].sum() == 600  # (1+2)*2 * 100
    with pytest.raises(ValueError, match="multiple"):
        hopping_window_agg(rd.from_arrow(t), width_us=3_000_000,
                           hop_us=2_000_000)


def _events_with_null_value():
    # one window [0, 4s) holding 1.25 + NULL + 2.5, so the NULL must add
    # nothing to the sum and still count as an event
    return pa.table({
        "ts": pa.array([1_000_000, 2_000_000, 3_000_000],
                       type=pa.timestamp("us")),
        "event_type": pa.array(["a", "a", "a"]),
        "value": pa.array([1.25, None, 2.5], type=pa.float64()),
    })


def test_tumbling_window_skips_null_value(ray_session):
    import ray.data as rd

    from mircv_ray.ops import tumbling_window_agg
    out = tumbling_window_agg(rd.from_arrow(_events_with_null_value()),
                              width_us=4_000_000).to_pandas()
    assert out[["n_events", "sum_value_cents"]].values.tolist() == [[3, 375]]


def test_hopping_window_skips_null_value(ray_session):
    import ray.data as rd

    from mircv_ray.ops import hopping_window_agg
    out = hopping_window_agg(rd.from_arrow(_events_with_null_value()),
                             width_us=4_000_000,
                             hop_us=4_000_000).to_pandas()
    assert out[["n_events", "sum_value_cents"]].values.tolist() == [[3, 375]]


def test_streaming_window_skips_null_value():
    from mircv_ray.ops.streaming import StreamingTumblingWindow
    agg = StreamingTumblingWindow(width_us=4_000_000)
    agg.ingest(_events_with_null_value())
    out = agg.flush().to_pylist()
    assert [(r["n_events"], r["sum_value_cents"]) for r in out] == [(3, 375)]


def _user_events_with_null_value():
    # the same three events for one user, 1 s apart
    t = _events_with_null_value()
    return t.append_column("user_id", pa.array([7, 7, 7])).append_column(
        "event_id", pa.array([0, 1, 2]))


@pytest.mark.parametrize("salt_width_us", [None, 100_000_000])
def test_sessionize_skips_null_value(ray_session, salt_width_us):
    import ray.data as rd

    from mircv_ray.ops import sessionize
    out = sessionize(rd.from_arrow(_user_events_with_null_value()),
                     gap_us=10_000_000,
                     salt_width_us=salt_width_us).to_pandas()
    assert out[["n_events", "sum_value_cents"]].values.tolist() == [[3, 375]]


def test_streaming_sessionizer_skips_null_value():
    from mircv_ray.ops import StreamingSessionizer
    agg = StreamingSessionizer(gap_us=10_000_000)
    parts = [agg.ingest(_user_events_with_null_value()), agg.flush()]
    out = pa.concat_tables([p for p in parts if p.num_rows]).to_pylist()
    assert [(r["n_events"], r["sum_value_cents"]) for r in out] == [(3, 375)]


def test_rollup_skips_null_value(ray_session):
    import ray.data as rd

    from mircv_ray.ops import rollup_agg
    out = rollup_agg(rd.from_arrow(_events_with_null_value()),
                     width_us=4_000_000).to_pandas()
    # leaf, per-type subtotal and grand total
    assert out[["n_events", "sum_value_cents"]].values.tolist() == \
        [[3, 375]] * 3


def test_pivot_skips_null_value(ray_session):
    import ray.data as rd

    from mircv_ray.ops import pivot_counts
    out = pivot_counts(rd.from_arrow(_user_events_with_null_value()),
                       ["a"]).take_all()
    assert out == [{"user_id": 7, "n_a": 3, "cents_a": 375}]


def test_exact_and_hll_distinct_agree_on_null_groups(ray_session):
    """Both distinct-count operators drop NULL-group rows and keep a
    group whose every value is NULL (count 0)."""
    import ray.data as rd

    from mircv_ray.ops import exact_distinct_per_group, hll_distinct_per_group
    t = pa.table({"g": ["a", None, "a", "b", None, "c"],
                  "v": ["x", "y", "z", "x", None, None]})

    def groups(ds, alias):
        df = ds.to_pandas()
        return dict(zip(df["g"], df[alias]))
    exact = groups(exact_distinct_per_group(rd.from_arrow(t), "g", "v"),
                   "n_distinct")
    hll = groups(hll_distinct_per_group(rd.from_arrow(t), "g", "v"),
                 "n_distinct_hll")
    assert exact == {"a": 2, "b": 1, "c": 0}
    assert hll == exact


def test_strict_and_conjunctive(ray_session, tmp_path):
    import ray.data as rd

    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig, QueryConfig
    from mircv_ray.query import QueryEngine
    docs = ["alpha beta gamma", "alpha beta", "beta gamma", "alpha alpha beta gamma"]
    t = pa.table({
        "repo": pa.array(["r"] * 4),
        "path": pa.array([f"f{i}" for i in range(4)]),
        "commit": pa.array(["c"] * 4),
        "lang": pa.array(["py"] * 4),
        "content": pa.array(docs),
    })
    out = str(tmp_path / "idx")
    build_index(rd.from_arrow(t), out,
                IndexConfig(parse=False, squeeze=False, num_shards=2,
                            salt_buckets=1))
    eng = QueryEngine(out, QueryConfig(standard="BM25", k=10, parse=False,
                                       squeeze=False))
    res = eng.score_terms_strict_and(["alpha", "gamma"])
    assert sorted(d for d, _ in res) == [1, 4]       # docs 0 and 3 (1-based)
    # unknown terms ignored; all-unknown -> empty
    assert eng.score_terms_strict_and(["nope"]) == []
    assert [d for d, _ in eng.score_terms_strict_and(["nope", "beta"])] \
        == [d for d, _ in eng.score_terms_strict_and(["beta"])]
    # duplicate query terms score twice: same doc set, doubled alpha part
    s1 = dict(eng.score_terms_strict_and(["alpha", "gamma"]))
    s2 = dict(eng.score_terms_strict_and(["alpha", "alpha", "gamma"]))
    assert set(s1) == set(s2)
    assert all(s2[d] > s1[d] for d in s1)
