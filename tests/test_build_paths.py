"""Build paths that default-sized tests do not reach: the scale docId
path on a one-CPU cluster, the per-shard lexicon (against a group_by
over the postings, on a zero-postings corpus and on resume), a corpus
that brings its own sha256 column, zero-column empty blocks in the token
stream, and the extracted-archive directory of collection_tsv_as_corpus."""

import json
import os
import shutil
import signal
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from mircv_ray.config import IndexConfig
from mircv_ray.sources import generate_corpus_table

ROOT = Path(__file__).resolve().parent.parent
CFG = IndexConfig(num_shards=2, salt_buckets=2)


def _build(tables, out, cfg=CFG):
    import ray.data as rd

    from mircv_ray.build import build_index
    return build_index(rd.from_arrow(tables), str(out), cfg)


def _files(d: Path) -> dict:
    """Every parquet file under ``d`` by relative path -> its table."""
    return {str(f.relative_to(d)): pq.ParquetFile(f).read()
            for f in sorted(d.rglob("*.parquet"))}


def _lexicon(index_dir: Path) -> pa.Table:
    t = pq.read_table(str(index_dir / "lexicon"))
    return t.take(pc.sort_indices(t["term"]))


_ONE_CPU_SCALE_BUILD = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from mircv_ray.build import build_index
from mircv_ray.build import index_build as ib
from mircv_ray.config import IndexConfig
from mircv_ray.sources import generate_corpus_table
ib.DRIVER_IDMAP_MAX_ROWS = 0
stats = build_index(rd.from_arrow(generate_corpus_table(200, with_sha=False)),
                    sys.argv[1], IndexConfig(num_shards=2, salt_buckets=2))
print("n_postings", stats["metrics"]["n_postings"])
ray.shutdown()
"""


def test_scale_id_path_finishes_on_one_cpu(ray_session, tmp_path):
    """The scale docId path's hash join must not wait for CPUs its
    upstream holds: on a one-CPU cluster it finishes, with the broadcast
    path's postings count."""
    want = _build(generate_corpus_table(200, with_sha=False),
                  tmp_path / "a")["metrics"]["n_postings"]
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = str(ROOT)
    p = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCALE_BUILD, str(tmp_path / "b")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        # the child's Ray processes are in its process group
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("the one-CPU scale-path build did not finish in 240 s")
    assert p.returncode == 0, err[-3000:]
    assert f"n_postings {want}" in out


def test_corpus_sha256_column_is_replaced(ray_session, tmp_path):
    """A corpus with its own sha256 column builds the index of the same
    corpus without it: the build's content hash replaces the column."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    _build(generate_corpus_table(150), a)
    _build(generate_corpus_table(150, with_sha=False), b)

    def docs(d):
        return pq.read_table(str(d / "docs")).sort_by("doc_id")
    assert docs(a).column_names.count("sha256") == 1
    assert docs(a).equals(docs(b))
    assert _files(a / "postings") == _files(b / "postings")


def _lexicon_by_group_by(index_dir: Path) -> pa.Table:
    """The lexicon recomputed from the postings' metadata columns by one
    Arrow group_by over the whole store, term-sorted."""
    n_docs = json.loads((index_dir / "stats.json").read_text())["n_docs"]
    seg = pq.read_table(str(index_dir / "postings"), columns=[
        "term", "shard", "df", "max_doc_id", "bm25_core", "tfidf_core",
        "bytes_ids", "bytes_tfs"])
    # the hive partition column reads back dictionary-encoded
    seg = seg.set_column(seg.schema.get_field_index("shard"), "shard",
                         seg["shard"].cast(pa.int64()))
    a = seg.group_by("term").aggregate([
        ("df", "sum"), ("max_doc_id", "max"), ("bm25_core", "max"),
        ("tfidf_core", "max"), ("bytes_ids", "sum"), ("bytes_tfs", "sum"),
        ("shard", "min"), ("shard", "max")])
    assert a["shard_min"].equals(a["shard_max"])    # term -> one shard
    idf = np.log10(n_docs / a["df_sum"].to_numpy().astype(np.float64))
    return pa.table({
        "term": a["term"], "df": a["df_sum"],
        "max_doc_id": a["max_doc_id_max"], "bm25_core": a["bm25_core_max"],
        "tfidf_core": a["tfidf_core_max"], "bytes_ids": a["bytes_ids_sum"],
        "bytes_tfs": a["bytes_tfs_sum"], "shard": a["shard_max"],
        "idf": idf, "bm25_ub": idf * a["bm25_core_max"].to_numpy(),
        "tfidf_ub": idf * a["tfidf_core_max"].to_numpy(),
    }).sort_by("term")


def _check_lexicon(index_dir: Path, num_shards: int) -> None:
    """One term-sorted lexicon file per postings shard, holding that
    shard's terms; together they equal the group_by recomputation, and
    stats.json carries their sums."""
    names = sorted(f.name for f in (index_dir / "lexicon").iterdir())
    assert names == sorted(f"shard-{s}.parquet" for s in range(num_shards))
    for s in range(num_shards):
        t = pq.read_table(str(index_dir / "lexicon" / f"shard-{s}.parquet"))
        assert t.equals(t.sort_by("term"))
        assert set(t["shard"].to_pylist()) <= {s}
    want = _lexicon_by_group_by(index_dir)
    assert _lexicon(index_dir).equals(want)
    stats = json.loads((index_dir / "stats.json").read_text())
    assert stats["num_terms"] == want.num_rows
    assert stats["metrics"]["n_postings"] == pc.sum(want["df"]).as_py()
    assert stats["metrics"]["bytes_compressed"] == (
        pc.sum(want["bytes_ids"]).as_py() + pc.sum(want["bytes_tfs"]).as_py())
    assert stats["metrics"]["lexicon_sub"]["n_tasks"] == num_shards


@pytest.mark.parametrize("salt", [1, 3])
def test_lexicon_matches_group_by_over_postings(ray_session, tmp_path, salt):
    """The per-shard lexicon tasks give the lexicon of one group_by over
    the postings' metadata, after a build and after a vacuum."""
    from mircv_ray.build import delete_docs, vacuum_index
    cfg = IndexConfig(num_shards=4, salt_buckets=salt)
    out = tmp_path / "idx"
    _build(generate_corpus_table(200, with_sha=False), out, cfg)
    _check_lexicon(out, 4)
    delete_docs(str(out), [1, 5, 9, 120])
    vacuum_index(str(out), str(tmp_path / "vac"))
    _check_lexicon(tmp_path / "vac", 4)


def test_zero_postings_corpus(ray_session, tmp_path):
    """A corpus whose every token is a stopword: each shard's lexicon
    file is empty with the full schema, and a query finds nothing."""
    from mircv_ray.config import QueryConfig
    from mircv_ray.query import QueryEngine
    out = tmp_path / "idx"
    stats = _build(pa.table({"repo": ["r", "r"], "path": ["a", "b"],
                             "lang": ["text", "text"],
                             "content": ["the and of", "a the"]}), out, CFG)
    assert stats["num_terms"] == 0 and stats["metrics"]["n_postings"] == 0
    full = _build(generate_corpus_table(20, with_sha=False),
                  tmp_path / "full")
    schema = pq.read_schema(str(tmp_path / "full" / "lexicon"
                                / "shard-0.parquet"))
    assert full["num_terms"] > 0
    files = sorted((out / "lexicon").iterdir())
    assert [f.name for f in files] == ["shard-0.parquet", "shard-1.parquet"]
    for f in files:
        t = pq.read_table(str(f))
        assert t.num_rows == 0 and t.schema.equals(schema)
    eng = QueryEngine(str(out), QueryConfig(standard="BM25", k=5))
    assert eng.query("the and") == []


def _stats_sans_timing(index_dir: Path) -> dict:
    stats = json.loads((index_dir / "stats.json").read_text())
    stats["metrics"] = {k: v for k, v in stats["metrics"].items()
                        if not k.endswith(("seconds", "_sub", "per_s"))}
    return stats


def test_lexicon_stage_resume(ray_session, tmp_path):
    """A build resumed after losing the lexicon manifest and one shard's
    file, or holding a manifest of the one-file layout (no sums), runs
    the lexicon stage again and gives the clean build's lexicon and
    stats."""
    from mircv_ray.build import read_manifest, write_manifest
    cfg = IndexConfig(num_shards=4, salt_buckets=2)
    corpus = generate_corpus_table(200, with_sha=False)
    clean = tmp_path / "clean"
    _build(corpus, clean, cfg)
    out = tmp_path / "idx"
    _build(corpus, out, cfg)
    (out / "_manifests" / "lexicon.json").unlink()
    (out / "lexicon" / "shard-2.parquet").unlink()
    _build(corpus, out, cfg)
    assert _files(out / "lexicon") == _files(clean / "lexicon")
    assert _stats_sans_timing(out) == _stats_sans_timing(clean)
    # the one-file layout: part-0.parquet and a manifest without sums
    old = {k: v for k, v in read_manifest(str(out), "lexicon").items()
           if k in ("seconds", "postings_completed_at")}
    shutil.rmtree(out / "lexicon")
    (out / "lexicon").mkdir()
    pq.write_table(_lexicon(clean), str(out / "lexicon" / "part-0.parquet"))
    write_manifest(str(out), "lexicon", old)
    _build(corpus, out, cfg)
    assert "num_terms" in read_manifest(str(out), "lexicon")
    assert _files(out / "lexicon") == _files(clean / "lexicon")
    assert _stats_sans_timing(out) == _stats_sans_timing(clean)


@pytest.mark.parametrize("path", ["fresh", "resume", "positions", "scale"])
def test_zero_column_empty_block(ray_session, tmp_path, monkeypatch, path):
    """A corpus whose read yields an empty block with no columns builds
    the same postings (and positions) as the same corpus without it:
    fresh build, resume with the docs stage done, the positions build and
    the scale docId path."""
    import ray.data as rd

    from mircv_ray.build import build_positions_index
    from mircv_ray.build import index_build as ib
    if path == "scale":
        monkeypatch.setattr(ib, "DRIVER_IDMAP_MAX_ROWS", 0)
    t = generate_corpus_table(200, with_sha=False)

    def corpus(empty_block):
        return ([pa.table({})] if empty_block else []) + [t[:100], t[100:]]

    def run(empty_block, out):
        if path == "positions":
            _build(corpus(False), out)
            build_positions_index(str(out), rd.from_arrow(corpus(empty_block)),
                                  CFG)
            return _files(out / "positions")
        if path == "resume":
            _build(corpus(False), out)
            for stage in ("postings", "lexicon"):
                (out / "_manifests" / f"{stage}.json").unlink()
            shutil.rmtree(out / "postings")
        stats = _build(corpus(empty_block), out)
        return stats["metrics"]["n_postings"], _files(out / "postings")

    assert run(True, tmp_path / "a") == run(False, tmp_path / "b")


def test_targz_extracted_once(ray_session, tmp_path, monkeypatch):
    """Two reads of one archive share one extracted directory."""
    import tempfile

    from mircv_ray.sources import collection_tsv_as_corpus
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    tsv = tmp_path / "collection.tsv"
    tsv.write_text("0\thash join table\n1\tmerge sort run\n")
    tgz = tmp_path / "collection.tar.gz"
    with tarfile.open(tgz, "w:gz") as tf:
        tf.add(tsv, arcname="collection.tsv")
    a = collection_tsv_as_corpus(str(tgz)).take_all()
    b = collection_tsv_as_corpus(str(tgz)).take_all()
    assert a == b and len(a) == 2
    assert len(list(scratch.iterdir())) == 1
