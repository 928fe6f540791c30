"""Build paths that default-sized tests do not reach: the scale docId
path on a one-CPU cluster, the shard-local lexicon, a corpus that brings
its own sha256 column, zero-column empty blocks in the token stream, and
the extracted-archive directory of collection_tsv_as_corpus."""

import os
import shutil
import signal
import subprocess
import sys
import tarfile
from pathlib import Path

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


@pytest.mark.parametrize("salt", [1, 3])
def test_shard_local_lexicon_matches_driver_path(ray_session, tmp_path,
                                                 monkeypatch, salt):
    """The shard-local lexicon aggregation (the large-build path) gives
    the driver path's lexicon, after a build and after a vacuum."""
    from mircv_ray.build import delete_docs, vacuum_index
    from mircv_ray.build import index_build as ib
    cfg = IndexConfig(num_shards=4, salt_buckets=salt)
    corpus = generate_corpus_table(200, with_sha=False)
    out = tmp_path / "idx"
    _build(corpus, out, cfg)
    want = _lexicon(out)
    delete_docs(str(out), [1, 5, 9, 120])
    vacuum_index(str(out), str(tmp_path / "vac_driver"))
    monkeypatch.setattr(ib, "DRIVER_LEXICON_MAX_SEGROWS", 0)
    # docs and postings resume; only the lexicon stage runs again
    (out / "_manifests" / "lexicon.json").unlink()
    _build(corpus, out, cfg)
    assert not (out / "lexicon" / "part-0.parquet").exists()
    assert _lexicon(out).equals(want)
    vacuum_index(str(out), str(tmp_path / "vac_local"))
    assert _lexicon(tmp_path / "vac_local").equals(
        _lexicon(tmp_path / "vac_driver"))


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
