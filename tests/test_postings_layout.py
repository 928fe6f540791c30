"""Postings row-group layout.

Every (shard, seg) postings file is term-sorted in row groups of at most
POSTINGS_ROW_GROUP_ROWS rows, so row-group term ranges are disjoint and
a cold term lookup decodes one small row group per file instead of the
whole file. Checked for a salted build, a vacuum's re-encode of it, and
the positions sidecar. An index written with one row group per file (the older
layout) must read back identically.
"""

import shutil
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from mircv_ray.build.index_build import POSTINGS_ROW_GROUP_ROWS
from mircv_ray.config import IndexConfig
from mircv_ray.query import IndexReader, QueryEngine
from mircv_ray.sources import generate_corpus_table

N_DOCS = 1200
# two shards: ~1k terms per file, so every file spans several row groups
CFG = IndexConfig(num_shards=2, salt_buckets=2)


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    import ray.data as rd

    from mircv_ray.build import (build_index, build_positions_index,
                                 clear_tombstones, delete_docs,
                                 vacuum_index)
    base = tmp_path_factory.mktemp("layout")
    corpus = rd.from_arrow(
        generate_corpus_table(N_DOCS, seed=7).drop_columns(["sha256"]))
    out = {"salt2": str(base / "salt2"), "vacuumed": str(base / "vacuumed")}
    n_docs = build_index(corpus, out["salt2"], CFG)["n_docs"]
    # vacuum the index into a fresh one, then undelete the source so the
    # other checks see every doc
    delete_docs(out["salt2"], np.arange(1, n_docs + 1, 10))
    vacuum_index(out["salt2"], out["vacuumed"])
    clear_tombstones(out["salt2"])
    build_positions_index(out["salt2"], corpus, CFG)
    return out


def _files(index_dir: str, sub: str = "postings") -> list[Path]:
    files = sorted(Path(index_dir, sub).glob("shard=*/*.parquet"))
    assert files
    return files


def _assert_term_row_groups(path: Path) -> None:
    """Row groups within the bound, term-sorted, disjoint ranges."""
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups > 1, path      # the bound is exercised
    terms = pq.ParquetFile(path).read(columns=["term"])["term"].to_pylist()
    assert terms == sorted(terms) and len(set(terms)) == len(terms), path
    prev_max = None
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        assert rg.num_rows <= POSTINGS_ROW_GROUP_ROWS, (path, i)
        stats = rg.column(0).statistics
        assert rg.column(0).path_in_schema == "term" and stats.has_min_max
        assert stats.min <= stats.max
        assert prev_max is None or prev_max < stats.min, (path, i)
        prev_max = stats.max


@pytest.mark.parametrize("name", ["salt2", "vacuumed"])
def test_postings_row_groups(indexes, name):
    for f in _files(indexes[name]):
        _assert_term_row_groups(f)


def test_vacuum_writes_one_file_per_partition(indexes):
    """The vacuum re-encode goes through the build's exchange: exactly
    one shard=S/seg-G.parquet per (shard, seg) partition, and its
    exchange stats land in the postings manifest."""
    from mircv_ray.build.manifests import read_manifest
    vac = indexes["vacuumed"]
    names = sorted(str(f.relative_to(Path(vac, "postings")))
                   for f in Path(vac, "postings").rglob("*.parquet"))
    assert names == [f"shard={s}/seg-{g}.parquet"
                     for s in range(CFG.num_shards)
                     for g in range(CFG.salt_buckets)]
    sub = read_manifest(vac, "postings")["sub"]
    assert sub and sub["n_partitions"] == CFG.num_shards * CFG.salt_buckets


def test_positions_row_groups(indexes):
    for f in _files(indexes["salt2"], "positions"):
        _assert_term_row_groups(f)


def _df1_terms(reader: IndexReader, n: int) -> list[str]:
    terms = [t for t, (df, *_rest) in reader._lex.items() if df == 1]
    assert len(terms) >= n
    return terms[:: len(terms) // n][:n]


@pytest.mark.parametrize("name", ["salt2", "vacuumed"])
def test_cold_df1_lookup_reads_one_row_group(indexes, name, monkeypatch):
    """Through both read paths: prefetch (a query) and a single-term
    fetch (decoded on an uncached term)."""
    calls = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *args, **kwargs):
        calls.append(list(row_groups))
        return orig(self, row_groups, *args, **kwargs)

    engine = QueryEngine(indexes[name])
    reader = engine.reader
    for s in range(reader.stats["num_shards"]):
        reader._shard_meta(s)           # file opens are not under test
    salt = reader.stats.get("salt_buckets", 1)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    for i, term in enumerate(_df1_terms(reader, 6)):
        calls.clear()
        if i % 2:
            ids, _ = reader.decoded(term)
        else:
            assert len(engine.score_terms([term])) == 1
            ids, _ = reader.decoded(term)
        assert len(ids) == 1
        # one row group per call; at most one call per salt segment file
        assert calls and all(len(rgs) == 1 for rgs in calls), calls
        assert len(calls) <= salt, calls


def test_single_row_group_index_reads_identically(indexes, tmp_path):
    """Rewrite every postings file of a built index with one row group
    (the layout indexes had before row groups were bounded): decoded
    postings and top-10 results are unchanged."""
    src = indexes["salt2"]
    old = str(tmp_path / "one_rg")
    shutil.copytree(src, old)
    for f in _files(old):
        pq.write_table(pq.ParquetFile(f).read(), f)
        assert pq.ParquetFile(f).metadata.num_row_groups == 1
    a, b = IndexReader(src), IndexReader(old)
    for term in a._lex:
        da, db = a.decoded(term), b.decoded(term)
        assert da[0].tolist() == db[0].tolist(), term
        assert da[1].tolist() == db[1].tolist(), term
    common = sorted(a._lex.items(), key=lambda kv: -kv[1][0])[:3]
    common = [t for t, _ in common]
    queries = [[t] for t in _df1_terms(a, 20)]
    queries += [q + common[:i % 4] for i, q in enumerate(queries)]
    ea, eb = QueryEngine(src), QueryEngine(old)
    for q in queries:
        assert ea.score_terms(q) == eb.score_terms(q), q
    # the multi-term prefetch path over several shards at once
    ra, rb = IndexReader(src), IndexReader(old)
    terms = list(a._lex)[::7]
    ra.prefetch(terms)
    rb.prefetch(terms)
    assert set(ra._cache) == set(rb._cache) == set(terms)
    for t in terms:
        for xa, xb in zip(ra._cache[t], rb._cache[t]):
            if isinstance(xa, np.ndarray):
                assert np.array_equal(xa, xb), t
            else:
                assert xa == xb, t
