"""The one rewrite path of the index lifecycle ops: vacuum, merge and
prune (reshard and upsert run through them).

None of them re-tokenizes. Each writes its docs table its own way,
then rewrites the postings of its source indexes through the build's
own (shard, seg) exchange, lexicon and stats code, so a rewritten
index cannot drift from a from-scratch build.

A term's whole posting list sits in one source shard directory
(shard = crc32(term) % num_shards, ``term_shard``). The exchange's
input is therefore one row per source shard, and each map task, for
its shard:

1. reads and decodes it with pyarrow (``query/dump.py``);
2. applies the op's row step: the tombstone filter + renumber, the
   prune's per-term top-m (the rows are term-complete, so no term
   exchange), or nothing — a merge's delta docId offset rides the
   decode;
3. turns the rows into partial posting lists for the output layout.

The map count is the source shard count. Per-shard units are
term-complete only within one source index; a merge's base and delta
lists of one term meet in the exchange's reduce, which sorts every
(shard, seg) group's postings by docId whatever the input layouts.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig
from ..util import packed_tf_dtype, sort_pairs
from .index_build import (
    EMPTY_PARTIALS,
    _build_lexicon_files,
    _encode_partials,
    _ids_dtype,
    _pack_partials,
    _partition_stats,
    _write_stats,
    load_stats,
)
from .manifests import write_manifest

_TOKENIZER_KNOBS = ("parse", "squeeze")


def cfg_from_stats(stats: dict, **layout) -> IndexConfig:
    """The config an existing index was built with (its tokenizer,
    layout and BM25 knobs, from its stats), ``layout`` overriding some."""
    knobs = {k: stats[k] for k in (*_TOKENIZER_KNOBS, "codec", "num_shards",
                                   "salt_buckets", "k1", "b")}
    return IndexConfig(**{**knobs, **layout})


def _rows_to_partials(num_shards: int, salt_buckets: int, n_docs: int):
    """(term, doc_id, tf) rows -> partial-posting-list rows, as the
    build's explode emits them (minus the tf counting: tf is already a
    column here)."""

    def to_partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return EMPTY_PARTIALS
        terms = batch["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        denc = pc.dictionary_encode(terms)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy()
        did = batch["doc_id"].to_numpy().astype(_ids_dtype(n_docs))
        tf = batch["tf"].to_numpy()
        tf = tf.astype(packed_tf_dtype(tf))
        order = sort_pairs(codes, did)
        return _pack_partials(codes[order], did[order], tf[order],
                              denc.dictionary, num_shards, salt_buckets,
                              n_docs)
    return to_partials


def rewrite_index(op: str, src_stats: dict, out_dir: str,
                  cfg: IndexConfig | None, *, n_docs: int, lineage: dict,
                  write_docs, sources, step) -> dict:
    """Write the index ``out_dir`` from existing indexes; returns its
    stats dict.

    ``cfg`` is the output layout; it defaults to ``src_stats``' (the
    source, or a merge's base), whose tokenizer knobs it must keep.
    ``out_dir`` is rebuilt from scratch. ``write_docs(out, cfg,
    metrics)`` writes the docs table and ``doc_len.i64`` (and any
    carried tombstones) and returns the collection length. The
    postings are those of ``sources``, (index_dir, doc_offset) pairs,
    with ``step`` applied to each source shard's decoded rows."""
    import ray.data as rd

    from ..query.dump import read_shard, shard_dirs

    cfg = cfg or cfg_from_stats(src_stats)
    cfg.codec_valid()
    for knob in _TOKENIZER_KNOBS:
        if getattr(cfg, knob) != src_stats[knob]:
            raise ValueError(
                f"cfg.{knob}={getattr(cfg, knob)!r} does not match the "
                f"input index ({src_stats[knob]!r}); {op} never "
                "re-tokenizes, so tokenizer knobs cannot change here")
    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    metrics: dict = {**lineage, "n_docs": n_docs}

    t0 = time.time()
    total_len = write_docs(out, cfg, metrics)
    write_manifest(str(out), "docs", {
        "lineage": lineage, "n_docs": n_docs, "total_doc_len": total_len,
        "seconds": time.time() - t0,
    })
    metrics["docs_seconds"] = time.time() - t0

    t1 = time.time()
    xstats: dict = {}
    # the exchange's input: one row per source shard directory
    shards = pa.Table.from_pylist([
        {"dir": str(d), "codec": load_stats(idx)["codec"], "doc_offset": off}
        for idx, off in sources for d in shard_dirs(idx)])
    if shards.num_rows and n_docs:
        to_partials = _rows_to_partials(cfg.num_shards, cfg.salt_buckets,
                                        n_docs)

        def shard_to_partials(row: pa.Table) -> pa.Table:
            rows = read_shard(row["dir"][0].as_py(), row["codec"][0].as_py(),
                              row["doc_offset"][0].as_py())
            return to_partials(step(rows))
        xstats = _encode_partials(rd.from_arrow(shards), shard_to_partials,
                                  1, out, cfg, n_docs, total_len / n_docs)
    else:
        (out / "postings").mkdir(exist_ok=True)
    write_manifest(str(out), "postings", {
        "seconds": time.time() - t1, "codec": cfg.codec,
        "salt_buckets": cfg.salt_buckets, "num_shards": cfg.num_shards,
        "partitions": _partition_stats(out / "postings"), "sub": xstats,
    })
    metrics["postings_seconds"] = time.time() - t1

    t2 = time.time()
    _build_lexicon_files(out, n_docs)
    write_manifest(str(out), "lexicon", {"seconds": time.time() - t2})
    metrics["lexicon_seconds"] = time.time() - t2
    return _write_stats(out, cfg, n_docs, total_len, metrics)
