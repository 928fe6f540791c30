"""Document deletion: tombstones + vacuum.

The reference engine is immutable once built; real corpora need
takedowns (DMCA, PII, licence revocation). Two-phase deletion, the
standard LSM-ish shape:

1. ``delete_docs(index_dir, doc_ids)`` — append the engine docIds to a
   ``tombstones/`` parquet sidecar (atomic tmp+rename, accumulates
   across calls). No index bytes change; readers load the sorted
   tombstone array (8 B per deleted doc — deletions are a small
   fraction of the corpus between vacuums) and every query path filters
   deleted docs out of results. Scoring keeps the ORIGINAL collection
   statistics (N, avgDocLen, idf) until vacuum — the usual contract.

2. ``vacuum_index(index_dir, out_dir)`` — physically remove tombstoned
   postings and renumber the survivors densely. Because the build's
   docId = 1 + rank in (repo, path) order and deletion preserves the
   survivors' relative order, the new id is pure arithmetic:
   ``new_id = old_id - (#tombstones < old_id)`` — one ``searchsorted``
   against the (small, broadcastable) tombstone array, no survivor-
   sized mapping anywhere. The vacuumed index is therefore
   BIT-IDENTICAL to a from-scratch build over the surviving documents
   (fresh N / avgDocLen / idf / upper bounds), which the tests pin.

Vacuum reuses the merge machinery: postings decode -> filter+remap ->
partial rows -> the build's own encode/lexicon/stats stages. No content
scan, ever.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig
from .index_build import (
    _build_lexicon_files,
    _encode_partials,
    _partition_stats,
    _write_doc_len_sidecar,
    _write_stats,
    load_stats,
)
from .manifests import write_manifest
from .merge import _rows_to_partials

logger = logging.getLogger(__name__)


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique engine docIds marked deleted (empty array if none)."""
    d = Path(index_dir) / "tombstones"
    files = sorted(d.glob("*.parquet")) if d.exists() else []
    if not files:
        return np.empty(0, dtype=np.int64)
    ids = np.concatenate([pq.read_table(str(f), columns=["doc_id"])
                          ["doc_id"].to_numpy() for f in files])
    return np.unique(ids)


def delete_docs(index_dir: str, doc_ids) -> int:
    """Mark engine docIds deleted (tombstone append). Returns the total
    number of distinct tombstoned docs after this call. Ids must be
    valid for the index (1..n_docs); re-deleting an id is a no-op."""
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    n_docs = int(load_stats(index_dir)["n_docs"])
    if len(ids) and (ids[0] < 1 or ids[-1] > n_docs):
        bad = ids[0] if ids[0] < 1 else ids[-1]
        raise ValueError(f"doc_id {bad} outside this index's id space "
                         f"[1, {n_docs}]")
    d = Path(index_dir) / "tombstones"
    d.mkdir(exist_ok=True)
    if len(ids):
        tmp = d / f".{uuid.uuid4().hex}.tmp"
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}),
                       str(tmp))
        os.replace(tmp, d / f"del-{uuid.uuid4().hex[:12]}.parquet")
    return int(len(load_tombstones(index_dir)))


def clear_tombstones(index_dir: str) -> None:
    shutil.rmtree(Path(index_dir) / "tombstones", ignore_errors=True)


def _filter_remap(tombs: np.ndarray, renumber: bool):
    """Batch fn: drop tombstoned doc_id rows; optionally renumber the
    survivors densely (new = old - #tombstones < old). The tombstone
    array rides the closure — it is deletion-sized, not corpus-sized."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        pos = np.searchsorted(tombs, ids)
        hit = np.zeros(len(ids), dtype=bool)
        inb = pos < len(tombs)
        hit[inb] = tombs[pos[inb]] == ids[inb]
        if hit.any():
            batch = batch.filter(pa.array(~hit))
            ids = ids[~hit]
            pos = pos[~hit]
        if renumber and len(ids):
            i = batch.schema.get_field_index("doc_id")
            batch = batch.set_column(
                i, "doc_id", pa.array(ids - pos, type=pa.int64()))
        return batch
    return f


def vacuum_index(index_dir: str, out_dir: str,
                 cfg: IndexConfig | None = None) -> dict:
    """Physically remove tombstoned documents: write a fresh index at
    ``out_dir`` that is bit-identical to a from-scratch build over the
    surviving documents (dense renumbered docIds, fresh collection
    stats / idf / upper bounds). No content scan — postings decode,
    filter, remap, re-encode. ``cfg`` defaults to the source index's
    layout; tokenizer knobs cannot change (nothing is re-tokenized)."""
    import ray.data as rd

    from ..query.dump import dump_postings
    from .merge import _TOKENIZER_KNOBS

    stats = load_stats(index_dir)
    cfg = cfg or IndexConfig(
        parse=stats["parse"], squeeze=stats["squeeze"],
        codec=stats["codec"], num_shards=stats["num_shards"],
        salt_buckets=stats["salt_buckets"],
        k1=stats["k1"], b=stats["b"])
    cfg.codec_valid()
    for knob in _TOKENIZER_KNOBS:
        if getattr(cfg, knob) != stats[knob]:
            raise ValueError(
                f"cfg.{knob}={getattr(cfg, knob)!r} does not match the "
                f"input index ({stats[knob]!r}); vacuum never "
                "re-tokenizes, so tokenizer knobs cannot change here")
    tombs = load_tombstones(index_dir)
    n_old = int(stats["n_docs"])
    n_new = n_old - len(tombs)

    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    metrics: dict = {"vacuumed_from": str(index_dir),
                     "n_deleted": int(len(tombs)), "n_docs": n_new}

    # ------- docs: filter + dense renumber (streamed) -------
    t0 = time.time()
    rd.read_parquet(f"{index_dir}/docs") \
        .map_batches(_filter_remap(tombs, renumber=True),
                     batch_format="pyarrow") \
        .write_parquet(str(out / "docs"), min_rows_per_file=200_000)
    (out / "docs").mkdir(exist_ok=True)  # all-deleted: empty but present
    # surviving collection length comes out of the sidecar pass itself
    # (per-batch partial sums; nothing corpus-sized on the driver)
    total_new = _write_doc_len_sidecar(out, n_new, cfg.salt_buckets)
    avg_new = total_new / max(n_new, 1)
    write_manifest(out_dir=str(out), stage="docs", payload={
        "lineage": {"vacuumed_from": str(index_dir),
                    "n_deleted": int(len(tombs))},
        "n_docs": n_new, "total_doc_len": total_new,
        "seconds": time.time() - t0,
    })
    metrics["docs_seconds"] = time.time() - t0

    # ------- postings: decode -> filter+remap -> re-encode -------
    t1 = time.time()
    xstats: dict = {}
    if any(Path(index_dir, "postings").glob("**/*.parquet")) and n_new:
        rows = dump_postings(index_dir, docno_offset=0).map_batches(
            _filter_remap(tombs, renumber=True), batch_format="pyarrow")
        posts = rows.map_batches(
            _rows_to_partials(cfg.num_shards, cfg.salt_buckets, n_new),
            batch_format="pyarrow")
        xstats = _encode_partials(posts, out, cfg, n_new, avg_new)
    else:
        (out / "postings").mkdir(exist_ok=True)
    write_manifest(out_dir=str(out), stage="postings", payload={
        "seconds": time.time() - t1, "codec": cfg.codec,
        "salt_buckets": cfg.salt_buckets, "num_shards": cfg.num_shards,
        "partitions": _partition_stats(out / "postings"), "sub": xstats,
    })
    metrics["postings_seconds"] = time.time() - t1

    # ------- lexicon + stats: the build's own stage code -------
    t2 = time.time()
    _build_lexicon_files(out, n_new)
    write_manifest(out_dir=str(out), stage="lexicon",
                   payload={"seconds": time.time() - t2})
    metrics["lexicon_seconds"] = time.time() - t2
    return _write_stats(out, cfg, n_new, total_new, metrics)


def reshard_index(index_dir: str, out_dir: str,
                  num_shards: int | None = None,
                  salt_buckets: int | None = None,
                  codec: str | None = None) -> dict:
    """Re-LAYOUT an index — change its term-hash shard count, docId
    salting, or codec — without re-tokenizing or touching content: the
    operational fix when a fleet resizes or term skew evolves (a shard
    layout tuned for N nodes starves 4N; finer salting splits a
    mega-term that emerged after the build). Runs the vacuum pipeline
    (postings decode -> re-encode into the new layout, docs/doc-length
    sidecar rewritten for the new salt ranges) with the SOURCE index's
    tombstones applied along the way, producing exactly what a
    from-scratch build over the surviving docs with the new knobs
    would produce — every query path runs on it unmodified.

    Defaults keep the source value for any knob not given. Tokenizer
    knobs (parse/squeeze) and BM25 parameters carry over verbatim.
    """
    stats = load_stats(index_dir)
    # None-sentinel checks, NOT truthiness: an explicit 0 must hit the
    # validation below instead of silently keeping the source layout
    cfg = IndexConfig(
        parse=stats["parse"], squeeze=stats["squeeze"],
        codec=stats["codec"] if codec is None else codec,
        num_shards=int(stats["num_shards"] if num_shards is None
                       else num_shards),
        salt_buckets=int(stats["salt_buckets"] if salt_buckets is None
                         else salt_buckets),
        k1=stats["k1"], b=stats["b"])
    cfg.codec_valid()
    if cfg.num_shards <= 0 or cfg.salt_buckets <= 0:
        raise ValueError("num_shards and salt_buckets must be positive")
    metrics = vacuum_index(index_dir, out_dir, cfg)
    metrics["metrics"]["resharded_from"] = {
        "num_shards": stats["num_shards"],
        "salt_buckets": stats["salt_buckets"],
        "codec": stats["codec"]}
    return metrics
