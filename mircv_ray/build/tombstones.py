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

Vacuum runs the lifecycle rewrite path (``build/lifecycle.py``): one
exchange map per source shard decodes it, filters + renumbers its
postings and turns them into partial lists for the build's own
encode/lexicon/stats stages. No content scan, ever.
"""

from __future__ import annotations

import logging
import os
import shutil
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from .index_build import _write_doc_len_sidecar, load_stats

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
    from .lifecycle import rewrite_index

    stats = load_stats(index_dir)
    tombs = load_tombstones(index_dir)
    n_new = int(stats["n_docs"]) - len(tombs)
    remap = _filter_remap(tombs, renumber=True)

    def write_docs(out: Path, cfg: IndexConfig, metrics: dict) -> int:
        import ray.data as rd
        # filter + dense renumber (streamed)
        rd.read_parquet(f"{index_dir}/docs") \
            .map_batches(remap, batch_format="pyarrow") \
            .write_parquet(str(out / "docs"), min_rows_per_file=200_000)
        (out / "docs").mkdir(exist_ok=True)  # all-deleted: empty, present
        # surviving collection length comes out of the sidecar pass
        # itself (per-batch partial sums; nothing corpus-sized on the
        # driver)
        return _write_doc_len_sidecar(out, n_new, cfg.salt_buckets)

    return rewrite_index(
        "vacuum", stats, out_dir, cfg, n_docs=n_new,
        lineage={"vacuumed_from": str(index_dir),
                 "n_deleted": int(len(tombs))},
        write_docs=write_docs, sources=[(index_dir, 0)], step=remap)


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
    from .lifecycle import cfg_from_stats

    stats = load_stats(index_dir)
    # None-sentinel checks, NOT truthiness: an explicit 0 must hit the
    # validation below instead of silently keeping the source layout
    given = {"codec": codec, "num_shards": num_shards,
             "salt_buckets": salt_buckets}
    cfg = cfg_from_stats(stats, **{k: v for k, v in given.items()
                                   if v is not None})
    cfg.codec_valid()
    if cfg.num_shards <= 0 or cfg.salt_buckets <= 0:
        raise ValueError("num_shards and salt_buckets must be positive")
    metrics = vacuum_index(index_dir, out_dir, cfg)
    metrics["metrics"]["resharded_from"] = {
        "num_shards": stats["num_shards"],
        "salt_buckets": stats["salt_buckets"],
        "codec": stats["codec"]}
    return metrics
