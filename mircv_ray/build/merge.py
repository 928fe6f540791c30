"""Incremental index compaction: merge two indexes into one.

The reference engine (InvertedIndex.java) is batch-only — adding
documents means a full rebuild, re-tokenizing every document. At the
100 TB north star that is the dominant cost (the content scan), so this
module adds the standard incremental-indexing story on top of the same
on-disk format: build a small DELTA index over just the new documents,
then ``merge_indexes(base, delta, out)`` compacts the two stores into
one index that is bit-identical to a full rebuild over the combined
corpus — WITHOUT touching any document content.

Semantics / preconditions:
- the delta corpus's (repo, path) keys must all sort AFTER the base
  corpus's keys (append-style ingestion: new repos / new shards). Then
  docId(base) = unchanged, docId(delta) = delta's own id + n_base, which
  is exactly the id a full rebuild over the union would assign — so the
  merged index equals the full rebuild byte for byte (same postings,
  same blocks, same lexicon), which is what the pytest + driver oracle
  pin. Interleaved keys still produce a CORRECT index (unique docIds,
  right postings per document); only the docno<->docId mapping differs
  from a from-scratch build.
- pending tombstones on either input CARRY THROUGH: the merged index's
  tombstone sidecar is the union of both sides' (delta ids offset by
  n_base), so logically-deleted documents stay deleted. Vacuum the
  merged index to make the removals physical.
- base and delta must be tokenizer-compatible (same parse / squeeze /
  term_dimension knobs): postings are merged as (term, docId, tf) facts,
  so mixed tokenizers would mean mixed vocabularies. Validated.
- input codecs may differ from each other and from the output codec
  (postings are decoded, then re-encoded with ``cfg.codec``).

Scale shape (the point of the design):
- NO content scan: inputs are the two postings stores (compressed,
  ~10-20% of corpus bytes) + the slim docs tables.
- postings run the lifecycle rewrite path (build/lifecycle.py): one
  exchange map per source shard of either side reads and decodes it
  (the vbyte fast path is one varint pass + cumsum per file,
  query/dump.py) and emits partial posting lists; the only exchange is
  the same (shard, seg) map/reduce the from-scratch build pays — over
  partial posting lists, never documents. The two sides' layouts
  (num_shards, salt_buckets, codec) need not match each other or the
  output's.
- doc tables merge as a streamed union + constant docId offset.
- everything downstream (encode, lexicon, stats) is the from-scratch
  build's own stage code (_encode_partials / _lexicon_stage),
  so merge output cannot drift from build output.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig
from .index_build import _doc_len_file_from_docs, load_stats

logger = logging.getLogger(__name__)


def _offset_doc_ids(offset: int):
    def shift(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("doc_id")
        ids = pc.add(batch["doc_id"], offset)
        return batch.set_column(i, "doc_id", ids.cast(pa.int64()))
    return shift


def merge_indexes(base_dir: str, delta_dir: str, out_dir: str,
                  cfg: IndexConfig | None = None) -> dict:
    """Merge a BASE index and a DELTA index (built over the new documents
    only) into a fresh index at ``out_dir``; returns its stats dict.

    Equivalent to a full ``build_index`` over the combined corpus when
    the delta's (repo, path) keys sort after the base's (see module
    docstring), but reads only the two index stores — no document
    content, no tokenization. ``cfg`` controls the OUTPUT layout
    (codec / shards / salt); tokenizer knobs must match the inputs.
    ``out_dir`` is rebuilt from scratch each call (compaction is cheap
    relative to a content scan)."""
    from .lifecycle import _TOKENIZER_KNOBS, rewrite_index
    from .tombstones import load_tombstones

    base_stats = load_stats(base_dir)
    delta_stats = load_stats(delta_dir)
    for knob in _TOKENIZER_KNOBS:
        if base_stats[knob] != delta_stats[knob]:
            raise ValueError(
                f"base and delta indexes disagree on tokenizer knob "
                f"{knob!r} ({base_stats[knob]!r} != {delta_stats[knob]!r}) "
                "— their vocabularies are incompatible; rebuild instead")
    n_base = int(base_stats["n_docs"])
    n_docs = n_base + int(delta_stats["n_docs"])

    def write_docs(out: Path, cfg: IndexConfig, metrics: dict) -> int:
        import ray.data as rd
        # streamed union, delta ids offset by n_base
        docs = rd.read_parquet(f"{base_dir}/docs").union(
            rd.read_parquet(f"{delta_dir}/docs").map_batches(
                _offset_doc_ids(n_base), batch_format="pyarrow"))
        docs.write_parquet(str(out / "docs"), min_rows_per_file=200_000)
        total_doc_len = _doc_len_file_from_docs(out, n_docs)
        # pending deletions survive the merge: the merged store carries
        # the union of both sides' tombstone sidecars (delta ids shifted
        # by n_base), so a deleted document stays invisible to every
        # query path until a vacuum makes the removal physical. Without
        # this, merging an index with pending DMCA/PII takedowns would
        # silently resurrect the deleted documents (postings and docs
        # merge UNFILTERED — the tombstone filter stays logical, exactly
        # as on the inputs).
        carried = np.concatenate([load_tombstones(base_dir),
                                  load_tombstones(delta_dir) + n_base])
        if len(carried):
            d = out / "tombstones"
            d.mkdir(exist_ok=True)
            pq.write_table(
                pa.table({"doc_id": pa.array(np.unique(carried),
                                             pa.int64())}),
                str(d / "del-carried.parquet"))
            metrics["carried_tombstones"] = int(len(carried))
        return total_doc_len

    # the shards' rows come out of the decode as stored engine docIds;
    # the delta's shift by n_base to their merged identity
    return rewrite_index(
        "merge", base_stats, out_dir, cfg, n_docs=n_docs,
        lineage={"merged_from": [str(base_dir), str(delta_dir)]},
        write_docs=write_docs, sources=[(base_dir, 0), (delta_dir, n_base)],
        step=lambda rows: rows)
