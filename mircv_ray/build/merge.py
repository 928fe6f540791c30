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
- decode -> partial rows is a map-only stream (the vbyte fast path is
  one varint pass + cumsum per batch, query/dump.py); the only full
  exchange is the same (shard, seg) map/reduce the from-scratch build
  pays — but over partial posting lists, never documents.
- doc tables merge as a streamed union + constant docId offset.
- everything downstream (encode, lexicon, stats) is the from-scratch
  build's own stage code (_encode_partials / _build_lexicon_files),
  so merge output cannot drift from build output.
"""

from __future__ import annotations

import logging
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig
from .index_build import (
    _build_lexicon_files,
    _encode_partials,
    _packed_runs,
    _partition_stats,
    _term_shards_memo,
    _write_doc_len_sidecar,
    _write_stats,
    load_stats,
)
from .manifests import write_manifest

logger = logging.getLogger(__name__)


def _rows_to_partials(num_shards: int, salt_buckets: int, n_docs: int):
    """(term, doc_id, tf) rows -> partial-posting-list rows (the explode
    output shape): one row per (term, seg) run within the batch, docIds/
    tfs packed into binary columns. Same kernel shape as _make_explode
    minus the tf counting (tf is already a column here)."""

    empty = pa.table({
        "term": pa.array([], type=pa.string()),
        "shard": pa.array([], type=pa.int64()),
        "seg": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
        "ids_raw": pa.array([], type=pa.binary()),
        "tfs_raw": pa.array([], type=pa.binary()),
    })

    def to_partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        terms = batch["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        denc = pc.dictionary_encode(terms)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        from .index_build import _ids_dtype
        codes = denc.indices.to_numpy()
        did = batch["doc_id"].to_numpy().astype(_ids_dtype(n_docs))
        tf64 = batch["tf"].to_numpy()
        from ..util import packed_tf_dtype
        tf = tf64.astype(packed_tf_dtype(tf64))
        from ..util import sort_pairs
        order = sort_pairs(codes, did)
        codes, did, tf = codes[order], did[order], tf[order]
        if n_docs * salt_buckets < 2**31:
            seg = (did - 1) * salt_buckets // max(n_docs, 1)
        else:
            seg = (did.astype(np.int64) - 1) * salt_buckets \
                // max(n_docs, 1)
        change = np.empty(len(codes), dtype=bool)
        change[0] = True
        np.logical_or(codes[1:] != codes[:-1], seg[1:] != seg[:-1],
                      out=change[1:])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(codes))
        vocab = denc.dictionary
        vshards = _term_shards_memo(vocab, num_shards)
        run_codes = codes[starts]
        return pa.table({
            "term": vocab.take(pa.array(run_codes, type=pa.int64())),
            "shard": pa.array(vshards[run_codes], type=pa.int64()),
            "seg": pa.array(seg[starts], type=pa.int64()),
            "n": pa.array(ends - starts, type=pa.int64()),
            "ids_raw": _packed_runs(did, starts),
            "tfs_raw": _packed_runs(tf, starts),
        })
    return to_partials


def _offset_doc_ids(offset: int):
    def shift(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("doc_id")
        ids = pc.add(batch["doc_id"], offset)
        return batch.set_column(i, "doc_id", ids.cast(pa.int64()))
    return shift


_TOKENIZER_KNOBS = ("parse", "squeeze")


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
    import ray.data as rd

    from ..query.dump import dump_postings

    base_stats = load_stats(base_dir)
    delta_stats = load_stats(delta_dir)
    for knob in _TOKENIZER_KNOBS:
        if base_stats[knob] != delta_stats[knob]:
            raise ValueError(
                f"base and delta indexes disagree on tokenizer knob "
                f"{knob!r} ({base_stats[knob]!r} != {delta_stats[knob]!r}) "
                "— their vocabularies are incompatible; rebuild instead")
    cfg = cfg or IndexConfig(
        parse=base_stats["parse"], squeeze=base_stats["squeeze"],
        codec=base_stats["codec"], num_shards=base_stats["num_shards"],
        salt_buckets=base_stats["salt_buckets"],
        k1=base_stats["k1"], b=base_stats["b"])
    cfg.codec_valid()
    for knob in _TOKENIZER_KNOBS:
        if getattr(cfg, knob) != base_stats[knob]:
            raise ValueError(
                f"cfg.{knob}={getattr(cfg, knob)!r} does not match the "
                f"input indexes ({base_stats[knob]!r}); the merge never "
                "re-tokenizes, so tokenizer knobs cannot change here")

    n_base = int(base_stats["n_docs"])
    n_delta = int(delta_stats["n_docs"])
    n_docs = n_base + n_delta
    total_doc_len = (int(base_stats["total_doc_len"])
                     + int(delta_stats["total_doc_len"]))
    avg_doc_len = total_doc_len / max(n_docs, 1)

    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    metrics: dict = {"merged_from": [str(base_dir), str(delta_dir)],
                     "n_docs": n_docs}

    # ------- docs: streamed union, delta ids offset by n_base -------
    t0 = time.time()
    docs = rd.read_parquet(f"{base_dir}/docs").union(
        rd.read_parquet(f"{delta_dir}/docs").map_batches(
            _offset_doc_ids(n_base), batch_format="pyarrow"))
    docs.write_parquet(str(out / "docs"), min_rows_per_file=200_000)
    _write_doc_len_sidecar(out, n_docs, cfg.salt_buckets)

    # pending deletions survive the merge: the merged store carries the
    # union of both sides' tombstone sidecars (delta ids shifted by
    # n_base), so a deleted document stays invisible to every query path
    # until a vacuum makes the removal physical. Without this, merging
    # an index with pending DMCA/PII takedowns would silently resurrect
    # the deleted documents (postings and docs merge UNFILTERED — the
    # tombstone filter stays logical, exactly as on the inputs).
    from .tombstones import load_tombstones
    carried = np.concatenate([load_tombstones(base_dir),
                              load_tombstones(delta_dir) + n_base])
    if len(carried):
        d = out / "tombstones"
        d.mkdir(exist_ok=True)
        pq.write_table(
            pa.table({"doc_id": pa.array(np.unique(carried), pa.int64())}),
            str(d / "del-carried.parquet"))
        metrics["carried_tombstones"] = int(len(carried))
    write_manifest(out_dir, "docs", {
        "lineage": {"merged_from": [str(base_dir), str(delta_dir)]},
        "n_docs": n_docs, "total_doc_len": total_doc_len,
        "seconds": time.time() - t0,
    })
    metrics["docs_seconds"] = time.time() - t0

    # ------- postings: decode both stores -> partials -> re-encode -------
    # dump_postings(docno_offset=0) yields engine docIds as stored;
    # the delta's ids shift by n_base to their merged identity.
    t1 = time.time()
    xstats: dict = {}
    # an empty side (zero-postings index: all docs stopped/stemmed away)
    # has a postings dir with no parquet files — skip its dump
    sides = [(base_dir, 0), (delta_dir, n_base)]
    dumps = [dump_postings(d, docno_offset=off) for d, off in sides
             if any(Path(d, "postings").glob("**/*.parquet"))]
    if dumps:
        rows = dumps[0]
        for extra in dumps[1:]:
            rows = rows.union(extra)
        posts = rows.map_batches(
            _rows_to_partials(cfg.num_shards, cfg.salt_buckets, n_docs),
            batch_format="pyarrow")
        xstats = _encode_partials(posts, out, cfg, n_docs, avg_doc_len)
    else:   # both sides empty: a valid zero-postings index
        (out / "postings").mkdir(exist_ok=True)
    write_manifest(out_dir, "postings", {
        "seconds": time.time() - t1, "codec": cfg.codec,
        "salt_buckets": cfg.salt_buckets, "num_shards": cfg.num_shards,
        "partitions": _partition_stats(out / "postings"), "sub": xstats,
    })
    metrics["postings_seconds"] = time.time() - t1

    # ------- lexicon + stats: the build's own stage code -------
    t2 = time.time()
    _build_lexicon_files(out, n_docs)
    write_manifest(out_dir, "lexicon", {"seconds": time.time() - t2})
    metrics["lexicon_seconds"] = time.time() - t2
    return _write_stats(out, cfg, n_docs, total_doc_len, metrics)
