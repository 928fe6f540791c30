"""Decode the whole postings store back to (term, doc_id, tf) rows.

Every whole-index pass reads postings here, one shard directory per
task: a term's whole posting list sits in one ``shard=S`` directory,
so a task holds complete lists — the champion lists take their
per-term top-m in place, and vacuum / merge / prune decode their
source shards inside the postings exchange's maps
(``build/lifecycle.py``). Each segment file is read whole with
pyarrow, not scanned through Ray Data in 128-row row groups. The vbyte
path decodes a file's rows with one varint pass + one cumsum (the same
whole-stream trick as IndexReader.decoded, generalized to many terms);
ef/none fall back to per-block NumPy decode. ``dump_postings`` is also
the driver correctness gate's full encode -> parquet -> decode round
trip.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs.blocks import decode_block_ids, decode_block_tfs

EMPTY_ROWS = {
    "term": pa.array([], type=pa.string()),
    "doc_id": pa.array([], type=pa.int64()),
    "tf": pa.array([], type=pa.int64()),
}


def _flatten_blocks(batch: pa.Table):
    """blocks list<struct> column -> flat per-block arrays + per-row block
    counts (vectorized; no .as_py() over rows). The binary fields stay an
    Arrow StructArray — each decode path views their values buffers
    directly (vbyte/unary: one packed pass; ef/none: memoryview slices),
    never a per-block to_pylist."""
    blocks = batch["blocks"]
    if isinstance(blocks, pa.ChunkedArray):
        blocks = blocks.combine_chunks()
    flat = blocks.flatten()  # StructArray of all blocks in row order
    import pyarrow.compute as pc
    row_counts = pc.list_value_length(blocks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    bmax = flat.field("max_doc_id").to_numpy(zero_copy_only=False)
    bn = flat.field("n").to_numpy(zero_copy_only=False)
    return row_counts, bmax, bn, flat


def _decode_batch(batch: pa.Table, codec: str, docno_offset: int) -> pa.Table:
    from ..util import binary_values_list, binary_values_parts
    row_counts, bmax, bn, flat = _flatten_blocks(batch)
    total = int(bn.sum())
    terms = batch["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    # postings per ROW (sum of its blocks' n)
    row_ends = np.cumsum(row_counts)
    row_n = np.add.reduceat(bn, np.append(0, row_ends[:-1])) \
        if len(bn) else np.zeros(len(batch), dtype=np.int64)
    row_n[row_counts == 0] = 0
    if codec == "vbyte" and total:
        from ..codecs.unary import unary_decode_packed
        from ..codecs.vbyte import vbyte_decode
        ids_data, _ = binary_values_parts(flat.field("ids"))
        gaps = vbyte_decode(ids_data.tobytes(), total)
        csum = np.cumsum(gaps)
        # each ROW is an independent gap chain (block bases chain within
        # a row starting from 0): re-anchor at every row start
        val_starts = np.cumsum(bn) - bn
        row_start_vals = val_starts[np.append(0, row_ends[:-1])[
            row_counts > 0]] if len(bn) else np.zeros(0, np.int64)
        offs = np.where(row_start_vals > 0, csum[row_start_vals - 1], 0)
        seg_lens = np.diff(np.append(row_start_vals, total))
        ids_np = csum - np.repeat(offs, seg_lens)
        tfs_data, tfs_lens = binary_values_parts(flat.field("tfs"))
        tfs_np = unary_decode_packed(tfs_data, tfs_lens, bn)
    else:
        ids_bufs = binary_values_list(flat.field("ids"))
        tfs_bufs = binary_values_list(flat.field("tfs"))
        ids, tfs = [], []
        prev = 0
        bi = 0
        for r in range(len(batch)):
            prev = 0
            for _ in range(int(row_counts[r])):
                ids.append(decode_block_ids(ids_bufs[bi], codec, int(bn[bi]),
                                            int(bmax[bi]), prev))
                tfs.append(decode_block_tfs(tfs_bufs[bi], codec,
                                            int(bn[bi])))
                prev = int(bmax[bi])
                bi += 1
        ids_np = (np.concatenate(ids) if ids else np.zeros(0, np.int64))
        tfs_np = (np.concatenate(tfs) if tfs else np.zeros(0, np.int64))
    return pa.table({
        "term": terms.take(pa.array(
            np.repeat(np.arange(len(batch)), row_n), type=pa.int64())),
        "doc_id": pa.array(ids_np + docno_offset, type=pa.int64()),
        "tf": pa.array(tfs_np, type=pa.int64()),
    })


def shard_dirs(index_dir: str) -> list[Path]:
    """The ``postings/shard=S`` directories of ``index_dir`` that hold
    files, in shard order. A term's whole posting list lives in ONE of
    them (shard = crc32(term) % num_shards, ``term_shard``), so each is
    a term-complete unit of work for a whole-index pass."""
    dirs = [d for d in (Path(index_dir) / "postings").glob("shard=*")
            if any(d.glob("*.parquet"))]
    return sorted(dirs, key=lambda d: int(d.name.split("=")[1]))


def read_shard(shard_dir: str, codec: str, docno_offset: int) -> pa.Table:
    """(term, doc_id, tf) rows of one shard directory: each segment file
    read whole with pyarrow (only the decode inputs — the seg-metadata
    columns are lexicon fodder) and batch-decoded."""
    return pa.concat_tables([
        _decode_batch(pq.ParquetFile(f).read(columns=["term", "blocks"]),
                      codec, docno_offset)
        for f in sorted(Path(shard_dir).glob("*.parquet"))])


def shard_dataset(index_dir: str, docno_offset: int, step):
    """Dataset of ``step(rows)`` with ONE task per term-complete shard
    directory, ``rows`` being that shard's decoded (term, doc_id, tf)
    rows — so a per-term step (a top-m) needs no term exchange."""
    import ray.data as rd
    from ..build.index_build import load_stats
    codec = load_stats(index_dir)["codec"]
    dirs = shard_dirs(index_dir)
    if not dirs:
        return rd.from_arrow(pa.table(EMPTY_ROWS))

    def task(batch: pa.Table) -> pa.Table:
        return step(read_shard(batch["dir"][0].as_py(), codec, docno_offset))
    # one single-row block per shard + batch_size=1: one task per shard
    return rd.from_arrow([pa.table({"dir": [str(d)]}) for d in dirs]) \
        .map_batches(task, batch_format="pyarrow", batch_size=1)


def dump_postings(index_dir: str, docno_offset: int = -1,
                  apply_tombstones: bool = False):
    """Dataset of (term, doc_id, tf), one read task per postings shard.
    ``docno_offset=-1`` converts engine docIds back to docnos
    (docno = docId - 1, DocumentIndex.java:82-84). ``apply_tombstones``
    drops postings of deleted docs (the query-time view of an index with
    a tombstone sidecar; the array rides the closure — it is
    deletion-sized, not corpus-sized)."""
    from ..build.tombstones import _filter_remap, load_tombstones
    tombs = (load_tombstones(index_dir) if apply_tombstones
             else np.empty(0, dtype=np.int64))
    if not len(tombs):
        return shard_dataset(index_dir, docno_offset, lambda rows: rows)
    # rows carry docId + docno_offset, so the tombstones shift with them
    return shard_dataset(index_dir, docno_offset,
                         _filter_remap(tombs + docno_offset, renumber=False))
