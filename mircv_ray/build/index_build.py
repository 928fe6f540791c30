"""Ray-Data-native inverted-index build.

Pipeline (SURVEY.md §3 "Ray Data restatement"):

    corpus (repo, path, commit, lang, content)
      -> tokenize_corpus, inside the read tasks: drop blank docs
         (InvertedIndex.java:45-47 skip path), Tokenizer + sha256 over
         slices of <= TOKENIZE_BATCH_SIZE docs (M2..M10, Arrow kernels)
      -> deterministic docId assignment        (replaces the arrival-order
         counter InvertedIndex.java:22,51: docId = 1 + rank in (repo, path)
         order, computed as per-repo base offsets + within-repo path rank —
         data-dependent only, so identical at any parallelism)
      -> doc table parquet + doc_len.i64 + collection stats  (D5/D6)
      -> explode + (shard, seg) map/reduce     (M11 partial posting lists;
         THE shuffle, _exchange; replaces SPIMI flush + k-way merge
         InvertedIndex.java:85-205)
      -> postings parquet (hash-partitioned by term shard)
      -> lexicon: one task per postings shard group_bys its segment
         metadata on term + idf/UB columns (A1,A5-A8) -> one term-sorted
         lexicon file per shard; stats.json reads the stage manifest's sums

Scale design:
- the only full-data exchanges are the postings exchange and, past
  DRIVER_IDMAP_MAX_ROWS docs, the id assignment's groupby on repo;
  everything else is map-side or metadata-sized.
- term -> shard is functional (crc32, ``term_shard``), so a term's
  segments all sit in one postings shard: the lexicon is one plain task
  per shard at every size, with no shuffle, no global sort and nothing
  on the driver but the per-shard sums.
- hot terms (code corpora: `def`, `return`, `0`) are split across
  ``salt_buckets`` docId-range segments: each (term, seg) encodes
  independently (segments are docId-disjoint ranges, so their
  concatenation in seg order is the sorted posting list) and the lexicon
  aggregates only per-segment metadata. Per-group memory is bounded by
  segment size, not by a mega-term's df.
- doc lengths live in ONE dense file, ``doc_len.i64`` (int64, entry
  docId-1; the reference's documentIndex.dat), written by the docs
  stage: the postings reduces memory-map their segment's docId range of
  it (J2 as a per-partition lookup, never a shuffle) and the query
  readers load or memory-map it — the driver never holds an O(n_docs)
  array.
- output is partitioned Parquet with per-stage manifests (lineage +
  tokens/s + postings/s + bytes + a config fingerprint) — completed
  stages are skipped on rerun, and a stage whose manifest fingerprint
  no longer matches the requested config/corpus is wiped and rebuilt
  instead of silently reused.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray

from ..codecs.blocks import encode_blocks, encode_stream_blocks, stream_block_bounds
from ..config import IndexConfig
from ..text.tokenizer import Tokenizer
from ..util import (_cached_get, _worker_cache,
                    binary_column_values_view, crc32_column,
                    packed_tf_dtype, packed_tf_values,
                    sha256_hex_column, sort_pairs)
from .manifests import read_manifest, stage_complete, write_manifest

logger = logging.getLogger(__name__)

BLOCK_STRUCT = pa.struct([
    ("max_doc_id", pa.int64()), ("n", pa.int64()),
    ("b25c", pa.float64()), ("tfc", pa.float64()),
    ("ids", pa.binary()), ("tfs", pa.binary()),
])

# Postings files are written in row groups of at most this many (term,
# seg) rows. Each file is term-sorted, so row-group term ranges are
# disjoint, and a reader looking up one term decodes one small row group
# instead of the whole shard file: the row group stands in for the
# reference's per-term posting-list offsets (LexiconEntry.java:13-21).
# Readers prune by the term column's min/max only, so no other column
# carries statistics, and no column is dictionary-encoded (a dictionary
# page per small column chunk costs space and decode time; terms are
# unique per file anyway). The positions sidecar writes the same layout.
POSTINGS_ROW_GROUP_ROWS = 128
TERM_ROW_GROUPS = {"row_group_size": POSTINGS_ROW_GROUP_ROWS,
                   "write_statistics": ["term"], "use_dictionary": False}


def term_shard(terms: list[str], num_shards: int) -> np.ndarray:
    """Stable term -> shard hash (crc32; Python's hash() is salted)."""
    crcs = crc32_column(pa.array(terms, type=pa.string()))
    return (crcs % np.uint32(num_shards)).astype(np.int64)


# ------------------------------------------------------------------ stage 1

def _drop_blank(batch: pa.Table) -> pa.Table:
    """InvertedIndex.java:45-47: blank docs are skipped entirely (no docId)."""
    content = batch["content"]
    keep = pc.and_(content.is_valid(),
                   pc.greater(pc.binary_length(
                       pc.utf8_trim_whitespace(content)), 0))
    return batch.filter(keep)


def _make_assign_ids(bases_ref):
    def assign_ids(group: pa.Table) -> pa.Table:
        bases = _cached_get(bases_ref)
        repo = group["repo"][0].as_py()
        order = pc.sort_indices(group, sort_keys=[("path", "ascending")])
        group = group.take(order)
        # duplicate (repo, path) keys would silently map two docs to one
        # docId downstream — fail loudly, same as the driver-side path
        p = group["path"]
        if len(p) > 1:
            eq = pc.equal(p.slice(1), p.slice(0, len(p) - 1))
            if pc.any(eq).as_py():
                dup = p.slice(1).filter(eq)[0].as_py()
                raise ValueError(
                    f"corpus has duplicate (repo, path) keys (e.g. "
                    f"{repo}/{dup}); docId assignment requires unique keys "
                    "— dedupe the corpus first (e.g. ops.exact_dedup_keep)")
        base = bases[repo]
        ids = pa.array(np.arange(1, group.num_rows + 1, dtype=np.int64) + base)
        return group.append_column("doc_id", ids)
    return assign_ids


def build_id_mapping_ds(slim, ray_mod):
    """Distributed docId mapping as a DATASET (repo, path, doc_id) — for
    key sets too large for one driver heap. Per-repo base offsets (repo
    cardinality is metadata-sized) + within-repo path rank via a groupby;
    nothing but the per-repo counts ever lands on the driver. Duplicate
    keys raise inside the grouped task."""
    counts = slim.groupby("repo").count().take_all()
    counts.sort(key=lambda r: r["repo"])
    bases, acc = {}, 0
    for r in counts:
        bases[r["repo"]] = acc
        acc += r["count()"]
    bases_ref = ray_mod.put(bases)
    return slim.groupby("repo").map_groups(
        _make_assign_ids(bases_ref), batch_format="pyarrow")


def _pack_token_lists(batch: pa.Table) -> pa.Table:
    """tokens list<string> -> space-joined string column (acero hash
    joins reject list-typed payloads; tokens never contain whitespace —
    the tokenizer splits on it — so the join/split round-trip is exact)."""
    toks = batch["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    packed = pc.binary_join(toks, " ")
    i = batch.schema.get_field_index("tokens")
    return batch.set_column(i, "tokens", packed)


def _unpack_token_lists(batch: pa.Table) -> pa.Table:
    """Inverse of _pack_token_lists (empty docs round-trip to empty
    lists; all-vectorized rebuild)."""
    packed = batch["tokens"]
    if isinstance(packed, pa.ChunkedArray):
        packed = packed.combine_chunks()
    lists = pc.split_pattern(packed, " ")
    flat = pc.list_flatten(lists)
    keep = pc.greater(pc.binary_length(flat), 0)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep_np = keep.to_numpy(zero_copy_only=False)
    counts = np.bincount(parent[keep_np], minlength=batch.num_rows)
    offsets = np.zeros(batch.num_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    toks = pa.ListArray.from_arrays(pa.array(offsets), flat.filter(keep))
    i = batch.schema.get_field_index("tokens")
    return batch.set_column(i, "tokens", toks)


def attach_ids_via_join(tok_ds, mapping_ds, num_partitions: int | None = None):
    """Hash-partitioned join of the token stream against the mapping
    dataset on (repo, path) — the 10^12-key replacement for the ray.put
    broadcast in AttachIds: only co-partitioned rows move, the mapping
    never lands on the driver or in any single worker's heap."""
    from ..util import default_join_partitions
    if num_partitions is None:
        num_partitions = default_join_partitions()
    packed = tok_ds.map_batches(_pack_token_lists, batch_format="pyarrow")
    # the join's aggregator actors reserve no CPU: by default they ask
    # for a share of the cluster's CPUs, which the upstream tasks hold on
    # a small cluster, and the join then never starts
    joined = packed.join(mapping_ds, "inner", num_partitions,
                         on=("repo", "path"),
                         aggregator_ray_remote_args={
                             "num_cpus": 0, "scheduling_strategy": "SPREAD"})
    return joined.map_batches(_unpack_token_lists, batch_format="pyarrow")


class AttachIds:
    """Map-only: broadcast (repo,path)->doc_id lookup over the token
    stream via binary search against the sorted key array (the mapping is
    sorted by (repo, path) and doc_id == rank+1, so the POSITION of a key
    is its docId-1 — no values, no Python dict; the key array is built
    once per worker process)."""

    def __init__(self, mapping_ref):
        self.mapping_ref = mapping_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        width, keys, ids = _mapping_keys(self.mapping_ref)
        bkeys = _fixed_width_keys(pc.binary_join_element_wise(
            batch["repo"], batch["path"], "\x00"), width)
        pos = np.searchsorted(keys, bkeys)
        return batch.append_column(
            "doc_id", pa.array(ids[pos], type=pa.int64()))


def _fixed_width_keys(joined, width: int) -> np.ndarray:
    """'repo\\x00path' string array -> numpy 'S<width>' array backed by
    ONE contiguous \\x00-right-padded buffer (zero-copy view of the arrow
    fixed-size-binary cast). Bytewise order is preserved by the padding:
    keys contain no NUL except the separator, so a proper prefix always
    orders below its extensions both padded and unpadded — and numpy 'S'
    comparisons are full-width memcmp, NOT C-string (embedded NULs
    compare correctly; verified in tests). Replaces a ~mapping-sized
    Python-object array that every worker used to materialize (1.6M
    string objects per worker — the dominant per-worker warmup cost and
    a fresh-page fault storm on this host)."""
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    if len(joined) == 0:
        return np.zeros(0, dtype=f"S{width}")
    # rpad never truncates: a key longer than the mapping's max width
    # would fail the fixed-size cast loudly (it cannot exist in the
    # mapping, so a silent truncation could only produce a WRONG match)
    fixed = pc.ascii_rpad(joined, width=width, padding="\x00").cast(
        pa.binary(width))
    if isinstance(fixed, pa.ChunkedArray):
        fixed = fixed.combine_chunks()
    return np.frombuffer(fixed.buffers()[1], dtype=f"S{width}",
                         count=len(fixed), offset=fixed.offset * width)


# docs per tokenizer batch, and rows per postings-exchange map task (docs
# per SPIMI-partial batch: bigger batches consolidate partial lists); the
# build and the positions sidecar read both at call time
TOKENIZE_BATCH_SIZE = 1024
EXPLODE_BATCH_SIZE = 8192

# above this many docs the id assignment runs as a Ray groupby + join
# over the slim key table instead of one task that sorts every key
DRIVER_IDMAP_MAX_ROWS = 5_000_000

_EMPTY_KEYS = pa.table({"repo": pa.array([], pa.string()),
                        "path": pa.array([], pa.string()),
                        "doc_len": pa.array([], pa.int64()),
                        "doc_id": pa.array([], pa.int64())})


@ray.remote
def _block_keys(block: pa.Table) -> pa.Table:
    """The id-assignment columns of one token block. Runs beside the
    block, so only keys and lengths travel to the assign task. (A map
    task whose input blocks were all empty emits an empty block with no
    columns; ``_assign_ids`` drops empty parts.)"""
    return block.select(["repo", "path", "doc_len"]) if block.num_rows \
        else block


@ray.remote(num_returns=2)
def _assign_ids(docs_dir, out, *parts):
    """Sort the (repo, path) keys and return the broadcast id mapping in
    its lookup-ready form, (key byte width, sorted 'S<w>' key array,
    parallel doc_id array), plus the collection length. Workers read
    the key buffer zero-copy from the object store; the driver only
    passes the ref on.

    Fed ``parts`` (per-block repo, path, doc_len tables of a fresh
    build): docId = 1 + rank in (repo, path) order (the reference's
    arrival counter, InvertedIndex.java:51, made data-dependent),
    duplicate keys raise, and ``out/doc_len.i64`` is written from the
    same sorted table. Fed
    ``docs_dir`` (a written doc table): its own doc_ids are kept.
    ('\\x00' sorts below every other byte, so the joined-key order is
    the two-column order.)"""
    parts = [t for t in parts if t.num_rows]
    # a zero-doc build writes no docs/ files
    if docs_dir is not None and any(Path(docs_dir).glob("*.parquet")):
        parts = [pq.read_table(docs_dir, columns=["repo", "path", "doc_id"])]
    keys = pa.concat_tables(parts) if parts else _EMPTY_KEYS
    joined = pc.binary_join_element_wise(keys["repo"], keys["path"], "\x00")
    width = max(int(pc.max(pc.binary_length(joined)).as_py() or 1), 1)
    fixed = _fixed_width_keys(joined, width)
    order = np.argsort(fixed, kind="stable")
    fixed = fixed[order]
    n = len(fixed)
    if docs_dir is not None:
        return (width, fixed,
                keys["doc_id"].to_numpy()[order]), 0
    dup = fixed[1:][fixed[1:] == fixed[:-1]]
    if len(dup):
        key = dup[0].replace(b"\x00", b"/").decode(errors="replace")
        raise ValueError(
            f"corpus has duplicate (repo, path) keys (e.g. {key}); docId "
            "assignment requires unique keys — dedupe the corpus first "
            "(e.g. ops.exact_dedup_keep)")
    lens = keys["doc_len"].to_numpy()[order]
    tmp = out / f".{DOC_LEN_FILE}.tmp"
    lens.tofile(tmp)
    os.replace(tmp, out / DOC_LEN_FILE)
    return (width, fixed, np.arange(1, n + 1, dtype=np.int64)), \
        int(lens.sum())


def _mapping_keys(mapping_ref) -> tuple[int, np.ndarray, np.ndarray]:
    """Worker-side read of an :func:`_assign_ids` mapping —
    zero-copy from the object store, memoized per worker."""
    return _cached_get(mapping_ref)


def tokenize_corpus(corpus, cfg: IndexConfig, *, sha256: bool = True):
    """The one way a corpus becomes a token stream: blank docs dropped,
    ``content`` replaced by ``doc_len`` (+ ``sha256``) and ``tokens``.

    The map has no ``batch_size``, so Ray fuses it into the read tasks
    (a read followed by a batch-sized map runs as two operators)."""
    return corpus.map_batches(_TokenizeBlock(cfg, sha256),
                              batch_format="pyarrow")


class _TokenizeBlock:
    """Blank filter + tokenize (+ sha256) over one read block, one slice of
    at most ``TOKENIZE_BATCH_SIZE`` docs at a time, so the tokenizer's
    intermediates are bounded by that constant, not by the block size."""

    def __init__(self, cfg: IndexConfig, sha256: bool):
        self.tok = Tokenizer(parse=cfg.parse, squeeze=cfg.squeeze,
                             term_dimension=cfg.term_dimension)
        self.sha256 = sha256
        # read when the pipeline is built, like EXPLODE_BATCH_SIZE: the
        # tasks would see the import-time value
        self.batch_size = TOKENIZE_BATCH_SIZE

    def __call__(self, block: pa.Table):
        block = _drop_blank(block)
        # an all-blank block still yields one (empty) slice, for its schema
        for start in range(0, max(block.num_rows, 1), self.batch_size):
            yield self._tokenize(block.slice(start, self.batch_size))

    def _tokenize(self, batch: pa.Table) -> pa.Table:
        content = batch["content"].combine_chunks()
        tokens, doc_len = self.tok.tokenize_column(content)
        # a corpus's own sha256 column is dropped: the build's content
        # hash is the authoritative one
        drop = [c for c in ("content", "sha256") if c in batch.column_names]
        out = batch.drop_columns(drop).append_column(
            "doc_len", pa.array(doc_len, type=pa.int64()))
        if self.sha256:
            # the blank filter ran: no NULLs
            out = out.append_column("sha256", sha256_hex_column(content))
        return out.append_column("tokens", tokens)


# ------------------------------------------------------------------ stage 2

def _make_explode(num_shards: int, salt_buckets: int, n_docs: int):
    """SPIMI-style map-side combine (replaces the reference's in-memory
    partial index, InvertedIndex.java:30-113): each task turns its doc
    batch into PARTIAL POSTING LISTS — one row per (term, seg) run with
    the run's docIds/tfs packed into binary columns — so the shuffle
    moves ~vocab-sized list rows instead of one row per posting (76M
    posting rows -> ~1M partial rows at 800k docs; Ray's sort exchange
    moves binary buffers cheaply but pays per ROW)."""

    ids_dt = _ids_dtype(n_docs)

    def explode(batch: pa.Table) -> pa.Table:
        tokens = batch["tokens"]
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens).to_numpy(
            zero_copy_only=False)
        denc = pc.dictionary_encode(flat)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        # keep the per-token streams NARROW (int32 codes straight off the
        # dictionary indices, docIds at the packed exchange width): the
        # (code, docId) sort below is pure DRAM bandwidth — the measured
        # 32-way ceiling on one box — so every upcast pass costs twice
        codes = denc.indices.to_numpy()
        if len(codes) == 0:
            # a whole batch of docs can tokenize to zero tokens
            # (punctuation-only / all-stopword docs pass the blank filter)
            return EMPTY_PARTIALS
        did_rows = batch["doc_id"].to_numpy().astype(ids_dt)  # row-level
        did = did_rows[parents]
        # per-doc term counting (M11) as pure NumPy over dictionary
        # codes. The (code, docId) sort is the build's hottest kernel
        # and pure DRAM bandwidth — the 32-way ceiling on one box — so
        # when the batch vocabulary and doc count both fit 16 bits
        # (typical: ~30k terms, ~12k docs per batch) the composite-key
        # quicksort collapses to one or two uint16 STABLE argsorts,
        # which numpy implements as radix sorts (~3.6x faster, half the
        # memory traffic). Tokens arrive doc-contiguous, so with
        # docId-ascending rows a single stable pass by code already
        # yields (code asc, docId asc); out-of-order rows just add a
        # stable pre-pass by per-batch doc rank. Equal (code, docId)
        # entries are interchangeable -> output bytes identical.
        vocab_n = len(denc.dictionary)
        if vocab_n < (1 << 16) and batch.num_rows < (1 << 16):
            if len(did_rows) > 1 and np.any(did_rows[1:] < did_rows[:-1]):
                rank_rows = np.empty(len(did_rows), dtype=np.uint16)
                rank_rows[np.argsort(did_rows, kind="stable")] = \
                    np.arange(len(did_rows), dtype=np.uint16)
                ord1 = np.argsort(rank_rows[parents], kind="stable")
                order = ord1[np.argsort(
                    codes.astype(np.uint16)[ord1], kind="stable")]
            else:
                order = np.argsort(codes.astype(np.uint16), kind="stable")
        else:
            order = sort_pairs(codes, did)
        c2, d2 = codes[order], did[order]
        tok_change = np.zeros(len(c2), dtype=bool)
        tok_change[0] = True
        np.logical_or(c2[1:] != c2[:-1], d2[1:] != d2[:-1],
                      out=tok_change[1:])
        pstarts = np.flatnonzero(tok_change)
        tfs64 = np.diff(np.append(pstarts, len(c2)))
        # tf exchange width: uint16 unless this batch holds a doc with
        # >= 2^16 occurrences of one term — halves the tf stream's
        # shuffle + sort traffic (packed_tf_values resolves the width
        # per row on the consumer side, so batches decide independently)
        tfs = tfs64.astype(packed_tf_dtype(tfs64))
        return _pack_partials(c2[pstarts], d2[pstarts], tfs, denc.dictionary,
                              num_shards, salt_buckets, n_docs)
    return explode


EMPTY_PARTIALS = pa.table({
    "term": pa.array([], type=pa.string()),
    "shard": pa.array([], type=pa.int64()),
    "seg": pa.array([], type=pa.int64()),
    "n": pa.array([], type=pa.int64()),
    "ids_raw": pa.array([], type=pa.binary()),
    "tfs_raw": pa.array([], type=pa.binary()),
})


def _pack_partials(codes: np.ndarray, dids: np.ndarray, tfs: np.ndarray,
                   vocab: pa.Array, num_shards: int, salt_buckets: int,
                   n_docs: int) -> pa.Table:
    """Postings as (term code into ``vocab``, docId, tf), sorted by (code,
    docId) -> partial posting lists: one row per (term, seg) run with
    the run's docIds/tfs packed into binary columns. The map-side
    output of the build's explode and of the lifecycle ops alike."""
    # seg is monotone in doc_id, so (code, doc_id) order is also
    # (code, seg) order — second-level runs give the partial lists
    # (the int32 fast path would overflow once n_docs*salt_buckets
    # crosses 2^31 — upcast only then)
    if n_docs * salt_buckets < 2**31:
        seg = (dids - 1) * salt_buckets // max(n_docs, 1)
    else:
        seg = (dids.astype(np.int64) - 1) * salt_buckets // max(n_docs, 1)
    change = (np.diff(codes) != 0) | (np.diff(seg) != 0)
    starts = np.flatnonzero(np.append(True, change))
    ends = np.append(starts[1:], len(codes))
    vshards = _term_shards_memo(vocab, num_shards)
    run_codes = codes[starts]
    # the (term, seg) runs tile dids/tfs contiguously, so both binary
    # columns are just offset views over the flat arrays — built with
    # from_buffers in one pass (the per-run tobytes() list comprehension
    # this replaces was ~80x slower and the last Python loop in the
    # explode hot path); byte-identical output
    return pa.table({
        "term": vocab.take(pa.array(run_codes, type=pa.int64())),
        "shard": pa.array(vshards[run_codes], type=pa.int64()),
        "seg": pa.array(seg[starts], type=pa.int64()),
        "n": pa.array(ends - starts, type=pa.int64()),
        "ids_raw": _packed_runs(dids, starts),
        "tfs_raw": _packed_runs(tfs, starts),
    })


def _packed_runs(flat: np.ndarray, starts: np.ndarray) -> pa.Array:
    """Consecutive runs (starts tile ``flat`` end to end) -> one binary
    column whose i-th value is flat[starts[i]:starts[i+1]] as raw bytes,
    with the WHOLE flat array as the single values buffer. Item width
    comes from ``flat.dtype`` — the partial-posting format packs ids as
    int32 when every docId fits (int64 past 2^31 docs), halving the
    bytes the postings exchange moves. ZERO-COPY: the arrow buffers
    alias the numpy arrays (py_buffer holds a reference), so no
    ``tobytes`` materialization pass — on this build's hottest stage
    that copy was pure extra DRAM traffic."""
    itemsize = flat.dtype.itemsize
    total = len(flat) * itemsize
    if total >= 2**31:
        raise ValueError("packed partial-posting batch >= 2 GiB: int32 "
                         "binary offsets would wrap — reduce batch size")
    offs = np.empty(len(starts) + 1, dtype=np.int32)
    np.multiply(starts, itemsize, out=offs[:-1], casting="unsafe")
    offs[-1] = total
    return pa.Array.from_buffers(
        pa.binary(), len(starts),
        [None, pa.py_buffer(offs),
         pa.py_buffer(np.ascontiguousarray(flat))])


def _ids_dtype(n_docs: int):
    """Packed docId width for the partial-posting exchange: int32 while
    every docId (1-based, <= n_docs) fits, int64 past 2^31 docs. Both
    the producers (explode / merge partials) and the consumer
    (build_segments) derive it from the same n_docs."""
    return np.int32 if n_docs < 2**31 else np.int64


def _term_shards_memo(vocab: pa.Array, num_shards: int) -> np.ndarray:
    """term -> shard for a batch's term dictionary: one vectorized crc32
    pass over the dictionary's value buffer (byte-position loop, ≤64
    steps for index terms) — no per-term Python in the explode hot path."""
    return (crc32_column(vocab) % np.uint32(num_shards)).astype(np.int64)


def _make_build_segments(doc_len_path: str, avg_doc_len: float,
                         cfg: IndexConfig, n_docs: int):
    k1 = cfg.k1
    b = cfg.b
    codec = cfg.codec
    threshold = cfg.block_threshold
    ids_dt = _ids_dtype(n_docs)

    empty_out = pa.table({
        "term": pa.array([], type=pa.string()),
        "shard": pa.array([], type=pa.int64()),
        "seg": pa.array([], type=pa.int64()),
        "df": pa.array([], type=pa.int64()),
        "max_doc_id": pa.array([], type=pa.int64()),
        "bm25_core": pa.array([], type=pa.float64()),
        "tfidf_core": pa.array([], type=pa.float64()),
        "bytes_ids": pa.array([], type=pa.int64()),
        "bytes_tfs": pa.array([], type=pa.int64()),
        "blocks": pa.ListArray.from_arrays(
            pa.array([0], type=pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array([], type=f.type) for f in BLOCK_STRUCT],
                fields=list(BLOCK_STRUCT))).slice(0, 0),
    })

    def build_segments(group: pa.Table) -> pa.Table:
        """Merge the partial posting lists of one (shard, seg) group into
        final block-encoded segments (the reference's k-way merge,
        InvertedIndex.java:115-214, as one grouped task).

        Vocabulary grows ~linearly with a code corpus, so per-term work
        is the scale bottleneck: merging, docId sorting, df/max/upper-
        bound aggregates and (for vbyte/none) the ENTIRE block encode —
        single- and multi-block terms alike — run as NumPy passes over
        the whole value stream with zero per-term/per-block Python
        (``encode_stream_blocks``); only the secondary ef codec keeps a
        per-term ``encode_blocks`` loop."""
        if group.num_rows == 0 or group.num_columns == 0:
            # over-partitioned sorts (partitions > distinct keys) emit
            # empty/zero-column partition blocks — schema-pinned no-op
            return empty_out
        # term order via DICTIONARY codes: a hot group (mega-df terms
        # hash-clustered into one shard) holds ~100x more partial rows
        # than vocabulary, and a row-level STRING sort was the
        # stage-straggler hot spot (one task 9.4 s vs 1.9 s mean at
        # 32 cpus). Sorting the ~nt-sized dictionary and ranking the
        # int codes is output-identical: within-term row order is
        # immaterial (the per-term value stream re-sorts by docId
        # below). The ROWS themselves are never reordered at all — the
        # old table.take(order) copied the whole binary payload once
        # just to establish term-major order, which the value-level
        # composite sort below already provides; on a DRAM-bound box
        # (and a real cluster's memory bus) that pass was ~a third of
        # the stage's traffic.
        terms_in = group["term"]
        if isinstance(terms_in, pa.ChunkedArray):
            terms_in = terms_in.combine_chunks()
        denc = pc.dictionary_encode(terms_in)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        dorder = pc.sort_indices(denc.dictionary).to_numpy(
            zero_copy_only=False)
        nt = len(dorder)
        drank = np.empty(nt, dtype=np.int32)
        drank[dorder] = np.arange(nt, dtype=np.int32)
        rcodes_all = drank[codes]
        n_col = group["n"].to_numpy()
        shard_val = int(group["shard"][0].as_py())
        seg_val = int(group["seg"][0].as_py())
        # J2 at scale: segments are docId-DISJOINT ranges, so each task
        # maps only ITS range of the doc-length file (the whole array
        # would be terabytes at 10^12 docs); index = docId-1 - seg_lo
        seg_lo, seg_hi = _seg_bounds(seg_val, n_docs, cfg.salt_buckets)
        seg_lens = np.memmap(doc_len_path, dtype=np.int64,
                             mode="r")[seg_lo:seg_hi]
        # merged value stream, term-major, docId-ascending per term:
        # ONE composite (term rank, docId) argsort over the packed
        # value buffers, read as zero-copy typed views (the exchange
        # packs ids at int32 below 2^31 docs — see _ids_dtype)
        ids_flat = binary_column_values_view(group["ids_raw"], ids_dt)
        tfs_flat = packed_tf_values(group["tfs_raw"], n_col)
        val_codes = np.repeat(rcodes_all, n_col)
        vorder = sort_pairs(val_codes, ids_flat)  # O3: explicit docId sort
        # the stream stays at the packed width (int32 below 2^31 docs);
        # the encode kernels upcast internally where they need 64 bits
        ids_all = ids_flat[vorder]
        tfs_all = tfs_flat[vorder]
        vr_sorted = val_codes[vorder]
        bounds = np.flatnonzero(np.diff(vr_sorted, prepend=-1))
        ends = np.append(bounds[1:], len(ids_all))
        df_arr = ends - bounds
        max_arr = ids_all[ends - 1]
        # A6/A7 cores via segment maxima over the whole stream
        bj_all = 0.3 + b * (seg_lens[ids_all - 1 - seg_lo] / avg_doc_len)
        b25_vals = tfs_all / (k1 * bj_all + tfs_all)
        # dtype pinned: np.log10 of a uint16 array (the narrow packed
        # width) would otherwise compute in FLOAT32 and shift the
        # tfidf upper bounds off the float64 oracle
        tf_vals = 1.0 + np.log10(tfs_all, dtype=np.float64)
        b25_arr = np.maximum.reduceat(b25_vals, bounds)
        tfidf_arr = np.maximum.reduceat(tf_vals, bounds)
        # every dictionary entry occurs in the column, so the sorted
        # dictionary IS the term column of the nt output rows
        out_term = denc.dictionary.take(pa.array(dorder, type=pa.int64()))
        if codec != "ef":
            # vbyte/none: the ENTIRE group encodes in one vectorized
            # pass — block split, gap stream, unary stream and byte
            # slicing all stream-level (codecs/blocks.py
            # encode_stream_blocks). The old per-term loop made hot
            # term-hash shards the build's straggler tasks: a mega-df
            # term is ~sqrt(df) blocks, each a tiny numpy encode call
            # (measured 10.6 s max task vs 1.25 s mean at 32 cpus).
            bb, nb_t = stream_block_bounds(df_arr, threshold)
            if codec == "vbyte":
                id_buf, id_bounds, tf_buf, tf_bounds = \
                    encode_stream_blocks(ids_all, tfs_all, bb, bounds)
            else:  # "none": raw little-endian slices at block bounds
                id_buf = np.ascontiguousarray(ids_all, dtype="<i8")
                id_bounds = bb * 8
                tf_buf = np.ascontiguousarray(tfs_all, dtype="<i4")
                tf_bounds = bb * 4
            blk_starts = bb[:-1]
            first_blk = np.cumsum(nb_t) - nb_t
            last_blk = np.cumsum(nb_t)  # index into bounds arrays
            blocks = pa.ListArray.from_arrays(
                pa.array(np.concatenate(([0], last_blk)),
                         type=pa.int32()),
                pa.StructArray.from_arrays(
                    [pa.array(ids_all[bb[1:] - 1], type=pa.int64()),
                     pa.array(bb[1:] - blk_starts, type=pa.int64()),
                     pa.array(np.maximum.reduceat(b25_vals, blk_starts),
                              type=pa.float64()),
                     pa.array(np.maximum.reduceat(tf_vals, blk_starts),
                              type=pa.float64()),
                     _binary_from_bounds(id_buf, id_bounds),
                     _binary_from_bounds(tf_buf, tf_bounds)],
                    fields=list(BLOCK_STRUCT)))
            out_bytes_ids = id_bounds[last_blk] - id_bounds[first_blk]
            out_bytes_tfs = tf_bounds[last_blk] - tf_bounds[first_blk]
        else:
            # ef: per-term encode (the split decision and the EF size
            # math are value-dependent; ef is the reference-parity
            # secondary codec, not the bench path)
            out_bytes_ids, out_bytes_tfs = [], []
            blk_max, blk_n, blk_ids, blk_tfs, blk_offsets = \
                [], [], [], [], [0]
            blk_b25c, blk_tfc = [], []
            for gi in range(nt):
                s, e = bounds[gi], ends[gi]
                enc = encode_blocks(ids_all[s:e], tfs_all[s:e], codec,
                                    threshold)
                out_bytes_ids.append(sum(len(x) for x in enc["ids"]))
                out_bytes_tfs.append(sum(len(x) for x in enc["tfs"]))
                blk_max.extend(enc["max_doc_id"])
                blk_n.extend(enc["n"])
                sizes = np.asarray(enc["n"], dtype=np.int64)
                bstarts = np.cumsum(sizes) - sizes
                blk_b25c.extend(np.maximum.reduceat(b25_vals[s:e],
                                                    bstarts))
                blk_tfc.extend(np.maximum.reduceat(tf_vals[s:e], bstarts))
                blk_ids.extend(enc["ids"])
                blk_tfs.extend(enc["tfs"])
                blk_offsets.append(len(blk_max))
            blocks = pa.ListArray.from_arrays(
                pa.array(blk_offsets, type=pa.int32()),
                pa.StructArray.from_arrays(
                    [pa.array(blk_max, type=pa.int64()),
                     pa.array(blk_n, type=pa.int64()),
                     pa.array(blk_b25c, type=pa.float64()),
                     pa.array(blk_tfc, type=pa.float64()),
                     pa.array(blk_ids, type=pa.binary()),
                     pa.array(blk_tfs, type=pa.binary())],
                    fields=list(BLOCK_STRUCT)))
        return pa.table({
            "term": out_term,
            "shard": pa.array(np.full(nt, shard_val, dtype=np.int64)),
            "seg": pa.array(np.full(nt, seg_val, dtype=np.int64)),
            "df": pa.array(df_arr, type=pa.int64()),
            "max_doc_id": pa.array(max_arr, type=pa.int64()),
            "bm25_core": pa.array(b25_arr, type=pa.float64()),
            "tfidf_core": pa.array(tfidf_arr, type=pa.float64()),
            "bytes_ids": pa.array(np.asarray(out_bytes_ids),
                                  type=pa.int64()),
            "bytes_tfs": pa.array(np.asarray(out_bytes_tfs),
                                  type=pa.int64()),
            "blocks": blocks,
        })
    return build_segments


def _binary_from_bounds(data, bounds: np.ndarray) -> pa.Array:
    """Arrow binary array over contiguous byte ``bounds`` slices of one
    buffer — zero-copy (no per-slice Python bytes). ``data`` is a bytes
    object or a numpy array viewing the byte stream."""
    n = len(bounds) - 1
    if int(bounds[-1]) > np.iinfo(np.int32).max:
        # >2 GiB of encoded bytes in one (shard, seg) group: binary's
        # int32 offsets can't address it — correct-but-copying fallback
        # (resize num_shards/salt_buckets long before this at scale)
        b = data if isinstance(data, bytes) else \
            np.ascontiguousarray(data).tobytes()
        return pa.array([b[int(s):int(e)] for s, e in
                         zip(bounds[:-1], bounds[1:])], type=pa.binary())
    off = np.ascontiguousarray(bounds, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(off), pa.py_buffer(data)])


# ------------------------------------------------------ stage 2 exchange

def _write_partition(tbl: pa.Table, out_dir: str, shard: int,
                     seg: int) -> None:
    """Publish one (shard, seg) partition's parquet file ATOMICALLY (tmp
    + rename into the hive shard layout): the file's presence is the
    partition's completion marker, so a crashed run resumes by skipping
    exactly the partitions that finished."""
    d = Path(out_dir) / f"shard={shard}"
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f".seg-{seg}.parquet.tmp"
    pq.write_table(tbl, str(tmp), **TERM_ROW_GROUPS)
    os.replace(tmp, d / f"seg-{seg}.parquet")


def _write_postings_partition(build_fn, out_dir: str, group: pa.Table,
                              shard: int, seg: int) -> dict:
    """The postings write body of :func:`_exchange`: build one
    partition's final block-encoded segments and publish them."""
    t0 = time.time()
    out = build_fn(group)
    t_build = time.time()
    _write_partition(out.drop_columns(["shard"]), out_dir, shard, seg)
    return {"rows": out.num_rows, "build_s": round(t_build - t0, 3),
            "write_s": round(time.time() - t_build, 3)}


class _TokensToPartials:
    """Per-sub-batch map body of :func:`_exchange` over a token stream:
    attach doc ids from the broadcast mapping (``mapping_ref`` is None
    when the stream already carries ``doc_id``), then ``explode`` the
    (doc_id, tokens) rows into partial posting rows."""

    def __init__(self, explode, mapping_ref=None):
        self.attach = None if mapping_ref is None else AttachIds(mapping_ref)
        self.explode = explode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.attach is not None:
            batch = self.attach(batch)
        return self.explode(batch.select(["doc_id", "tokens"]))


# reduce buckets of the exchange: maps return EXCHANGE_BUCKETS objects
# (not one per (shard, seg) key) — the ObjectRef matrix is maps x buckets
# and per-ref serialization (~40-80 us each, borrower registration) is
# the exchange's only driver cost that grows with task count; 64 buckets
# keeps it metadata-sized while reduces stay ~2x the cpu count
EXCHANGE_BUCKETS = 64
# key -> bucket uses a coprime multiplier so one hot shard's salt
# segments (consecutive key indices) land in DIFFERENT buckets (odd
# multiplier, power-of-two bucket count => a permutation step)
_BUCKET_PERM = 37


def _bucket_of(key_idx, n_buckets: int):
    return (key_idx * _BUCKET_PERM) % n_buckets


def _partition_keys(tbl: pa.Table, salt_buckets: int) -> np.ndarray:
    """(shard, seg) of each partial row as one key index."""
    return (tbl["shard"].to_numpy() * salt_buckets +
            tbl["seg"].to_numpy()).astype(np.int64)


@ray.remote
def _exchange_map(chunks, batch_rows: int, to_partials, num_shards: int,
                  salt_buckets: int, n_buckets: int) -> tuple:
    """Map side of the exchange: slice the MATERIALIZED blocks in
    ``chunks`` (list of (block_ref, start, len) — nested refs, fetched
    zero-copy from plasma), turn each ``batch_rows`` sub-batch into
    partial rows with ``to_partials``, split by reduce bucket — all in
    ONE task, so the exchange's map phase IS the explode (or the
    lifecycle shard decode) compute: no intermediate dataset, no second
    scheduling pass. Each bucket's rows are emitted (bucket, key)-sorted,
    so the reduce side can slice one key's rows zero-copy. Returns
    ``n_buckets`` tables plus a trailing stats dict: the task's busy wall
    (the maps execute IDENTICAL work at every cpu level, so the summed
    busy is the scaling audit's job-kernel contention probe) and its
    per-key posting counts."""
    t0 = time.time()
    num_parts = num_shards * salt_buckets
    parts = []
    for ref, start, length in chunks:
        tbl = ray.get(ref)
        end = min(start + length, tbl.num_rows)
        for off in range(start, end, batch_rows):
            sub = to_partials(tbl.slice(off, min(batch_rows, end - off)))
            if sub.num_rows:
                parts.append(sub)
    empty = pa.table({})
    if not parts:
        return (empty,) * n_buckets + \
            ({"busy_s": time.time() - t0,
              "key_postings": np.zeros(num_parts, dtype=np.int64)},)
    posts = (parts[0] if len(parts) == 1
             else pa.concat_tables(parts).combine_chunks())
    pkey = _partition_keys(posts, salt_buckets)
    # per-key posting counts (sum of run lengths): the driver sums these
    # across maps to order the reduces longest-first (LPT) — a hot
    # term-hash key's build otherwise lands late in the wave and sets
    # the stage wall by itself at high cpu counts
    key_postings = np.bincount(
        pkey, weights=posts["n"].to_numpy().astype(np.float64),
        minlength=num_parts).astype(np.int64)
    bkt = _bucket_of(pkey, n_buckets)
    # ONE composite sort over the whole map output: grouped by bucket
    # for the return split AND key-sorted within each bucket — the
    # key-sorted invariant is per RETURN OBJECT, so it must hold across
    # sub-batches, not just within one
    order = np.argsort(bkt * num_parts + pkey, kind="stable")
    posts = posts.take(pa.array(order))
    bounds = np.searchsorted(bkt[order], np.arange(n_buckets + 1))
    return tuple(
        posts.slice(int(s), int(e - s)) if e > s else empty
        for s, e in zip(bounds[:-1], bounds[1:])) + \
        ({"busy_s": time.time() - t0, "key_postings": key_postings},)


# reduce merge tree: with M map tasks every key reduce fetches M bucket
# slices, so reduce ref fan-in and fetch counts grow linearly with data
# (M ~ 10^5 at 100 TB). Above this map count, intermediate combine
# levels per bucket merge slice groups of <= MR2_TREE_FANIN into single
# objects, recursing until each bucket's ref list fits one reduce's
# fan-in budget — one level up to fanin^2 (~65k) maps, two up to
# fanin^3, so fan-in stays bounded at ANY map count while each level
# adds exactly one object-store hop.
MR2_TREE_FANIN = 256


@ray.remote
def _exchange_combine(salt_buckets: int, slice_refs) -> pa.Table:
    """One node of the reduce merge tree: concatenate one map-slice
    GROUP's tables for one bucket (in map order) and re-establish the
    bucket invariant — key-sorted rows, STABLE sort, so within each key
    the rows keep map order and a key reduce slices the combined object
    exactly as it would have walked the group's slices in sequence
    (output pinned by test_exchange_invariance with the tree forced
    on)."""
    parts = ray.get(list(slice_refs))
    nonempty = [t for t in parts if t.num_rows]
    if not nonempty:
        return parts[0]
    if len(nonempty) == 1:
        return nonempty[0]          # already key-sorted per map
    t = pa.concat_tables(nonempty)
    order = np.argsort(_partition_keys(t, salt_buckets), kind="stable")
    return t.take(pa.array(order)).combine_chunks()


@ray.remote
def _exchange_reduce(write_part, salt_buckets: int, keys,
                     part_refs) -> list:
    """Reduce one bin of a bucket's keys: fetch the bucket's slices,
    locate each key's rows with a zero-copy searchsorted slice per part
    (parts arrive key-sorted from the maps), concatenate them and hand
    the partition to ``write_part(group, shard, seg)``, which writes it
    atomically. ``part_refs`` is a LIST of ObjectRefs — nested on
    purpose, twice over: reduces x maps TOP-LEVEL args were measured
    ~7x slower end-to-end (small per-key outputs get inlined into
    every task spec, copying the whole exchange payload through the
    driver) and cost seconds of serial submit. The task is only
    submitted after every map completed (a barrier in the driver), so
    the ray.get here never blocks a CPU slot waiting on upstream."""
    # cold-worker audit: a reduce landing on a process that has not run
    # one before pays numpy/pyarrow page-in + allocator warmup that
    # busy-ratio contention does NOT explain; the driver sums cold vs
    # warm busy so the scaling analysis can attribute it
    cold = not _worker_cache.get("_reduce_warm", False)
    _worker_cache["_reduce_warm"] = True
    t_f0 = time.time()
    parts = [t for t in ray.get(list(part_refs)) if t.num_rows]
    fetch_s = time.time() - t_f0
    pkeys = [_partition_keys(t, salt_buckets) for t in parts]
    out = []
    for shard, seg in keys:
        k = shard * salt_buckets + seg
        slices = []
        for t, pk in zip(parts, pkeys):
            lo, hi = np.searchsorted(pk, [k, k + 1])
            if hi > lo:
                slices.append(t.slice(int(lo), int(hi - lo)))
        t0 = time.time()
        r = {"rows": 0}
        if slices:
            group = pa.concat_tables(slices).combine_chunks()
            t_concat = time.time()
            r = write_part(group, shard, seg)
            r["concat_s"] = round(t_concat - t0, 3)
        r.update(sec=time.time() - t0, fetch_s=fetch_s, pid=os.getpid(),
                 cold=cold)
        cold = False
        out.append(r)
    task_sec = fetch_s + sum(r["sec"] for r in out)
    for r in out:
        r["task_sec"] = task_sec
    return out


def _exchange(ds, to_partials, write_part, out_dir: str, num_shards: int,
              salt_buckets: int, batch_rows: int) -> dict:
    """The one partition exchange of every posting-producing pipeline
    (the build, vacuum, merge and prune — reshard and upsert through
    them — and the positions sidecar): a direct map/reduce over the
    blocks of the MATERIALIZED Dataset ``ds`` (materialized here if
    lazy). Map tasks run ``to_partials`` + bucket split over fixed-size
    slices of the blocks: ``batch_rows`` token rows for the build and
    positions, one source shard per task (``batch_rows=1``) for the
    lifecycle ops, which read their input inside the maps. Reduces
    write each (shard, seg) partition under ``out_dir`` through
    ``write_part(group, shard, seg)``.
    PARTITION-LEVEL RESUME: a partition whose file already exists
    (published atomically by a previous run) is skipped.

    Why not the Dataset ``groupby``: Ray's sort exchange wall carries
    seconds of pure coordination that does NOT shrink with cores
    (measured 3.5-9 s of non-busy sort wall at 32 cpus depending on
    host weather) — the single biggest scaling-efficiency loss in the
    build (BASELINE.md, round-4 audit). Here the only non-compute
    costs are one barrier (inherent to any all-to-all) and the reduce
    submission, kept metadata-sized by the bucket fan-in (refs = maps
    x EXCHANGE_BUCKETS, ~40-80 us per ref).

    Map task size is a FIXED row target (``batch_rows``, grouping
    small blocks / slicing big ones), not a function of cluster size —
    every cpu level executes the identical physical plan, which the
    scaling audit requires. At multi-node scale each bucket slice
    moves once through the object store; past MR2_TREE_FANIN map tasks
    the reduce merge tree activates (per-bucket combine tasks over
    map-slice groups — see :func:`_exchange_combine`), bounding every
    key reduce's ref fan-in at ceil(maps / fanin) instead of letting it
    grow linearly with data. Returns per-phase wall / task-skew stats
    (the scaling evidence the efficiency audit reads)."""
    from ray.data.dataset import MaterializedDataset
    num_parts = num_shards * salt_buckets
    n_buckets = min(EXCHANGE_BUCKETS, num_parts)
    todo = [p for p in range(num_parts)
            if not (Path(out_dir) / f"shard={p // salt_buckets}"
                    / f"seg-{p % salt_buckets}.parquet").exists()]
    if not todo:
        return {"n_reduces": 0, "rows": 0}
    keys_by_bucket: dict[int, list] = {}
    for p in todo:
        keys_by_bucket.setdefault(int(_bucket_of(p, n_buckets)), []) \
            .append((p // salt_buckets, p % salt_buckets))
    t_in = time.time()
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    t0 = time.time()
    # block refs + row counts from the materialized dataset's metadata —
    # no block is fetched to the driver
    refs_rows = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs_rows.append((ref, meta.num_rows))
    # pack blocks into ~batch_rows-row map tasks: group small
    # consecutive blocks, slice large ones — task count tracks the DATA,
    # never the cluster size
    groups: list[list] = []
    cur: list = []
    cur_rows = 0
    for ref, n_rows in refs_rows:
        off = 0
        while off < n_rows:
            take = min(n_rows - off, batch_rows - cur_rows)
            cur.append((ref, off, take))
            cur_rows += take
            off += take
            if cur_rows >= batch_rows:
                groups.append(cur)
                cur, cur_rows = [], 0
    if cur:
        groups.append(cur)
    # the map body ships once through the object store instead of being
    # pickled into every task spec (top-level ref args are resolved by
    # Ray before the task runs)
    to_partials_ref = ray.put(to_partials)
    # +1 return: a trailing per-task stats dict
    mapper = _exchange_map.options(num_returns=n_buckets + 1)
    map_refs = [mapper.remote(g, batch_rows, to_partials_ref, num_shards,
                              salt_buckets, n_buckets)
                for g in groups]
    t_submit_maps = time.time()
    # barrier WITHOUT fetching the data: every reduce needs every map's
    # slice, so nothing downstream can start earlier anyway; waiting
    # here lets the reduces take nested ref lists without blocking CPU
    # slots in ray.get. The stats dicts fetched ARE tiny.
    map_stats = ray.get([m[n_buckets] for m in map_refs])
    t_maps = time.time()
    # the tree's threshold depends only on the DATA (map count), never
    # cluster size — the physical plan stays identical at every cpu
    # level, which the scaling audit requires
    fanin = MR2_TREE_FANIN
    n_combines = 0
    tree_levels = 0
    if len(map_refs) > fanin:
        # recurse until every bucket's ref list fits one reduce's
        # fan-in budget: level 1 combines map slices, level 2 (maps >
        # fanin^2, ~10^5 at the default) combines combined objects,
        # and so on — each level is one more object-store hop for a
        # fan-in that stays bounded at ANY map count
        per_bucket = {b: [map_refs[i][b] for i in range(len(map_refs))]
                      for b in keys_by_bucket}
        comb_refs: list = []
        while len(next(iter(per_bucket.values()))) > fanin:
            tree_levels += 1
            nxt: dict[int, list] = {}
            for bkt, refs in per_bucket.items():
                lst = [_exchange_combine.remote(salt_buckets,
                                                refs[i:i + fanin])
                       for i in range(0, len(refs), fanin)]
                nxt[bkt] = lst
                comb_refs.extend(lst)
            per_bucket = nxt
        n_combines = len(comb_refs)
        # barrier WITHOUT fetching (like the map barrier): reduces take
        # nested ref lists, so their in-task ray.get must never block a
        # CPU slot on an unfinished combine
        ray.wait(comb_refs, num_returns=len(comb_refs),
                 fetch_local=False)
        bucket_blob = {b: ray.put(per_bucket[b]) for b in keys_by_bucket}
    else:
        # each bucket's ref list is ray.put ONCE and shared by its key
        # reduces — ref serialization stays maps x buckets, not maps x
        # keys
        bucket_blob = {b: ray.put([m[b] for m in map_refs])
                       for b in keys_by_bucket}
    t_tree = time.time()
    # the maps report exact per-key posting counts: the reduce loads
    key_load = np.zeros(num_parts, dtype=np.int64)
    for s in map_stats:
        key_load += s["key_postings"]
    # Pack each bucket's keys into ~TARGET balanced bins (first-fit
    # decreasing, cap = per-bin fair share): finer salting splits a
    # mega-term's postings across more (shard, seg) keys — the straggler
    # fix — but per-KEY tasks would then re-fetch every bucket's ref
    # list once per key (fetch count = num_parts x n_maps). Binning
    # keeps task count ~constant as salt_buckets grows, so the fetch
    # bill stays flat while the LARGEST task keeps shrinking. The rule
    # depends only on the data (loads) and the layout, never on cluster
    # size: the scaling audit requires the identical physical plan at N
    # and 4N cpus.
    target_tasks = max(256, num_parts // 4)
    fair = max(1, int(sum(int(key_load[s * salt_buckets + g])
                          for _, ks in keys_by_bucket.items()
                          for s, g in ks) // target_tasks))
    tasks = []  # (bucket, [keys], bin_load)
    for b, ks in keys_by_bucket.items():
        loaded = sorted(((int(key_load[s * salt_buckets + g]), (s, g))
                         for s, g in ks), reverse=True)
        bins: list = []  # [load, [keys]]
        for ld, key in loaded:
            for bin_ in bins:
                if bin_[0] + ld <= fair:
                    bin_[0] += ld
                    bin_[1].append(key)
                    break
            else:
                bins.append([ld, [key]])
        tasks.extend((b, bin_[1], bin_[0]) for bin_ in bins)
    # LPT: heaviest bins first, so the residual largest task (the hot
    # term-hash key, 9x the p50 at sf0.1) starts at t=0 instead of
    # landing in the last wave and setting the stage wall by itself
    tasks.sort(key=lambda t: -t[2])
    write_part_ref = ray.put(write_part)
    # sliding-window submission (~2x cpus in flight): dumping all
    # reduces at once made their brief arg-fetch ray.get()s release CPU
    # slots, cascading Ray into spawning waves of FRESH worker
    # processes — each paying the write body's first-call warmup
    # (measured a 16 s single-key reduce during a host-memory wave vs
    # ~0.1 s warm). The window advances in CHUNKS with the result fetch
    # deferred to the end: a wait(1)+get-per-completion loop serialized
    # ~2 x num_parts driver RPCs into the reduce wall (1-2 s at every
    # cpu level, ~40% of the phase at 32 cpus).
    window = 2 * int(ray.cluster_resources().get("CPU", 32))
    chunk = max(1, window // 8)
    pending: list = []
    out_refs: list = []
    for b, keys, _load in tasks:
        if len(pending) >= window:
            _, pending = ray.wait(pending, num_returns=chunk)
        r = _exchange_reduce.remote(write_part_ref, salt_buckets, keys,
                                    bucket_blob[b])
        pending.append(r)
        out_refs.append(r)
    t_submit = time.time()
    res = [r for sub in ray.get(out_refs) for r in sub]
    t_done = time.time()
    secs = sorted(r["sec"] for r in res)
    worst = max(res, key=lambda r: r["sec"])
    return {
        "n_reduces": len(tasks), "n_partitions": len(todo),
        "n_map_tasks": len(map_refs), "rows": sum(r["rows"] for r in res),
        # upstream execution of a lazy input (0 for a materialized one)
        "input_s": round(t0 - t_in, 3),
        "map_submit_s": round(t_submit_maps - t0, 3),
        # fused to_partials + split wall (the exchange's map compute)
        "map_wall_s": round(t_maps - t0, 3),
        # summed map-task busy: identical tasks at every cpu level, so
        # the lo/hi ratio measures single-box per-core contention
        "map_busy_s": round(sum(s["busy_s"] for s in map_stats), 3),
        "tree_fanin": fanin, "n_combines": n_combines,
        "tree_levels": tree_levels,
        "combine_wall_s": round(t_tree - t_maps, 3),
        "submit_s": round(t_submit - t_tree, 3),
        "reduce_wall_s": round(t_done - t_submit, 3),
        "reduce_busy_s": round(sum(secs), 3),
        "reduce_max_s": round(secs[-1], 3),
        "reduce_p50_s": round(secs[len(secs) // 2], 3),
        # whole-TASK wall skew (a task = one bin of co-bucket keys):
        # the quantity that actually bounds the reduce phase
        "task_max_s": round(max(r["task_sec"] for r in res), 3),
        "reduce_worst": {k: worst.get(k) for k in
                         ("sec", "fetch_s", "concat_s", "build_s",
                          "write_s", "rows", "cold")},
        "fetch_busy_s": round(sum(r["fetch_s"] for r in res), 3),
        # cold-vs-warm attribution: busy seconds spent in reduces that
        # were a worker process's FIRST (allocator/page-in warmup the
        # contention probe can't see) and the distinct worker count
        "reduce_cold_n": sum(1 for r in res if r["cold"]),
        "reduce_cold_busy_s": round(
            sum(r["sec"] for r in res if r["cold"]), 3),
        "reduce_workers": len({r["pid"] for r in res}),
    }


# ------------------------------------------------------------------ stage 3

# the per-(term, seg) metadata columns of a postings file, and how the
# lexicon folds a term's segment rows into its one entry
_SEG_META = pa.schema([
    ("term", pa.string()), ("df", pa.int64()), ("max_doc_id", pa.int64()),
    ("bm25_core", pa.float64()), ("tfidf_core", pa.float64()),
    ("bytes_ids", pa.int64()), ("bytes_tfs", pa.int64())])
_SEG_AGG = [("df", "sum"), ("max_doc_id", "max"), ("bm25_core", "max"),
            ("tfidf_core", "max"), ("bytes_ids", "sum"),
            ("bytes_tfs", "sum")]
# what each lexicon task returns (before its wall) and the stage's
# manifest sums, which stats.json reads
_LEX_SUMS = ("num_terms", "n_postings", "bytes_ids", "bytes_tfs")


@ray.remote
def _lexicon_shard_task(out: Path, shard: int, n_docs: int) -> tuple:
    """Fold postings shard ``shard``'s per-(term, seg) metadata rows
    into ``lexicon/shard-S.parquet``, one term-sorted row per term
    (df/idf/upper bounds, A1/A5-A8). term -> shard is functional, so a
    term's segments are all in its shard; a shard with no files writes
    an empty file with the full schema. Returns the ``_LEX_SUMS`` of
    the file, then the task's wall."""
    t0 = time.time()
    files = sorted((out / "postings" / f"shard={shard}").glob("*.parquet"))
    segs = pa.concat_tables(
        [pq.ParquetFile(f).read(columns=_SEG_META.names, use_threads=False)
         for f in files] or [_SEG_META.empty_table()])
    a = segs.group_by("term", use_threads=False).aggregate(_SEG_AGG)
    lex = _lexicon_finalize(pa.table({
        "term": a["term"], **{c: a[f"{c}_{f}"] for c, f in _SEG_AGG},
        "shard": pa.array(np.full(a.num_rows, shard), pa.int64()),
    }), n_docs).sort_by("term")
    # terms are unique and readers load whole files: no dictionary or
    # statistics pages
    pq.write_table(lex, str(out / "lexicon" / f"shard-{shard}.parquet"),
                   use_dictionary=False, write_statistics=False)
    return (lex.num_rows, *(int(pc.sum(lex[c]).as_py() or 0)
                            for c in ("df", "bytes_ids", "bytes_tfs")),
            time.time() - t0)


def _lexicon_stage(out: Path, n_docs: int, num_shards: int) -> dict:
    """Stage 3: one :func:`_lexicon_shard_task` per postings shard writes
    ``out/lexicon``. The manifest records the lexicon's ``_LEX_SUMS``,
    the task count and the slowest task's wall; returns it."""
    t0 = time.time()
    _fresh_stage_dir(out, "lexicon")
    (out / "lexicon").mkdir()
    *sums, secs = zip(*ray.get([_lexicon_shard_task.remote(out, s, n_docs)
                                for s in range(num_shards)]))
    write_manifest(str(out), "lexicon", {
        "seconds": time.time() - t0,
        **{k: sum(v) for k, v in zip(_LEX_SUMS, sums)},
        "sub": {"n_tasks": len(secs), "task_max_s": round(max(secs), 3)},
        "postings_completed_at":
            (read_manifest(str(out), "postings") or {}).get("completed_at"),
    })
    return read_manifest(str(out), "lexicon")


def _encode_partials(ds, to_partials, batch_rows: int, out: Path,
                     cfg: IndexConfig, n_docs: int,
                     avg_doc_len: float) -> dict:
    """Exchange + encode into the final block-encoded postings store at
    ``out/postings``. ``to_partials`` turns each ``batch_rows``-row
    sub-batch of ``ds`` into partial-posting rows (the explode output
    shape: term, shard, seg, n, ids_raw, tfs_raw) inside the exchange's
    maps: the build's token blocks through attach + explode, or — one
    row per source shard, ``batch_rows=1`` — the lifecycle ops' shard
    read + decode + row step (``build/lifecycle.py``). Requires
    ``out/doc_len.i64``; the caller owns manifests / resume policy.
    Returns the exchange's per-phase stats (:func:`_exchange`)."""
    build_fn = _make_build_segments(str(out / DOC_LEN_FILE), avg_doc_len,
                                    cfg, n_docs)
    xstats = _exchange(
        ds, to_partials,
        functools.partial(_write_postings_partition, build_fn,
                          str(out / "postings")),
        str(out / "postings"), cfg.num_shards, cfg.salt_buckets, batch_rows)
    # a zero-postings corpus (all docs stop/stem to nothing) writes no
    # files; later stages still expect the directory
    (out / "postings").mkdir(exist_ok=True)
    return xstats


def _write_stats(out: Path, cfg: IndexConfig, n_docs: int,
                 total_doc_len: int, metrics: dict, lex_m: dict) -> dict:
    """Assemble + write stats.json (D6); the lexicon's sizes come from
    its stage manifest ``lex_m``."""
    metrics["lexicon_seconds"] = lex_m["seconds"]
    metrics["lexicon_sub"] = lex_m["sub"]
    n_postings = metrics["n_postings"] = lex_m["n_postings"]
    bytes_ids = metrics["bytes_ids"] = lex_m["bytes_ids"]
    bytes_tfs = metrics["bytes_tfs"] = lex_m["bytes_tfs"]
    stats = {
        "n_docs": n_docs,                  # A2 collectionSize
        "total_doc_len": total_doc_len,    # A3 documentsLen
        "num_terms": lex_m["num_terms"],   # A4 numberOfTokens
        "avg_doc_len": total_doc_len / max(n_docs, 1),
        "parse": cfg.parse, "squeeze": cfg.squeeze, "codec": cfg.codec,
        "num_shards": cfg.num_shards, "salt_buckets": cfg.salt_buckets,
        "k1": cfg.k1, "b": cfg.b,
        "metrics": {
            **metrics,
            "tokens_per_s": (total_doc_len / metrics["docs_seconds"])
                if metrics.get("docs_seconds") else None,
            "postings_per_s": (n_postings / metrics["postings_seconds"])
                if metrics.get("postings_seconds") else None,
            "bytes_compressed": bytes_ids + bytes_tfs,
        },
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2))
    return stats


def _lexicon_finalize(batch: pa.Table, n_docs: int) -> pa.Table:
    df = batch["df"].to_numpy().astype(np.float64)
    idf = np.log10(n_docs / df)   # A5 (InvertedIndex.java:166)
    bm25_ub = idf * batch["bm25_core"].to_numpy()
    tfidf_ub = idf * batch["tfidf_core"].to_numpy()
    return (batch.append_column("idf", pa.array(idf, type=pa.float64()))
                 .append_column("bm25_ub", pa.array(bm25_ub, type=pa.float64()))
                 .append_column("tfidf_ub", pa.array(tfidf_ub, type=pa.float64())))


# ------------------------------------------------------------------- driver

def load_stats(index_dir: str) -> dict:
    return json.loads((Path(index_dir) / "stats.json").read_text())


# ---------------------------------------------------- doc-length file

# D5: the docs stage's dense doc-length file, int64 in native byte order,
# entry docId-1 = that doc's length (the reference's documentIndex.dat,
# DocumentIndex.java:37-65). The postings reduces read the BM25 upper
# bounds' lengths from it; the query readers score with it.
DOC_LEN_FILE = "doc_len.i64"


def _seg_bounds(seg: int, n_docs: int, salt: int) -> tuple[int, int]:
    """0-based (docId-1) half-open range covered by a salt segment —
    matches _make_explode's seg(id) = (id-1)*salt // n_docs."""
    if n_docs == 0:
        return 0, 0
    return -(-seg * n_docs // salt), -(-(seg + 1) * n_docs // salt)


@ray.remote
def _doc_len_file_task(out: Path, n_docs: int) -> int:
    tmp = out / f".{DOC_LEN_FILE}.tmp"
    with open(tmp, "wb") as f:
        f.truncate(8 * n_docs)
    total = 0
    if n_docs:
        lens = np.memmap(tmp, dtype=np.int64, mode="r+")
        for rb in pads.dataset(str(out / "docs"), format="parquet") \
                .to_batches(columns=["doc_id", "doc_len"]):
            part = rb.column(1).to_numpy()
            lens[rb.column(0).to_numpy() - 1] = part
            total += int(part.sum())
        lens.flush()
        del lens
    os.replace(tmp, out / DOC_LEN_FILE)
    return total


def _doc_len_file_from_docs(out: Path, n_docs: int) -> int:
    """Write ``out/doc_len.i64`` from the doc table at ``out/docs`` and
    return the collection length (A3). One Ray task streams the table's
    (doc_id, doc_len) batches into the memory-mapped file (memory = one
    batch, whatever n_docs); the driver sees only the sum. The scale
    path, vacuum and merge call it; a broadcast-path build writes the
    file inside :func:`_assign_ids`."""
    return ray.get(_doc_len_file_task.remote(out, n_docs))


# ------------------------------------------- stage fingerprints (resume)

def _docs_fingerprint(cfg: IndexConfig, lineage: dict | None) -> dict:
    """Everything the docs-stage output depends on: tokenizer config +
    declared corpus lineage. A manifest whose fingerprint differs from
    the requested build must NOT be resumed (stale tokens/docIds).
    ``doc_len_file`` marks the docs-stage layout: a checkpoint from
    before the stage wrote ``doc_len.i64`` lacks it and is rebuilt."""
    return {"parse": cfg.parse, "squeeze": cfg.squeeze,
            "term_dimension": cfg.term_dimension,
            "lineage": lineage or {}, "doc_len_file": DOC_LEN_FILE}


def _postings_fingerprint(cfg: IndexConfig, docs_stamp) -> dict:
    """Everything a postings partition's bytes depend on: codec/layout
    knobs, score-core constants, and the docs stage identity
    (completed_at) it was built from."""
    return {"codec": cfg.codec, "num_shards": cfg.num_shards,
            "salt_buckets": cfg.salt_buckets,
            "block_threshold": cfg.block_threshold,
            "k1": cfg.k1, "b": cfg.b,
            "docs_completed_at": docs_stamp}


def _invalidate_stage(out: Path, stage: str) -> None:
    _fresh_stage_dir(out, stage)
    (out / "_manifests" / f"{stage}.json").unlink(missing_ok=True)
    (out / "_manifests" / f"{stage}.start.json").unlink(missing_ok=True)


def _partition_stats(stage_dir: Path) -> dict:
    """{shard name: {rows, bytes, files}} from parquet footers."""
    parts = {}
    for d in sorted(p for p in stage_dir.iterdir() if p.is_dir()):
        rows = 0
        nbytes = 0
        files = 0
        for f in d.glob("*.parquet"):
            rows += pq.ParquetFile(str(f)).metadata.num_rows
            nbytes += f.stat().st_size
            files += 1
        parts[d.name] = {"rows": rows, "bytes": nbytes, "files": files}
    return parts


def _fresh_stage_dir(out: Path, stage: str) -> None:
    """Clear a stage's output before (re)running it: a crashed run leaves
    partial parquet behind (manifest not yet published), and write_parquet
    adds uniquely-named files BESIDE leftovers — a rerun would silently
    double-count rows. Manifest presence is the only completion marker."""
    d = out / stage
    if d.exists():
        shutil.rmtree(d, ignore_errors=True)


def build_index(corpus, out_dir: str, cfg: IndexConfig | None = None,
                lineage: dict | None = None) -> dict:
    """Build the full index from a corpus Dataset. Returns the stats dict.

    Stages (each manifest-checkpointed, skipped when already complete):
      docs      doc table parquet (doc_id, repo, path, lang, doc_len, sha256)
                + doc_len.i64
      postings  block-encoded posting segments, partitioned by term shard
      lexicon   per-term df/idf/upper-bounds, one term-sorted file per
                postings shard
    """
    cfg = cfg or IndexConfig()
    cfg.codec_valid()
    from .. import use_push_shuffle
    use_push_shuffle(corpus)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}

    # stale-checkpoint guard: a stage directory may exist from a previous
    # run with a DIFFERENT config or corpus — resuming it would silently
    # mix codecs or duplicate postings. Fingerprints invalidate stale
    # stages (and everything downstream) before any resume decision.
    docs_fp = _docs_fingerprint(cfg, lineage)
    docs_m = read_manifest(out_dir, "docs")
    if docs_m is not None and docs_m.get("fingerprint") != docs_fp:
        logger.warning("docs checkpoint is from a different config/corpus "
                       "— rebuilding the whole index")
        for st in ("docs", "postings", "lexicon"):
            _invalidate_stage(out, st)
    post_m = read_manifest(out_dir, "postings")
    if post_m is not None:
        stamp = (read_manifest(out_dir, "docs") or {}).get("completed_at")
        if post_m.get("fingerprint") != _postings_fingerprint(cfg, stamp):
            logger.warning("postings checkpoint is from a different "
                           "config/corpus — rebuilding postings+lexicon")
            _invalidate_stage(out, "postings")
            _invalidate_stage(out, "lexicon")
    lex_m = read_manifest(out_dir, "lexicon")
    if lex_m is not None:
        stamp = (read_manifest(out_dir, "postings") or {}).get("completed_at")
        # a manifest without the lexicon's sums is from the one-file
        # layout, whose stats cannot be read from it
        if (lex_m.get("postings_completed_at") != stamp
                or "num_terms" not in lex_m):
            _invalidate_stage(out, "lexicon")

    # ---------------- stage 1: docs ----------------
    t0 = time.time()
    tok_mat = None
    tok0 = None
    mapping_ref = None
    if not stage_complete(out_dir, "docs"):
        _fresh_stage_dir(out, "docs")
        sub: dict[str, float] = {}
        # ONE content scan: blank-filter + tokenize + sha256, materialized
        # into the object store (spill-backed); this single token stream
        # feeds id assignment, the doc table AND the postings shuffle. The
        # corpus itself is never shuffled — the only full-data exchange in
        # the whole build is the postings exchange.
        tok0 = tokenize_corpus(corpus, cfg).materialize()
        sub["tokenize_s"] = round(time.time() - t0, 3)
        n_keys = tok0.count()  # block metadata of the materialized stream
        tm = time.time()
        if n_keys <= DRIVER_IDMAP_MAX_ROWS:
            # broadcast path: docIds AND doc lengths come from ONE task,
            # as the reference's SPIMI pass hands out ids and collects
            # lengths together. Per-block tasks beside the token blocks
            # cut them to (repo, path, doc_len); the assign task sorts the
            # keys, numbers the docs, writes doc_len.i64 and
            # returns the lookup-ready mapping, whose ref AttachIds reads
            # (the driver sees the ref and the collection length only)
            keys = [_block_keys.remote(b) for b in tok0.to_arrow_refs()]
            mapping_ref, total_ref = _assign_ids.remote(None, out, *keys)
            total0 = ray.get(total_ref)
            tok_mat = tok0.map_batches(AttachIds(mapping_ref),
                                       batch_format="pyarrow")
        else:
            # scale path: the mapping stays a Dataset and doc ids attach
            # via a hash-partitioned join on (repo, path) — the mapping
            # never lands on the driver or any single heap. Materialized
            # so the docs write AND the postings stage both read the
            # joined stream without re-running the join.
            slim = tok0.select_columns(["repo", "path"])
            mapping_ds = build_id_mapping_ds(slim, ray)
            tok_mat = attach_ids_via_join(tok0, mapping_ds).materialize()
            tok0 = None  # release the pre-join token blocks
        sub["idmap_s"] = round(time.time() - tm, 3)
        tm = time.time()
        tok_mat.drop_columns(["tokens"]).write_parquet(
            str(out / "docs"), min_rows_per_file=200_000)
        sub["docs_write_s"] = round(time.time() - tm, 3)
        tm = time.time()
        if mapping_ref is None:
            # scale path: doc_len.i64 + the A3 collection length from the
            # just-written docs parquet
            total0 = _doc_len_file_from_docs(out, n_keys)
        sub["sidecar_s"] = round(time.time() - tm, 3)
        write_manifest(out_dir, "docs", {
            "lineage": lineage or {}, "n_docs": n_keys,
            "total_doc_len": total0, "fingerprint": docs_fp,
            "seconds": time.time() - t0, "sub": sub,
        })
    docs_m2 = read_manifest(out_dir, "docs")
    n_docs, total_doc_len = docs_m2["n_docs"], docs_m2["total_doc_len"]
    avg_doc_len = total_doc_len / max(n_docs, 1)
    metrics["docs_seconds"] = docs_m2.get("seconds")
    metrics["docs_sub"] = docs_m2.get("sub")
    metrics["n_docs"] = n_docs

    # ---------------- stage 2: postings ----------------
    t1 = time.time()
    if not stage_complete(out_dir, "postings"):
        stamp = (read_manifest(out_dir, "docs") or {}).get("completed_at")
        post_fp = _postings_fingerprint(cfg, stamp)
        # partitions publish atomically (tmp+rename): files present ARE
        # complete — but only for THIS config/corpus. The stage-START
        # sidecar records the fingerprint before any partition decision;
        # a mismatch (changed codec/shards/salt, or docs rebuilt since)
        # or a missing record (files of unknown provenance) wipes the dir
        # instead of resuming
        start_m = read_manifest(out_dir, "postings.start")
        if start_m is None or start_m.get("fingerprint") != post_fp:
            if (out / "postings").exists():
                logger.warning("postings partial output is from a different "
                               "or unknown config/corpus — wiping instead "
                               "of resuming")
            _fresh_stage_dir(out, "postings")
        write_manifest(out_dir, "postings.start", {"fingerprint": post_fp})
        for tmp in (out / "postings").glob("shard=*/.seg-*.tmp"):
            tmp.unlink(missing_ok=True)
        if tok_mat is None:
            # resume path (docs stage done in a previous run): re-derive the
            # token stream — the id mapping comes from the checkpointed doc
            # table, tokenization is deterministic.
            if n_docs <= DRIVER_IDMAP_MAX_ROWS:
                # the doc table is read and sorted inside the assign task;
                # ids attach inside the exchange maps, as in a fresh build
                mapping_ref, _ = _assign_ids.remote(str(out / "docs"), None)
                tok0 = tokenize_corpus(corpus, cfg)
            else:
                # scale resume: join the re-derived token stream against
                # the checkpointed mapping parquet (streamed, no driver)
                import ray.data as rd
                mapping_ds = rd.read_parquet(
                    str(out / "docs"), columns=["repo", "path", "doc_id"])
                tok_mat = attach_ids_via_join(tokenize_corpus(corpus, cfg),
                                              mapping_ds)
        explode = _make_explode(cfg.num_shards, cfg.salt_buckets, n_docs)
        if mapping_ref is not None:
            # broadcast build or resume: AttachIds runs inside the
            # exchange's maps (tok0 has no doc_id yet); the scale path's
            # joined token stream already carries doc_id
            tokens, to_partials = tok0, _TokensToPartials(explode, mapping_ref)
        else:
            tokens, to_partials = tok_mat, _TokensToPartials(explode)
        xstats = _encode_partials(tokens, to_partials,
                                  EXPLODE_BATCH_SIZE, out, cfg, n_docs,
                                  avg_doc_len)
        tp = time.time()
        pstats = _partition_stats(out / "postings")
        xstats["partition_stats_s"] = round(time.time() - tp, 3)
        write_manifest(out_dir, "postings", {
            "seconds": time.time() - t1, "codec": cfg.codec,
            "salt_buckets": cfg.salt_buckets, "num_shards": cfg.num_shards,
            "fingerprint": post_fp, "sub": xstats,
            # per-PARTITION lineage: (term-rows, bytes) per shard dir from
            # parquet footers — a resumed/audited run can account for each
            # partition independently (footer scan is metadata-only; at
            # real scale run it as a task per shard)
            "partitions": pstats,
        })
    post_m2 = read_manifest(out_dir, "postings") or {}
    metrics["postings_seconds"] = post_m2.get("seconds")
    metrics["postings_sub"] = post_m2.get("sub")

    # ---------------- stage 3: lexicon + stats sidecar ----------------
    lex_m = (read_manifest(out_dir, "lexicon")
             or _lexicon_stage(out, n_docs, cfg.num_shards))
    return _write_stats(out, cfg, n_docs, total_doc_len, metrics, lex_m)


