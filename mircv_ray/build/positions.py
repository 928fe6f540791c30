"""Positional-postings sidecar: term -> (docIds, per-doc position lists).

ENGINE EXTENSION — the reference index stores (docId, tf) only
(``m/model/PostingList.java``), so positions live in a SEPARATE store
under ``<index>/positions/`` with the SAME (shard, seg) hive layout and
term-sharding function as the main postings: a phrase query touches
exactly the shards its terms hash to, and the sidecar can be built,
rebuilt or dropped without touching the scored index.

Dataflow (one extra content pass, the same shape as the main build):
corpus -> blank filter -> Tokenizer -> the main build's exchange
(``index_build._exchange``), whose maps run AttachIds (broadcast id
mapping rebuilt from the index's own ``docs/`` table) + the
``pos_explode`` map-side combine (one row per (term, seg) run carrying
packed int32 doc ids / counts / positions — the shuffle moves
~vocab-sized rows, never one row per occurrence) and whose reduces
merge + vbyte encode -> one parquet file per partition.

Final row format per (term, seg): ``n`` docs, ``ids_raw`` = vbyte
docId-gaps, ``cnt_raw`` = vbyte per-doc position counts, ``pos_raw`` =
vbyte position gaps restarting per doc (first gap = pos+1, so every
gap is > 0). Positions index the POST-parse token stream (0-based),
i.e. exactly what ``tokenize_text`` yields — the same stream the
scan-verify ``query/phrase.py`` path counts over, asserted equal in
tests.

Scale notes: positions roughly double the index's content volume, which
is why they are opt-in and partitioned identically to the postings
(one shuffle, resume-per-partition via the same atomic-rename
contract). The ids/counts/positions streams stay packed int32 through
the exchange (vbyte only at final encode).
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs.vbyte import vbyte_decode, vbyte_encode, vbyte_lengths
from ..config import IndexConfig
from ..text.tokenizer import Tokenizer, tokenize_text
from ..util import (crc32_column, packed_tf_dtype, packed_tf_values,
                    sort_pairs)
from .index_build import (_assign_ids, _drop_blank, _exchange, _ids_dtype,
                          _packed_runs, _term_shards_memo, _TokensToPartials,
                          _write_partition)

__all__ = ["build_positions_index", "phrase_match_positional",
           "read_term_positions"]


_PARTIAL_EMPTY = {
    "term": pa.string(), "shard": pa.int64(), "seg": pa.int64(),
    "n": pa.int64(), "ids_raw": pa.binary(), "cnt_raw": pa.binary(),
    "pos_raw": pa.binary(),
}


def _make_pos_explode(num_shards: int, salt_buckets: int, n_docs: int):
    """Map-side combine for the positions exchange: one row per
    (term, seg) run with packed int32 doc ids, per-doc occurrence
    counts and in-doc positions. All-NumPy; same seg function and term
    sharding as the main build's explode (index_build._make_explode)."""
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
        codes = denc.indices.to_numpy()
        if len(codes) == 0:
            return pa.table({k: pa.array([], type=t)
                             for k, t in _PARTIAL_EMPTY.items()})
        # in-doc position of each occurrence = flat index - doc start.
        # LOGICAL lengths (value_lengths), never the physical offsets
        # buffer — a sliced/offset ListArray would skew the latter
        lens = np.asarray(tokens.value_lengths().fill_null(0),
                          dtype=np.int64)
        starts = np.cumsum(lens) - lens
        pos64 = np.arange(len(codes), dtype=np.int64) - starts[parents]
        # in-doc positions are bounded by doc length: uint16 unless the
        # batch holds a doc past 2^16 tokens — pos is the LARGEST
        # stream of this exchange (one entry per occurrence), so the
        # narrow width halves most of its traffic (width resolves per
        # row on the consumer side, like the tf stream)
        pos = pos64.astype(packed_tf_dtype(pos64))
        did = batch["doc_id"].to_numpy().astype(ids_dt)[parents]
        # STABLE (term, doc) sort keeps stream order within a run, so
        # each run's positions come out ascending — util.sort_pairs is
        # deliberately unstable (its callers' pairs are unique), which
        # would scramble in-doc position order here
        if int(codes.max()) < (1 << 23) and int(did.max()) < (1 << 40):
            order = np.argsort(codes.astype(np.int64) * np.int64(1 << 40)
                               + did, kind="stable")
        else:
            order = np.lexsort((did, codes))
        c2, d2, p2 = codes[order], did[order], pos[order]
        occ_change = np.zeros(len(c2), dtype=bool)
        occ_change[0] = True
        np.logical_or(c2[1:] != c2[:-1], d2[1:] != d2[:-1],
                      out=occ_change[1:])
        pstarts = np.flatnonzero(occ_change)
        cnts64 = np.diff(np.append(pstarts, len(c2)))
        # per-doc occurrence counts share the tf distribution: uint16
        # unless one doc holds >= 2^16 occurrences (packed_tf_values
        # resolves the width per row on the consumer side)
        cnts = cnts64.astype(packed_tf_dtype(cnts64))
        run_codes_all = c2[pstarts]
        run_dids = d2[pstarts]
        if n_docs * salt_buckets < 2**31:
            seg = (run_dids - 1) * salt_buckets // max(n_docs, 1)
        else:
            seg = (run_dids.astype(np.int64) - 1) * salt_buckets \
                // max(n_docs, 1)
        change = (np.diff(run_codes_all) != 0) | (np.diff(seg) != 0)
        starts = np.flatnonzero(np.append(True, change))
        ends = np.append(starts[1:], len(run_codes_all))
        vocab = denc.dictionary
        vshards = _term_shards_memo(vocab, num_shards)
        run_codes = run_codes_all[starts]
        # positions tile occurrence-major: the (term, seg) row's pos
        # stream starts at the first occurrence of its first doc run
        pos_starts = pstarts[starts]
        return pa.table({
            "term": vocab.take(pa.array(run_codes)),
            "shard": pa.array(vshards[run_codes], type=pa.int64()),
            "seg": pa.array(seg[starts], type=pa.int64()),
            "n": pa.array((ends - starts).astype(np.int64)),
            "ids_raw": _packed_runs(run_dids, starts),
            "cnt_raw": _packed_runs(cnts, starts),
            "pos_raw": _packed_runs(p2, pos_starts),
        })

    return explode


def _encode_pos_group(out_dir: str, n_docs: int, group: pa.Table,
                      shard: int, seg: int) -> dict:
    """The positions write body of the exchange: merge one (shard, seg)
    partition's partial rows into final vbyte-encoded per-term rows and
    publish its parquet file atomically (the main postings' per-partition
    resume contract)."""
    ids_dt = _ids_dtype(n_docs)
    terms = group["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    denc = terms.dictionary_encode()
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    # codes are term RANKS, so the (term, docId) sort below writes the
    # file term-sorted and its row groups hold disjoint term ranges
    dorder = pc.sort_indices(denc.dictionary).to_numpy()
    rank = np.empty(len(dorder), dtype=np.int64)
    rank[dorder] = np.arange(len(dorder))
    vocab = denc.dictionary.take(pa.array(dorder))
    tcodes = rank[denc.indices.to_numpy()]
    n_runs = group["n"].to_numpy()
    # flatten the packed partial streams — one zero-copy typed view per
    # column (same contract as the main build's build_segments)
    from ..util import binary_column_values_view as flat_of
    ids = flat_of(group["ids_raw"], ids_dt)
    cnts = packed_tf_values(group["cnt_raw"], n_runs)
    run_of = np.repeat(np.arange(len(n_runs), dtype=np.int64), n_runs)
    # doc-level order: (term, docId) across all partial rows
    order = sort_pairs(tcodes[run_of], ids)
    ids_o = ids[order].astype(np.int64)
    cnts_o = cnts[order].astype(np.int64)
    t_o = tcodes[run_of][order]
    # occurrence-level gather: each doc's positions move as one slice —
    # vectorized segmented gather (no per-doc Python):
    # gather[j] = src_start(of j's doc in output order) + local offset
    # per-row pos counts = the row's summed occurrence counts (int64
    # accumulate: a uint16 reduceat would wrap past 65535 occurrences)
    row_starts = (np.cumsum(n_runs) - n_runs).astype(np.int64)
    n_pos = np.add.reduceat(cnts.astype(np.int64), row_starts)
    pos = packed_tf_values(group["pos_raw"], n_pos)
    occ_starts_src = (np.cumsum(cnts) - cnts).astype(np.int64)
    total_occ = int(cnts_o.sum())
    out_starts = np.cumsum(cnts_o) - cnts_o
    gather = (np.arange(total_occ, dtype=np.int64)
              - np.repeat(out_starts, cnts_o)
              + np.repeat(occ_starts_src[order], cnts_o))
    pos_o = pos[gather].astype(np.int64)
    # per-term row boundaries
    tchange = np.flatnonzero(np.append(True, np.diff(t_o) != 0))
    tends = np.append(tchange[1:], len(t_o))
    # vbyte streams: docId gaps restart per term; position gaps restart
    # per DOC (first gap = pos + 1 > 0)
    gaps = np.diff(ids_o, prepend=0)
    gaps[tchange] = ids_o[tchange]
    doc_occ_ends = np.cumsum(cnts_o)
    doc_occ_starts = doc_occ_ends - cnts_o
    pgaps = np.diff(pos_o, prepend=-1)
    pgaps[doc_occ_starts[cnts_o > 0]] = pos_o[doc_occ_starts[cnts_o > 0]] + 1
    ids_buf = np.frombuffer(vbyte_encode(gaps), dtype=np.uint8)
    cnt_buf = np.frombuffer(vbyte_encode(cnts_o), dtype=np.uint8)
    pos_buf = np.frombuffer(vbyte_encode(pgaps), dtype=np.uint8)
    id_ends = np.cumsum(vbyte_lengths(gaps))[tends - 1]
    cnt_ends = np.cumsum(vbyte_lengths(cnts_o))[tends - 1]
    pos_row_last = doc_occ_ends[tends - 1] - 1
    pos_ends = np.cumsum(vbyte_lengths(pgaps))[pos_row_last]

    def runs(buf, ends):
        offs = np.empty(len(ends) + 1, dtype=np.int32)
        offs[0] = 0
        offs[1:] = ends
        return pa.Array.from_buffers(
            pa.binary(), len(ends),
            [None, pa.py_buffer(offs), pa.py_buffer(buf)])

    out = pa.table({
        "term": vocab.take(pa.array(t_o[tchange])),
        "n": pa.array((tends - tchange).astype(np.int64)),
        "ids_raw": runs(ids_buf, id_ends),
        "cnt_raw": runs(cnt_buf, cnt_ends),
        "pos_raw": runs(pos_buf, pos_ends),
    })
    _write_partition(out, out_dir, shard, seg)
    return {"rows": out.num_rows}


def build_positions_index(index_dir: str, corpus, cfg: IndexConfig,
                          concurrency: int | None = None) -> dict:
    """Build the positional sidecar for an EXISTING index from the same
    corpus: one content pass (blank filter + tokenize), then the main
    build's (shard, seg) exchange with AttachIds + ``pos_explode`` in its
    maps and per-partition atomic writes under ``<index_dir>/positions/``.
    Idempotent: a completed sidecar (its ``positions`` manifest) is not
    rebuilt, and finished partitions of an interrupted run are skipped."""
    import json

    import shutil

    from .manifests import read_manifest, write_manifest
    stats = json.loads((Path(index_dir) / "stats.json").read_text())
    n_docs = int(stats["n_docs"])
    num_shards = int(stats["num_shards"])
    salt = int(stats.get("salt_buckets", 1))
    out_dir = str(Path(index_dir) / "positions")
    # staleness guard: the sidecar is valid only for the docs stage it
    # was built against (an in-place index rebuild must invalidate it —
    # the doc_len.i64 lesson). Stamp = docs manifest completed_at.
    stamp = str((read_manifest(index_dir, "docs") or {})
                .get("completed_at"))
    # completion marker: the stage manifest, not a file count — an
    # empty (shard, seg) partition writes no file
    done_m = read_manifest(index_dir, "positions")
    if done_m is not None and done_m["docs_completed_at"] == stamp \
            and Path(out_dir).exists():
        return {"partitions": done_m["partitions"], "resumed": True}
    stamp_p = Path(out_dir) / "_stamp"
    if Path(out_dir).exists() and \
            (not stamp_p.exists() or stamp_p.read_text() != stamp):
        shutil.rmtree(out_dir, ignore_errors=True)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    stamp_p.write_text(stamp)
    # the doc table is read and sorted inside one task; the driver holds
    # only the mapping's ref
    mref, _ = _assign_ids.remote(str(Path(index_dir) / "docs"), None)
    t0 = time.time()
    # blank docs got no docId in the build (InvertedIndex.java:45-47), so
    # they must not reach AttachIds
    tokens = corpus.map_batches(
        _drop_blank, batch_format="pyarrow").map_batches(
        Tokenizer(parse=cfg.parse, squeeze=cfg.squeeze,
                  term_dimension=cfg.term_dimension),
        batch_format="pyarrow", batch_size=cfg.tokenize_batch_size
    ).select_columns(["repo", "path", "tokens"])
    xstats = _exchange(
        tokens,
        _TokensToPartials(_make_pos_explode(num_shards, salt, n_docs), mref),
        functools.partial(_encode_pos_group, out_dir, n_docs),
        out_dir, num_shards, salt, cfg.explode_batch_size)
    write_manifest(index_dir, "positions", {
        "docs_completed_at": stamp, "partitions": num_shards * salt,
        "seconds": time.time() - t0, "sub": xstats})
    return {**xstats, "partitions": num_shards * salt,
            "sec": round(time.time() - t0, 3)}


# ------------------------------------------------------------ query side

def read_term_positions(index_dir: str, term: str, num_shards: int,
                        salt_buckets: int):
    """Decode one term's (doc_ids, counts, positions) from the sidecar.
    Reads only the term's hash shard, filtered to its rows."""
    shard = int((crc32_column(pa.array([term]))
                 % np.uint32(num_shards))[0])
    d = Path(index_dir) / "positions" / f"shard={shard}"
    if not d.exists():
        return None
    ids_parts, cnt_parts, pos_parts = [], [], []
    for seg in range(salt_buckets):
        f = d / f"seg-{seg}.parquet"
        if not f.exists():
            continue
        t = pq.read_table(str(f), filters=[("term", "=", term)])
        for row in range(t.num_rows):
            n = t["n"][row].as_py()
            ids = np.cumsum(vbyte_decode(t["ids_raw"][row].as_py(), n))
            cnts = vbyte_decode(t["cnt_raw"][row].as_py(), n)
            pg = vbyte_decode(t["pos_raw"][row].as_py(), int(cnts.sum()))
            # undo per-doc restarts: first gap in a doc = pos + 1
            occ_starts = np.cumsum(cnts) - cnts
            pos = pg.copy()
            pos[occ_starts] -= 1
            dstart = np.zeros(int(cnts.sum()), dtype=np.int64)
            dstart[occ_starts] = 1
            # segmented cumsum: reset at each doc start
            grp = np.cumsum(dstart) - 1
            csum = np.cumsum(pos)
            base = np.concatenate(([0], csum[np.cumsum(cnts)[:-1] - 1]))
            pos = csum - base[grp]
            ids_parts.append(ids)
            cnt_parts.append(cnts)
            pos_parts.append(pos)
    if not ids_parts:
        return None
    ids = np.concatenate(ids_parts)
    cnts = np.concatenate(cnt_parts)
    pos = np.concatenate(pos_parts)
    # segments hold disjoint ascending docId ranges; order by first id
    return ids, cnts, pos


def phrase_match_positional(index_dir: str, phrases: list[str],
                            parse: bool = False, squeeze: bool = False,
                            num_shards: int | None = None,
                            salt_buckets: int | None = None) -> pa.Table:
    """Exact-phrase search from the positional sidecar alone — no
    content re-scan. Adjacency is one vectorized composite-key chain:
    occurrences are (docId << 32 | pos) keys; phrase starts are term-0
    keys k with k+1 in term-1's set, k+2 in term-2's, ... Counting
    survivors per docId is a bincount. Returns the same (qid, doc_id,
    n_occurrences) schema as query/phrase.phrase_match."""
    import json
    stats = json.loads((Path(index_dir) / "stats.json").read_text())
    num_shards = num_shards or int(stats["num_shards"])
    salt_buckets = salt_buckets or int(stats.get("salt_buckets", 1))
    from .tombstones import load_tombstones
    tombs = load_tombstones(index_dir)
    qids, dids, occs = [], [], []
    cache: dict[str, tuple | None] = {}
    for qid, phrase in enumerate(phrases):
        terms = tokenize_text(phrase, parse=parse, squeeze=squeeze)
        if not terms:
            continue
        tps = []
        for t in terms:
            if t not in cache:
                cache[t] = read_term_positions(
                    index_dir, t, num_shards, salt_buckets)
            tps.append(cache[t])
        if any(tp is None for tp in tps):
            continue
        keysets = []
        for ids, cnts, pos in tps:
            doc_of = np.repeat(ids, cnts)
            keysets.append((doc_of << np.int64(32)) | pos.astype(np.int64))
        start = keysets[0]
        for k in range(1, len(terms)):
            start = start[np.isin(start + k, keysets[k],
                                  assume_unique=False)]
            if len(start) == 0:
                break
        if len(start) == 0:
            continue
        hit_docs = (start >> np.int64(32)).astype(np.int64)
        u, n = np.unique(hit_docs, return_counts=True)
        if len(tombs):
            alive = ~np.isin(u, tombs)
            u, n = u[alive], n[alive]
        qids.append(np.full(len(u), qid, dtype=np.int64))
        dids.append(u)
        occs.append(n.astype(np.int64))
    if not qids:
        return pa.table({"qid": pa.array([], type=pa.int64()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "n_occurrences": pa.array([], type=pa.int64())})
    return pa.table({"qid": pa.array(np.concatenate(qids)),
                     "doc_id": pa.array(np.concatenate(dids)),
                     "n_occurrences": pa.array(np.concatenate(occs))})


def _min_cover_windows(keysets: list[np.ndarray]):
    """Per-doc BEST minimal-cover window over composite
    ``(docId << 32 | pos)`` keysets (one sorted array per query term).

    For each anchor occurrence ``a`` the optimal window starting there
    ends at ``max_j next_j(a)`` (term j's first occurrence >= a in the
    same doc); the per-doc best is the argmin over anchors of
    ``(span, start)`` — smallest window, earliest on ties — computed as
    one ``np.minimum.at`` over the ``span << 32 | start`` composite.
    Returns ``(docs, spans, starts)`` (starts are 0-based in-doc
    positions) or three empty arrays."""
    empty = (np.empty(0, dtype=np.int64),) * 3
    anchors = np.unique(np.concatenate(keysets))
    a_doc = anchors >> np.int64(32)
    end = anchors.copy()
    valid = np.ones(len(anchors), dtype=bool)
    for ks in keysets:
        p = np.searchsorted(ks, anchors)
        inb = p < len(ks)
        nxt = np.where(inb, ks[np.minimum(p, len(ks) - 1)], -1)
        ok = inb & ((nxt >> np.int64(32)) == a_doc)
        valid &= ok
        end = np.maximum(end, np.where(ok, nxt, end))
    if not valid.any():
        return empty
    a_doc = a_doc[valid]
    start = anchors[valid] & np.int64(0xFFFFFFFF)
    span = (end[valid] & np.int64(0xFFFFFFFF)) - start + 1
    docs, inv = np.unique(a_doc, return_inverse=True)
    best = np.full(len(docs), np.iinfo(np.int64).max)
    np.minimum.at(best, inv, (span << np.int64(32)) | start)
    return docs, best >> np.int64(32), best & np.int64(0xFFFFFFFF)


def term_keysets(index_dir: str, terms: list[str], num_shards: int,
                 salt_buckets: int,
                 cache: dict | None = None) -> list[np.ndarray] | None:
    """Sorted composite ``(docId << 32 | pos)`` keysets for ``terms``
    from the positional sidecar, or None if any term is absent."""
    keysets = []
    for t in terms:
        if cache is None or t not in cache:
            tp = read_term_positions(index_dir, t, num_shards,
                                     salt_buckets)
            if cache is not None:
                cache[t] = tp
        else:
            tp = cache[t]
        if tp is None:
            return None
        ids, cnts, pos = tp
        k = (np.repeat(ids, cnts) << np.int64(32)) | pos.astype(np.int64)
        keysets.append(np.sort(k))
    return keysets


def phrase_bm25(index_dir: str, phrases: list[str], k: int = 10,
                parse: bool = False, squeeze: bool = False) -> pa.Table:
    """RANKED phrase search: the phrase's exact-adjacency occurrence
    count plays the role of tf in the engine's BM25 formula
    (``score = tf/(k1·Bj+tf) · log10(N/df)`` with df = number of live
    docs containing the phrase — the natural lift of Q3 from terms to
    phrases; same k1/b/Bj as the scorer, `query/scorer.py`). Matches
    come from the positional sidecar (`phrase_match_positional`, no
    content scan); scoring is one vectorized pass over the
    output-sized match table. Returns (qid, doc_id, score) top-``k``
    per query by (score DESC, doc_id ASC)."""
    from ..query.engine import IndexReader
    occ = phrase_match_positional(index_dir, phrases, parse=parse,
                                  squeeze=squeeze)
    reader = IndexReader(index_dir)
    qids = occ["qid"].to_numpy()
    dids = occ["doc_id"].to_numpy()
    tf = occ["n_occurrences"].to_numpy().astype(np.float64)
    out_q, out_d, out_s = [], [], []
    for qid in np.unique(qids):
        m = qids == qid
        d, f = dids[m], tf[m]
        df = len(d)
        idf = np.log10(reader.n_docs / df)
        score = f / (reader.k1 * reader.bj_at(d - 1) + f) * idf
        order = np.lexsort((d, -score))[:k]
        out_q.append(np.full(len(order), qid, dtype=np.int64))
        out_d.append(d[order])
        out_s.append(score[order])
    if not out_q:
        return pa.table({"qid": pa.array([], type=pa.int64()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "score": pa.array([], type=pa.float64())})
    return pa.table({"qid": pa.array(np.concatenate(out_q)),
                     "doc_id": pa.array(np.concatenate(out_d)),
                     "score": pa.array(np.concatenate(out_s))})


def proximity_min_span(index_dir: str, queries: list[str],
                       parse: bool = False, squeeze: bool = False,
                       num_shards: int | None = None,
                       salt_buckets: int | None = None) -> pa.Table:
    """Unordered proximity search from the positional sidecar: for each
    query, every live doc containing ALL its (distinct) terms, with the
    MINIMAL token-window length covering at least one occurrence of
    each (``min_span``; 1 = all terms at one position, i.e. m = 1).

    Vectorized minimal-cover over every doc at once via composite
    (docId << 32 | pos) keys: the optimal window starting at anchor
    occurrence a ends at ``max_j next_j(a)`` where ``next_j`` is term
    j's first occurrence >= a in the same doc (one ``searchsorted`` per
    term over its sorted keyset); per-doc minima via ``np.minimum.at``.
    No per-doc or per-candidate Python loop."""
    import json
    stats = json.loads((Path(index_dir) / "stats.json").read_text())
    num_shards = num_shards or int(stats["num_shards"])
    salt_buckets = salt_buckets or int(stats.get("salt_buckets", 1))
    from .tombstones import load_tombstones
    tombs = load_tombstones(index_dir)
    out_q, out_d, out_s = [], [], []
    cache: dict[str, tuple | None] = {}
    for qid, q in enumerate(queries):
        terms = sorted(set(tokenize_text(q, parse=parse,
                                         squeeze=squeeze)))
        if not terms:
            continue
        keysets = term_keysets(index_dir, terms, num_shards,
                               salt_buckets, cache)
        if keysets is None:
            continue
        docs, best, _starts = _min_cover_windows(keysets)
        if len(docs) == 0:
            continue
        if len(tombs):
            alive = ~np.isin(docs, tombs)
            docs, best = docs[alive], best[alive]
        out_q.append(np.full(len(docs), qid, dtype=np.int64))
        out_d.append(docs)
        out_s.append(best)
    if not out_q:
        return pa.table({"qid": pa.array([], type=pa.int64()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "min_span": pa.array([], type=pa.int64())})
    return pa.table({"qid": pa.array(np.concatenate(out_q)),
                     "doc_id": pa.array(np.concatenate(out_d)),
                     "min_span": pa.array(np.concatenate(out_s))})
