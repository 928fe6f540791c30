"""Query engine: per-process index state + actor-pool batch scoring.

Mirrors the reference's query lifecycle
(QueryProcessorMain.java:14-131,165-176):

  init: load collection stats (T5), doc-length array (T4, BM25 only in
  the reference — always loaded here), lexicon (T3: the reference
  binary-searches 100-byte records on disk per term, Lexicon.java:154-195;
  here the lexicon Parquet loads once per PROCESS into sorted
  term/stat arrays shared by every reader, looked up via searchsorted).

  per query: tokenize (M12) -> optional alphabetical term sort (M13)
  -> fetch posting lists (J1; terms missing from the lexicon are silently
  ignored, QueryProcessorMain.java:139-154; duplicate query terms create
  duplicate cursors) -> sort cursors by term upper bound ascending
  (QueryProcessorMain.java:169-171, stable like Arrays.sort) -> MaxScore
  -> top-k with docno = str(docId-1) (DocumentIndex.java:82-84).

Batch path: ``run_queries`` maps a queries Dataset through a
``QueryScorer`` actor pool — each actor pays the index load once in
``__init__`` and scores per batch. Posting fetches read the term's
hash shard and, within it, only the small row groups whose term range
holds the term, with an LRU cache of decoded terms per actor.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import OrderedDict
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import QueryConfig
from ..util import multi_arange
from ..text import tokenize_text
from .cursors import PostingCursor
from .scorer import (block_max_wand, bm25_score, max_score,
                     tfidf_score, wand)


def _terms_to_s64(arr) -> np.ndarray:
    """Arrow string column -> fixed-width S64 byte array (terms are < 64
    ASCII bytes by the tokenizer's M5/M6 rules). One flat scatter over
    the value buffer — no (n, 64) index temporaries."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    a = arr.cast(pa.binary())
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype="S64")
    offs = np.frombuffer(a.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=a.offset * 4).astype(np.int64)
    data = np.frombuffer(a.buffers()[2], dtype=np.uint8) \
        if a.buffers()[2] is not None else np.zeros(0, np.uint8)
    lens = offs[1:] - offs[:-1]
    # arrow value buffers are tightly packed: the bytes of all strings in
    # row order are data[offs[0]:offs[-1]]
    seq = data[offs[0]:offs[-1]]
    dpos = (np.repeat(np.arange(n, dtype=np.int64) * 64, lens)
            + multi_arange(lens))
    out = np.zeros(n * 64, dtype=np.uint8)
    out[dpos] = seq
    return out.view("S64")


class _LexiconView:
    """Mapping-style view over the sorted lexicon arrays: term ->
    (df, idf, bm25_ub, tfidf_ub, shard) via searchsorted — O(log V) per
    lookup, no per-reader Python dict (a dict over a multi-million-term
    vocabulary costs ~45 s and ~600 MB PER ACTOR; the arrays build once
    per process in seconds and are shared by every reader)."""

    __slots__ = ("terms", "df", "idf", "b25", "tfidf", "shard")

    def __init__(self, terms, df, idf, b25, tfidf, shard):
        self.terms = terms
        self.df = df
        self.idf = idf
        self.b25 = b25
        self.tfidf = tfidf
        self.shard = shard

    def _index(self, term: str) -> int:
        enc = term.encode()
        if len(enc) >= 64:
            return -1
        key = np.bytes_(enc)
        i = int(np.searchsorted(self.terms, key))
        if i < len(self.terms) and self.terms[i] == key:
            return i
        return -1

    def get(self, term: str, default=None):
        i = self._index(term)
        if i < 0:
            return default
        return (int(self.df[i]), float(self.idf[i]), float(self.b25[i]),
                float(self.tfidf[i]), int(self.shard[i]))

    def __getitem__(self, term: str):
        v = self.get(term)
        if v is None:
            raise KeyError(term)
        return v

    def __contains__(self, term: str) -> bool:
        return self._index(term) >= 0

    def __iter__(self):
        for t in self.terms:
            yield t.decode()

    def prefix_terms(self, prefix: str) -> list[str]:
        """All lexicon terms starting with ``prefix``, in sorted order —
        two binary searches over the sorted fixed-width key array
        (wildcard/prefix query expansion). Index terms are ASCII (the
        tokenizer drops non-ASCII), so ``prefix + 0xff`` upper-bounds
        every extension."""
        enc = prefix.encode()
        if not enc or len(enc) >= 64:
            return []
        lo = int(np.searchsorted(self.terms, np.bytes_(enc)))
        hi = int(np.searchsorted(self.terms, np.bytes_(enc + b"\xff")))
        return [t.decode() for t in self.terms[lo:hi]]

    def __len__(self) -> int:
        return len(self.terms)

    def items(self):
        for i, t in enumerate(self.terms):
            yield t.decode(), (int(self.df[i]), float(self.idf[i]),
                               float(self.b25[i]), float(self.tfidf[i]),
                               int(self.shard[i]))

    def __eq__(self, other) -> bool:
        if isinstance(other, _LexiconView):
            # term-keyed content comparison, like the old dict
            return dict(self.items()) == dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented


# (index_dir, lexicon mtime) -> _LexiconView; shared per process so an
# actor pool's readers pay the lexicon load once, not once per reader
_lex_cache: dict = {}


def _load_lexicon(index_dir: str) -> _LexiconView:
    lex_dir = Path(index_dir) / "lexicon"
    key = (str(lex_dir), max((f.stat().st_mtime_ns
                              for f in lex_dir.glob("*.parquet")), default=0))
    hit = _lex_cache.get(key)
    if hit is not None:
        return hit
    lt = pq.read_table(str(lex_dir),
                       columns=["term", "df", "idf", "bm25_ub",
                                "tfidf_ub", "shard"])
    terms = _terms_to_s64(lt["term"])
    order = np.argsort(terms, kind="stable")
    view = _LexiconView(
        terms[order],
        lt["df"].to_numpy()[order],
        lt["idf"].to_numpy()[order],
        lt["bm25_ub"].to_numpy()[order],
        lt["tfidf_ub"].to_numpy()[order],
        lt["shard"].to_numpy()[order])
    _lex_cache[key] = view
    while len(_lex_cache) > 4:      # bound per-process memory
        _lex_cache.pop(next(iter(_lex_cache)))
    return view


# Readers of indexes beyond this many docs memory-map the dense doc-length
# file instead of loading it into every actor's heap: at the 10^12-doc
# north star the array is 8 TB per scorer actor, while the mmap pages in
# only the doc-length slots the query's postings actually touch (and the
# OS shares the pages across every actor on the node). 2^26 docs =
# 512 MB dense, a comfortable per-actor ceiling. The same gate routes
# TAAT, whose accumulators are O(n_docs) too.
DENSE_DOCLEN_MAX_DOCS = 1 << 26


class IndexReader:
    """Per-process (per-actor) read-only index state."""

    def __init__(self, index_dir: str, term_cache_size: int = 4096):
        self.index_dir = index_dir
        self.stats = json.loads((Path(index_dir) / "stats.json").read_text())
        self.codec = self.stats["codec"]
        self.n_docs = self.stats["n_docs"]
        self.avg_doc_len = self.stats["avg_doc_len"]
        self.k1 = self.stats.get("k1", 1.5)
        self.b = self.stats.get("b", 0.7)
        # T4: doc lengths, docId-1 -> len, from the docs stage's
        # doc_len.i64. Small indexes keep the reference's dense in-heap
        # array (fastest gathers); past DENSE_DOCLEN_MAX_DOCS the array
        # is a node-shared read-only mmap so actor init memory is
        # independent of n_docs.
        from ..build.index_build import DOC_LEN_FILE
        doc_len_path = Path(index_dir) / DOC_LEN_FILE
        if self.n_docs <= DENSE_DOCLEN_MAX_DOCS:
            self.doc_len = np.fromfile(doc_len_path, dtype=np.int64)
        else:
            self.doc_len = np.memmap(doc_len_path, dtype=np.int64, mode="r",
                                     shape=(self.n_docs,))
        # T3: lexicon as sorted arrays + searchsorted (process-shared)
        self._lex = _load_lexicon(index_dir)
        # deleted docs (tombstones/ sidecar, build.tombstones): sorted
        # engine-id array; every query path drops these from RESULTS
        # while collection stats stay pre-delete until vacuum_index
        from ..build.tombstones import load_tombstones
        self.tombstones = load_tombstones(index_dir)
        # per-shard parquet handles + row-group term ranges, built lazily
        # on first access (metadata-only). Postings files are term-sorted
        # in row groups of at most POSTINGS_ROW_GROUP_ROWS rows, so a
        # term fetch reads one small row group per (shard, seg) file, not
        # a whole file and not a filtered dataset scan over every
        # fragment (which costs 40-120 ms/query)
        self._shard_meta_cache: dict[int, list] = {}
        self._cache: OrderedDict[str, tuple] = OrderedDict()
        self._cache_size = term_cache_size
        # decoded-postings cache for the vectorized scorer: term ->
        # (ids, tfs) full NumPy arrays (LRU, bounded by term count)
        self._dec_cache: OrderedDict[str, tuple] = OrderedDict()
        # Bj = 0.3 + 0.7*docLen/avgDocLen (Scorer.java:30): precomputed
        # once for dense doc lengths; for mmap'd ones it is gathered per
        # access in bj_at (identical elementwise IEEE ops -> identical
        # floats), never materialized whole. An index without postings
        # has avg_doc_len 0 and every doc_len 0: dividing by 1 instead
        # gives them the length ratio 0, not NaN
        self._len_div = self.avg_doc_len or 1.0
        self._bj = (0.3 + self.b * (self.doc_len / self._len_div)
                    if isinstance(self.doc_len, np.ndarray)
                    and not isinstance(self.doc_len, np.memmap) else None)

    def bj_at(self, idx0):
        """Bj at docId-1 indices — dense gather or lazy mmap compute,
        bit-identical either way (same op order as Scorer.java:30)."""
        if self._bj is not None:
            return self._bj[idx0]
        return 0.3 + self.b * (self.doc_len[idx0] / self._len_div)

    @property
    def num_terms(self) -> int:
        return self.stats["num_terms"]

    def lexicon_entry(self, term: str):
        return self._lex.get(term)

    def prefix_terms(self, prefix: str) -> list[str]:
        """Wildcard expansion: lexicon terms starting with ``prefix``."""
        return self._lex.prefix_terms(prefix)

    def _store(self, term: str, rows: list[list[dict]]):
        """Segment block-lists (seg-ascending) -> flat cursor arrays."""
        block_max, block_n, block_base, ids_bufs, tfs_bufs = [], [], [], [], []
        b25c, tfc = [], []
        for seg_blocks in rows:
            prev = 0
            for blk in seg_blocks:
                block_max.append(blk["max_doc_id"])
                block_n.append(blk["n"])
                block_base.append(prev)
                # block-max score cores (absent in pre-r2 index files ->
                # +inf: pruning falls back to the term upper bound)
                b25c.append(blk.get("b25c", np.inf))
                tfc.append(blk.get("tfc", np.inf))
                ids_bufs.append(blk["ids"])
                tfs_bufs.append(blk["tfs"])
                prev = blk["max_doc_id"]
        entry = (np.array(block_max, dtype=np.int64),
                 np.array(block_n, dtype=np.int64),
                 np.array(block_base, dtype=np.int64),
                 ids_bufs, tfs_bufs,
                 np.array(b25c, dtype=np.float64),
                 np.array(tfc, dtype=np.float64))
        self._cache[term] = entry
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return entry

    def _shard_meta(self, shard: int) -> list:
        """[(ParquetFile, term_min per row group, term_max per row group)]
        for one shard dir; metadata-only, built once per process."""
        meta = self._shard_meta_cache.get(shard)
        if meta is not None:
            return meta
        meta = []
        d = Path(self.index_dir) / "postings" / f"shard={shard}"
        for fp in sorted(d.glob("*.parquet")):
            pf = pq.ParquetFile(str(fp))
            md = pf.metadata
            term_leaf = None
            if md.num_row_groups:
                rg0 = md.row_group(0)
                for j in range(rg0.num_columns):
                    if rg0.column(j).path_in_schema == "term":
                        term_leaf = j
                        break
            mins, maxs = [], []
            for i in range(md.num_row_groups):
                st = (md.row_group(i).column(term_leaf).statistics
                      if term_leaf is not None else None)
                if st is not None and st.has_min_max:
                    mins.append(st.min)
                    maxs.append(st.max)
                else:       # no stats: row group always matches
                    mins.append("")
                    maxs.append("\U0010ffff")
            meta.append((pf, mins, maxs))
        self._shard_meta_cache[shard] = meta
        return meta

    def _read_terms_in_shard(self, shard: int,
                             terms: list[str]) -> list[tuple]:
        """(term, seg, blocks) rows of ``terms`` in one shard, in file
        order. Row-group statistics pick the row groups whose [min, max]
        term range holds a wanted term; of those, only the matching rows
        are converted to Python. Any row-group layout reads correctly
        (an index written with one row group per file reads it whole)."""
        want = sorted(set(terms))
        value_set = pa.array(want, pa.string())
        rows = []
        for pf, mins, maxs in self._shard_meta(shard):
            rgs = [ri for ri, (lo, hi) in enumerate(zip(mins, maxs))
                   if (i := bisect_left(want, lo)) < len(want)
                   and want[i] <= hi]
            if not rgs:
                continue
            # a few small row groups: Arrow's decode thread pool costs
            # more than it overlaps (prefetch overlaps shards itself)
            term, seg, blocks = pf.read_row_groups(
                rgs, columns=["term", "seg", "blocks"],
                use_threads=False).columns
            hit = pc.indices_nonzero(pc.is_in(term, value_set=value_set))
            rows.extend((term[i].as_py(), seg[i].as_py(), blocks[i].as_py())
                        for i in hit.to_pylist())
        return rows

    def prefetch(self, terms: list[str]) -> None:
        """One row-group-pruned read per shard for every not-yet-cached
        query term (per-query fixed cost instead of per-term)."""
        missing = sorted({t for t in terms
                          if t in self._lex and t not in self._cache})
        if not missing:
            return
        by_shard: dict[int, list[str]] = {}
        for t in missing:
            by_shard.setdefault(self._lex[t][4], []).append(t)
        items = sorted(by_shard.items())
        if len(items) > 1:
            # parquet decompression releases the GIL: overlap the shard
            # reads (cold multi-term queries touch 2-4 shards)
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=min(len(items), 8)) as ex:
                parts = list(ex.map(
                    lambda it: self._read_terms_in_shard(*it), items))
        else:
            parts = [self._read_terms_in_shard(s, ts) for s, ts in items]
        rows = sorted((r for part in parts for r in part),
                      key=itemgetter(0, 1))       # term, then seg
        for term, grp in groupby(rows, key=itemgetter(0)):
            self._store(term, [blocks for _, _, blocks in grp])

    def _fetch_blocks(self, term: str, shard: int):
        if term in self._cache:
            self._cache.move_to_end(term)
            return self._cache[term]
        rows = sorted(self._read_terms_in_shard(shard, [term]),
                      key=itemgetter(1))          # seg ascending
        return self._store(term, [blocks for _, _, blocks in rows])

    def decoded(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Full decoded (doc_ids, tfs) arrays for a term (LRU-cached)."""
        hit = self._dec_cache.get(term)
        if hit is not None:
            self._dec_cache.move_to_end(term)
            return hit
        lex = self._lex.get(term)
        if lex is None:
            return None
        block_max, block_n, block_base, ids_bufs, tfs_bufs, _, _ = \
            self._fetch_blocks(term, lex[4])
        total = int(block_n.sum())
        if self.codec == "vbyte" and total:
            # one varint pass for the whole term: block gap-bases chain
            # (first gap of a block is relative to the previous block's
            # max), so a global cumsum is correct WITHIN a segment;
            # segment starts (base == 0) re-anchor via subtraction
            from ..codecs.unary import unary_decode_blocks
            from ..codecs.vbyte import vbyte_decode
            gaps = vbyte_decode(b"".join(ids_bufs), total)
            csum = np.cumsum(gaps)
            val_starts = np.cumsum(block_n) - block_n
            seg_start_vals = val_starts[block_base == 0]
            offs = np.where(seg_start_vals > 0,
                            csum[seg_start_vals - 1], 0)
            seg_lens = np.diff(np.append(seg_start_vals, total))
            ids_arr = csum - np.repeat(offs, seg_lens)
            tfs_arr = unary_decode_blocks(tfs_bufs, block_n)
            entry = (ids_arr, tfs_arr)
        else:
            from ..codecs.blocks import decode_block_ids, decode_block_tfs
            ids = [decode_block_ids(ids_bufs[i], self.codec,
                                    int(block_n[i]), int(block_max[i]),
                                    int(block_base[i]))
                   for i in range(len(block_max))]
            tfs = [decode_block_tfs(tfs_bufs[i], self.codec,
                                    int(block_n[i]))
                   for i in range(len(block_max))]
            entry = (np.concatenate(ids) if ids else np.empty(0, np.int64),
                     np.concatenate(tfs) if tfs else np.empty(0, np.int64))
        self._dec_cache[term] = entry
        if len(self._dec_cache) > self._cache_size:
            self._dec_cache.popitem(last=False)
        return entry

    def posting_cursor(self, term: str, standard: str) -> PostingCursor | None:
        lex = self._lex.get(term)
        if lex is None:
            return None  # J1 miss: silently ignored
        df, idf, bm25_ub, tfidf_ub, shard = lex
        ub = bm25_ub if standard == "BM25" else tfidf_ub
        block_max, block_n, block_base, ids_bufs, tfs_bufs, b25c, tfc = \
            self._fetch_blocks(term, shard)
        cores = b25c if standard == "BM25" else tfc
        # per-block score upper bounds (block-max): UB_b = idf * core_b,
        # capped at the term UB for pre-r2 indexes lacking cores
        block_ubs = np.minimum(idf * cores, ub)
        return PostingCursor(term, df, idf, ub, self.codec, block_max,
                             block_n, block_base, ids_bufs, tfs_bufs,
                             block_ubs)

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: True where ids are NOT tombstoned (vectorized
        membership via searchsorted against the sorted tombstone array)."""
        t = self.tombstones
        pos = np.searchsorted(t, ids)
        hit = np.zeros(len(ids), dtype=bool)
        inb = pos < len(t)
        hit[inb] = t[pos[inb]] == ids[inb]
        return ~hit

    def is_alive(self, doc_id: int) -> bool:
        t = self.tombstones
        i = int(np.searchsorted(t, doc_id))
        return not (i < len(t) and t[i] == doc_id)

    def docno(self, doc_id: int) -> str:
        return str(doc_id - 1)  # DocumentIndex.java:82-84


class QueryEngine:
    def __init__(self, index_dir: str, qcfg: QueryConfig | None = None,
                 reader: IndexReader | None = None):
        self.qcfg = qcfg or QueryConfig()
        self.reader = reader or IndexReader(index_dir)
        self._acc = None  # reusable dense score accumulator (TAAT path)
        self._touched = None  # parallel touched mask (candidate set)
        r = self.reader
        if self.qcfg.standard == "BM25":
            self._score_fn = lambda c: bm25_score(
                c.tf(), int(r.doc_len[c.doc_id() - 1]), r.avg_doc_len,
                c.idf, r.k1, r.b)
        else:
            self._score_fn = lambda c: tfidf_score(c.tf(), c.idf)

    def query_terms(self, text: str, sort_terms: bool = False) -> list[str]:
        terms = tokenize_text(text, parse=self.qcfg.parse,
                              squeeze=self.qcfg.squeeze)
        if sort_terms:
            terms = sorted(terms)  # M13 (evaluation mode)
        return terms

    def score_terms(self, terms: list[str],
                    conjunctive: bool | None = None) -> list[tuple[int, float]]:
        conjunctive = self.qcfg.conjunctive if conjunctive is None else conjunctive
        # disjunctive queries take the vectorized term-at-a-time path:
        # exhaustive TAAT returns the same top-k as MaxScore (the pruning
        # is lossless), but NumPy-per-term instead of Python-per-posting.
        # Conjunctive queries keep the faithful MaxScore loop — its
        # non-clean-AND quirks (SURVEY.md §7.4) are sequential semantics.
        algo = getattr(self.qcfg, "algo", "auto")
        if self.qcfg.standard == "QLD":
            if conjunctive:
                raise ValueError("QLD is disjunctive-only (the Dirichlet "
                                 "doc-length term applies to every matched "
                                 "doc; use strict-AND BM25/TFIDF for "
                                 "conjunctive semantics)")
            return self._score_terms_qld(terms)
        # TAAT needs dense O(n_docs) score/touched accumulators per
        # engine — fine up to the dense-doclen ceiling, a non-starter
        # beyond it (the same 8-TB-per-actor problem as the doc-len
        # array); huge indexes take the accumulator-free MaxScore walk
        if (algo not in ("maxscore", "wand", "bmw") and not conjunctive
                and self.reader.n_docs <= DENSE_DOCLEN_MAX_DOCS):
            return self._score_terms_taat(terms)
        self.reader.prefetch(terms)
        cursors = [c for c in
                   (self.reader.posting_cursor(t, self.qcfg.standard)
                    for t in terms) if c is not None]
        if not cursors:
            return []
        alive = (self.reader.is_alive if len(self.reader.tombstones)
                 else None)
        cursors.sort(key=lambda c: c.term_ub)  # O5 (stable, like Arrays.sort)
        if algo in ("wand", "bmw") and not conjunctive:
            # WAND/BMW re-sort by current docId internally; the UB
            # presort fixes the float accumulation order (both score in
            # input-list order, matching MaxScore's canonical order)
            fn = block_max_wand if algo == "bmw" else wand
            return fn(cursors, self.qcfg.k, self._score_fn, alive=alive)
        return max_score(cursors, self.qcfg.k, conjunctive, self._score_fn,
                         alive=alive)

    def _score_terms_taat(self, terms: list[str]) -> list[tuple[int, float]]:
        """Vectorized exhaustive disjunctive scoring (rank-identical to
        MaxScore; duplicate query terms score twice, unknown terms are
        silently ignored, both as in QueryProcessorMain.java:139-154)."""
        r = self.reader
        bm25 = self.qcfg.standard == "BM25"
        # one row-group-pruned, thread-overlapped read per shard for the
        # whole query's cold terms — without this, each cold term paid a
        # SEQUENTIAL shard read inside decoded() (~20 ms each), which was
        # the whole p95 tail of multi-term first-seen queries
        r.prefetch(terms)
        lists = []
        for t in terms:
            lex = r.lexicon_entry(t)
            if lex is None:
                continue
            ids, tfs = r.decoded(t)
            lists.append((ids, tfs, lex[1]))  # idf
        if not lists:
            return []
        if self._acc is None or len(self._acc) < r.n_docs:
            self._acc = np.zeros(r.n_docs, dtype=np.float64)
            self._touched = np.zeros(r.n_docs, dtype=bool)
        scores = self._acc
        touched = self._touched
        for ids, tfs, idf in lists:
            idx = ids - 1
            if bm25:
                contrib = (tfs / (r.k1 * r.bj_at(idx) + tfs)) * idf
            else:
                contrib = (1.0 + np.log10(tfs)) * idf
            scores[idx] += contrib  # ids unique per term -> fancy += is exact
            touched[idx] = True
        # candidate set via the touched mask: one O(n_docs) scan instead
        # of sorting the concatenated id lists (np.unique costs ~150 ms
        # at mega-df query terms; flatnonzero over 1.6M docs is ~2 ms)
        cand_idx = np.flatnonzero(touched)
        sc = scores[cand_idx]
        cand = cand_idx + 1
        # reusable accumulator: zero only the touched slots
        scores[cand_idx] = 0.0
        touched[cand_idx] = False
        if len(r.tombstones):
            keep_alive = r.alive_mask(cand)
            sc, cand = sc[keep_alive], cand[keep_alive]
        k = self.qcfg.k
        if len(cand) > k:
            kth = -np.partition(-sc, k - 1)[k - 1]
            keep = sc >= kth       # includes boundary ties
            sc, cand = sc[keep], cand[keep]
        order = np.lexsort((cand, -sc))[:k]  # score desc, docId asc (O4 ties)
        return [(int(cand[i]), float(sc[i])) for i in order]

    def _score_terms_qld(self, terms: list[str]) -> list[tuple[int, float]]:
        """Query-likelihood ranking with Dirichlet smoothing (Zhai &
        Lafferty, SIGIR'01) — this engine's third standard beyond the
        reference's BM25/TFIDF (Scorer.java:26-43):

            score(q,d) = sum_t ln(1 + tf_td / (mu * cf_t / T))
                         + |q| * ln(mu / (len_d + mu))

        over docs containing >=1 known query term, where cf_t is the
        term's collection frequency (sum of tf over its posting list),
        T the total token count (stats.json total_doc_len), and |q| the
        known-term query length WITH multiplicity (duplicates score
        twice, unknown terms are ignored — the engine's convention).

        Scale: candidate-set-sized memory (the union of the query's
        posting lists — what any disjunctive evaluation holds), no dense
        O(n_docs) accumulator, doc lengths gathered per candidate from
        the dense array or the >2^26-doc mmap of doc_len.i64. Expression
        shapes ((mu*cf)/T association, ln(1+x) not log1p) mirror the SQL
        oracle so round-6 values are hash-stable.
        """
        r = self.reader
        mu = float(self.qcfg.mu)
        r.prefetch(terms)
        total = float(r.stats["total_doc_len"])
        lists = []
        for t in terms:
            if r.lexicon_entry(t) is None:
                continue
            ids, tfs = r.decoded(t)
            cf = float(tfs.sum())
            lists.append((ids, np.log(1.0 + tfs / (mu * cf / total))))
        if not lists:
            return []
        q_known = len(lists)
        cand = np.unique(np.concatenate([ids for ids, _ in lists]))
        acc = np.zeros(len(cand), dtype=np.float64)
        for ids, contrib in lists:
            acc[np.searchsorted(cand, ids)] += contrib
        dl = np.asarray(r.doc_len[cand - 1], dtype=np.float64)
        acc += q_known * np.log(mu / (dl + mu))
        if len(r.tombstones):
            keep = r.alive_mask(cand)
            cand, acc = cand[keep], acc[keep]
        k = self.qcfg.k
        if len(cand) > k:
            kth = -np.partition(-acc, k - 1)[k - 1]
            keep = acc >= kth          # includes boundary ties
            cand, acc = cand[keep], acc[keep]
        order = np.lexsort((cand, -acc))[:k]  # score desc, docId asc
        return [(int(cand[i]), float(acc[i])) for i in order]

    def score_terms_strict_and(self, terms: list[str],
                               exclude_terms: list[str] = (),
                               ) -> list[tuple[int, float]]:
        """CLEAN-AND conjunctive top-k (engine extension; SQL-expressible,
        unlike the reference's MaxScore conjunctive quirks): a doc scores
        iff it contains EVERY distinct known query term; duplicate query
        terms still score twice. Vectorized: sorted-array intersection of
        the decoded id lists, then gathered contribution sums.

        ``exclude_terms`` (boolean NOT, `query/boolean.py`): docs holding
        ANY known excluded term are dropped BEFORE top-k selection
        (after would under-fill k); unknown terms are ignored."""
        r = self.reader
        bm25 = self.qcfg.standard == "BM25"
        # batched cold-term reads (see _score_terms_taat)
        r.prefetch(list(terms) + list(exclude_terms))
        lists = []
        for t in terms:
            lex = r.lexicon_entry(t)
            if lex is None:
                continue  # unknown terms are ignored, as everywhere else
            ids, tfs = r.decoded(t)
            lists.append((ids, tfs, lex[1]))
        if not lists:
            return []
        # intersection over DISTINCT term id-lists (dedupe by identity of
        # the decoded array: duplicate terms share the cached array)
        seen: dict[int, None] = {}
        distinct = []
        for ids, _, _ in lists:
            if id(ids) not in seen:
                seen[id(ids)] = None
                distinct.append(ids)
        inter = distinct[0]
        for ids in distinct[1:]:
            inter = np.intersect1d(inter, ids, assume_unique=True)
            if not len(inter):
                return []
        for t in set(exclude_terms):
            dec = r.decoded(t)
            if dec is None:
                continue
            inter = inter[~np.isin(inter, dec[0], assume_unique=True)]
            if not len(inter):
                return []
        if len(r.tombstones):
            inter = inter[r.alive_mask(inter)]
            if not len(inter):
                return []
        score = np.zeros(len(inter), dtype=np.float64)
        for ids, tfs, idf in lists:
            pos = np.searchsorted(ids, inter)
            tf = tfs[pos]
            if bm25:
                score += (tf / (r.k1 * r.bj_at(inter - 1) + tf)) * idf
            else:
                score += (1.0 + np.log10(tf)) * idf
        k = self.qcfg.k
        if len(inter) > k:
            kth = -np.partition(-score, k - 1)[k - 1]
            keep = score >= kth
            score, inter = score[keep], inter[keep]
        order = np.lexsort((inter, -score))[:k]
        return [(int(inter[i]), float(score[i])) for i in order]

    def query(self, text: str, conjunctive: bool | None = None,
              sort_terms: bool = False) -> list[tuple[str, float]]:
        """Returns [(docno, score)] ranked. A leading '+' marks conjunctive
        (QueryProcessorMain.java:60-61; the '+' itself is stripped as
        punctuation by the tokenizer)."""
        if conjunctive is None and text.strip().startswith("+"):
            conjunctive = True
        res = self.score_terms(self.query_terms(text, sort_terms), conjunctive)
        return [(self.reader.docno(d), s) for d, s in res]


class QueryScorer:
    """Actor for ``map_batches``: loads the index once, scores per batch.

    Input batch columns: ``qid``, ``query`` and optionally ``conjunctive``.
    Output: one row per (query, rank): qid, rank, docno, score, standard.
    """

    def __init__(self, index_dir: str, qcfg: QueryConfig | None = None,
                 sort_terms: bool = True):
        self.qcfg = qcfg or QueryConfig()
        self.engine = QueryEngine(index_dir, self.qcfg)
        self.sort_terms = sort_terms

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docnos, scores = [], [], [], []
        has_conj = "conjunctive" in batch.schema.names
        for i in range(batch.num_rows):
            qid = batch["qid"][i].as_py()
            text = batch["query"][i].as_py()
            conj = bool(batch["conjunctive"][i].as_py()) if has_conj else None
            for rank, (docno, score) in enumerate(
                    self.engine.query(text, conjunctive=conj,
                                      sort_terms=self.sort_terms), start=1):
                qids.append(qid)
                ranks.append(rank)
                docnos.append(docno)
                scores.append(score)
        return pa.table({
            "qid": pa.array(qids),
            "rank": pa.array(ranks, type=pa.int64()),
            "docno": pa.array(docnos, type=pa.string()),
            "score": pa.array(scores, type=pa.float64()),
            "standard": pa.array([self.qcfg.standard] * len(qids)),
        })


def run_queries(queries_ds, index_dir: str, qcfg: QueryConfig | None = None,
                concurrency: int = 4, batch_size: int = 64,
                sort_terms: bool = True):
    """Batch scoring: queries Dataset -> results Dataset via an actor pool."""
    qcfg = qcfg or QueryConfig()
    return queries_ds.map_batches(
        QueryScorer, fn_constructor_args=(index_dir, qcfg, sort_terms),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def write_trec(results: pa.Table, path: str, run_name: str = "STANDARD") -> None:
    """TREC run-file sink (S9): ``qid Q0 docno rank score STANDARD``."""
    with open(path, "w") as f:
        for row in results.to_pylist():
            f.write(f"{row['qid']} Q0 {row['docno']} {row['rank']} "
                    f"{row['score']} {row.get('standard', run_name)}\n")
