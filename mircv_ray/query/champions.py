"""Champion lists (a.k.a. fancy lists / top-docs): for every term, the
m postings with the highest tf — the classic inexact-top-k retrieval
structure (Manning, Raghavan & Schütze, *Introduction to Information
Retrieval* §7.1.3): a query is first evaluated over the union of its
terms' champion lists only, falling back to full postings when the
heap isn't safe. The reference engine has no equivalent (it always
walks full lists, `MaxScore.java`); this is an index-side extension.

Shape: one task per postings shard (``query/dump.py``
``shard_dataset``). A term's whole posting list sits in one shard
directory, so each task decodes its shard and takes every term's top-m
in one pass — no exchange at all.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dump import EMPTY_ROWS, shard_dataset


def _topm_rows(tbl: pa.Table, m: int) -> pa.Table:
    """Keep each term's top-m rows by (tf desc, doc_id asc) — one
    dictionary encode + one composite lexsort + run-length ranks, no
    per-term Python."""
    if tbl.num_rows == 0 or tbl.num_columns == 0:
        return pa.table(EMPTY_ROWS)
    terms = tbl["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    denc = pc.dictionary_encode(terms)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    tf = tbl["tf"].to_numpy()
    did = tbl["doc_id"].to_numpy()
    order = np.lexsort((did, -tf, codes))
    c_sorted = codes[order]
    starts = np.flatnonzero(np.diff(c_sorted, prepend=-1))
    lens = np.diff(np.append(starts, len(order)))
    rank = np.arange(len(order)) - np.repeat(starts, lens)
    keep = order[rank < m]
    keep.sort()  # preserve input order for stable output
    sel = pa.array(keep, type=pa.int64())
    return pa.table({"term": terms.take(sel),
                     "doc_id": tbl["doc_id"].take(sel),
                     "tf": tbl["tf"].take(sel)})


def champion_lists(index_dir: str, m: int = 10, docno_offset: int = -1):
    """Dataset (term, doc_id, tf): each term's m highest-tf postings,
    ties broken by ascending doc_id."""
    if m <= 0:
        raise ValueError("m must be positive")
    return shard_dataset(index_dir, docno_offset,
                         lambda rows: _topm_rows(rows, m))
