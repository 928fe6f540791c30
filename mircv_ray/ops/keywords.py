"""TF-IDF keyword extraction: each document's top-k terms by
tf * log10(N / df) (the classic Salton weighting the reference's
TFIDF scorer uses for queries, here turned inward for per-doc keyword
/ topic tagging — a standard labeling step in training-data curation).

Ties break by term ascending, so the output is bit-deterministic and
exactly SQL-mirrorable (equal doubles on both sides -> equal order).

Scale shape:
- (doc, term, tf) pairs are exact per batch (a document never spans
  batches), so tf needs NO exchange; the only full exchange is the
  df groupby over the already-doc-distinct pairs.
- df attaches to each doc's pairs through one ``lookup_join``: against
  a broadcast sorted vocabulary when it fits the gate, with the per-doc
  top-k INSIDE the same map task (zero additional shuffles); else the
  pairs meet the df table co-partitioned by term and the scored pairs
  take one doc-partitioned exchange for the top-k — nothing
  vocabulary-sized on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .textops import _alnum_flat_terms

_OUT = pa.schema([("doc_id", pa.int64()), ("rank", pa.int64()),
                  ("term", pa.string()), ("tfidf", pa.float64())])


def _pair_table(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(doc_id, term, tf) — exact, one row per (doc, distinct term)."""
    flat, parent, _ = _alnum_flat_terms(batch, text_col)
    if len(flat) == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "term": pa.array([], type=pa.string()),
                         "tf": pa.array([], type=pa.int64())})
    did = batch[id_col].to_numpy()[parent]
    t = pa.table({"doc_id": pa.array(did, type=pa.int64()),
                  "term": flat})
    g = t.group_by(["doc_id", "term"]).aggregate([([], "count_all")])
    return pa.table({"doc_id": g["doc_id"], "term": g["term"],
                     "tf": g["count_all"].cast(pa.int64())})


def _topk_rows(did: np.ndarray, terms: np.ndarray, score: np.ndarray,
               k: int) -> pa.Table:
    """Per-doc top-k by (score desc, term asc); rank 1-based."""
    order = np.lexsort((terms, -score, did))
    d_s, t_s, s_s = did[order], terms[order], score[order]
    starts = np.flatnonzero(np.append(True, d_s[1:] != d_s[:-1]))
    within = np.arange(len(d_s)) - np.repeat(
        starts, np.diff(np.append(starts, len(d_s))))
    keep = within < k
    return pa.table({
        "doc_id": pa.array(d_s[keep], type=pa.int64()),
        "rank": pa.array(within[keep] + 1, type=pa.int64()),
        "term": pa.array(t_s[keep], type=pa.string()),
        "tfidf": pa.array(s_s[keep], type=pa.float64())})


def tfidf_keywords(ds, k: int = 5, id_col: str = "doc_id",
                   text_col: str = "text"):
    """(doc_id, rank, term, tfidf): the top-k tf*log10(N/df) terms per
    document (ties by term asc); docs with no tokens emit nothing."""
    from ray.data.aggregate import Sum

    from .equijoin import lookup, lookup_join, sorted_keys

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    n_docs = ds.count()

    def explode(batch: pa.Table) -> pa.Table:
        return _pair_table(batch, id_col, text_col)

    def df_partials(batch: pa.Table) -> pa.Table:
        return pa.table({"term": batch["term"],
                         "c": pa.array(
                             np.ones(batch.num_rows, dtype=np.int64))})

    df_ds = (ds.map_batches(explode, batch_format="pyarrow")
             .map_batches(df_partials, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("c", alias_name="df"))
             .materialize())

    def prepare(t: pa.Table):
        keys, order = sorted_keys(t["term"])
        return keys, t["df"].to_numpy()[order].astype(np.float64)

    def apply(p: pa.Table, state) -> pa.Table:
        # every term is in the global df table by construction
        df = lookup(*state, p["term"])
        score = p["tf"].to_numpy() * np.log10(n_docs / df)
        return p.append_column("score", pa.array(score, type=pa.float64()))

    def finish(p: pa.Table) -> pa.Table:
        if p.num_rows == 0:
            return _OUT.empty_table()
        return _topk_rows(
            p["doc_id"].to_numpy(),
            p["term"].to_numpy(zero_copy_only=False).astype("U"),
            p["score"].to_numpy(), k)

    return lookup_join(ds, df_ds, "term", prepare, apply, explode=explode,
                       regroup=("doc_id", finish))
