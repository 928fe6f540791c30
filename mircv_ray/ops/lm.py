"""Bigram language-model perplexity scoring — the n=2 step past
``textops.unigram_logprob`` toward the CCNet / Gopher KenLM-style
quality filters (Wenzek et al. 2020 score documents by LM perplexity;
interpolation is the textbook Jelinek-Mercer smoothing).

Model (trained on the corpus itself, like the unigram op): for each
in-document adjacent alnum-token transition (a -> b),

    p(b | a) = lam * c_ab / c_a  +  (1 - lam) * c_b / T

with c_ab the corpus bigram count, c_a / c_b unigram counts, T total
tokens. Per document: n_transitions, sum of log10 p over transitions,
and avg_neg_logprob = -sum/n (HIGH = surprising word order, LOW =
boilerplate). Docs with < 2 tokens score 0/0.0/0.0. Exactly
SQL-mirrorable (same splitter as collocations; evaluation order and
4-decimal rounding pinned to the oracle).

Dataflow (two content scans — one trains, one scores):

1. counts: the collocations partial-combiner emits map-side-combined
   unigram + bigram counts in ONE tagged stream; a single counts
   groupby is the training exchange.
2. score: one ``lookup_join`` of the transitions against the counts
   table on (term_a, term_b): each distinct (doc, a, b) run looks up
   (a, ""), (b, "") and (a, b), and a per-doc finish folds the three
   counts into log p. Map-only against broadcast sorted keys when the
   counts fit the gate (transitions never shuffle); else key-partitioned
   with a doc-partitioned finish — nothing vocabulary-sized on the
   driver or in one heap. Zero-transition docs ride a NULL-key
   sentinel row to the finish.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .collocations import _counts_partials
from .textops import _alnum_flat_terms, _per_doc_sums

_SEP = "\x1f"   # never appears in an alnum token


def _doc_transitions(batch: pa.Table, id_col: str,
                     text_col: str) -> pa.Table:
    """Per-batch map-side-combined transition runs, keyed for one lookup
    against the counts table: run r (one distinct (doc, a, b) with
    multiplicity k) emits roles 0, 1, 2 keyed (a, ""), (b, "") and
    (a, b); each doc also emits one NULL-key k=0 role -1 row so
    zero-transition docs reach the finish."""
    flat, parent, _ = _alnum_flat_terms(batch, text_col)
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    n = len(flat)
    if n > 1:
        adj = pa.array(parent[1:] == parent[:-1])
        a = flat.slice(0, n - 1).filter(adj)
        b = flat.slice(1, n - 1).filter(adj)
        row = parent[:-1][adj.to_numpy(zero_copy_only=False)]
    else:
        a = b = flat.slice(0, 0)
        row = np.zeros(0, dtype=np.int64)
    g = pa.table({"row": pa.array(row, type=pa.int64()), "a": a, "b": b}) \
        .group_by(["row", "a", "b"]).aggregate([([], "count_all")]) \
        .combine_chunks()
    r, m = g.num_rows, len(ids)
    doc = ids.take(g["row"].combine_chunks())
    ga, gb = g["a"].combine_chunks(), g["b"].combine_chunks()
    blank = pa.array([""] * r, type=pa.string())
    k = g["count_all"].combine_chunks().cast(pa.int64())
    return pa.table({
        id_col: pa.concat_arrays([doc, doc, doc, ids]),
        "term_a": pa.concat_arrays([ga, gb, ga, pa.nulls(m, pa.string())]),
        "term_b": pa.concat_arrays([blank, blank, gb,
                                    pa.nulls(m, pa.string())]),
        "k": pa.concat_arrays([k, k, k, pa.array(np.zeros(m, np.int64))]),
        "run": pa.array(np.concatenate([np.tile(np.arange(r), 3),
                                        np.full(m, -1)]).astype(np.int64)),
        "role": pa.array(np.repeat(np.array([0, 1, 2, -1], np.int8),
                                   [r, r, r, m])),
    })


def _logp(c_ab: np.ndarray, c_a: np.ndarray, c_b: np.ndarray,
          total: float, lam: float) -> np.ndarray:
    # evaluation order matches the SQL oracle:
    # lam * (c_ab / c_a) + (1 - lam) * (c_b / T)
    p = (lam * (c_ab.astype(np.float64) / c_a.astype(np.float64))
         + (1.0 - lam) * (c_b.astype(np.float64) / total))
    return np.log10(p)


def _finish(doc_ids, n_trans: np.ndarray, sums: np.ndarray) -> pa.Table:
    avg = np.where(n_trans > 0, -(sums / np.maximum(n_trans, 1)), 0.0)
    return pa.table({
        "doc_id": doc_ids,
        "n_transitions": pa.array(n_trans, type=pa.int64()),
        "sum_log10_p": pa.array(np.round(sums, 4)),
        "avg_neg_logprob": pa.array(np.round(avg, 4)),
    })


def bigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text",
                   lam: float = 0.7):
    """(doc_id, n_transitions, sum_log10_p, avg_neg_logprob) under the
    corpus-trained interpolated bigram LM. See module docstring."""
    from ray.data.aggregate import Sum

    from .equijoin import lookup, lookup_join, sorted_keys

    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam={lam} must be in (0, 1)")

    counts = (ds.map_batches(
                  lambda b: _counts_partials(b, text_col),
                  batch_format="pyarrow")
                .groupby(["term_a", "term_b"])
                .aggregate(Sum("c", alias_name="c"))
                .materialize())

    def unigrams(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"c": pa.array([], type=pa.int64())})
        return t.filter(pc.equal(t["term_b"], "")).select(["c"])

    total = float(counts.map_batches(unigrams, batch_format="pyarrow")
                  .sum("c") or 0)
    if total == 0:
        return ds.select_columns([id_col]).map_batches(
            lambda b: _finish(b[id_col],
                              np.zeros(b.num_rows, dtype=np.int64),
                              np.zeros(b.num_rows)),
            batch_format="pyarrow")

    def pair_key(t: pa.Table):
        return pc.binary_join_element_wise(t["term_a"], t["term_b"], _SEP)

    def prepare(t: pa.Table):
        keys, order = sorted_keys(pair_key(t))
        return keys, t["c"].to_numpy()[order].astype(np.int64)

    def apply(rows: pa.Table, state) -> pa.Table:
        return rows.append_column("c", pa.array(
            lookup(*state, pair_key(rows)), type=pa.int64()))

    def finish(rows: pa.Table) -> pa.Table:
        live = rows.filter(pc.greater_equal(rows["role"], 0))
        # the three role rows of each run sit together, roles in order
        live = live.take(pc.sort_indices(live, sort_keys=[
            (id_col, "ascending"), ("run", "ascending"),
            ("role", "ascending")]))
        c = live["c"].to_numpy().reshape(-1, 3)
        k = live["k"].to_numpy()[::3]
        w = k * _logp(c[:, 2], c[:, 0], c[:, 1], total, lam)
        sent = rows.filter(pc.less(rows["role"], 0))
        ids, (n_trans, sums) = _per_doc_sums(pa.table({
            id_col: pa.concat_arrays([
                sent[id_col].combine_chunks(),
                live[id_col].combine_chunks().take(
                    pa.array(np.arange(0, live.num_rows, 3)))]),
            "k": pa.array(np.concatenate([np.zeros(sent.num_rows), k])),
            "w": pa.array(np.concatenate([np.zeros(sent.num_rows), w])),
        }), id_col, ["k", "w"])
        return _finish(ids, n_trans.astype(np.int64), sums)

    return lookup_join(ds, counts, ["term_a", "term_b"], prepare, apply,
                       explode=lambda b: _doc_transitions(b, id_col,
                                                          text_col),
                       regroup=(id_col, finish))
