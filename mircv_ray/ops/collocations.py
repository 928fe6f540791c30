"""Collocation mining: adjacent-bigram PMI over the corpus.

Classic statistical collocation extraction (Church & Hanks 1990;
Manning & Schütze ch. 5): score every adjacent token pair (a, b) by
pointwise mutual information

    pmi = log10( p(a,b) / (p(a) p(b)) )
        = log10( c_ab * T * T / (B * c_a * c_b) )

with c_ab the corpus bigram count, c_a / c_b unigram counts, T total
tokens, B total bigrams. High PMI = the pair co-occurs far above
chance ("san francisco"); useful for phrase-vocabulary induction and
tokenizer merge candidates in a training-data pipeline.

Tokenization is the alnum splitter shared with ``unigram_logprob``
(``textops._alnum_flat_terms``) so the operator stays exactly
SQL-mirrorable.

Dataflow (one content scan):
- ``map_batches`` tokenizes and emits map-side-combined partial counts
  for unigrams AND bigrams in one tagged stream (unigram rows carry
  ``term_b = ""`` — the splitter never yields an empty token), so the
  corpus is read once and the single full exchange is a counts groupby
  over already-combined (distinct-per-batch) rows.
- ``min_count`` filters the bigram stream BEFORE unigram counts attach
  (the standard collocation cut, and it bounds the join input).
- unigram counts attach to the surviving bigram rows through two
  ``lookup_join``s against the unigram table (c_a by term_a, then c_b
  by term_b): map-only against a broadcast sorted vocabulary when it
  fits the gate, else term-partitioned — nothing vocabulary-sized on
  the driver either way.

The reference engine (DavideBruni/MIRCV_project) has no collocation
op; this extends its text-analysis surface for LLM-data pipelines.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textops import _alnum_flat_terms

_OUT_SCHEMA = pa.schema([
    ("term_a", pa.string()),
    ("term_b", pa.string()),
    ("pair_count", pa.int64()),
    ("pmi", pa.float64()),
])


def _counts_partials(batch: pa.Table, text_col: str) -> pa.Table:
    """Per-batch combined unigram + bigram counts as one tagged table:
    unigram rows have term_b == "" (impossible as a real token)."""
    flat, parent, _ = _alnum_flat_terms(batch, text_col)
    uni = pa.table({"t": flat}).group_by("t").aggregate([([], "count_all")])
    n = len(flat)
    if n > 1:
        adj = pa.array(parent[1:] == parent[:-1])
        a = flat.slice(0, n - 1).filter(adj)
        b = flat.slice(1, n - 1).filter(adj)
    else:
        a = b = flat.slice(0, 0)
    bi = pa.table({"a": a, "b": b}).group_by(["a", "b"]).aggregate(
        [([], "count_all")])
    uni_t = pa.table({
        "term_a": uni["t"],
        "term_b": pa.array([""] * uni.num_rows, type=pa.string()),
        "c": uni["count_all"].cast(pa.int64())})
    bi_t = pa.table({"term_a": bi["a"], "term_b": bi["b"],
                     "c": bi["count_all"].cast(pa.int64())})
    return pa.concat_tables([uni_t, bi_t]).combine_chunks()


def _pmi_table(term_a, term_b, c_ab: np.ndarray, c_a: np.ndarray,
               c_b: np.ndarray, total_uni: float,
               total_bi: float) -> pa.Table:
    # evaluation order matches the SQL oracle: (c_ab*T*T) / (B*c_a*c_b)
    num = c_ab.astype(np.float64) * total_uni * total_uni
    den = total_bi * c_a.astype(np.float64) * c_b.astype(np.float64)
    pmi = np.round(np.log10(num / den), 4)
    return pa.table({"term_a": term_a, "term_b": term_b,
                     "pair_count": pa.array(c_ab, type=pa.int64()),
                     "pmi": pa.array(pmi, type=pa.float64())})


def pmi_collocations(ds, text_col: str = "text", min_count: int = 5):
    """Every adjacent alnum-token bigram with corpus count >=
    ``min_count``, scored by PMI (log10, rounded to 4 decimals).

    Returns a Dataset with columns (term_a, term_b, pair_count, pmi).
    The output is collocation-vocabulary-sized; the corpus content is
    scanned exactly once.
    """
    from ray.data.aggregate import Sum

    from .equijoin import lookup, lookup_join, sorted_keys

    counts = (ds.map_batches(lambda b: _counts_partials(b, text_col),
                             batch_format="pyarrow")
                .groupby(["term_a", "term_b"])
                .aggregate(Sum("c", alias_name="c"))
                .materialize())

    def split(is_uni: bool):
        def f(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.schema([("term_a", pa.string()),
                                  ("term_b", pa.string()),
                                  ("c", pa.int64())]).empty_table()
            mask = pc.equal(t["term_b"], "")
            if not is_uni:
                mask = pc.and_(pc.invert(mask),
                               pc.greater_equal(t["c"], min_count))
            return t.filter(mask)
        return f

    uni_ds = counts.map_batches(split(True), batch_format="pyarrow") \
                   .materialize()
    bi_all = counts.map_batches(split(False), batch_format="pyarrow")
    # totals: T over ALL unigrams, B over ALL bigrams (pre-min_count —
    # p(a,b) is a probability over every adjacent pair, not the kept set)
    total_uni = float(uni_ds.sum("c") or 0)
    total_bi = float(
        counts.map_batches(
            lambda t: pa.table({"c": t.filter(
                pc.invert(pc.equal(t["term_b"], "")))["c"]}),
            batch_format="pyarrow").sum("c") or 0)
    if total_bi == 0:
        # no adjacent pair anywhere — preserve the output schema
        import ray.data as rd
        return rd.from_arrow(_OUT_SCHEMA.empty_table())

    def prepare(t: pa.Table):
        keys, order = sorted_keys(t["term_a"])
        return keys, t["c"].to_numpy()[order].astype(np.int64)

    def attach(key_col: str, out_col: str):
        def apply(t: pa.Table, state) -> pa.Table:
            return t.append_column(out_col, pa.array(
                lookup(*state, t[key_col]), type=pa.int64()))
        return apply

    # every bigram term is by construction also a unigram
    bi = lookup_join(bi_all, uni_ds, "term_a", prepare,
                     attach("term_a", "c_a"))
    bi = lookup_join(bi, uni_ds, "term_b", prepare,
                     attach("term_b", "c_b"), right_on="term_a")

    def score(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        return _pmi_table(t["term_a"], t["term_b"], t["c"].to_numpy(),
                          t["c_a"].to_numpy(), t["c_b"].to_numpy(),
                          total_uni, total_bi)

    return bi.map_batches(score, batch_format="pyarrow")
