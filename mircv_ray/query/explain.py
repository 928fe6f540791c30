"""Score explanation — the "why did this document rank here" surface:
per-term contribution breakdown of a document's BM25 / TFIDF score,
using exactly the engine's per-term expressions (Scorer.java:26-43
semantics: Bj length normalization, log10 idf), so the contributions
SUM to the engine's score bit-exactly (pytest-pinned).

Per (query, doc) the work is one lexicon lookup + one posting-list
binary search per distinct query term — the same footprint as scoring
the document; nothing corpus-sized anywhere. Terms absent from the
document (or unknown to the index) emit no row, matching the SQL
oracle's inner joins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def explain_scores(index_dir: str, term_queries: list[list[str]],
                   doc_ids: list[int], standard: str = "BM25",
                   reader=None) -> pa.Table:
    """One row per (qid, known query term present in the doc):
    (qid, doc_id, term, tf, df, idf, contribution). ``doc_ids[i]`` is
    the ENGINE docId (1-based) to explain for query i; the output
    ``doc_id`` column is the docno (docId - 1). Duplicate query terms
    explain once (their score contribution repeats per duplicate in
    the evaluators; the breakdown row is per distinct term)."""
    if standard not in ("BM25", "TFIDF"):
        raise ValueError("standard must be BM25 or TFIDF")
    if len(term_queries) != len(doc_ids):
        raise ValueError("term_queries and doc_ids lengths differ")
    from .engine import IndexReader
    r = reader or IndexReader(index_dir)
    k1 = r.k1
    cols: dict[str, list] = {c: [] for c in (
        "qid", "doc_id", "term", "tf", "df", "idf", "contribution")}
    for qi, (terms, docid) in enumerate(zip(term_queries, doc_ids)):
        docid = int(docid)
        r.prefetch(list(terms))
        for t in dict.fromkeys(terms):
            lex = r.lexicon_entry(t)
            if lex is None:
                continue
            ids, tfs = r.decoded(t)
            pos = int(np.searchsorted(ids, docid))
            if pos >= len(ids) or int(ids[pos]) != docid:
                continue
            tf = tfs[pos]
            df, idf = int(lex[0]), float(lex[1])
            if standard == "BM25":
                # identical ops to the TAAT evaluator's per-term pass
                bj = r.bj_at(np.array([docid - 1]))[0]
                contrib = float((tf / (k1 * bj + tf)) * idf)
            else:
                contrib = float((1.0 + np.log10(tf)) * idf)
            cols["qid"].append(qi)
            cols["doc_id"].append(docid - 1)
            cols["term"].append(t)
            cols["tf"].append(int(tf))
            cols["df"].append(df)
            cols["idf"].append(idf)
            cols["contribution"].append(contrib)
    return pa.table({
        "qid": pa.array(cols["qid"], type=pa.int64()),
        "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
        "term": pa.array(cols["term"], type=pa.string()),
        "tf": pa.array(cols["tf"], type=pa.int64()),
        "df": pa.array(cols["df"], type=pa.int64()),
        "idf": pa.array(cols["idf"], type=pa.float64()),
        "contribution": pa.array(cols["contribution"],
                                 type=pa.float64()),
    })
