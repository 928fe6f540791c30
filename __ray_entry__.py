"""Driver contract for the graft builder (Ray Data target).

`entry()` runs the flagship pipeline (index build + BM25 top-k over the
sf0.001 corpus). `queries()` exposes one callable per implemented
operator/pipeline (SURVEY.md §2 + the training-data ops); `oracle_sql()`
gives the DuckDB-equivalent SQL for every SQL-expressible one, with
matching column names (driver compares row-count + schema + value hash).

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().

Float policy: every compared float column is rounded to 6 decimals on
both sides (np.log10 and libm log10 differ by 1 ulp on ~10% of inputs);
ranks are never part of compared output, and all orderings tie-break by
id so top-k SETS are deterministic.
"""

from __future__ import annotations

import hashlib
import math
import re
import shutil
import tempfile
from collections import Counter
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count

from mircv_ray import ops
from mircv_ray.build import (build_index, build_positions_index, delete_docs,
                             merge_indexes, positions, prune_index,
                             reshard_index, upsert_docs, vacuum_index)
from mircv_ray.config import IndexConfig, QueryConfig
from mircv_ray.ops.bpe import EOW
from mircv_ray.query import (QueryEngine, bm25f, boolean, champions, dump,
                             explain, facets, federated, feedback, fuzzy,
                             kgram, phrase, snippets)
from mircv_ray.sources import documents_as_corpus, documents_as_corpus_table

_CACHE_ROOT = Path("/tmp/mircv_ray_cache")
_CACHE_VERSION = 4  # bump when corpus mapping / index layout changes

# ---------------------------------------------------------------------------
# SQL building blocks (basic tokenizer: M2-M6 + trim; squeeze off — RE2 has
# no backreferences, see mircv_ray/text/tokenizer.py docstring)
# ---------------------------------------------------------------------------

_TRIM = "e'" + "".join(f"\\x{c:02x}" for c in range(1, 0x21)) + "'"

def _toks_cte_over(docs_sql: str, suffix: str = "") -> str:
    """The basic-tokenizer CTE pair (docs, tok) over an arbitrary
    (doc_id, text) relation — the upsert oracle tokenizes a MODIFIED
    documents view with the identical expression; ``suffix`` renames
    the pair (docs_t/tok_t) so one query can tokenize several FIELD
    views (the BM25F oracle)."""
    return f"""
docs{suffix} AS (
  SELECT doc_id, text FROM ({docs_sql})
  WHERE text IS NOT NULL AND trim(text, {_TRIM}) <> ''
),
tok{suffix} AS (
  SELECT d.doc_id, t.term FROM (
    SELECT doc_id,
      list_filter(
        list_transform(
          list_filter(
            string_split(lower(regexp_replace(regexp_replace(text,
                '<[^>]+>', ' ', 'g'), '[[:punct:]]', ' ', 'g')), ' '),
            x -> x <> '' AND strlen(x) < 64
                 AND NOT regexp_matches(x, '[^\\x00-\\x7F]')),
          x -> trim(x, {_TRIM})),
        x -> x <> '') AS toks
    FROM docs{suffix}) d, UNNEST(d.toks) AS t(term)
)
"""


_TOKS_CTE = _toks_cte_over("SELECT doc_id, text FROM documents")

_BM25_QUERIES: list[list[str]] = [
    ["hash", "join", "table"],
    ["dup"],
    ["spark", "stream", "window"],
    ["the", "a"],
    ["merge", "merge", "sort"],          # duplicate term scores twice
    ["xyznope", "filter"],               # unknown term silently ignored
]


def _values_clause() -> str:
    rows = []
    for qid, terms in enumerate(_BM25_QUERIES):
        rows += [f"({qid}, '{t}')" for t in terms]
    return "q(qid, term) AS (VALUES " + ", ".join(rows) + ")"


def _topk_sql(score_expr: str) -> str:
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({score_expr}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


# wildcard/prefix suite: broad ('s' fans out to many terms), narrow,
# exact-term prefix, no-match
_WILDCARD_QUERIES: list[str] = ["me", "s", "ta", "windo", "zzz"]


def _wildcard_sql() -> str:
    """Same BM25 scoring CTEs as bm25_topk, but q(qid, term) comes from
    expanding each prefix over the corpus's distinct terms via LIKE —
    the SQL mirror of the engine's sorted-lexicon range scan."""
    vals = ", ".join(f"({i}, '{p}')"
                     for i, p in enumerate(_WILDCARD_QUERIES))
    return f"""
WITH {_TOKS_CTE},
p(qid, pref) AS (VALUES {vals}),
q AS (SELECT p.qid, t.term
      FROM p JOIN (SELECT DISTINCT term FROM tok) t
        ON t.term LIKE p.pref || '%'),
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


# infix/suffix wildcard suite (k-gram index path): suffix, contains
# (short pieces: full-vocab verify fallback), multi-star, narrow
# infix, both-anchored, no-match
_INFIX_QUERIES: list[str] = ["*er", "*a*", "s*a*", "*indo*", "st*am",
                             "*zzz*"]


def _infix_sql() -> str:
    """Same BM25 scoring CTEs as bm25_topk, but q(qid, term) comes from
    matching each ``*`` pattern (translated to LIKE) over the corpus's
    distinct terms — the SQL mirror of the engine's k-gram-filtered
    wildcard expansion."""
    vals = ", ".join(f"({i}, '{p.replace('*', '%')}')"
                     for i, p in enumerate(_INFIX_QUERIES))
    return f"""
WITH {_TOKS_CTE},
p(qid, pat) AS (VALUES {vals}),
q AS (SELECT p.qid, t.term
      FROM p JOIN (SELECT DISTINCT term FROM tok) t
        ON t.term LIKE p.pat),
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


# sequence packing: budget/shard picked so the sf0.01 corpus exercises
# multi-doc bins, multi-bin shards AND overflow docs (doc_len > budget)
_PACK_BUDGET = 96
_PACK_SHARD = 64


def _packing_sql() -> str:
    """Recursive-CTE mirror of the greedy next-fit packing rule: rows
    ordered by doc_id within shard; the recursion carries (bin, fill)
    and opens a new bin when the next doc does not fit. Value-equal to
    the searchsorted kernel by construction."""
    return f"""
WITH RECURSIVE {_TOKS_CTE},
dl AS (SELECT d.doc_id, count(t.term) AS doc_len
       FROM docs d LEFT JOIN tok t ON d.doc_id = t.doc_id
       GROUP BY d.doc_id),
seq AS (SELECT doc_id, doc_len, doc_id // {_PACK_SHARD} AS shard,
               row_number() OVER (PARTITION BY doc_id // {_PACK_SHARD}
                                  ORDER BY doc_id) AS rn
        FROM dl),
rec AS (
  SELECT shard, rn, doc_id, doc_len,
         0::BIGINT AS bin, 0::BIGINT AS "offset", doc_len AS fill
  FROM seq WHERE rn = 1
  UNION ALL
  SELECT s.shard, s.rn, s.doc_id, s.doc_len,
         CASE WHEN r.fill + s.doc_len > {_PACK_BUDGET}
              THEN r.bin + 1 ELSE r.bin END,
         CASE WHEN r.fill + s.doc_len > {_PACK_BUDGET}
              THEN 0 ELSE r.fill END,
         CASE WHEN r.fill + s.doc_len > {_PACK_BUDGET}
              THEN s.doc_len ELSE r.fill + s.doc_len END
  FROM rec r JOIN seq s ON s.shard = r.shard AND s.rn = r.rn + 1)
SELECT doc_id, doc_len, shard, bin, "offset",
       doc_len > {_PACK_BUDGET} AS overflow
FROM rec
"""


# fuzzy ("did you mean") suite: deletion typo, substitution typo, a
# TRANSPOSITION (plain Levenshtein distance 2 — must match nothing
# unless some term is truly within 1), a short term with neighbors,
# an exact term, and a no-match
_FUZZY_QUERIES: list[str] = ["mergee", "tablr", "jion", "ro", "kay",
                             "zzzz"]


def _fuzzy_sql() -> str:
    """Same BM25 scoring CTEs as bm25_topk, but q(qid, term) expands
    each query word to the distinct corpus terms within Levenshtein
    distance <= 1 — the SQL mirror of the engine's vectorized
    lexicon-matrix edit-distance filter."""
    vals = ", ".join(f"({i}, '{w}')"
                     for i, w in enumerate(_FUZZY_QUERIES))
    return f"""
WITH {_TOKS_CTE},
p(qid, w) AS (VALUES {vals}),
q AS (SELECT p.qid, t.term
      FROM p JOIN (SELECT DISTINCT term FROM tok) t
        ON levenshtein(t.term, p.w) <= 1),
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


# phrase-query suite: 2-term, 3-term-repeated, 2-term, stopword-ish
# bigram, unknown term (matches nothing), single term (degenerates to tf)
_PHRASE_QUERIES: list[str] = [
    "hash join", "batch batch batch", "merge sort", "the a",
    "xyznope filter", "window",
]


# positional token CTE (positions via DuckDB's zipped unnest) — shared
# by the phrase and proximity oracles
_POS_CTE = f"""
docs AS (
  SELECT doc_id, text FROM documents
  WHERE text IS NOT NULL AND trim(text, {_TRIM}) <> ''
),
tl AS (
  SELECT doc_id,
    list_filter(
      list_transform(
        list_filter(
          string_split(lower(regexp_replace(regexp_replace(text,
              '<[^>]+>', ' ', 'g'), '[[:punct:]]', ' ', 'g')), ' '),
          x -> x <> '' AND strlen(x) < 64
               AND NOT regexp_matches(x, '[^\\x00-\\x7F]')),
        x -> trim(x, {_TRIM})),
      x -> x <> '') AS toks
  FROM docs),
tokp AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(range(1, length(toks) + 1)) AS pos FROM tl)
"""


def _phrase_sql() -> str:
    """Positional oracle for phrase_search: tokens get positions via
    DuckDB's zipped unnest, each phrase is an m-way adjacency self-join
    (p_k.pos = p_0.pos + k), occurrences counted per doc."""
    toks_pos = _POS_CTE
    parts = []
    for qid, phrase in enumerate(_PHRASE_QUERIES):
        terms = [t for t in phrase.split() if t]
        joins = "".join(
            f" JOIN tokp p{k} ON p{k}.doc_id = p0.doc_id"
            f" AND p{k}.pos = p0.pos + {k}" for k in range(1, len(terms)))
        where = " AND ".join(f"p{k}.term = '{t}'"
                             for k, t in enumerate(terms))
        parts.append(
            f"SELECT {qid} AS qid, p0.doc_id, count(*) AS n_occurrences\n"
            f"FROM tokp p0{joins} WHERE {where} GROUP BY p0.doc_id")
    body = "\nUNION ALL\n".join(parts)
    return f"WITH {toks_pos}\n{body}\nORDER BY qid, doc_id"


def _phrase_bm25_sql() -> str:
    """Oracle for phrase_bm25: the phrase oracle's occurrence counts
    played as tf in the BM25 formula, df = docs containing the phrase,
    doc lengths/stats from the same token CTE."""
    parts = []
    for qid, phrase in enumerate(_PHRASE_QUERIES):
        terms = [t for t in phrase.split() if t]
        joins = "".join(
            f" JOIN tokp p{k} ON p{k}.doc_id = p0.doc_id"
            f" AND p{k}.pos = p0.pos + {k}" for k in range(1, len(terms)))
        where = " AND ".join(f"p{k}.term = '{t}'"
                             for k, t in enumerate(terms))
        parts.append(
            f"SELECT {qid} AS qid, p0.doc_id, count(*) AS tf\n"
            f"FROM tokp p0{joins} WHERE {where} GROUP BY p0.doc_id")
    occ = "\nUNION ALL\n".join(parts)
    return f"""
WITH {_POS_CTE},
doclen AS (SELECT doc_id, len(toks) AS dl FROM tl),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT sum(len(toks)) FROM tl)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
occ AS ({occ}),
dfq AS (SELECT qid, count(*) AS df FROM occ GROUP BY qid),
scores AS (
  SELECT o.qid, o.doc_id,
         (o.tf / (1.5*(0.3 + 0.7*(dl.dl / s.avgdl)) + o.tf))
         * log10(s.n / dfq.df) AS score
  FROM occ o
  JOIN doclen dl ON dl.doc_id = o.doc_id
  JOIN dfq ON dfq.qid = o.qid
  CROSS JOIN stats s)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


# proximity suite: 2-term, 3-term, single term (min_span = 1),
# unknown term (matches nothing)
_PROXIMITY_QUERIES: list[str] = [
    "hash join", "merge sort batch", "window", "xyznope filter",
]


def _proximity_sql() -> str:
    """Oracle for proximity_search (minimal cover window): anchors are
    all query-term occurrences; each term's next occurrence >= anchor
    comes from a grouped range join; span = greatest(next_j) - anchor
    + 1, minimized per doc. Inner joins drop docs missing any term."""
    parts = []
    for qid, q in enumerate(_PROXIMITY_QUERIES):
        terms = sorted(set(t for t in q.split() if t))
        in_list = ", ".join(f"'{t}'" for t in terms)
        nexts = "".join(
            f", n{k} AS (SELECT a.doc_id, a.pos, min(p.pos) AS n\n"
            f"  FROM anch a JOIN tokp p ON p.doc_id = a.doc_id\n"
            f"  AND p.pos >= a.pos AND p.term = '{t}'\n"
            f"  GROUP BY a.doc_id, a.pos)"
            for k, t in enumerate(terms))
        joins = "".join(
            f" JOIN n{k} ON n{k}.doc_id = a.doc_id AND n{k}.pos = a.pos"
            for k in range(len(terms)))
        great = ", ".join(f"n{k}.n" for k in range(len(terms)))
        great = f"greatest({great})" if len(terms) > 1 else great
        parts.append(
            f"SELECT {qid} AS qid, doc_id, min(span) AS min_span FROM (\n"
            f"  WITH anch AS (SELECT doc_id, pos FROM tokp\n"
            f"                WHERE term IN ({in_list})){nexts}\n"
            f"  SELECT a.doc_id, {great} - a.pos + 1 AS span\n"
            f"  FROM anch a{joins}) GROUP BY doc_id")
    body = "\nUNION ALL\n".join(parts)
    return ("WITH " + _POS_CTE + "\n" + body + "\nORDER BY qid, doc_id")


# boolean +pos -neg suite: negation prunes, stopword-vs-stopword,
# no negatives, unknown negative (ignored), unknown positive (empty),
# duplicate positive (scores twice)
_BOOL_QUERIES: list[tuple[list[str], list[str]]] = [
    (["merge", "sort"], ["join"]),
    (["the"], ["a"]),
    (["hash"], []),
    (["table"], ["zzznope"]),
    (["zzznope"], ["merge"]),
    (["merge", "merge"], ["key"]),
]


def _boolean_sql() -> str:
    """Oracle for boolean_not: docs holding every distinct KNOWN
    positive term (count == per-query known-positive count) and no
    known negative term, scored over the positive rows (duplicates
    twice), top-10."""
    pv = ", ".join(f"({i}, '{t}')"
                   for i, (ps, _) in enumerate(_BOOL_QUERIES)
                   for t in ps)
    nv = ", ".join(f"({i}, '{t}')"
                   for i, (_, ns) in enumerate(_BOOL_QUERIES)
                   for t in ns)
    return f"""
WITH {_TOKS_CTE},
qp(qid, term) AS (VALUES {pv}),
qn(qid, term) AS (VALUES {nv}),
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
kp AS (SELECT DISTINCT qp.qid, qp.term FROM qp
       JOIN df ON df.term = qp.term),
nk AS (SELECT qid, count(*) AS m FROM kp GROUP BY qid),
cand AS (SELECT kp.qid, tf.doc_id
         FROM kp JOIN tf ON tf.term = kp.term
         JOIN nk ON nk.qid = kp.qid
         GROUP BY kp.qid, tf.doc_id, nk.m
         HAVING count(*) = nk.m),
excl AS (SELECT DISTINCT qn.qid, tf.doc_id FROM qn
         JOIN tf ON tf.term = qn.term),
final AS (SELECT c.qid, c.doc_id FROM cand c
          LEFT JOIN excl e ON e.qid = c.qid AND e.doc_id = c.doc_id
          WHERE e.doc_id IS NULL),
scores AS (
  SELECT f.qid, f.doc_id, sum({_BM25_EXPR}) AS score
  FROM final f
  JOIN qp ON qp.qid = f.qid
  JOIN df ON df.term = qp.term
  JOIN tf ON tf.term = qp.term AND tf.doc_id = f.doc_id
  JOIN doclen dl ON dl.doc_id = f.doc_id
  CROSS JOIN stats s
  GROUP BY f.qid, f.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
"""


def _facet_sql() -> str:
    """Oracle for facet_search: the disjunctive match set (DISTINCT
    docs holding >= 1 query term) joined to the documents table's
    ``lang``, counted per (query, facet value)."""
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
m AS (SELECT DISTINCT q.qid, t.doc_id FROM q
      JOIN tok t ON t.term = q.term)
SELECT m.qid, d.lang AS facet, count(*) AS n_docs
FROM m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY m.qid, d.lang
ORDER BY m.qid, facet
"""


_PRF_K_FB, _PRF_M_EXP, _PRF_DF_CAP = 5, 3, 10


def _prf_sql() -> str:
    """Oracle for bm25_prf: first-pass BM25 top-k_fb per query (the
    bm25_topk CTEs), expansion = top-m_exp terms of the feedback docs
    by (summed tf DESC, term ASC), excluding original terms and terms
    with df * df_cap > N, then a second BM25 pass over original +
    expansion terms (original duplicates still score twice)."""
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores0 AS (
  SELECT q.qid, tf.doc_id, sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
fb AS (SELECT qid, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores0) WHERE rn <= {_PRF_K_FB}),
cand AS (
  SELECT fb.qid, tf.term, sum(tf.tf) AS w
  FROM fb
  JOIN tf ON tf.doc_id = fb.doc_id
  JOIN df ON df.term = tf.term
  CROSS JOIN stats s
  WHERE df.df * {_PRF_DF_CAP} <= s.n
    AND NOT EXISTS (SELECT 1 FROM q
                    WHERE q.qid = fb.qid AND q.term = tf.term)
  GROUP BY fb.qid, tf.term),
exp AS (SELECT qid, term FROM (
  SELECT qid, term,
         row_number() OVER (PARTITION BY qid
                            ORDER BY w DESC, term) AS rn
  FROM cand) WHERE rn <= {_PRF_M_EXP}),
q1 AS (SELECT qid, term FROM q UNION ALL SELECT qid, term FROM exp),
scores1 AS (
  SELECT q1.qid, tf.doc_id, sum({_BM25_EXPR}) AS score
  FROM q1
  JOIN df ON df.term = q1.term
  JOIN tf ON tf.term = q1.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q1.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores1) WHERE rn <= 10
"""


# more-like-this suite: source docs by docno (engine id - 1)
_MLT_DOCNOS = [0, 7, 42]
# df cap disabled for the driver suite (df_cap=1 <=> df <= N, always
# true): the synthetic vocab is 31 hot terms (median df ~390 of 500
# docs, one rare term) so any real cap empties the selection; the
# cap's exclusion behavior is pytest-verified on the fixture corpus
# (tests/test_feedback.py brute_mlt with df_cap=2)
_MLT_M, _MLT_DF_CAP = 5, 1


def _mlt_sql() -> str:
    """Oracle for more_like_this: each source doc's top-m terms by
    (tf DESC, term ASC), df*cap <= N, scored as disjunctive BM25
    top-10 with the source doc excluded."""
    vals = ", ".join(f"({i}, {d})" for i, d in enumerate(_MLT_DOCNOS))
    return f"""
WITH {_TOKS_CTE},
src(qid, doc_id) AS (VALUES {vals}),
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
cand AS (SELECT s.qid, tf.term, tf.tf
         FROM src s
         JOIN tf ON tf.doc_id = s.doc_id
         JOIN df ON df.term = tf.term
         CROSS JOIN stats st
         WHERE df.df * {_MLT_DF_CAP} <= st.n),
q AS (SELECT qid, term FROM (
  SELECT qid, term,
         row_number() OVER (PARTITION BY qid
                            ORDER BY tf DESC, term) AS rn
  FROM cand) WHERE rn <= {_MLT_M}),
scores AS (
  SELECT q.qid, tf.doc_id, sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT sc.qid, sc.doc_id, sc.score,
         row_number() OVER (PARTITION BY sc.qid
                            ORDER BY sc.score DESC, sc.doc_id) AS rn
  FROM scores sc JOIN src ON src.qid = sc.qid
  WHERE sc.doc_id <> src.doc_id) WHERE rn <= 10
"""


_SNIPPET_CTX = 3


def _snippet_sql() -> str:
    """Oracle for snippet_search: the proximity oracle's minimal-cover
    windows, argmin (span, start) per doc via row_number, then the
    window ± ctx context tokens sliced out of the doc's token list
    (DuckDB 1-based inclusive slicing clamps like the engine)."""
    ctx = _SNIPPET_CTX
    parts = []
    for qid, q in enumerate(_PROXIMITY_QUERIES):
        terms = sorted(set(t for t in q.split() if t))
        in_list = ", ".join(f"'{t}'" for t in terms)
        nexts = "".join(
            f", n{k} AS (SELECT a.doc_id, a.pos, min(p.pos) AS n\n"
            f"  FROM anch a JOIN tokp p ON p.doc_id = a.doc_id\n"
            f"  AND p.pos >= a.pos AND p.term = '{t}'\n"
            f"  GROUP BY a.doc_id, a.pos)"
            for k, t in enumerate(terms))
        joins = "".join(
            f" JOIN n{k} ON n{k}.doc_id = a.doc_id AND n{k}.pos = a.pos"
            for k in range(len(terms)))
        great = ", ".join(f"n{k}.n" for k in range(len(terms)))
        great = f"greatest({great})" if len(terms) > 1 else great
        parts.append(
            f"SELECT {qid} AS qid, w.doc_id, w.s AS start_pos,\n"
            f"  w.span AS min_span,\n"
            f"  array_to_string(tl.toks[greatest(1, w.s - {ctx}):"
            f"least(len(tl.toks), w.s + w.span - 1 + {ctx})], ' ')"
            f" AS snippet\n"
            f"FROM (\n"
            f"  WITH anch AS (SELECT doc_id, pos FROM tokp\n"
            f"                WHERE term IN ({in_list})){nexts}\n"
            f"  SELECT doc_id, s, span FROM (\n"
            f"    SELECT a.doc_id, a.pos AS s, {great} - a.pos + 1"
            f" AS span,\n"
            f"           row_number() OVER (PARTITION BY a.doc_id\n"
            f"             ORDER BY {great} - a.pos, a.pos) AS rn\n"
            f"    FROM anch a{joins}) WHERE rn = 1) w\n"
            f"JOIN tl ON tl.doc_id = w.doc_id")
    body = "\nUNION ALL\n".join(parts)
    return ("WITH " + _POS_CTE + "\n" + body + "\nORDER BY qid, doc_id")


def _hybrid_rrf_sql() -> str:
    """RRF fusion of the BM25 top-10 (the bm25_topk oracle's own CTEs)
    with the dense cosine top-10 (query vector for qid q = embedding of
    vec_id q); rrf = sum over sides of 1/(60 + rank)."""
    nq = len(_BM25_QUERIES)
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
sparse AS (SELECT qid, doc_id,
                  row_number() OVER (PARTITION BY qid
                                     ORDER BY score DESC, doc_id) AS rn
           FROM scores),
qv AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e
       FROM embeddings WHERE vec_id < {nq}),
dense AS (SELECT qv.qid, x.vec_id AS doc_id,
                 row_number() OVER (
                   PARTITION BY qv.qid
                   ORDER BY list_cosine_similarity(
                              CAST(x.embedding AS DOUBLE[]), qv.e) DESC,
                            x.vec_id) AS rn
          FROM qv CROSS JOIN embeddings x),
ranked AS (SELECT qid, doc_id, rn FROM sparse WHERE rn <= 10
           UNION ALL
           SELECT qid, doc_id, rn FROM dense WHERE rn <= 10),
fused AS (SELECT qid, doc_id, sum(1.0 / (60 + rn)) AS rrf
          FROM ranked GROUP BY qid, doc_id)
SELECT qid, doc_id, round(rrf, 6) AS rrf FROM (
  SELECT qid, doc_id, rrf,
         row_number() OVER (PARTITION BY qid
                            ORDER BY rrf DESC, doc_id) AS rn2
  FROM fused) WHERE rn2 <= 10
ORDER BY qid, doc_id
"""


def _ltr_sql() -> str:
    """LETOR-style feature table: candidates = BM25 top-10 UNION dense
    cosine top-10 per query; features mirror the engine's scorers
    (bm25/tfidf with the reference formulas, qld with the engine's
    association order, cosine, doc length, distinct matched terms).
    Unmatched-side features COALESCE to 0 like the engine's sentinel."""
    nq = len(_BM25_QUERIES)
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
bm25s AS (
  SELECT q.qid, tf.doc_id, sum({_BM25_EXPR}) AS bm25
  FROM q JOIN df ON df.term = q.term JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
tfidfs AS (
  SELECT q.qid, tf.doc_id, sum({_TFIDF_EXPR}) AS tfidf
  FROM q JOIN df ON df.term = q.term JOIN tf ON tf.term = q.term
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
tot AS (SELECT count(*)::DOUBLE AS t FROM tok),
cf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
qcnt AS (SELECT q.qid, count(*) AS qn
         FROM q JOIN cf ON cf.term = q.term GROUP BY q.qid),
qparts AS (
  SELECT q.qid, tf.doc_id,
         sum(ln(1 + tf.tf / (2000.0 * cf.cf / t.t))) AS part
  FROM q JOIN cf ON cf.term = q.term JOIN tf ON tf.term = q.term
  CROSS JOIN tot t
  GROUP BY q.qid, tf.doc_id),
qlds AS (
  SELECT p.qid, p.doc_id,
         p.part + qc.qn * ln(2000.0 / (dl.dl + 2000.0)) AS qld
  FROM qparts p
  JOIN doclen dl ON dl.doc_id = p.doc_id
  JOIN qcnt qc ON qc.qid = p.qid),
qv AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e
       FROM embeddings WHERE vec_id < {nq}),
cos AS (SELECT qv.qid, x.vec_id AS doc_id,
               list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                      qv.e) AS cosine
        FROM qv CROSS JOIN embeddings x),
sparse_top AS (SELECT qid, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY bm25 DESC, doc_id) AS rn
  FROM bm25s) WHERE rn <= 10),
dense_top AS (SELECT qid, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY cosine DESC, doc_id) AS rn
  FROM cos) WHERE rn <= 10),
cand AS (SELECT DISTINCT qid, doc_id FROM (
  SELECT * FROM sparse_top UNION ALL SELECT * FROM dense_top)),
nmatch AS (
  SELECT q2.qid, tf.doc_id, count(DISTINCT q2.term) AS n_match
  FROM (SELECT DISTINCT qid, term FROM q) q2
  JOIN tf ON tf.term = q2.term
  GROUP BY q2.qid, tf.doc_id)
SELECT c.qid, c.doc_id,
       round(COALESCE(b.bm25, 0), 6) AS bm25,
       round(COALESCE(tt.tfidf, 0), 6) AS tfidf,
       round(COALESCE(ql.qld, 0), 6) AS qld,
       round(cs.cosine, 6) AS cosine,
       dl.dl AS dl,
       COALESCE(nm.n_match, 0) AS n_match
FROM cand c
LEFT JOIN bm25s b ON b.qid = c.qid AND b.doc_id = c.doc_id
LEFT JOIN tfidfs tt ON tt.qid = c.qid AND tt.doc_id = c.doc_id
LEFT JOIN qlds ql ON ql.qid = c.qid AND ql.doc_id = c.doc_id
JOIN cos cs ON cs.qid = c.qid AND cs.doc_id = c.doc_id
JOIN doclen dl ON dl.doc_id = c.doc_id
LEFT JOIN nmatch nm ON nm.qid = c.qid AND nm.doc_id = c.doc_id
ORDER BY c.qid, c.doc_id
"""


def _passage_maxp_sql() -> str:
    """MaxP over the chunk index: the doc_chunks derivation feeds the
    standard tokenizer CTE under a composite chunk key (doc*10^6 +
    chunk — chunk stats, not doc stats: N/avgdl/df are CHUNK-level,
    exactly what the engine's index over the chunk corpus computes),
    BM25 per chunk, max per source doc, top-10 (score desc, doc asc)."""
    toks = _toks_cte_over(
        "SELECT doc_id * 1000000 + chunk_id AS doc_id, text FROM ch")
    return f"""
WITH cd AS (SELECT doc_id,
                   list_filter(regexp_split_to_array(coalesce(text, ''),
                                                     '\\s+'),
                               w -> w <> '') AS toks
            FROM documents),
ch AS (SELECT doc_id, v.s // 25 AS chunk_id,
              array_to_string(toks[v.s + 1 : least(v.s + 40, len(toks))],
                              ' ') AS text
       FROM cd, LATERAL (SELECT unnest(generate_series(
                0, len(toks) - 1, 25)) AS s) v
       WHERE len(toks) > 0),
{toks},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
cscores AS (
  SELECT q.qid, tf.doc_id, sum({_BM25_EXPR}) AS score
  FROM q JOIN df ON df.term = q.term JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
docsc AS (SELECT qid, doc_id // 1000000 AS doc_id, max(score) AS score
          FROM cscores GROUP BY qid, doc_id // 1000000)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM docsc) WHERE rn <= 10
ORDER BY qid, doc_id
"""


def _hybrid_combmnz_sql() -> str:
    """CombMNZ fusion of the same two sides as hybrid_rrf, mirroring
    ops/fusion.py comb_fuse: per (side, query) top-10 lists with scores
    ROUNDED TO 6 (the engine sides round before normalizing), min-max
    normalized ((s-mn)/(mx-mn), 1.0 on a uniform list), fused =
    sum(norm) * count(sides)."""
    nq = len(_BM25_QUERIES)
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
bm25 AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
sparse AS (SELECT qid, doc_id, round(score, 6) AS score,
                  row_number() OVER (PARTITION BY qid
                                     ORDER BY score DESC, doc_id) AS rn
           FROM bm25),
qv AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e
       FROM embeddings WHERE vec_id < {nq}),
cos AS (SELECT qv.qid, x.vec_id AS doc_id,
               list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                      qv.e) AS sim
        FROM qv CROSS JOIN embeddings x),
dense AS (SELECT qid, doc_id, round(sim, 6) AS score,
                 row_number() OVER (PARTITION BY qid
                                    ORDER BY sim DESC, doc_id) AS rn
          FROM cos),
-- min-max over each side's kept (query) top-10 list, then union
normed AS (
  SELECT qid, doc_id,
         CASE WHEN mx > mn THEN (score - mn) / (mx - mn) ELSE 1.0 END AS nrm
  FROM (SELECT qid, doc_id, score,
               max(score) OVER (PARTITION BY qid) AS mx,
               min(score) OVER (PARTITION BY qid) AS mn
        FROM sparse WHERE rn <= 10)
  UNION ALL
  SELECT qid, doc_id,
         CASE WHEN mx > mn THEN (score - mn) / (mx - mn) ELSE 1.0 END AS nrm
  FROM (SELECT qid, doc_id, score,
               max(score) OVER (PARTITION BY qid) AS mx,
               min(score) OVER (PARTITION BY qid) AS mn
        FROM dense WHERE rn <= 10)),
fused AS (SELECT qid, doc_id, sum(nrm) * count(*) AS fused
          FROM normed GROUP BY qid, doc_id)
SELECT qid, doc_id, round(fused, 6) AS fused FROM (
  SELECT qid, doc_id, fused,
         row_number() OVER (PARTITION BY qid
                            ORDER BY fused DESC, doc_id) AS rn2
  FROM fused) WHERE rn2 <= 10
ORDER BY qid, doc_id
"""


def _topk_and_sql(score_expr: str) -> str:
    """Clean-AND conjunctive top-k: a doc qualifies iff it matches every
    LISTED KNOWN query term occurrence (duplicate terms still score
    twice; unknown terms are ignored, matching the engine)."""
    return f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
qk AS (SELECT q.qid, count(*) AS nq FROM q JOIN df ON df.term = q.term
       GROUP BY q.qid),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({score_expr}) AS score,
         count(*) AS nmatch
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT sc.qid, sc.doc_id, sc.score,
         row_number() OVER (PARTITION BY sc.qid
                            ORDER BY sc.score DESC, sc.doc_id) AS rn
  FROM scores sc JOIN qk ON qk.qid = sc.qid
  WHERE sc.nmatch = qk.nq) WHERE rn <= 10
"""


_BM25_EXPR = ("(tf.tf / (1.5*(0.3 + 0.7*(dl.dl / s.avgdl)) + tf.tf)) "
              "* log10(s.n / df.df)")
_TFIDF_EXPR = "(1.0 + log10(tf.tf)) * log10(s.n / df.df)"


# ---------------------------------------------------------------------------
# Ray-side helpers: cached index fixtures, source readers, result tails
# ---------------------------------------------------------------------------

# every cached fixture index uses the basic (SQL-mirrorable) tokenizer
_BASIC_CFG = IndexConfig(parse=False, squeeze=False, codec="vbyte",
                         num_shards=4, salt_buckets=2)


def _cached(spec: str, name: str, make: Callable[[Path], Any],
            marker: str | None = "stats.json") -> str:
    """The cache dir ``{name}_{sha1(spec|version)}`` of one derived
    index. ``make(out)`` builds it unless ``out/marker`` exists; with no
    marker the builder is resumable and always runs."""
    key = hashlib.sha1(f"{spec}|v{_CACHE_VERSION}".encode()).hexdigest()[:12]
    out = _CACHE_ROOT / f"{name}_{key}"
    if marker is None or not (out / marker).exists():
        make(out)
    return str(out)


def _basic_index(sf_dir: str) -> str:
    """Build (once, resumable) the basic-mode index for sf_dir."""
    return _cached(sf_dir, "basic", lambda out: build_index(
        documents_as_corpus(sf_dir), str(out), _BASIC_CFG,
        lineage={"source": f"{sf_dir}/documents.parquet"}), marker=None)


def _title_index(sf_dir: str) -> str:
    """Build (once, resumable) the TITLE-field index: the standard
    builder over the corpus view whose content is each doc's first 40
    characters — the second field of the BM25F entry. A doc whose
    title slice trims blank is simply absent from this index (BM25F
    joins fields by path key, immune to per-field drops)."""
    def to_title(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("content")
        return batch.set_column(
            i, "content", pc.utf8_slice_codeunits(batch["content"], 0, 40))

    return _cached(f"{sf_dir}|title", "title", lambda out: build_index(
        documents_as_corpus(sf_dir).map_batches(to_title,
                                                batch_format="pyarrow"),
        str(out), _BASIC_CFG,
        lineage={"source": f"{sf_dir}/documents.parquet#title40"}),
        marker=None)


def _merged_index(sf_dir: str) -> str:
    """Incremental-index path: build a BASE index over the first half of
    documents (by doc_id == (repo, path) order) and a DELTA index over
    the rest, then merge_indexes them. Append-ordered split, so the
    merged index is bit-identical to the full-corpus build — its
    postings dump shares the full corpus's SQL oracle."""
    def make(out: Path) -> None:
        ids = np.sort(pq.read_table(f"{sf_dir}/documents.parquet",
                                    columns=["doc_id"])["doc_id"].to_numpy())
        cut = int(ids[len(ids) // 2])

        def half(lo: bool):
            def f(batch: pa.Table) -> pa.Table:
                did = pc.cast(pc.utf8_slice_codeunits(batch["path"], 4, 12),
                              pa.int64())
                keep = pc.less(did, cut) if lo else pc.greater_equal(did, cut)
                return batch.filter(keep)
            return documents_as_corpus(sf_dir).map_batches(
                f, batch_format="pyarrow")

        build_index(half(True), str(out) + ".base", _BASIC_CFG)
        build_index(half(False), str(out) + ".delta", _BASIC_CFG)
        merge_indexes(str(out) + ".base", str(out) + ".delta", str(out),
                      _BASIC_CFG)

    return _cached(f"{sf_dir}|merge", "merged", make)


def _upserted_index(sf_dir: str) -> str:
    """Upsert path: replace every doc with original doc_id % 10 == 3 by
    a new version (text + ' upserted edition') via delta build +
    tombstone-carrying merge + logical delete of the superseded base
    rows (build/upsert.py). The dump view (tombstones applied) is
    SQL-mirrorable: unchanged docs keep their docnos, upserted versions
    take post-base docnos in doc_id order."""
    def modified(batch: pa.Table) -> pa.Table:
        did = pc.cast(pc.utf8_slice_codeunits(batch["path"], 4, 12),
                      pa.int64()).to_numpy(zero_copy_only=False)
        keep = pa.array(did % 10 == 3)
        b = batch.filter(keep)
        i = b.schema.get_field_index("content")
        return b.set_column(
            i, "content",
            pc.binary_join_element_wise(
                b["content"], " upserted edition", ""))

    def make(out: Path) -> None:
        delta = documents_as_corpus(sf_dir).map_batches(
            modified, batch_format="pyarrow")
        upsert_docs(_basic_index(sf_dir), delta, str(out), _BASIC_CFG)
        (out / "_UPSERTED").touch()

    return _cached(f"{sf_dir}|upsert", "upserted", make, marker="_UPSERTED")


def _deleted_index(sf_dir: str) -> str:
    """Copy of the basic index with every doc whose ORIGINAL doc_id is a
    multiple of 7 tombstoned (engine docId = original + 1, so the
    tombstone set is SQL-mirrorable as ``doc_id % 7 = 0``)."""
    def make(out: Path) -> None:
        src = _basic_index(sf_dir)
        tmp = Path(str(out) + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(src, tmp)
        orig = pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])["doc_id"].to_numpy()
        delete_docs(str(tmp), orig[orig % 7 == 0] + 1)
        (tmp / "_DELETED").touch()
        tmp.rename(out)

    return _cached(f"{sf_dir}|del", "deleted", make, marker="_DELETED")


def _vacuumed_index(sf_dir: str) -> str:
    return _cached(f"{sf_dir}|vac", "vacuumed", lambda out: vacuum_index(
        _deleted_index(sf_dir), str(out)))


def _resharded_index(sf_dir: str) -> str:
    return _cached(f"{sf_dir}|reshard", "resharded",
                   lambda out: reshard_index(_basic_index(sf_dir), str(out),
                                             num_shards=5, salt_buckets=3))


def _federated_indexes(sf_dir: str) -> list[str]:
    """Build (once, resumable) TWO sub-indexes over a doc_id split of
    the documents corpus — the federated entry's partitioned twin of
    the basic index."""
    tbl = documents_as_corpus_table(sf_dir)
    ids = np.array([int(p[4:12]) for p in tbl["path"].to_pylist()])
    cut = int(np.median(ids))
    return [_cached(f"{sf_dir}|fed{name}", f"fed_{name}",
                    lambda out, mask=mask: build_index(
                        rd.from_arrow(tbl.filter(pa.array(mask))),
                        str(out), _BASIC_CFG))
            for name, mask in (("lo", ids < cut), ("hi", ids >= cut))]


def _positions_index(sf_dir: str) -> str:
    """The basic index plus its positional sidecar (a no-op once built)."""
    idx = _basic_index(sf_dir)
    build_positions_index(idx, documents_as_corpus(sf_dir), _BASIC_CFG)
    return idx


def _round6(tbl: pa.Table, *cols: str) -> pa.Table:
    for col in cols:
        i = tbl.schema.get_field_index(col)
        tbl = tbl.set_column(i, col, pc.round(tbl[col], ndigits=6))
    return tbl


def _read(sf_dir: str, src):
    """A source as a Dataset: a runner's output, or ``src`` = (table,
    *columns) of sf_dir (every column when none are named)."""
    if callable(src):
        return src(sf_dir)
    return rd.read_parquet(f"{sf_dir}/{src[0]}.parquet",
                           columns=list(src[1:]) or None)


def _query_vectors(sf_dir: str, n: int) -> np.ndarray:
    """Query vector q = the embedding of vec_id q, for q < n — the rows
    every dense oracle's query CTE selects."""
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n)])
    t = t.take(pc.sort_indices(t["vec_id"]))
    return np.stack([np.asarray(v) for v in t["embedding"].to_pylist()])


def _sorted_table(ds, keys: list[str]) -> pa.Table:
    """Materialize a (small, aggregate-sized) result Dataset into one Arrow
    table deterministically sorted by ``keys`` — group/pair outputs arrive
    in nondeterministic block order, and the driver's value hash must not
    depend on parallelism. An Arrow table is only sorted."""
    t = ds if isinstance(ds, pa.Table) else pa.concat_tables(
        ray.get(ds.to_arrow_refs()),
        promote_options="default").combine_chunks()
    return t.take(pc.sort_indices(
        t, sort_keys=[(k, "ascending") for k in keys]))


def _qid_rows(t, *round6: str, docno: bool = True) -> pa.Table:
    """The ranked-entry tail: rows sorted by (qid, doc_id), the engine
    docId turned into the docno (engine id - 1 == documents.doc_id)
    unless ``docno=False``, and the ``round6`` columns rounded."""
    t = _sorted_table(t, ["qid", "doc_id"])
    if docno:
        t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id",
                         pc.subtract(t["doc_id"], 1))
    return _round6(t, *round6)


def _non_blank(batch: pa.Table) -> pa.Table:
    t = batch["text"]
    keep = pc.and_(t.is_valid(),
                   pc.greater(pc.binary_length(pc.utf8_trim_whitespace(t)), 0))
    return batch.filter(keep)


def _text_view(*swaps: tuple[str, str]) -> Callable[[pa.Table], pa.Table]:
    """A ``map_batches`` fn giving (doc_id, text), NULL text as '', with
    each (old, new) substring swap applied in order: the deterministic
    multi-line / decomposed views of the single-line synthetic docs."""
    def view(b: pa.Table) -> pa.Table:
        t = pc.fill_null(b["text"], "")
        for old, new in swaps:
            t = pc.replace_substring(t, old, new)
        return pa.table({"doc_id": b["doc_id"], "text": t})
    return view


# ---------------------------------------------------------------------------
# runners: one parameterized body per recurring entry shape; queries()
# binds each to its parameters
# ---------------------------------------------------------------------------

def _src(src, op=None, keys: list[str] | None = None, *, maps=(),
         right=None, round6=(), select: list[str] | None = None, **kw):
    """Source runner: read ``src`` — (table, *columns) of sf_dir, or
    another runner's output — run the batch ``maps``, then ``op(ds,
    **kw)`` (``op(ds, right side, **kw)`` for a two-source op), keep
    the ``select`` columns, round the ``round6`` columns, and sort by
    ``keys`` into one table (no ``keys``: the Dataset itself)."""
    def run(sf_dir: str):
        ds = _read(sf_dir, src)
        for f in maps:
            ds = ds.map_batches(f, batch_format="pyarrow")
        if op is not None:
            ds = (op(ds, **kw) if right is None
                  else op(ds, _read(sf_dir, right), **kw))
        if select is not None:
            ds = ds.select_columns(select)
        if round6:
            ds = ds.map_batches(lambda b: _round6(b, *round6),
                                batch_format="pyarrow")
        return ds if keys is None else _sorted_table(ds, keys)
    return run


_DOCS = ("documents", "doc_id", "text")
_EMB = ("embeddings", "vec_id", "embedding")
_docs_ds, _emb_ds = _src(_DOCS), _src(_EMB)


def _engine_topk(sf_dir: str, standard: str = "BM25", algo: str = "auto",
                 mode: str = "or", prefix: bool = False) -> pa.Table:
    """Engine top-k runner: the top-10 (qid, doc_id = docno, score round
    6) of each _BM25_QUERIES query (each _WILDCARD_QUERIES prefix expanded
    over the lexicon if ``prefix``) over the basic index, scored as OR,
    the reference's MaxScore "and", or a clean AND ("strict")."""
    eng = QueryEngine(_basic_index(sf_dir),
                      QueryConfig(standard=standard, k=10, parse=False,
                                  squeeze=False, algo=algo))
    qs = ((eng.reader.prefix_terms(p) for p in _WILDCARD_QUERIES) if prefix
          else (list(terms) for terms in _BM25_QUERIES))
    qids, dids, scores = [], [], []
    for qid, terms in enumerate(qs):
        top = (eng.score_terms_strict_and(terms) if mode == "strict" else
               eng.score_terms(terms, conjunctive=mode == "and"))
        for doc_id, score in top:
            qids.append(qid)
            dids.append(doc_id - 1)   # docno == original documents.doc_id
            scores.append(round(score, 6))
    return pa.table({"qid": pa.array(qids, type=pa.int64()),
                     "doc_id": pa.array(dids, type=pa.int64()),
                     "score": pa.array(scores, type=pa.float64())})


def _ranked(fn, queries, *round6: str, index=_basic_index,
            corpus: bool = False, **kw):
    """Index-extension runner: ``fn(index(sf_dir)[, corpus], queries,
    **kw)`` with the basic tokenizer, then the ranked-entry tail
    (docno, sort, the ``round6`` columns)."""
    def run(sf_dir: str) -> pa.Table:
        idx = index(sf_dir)
        args = (idx, documents_as_corpus(sf_dir)) if corpus else (idx,)
        out = fn(*args, queries, parse=False, squeeze=False, **kw)
        if isinstance(out, tuple):        # (results, per-query expansion)
            out = out[0]
        return _qid_rows(out, *round6)
    return run


def _vec(op, keys: list[str] | None = None, **kw):
    """Dense runner: ``op(embeddings, query vectors of vec_id 0..2,
    **kw)``, sorted by ``keys`` if given, its score column round 6."""
    def run(sf_dir: str):
        out = op(_emb_ds(sf_dir), _query_vectors(sf_dir, 3), **kw)
        if keys is not None:
            out = _sorted_table(out, keys)
        if isinstance(out, pa.Table):
            return _round6(out, "score")
        return out.map_batches(lambda b: _round6(b, "score"),
                               batch_format="pyarrow")
    return run


def _dump(index, tombstones: bool = False):
    """Postings-dump runner over one cached index (docnos)."""
    return lambda sf_dir: dump.dump_postings(
        index(sf_dir), docno_offset=-1, apply_tombstones=tombstones)


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: parsed BM25 index build + actor-pool query batch on
    sf0.001. Returns the ranked results Dataset."""
    import ray.data as rd
    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig, QueryConfig
    from mircv_ray.query import run_queries
    from mircv_ray.sources import documents_as_corpus
    sf_dir = "/root/testdata/sf0.001"
    out = _CACHE_ROOT / "flagship_sf0001"
    cfg = IndexConfig(parse=True, codec="vbyte", num_shards=4, salt_buckets=2)
    build_index(documents_as_corpus(sf_dir), str(out), cfg,
                lineage={"source": f"{sf_dir}/documents.parquet"})
    qds = rd.from_items([
        {"qid": 0, "query": "hash join table"},
        {"qid": 1, "query": "spark stream window"},
        {"qid": 2, "query": "+merge sort batch"},
    ])
    return run_queries(qds, str(out),
                       QueryConfig(standard="BM25", k=10, parse=True),
                       concurrency=2)


# verbatim-decontamination probe suite (stands in for a benchmark test
# set; letters/spaces only so the strings inline into the oracle SQL
# unescaped) — the last probe never occurs, pinning the zero case
_PROBES = ["hash scan join", "batch batch batch", "spark window",
           "sort table scan", "quantum zebra lattice"]


# ---------------------------------------------------------------------------
# entries with a one-off pipeline or an in-entry self-validation, and the
# runners they build on or validate against
# ---------------------------------------------------------------------------

_DOCS_LANG = ("documents", "doc_id", "lang", "text")
_DOCS_SOURCE = ("documents", "doc_id", "text", "source")
_ORDERS = ("orders", "o_orderkey", "o_custkey", "o_totalprice")
_EV_PURCH = ("events", "event_id", "user_id", "event_type", "value")
_EV_ASOF = ("events", "event_id", "user_id", "ts", "event_type", "value")
_EV_WIN = ("events", "ts", "event_type", "value")
_EV_RUN = ("events", "event_id", "ts", "user_id", "value")
_EV_SESS = ("events", "user_id", "ts", "event_id", "value")
_EV_FUNNEL = ("events", "user_id", "ts", "event_type")
_EV_TYPE_USER = ("events", "event_type", "user_id")
_EV_TYPE_VALUE = ("events", "event_type", "value")
_QUARTILES = {"p25": 0.25, "p50": 0.5, "p75": 0.75, "p95": 0.95}
_FUNNEL = ["signup", "click", "purchase"]

_DOC_LENGTHS = _src(_DOCS, maps=(_non_blank, ops.basic_token_stats))
_ENTROPY = _src(_DOCS, maps=(ops.char_entropy,),
                select=["doc_id", "char_entropy"])
# DSIR importance weights (arXiv:2302.03169) toward lang='en',
# UNHASHED feature space — the exact twin, SQL-mirrorable
_DSIR_EXACT = _src(_DOCS_LANG, ops.dsir_weights, ["doc_id"],
                   target_col="lang", target_value="en")
# exact cosine kNN graph (tiled block-nested-loop, per-tile
# partial top-k both directions, per-src merge) — the ground
# truth the LSH graph is recall-validated against
_KNN_EXACT = _src(_EMB, ops.knn_graph, ["src", "dst"], round6=("cosine",),
                  k=5)
# prefix-filtered EXACT set-similarity join (recall 1, no LSH) —
# unlike minhash_pairs/ngram_jaccard this one is fully
# SQL-expressible, closing the near-dup axis's oracle gap
_JACCARD_EXACT = _src(_DOCS, ops.jaccard_simjoin_exact, ["a", "b"],
                      round6=("jaccard",), threshold=0.5)
# document pairs sharing any 30-char window — substring-level
# dedup (Lee et al., ACL 2022) on the all-windows exact path:
# windows pair by BYTES, so the result is SQL-mirrorable
# gram-for-gram (substr + generate_series on the oracle side)
_SUBSTRING_EXACT = _src(_DOCS, ops.shared_ngram_pairs, ["a", "b"], n=30)
# SemDeDup with n_clusters=1 IS the exact global rule: drop every
# vector that has an EARLIER (smaller-id) vector at cosine >= 0.3
# (same value-gap threshold as embedding_near_dups_exact) —
# min-id dominance, exactly SQL-expressible
_SEMDEDUP_EXACT = _src(_EMB, ops.semantic_dedup, ["vec_id"],
                       select=["vec_id", "keep"], n_clusters=1,
                       threshold=0.3)
# exact per-type COUNT(DISTINCT user): only unique pairs shuffle
_DISTINCT_USERS = _src(_EV_TYPE_USER, ops.exact_distinct_per_group,
                       ["event_type"], group_col="event_type",
                       value_col="user_id", alias="n_users")


def _doc_stats(sf_dir: str) -> pa.Table:
    ds = _DOC_LENGTHS(sf_dir)
    return pa.table({"n_docs": pa.array([ds.count()], type=pa.int64()),
                     "total_tokens": pa.array([ds.sum("doc_len")],
                                              type=pa.int64())})


def _lexicon(sf_dir: str, *cols: str) -> pa.Table:
    return pq.read_table(f"{_basic_index(sf_dir)}/lexicon",
                         columns=list(cols))


def _top_terms(sf_dir: str) -> pa.Table:
    t = _lexicon(sf_dir, "term", "df")
    order = pc.sort_indices(t, sort_keys=[("df", "descending"),
                                          ("term", "ascending")])
    return t.take(order[:50])


def _pruned_postings(sf_dir: str) -> pa.Table:
    # static index pruning (Carmel et al. SIGIR'01, uniform top-k):
    # the pruned index's ENTIRE posting store must equal per-term
    # top-5 of the full postings — and it is a fully functional
    # standard index (engine-queryable, recomputed df/UBs,
    # unchanged doc lengths), pytest-pinned
    out = tempfile.mkdtemp(prefix="pruned_idx_")
    try:
        prune_index(_basic_index(sf_dir), out, keep_per_term=5)
        return _sorted_table(dump.dump_postings(out, docno_offset=-1),
                             ["term", "doc_id"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _score_explain(sf_dir: str) -> pa.Table:
    # per-term contribution breakdown of each query's TOP-1 BM25
    # doc — the "why did this doc rank here" debugging surface;
    # contributions use the engine's exact expressions, so they
    # sum to the engine score (pytest-pinned)
    idx = _basic_index(sf_dir)
    eng = QueryEngine(idx, QueryConfig(standard="BM25", k=1,
                                       parse=False, squeeze=False))
    qs = [list(terms) for terms in _BM25_QUERIES]
    tops = [eng.score_terms(list(q), conjunctive=False) for q in qs]
    docs = [top[0][0] if top else 1 << 60 for top in tops]  # 1<<60: no doc
    t = explain.explain_scores(idx, qs, docs, reader=eng.reader)
    return _sorted_table(_round6(t, "idf", "contribution"),
                         ["qid", "term"])


def _hybrid(fuse, col: str, round_dense: bool = False, **kw):
    """Hybrid runner: ``fuse`` of the engine's BM25 top-10 and the dense
    cosine top-10; the fused ``col`` round 6, sorted by (qid, doc_id)."""
    def run(sf_dir: str) -> pa.Table:
        dense = _sorted_table(ops.cosine_topk(
            _emb_ds(sf_dir), _query_vectors(sf_dir, len(_BM25_QUERIES)),
            k=10), ["query_id", "vec_id"])
        dense = dense.rename_columns(["qid", "doc_id", "score"])
        if round_dense:
            dense = _round6(dense, "score")
        fused = fuse([_engine_topk(sf_dir), dense], k=10, **kw)
        return _qid_rows(fused, col, docno=False)
    return run


def _passage_maxp(sf_dir: str) -> pa.Table:
    # MaxP passage retrieval (Dai & Callan SIGIR'19): BM25 over the
    # chunk-level index, document score = max over its chunks
    out = _cached(f"{sf_dir}|passage", "passage",
                  lambda out: ops.build_passage_index(
                      _docs_ds(sf_dir), str(out), size=40, stride=25),
                  marker=None)
    t = ops.passage_topk_maxp(out, [list(q) for q in _BM25_QUERIES], k=10)
    return _qid_rows(t, "score", docno=False)


def _ltr_features(sf_dir: str) -> pa.Table:
    # learning-to-rank feature table (LETOR-style export): one row
    # per (query, candidate) with bm25/tfidf/qld/cosine/dl/n_match;
    # candidates = sparse BM25 top-10 UNION dense cosine top-10
    t = ops.ltr_features(_basic_index(sf_dir), _emb_ds(sf_dir),
                         [list(q) for q in _BM25_QUERIES],
                         _query_vectors(sf_dir, len(_BM25_QUERIES)), k=10)
    return _qid_rows(t, "bm25", "tfidf", "qld", "cosine", docno=False)


def _snippet_search(sf_dir: str) -> pa.Table:
    # keyword-in-context snippets: the proximity queries' BEST
    # minimal-cover window per doc (argmin span, then start) ± 3
    # context tokens, sliced from content in one candidate-only
    # scan. start_pos reported 1-based to match the SQL slicing.
    out = snippets.snippet_extract(
        _positions_index(sf_dir), documents_as_corpus(sf_dir),
        _PROXIMITY_QUERIES, ctx=_SNIPPET_CTX, parse=False, squeeze=False)
    t = _qid_rows(out)
    t = t.set_column(t.schema.get_field_index("start"), "start",
                     pc.add(t["start"], 1))
    return t.rename_columns(
        ["qid", "doc_id", "start_pos", "min_span", "snippet"])


def _dsir_weights_hashed(sf_dir: str) -> pa.Table:
    # the paper's production shape: crc32-hashed feature buckets
    # bound the model at `buckets` floats regardless of corpus
    # size. Bucketing is not SQL-expressible (no crc32 in DuckDB)
    # -> rows-only, but SELF-VALIDATING in-entry: the hashed
    # weights must rank-correlate with the exact twin (hash
    # collisions only blur, never invert, a clear en/non-en split)
    hashed = _sorted_table(ops.dsir_weights(
        _read(sf_dir, _DOCS_LANG), "lang", "en", buckets=4096), ["doc_id"])
    exact = _DSIR_EXACT(sf_dir)
    a = np.asarray(hashed["log_weight"].to_pylist())
    b = np.asarray(exact["log_weight"].to_pylist())
    if len(a) > 2 and float(np.std(a)) > 0 and float(np.std(b)) > 0:
        ra = np.argsort(np.argsort(a)).astype(np.float64)
        rb = np.argsort(np.argsort(b)).astype(np.float64)
        rho = float(np.corrcoef(ra, rb)[0, 1])
        if rho < 0.9:
            raise AssertionError(
                f"hashed-DSIR rank correlation {rho:.3f} < 0.9 "
                "vs the exact feature space")
    return hashed


def _bpe_merge_pair(syms: list[str], a: str, b: str) -> list[str]:
    """One pure-Python Sennrich merge of every adjacent (a, b)."""
    out, i = [], 0
    while i < len(syms):
        if i < len(syms) - 1 and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _bpe_merges(sf_dir: str) -> pa.Table:
    # distributed BPE vocabulary training (Sennrich ACL'16): the
    # word vocab stays a sharded Dataset, each merge round is one
    # streaming pass + one pair-count groupby, the driver sees one
    # row per block per round. Iterative argmax is not
    # SQL-expressible -> rows-only, but SELF-VALIDATING in-entry:
    # the merge list must EXACTLY equal a pure-Python Sennrich
    # reference run over the same texts (counts included).
    got = ops.bpe_train(_docs_ds(sf_dir), n_merges=25, min_count=2)
    texts = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    words = Counter(w for t in texts if t
                    for w in re.findall(r"[a-z0-9]+", t.lower()))
    vocab = {w: (list(w[:-1]) + [w[-1] + EOW], c)
             for w, c in words.items()}
    ref = []
    for _ in range(25):
        pairs: Counter = Counter()
        for syms, c in vocab.values():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += c
        if not pairs or max(pairs.values()) < 2:
            break
        mx = max(pairs.values())
        a, b = min(p for p, c in pairs.items() if c == mx)
        ref.append((a, b, mx))
        vocab = {w: (_bpe_merge_pair(syms, a, b), c)
                 for w, (syms, c) in vocab.items()}
    mine = list(zip(got["left"].to_pylist(), got["right"].to_pylist(),
                    got["count"].to_pylist()))
    if mine != ref:
        raise AssertionError(
            f"BPE merge list diverges from the Sennrich reference: "
            f"{mine[:3]}... vs {ref[:3]}...")
    return got


def _bpe_token_counts(sf_dir: str) -> pa.Table:
    # per-doc BPE token counts under the trained merges (map-only
    # encode; batch-distinct words through the vectorized merge
    # kernel). Rows-only but SELF-VALIDATING: every count must
    # equal the pure-Python encode of the same text.
    merges = ops.bpe_train(_docs_ds(sf_dir), n_merges=25, min_count=2)
    out = _sorted_table(
        ops.bpe_encode_counts(_docs_ds(sf_dir), merges), ["doc_id"])
    pairs = list(zip(merges["left"].to_pylist(),
                     merges["right"].to_pylist()))
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ref = {}
    for did, t in zip(docs["doc_id"].to_pylist(),
                      docs["text"].to_pylist()):
        n = 0
        for w in re.findall(r"[a-z0-9]+", (t or "").lower()):
            syms = list(w[:-1]) + [w[-1] + EOW]
            for a, b in pairs:
                syms = _bpe_merge_pair(syms, a, b)
            n += len(syms)
        ref[did] = n
    for did, n in zip(out["doc_id"].to_pylist(),
                      out["n_bpe_tokens"].to_pylist()):
        if ref.get(did) != n:
            raise AssertionError(
                f"BPE encode count mismatch doc {did}: {n} != "
                f"{ref.get(did)}")
    return out


def _bm25f_topk(sf_dir: str) -> pa.Table:
    # BM25F (Robertson et al. CIKM'04): body field = text, title
    # field = first-40-chars view, each a STANDARD index; per-field
    # tf/length-normalization combined before saturation, df = docs
    # containing the term in ANY field. weights body 1.0 / title
    # 2.0, b 0.75 / 0.5, k1 1.5.
    body, title = _basic_index(sf_dir), _title_index(sf_dir)
    res = bm25f.bm25f_topk([(body, 1.0, 0.75), (title, 2.0, 0.5)],
                           list(enumerate(_BM25_QUERIES)), k1=1.5, k=10)
    return pa.table({
        "qid": pa.array([q for q, _, _ in res], type=pa.int64()),
        "doc_id": pa.array([int(p[4:12]) for _, p, _ in res],
                           type=pa.int64()),
        "score": pa.array([round(s, 6) for _, _, s in res],
                          type=pa.float64())})


def _knn_graph_approx(sf_dir: str) -> pa.Table:
    # LSH-bucketed kNN graph (the 10^12-row path: only same-band
    # pairs are scored). Approximate by construction -> rows-only at
    # the driver, but SELF-VALIDATING in-entry: edge recall vs the
    # exact graph is asserted, and every emitted cosine is exact
    approx = _sorted_table(
        ops.knn_graph_lsh(_emb_ds(sf_dir), k=5, bands=16).map_batches(
            lambda b: _round6(b, "cosine"), batch_format="pyarrow"),
        ["src", "dst"])
    exact = _KNN_EXACT(sf_dir)
    def edge_set(t):
        return set(zip(t["src"].to_pylist(), t["dst"].to_pylist()))
    want, have = edge_set(exact), edge_set(approx)
    recall = len(want & have) / max(len(want), 1)
    if recall < 0.35:
        raise AssertionError(
            f"LSH kNN edge recall {recall:.2f} < 0.35 vs exact "
            "(iid-random embeddings are the LSH worst case; real "
            "clustered corpora sit far higher)")
    return approx


def _ivf_topk(ds, qvecs: np.ndarray, **kw):
    cents = ops.ivf_build_centroids(ds, n_clusters=8, iters=5)
    return ops.ivf_cosine_topk(ds, qvecs, cents, **kw)


def _ann_cosine_topk_pq(sf_dir: str) -> pa.Table:
    # PQ ADC scan (8 bytes/vector) + exact re-rank of the
    # oversampled candidates — approximate by construction, so
    # rows-only at the driver; recall vs the exact scan is pinned
    # in pytest on clustered data
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    qvecs = _query_vectors(sf_dir, 3)
    ds = _emb_ds(sf_dir)
    books = ops.pq_train(ds, m=8, k=64, iters=5)
    codes = ops.pq_encode(ds, books).materialize()
    out = ops.pq_cosine_topk_rerank(ds, codes, books, qvecs, k=10)
    out = out.map_batches(lambda b: _round6(b, "score"),
                          batch_format="pyarrow")
    got = _sorted_table(out, ["query_id", "vec_id"])
    # SELF-VALIDATING in-entry (ADC scan is approximate, so
    # rows-only at the driver): per-query recall@10 vs the exact
    # brute-force cosine top-10 must be >= 0.9 — the
    # tests/test_round3_ops.py bound on clustered data
    base = np.array(emb["embedding"].to_pylist())
    ids = emb["vec_id"].to_numpy()
    unit = base / np.linalg.norm(base, axis=1, keepdims=True)
    qunit = qvecs / np.linalg.norm(qvecs, axis=1, keepdims=True)
    sims = qunit @ unit.T
    pos = {int(v): i for i, v in enumerate(ids)}
    for qi in range(len(qvecs)):
        # exact top-10 by (cosine DESC, vec_id ASC)
        order = np.lexsort((ids, -sims[qi]))[:10]
        want = set(ids[order].tolist())
        mask = np.asarray(got["query_id"]) == qi
        have_ids = np.asarray(got["vec_id"])[mask]
        recall = len(want & set(have_ids.tolist())) / len(want)
        if recall < 0.9:
            raise AssertionError(
                f"PQ+rerank recall@10 {recall:.2f} < 0.9 for "
                f"query {qi}")
        # the rerank rescores candidates with FULL vectors, so every
        # reported score must equal the recomputed exact cosine
        ref = np.round(sims[qi][[pos[int(v)] for v in have_ids]], 6)
        rep = np.asarray(got["score"])[mask]
        if not np.allclose(rep, ref, atol=2e-6):
            raise AssertionError(
                f"PQ rerank scores diverge from exact cosines for "
                f"query {qi}")
    return got


def _first_docs(sf_dir: str, n: int = 3) -> pa.Table:
    """(doc_id, text) of the n lowest-id documents."""
    return pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).sort_by("doc_id") \
        .slice(0, n)


def _contamination_ngram(sf_dir: str) -> pa.Table:
    # n-gram-overlap decontamination (GPT-3 appendix-C rule) with a
    # Bloom prefilter; result is EXACT (the bloom only prefilters),
    # so it is SQL-oracle-gated. Probes = the 40-char prefixes of
    # the 3 lowest-id documents (guaranteed hits, derived
    # identically in SQL) + one alien string (pins the zero case).
    probes = [t[:40] for t in _first_docs(sf_dir)["text"].to_pylist()]
    probes.append("quantumzebralatticequantumzebralattice")
    return _sorted_table(ops.contamination_ngram(_docs_ds(sf_dir), probes,
                                                 n=20), ["doc_id"])


def _contamination_fuzzy(sf_dir: str) -> pa.Table:
    # probes = three real document texts -> guaranteed jaccard-1.0
    # hits; LSH-banded so intentionally no SQL oracle (rows check)
    probe_rows = _first_docs(sf_dir)
    got = _sorted_table(
        ops.contamination_fuzzy(_docs_ds(sf_dir),
                                probe_rows["text"].to_pylist(),
                                threshold=0.8), ["doc_id", "probe_idx"])
    # SELF-VALIDATING in-entry (LSH-banded fuzzy match is
    # probabilistic, so rows-only at the driver): each probe IS a
    # corpus document, a guaranteed jaccard-1.0 hit — probe i must
    # flag its own source doc
    have = set(zip(got["doc_id"].to_pylist(),
                   got["probe_idx"].to_pylist()))
    missing = [(int(d), i) for i, d in
               enumerate(probe_rows["doc_id"].to_pylist())
               if (int(d), i) not in have]
    if missing:
        raise AssertionError(
            f"fuzzy decontamination missed its guaranteed "
            f"jaccard-1.0 (doc, probe) hits: {missing}")
    return got


def _pii_preamble(batch: pa.Table) -> pa.Table:
    # the synthetic corpus has no organic PII, so each doc gets a
    # deterministic preamble (email from `source`, IP and phone from
    # `doc_id`) built IDENTICALLY in SQL from the same view columns —
    # the redaction kernels then have real work on both sides
    did = batch["doc_id"].to_numpy()
    o1 = pc.cast(pa.array(did % 256), pa.string())
    o2 = pc.cast(pa.array((did * 7) % 256), pa.string())
    ph = pc.utf8_lpad(pc.cast(pa.array(did % 10000), pa.string()), 4, "0")
    t = pc.binary_join_element_wise(
        "contact ", batch["source"], "@example.com from 10.0.",
        o1, ".", o2, " call 555-123-", ph, " ", batch["text"], "")
    return pa.table({"doc_id": batch["doc_id"], "text": t})


def _substring_dup_winnow(sf_dir: str) -> pa.Table:
    # winnowing fingerprints (Schleimer et al. SIGMOD'03; n=21,
    # w=10): ~5x fewer rows shuffle, with a HARD guarantee — any
    # shared substring of length >= n+w-1 = 30 selects the same
    # window in both docs. Pairs depend on which windows winnowing
    # samples (not SQL-expressible), so the entry is rows-only to
    # the driver but SELF-VALIDATING in-entry: the guarantee is
    # recall 1 vs the exact 30-gram twin, asserted here.
    win = _sorted_table(
        ops.shared_ngram_pairs(_docs_ds(sf_dir), n=21, winnow_w=10),
        ["a", "b"])
    exact = _SUBSTRING_EXACT(sf_dir)
    want = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    got = set(zip(win["a"].to_pylist(), win["b"].to_pylist()))
    if want - got:
        raise AssertionError(
            f"winnowing missed {len(want - got)} exact-30-gram "
            "pair(s) — violates the n+w-1 recall guarantee")
    return win


def _semantic_dedup_clustered(sf_dir: str) -> pa.Table:
    # production path (SemDeDup, arXiv:2303.09540): full-data Lloyd
    # k-means bounds the candidate sets; only same-cluster pairs are
    # compared. Which global near-dups stay visible depends on the
    # learned partition (not SQL-expressible) -> rows-only, but
    # SELF-VALIDATING in-entry: precision 1.0 vs the exact global
    # rule is asserted (every clustered drop is a true near-dup)
    clustered = _sorted_table(
        ops.semantic_dedup(_emb_ds(sf_dir), n_clusters=8, threshold=0.3,
                           iters=4, seed=42), ["vec_id"])
    exact = _SEMDEDUP_EXACT(sf_dir)
    exact_drop = {v for v, k in zip(exact["vec_id"].to_pylist(),
                                    exact["keep"].to_pylist()) if not k}
    clus_drop = {v for v, k in zip(clustered["vec_id"].to_pylist(),
                                   clustered["keep"].to_pylist())
                 if not k}
    if not clus_drop <= exact_drop:
        raise AssertionError(
            f"semantic_dedup precision violated: "
            f"{len(clus_drop - exact_drop)} clustered drop(s) are "
            "not global near-dups")
    return clustered


def _corpus_diff(sf_dir: str) -> pa.Table:
    # incremental-crawl anti-join: current crawl = documents,
    # previous crawl = the doc_id % 3 != 0 view; new docs = rows
    # whose exact text bytes the previous crawl did not have
    # (a dropped doc whose text survives at another id is NOT new)
    def prev_view(b: pa.Table) -> pa.Table:
        keep = b["doc_id"].to_numpy(zero_copy_only=False) % 3 != 0
        return b.filter(pa.array(keep))

    prev = _docs_ds(sf_dir).map_batches(prev_view, batch_format="pyarrow")
    # project inside a map (not select_columns: a Project op after a
    # map_groups was observed to be dropped once under plan
    # optimization; an explicit batch projection cannot be elided)
    out = ops.corpus_diff(_docs_ds(sf_dir), prev).map_batches(
        lambda b: b.select(["doc_id"]) if b.num_columns else b,
        batch_format="pyarrow")
    return _sorted_table(out, ["doc_id"])


def _doc_graph(sf_dir: str):
    """The synthetic doc graph shared by pagerank_docs, hits_docs and
    seed_distance: docs not divisible by 10 emit two knuth-hash
    out-edges. Returns (the doc_id Dataset, the edge Dataset)."""
    ds = _read(sf_dir, ("documents", "doc_id"))
    n = ds.count()

    def mk_edges(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy().astype(np.int64)
        src = did[did % 10 != 0]
        d1 = (src * 2654435761 + 7) % n
        d2 = (src * 40503 + 13) % n
        return pa.table({
            "src": pa.array(np.concatenate([src, src]), type=pa.int64()),
            "dst": pa.array(np.concatenate([d1, d2]), type=pa.int64())})

    return ds, ds.map_batches(mk_edges, batch_format="pyarrow")


def _graph_scores(sf_dir: str, algo, cols: tuple[str, ...], **kw):
    """``algo(edges, nodes, **kw)`` over the doc graph, per-node ``cols``
    rounded to 8 decimals (trunc(x * 1e8 + 0.5) / 1e8 on both sides)."""
    ds, edges = _doc_graph(sf_dir)
    nodes = ds.map_batches(lambda b: pa.table({"node": b["doc_id"]}),
                           batch_format="pyarrow")

    def r8(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["node"], **{
            c: pa.array(np.trunc(b[c].to_numpy() * 1e8 + 0.5) / 1e8,
                        type=pa.float64()) for c in cols}})

    out = algo(edges, nodes, **kw)
    return _sorted_table(out.map_batches(r8, batch_format="pyarrow"),
                         ["doc_id"])


def _seed_distance(sf_dir: str) -> pa.Table:
    # multi-source BFS hop distance over the pagerank_docs edge
    # graph from the doc_id % 97 == 0 seeds, capped at 6 hops; only
    # the seed ids reach the driver
    ds, edges = _doc_graph(sf_dir)
    seeds = _sorted_table(ds.map_batches(
        lambda b: b.filter(pa.array(b["doc_id"].to_numpy() % 97 == 0)),
        batch_format="pyarrow"), ["doc_id"])["doc_id"].to_pylist()
    t = _sorted_table(ops.bfs_depths(edges, seeds, max_depth=6), ["node"])
    return pa.table({"doc_id": t["node"], "depth": t["depth"]})


def _keywords_tfidf(sf_dir: str) -> pa.Table:
    # per-doc top-5 TF-IDF keywords, ties by term asc; scores
    # round 6 for the hash (ordering uses the unrounded doubles on
    # both sides)
    def r6(b: pa.Table) -> pa.Table:
        s = b["tfidf"].to_numpy()
        return b.set_column(
            b.schema.get_field_index("tfidf"), "tfidf",
            pa.array(np.trunc(s * 1e6 + 0.5) / 1e6, type=pa.float64()))

    out = ops.tfidf_keywords(_docs_ds(sf_dir), k=5)
    return _sorted_table(out.map_batches(r6, batch_format="pyarrow"),
                         ["doc_id", "rank"])


def _dedup_clusters(sf_dir: str) -> pa.Table:
    # exact near-dup pairs -> transitive closure: every doc labeled
    # with its cluster's min doc_id (keep label == id, drop the rest)
    pairs = ops.jaccard_simjoin_exact(_docs_ds(sf_dir), threshold=0.5)
    labels = ops.connected_components(pairs, _docs_ds(sf_dir))
    out = labels.map_batches(
        lambda b: pa.table({"doc_id": b["node"], "cluster_id": b["label"]}),
        batch_format="pyarrow")
    return _sorted_table(out, ["doc_id"])


def _minhash_pairs(sf_dir: str) -> pa.Table:
    # LSH candidates are probabilistic -> rows-only driver check,
    # but SELF-VALIDATING in-entry: candidate recall vs the exact
    # prefix-filtered sim-join twin must be >= 0.9 (the pytest
    # bound); a miss raises and fails the entry
    cands = _sorted_table(
        ops.minhash_candidate_pairs(_docs_ds(sf_dir), threshold=0.5),
        ["a", "b"])
    exact = _JACCARD_EXACT(sf_dir)
    want = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    got = set(zip(cands["a"].to_pylist(), cands["b"].to_pylist()))
    recall = len(want & got) / len(want) if want else 1.0
    if recall < 0.9:
        raise AssertionError(
            f"minhash candidate recall {recall:.3f} < 0.9 vs exact "
            f"({len(want)} true pairs, {len(want & got)} found)")
    return cands


def _simhash_pairs(sf_dir: str) -> pa.Table:
    # LSH-banded, but pigeonhole + exact popcount verify make the
    # result EXACT (every pair with hamming <= 3, nothing else) —
    # intentionally no SQL oracle (simhash is not SQL-expressible),
    # so SELF-VALIDATING in-entry: brute-force all-pairs popcount
    # over the same signatures must yield the identical pair set
    got = _sorted_table(
        ops.near_dup_pairs(_docs_ds(sf_dir), max_hamming=3), ["a", "b"])
    sig = _sorted_table(
        _docs_ds(sf_dir).map_batches(ops.simhash64, batch_format="pyarrow"),
        ["doc_id"])
    ids = sig["doc_id"].to_numpy()
    h = sig["simhash"].to_numpy().astype(np.uint64)
    xor = h[:, None] ^ h[None, :]
    ham = np.bitwise_count(xor) if hasattr(np, "bitwise_count") else \
        np.unpackbits(xor.view(np.uint8).reshape(len(h), len(h), 8),
                      axis=2).sum(axis=2)
    ai, bi = np.nonzero(np.triu(ham <= 3, k=1))
    want = set(zip(np.minimum(ids[ai], ids[bi]).tolist(),
                   np.maximum(ids[ai], ids[bi]).tolist()))
    have = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    if have != want:
        raise AssertionError(
            f"simhash pair set != brute force: missing "
            f"{sorted(want - have)[:5]}, extra {sorted(have - want)[:5]}")
    return got


def _ngram_jaccard(sf_dir: str) -> pa.Table:
    # LSH-bucketed candidates with exact jaccard verify -> rows-only
    # driver check, but SELF-VALIDATING in-entry: recall vs the
    # exact sim-join twin >= 0.9, and every reported jaccard value
    # must EQUAL the exact twin's for the same pair
    out = ops.ngram_jaccard_pairs(_docs_ds(sf_dir), threshold=0.5)
    out = out.map_batches(lambda b: _round6(b, "jaccard"),
                          batch_format="pyarrow")
    got_t = _sorted_table(out, ["a", "b"])
    exact_t = _JACCARD_EXACT(sf_dir)
    want = {(a, b): j for a, b, j in zip(
        exact_t["a"].to_pylist(), exact_t["b"].to_pylist(),
        exact_t["jaccard"].to_pylist())}
    got = {(a, b): j for a, b, j in zip(
        got_t["a"].to_pylist(), got_t["b"].to_pylist(),
        got_t["jaccard"].to_pylist())}
    hit = set(want) & set(got)
    recall = len(hit) / len(want) if want else 1.0
    if recall < 0.9:
        raise AssertionError(
            f"ngram-LSH candidate recall {recall:.3f} < 0.9 vs exact")
    bad = [p for p in hit if want[p] != got[p]]
    if bad:
        raise AssertionError(
            f"jaccard values disagree with exact twin for {bad[:5]}")
    return got_t


def _embedding_near_dups(sf_dir: str) -> pa.Table:
    # the synthetic embeddings are iid random (max pairwise cosine
    # ~0.48), so near-dups are PLANTED deterministically: vec_id+10^6
    # is a lightly perturbed copy of each of the first 20 vectors
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    base = np.array(emb["embedding"].to_pylist())
    rng = np.random.default_rng(7)
    planted = base[:20] + 0.02 * rng.standard_normal((20, base.shape[1]))
    dim = base.shape[1]
    aug = pa.table({
        "vec_id": pa.array(
            list(emb["vec_id"].to_numpy()) +
            [int(v) + 1_000_000 for v in emb["vec_id"].to_numpy()[:20]],
            type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate([base, planted]).reshape(-1)), dim),
    })
    # bands=8 (8-bit bands): a ~0.985-cosine planted pair misses a
    # single 8-bit band with p~0.37, all eight with p~3e-4 — the
    # default 4x16 layout leaves ~13% per-pair miss odds, enough to
    # trip the all-20-planted assert on an unlucky data draw
    out = ops.embedding_near_dup_pairs(rd.from_arrow(aug), threshold=0.9,
                                       bands=8)
    out = out.map_batches(lambda b: _round6(b, "cosine"),
                          batch_format="pyarrow")
    got = _sorted_table(out, ["a", "b"])
    # SELF-VALIDATING in-entry (LSH is probabilistic, so rows-only
    # at the driver): every planted (i, i+10^6) pair must be found,
    # and every reported cosine must equal the value recomputed
    # from the vectors
    have = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    missing = [(i, i + 1_000_000) for i in range(20)
               if (i, i + 1_000_000) not in have]
    if missing:
        raise AssertionError(
            f"LSH missed planted near-dup pairs: {missing}")
    allv = np.concatenate([base, planted])
    idx = {int(v): i for i, v in
           enumerate(aug["vec_id"].to_numpy())}
    unit = allv / np.linalg.norm(allv, axis=1, keepdims=True)
    a_i = np.array([idx[v] for v in got["a"].to_pylist()])
    b_i = np.array([idx[v] for v in got["b"].to_pylist()])
    ref = np.round((unit[a_i] * unit[b_i]).sum(axis=1), 6)
    rep = got["cosine"].to_numpy()
    if not np.allclose(rep, ref, atol=1e-6):
        bad = np.flatnonzero(~np.isclose(rep, ref, atol=1e-6))
        raise AssertionError(
            f"reported cosines diverge from recomputed values at "
            f"pairs {bad.tolist()[:5]}")
    return got


def _event_left(batch: pa.Table) -> pa.Table:
    return pa.table({"user_id": batch["user_id"],
                     "event_id": batch["event_id"],
                     "t": batch["ts"].cast(pa.int64())})


def _purchase_cents(batch: pa.Table) -> pa.Table:
    b = batch.filter(pc.equal(batch["event_type"], "purchase"))
    cents = pc.round(pc.multiply(b["value"], 100.0),
                     round_mode="half_towards_infinity") \
        .cast(pa.int64())
    return pa.table({"user_id": b["user_id"],
                     "t": b["ts"].cast(pa.int64()),
                     "pid": b["event_id"],
                     "pcents": cents})


def _value_quantiles_tdigest(sf_dir: str) -> pa.Table:
    # mergeable t-digest sketch: approximate by design -> rows-only
    # driver check, but SELF-VALIDATING in-entry: every estimate
    # must land inside the exact distribution's ±0.06 RANK band
    # (the delta=100 bound tests/test_quantiles.py pins), checked
    # against grouped_quantiles at the shifted ranks — a violation
    # raises, which the driver records as the entry failing
    qs = _QUARTILES
    got = _sorted_table(
        ops.grouped_quantiles_tdigest(_read(sf_dir, _EV_TYPE_VALUE),
                                      "event_type", "value", qs),
        ["event_type"])
    rank_err = 0.06
    spec = {}
    for name, q in qs.items():
        spec[f"{name}_lo"] = max(q - rank_err, 0.0)
        spec[f"{name}_hi"] = min(q + rank_err, 1.0)
    bounds = _sorted_table(ops.grouped_quantiles(
        _read(sf_dir, _EV_TYPE_VALUE),
        "event_type", "value", spec), ["event_type"])
    assert bounds["event_type"].to_pylist() == \
        got["event_type"].to_pylist()
    for name in qs:
        est = got[name].to_numpy()
        lo = bounds[f"{name}_lo"].to_numpy()
        hi = bounds[f"{name}_hi"].to_numpy()
        bad = ~((est >= lo - 1e-9) & (est <= hi + 1e-9))
        if bad.any():
            raise AssertionError(
                f"t-digest {name} outside ±{rank_err} rank band for "
                f"groups {np.flatnonzero(bad).tolist()}")
    return got


def _distinct_users_hll(sf_dir: str) -> pa.Table:
    # HyperLogLog estimate: only 4 KiB register blobs shuffle;
    # approximate by design -> rows-only driver check, but SELF-
    # VALIDATING in-entry: the estimate must sit within 5% of the
    # exact per-group distinct count (the tests/test_sketches.py
    # bound) — a violation raises and fails the entry
    est = _sorted_table(
        ops.hll_distinct_per_group(_read(sf_dir, _EV_TYPE_USER),
                                   "event_type", "user_id",
                                   alias="n_users_hll"), ["event_type"])
    exact = _DISTINCT_USERS(sf_dir)
    assert exact["event_type"].to_pylist() == \
        est["event_type"].to_pylist()
    e = est["n_users_hll"].to_numpy().astype(np.float64)
    t = exact["n_users"].to_numpy().astype(np.float64)
    bad = np.abs(e - t) > 0.05 * np.maximum(t, 1.0)
    if bad.any():
        raise AssertionError(
            f"HLL estimate >5% off exact for groups "
            f"{np.flatnonzero(bad).tolist()}: est={e[bad]}, "
            f"exact={t[bad]}")
    return est


def _heavy_users_mg(sf_dir: str) -> pa.Table:
    # Misra-Gries frequent users per event_type: only <= k+1
    # summary rows per (group, batch) shuffle, never the distinct
    # pairs. Estimates are batch-boundary-dependent (any MG merge
    # tree is) -> rows-only driver check, but SELF-VALIDATING
    # in-entry against the exact counts: est <= true <= est + err
    # for every reported item, and every item with true > err must
    # be reported (the PODS'12 guarantees) — violations raise
    k = 8
    est = _sorted_table(
        ops.mg_heavy_hitters(_read(sf_dir, _EV_TYPE_USER), "event_type",
                             "user_id", k=k),
        ["event_type", "user_id"])
    exact = _sorted_table(
        _read(sf_dir, _EV_TYPE_USER)
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="c")),
        ["event_type", "user_id"])
    true = {(g, u): c for g, u, c in zip(
        exact["event_type"].to_pylist(),
        exact["user_id"].to_pylist(), exact["c"].to_pylist())}
    totals: dict = {}
    for (g, _), c in true.items():
        totals[g] = totals.get(g, 0) + c
    err_by_group: dict = {}
    for g, u, e, err, n in zip(est["event_type"].to_pylist(),
                               est["user_id"].to_pylist(),
                               est["est_count"].to_pylist(),
                               est["err_bound"].to_pylist(),
                               est["n_group"].to_pylist()):
        assert n == totals[g], (g, n, totals[g])
        assert e <= true[(g, u)] <= e + err, (g, u, e, err)
        err_by_group[g] = err
    reported = set(zip(est["event_type"].to_pylist(),
                       est["user_id"].to_pylist()))
    for (g, u), c in true.items():
        err = err_by_group.get(g, totals[g] // (k + 1))
        if c > err:
            assert (g, u) in reported, (g, u, c, err)
    return est


def _event_counts_cm(sf_dir: str) -> pa.Table:
    # Count-Min point estimates per event_type. Estimates are
    # hash-dependent -> rows-only driver check, but SELF-VALIDATING
    # in-entry against the exact counts: est >= true for EVERY key
    # (the CM one-sided guarantee) and est <= true + e*N/width with
    # the standard per-query failure budget — violations raise
    width, depth = 1 << 12, 4
    m = ops.cm_build(_read(sf_dir, ("events", "event_type")), "event_type",
                     width=width, depth=depth)
    exact = _sorted_table(
        _read(sf_dir, ("events", "event_type"))
        .groupby("event_type").aggregate(Count(alias_name="c")),
        ["event_type"])
    types = exact["event_type"]
    est = ops.cm_query(m, types)
    tv = exact["c"].to_numpy()
    n_total = int(tv.sum())
    assert (est >= tv).all(), "CM under-counted"
    bound = math.e * n_total / width
    over = est - tv
    assert (over <= 2 * bound).mean() >= 0.95, (
        f"CM over-count beyond 2x Markov bound: {over}")
    return pa.table({
        "event_type": types,
        "est_count": pa.array(est, type=pa.int64()),
        "n_total": pa.array(
            np.full(len(est), n_total, dtype=np.int64)),
    })


def _media_features(sf_dir: str):
    ds = rd.from_arrow(ops.make_media_table(120))
    # fake=False: every synthetic payload (PPM/BMP/PNG/JPEG/WAV/
    # RAWV/MP4-raw)
    # decodes through the REAL pure-NumPy/zlib codecs
    out = ds.map_batches(ops.DecodeImage,
                         fn_constructor_kwargs={"fake": False},
                         batch_size=32, concurrency=2,
                         batch_format="pyarrow", num_cpus=1)
    return out.select_columns(["media_id", "kind"])


# ---------------------------------------------------------------------------
# the entry table
# ---------------------------------------------------------------------------





def queries() -> dict[str, Callable[[str], Any]]:
    """Entry name -> callable(sf_dir): a shared runner bound to its
    parameters, or a named one-off or self-validating entry."""
    return {
        "doc_stats": _doc_stats,
        "doc_lengths": _DOC_LENGTHS,
        "term_df": lambda sf_dir: _lexicon(sf_dir, "term", "df"),
        "lexicon": lambda sf_dir: _round6(
            _lexicon(sf_dir, "term", "df", "idf"), "idf"),
        "top_terms": _top_terms,
        "postings": _dump(_basic_index),
        # re-LAYOUT (reshard 4->5, resalt 2->3) without re-tokenizing:
        # the resharded index's posting store must be LOGICALLY
        # identical to the source's — layout is invisible to the data
        "resharded_postings": _dump(_resharded_index),
        # per-term top-3 postings by (tf desc, doc_id) — the inexact
        # top-k "fancy list" structure (IIR Sec 7.1.3); lossless
        # per-batch pre-top-m, slim final groupby
        "champion_lists": lambda sf_dir: _sorted_table(
            champions.champion_lists(_basic_index(sf_dir), m=3,
                                     docno_offset=-1), ["term", "doc_id"]),
        "pruned_postings": _pruned_postings,
        # incremental index: base half + delta half, merged — must equal
        # the full-corpus postings (same oracle SQL as `postings`)
        "merge_postings": _dump(_merged_index),
        # document replacement by key: delta build + tombstone-carrying
        # merge + superseded-row delete; the tombstone-applied dump is
        # the query-visible view
        "upsert_postings": _dump(_upserted_index, tombstones=True),
        # tombstone deletion: the filtered dump view (docs with original
        # doc_id % 7 == 0 deleted; index bytes untouched)
        "delete_postings": _dump(_deleted_index, tombstones=True),
        # physical removal + dense renumber: docno becomes the doc's
        # rank among the SURVIVORS (equals a fresh build over them)
        "vacuum_postings": _dump(_vacuumed_index),
        "bm25_topk": _engine_topk,
        # scatter-gather over a PARTITIONED corpus (two sub-indexes
        # split at the median doc_id) with global statistics — must
        # equal the MONOLITHIC index's ranking exactly, so the oracle
        # is bm25_topk's own SQL over the whole corpus
        "federated_bm25": lambda sf_dir: _round6(federated.federated_topk(
            _federated_indexes(sf_dir), [list(q) for q in _BM25_QUERIES],
            k=10), "score"),
        "score_explain": _score_explain,
        # M14/J3: conjunctive AND via the faithful MaxScore loop; no SQL
        # oracle (the reference's conjunctive semantics are not a clean
        # AND, SURVEY.md §7.4) — exact parity is pytest-checked against
        # the pure-Python oracle (tests/test_index_e2e.py)
        "bm25_conjunctive": partial(_engine_topk, mode="and"),
        "tfidf_topk": partial(_engine_topk, standard="TFIDF"),
        # exact-phrase retrieval (engine EXTENSION — the reference index
        # stores no positions): inverted-index conjunctive prune +
        # candidate-only adjacency verify; oracle = positional
        # self-join SQL. doc_id reported as docno (engine id - 1).
        "phrase_search": _ranked(phrase.phrase_match, _PHRASE_QUERIES,
                                 corpus=True),
        # same phrases, same oracle — but answered from the positional
        # sidecar ALONE (no content re-scan): term -> (docIds, per-doc
        # positions) lists, adjacency = vectorized composite-key chain.
        # Must agree with phrase_search exactly (both are oracle-gated).
        "phrase_search_positional": _ranked(
            positions.phrase_match_positional, _PHRASE_QUERIES,
            index=_positions_index),
        # unordered proximity (minimal cover window) from the positional
        # sidecar: every doc holding ALL query terms, with the smallest
        # token window covering one occurrence of each (min_span)
        "proximity_search": _ranked(positions.proximity_min_span,
                                    _PROXIMITY_QUERIES,
                                    index=_positions_index),
        "snippet_search": _snippet_search,
        # pseudo-relevance-feedback expansion: BM25 top-5 feedback docs
        # per query, top-3 expansion terms by summed tf (integer — bit-
        # deterministic vs SQL) excluding originals and df*10 > N terms,
        # then a second BM25 pass over original + expansion terms
        "bm25_prf": _ranked(feedback.bm25_prf, _BM25_QUERIES, "score",
                            corpus=True, k_fb=_PRF_K_FB, m_exp=_PRF_M_EXP,
                            df_cap=_PRF_DF_CAP, k=10),
        # "did you mean": each query word expands to its Levenshtein
        # <=1 lexicon terms (vectorized byte-matrix check), scored as
        # disjunctive BM25 top-10; oracle expands via levenshtein()
        "fuzzy_bm25": _ranked(fuzzy.bm25_fuzzy, _FUZZY_QUERIES, "score",
                              k=10),
        # LLM-training sequence packing: greedy next-fit of docs (in id
        # order within fixed id-range shards; bins never cross shards)
        # into 96-token context windows — one searchsorted per bin, no
        # per-row Python; oracle is a recursive CTE carrying (bin, fill)
        "seq_packing": _src(_DOC_LENGTHS, ops.pack_sequences, ["doc_id"],
                            budget=_PACK_BUDGET, shard_size=_PACK_SHARD),
        # collocation mining: every adjacent alnum-token bigram with
        # corpus count >= 5, scored by PMI (Church & Hanks 1990) —
        # one content scan, counts attach by broadcast or term-hash
        # partitioned join (pytest pins both paths identical)
        "collocations": _src(_DOCS, ops.pmi_collocations,
                             ["term_a", "term_b"], min_count=5),
        # general wildcard (suffix/infix/multi-star) via the 3-gram
        # lexicon index + vectorized greedy verify, scored as
        # disjunctive BM25 top-10; oracle expands via LIKE
        "wildcard_infix_bm25": _ranked(kgram.bm25_wildcard, _INFIX_QUERIES,
                                       "score", k=10),
        # faceted search: per (query, lang) count of the FULL
        # disjunctive match set — match ids from the index alone, one
        # column-pruned scan of the docs table for the facet column
        "facet_search": lambda sf_dir: _sorted_table(facets.facet_counts(
            _basic_index(sf_dir), _BM25_QUERIES, facet_col="lang"),
            ["qid", "facet"]),
        # +pos -neg boolean retrieval: every distinct known positive
        # term present, no known negative term, positives score with
        # duplicates counted twice (the clean-AND quirk), top-10
        "boolean_not": _ranked(boolean.bm25_boolean, _BOOL_QUERIES, "score",
                               k=10),
        # RANKED phrase search: occurrence count as tf in the BM25
        # formula, df = docs containing the phrase; matches from the
        # positional sidecar, scoring one vectorized pass
        "phrase_bm25": _ranked(positions.phrase_bm25, _PHRASE_QUERIES,
                               "score", index=_positions_index, k=10),
        # document-similarity queries: each source doc's top-5 terms
        # (integer tf weights, df*10<=N cap) as a disjunctive BM25
        # top-10, source doc excluded
        "more_like_this": _ranked(feedback.more_like_this,
                                  [d + 1 for d in _MLT_DOCNOS], "score",
                                  corpus=True, m_terms=_MLT_M,
                                  df_cap=_MLT_DF_CAP, k=10),
        # wildcard/prefix retrieval: each query is a PREFIX, expanded to
        # every matching lexicon term (two binary searches over the
        # sorted key array), then scored as a disjunctive BM25 top-10
        # over the distinct expansion — oracle expands via LIKE over the
        # same token stream
        "wildcard_bm25": partial(_engine_topk, prefix=True),
        # hybrid retrieval via Reciprocal Rank Fusion (Cormack et al.,
        # SIGIR 2009): the inverted-index BM25 top-10 fused with the
        # dense cosine top-10 over the embeddings table (query vector
        # for qid q = embedding of vec_id q — deterministic and
        # SQL-expressible). Ranks are recomputed from (score DESC, id
        # ASC) on both sides, so engine and oracle fuse identical lists.
        "hybrid_rrf": _hybrid(ops.rrf_fuse, "rrf", k_rrf=60),
        # CombMNZ score fusion (Fox & Shaw TREC-2, Lee SIGIR'97 min-max
        # normalization): same two sides as hybrid_rrf, but fusing the
        # SCORES — each side's top-10 min-max normalized per query, the
        # sum scaled by how many sides returned the doc. Both sides'
        # scores are rounded to 6 BEFORE normalization (and the oracle
        # rounds identically) so engine and SQL normalize the same
        # doubles.
        "hybrid_combmnz": _hybrid(ops.comb_fuse, "fused", round_dense=True,
                                  method="mnz"),
        "ltr_features": _ltr_features,
        # sliding token-window chunking for RAG (size 40, stride 25 so
        # overlap + short tails are both exercised)
        "doc_chunks": _src(_DOCS, ops.chunk_documents, ["doc_id", "chunk_id"],
                           size=40, stride=25),
        "passage_maxp": _passage_maxp,
        # CLEAN-AND conjunctive (engine extension; SQL-expressible,
        # unlike the reference's quirky MaxScore conjunctive which stays
        # pytest-verified against the pure-Python oracle)
        "bm25_conjunctive_strict": partial(_engine_topk, mode="strict"),
        "dedup_exact": _src(_DOCS, ops.exact_dedup_keep, ["keep_id"],
                            select=["keep_id", "n_dups"]),
        "token_count": _src(_DOCS, maps=(ops.token_count,)),
        "quality_stats": _src(_DOCS, maps=(ops.quality_stats,)),
        # per-doc character Shannon entropy (gibberish/boilerplate
        # signal); DuckDB's entropy() aggregate is the same base-2
        # definition, so this is value-exact at round-4
        "char_entropy": _src(_DOCS, maps=(ops.char_entropy,)),
        # entropy-ranked decile bucketing (the CCNet perplexity-bucket
        # shape with the n=0 score): exact global ntile via range-
        # partitioned sort + metadata-sized block offsets
        "quality_deciles": _src(_ENTROPY, ops.global_ntile, ["doc_id"],
                                sort_cols=["char_entropy", "doc_id"],
                                n_tiles=10, out_col="decile"),
        "dsir_weights_exact": _DSIR_EXACT,
        "dsir_weights_hashed": _dsir_weights_hashed,
        # the RESAMPLE step of DSIR (arXiv:2302.03169 §2): draw 100 docs
        # without replacement with probability ∝ 10**log_weight via the
        # Efraimidis-Spirakis exponential race with knuth-hash uniforms
        # — deterministic end to end, so the weight CTE + the exact key
        # expression replay in SQL (keys round 6 before ranking on both
        # sides)
        "dsir_resample": _src(
            _src(_DOCS_LANG, ops.dsir_weights, target_col="lang",
                 target_value="en", select=["doc_id", "log_weight"]),
            ops.importance_resample, ["sample_rank"], n=100),
        "bpe_merges": _bpe_merges,
        "bpe_token_counts": _bpe_token_counts,
        "bm25f_topk": _bm25f_topk,
        "knn_graph_exact": _KNN_EXACT,
        "knn_graph_approx": _knn_graph_approx,
        "ann_cosine_topk": _vec(ops.cosine_topk, k=10),
        # IVF path probing ALL buckets == exact -> shares the ANN oracle SQL
        "ann_cosine_topk_ivf": _vec(_ivf_topk, k=10, nprobe=8),
        "ann_cosine_topk_pq": _ann_cosine_topk_pq,
        # MMR diversified rerank (Carbonell & Goldstein SIGIR'98):
        # greedy lam*sim(q,d) - (1-lam)*max sim(d, selected) over the
        # cosine top-20 candidates; oracle = the same greedy unrolled
        # to 5 selection CTE stages
        "mmr_diversified": _vec(ops.mmr_rerank, k=5, lam=0.7, n_cand=20),
        # Rocchio pseudo-relevance feedback in embedding space: q' =
        # q + 0.75 * centroid(cosine top-5), rerank by cosine(q', d) —
        # the dense sibling of the sparse bm25_prf entry
        "dense_prf": _vec(ops.rocchio_dense, ["query_id", "vec_id"], k=10,
                          alpha=1.0, beta=0.75, n_fb=5),
        "lang_id": _src(_DOCS, keys=["doc_id"], maps=(ops.lang_id,)),
        "fingerprint": _src(_DOCS, keys=["doc_id"], maps=(ops.fingerprint,)),
        "pii_redact": _src(_DOCS_SOURCE, keys=["doc_id"],
                           maps=(_pii_preamble, ops.pii_redact)),
        "repetition_stats": _src(_DOCS, keys=["doc_id"],
                                 maps=(ops.repetition_stats,),
                                 round6=("ttr", "top_bigram_frac")),
        "ngram_jaccard_exact": _JACCARD_EXACT,
        "substring_dup_exact": _SUBSTRING_EXACT,
        "substring_dup_winnow": _substring_dup_winnow,
        # tiled brute-force cosine threshold join over the RAW embeddings
        # view (no planting — threshold 0.3 sits in a 7e-5-wide value gap
        # at sf0.01, far beyond float noise), exactly SQL-checkable
        "embedding_near_dups_exact": _src(_EMB, ops.cosine_all_pairs,
                                          ["a", "b"], round6=("cosine",),
                                          threshold=0.3),
        "semantic_dedup_exact": _SEMDEDUP_EXACT,
        "semantic_dedup_clustered": _semantic_dedup_clustered,
        # corpus-level duplicate-line removal (RefinedWeb/C4 boilerplate
        # step) over a deterministic multi-line view of the single-line
        # synthetic docs (' merge ' -> newline); exact-bytes matching on
        # both engine paths makes it SQL-mirrorable
        "line_dedup": _src(_DOCS, ops.line_dedup, ["doc_id"],
                           maps=(_text_view((" merge ", "\n")),),
                           min_count=2),
        # Gopher repetition rules 1-4 (dup line/para fractions) over a
        # two-level view: ' the ' -> blank line (paragraph break),
        # remaining spaces -> newline; map-only, exactly SQL-mirrorable
        "dup_line_stats": _src(
            _DOCS, keys=["doc_id"],
            maps=(_text_view((" the ", "\n\n"), (" ", "\n")),
                  ops.duplicate_line_stats)),
        # Gopher n-gram repetition rules 5-8: top-{2,3,4}-gram char
        # fraction + duplicate-{5..10}-gram coverage fraction; map-only
        "ngram_repetition": _src(_DOCS, keys=["doc_id"],
                                 maps=(ops.ngram_repetition_stats,)),
        # corpus-wide top-50 trigrams — the decontamination/boilerplate
        # blocklist building step; one content scan, one gram-distinct
        # exchange, lossless per-block pre-top-k
        "top_ngrams": _src(_DOCS, ops.top_ngrams, ["ngram_rank"], n=3, k=50),
        # deterministic global corpus shuffle into 8 round-robin
        # training shards: one range-partitioning sort by (knuth hash,
        # id), ranks from block metadata offsets
        "shard_shuffle": _src(("documents", "doc_id", "source"),
                              ops.shuffle_shards, ["doc_id"], n_shards=8),
        # Zipf-law fit over the corpus term-frequency distribution:
        # slope/intercept of log10(count) vs log10(rank); regression
        # sums as per-block partials, one 5-number row per block
        "zipf_corpus": _src(_DOCS, ops.zipf_fit),
        # Unicode NFC over a view that injects DECOMPOSED sequences
        # (' the ' -> ' the'+U+0301+' ', i.e. e + combining acute):
        # normalization must compose them; ~all docs change at sf0.01.
        # DuckDB's nfc_normalize is the same Unicode standard.
        "nfc_normalized": _src(_DOCS, ops.nfc_normalize, ["doc_id"],
                               maps=(_text_view((" the ", " the\u0301 ")),)),
        # Heaps'-law vocabulary-growth fit (log V vs log n over the
        # corpus in doc-id order) — the zipf_fit companion
        "heaps_corpus": _src(_DOCS, ops.heaps_fit),
        # global rank / percent_rank / cume_dist over the entropy score
        # (the "keep the best X%" cut reads percent_rank directly)
        "entropy_ranks": _src(_ENTROPY, ops.global_rank, ["doc_id"],
                              sort_cols=["char_entropy", "doc_id"]),
        # clip event values at the exact global [p05, p95] quantiles
        # (quantile_cont interpolation on both sides; clipped round 4)
        "winsorized_values": _src(("events", "event_id", "value"),
                                  ops.winsorize, ["event_id"],
                                  value_col="value", lo=0.05, hi=0.95),
        # per-event-type z-score + min-max feature scaling (round 4)
        "normalized_values": _src(("events", "event_id", "event_type",
                                   "value"), ops.zscore_normalize,
                                  ["event_id"], group_col="event_type",
                                  value_col="value"),
        # per-user first-order Markov transitions between event types,
        # row-normalized (round 6)
        "transition_matrix": _src(("events", "event_id", "ts", "user_id",
                                   "event_type"), ops.event_transitions,
                                  ["from_type", "to_type"]),
        # per-column row/null/exact-distinct profile of the events
        # table — the ingestion data-validation pass
        "events_profile": _src(("events",), ops.profile_table, ["column"]),
        # rule-based sentence split on [.!?]+ runs, trimmed, empties
        # dropped, 0-based kept-rank per doc
        "doc_sentences": _src(_DOCS, ops.split_sentences,
                              ["doc_id", "sent_id"]),
        "corpus_diff": _corpus_diff,
        # the generic distributed equi-join over the TPC-H pair:
        # orders (fact) x customer (dim) — the adaptive rule picks the
        # broadcast path for the small dim side; the partitioned MR
        # path is pytest-pinned value-identical
        "orders_customers": _src(
            _ORDERS, ops.equi_join, ["o_orderkey"],
            right=("customer", "c_custkey", "c_name", "c_mktsegment"),
            on="o_custkey", right_on="c_custkey"),
        # SEMI join: orders of BUILDING-segment customers — only the
        # right side's distinct keys travel, output never multiplies
        "building_orders": _src(
            _ORDERS, ops.semi_join, ["o_orderkey"],
            right=_src(("customer", "c_custkey", "c_mktsegment"), maps=(
                lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING")),)),
            on="o_custkey", right_on="c_custkey"),
        # ordered signup -> click -> purchase funnel per user; stage i
        # counts only strictly after stage i-1's first qualifying event
        "funnel_signup": _src(_EV_FUNNEL, ops.funnel, ["user_id"],
                              stages=_FUNNEL),
        # per-stage cumulative reach + step conversion rates (round 6)
        "funnel_conversion": _src(_EV_FUNNEL, ops.funnel_rates, ["stage"],
                                  stages=_FUNNEL),
        # per-user inter-event gap stats in whole microseconds
        "user_gaps": _src(("events", "event_id", "ts", "user_id"),
                          ops.interarrival_stats, ["user_id"]),
        # trailing-5-events window sum/count per user in exact int64
        # cents; the salted mega-key variant is pytest-pinned identical
        "moving_spend": _src(_EV_RUN, ops.moving_agg, ["event_id"],
                             window_rows=5),
        # GROUP BY ROLLUP(event_type, hour window): leaf + per-type
        # subtotals + grand total, every level an exact integer-cents
        # sum (values round to cents at the leaf)
        "events_rollup": _src(_EV_WIN, ops.rollup_agg,
                              ["event_type", "window_start_us"]),
        # trailing-1h RANGE window per user (equal-ts peers included,
        # SQL RANGE semantics); exact int64 cents
        "hourly_spend": _src(_EV_RUN, ops.time_window_agg, ["event_id"],
                             width_us=3_600_000_000),
        # SQL PIVOT: per-user count + exact-cents sum per event type
        "user_pivot": _src(("events", "user_id", "event_type", "value"),
                           ops.pivot_counts, ["user_id"],
                           pivot_values=["click", "error", "purchase",
                                         "signup", "view"]),
        # ANTI join: events by users with NO purchase over 90 (the
        # churn/funnel cut — ~15-21% of events at these SFs, so the
        # gate is non-trivial); corpus_diff is this op's content-hash
        # special case
        "never_purchased": _src(
            ("events", "event_id", "user_id", "event_type"), ops.semi_join,
            ["event_id"], on="user_id", anti=True,
            right=_src(_EV_PURCH, maps=(lambda b: b.filter(pc.and_(
                pc.equal(b["event_type"], "purchase"),
                pc.greater(b["value"], 90.0))),))),
        # per-user running window functions over events: row_number,
        # inclusive running sum and lag in exact int64 cents under the
        # (ts, event_id) order — bit-identical at any partitioning; the
        # salted mega-key variant is pytest-pinned identical
        "running_totals": _src(_EV_RUN, ops.running_agg, ["event_id"]),
        # C4 cleaning rules (Raffel et al. 2020 §2.2) over a view that
        # exercises every rule: ' merge ' -> '.\n' (terminal-punct
        # lines), ' dup ' -> ' lorem ipsum ' (doc-level drop, ~25 docs
        # at sf0.01); keeps 84/500, drops the rest
        "c4_clean": _src(
            _DOCS, keys=["doc_id"],
            maps=(_text_view((" dup ", " lorem ipsum "), (" merge ", ".\n")),
                  ops.c4_line_filter)),
        # GloVe-style windowed co-occurrence counts (ordered pairs,
        # distance <= 3, corpus-wide count >= 2) with the 1/d
        # distance-decayed weight
        "cooccurrence": _src(_DOCS, ops.cooccurrence_counts,
                             ["term_a", "term_b"], window=3, min_count=2),
        # PageRank over a deterministic synthetic doc graph: docs not
        # divisible by 10 emit two knuth-hash out-edges (so 10% of
        # nodes are dangling and exercise the redistribution term);
        # 10 damped rounds, ranks round 8
        "pagerank_docs": partial(_graph_scores, algo=ops.pagerank,
                                 cols=("rank",), n_iter=10, damping=0.85),
        "keywords_tfidf": _keywords_tfidf,
        # HITS hubs & authorities over the SAME synthetic doc graph as
        # pagerank_docs; 5 rounds, each half-step max-normalized (max is
        # order-independent, so the normalizer replays exactly in SQL);
        # scores round 8
        "hits_docs": partial(_graph_scores, algo=ops.hits,
                             cols=("hub", "authority"), n_iter=5),
        "seed_distance": _seed_distance,
        # deterministic map-only train/val/test split (knuth32 mode is
        # exactly SQL-mirrorable; crc32 mode is the general-id default)
        "dataset_split": _src(("documents", "doc_id"), ops.hash_split,
                              ["doc_id"], id_col="doc_id",
                              fractions={"train": 0.8, "val": 0.1,
                                         "test": 0.1},
                              hash_mode="knuth32"),
        # deterministic per-lang bottom-20-by-hash sample (knuth32 mode
        # is exactly SQL-mirrorable, like dataset_split)
        "stratified_sample": _src(("documents", "doc_id", "lang"),
                                  ops.stratified_sample,
                                  ["lang", "sample_rank"], group_col="lang",
                                  n_per_group=20, hash_mode="knuth32"),
        # temperature-scaled per-source sampling weights (alpha=0.3)
        "alpha_mix_weights": _src(("documents", "source", "text"),
                                  ops.alpha_mix_weights, ["source"],
                                  alpha=0.3),
        # MATERIALIZED temperature mix (T=2): per-source doc targets
        # from count^(1/T) largest-remainder quotas, selection = the
        # deterministic knuth32 bottom-target per source
        "temperature_mix": _src(("documents", "doc_id", "source"),
                                ops.temperature_mix_sample,
                                ["source", "sample_rank"], total_docs=300,
                                temperature=2.0),
        # weekly cohort retention triangle: users bucketed by first-
        # activity week, distinct-active counts per (cohort, offset)
        "retention_cohorts": _src(("events", "user_id", "ts"),
                                  ops.retention_cohorts,
                                  ["cohort_us", "period_offset"]),
        # unigram-LM perplexity-style scoring, LM trained on the corpus
        # itself — both passes exactly SQL-mirrorable
        "lm_logprob": _src(_DOCS, ops.unigram_logprob, ["doc_id"]),
        # interpolated bigram-LM scoring (Jelinek-Mercer, lam=0.7),
        # trained on the corpus itself; exactly SQL-mirrorable (the
        # oracle writes (1.0 - 0.7) so both engines use the identical
        # double for 1-lam)
        "bigram_lm": _src(_DOCS, ops.bigram_logprob, ["doc_id"], lam=0.7),
        # Gopher quality rules (Rae et al. 2021 §A1.1) — thresholds
        # chosen so the synthetic corpus exercises both keep branches
        # (word counts run 10-99, stopword presence 0-1)
        "gopher_quality": _src(_DOCS, ops.gopher_filter, ["doc_id"],
                               min_words=30, max_words=100_000,
                               min_mean_word_len=3.0, max_mean_word_len=10.0,
                               max_symbol_ratio=0.1,
                               min_alpha_word_ratio=0.8, min_stopwords=1),
        # the mega-source two-phase path must produce EXACTLY the
        # source_quota output — same oracle SQL
        "source_quota_salted": _src(_DOCS_SOURCE, ops.source_quota_sample,
                                    ["doc_id"], budget_tokens=800,
                                    salt_ids=50),
        "dedup_clusters": _dedup_clusters,
        # per-source 800-token mixture cap (each sf source holds
        # ~1.1-1.7k tokens, so the cut lands mid-source and roughly
        # half the docs survive — the budget is genuinely binding)
        "source_quota": _src(_DOCS_SOURCE, ops.source_quota_sample,
                             ["doc_id"], budget_tokens=800),
        "contamination": _src(_DOCS, ops.contamination_check, ["doc_id"],
                              probes=_PROBES),
        "contamination_ngram": _contamination_ngram,
        "contamination_fuzzy": _contamination_fuzzy,
        "minhash_pairs": _minhash_pairs,
        "simhash_pairs": _simhash_pairs,
        "ngram_jaccard": _ngram_jaccard,
        "embedding_near_dups": _embedding_near_dups,
        "window_agg": _src(_EV_WIN, ops.tumbling_window_agg,
                           ["window_start_us", "event_type"]),
        # the STREAMING stateful operator (event-time watermarks) over a
        # time-ordered feed must reproduce the batch tumbling aggregate
        # — same oracle SQL as window_agg
        "window_agg_streaming": _src(_EV_WIN, ops.stream_tumbling_window_agg,
                                     ["window_start_us", "event_type"]),
        "window_hopping": _src(_EV_WIN, ops.hopping_window_agg,
                               ["window_start_us", "event_type"],
                               width_us=3_600_000_000, hop_us=1_800_000_000),
        # deterministic row order on the full key: groupby emits groups in
        # arbitrary block order at high parallelism
        "sessions": _src(_EV_SESS, ops.sessionize, ["user_id", "session_id"]),
        # the mega-user path (day-salted fragments + per-user merge) must
        # produce EXACTLY the sessions output — same oracle SQL
        "sessions_salted": _src(_EV_SESS, ops.sessionize,
                                ["user_id", "session_id"],
                                salt_width_us=24 * 3600 * 1_000_000),
        # the STREAMING sessionizer driven over the same events in time
        # order: watermark-finalized sessions must equal the batch
        # operator's answer exactly, so it shares _SESSIONS_SQL
        "sessions_streaming": _src(_EV_SESS, ops.stream_sessionize,
                                   ["user_id", "session_id"]),
        # the sequential MaxScore loop WITH block-max pruning, against
        # the same DuckDB top-k oracle as the TAAT path
        "bm25_topk_maxscore": partial(_engine_topk, algo="maxscore"),
        # WAND dynamic pruning (Broder CIKM'03; the engine's extension
        # beyond the reference's MaxScore), same DuckDB top-k oracle
        "bm25_topk_wand": partial(_engine_topk, algo="wand"),
        # Block-Max WAND (Ding & Suel SIGIR'11): WAND + the index's
        # per-block score bounds; lossless, same top-k SQL oracle
        "bm25_topk_bmw": partial(_engine_topk, algo="bmw"),
        # query-likelihood Dirichlet ranking (Zhai & Lafferty SIGIR'01;
        # the engine's third standard beyond the reference's BM25/TFIDF)
        "qld_topk": partial(_engine_topk, standard="QLD"),
        "props_json": _src(("events", "event_id", "props"),
                           maps=(ops.props_extract,)),
        # backward as-of join: every event gets its user's most recent
        # purchase at-or-before its timestamp (tie on ts -> max event_id)
        "asof_purchases": _src(
            _EV_ASOF, ops.asof_join_backward, ["event_id"],
            maps=(_event_left,), right=_src(_EV_ASOF, maps=(_purchase_cents,)),
            by="user_id", on="t", right_order="pid",
            attach={"pid": "last_purchase_id", "t": "last_purchase_t",
                    "pcents": "last_purchase_cents"}),
        # range-containment join: every event labeled with the session
        # that contains it (sessionize output = disjoint intervals)
        "event_sessions": _src(
            _EV_SESS, ops.interval_join, ["user_id", "event_id"],
            maps=(_event_left,),
            right=_src(_EV_SESS, ops.sessionize,
                       select=["user_id", "session_id", "start_us",
                               "end_us"]),
            by="user_id", on="t", start_col="start_us", end_col="end_us",
            attach={"session_id": "session_id"}),
        # exact per-type continuous quantiles (quantile_cont semantics)
        "value_quantiles": _src(_EV_TYPE_VALUE, ops.grouped_quantiles,
                                ["event_type"], round6=tuple(_QUARTILES),
                                group_col="event_type", value_col="value",
                                qs=_QUARTILES),
        "value_quantiles_tdigest": _value_quantiles_tdigest,
        "distinct_users": _DISTINCT_USERS,
        "distinct_users_hll": _distinct_users_hll,
        "top_users": _src(("events", "event_type", "user_id", "value"),
                          ops.top_users_by_type, ["event_type", "rank"], k=5),
        "heavy_users_mg": _heavy_users_mg,
        "event_counts_cm": _event_counts_cm,
        "media_features": _media_features,
    }


_SESSIONS_SQL = """
WITH o AS (
  SELECT user_id, event_id, value, epoch_us(ts) AS t,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS prev_t
  FROM events),
m AS (
  SELECT user_id, event_id, value, t,
         CASE WHEN prev_t IS NULL OR t - prev_t > 1800000000
              THEN 1 ELSE 0 END AS new_sess
  FROM o),
s AS (
  SELECT user_id, value, t,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY t, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1
              AS BIGINT) AS session_id
  FROM m)
SELECT user_id, session_id,
       count(*)::BIGINT AS n_events,
       min(t) AS start_us, max(t) AS end_us,
       SUM(CAST(round(value * 100) AS BIGINT)) AS sum_value_cents
FROM s GROUP BY user_id, session_id
ORDER BY user_id, session_id
"""


# PII redaction oracle: the SAME RE2 patterns pyarrow runs (DuckDB's
# regexp_* is RE2 too, so semantics are engine-identical); counts over
# the pre-redaction text, replacements applied in the same order.
_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_IP = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
_PII_PHONE = r"\b\d{3}[- ]\d{3}[- ]\d{4}\b"
_PII_SQL = f"""
WITH s AS (
  SELECT doc_id,
    'contact ' || source || '@example.com from 10.0.' ||
    CAST(doc_id % 256 AS VARCHAR) || '.' ||
    CAST((doc_id * 7) % 256 AS VARCHAR) ||
    ' call 555-123-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ||
    ' ' || text AS t
  FROM documents)
SELECT doc_id,
  len(regexp_extract_all(t, '{_PII_EMAIL}'))::BIGINT AS n_emails,
  len(regexp_extract_all(t, '{_PII_IP}'))::BIGINT AS n_ipv4,
  len(regexp_extract_all(t, '{_PII_PHONE}'))::BIGINT AS n_phones,
  regexp_replace(regexp_replace(regexp_replace(t,
      '{_PII_EMAIL}', '<EMAIL>', 'g'),
      '{_PII_IP}', '<IP>', 'g'),
      '{_PII_PHONE}', '<PHONE>', 'g') AS clean_text
FROM s ORDER BY doc_id
"""

# simple alnum tokenizer shared by the repetition / exact-jaccard
# oracles (mirrors ops.dedup._token_ids_flat: lowercase, split on
# non-[a-z0-9], drop empties)
_ALNUM_TOKS = ("list_filter(regexp_split_to_array(lower(coalesce(text, '')),"
               " '[^a-z0-9]+'), x -> len(x) > 0)")


def _pagerank_sql(n_iter: int = 10) -> str:
    """PageRank oracle: one (dangling-mass, scatter-sum, update) CTE
    triple per iteration, same derived edges as the entry."""
    parts = [
        "n AS (SELECT count(*)::BIGINT AS cnt FROM documents)",
        "v AS (SELECT doc_id AS node FROM documents)",
        """e AS MATERIALIZED (
  SELECT doc_id AS src,
         (doc_id * 2654435761 + 7) % (SELECT cnt FROM n) AS dst
  FROM documents WHERE doc_id % 10 <> 0
  UNION ALL
  SELECT doc_id, (doc_id * 40503 + 13) % (SELECT cnt FROM n)
  FROM documents WHERE doc_id % 10 <> 0)""",
        "od AS MATERIALIZED (SELECT src, count(*)::DOUBLE AS deg FROM e GROUP BY src)",
        "r0 AS MATERIALIZED (SELECT node, 1.0 / (SELECT cnt FROM n) AS r FROM v)"]
    for k in range(n_iter):
        parts.append(
            f"dm{k} AS MATERIALIZED (SELECT coalesce(sum(r), 0) AS m "
            f"FROM r{k} "
            f"LEFT JOIN od ON r{k}.node = od.src WHERE od.src IS NULL)")
        parts.append(
            f"s{k} AS MATERIALIZED (SELECT e.dst AS node, "
            f"sum(r{k}.r / od.deg) AS s\n"
            f" FROM e JOIN od USING (src) JOIN r{k} ON r{k}.node = e.src\n"
            f" GROUP BY e.dst)")
        parts.append(
            f"r{k + 1} AS MATERIALIZED (SELECT v.node,\n"
            f" (1.0 - 0.85) / (SELECT cnt FROM n)\n"
            f" + 0.85 * (coalesce(s{k}.s, 0)\n"
            f"           + (SELECT m FROM dm{k})"
            f" / (SELECT cnt FROM n)) AS r\n"
            f" FROM v LEFT JOIN s{k} USING (node))")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node AS doc_id, round(r, 8) AS rank"
              f" FROM r{n_iter} ORDER BY node")


def _hits_sql(n_iter: int = 5) -> str:
    """HITS oracle: per round one (authority-raw, max, normalize,
    hub-raw, max, normalize) CTE family over the same derived edges as
    _pagerank_sql; each raw score LEFT-JOINs the all-nodes view so the
    max runs over the identical zero-padded set as the engine's
    baseline union."""
    parts = [
        "n AS (SELECT count(*)::BIGINT AS cnt FROM documents)",
        "v AS (SELECT doc_id AS node FROM documents)",
        """e AS MATERIALIZED (
  SELECT doc_id AS src,
         (doc_id * 2654435761 + 7) % (SELECT cnt FROM n) AS dst
  FROM documents WHERE doc_id % 10 <> 0
  UNION ALL
  SELECT doc_id, (doc_id * 40503 + 13) % (SELECT cnt FROM n)
  FROM documents WHERE doc_id % 10 <> 0)""",
        "h0 AS MATERIALIZED (SELECT node, 1.0 AS s FROM v)"]
    for k in range(n_iter):
        parts.append(
            f"ar{k} AS MATERIALIZED (SELECT v.node, coalesce(x.s, 0) AS s\n"
            f" FROM v LEFT JOIN (SELECT e.dst AS node, sum(h{k}.s) AS s\n"
            f"   FROM e JOIN h{k} ON h{k}.node = e.src GROUP BY e.dst) x\n"
            f" USING (node))")
        parts.append(f"am{k} AS (SELECT max(s) AS m FROM ar{k})")
        parts.append(
            f"a{k + 1} AS MATERIALIZED (SELECT node,\n"
            f" CASE WHEN (SELECT m FROM am{k}) > 0\n"
            f"      THEN s / (SELECT m FROM am{k}) ELSE s END AS s\n"
            f" FROM ar{k})")
        parts.append(
            f"hr{k} AS MATERIALIZED (SELECT v.node, coalesce(x.s, 0) AS s\n"
            f" FROM v LEFT JOIN (SELECT e.src AS node, sum(a{k + 1}.s) AS s\n"
            f"   FROM e JOIN a{k + 1} ON a{k + 1}.node = e.dst"
            f" GROUP BY e.src) x\n"
            f" USING (node))")
        parts.append(f"hm{k} AS (SELECT max(s) AS m FROM hr{k})")
        parts.append(
            f"h{k + 1} AS MATERIALIZED (SELECT node,\n"
            f" CASE WHEN (SELECT m FROM hm{k}) > 0\n"
            f"      THEN s / (SELECT m FROM hm{k}) ELSE s END AS s\n"
            f" FROM hr{k})")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT h{n_iter}.node AS doc_id,"
              f" round(h{n_iter}.s, 8) AS hub,"
              f" round(a{n_iter}.s, 8) AS authority"
              f"\nFROM h{n_iter} JOIN a{n_iter} USING (node)"
              f" ORDER BY doc_id")


def _ngram_rep_sql(top_ns=(2, 3, 4), dup_ns=(5, 6, 7, 8, 9, 10)) -> str:
    """Gopher rules 5-8 oracle, one CTE family per n: grams via list
    slicing + lateral position series, top = per-doc max of
    count * (strlen(joined) - (n-1) separators) == token bytes; dup =
    distinct token positions covered by rn>1 occurrences."""
    ctes = [f"d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents)",
            "tk AS (SELECT doc_id, unnest(toks) AS term,\n"
            "              generate_subscripts(toks, 1) AS ord FROM d)",
            "tc AS (SELECT doc_id, sum(strlen(term))::BIGINT AS tot\n"
            "       FROM tk GROUP BY doc_id)"]
    cols = ["d.doc_id", "coalesce(tc.tot, 0)::BIGINT AS n_token_chars"]
    joins = ["LEFT JOIN tc USING (doc_id)"]
    for n in top_ns:
        ctes.append(f"""g{n} AS (SELECT d.doc_id, u.s,
        array_to_string(d.toks[u.s : u.s + {n - 1}], chr(31)) AS g
 FROM d, LATERAL (SELECT unnest(generate_series(
        1, len(d.toks) - {n} + 1)) AS s) u)""")
        ctes.append(f"""t{n} AS (SELECT doc_id,
        max(cnt * (strlen(g) - {n - 1}))::DOUBLE AS best
 FROM (SELECT doc_id, g, count(*)::BIGINT AS cnt
       FROM g{n} GROUP BY 1, 2) GROUP BY doc_id)""")
        cols.append(f"round(coalesce(t{n}.best, 0)"
                    f" / greatest(coalesce(tc.tot, 0), 1)::DOUBLE,"
                    f" 4) AS top_{n}gram_char_frac")
        joins.append(f"LEFT JOIN t{n} USING (doc_id)")
    for n in dup_ns:
        ctes.append(f"""r{n} AS (SELECT doc_id, s, row_number() OVER (
        PARTITION BY doc_id,
        array_to_string(toks_sl, chr(31)) ORDER BY s) AS rn
 FROM (SELECT d.doc_id, u.s, d.toks[u.s : u.s + {n - 1}] AS toks_sl
       FROM d, LATERAL (SELECT unnest(generate_series(
             1, len(d.toks) - {n} + 1)) AS s) u))""")
        ctes.append(f"""c{n} AS (SELECT DISTINCT doc_id, s + v.j AS pos
 FROM (SELECT doc_id, s FROM r{n} WHERE rn > 1),
      LATERAL (SELECT unnest(generate_series(0, {n - 1})) AS j) v)""")
        ctes.append(f"""x{n} AS (SELECT c.doc_id,
        sum(strlen(tk.term))::DOUBLE AS dc
 FROM c{n} c JOIN tk ON tk.doc_id = c.doc_id AND tk.ord = c.pos
 GROUP BY 1)""")
        cols.append(f"round(coalesce(x{n}.dc, 0)"
                    f" / greatest(coalesce(tc.tot, 0), 1)::DOUBLE,"
                    f" 4) AS dup_{n}gram_char_frac")
        joins.append(f"LEFT JOIN x{n} USING (doc_id)")
    return ("WITH " + ",\n".join(ctes) + "\nSELECT "
            + ",\n       ".join(cols) + "\nFROM d "
            + " ".join(joins) + "\nORDER BY d.doc_id")

_REPETITION_SQL = f"""
WITH t AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
b AS (SELECT doc_id, len(toks)::BIGINT AS n_tokens,
             len(list_distinct(toks))::BIGINT AS n_distinct_tokens,
             CASE WHEN len(toks) >= 2
                  THEN [toks[i] || ' ' || toks[i+1]
                        FOR i IN range(1, len(toks))]
                  ELSE [] END AS bgs
      FROM t),
c AS (SELECT doc_id, bg, count(*) AS c
      FROM (SELECT doc_id, unnest(bgs) AS bg FROM b) GROUP BY doc_id, bg),
m AS (SELECT doc_id, max(c) AS top FROM c GROUP BY doc_id)
SELECT b.doc_id, n_tokens, n_distinct_tokens,
  round(CASE WHEN n_tokens > 0
             THEN CAST(n_distinct_tokens AS DOUBLE) / n_tokens
             ELSE 0.0 END, 6) AS ttr,
  COALESCE(m.top, 0)::BIGINT AS top_bigram_count,
  round(CASE WHEN len(bgs) > 0
             THEN CAST(COALESCE(m.top, 0) AS DOUBLE) / len(bgs)
             ELSE 0.0 END, 6) AS top_bigram_frac
FROM b LEFT JOIN m ON b.doc_id = m.doc_id ORDER BY b.doc_id
"""

# exact k=3 shingle-set Jaccard join at threshold 0.5 (the DuckDB side
# is the plain all-pairs definition; the Ray side reaches the same rows
# through prefix-filtered candidates + exact verification). The pair
# CTE is shared with the dedup_clusters oracle below.
_NGRAM_PAIRS_CTE = f"""
t AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
s AS (SELECT doc_id,
             CASE WHEN len(toks) >= 3
                  THEN list_distinct([toks[i] || ' ' || toks[i+1] || ' '
                                      || toks[i+2]
                                      FOR i IN range(1, len(toks) - 1)])
                  ELSE [] END AS sh
      FROM t),
p AS (SELECT a.doc_id AS a, b.doc_id AS b,
             len(list_intersect(a.sh, b.sh)) AS inter,
             len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS uni
      FROM s a JOIN s b ON a.doc_id < b.doc_id
      WHERE len(a.sh) > 0 AND len(b.sh) > 0),
dup_pairs AS (SELECT a, b, CAST(inter AS DOUBLE) / uni AS jac
              FROM p WHERE CAST(inter AS DOUBLE) / uni >= 0.5)
"""

_NGRAM_EXACT_SQL = f"""
WITH {_NGRAM_PAIRS_CTE}
SELECT a, b, round(jac, 6) AS jaccard FROM dup_pairs ORDER BY a, b
"""

# transitive closure of the exact near-dup pairs: every doc labeled with
# the minimum reachable doc_id (the Ray side converges by min-label
# propagation; SQL states the fixpoint directly as a recursive CTE)
_CLUSTERS_SQL = f"""
WITH RECURSIVE {_NGRAM_PAIRS_CTE},
edges AS (SELECT a AS x, b AS y FROM dup_pairs
          UNION SELECT b, a FROM dup_pairs),
reach(x, y) AS (SELECT x, y FROM edges
                UNION
                SELECT r.x, e.y FROM reach r JOIN edges e ON r.y = e.x),
mins AS (SELECT x, min(y) AS m FROM reach GROUP BY x)
SELECT d.doc_id,
       least(d.doc_id, COALESCE(mins.m, d.doc_id))::BIGINT AS cluster_id
FROM documents d LEFT JOIN mins ON mins.x = d.doc_id
ORDER BY d.doc_id
"""

# every length-30 char window as a gram; pairs = docs sharing any gram
# (documents are ASCII in this corpus, so char windows == byte windows)
_SUBSTRING_EXACT_SQL = """
WITH grams AS (
  SELECT doc_id, substr(text, CAST(i AS INT), 30) AS g
  FROM documents,
       LATERAL (SELECT unnest(generate_series(
                    1, greatest(length(text) - 29, 0))) AS i) t
)
SELECT g1.doc_id AS a, g2.doc_id AS b
FROM grams g1 JOIN grams g2 ON g1.g = g2.g AND g1.doc_id < g2.doc_id
GROUP BY 1, 2
ORDER BY 1, 2
"""

_EMB_EXACT_SQL = """
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
           FROM embeddings)
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.e, b.e), 6) AS cosine
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.e, b.e) >= 0.3
ORDER BY a, b
"""


def _lang_id_sql() -> str:
    """Marker-vote language id in SQL, generated from the SAME marker
    constants as the Ray op (identical regex alternations; both engines
    run RE2, so match semantics agree)."""
    from mircv_ray.ops.textops import _LANGS
    vote_cols = ",\n    ".join(
        "len(regexp_extract_all(lower(text), '\\b("
        + "|".join(sorted(markers)) + ")\\b'))::BIGINT AS c_" + name
        for name, markers in _LANGS)
    names = [name for name, _ in _LANGS]
    m = "greatest(" + ", ".join(f"c_{n}" for n in names) + ")"
    n_max = " + ".join(f"(c_{n} = m)::INT" for n in names)
    first_max = " ".join(f"WHEN c_{n} = m THEN '{n}'" for n in names[:-1])
    return f"""
WITH v AS (
  SELECT doc_id,
    {vote_cols}
  FROM documents),
g AS (SELECT doc_id, {", ".join("c_" + n for n in names)}, {m} AS m FROM v)
SELECT doc_id,
       CASE WHEN m = 0 THEN 'unknown'
            WHEN {n_max} > 1 THEN 'unknown'
            {first_max}
            ELSE '{names[-1]}' END AS lang_pred,
       m AS lang_votes
FROM g ORDER BY doc_id
"""


# 64-bit polynomial fingerprint in SQL. documents.text is ASCII in every
# sf table (asserted by the ord()==byte assumption here; the Ray op
# hashes UTF-8 bytes and is general).
_FINGERPRINT_SQL = """
WITH RECURSIVE pw(k, p) AS (
  SELECT 0, CAST(1 AS HUGEINT)
  UNION ALL
  SELECT k + 1, (p * 1099511628211) % 18446744073709551616::HUGEINT
  FROM pw WHERE k < (SELECT coalesce(max(length(text)), 1) FROM documents)
),
ch0 AS (
  SELECT doc_id, unnest(range(1, length(text) + 1)) AS i,
         length(text) AS n, text
  FROM documents
),
ch AS (
  SELECT doc_id, i, ord(substr(text, i::INT, 1))::HUGEINT AS b, n
  FROM ch0
),
s AS (
  SELECT ch.doc_id,
         sum((ch.b * pw.p) % 18446744073709551616::HUGEINT)
           % 18446744073709551616::HUGEINT AS v
  FROM ch JOIN pw ON pw.k = ch.n - ch.i
  GROUP BY ch.doc_id
)
SELECT d.doc_id,
       CAST(CASE WHEN s.v IS NULL THEN 0
                 WHEN s.v >= 9223372036854775808::HUGEINT
                   THEN s.v - 18446744073709551616::HUGEINT
                 ELSE s.v END AS BIGINT) AS fingerprint
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
ORDER BY d.doc_id
"""


_SOURCE_QUOTA_SQL = r"""
WITH c AS (SELECT doc_id, source,
                  len(regexp_extract_all(text,
                      '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))::BIGINT AS n_tokens
           FROM documents),
w AS (SELECT doc_id, source, n_tokens,
             sum(n_tokens) OVER (PARTITION BY source ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum_tokens
      FROM c)
SELECT doc_id, source, n_tokens, cum_tokens::BIGINT AS cum_tokens
FROM w WHERE cum_tokens <= 800 ORDER BY doc_id
"""


def oracle_sql() -> dict[str, str]:
    # MMR greedy selection unrolled to 5 CTE stages (the SQL mirror of
    # ops/similarity.py mmr_rerank's loop): cand = cosine top-20 per
    # query; each stage picks argmax 0.7*rel - (1.0-0.7)*max(psim to
    # the picked set), ties by vec_id; (1.0-0.7) is written out so the
    # 1-lam double is bit-identical to the engine's
    mmr_steps = []
    for i in range(2, 6):
        mmr_steps.append(f"""
d{i} AS (SELECT c.query_id, c.vec_id, c.rel, max(p.psim) AS div
       FROM cand c
       JOIN pair p ON p.query_id = c.query_id AND p.va = c.vec_id
       JOIN picked{i - 1} s ON s.query_id = p.query_id
                           AND s.vec_id = p.vb
       LEFT JOIN picked{i - 1} x ON x.query_id = c.query_id
                                AND x.vec_id = c.vec_id
       WHERE x.vec_id IS NULL
       GROUP BY c.query_id, c.vec_id, c.rel),
sel{i} AS (SELECT query_id, vec_id, mmr FROM (
  SELECT query_id, vec_id, 0.7 * rel - (1.0 - 0.7) * div AS mmr,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY 0.7 * rel - (1.0 - 0.7) * div DESC,
                                     vec_id) AS rn
  FROM d{i}) WHERE rn = 1),
picked{i} AS (SELECT query_id, vec_id FROM picked{i - 1}
              UNION ALL SELECT query_id, vec_id FROM sel{i})""")
    mmr_union = "\n  UNION ALL ".join(
        f"SELECT query_id, {i} AS rank, vec_id, mmr FROM sel{i}"
        for i in range(1, 6))
    mmr_sql = f"""
WITH q AS (SELECT vec_id AS qv, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings WHERE vec_id IN (0, 1, 2)),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
sims AS (SELECT q.qv AS query_id, e.vec_id,
                list_cosine_similarity(q.qe, e.emb) AS rel
         FROM q CROSS JOIN e),
cand AS (SELECT query_id, vec_id, rel FROM (
  SELECT query_id, vec_id, rel,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rel DESC, vec_id) AS rn
  FROM sims) WHERE rn <= 20),
pair AS (SELECT a.query_id, a.vec_id AS va, b.vec_id AS vb,
                list_cosine_similarity(ea.emb, eb.emb) AS psim
         FROM cand a
         JOIN cand b ON a.query_id = b.query_id AND a.vec_id <> b.vec_id
         JOIN e ea ON ea.vec_id = a.vec_id
         JOIN e eb ON eb.vec_id = b.vec_id),
sel1 AS (SELECT query_id, vec_id, 0.7 * rel AS mmr FROM (
  SELECT query_id, vec_id, rel,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY 0.7 * rel DESC, vec_id) AS rn
  FROM cand) WHERE rn = 1),
picked1 AS (SELECT query_id, vec_id FROM sel1),{",".join(mmr_steps)}
SELECT query_id, rank, vec_id, round(mmr, 6) AS score FROM (
  {mmr_union})
ORDER BY query_id, rank
"""
    ann_sql = """
WITH q AS (SELECT vec_id AS qv, embedding AS qe FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
s AS (SELECT q.qv AS query_id, e.vec_id,
             list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                    CAST(e.embedding AS DOUBLE[])) AS sim
      FROM q CROSS JOIN embeddings e)
SELECT query_id, vec_id, round(sim, 6) AS score FROM (
  SELECT query_id, vec_id, sim,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY sim DESC, vec_id) AS rn
  FROM s) WHERE rn <= 10
"""
    return {
        "doc_stats": f"""
WITH {_TOKS_CTE}
SELECT (SELECT count(*) FROM docs) AS n_docs,
       (SELECT count(*) FROM tok) AS total_tokens
""",
        "doc_lengths": f"""
WITH {_TOKS_CTE}
SELECT d.doc_id, count(t.term) AS doc_len
FROM docs d LEFT JOIN tok t ON d.doc_id = t.doc_id
GROUP BY d.doc_id
""",
        "term_df": f"""
WITH {_TOKS_CTE}
SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
""",
        "lexicon": f"""
WITH {_TOKS_CTE},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, df,
       round(log10((SELECT count(*) FROM docs)::DOUBLE / df), 6) AS idf
FROM df
""",
        "top_terms": f"""
WITH {_TOKS_CTE},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, df FROM df ORDER BY df DESC, term LIMIT 50
""",
        "postings": f"""
WITH {_TOKS_CTE}
SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id
""",
        # re-layout is data-invisible: the resharded store must equal
        # the SAME logical postings as the source index
        "resharded_postings": f"""
WITH {_TOKS_CTE}
SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id
""",
        # pruning keeps exactly the champion criterion per term
        "pruned_postings": f"""
WITH {_TOKS_CTE},
p AS (SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id),
r AS (SELECT term, doc_id, tf,
             row_number() OVER (PARTITION BY term
                                ORDER BY tf DESC, doc_id) AS rn
      FROM p)
SELECT term, doc_id, tf FROM r WHERE rn <= 5 ORDER BY term, doc_id
""",
        "champion_lists": f"""
WITH {_TOKS_CTE},
p AS (SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id),
r AS (SELECT term, doc_id, tf,
             row_number() OVER (PARTITION BY term
                                ORDER BY tf DESC, doc_id) AS rn
      FROM p)
SELECT term, doc_id, tf FROM r WHERE rn <= 3 ORDER BY term, doc_id
""",
        # incremental merge must reproduce the full-corpus postings
        "merge_postings": f"""
WITH {_TOKS_CTE}
SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id
""",
        # upsert: unchanged docs at their docnos, each upserted key's new
        # version (text + ' upserted edition') at a post-base docno in
        # doc_id order; superseded old rows invisible
        "upsert_postings": f"""
WITH up AS (SELECT doc_id, text || ' upserted edition' AS text
            FROM documents WHERE doc_id % 10 = 3),
upn AS (SELECT (SELECT count(*) FROM documents)
               + row_number() OVER (ORDER BY doc_id) - 1 AS doc_id, text
        FROM up),
allv AS (SELECT doc_id, text FROM documents WHERE doc_id % 10 <> 3
         UNION ALL SELECT doc_id, text FROM upn),
{_toks_cte_over("SELECT doc_id, text FROM allv")}
SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id
""",
        # tombstoned docs (doc_id % 7 = 0) drop out of the dump view
        "delete_postings": f"""
WITH {_TOKS_CTE}
SELECT term, doc_id, count(*) AS tf FROM tok
WHERE doc_id % 7 <> 0 GROUP BY term, doc_id
""",
        # vacuum renumbers survivors densely: docno = rank among them
        "vacuum_postings": f"""
WITH {_TOKS_CTE},
surv AS (SELECT doc_id, row_number() OVER (ORDER BY doc_id) - 1 AS new_id
         FROM docs WHERE doc_id % 7 <> 0)
SELECT t.term, s.new_id AS doc_id, count(*) AS tf
FROM tok t JOIN surv s ON t.doc_id = s.doc_id
GROUP BY t.term, s.new_id
""",
        "bm25_topk": _topk_sql(_BM25_EXPR),
        # federated == monolithic: the partitioned scatter-gather with
        # global stats must reproduce the single-index ranking, so its
        # oracle IS the monolithic BM25 SQL
        "federated_bm25": _topk_sql(_BM25_EXPR),
        # per-term breakdown of each query's top-1 BM25 doc: the same
        # scoring CTEs, rn=1, then one row per distinct query term
        # present in that doc
        "score_explain": f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM docs) AS n,
                 (SELECT count(*) FROM tok)::DOUBLE
                 / (SELECT count(*) FROM docs) AS avgdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scores AS (
  SELECT q.qid, tf.doc_id,
         sum({_BM25_EXPR}) AS score
  FROM q
  JOIN df ON df.term = q.term
  JOIN tf ON tf.term = q.term
  JOIN doclen dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id),
top1 AS (SELECT qid, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn = 1),
qd AS (SELECT DISTINCT qid, term FROM q)
SELECT t1.qid, t1.doc_id, qd.term, tf.tf, df.df,
       round(log10(s.n / df.df), 6) AS idf,
       round({_BM25_EXPR}, 6) AS contribution
FROM top1 t1
JOIN qd ON qd.qid = t1.qid
JOIN df ON df.term = qd.term
JOIN tf ON tf.term = qd.term AND tf.doc_id = t1.doc_id
JOIN doclen dl ON dl.doc_id = t1.doc_id
CROSS JOIN stats s
ORDER BY t1.qid, qd.term
""",
        "tfidf_topk": _topk_sql(_TFIDF_EXPR),
        # BM25F: body + title(=substr 40) fields, each through the
        # identical tokenizer CTE pair; tfx combines per-field
        # normalized tf BEFORE saturation (body first — the engine's
        # accumulation order), df = docs with the term in ANY field;
        # constants written so 1.0-0.75 / 1.0-0.5 are the engine's
        # exact doubles
        "bm25f_topk": f"""
WITH {_TOKS_CTE},
{_toks_cte_over("SELECT doc_id, substr(text, 1, 40) AS text "
                "FROM documents", "_t")},
{_values_clause()},
dlb AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
dlt AS (SELECT doc_id, count(*) AS dl FROM tok_t GROUP BY doc_id),
sb AS (SELECT (SELECT count(*) FROM docs) AS n,
              (SELECT count(*) FROM tok)::DOUBLE
              / (SELECT count(*) FROM docs) AS avgdl),
st AS (SELECT (SELECT count(*) FROM tok_t)::DOUBLE
              / (SELECT count(*) FROM docs_t) AS avgdl),
tfb AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
tft AS (SELECT doc_id, term, count(*) AS tf FROM tok_t
        GROUP BY doc_id, term),
pres AS (SELECT term, doc_id FROM tfb
         UNION SELECT term, doc_id FROM tft),
df AS (SELECT term, count(*) AS df FROM pres GROUP BY term),
cand AS (SELECT q.qid, q.term, p.doc_id
         FROM q JOIN pres p ON p.term = q.term),
contrib AS (
  SELECT c.qid, c.doc_id,
         1.0 * COALESCE(tb.tf, 0)::DOUBLE
             / ((1.0 - 0.75) + 0.75 * (db.dl::DOUBLE / sb.avgdl))
         + 2.0 * COALESCE(tt.tf, 0)::DOUBLE
             / ((1.0 - 0.5) + 0.5 * (COALESCE(dt.dl, 0)::DOUBLE
                                     / st.avgdl)) AS tfx,
         df.df AS df, sb.n AS n
  FROM cand c
  JOIN df ON df.term = c.term
  LEFT JOIN tfb tb ON tb.term = c.term AND tb.doc_id = c.doc_id
  LEFT JOIN tft tt ON tt.term = c.term AND tt.doc_id = c.doc_id
  JOIN dlb db ON db.doc_id = c.doc_id
  LEFT JOIN dlt dt ON dt.doc_id = c.doc_id
  CROSS JOIN sb CROSS JOIN st),
scores AS (
  SELECT qid, doc_id,
         sum(tfx / (1.5 + tfx) * log10(n::DOUBLE / df)) AS score
  FROM contrib GROUP BY qid, doc_id)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM scores) WHERE rn <= 10
""",
        "phrase_search": _phrase_sql(),
        "phrase_search_positional": _phrase_sql(),
        "proximity_search": _proximity_sql(),
        "snippet_search": _snippet_sql(),
        "bm25_prf": _prf_sql(),
        "fuzzy_bm25": _fuzzy_sql(),
        "seq_packing": _packing_sql(),
        # adjacent-bigram PMI over the alnum token stream; float eval
        # order matches ops/collocations._pmi_table exactly
        "collocations": f"""
WITH d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
tk AS (SELECT doc_id, unnest(toks) AS term,
              generate_subscripts(toks, 1) AS ord FROM d),
bg AS (SELECT a.term AS term_a, b.term AS term_b
       FROM tk a JOIN tk b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1),
u AS (SELECT term, count(*)::BIGINT AS c FROM tk GROUP BY term),
tt AS (SELECT sum(c)::DOUBLE AS n FROM u),
p AS (SELECT term_a, term_b, count(*)::BIGINT AS c_ab
      FROM bg GROUP BY 1, 2),
bt AS (SELECT sum(c_ab)::DOUBLE AS n FROM p)
SELECT p.term_a, p.term_b, p.c_ab AS pair_count,
       round(log10((p.c_ab * (SELECT n FROM tt) * (SELECT n FROM tt)) /
             ((SELECT n FROM bt) * ua.c * ub.c)), 4) AS pmi
FROM p JOIN u ua ON ua.term = p.term_a JOIN u ub ON ub.term = p.term_b
WHERE p.c_ab >= 5 ORDER BY term_a, term_b
""",
        "wildcard_infix_bm25": _infix_sql(),
        "facet_search": _facet_sql(),
        "boolean_not": _boolean_sql(),
        "phrase_bm25": _phrase_bm25_sql(),
        "more_like_this": _mlt_sql(),
        "wildcard_bm25": _wildcard_sql(),
        "hybrid_rrf": _hybrid_rrf_sql(),
        "hybrid_combmnz": _hybrid_combmnz_sql(),
        "ltr_features": _ltr_sql(),
        "doc_chunks": r"""
WITH d AS (SELECT doc_id,
                  list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                              w -> w <> '') AS toks
           FROM documents),
c AS (SELECT doc_id, toks, v.s AS start
      FROM d, LATERAL (SELECT unnest(generate_series(
               0, len(toks) - 1, 25)) AS s) v
      WHERE len(toks) > 0)
SELECT doc_id, start // 25 AS chunk_id, start,
       least(40, len(toks) - start) AS n_tokens,
       array_to_string(toks[start + 1 : least(start + 40, len(toks))],
                       ' ') AS text
FROM c ORDER BY doc_id, chunk_id
""",
        "passage_maxp": _passage_maxp_sql(),
        "dedup_exact": """
SELECT min(doc_id) AS keep_id, count(*) AS n_dups
FROM documents GROUP BY text
ORDER BY keep_id
""",
        "token_count": r"""
SELECT doc_id,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))::BIGINT
         AS n_tokens
FROM documents
""",
        "quality_stats": """
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       (length(text) - length(regexp_replace(text, '[[:punct:]]', '', 'g')))::BIGINT AS n_punct,
       (length(text) - length(regexp_replace(text, '[0-9]', '', 'g')))::BIGINT AS n_digits,
       (length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')))::BIGINT AS n_upper,
       (length(text) - length(regexp_replace(text, ' ', '', 'g')))::BIGINT AS n_spaces
FROM documents
""",
        "char_entropy": """
WITH ch AS (
  SELECT d.doc_id, t.c
  FROM (SELECT doc_id, regexp_split_to_array(coalesce(text,''), '') AS cs
        FROM documents) d, UNNEST(d.cs) AS t(c)
  WHERE t.c <> ''),
e AS (SELECT doc_id, count(*)::BIGINT AS n_chars, entropy(c) AS ent
      FROM ch GROUP BY doc_id)
SELECT d.doc_id, coalesce(e.n_chars, 0)::BIGINT AS n_chars,
       round(coalesce(e.ent, 0.0), 4) AS char_entropy
FROM documents d LEFT JOIN e USING (doc_id)
ORDER BY doc_id
""",
        # DSIR log-likelihood-ratio weights, unhashed unigram features:
        # add-one-smoothed token models target (lang='en') vs raw, per-doc
        # sum of per-token log10 ratios, round-4 (float sums associate
        # differently across engines)
        "dsir_weights_exact": f"""
WITH tk AS (
  SELECT d.doc_id, d.lang, t.term FROM (
    SELECT doc_id, lang, {_ALNUM_TOKS} AS toks FROM documents) d,
  UNNEST(d.toks) AS t(term)),
f AS (SELECT term, count(*)::BIGINT AS c_all,
             sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS c_tgt
      FROM tk GROUP BY term),
g AS (SELECT (SELECT count(*) FROM f)::DOUBLE AS v,
             (SELECT sum(c_all) FROM f)::DOUBLE AS n_all,
             (SELECT sum(c_tgt) FROM f)::DOUBLE AS n_tgt),
r AS (SELECT term,
             log10(c_tgt + 1.0) - log10(n_tgt + v)
           - log10(c_all + 1.0) + log10(n_all + v) AS lr
      FROM f, g),
s AS (SELECT tk.doc_id, sum(r.lr) AS w, count(*)::BIGINT AS n_tokens
      FROM tk JOIN r USING (term) GROUP BY tk.doc_id)
SELECT d.doc_id, coalesce(s.n_tokens, 0)::BIGINT AS n_tokens,
       round(coalesce(s.w, 0.0), 4) AS log_weight
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
ORDER BY d.doc_id
""",
        # the dsir_weights_exact CTEs + the Efraimidis-Spirakis key:
        # u from the knuth32 hash of doc_id, key = log10(-ln(u)) -
        # log_weight, rounded 6 BEFORE ranking on both sides (the engine
        # ranks the identical rounded doubles); ties by doc_id
        "dsir_resample": f"""
WITH tk AS (
  SELECT d.doc_id, d.lang, t.term FROM (
    SELECT doc_id, lang, {_ALNUM_TOKS} AS toks FROM documents) d,
  UNNEST(d.toks) AS t(term)),
f AS (SELECT term, count(*)::BIGINT AS c_all,
             sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS c_tgt
      FROM tk GROUP BY term),
g AS (SELECT (SELECT count(*) FROM f)::DOUBLE AS v,
             (SELECT sum(c_all) FROM f)::DOUBLE AS n_all,
             (SELECT sum(c_tgt) FROM f)::DOUBLE AS n_tgt),
r AS (SELECT term,
             log10(c_tgt + 1.0) - log10(n_tgt + v)
           - log10(c_all + 1.0) + log10(n_all + v) AS lr
      FROM f, g),
s AS (SELECT tk.doc_id, sum(r.lr) AS w
      FROM tk JOIN r USING (term) GROUP BY tk.doc_id),
lw AS (SELECT d.doc_id, round(coalesce(s.w, 0.0), 4) AS log_weight
       FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id),
k AS (SELECT doc_id, log_weight,
             round(log10(-ln((((doc_id * 2654435761) % 4294967296)::DOUBLE
                              + 0.5) / 4294967296.0))
                   - log_weight, 6) AS sample_key
      FROM lw),
rk AS (SELECT doc_id, log_weight, sample_key,
              row_number() OVER (ORDER BY sample_key, doc_id)
                  AS sample_rank
       FROM k)
SELECT doc_id, log_weight, sample_key, sample_rank
FROM rk WHERE sample_rank <= 100 ORDER BY sample_rank
""",
        # same entropy expression, then SQL ntile over (score, doc_id) —
        # the Ray side stamps the closed-form ntile of the exact global
        # rank after a range-partitioned sort
        "quality_deciles": """
WITH ch AS (
  SELECT d.doc_id, t.c
  FROM (SELECT doc_id, regexp_split_to_array(coalesce(text,''), '') AS cs
        FROM documents) d, UNNEST(d.cs) AS t(c)
  WHERE t.c <> ''),
e AS (SELECT doc_id, entropy(c) AS ent FROM ch GROUP BY doc_id),
s AS (SELECT d.doc_id,
             round(coalesce(e.ent, 0.0), 4) AS char_entropy
      FROM documents d LEFT JOIN e USING (doc_id))
SELECT doc_id, char_entropy,
       ntile(10) OVER (ORDER BY char_entropy, doc_id)::BIGINT AS decile
FROM s ORDER BY doc_id
""",
        "knn_graph_exact": """
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
           FROM embeddings),
s AS (SELECT a.vec_id AS src, b.vec_id AS dst,
             list_cosine_similarity(a.e, b.e) AS cos
      FROM n a JOIN n b ON a.vec_id <> b.vec_id),
r AS (SELECT src, dst, cos,
             row_number() OVER (PARTITION BY src
                                ORDER BY cos DESC, dst) AS rn
      FROM s)
SELECT src, dst, round(cos, 6) AS cosine
FROM r WHERE rn <= 5 ORDER BY src, dst
""",
        "ann_cosine_topk": ann_sql,
        "ann_cosine_topk_ivf": ann_sql,
        "mmr_diversified": mmr_sql,
        "dense_prf": """
WITH qv AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
            FROM embeddings WHERE vec_id IN (0, 1, 2)),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
s0 AS (SELECT qv.qid, e.vec_id,
              list_cosine_similarity(e.emb, qv.qe) AS sim
       FROM qv CROSS JOIN e),
fb AS (SELECT qid, vec_id FROM (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY sim DESC, vec_id) AS rn
  FROM s0) WHERE rn <= 5),
cent AS (SELECT f.qid, d.i, avg(e.emb[d.i]) AS c
         FROM fb f
         JOIN e ON e.vec_id = f.vec_id,
         LATERAL (SELECT unnest(generate_series(1, len(e.emb))) AS i) d
         GROUP BY f.qid, d.i),
q2 AS (SELECT c.qid, list(1.0 * qv.qe[c.i] + 0.75 * c.c ORDER BY c.i)
              AS qe2
       FROM cent c JOIN qv ON qv.qid = c.qid GROUP BY c.qid),
s1 AS (SELECT q2.qid, e.vec_id,
              list_cosine_similarity(e.emb, q2.qe2) AS sim
       FROM q2 CROSS JOIN e)
SELECT qid AS query_id, vec_id, round(sim, 6) AS score FROM (
  SELECT qid, vec_id, sim,
         row_number() OVER (PARTITION BY qid
                            ORDER BY sim DESC, vec_id) AS rn
  FROM s1) WHERE rn <= 10
ORDER BY query_id, vec_id
""",
        "props_json": r"""
SELECT event_id,
       CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1) AS BIGINT) AS k
FROM events
""",
        "distinct_users": """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type ORDER BY event_type
""",
        "value_quantiles": """
SELECT event_type,
       round(quantile_cont(value, 0.25), 6) AS p25,
       round(quantile_cont(value, 0.5), 6) AS p50,
       round(quantile_cont(value, 0.75), 6) AS p75,
       round(quantile_cont(value, 0.95), 6) AS p95
FROM events GROUP BY event_type ORDER BY event_type
""",
        # per-event session assignment (the interval-join twin of the
        # sessions aggregate; same gap/window logic, event granularity)
        "event_sessions": """
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS prev_t
  FROM events),
m AS (SELECT user_id, event_id, t,
             CASE WHEN prev_t IS NULL OR t - prev_t > 1800000000
                  THEN 1 ELSE 0 END AS new_sess
      FROM o)
SELECT user_id, event_id, t,
       CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY t, event_id
                                ROWS UNBOUNDED PRECEDING) - 1
            AS BIGINT) AS session_id
FROM m ORDER BY user_id, event_id
""",
        # backward as-of join (eligible = pt <= t; winner = max (pt, pid))
        "asof_purchases": """
WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events),
p AS (SELECT user_id, epoch_us(ts) AS pt, event_id AS pid,
             CAST(round(value * 100) AS BIGINT) AS pcents
      FROM events WHERE event_type = 'purchase')
SELECT e.user_id, e.event_id, e.t,
       arg_max(p.pid,
               p.pt::HUGEINT * 4294967296 + p.pid) AS last_purchase_id,
       max(p.pt) AS last_purchase_t,
       arg_max(p.pcents,
               p.pt::HUGEINT * 4294967296 + p.pid) AS last_purchase_cents
FROM e LEFT JOIN p ON p.user_id = e.user_id AND p.pt <= e.t
GROUP BY e.user_id, e.event_id, e.t
ORDER BY event_id
""",
        "top_users": """
WITH s AS (
  SELECT event_type, user_id,
         CAST(round(sum(value) * 100) AS BIGINT) AS total_cents
  FROM events GROUP BY event_type, user_id),
r AS (
  SELECT event_type, user_id, total_cents,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY total_cents DESC, user_id) AS rank
  FROM s)
SELECT event_type, user_id, rank, total_cents FROM r WHERE rank <= 5
ORDER BY event_type, rank
""",
        "window_agg": """
SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
       event_type,
       count(*)::BIGINT AS n_events,
       SUM(CAST(round(value * 100) AS BIGINT)) AS sum_value_cents
FROM events GROUP BY 1, 2
ORDER BY 1, 2
""",
        # the streaming watermark operator must reproduce the batch
        # tumbling aggregate over a time-ordered feed — same SQL
        "window_agg_streaming": """
SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
       event_type,
       count(*)::BIGINT AS n_events,
       SUM(CAST(round(value * 100) AS BIGINT)) AS sum_value_cents
FROM events GROUP BY 1, 2
ORDER BY 1, 2
""",
        "window_hopping": """
WITH e AS (SELECT epoch_us(ts) AS t, event_type, value FROM events),
w AS (SELECT t, event_type, value, unnest(range(0, 2)) AS j FROM e),
g AS (SELECT (t // 1800000000) * 1800000000 - j * 1800000000
         AS window_start_us, event_type, value FROM w)
SELECT window_start_us, event_type,
       count(*)::BIGINT AS n_events,
       SUM(CAST(round(value * 100) AS BIGINT)) AS sum_value_cents
FROM g GROUP BY 1, 2
ORDER BY 1, 2
""",
        "sessions": _SESSIONS_SQL,
        "sessions_salted": _SESSIONS_SQL,
        "sessions_streaming": _SESSIONS_SQL,
        "lang_id": _lang_id_sql(),
        "fingerprint": _FINGERPRINT_SQL,
        "contamination": (
            "SELECT doc_id,\n       ("
            + " + ".join(f"contains(text, '{p}')::INT" for p in _PROBES)
            + ")::BIGINT AS n_probes_hit,\n       ("
            + " OR ".join(f"contains(text, '{p}')" for p in _PROBES)
            + ") AS contaminated\nFROM documents\nORDER BY doc_id"),
        "contamination_ngram": """
WITH pr AS (
  SELECT substr(text, 1, 40) AS probe
  FROM documents ORDER BY doc_id LIMIT 3
), pr2 AS (
  SELECT probe FROM pr
  UNION ALL SELECT 'quantumzebralatticequantumzebralattice'
), pg AS (
  SELECT DISTINCT substr(probe, CAST(i AS INT), 20) AS gram
  FROM pr2, LATERAL (SELECT unnest(generate_series(
        1, greatest(length(probe) - 19, 0))) AS i) t
  WHERE length(probe) >= 20
), dg AS (
  SELECT doc_id, substr(text, CAST(i AS INT), 20) AS gram
  FROM documents, LATERAL (SELECT unnest(generate_series(
        1, greatest(length(text) - 19, 0))) AS i) t
), m AS (
  SELECT doc_id, COUNT(DISTINCT dg.gram) AS c
  FROM dg JOIN pg USING (gram) GROUP BY 1
)
SELECT d.doc_id,
       COALESCE(m.c, 0) AS n_shared_grams,
       COALESCE(m.c, 0) > 0 AS contaminated
FROM documents d LEFT JOIN m USING (doc_id)
ORDER BY doc_id
""",
        "bm25_topk_maxscore": _topk_sql(_BM25_EXPR),
        "bm25_topk_wand": _topk_sql(_BM25_EXPR),
        "bm25_topk_bmw": _topk_sql(_BM25_EXPR),
        # query-likelihood Dirichlet (mu=2000): per known query term
        # occurrence ln(1 + tf/(mu*cf/T)), plus the per-doc length prior
        # qn*ln(mu/(dl+mu)) — same association order as the engine
        "qld_topk": f"""
WITH {_TOKS_CTE},
{_values_clause()},
doclen AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
tot AS (SELECT count(*)::DOUBLE AS t FROM tok),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
cf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
qn AS (SELECT q.qid, count(*) AS qn
       FROM q JOIN cf ON cf.term = q.term GROUP BY q.qid),
parts AS (
  SELECT q.qid, tf.doc_id,
         sum(ln(1 + tf.tf / (2000.0 * cf.cf / t.t))) AS part
  FROM q
  JOIN cf ON cf.term = q.term
  JOIN tf ON tf.term = q.term
  CROSS JOIN tot t
  GROUP BY q.qid, tf.doc_id),
qscores AS (
  SELECT p.qid, p.doc_id,
         p.part + qn.qn * ln(2000.0 / (dl.dl + 2000.0)) AS score
  FROM parts p
  JOIN doclen dl ON dl.doc_id = p.doc_id
  JOIN qn ON qn.qid = p.qid)
SELECT qid, doc_id, round(score, 6) AS score FROM (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, doc_id) AS rn
  FROM qscores) WHERE rn <= 10
""",
        "bm25_conjunctive_strict": _topk_and_sql(_BM25_EXPR),
        "pii_redact": _PII_SQL,
        "repetition_stats": _REPETITION_SQL,
        "ngram_jaccard_exact": _NGRAM_EXACT_SQL,
        "substring_dup_exact": _SUBSTRING_EXACT_SQL,
        "embedding_near_dups_exact": _EMB_EXACT_SQL,
        # min-id dominance keep: drop iff an earlier id is >= threshold
        "semantic_dedup_exact": """
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
           FROM embeddings),
d AS (SELECT DISTINCT b.vec_id AS v
      FROM n a JOIN n b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.e, b.e) >= 0.3)
SELECT vec_id, vec_id NOT IN (SELECT v FROM d) AS keep
FROM n ORDER BY vec_id
""",
        "dedup_clusters": _CLUSTERS_SQL,
        # corpus-wide duplicate-line removal over the ' merge '->newline
        # view; string_agg skips the NULL-cased dup lines, coalesce
        # covers all-duplicate docs (engine emits '')
        "line_dedup": """
WITH d AS (SELECT doc_id,
                  replace(coalesce(text, ''), ' merge ', chr(10)) AS t
           FROM documents),
l AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line,
             generate_subscripts(string_split(t, chr(10)), 1) AS ord
      FROM d),
c AS (SELECT line, count(*)::BIGINT AS c FROM l GROUP BY line)
SELECT l.doc_id,
       count(*)::BIGINT AS n_lines,
       sum(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup_lines,
       coalesce(string_agg(CASE WHEN c.c < 2 THEN l.line END, chr(10)
                           ORDER BY l.ord), '') AS text_clean
FROM l JOIN c USING (line)
GROUP BY l.doc_id ORDER BY l.doc_id
""",
        # within-doc dup line/para fractions (Gopher rules 1-4) over the
        # two-level ' the '->para-break, ' '->newline view; an occurrence
        # is dup iff an identical element appeared EARLIER in the doc
        # (row_number > 1); strlen = bytes, matching the engine
        "dup_line_stats": """
WITH d AS (SELECT doc_id,
                  replace(replace(coalesce(text, ''), ' the ',
                                  chr(10) || chr(10)),
                          ' ', chr(10)) AS t
           FROM documents),
ln AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS el,
              generate_subscripts(string_split(t, chr(10)), 1) AS ord
       FROM d),
lr AS (SELECT doc_id, el,
              row_number() OVER (PARTITION BY doc_id, el
                                 ORDER BY ord) AS rn FROM ln),
la AS (SELECT doc_id, count(*)::BIGINT AS n,
              sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END)::DOUBLE AS nd,
              sum(strlen(el))::DOUBLE AS tc,
              sum(CASE WHEN rn > 1 THEN strlen(el) ELSE 0
                  END)::DOUBLE AS dc
       FROM lr GROUP BY doc_id),
pn AS (SELECT doc_id,
              unnest(string_split(t, chr(10) || chr(10))) AS el,
              generate_subscripts(string_split(t, chr(10) || chr(10)),
                                  1) AS ord
       FROM d),
pr AS (SELECT doc_id, el,
              row_number() OVER (PARTITION BY doc_id, el
                                 ORDER BY ord) AS rn FROM pn),
pg AS (SELECT doc_id, count(*)::BIGINT AS n,
              sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END)::DOUBLE AS nd,
              sum(strlen(el))::DOUBLE AS tc,
              sum(CASE WHEN rn > 1 THEN strlen(el) ELSE 0
                  END)::DOUBLE AS dc
       FROM pr GROUP BY doc_id)
SELECT d.doc_id,
       la.n AS n_lines,
       round(CASE WHEN la.n > 0 THEN la.nd / la.n ELSE 0 END,
             4) AS dup_line_frac,
       round(CASE WHEN la.tc > 0 THEN la.dc / la.tc ELSE 0 END,
             4) AS dup_line_char_frac,
       pg.n AS n_paras,
       round(CASE WHEN pg.n > 0 THEN pg.nd / pg.n ELSE 0 END,
             4) AS dup_para_frac,
       round(CASE WHEN pg.tc > 0 THEN pg.dc / pg.tc ELSE 0 END,
             4) AS dup_para_char_frac
FROM d JOIN la USING (doc_id) JOIN pg USING (doc_id)
ORDER BY d.doc_id
""",
        # Gopher rules 5-8 over the shared alnum token stream; gram
        # equality by joined token bytes (engine: 64-bit window hash)
        "ngram_repetition": _ngram_rep_sql(),
        # corpus-wide top-50 trigrams: list-slice grams + lateral
        # position series (the _ngram_rep_sql idiom), count, row_number
        # over (count desc, gram asc) — the engine's exact tie rule
        "top_ngrams": f"""
WITH d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
g AS (SELECT array_to_string(d.toks[u.s : u.s + 2], ' ') AS ngram
      FROM d, LATERAL (SELECT unnest(generate_series(
          1, len(d.toks) - 2)) AS s) u),
c AS (SELECT ngram, count(*)::BIGINT AS ngram_count FROM g
      GROUP BY ngram),
r AS (SELECT ngram, ngram_count,
             row_number() OVER (ORDER BY ngram_count DESC, ngram)
                 AS ngram_rank
      FROM c)
SELECT ngram, ngram_count, ngram_rank FROM r
WHERE ngram_rank <= 50 ORDER BY ngram_rank
""",
        # C4 line+doc cleaning rules over the ' dup '->lorem,
        # ' merge '->'.\n' view; word count = maximal non-space/tab runs
        "c4_clean": """
WITH d AS (SELECT doc_id,
   replace(replace(coalesce(text, ''), ' dup ', ' lorem ipsum '),
           ' merge ', '.' || chr(10)) AS t
   FROM documents),
l AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line,
             generate_subscripts(string_split(t, chr(10)), 1) AS ord
      FROM d),
f AS (SELECT doc_id, line, ord,
             ((ends_with(line, '.') OR ends_with(line, '!')
               OR ends_with(line, '?') OR ends_with(line, '"'))
              AND length(list_filter(
                    regexp_split_to_array(line, '[ \t]+'),
                    x -> len(x) > 0)) >= 5
              AND NOT contains(lower(line), 'javascript')) AS ok
      FROM l),
k AS (SELECT f.doc_id, count(*)::BIGINT AS n_lines,
             sum(CASE WHEN ok THEN 1 ELSE 0 END)::BIGINT AS n_kept,
             string_agg(CASE WHEN ok THEN line END, chr(10)
                        ORDER BY ord) AS joined
      FROM f GROUP BY f.doc_id)
SELECT d.doc_id,
       k.n_lines,
       k.n_kept AS n_kept_lines,
       (k.n_kept >= 3 AND NOT contains(lower(d.t), 'lorem ipsum')
        AND NOT contains(d.t, '{')) AS keep,
       CASE WHEN k.n_kept >= 3
                 AND NOT contains(lower(d.t), 'lorem ipsum')
                 AND NOT contains(d.t, '{')
            THEN coalesce(k.joined, '') ELSE '' END AS text_clean
FROM d JOIN k USING (doc_id) ORDER BY d.doc_id
""",
        # windowed co-occurrence: integer pair counts hash-exact; the
        # 1/d weight sums round 4 (identical 1/d doubles both sides)
        "cooccurrence": f"""
WITH d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
tk AS (SELECT doc_id, unnest(toks) AS term,
              generate_subscripts(toks, 1) AS pos FROM d),
p AS (SELECT a.term AS term_a, b.term AS term_b,
             1.0 / (b.pos - a.pos) AS w
      FROM tk a JOIN tk b ON a.doc_id = b.doc_id
           AND b.pos > a.pos AND b.pos <= a.pos + 3)
SELECT term_a, term_b, count(*)::BIGINT AS pair_count,
       round(sum(w), 4) AS glove_weight
FROM p GROUP BY 1, 2 HAVING count(*) >= 2
ORDER BY term_a, term_b
""",
        # PageRank, K unrolled iterations over the same knuth-hash edge
        # derivation (exact BIGINT arithmetic); per-iteration dangling
        # mass + damping formula in the engine's evaluation order;
        # ranks round 8 (float sum-order skew ~1e-16 vs a 1e-8 grid)
        "pagerank_docs": _pagerank_sql(),
        "hits_docs": _hits_sql(),
        # recursive CTE with UNION (distinct) bounds rows to distinct
        # (node, depth) pairs; depth < 6 caps the recursion
        "seed_distance": """
WITH RECURSIVE n AS (SELECT count(*)::BIGINT AS cnt FROM documents),
e AS (
  SELECT doc_id AS src,
         (doc_id * 2654435761 + 7) % (SELECT cnt FROM n) AS dst
  FROM documents WHERE doc_id % 10 <> 0
  UNION ALL
  SELECT doc_id, (doc_id * 40503 + 13) % (SELECT cnt FROM n)
  FROM documents WHERE doc_id % 10 <> 0),
bfs(node, depth) AS (
  SELECT doc_id, 0 FROM documents WHERE doc_id % 97 = 0
  UNION
  SELECT e.dst, b.depth + 1
  FROM bfs b JOIN e ON e.src = b.node WHERE b.depth < 6)
SELECT node AS doc_id, min(depth)::BIGINT AS depth
FROM bfs GROUP BY node ORDER BY doc_id
""",
        # per-doc top-5 TF-IDF keywords: identical tf*log10(N/df)
        # doubles order both sides; ties by term asc; scores round 6
        "keywords_tfidf": f"""
WITH d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
tk AS (SELECT doc_id, unnest(toks) AS term FROM d),
p AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tk GROUP BY 1, 2),
f AS (SELECT term, count(*)::BIGINT AS df FROM p GROUP BY term),
n AS (SELECT count(*)::BIGINT AS cnt FROM documents),
s AS (SELECT p.doc_id, p.term,
             p.tf * log10((SELECT cnt FROM n)::DOUBLE / f.df) AS score,
             row_number() OVER (
                 PARTITION BY p.doc_id
                 ORDER BY p.tf * log10((SELECT cnt FROM n)::DOUBLE
                                       / f.df) DESC,
                          p.term ASC) AS rnk
      FROM p JOIN f USING (term))
SELECT doc_id, rnk::BIGINT AS rank, term, round(score, 6) AS tfidf
FROM s WHERE rnk <= 5 ORDER BY doc_id, rank
""",
        # running windows in exact int64 cents: identical rounding
        # (half away from zero) and (ts, event_id) order on both sides
        "running_totals": """
WITH c AS (SELECT event_id, user_id, ts,
                  CAST(round(value * 100.0, 0) AS BIGINT) AS cents
           FROM events)
SELECT event_id, user_id,
       row_number() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS row_number,
       sum(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND CURRENT ROW) AS running_sum_cents,
       lag(cents) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS lag_value_cents
FROM c ORDER BY event_id
""",
        # RANGE frame over the integer microsecond order key
        "hourly_spend": """
WITH c AS (SELECT event_id, user_id, epoch_us(ts) AS us,
                  CAST(round(value * 100.0, 0) AS BIGINT) AS cents
           FROM events)
SELECT event_id, user_id,
       sum(cents) OVER (PARTITION BY user_id ORDER BY us
                        RANGE BETWEEN 3600000000 PRECEDING
                        AND CURRENT ROW) AS win_sum_cents,
       count(*) OVER (PARTITION BY user_id ORDER BY us
                      RANGE BETWEEN 3600000000 PRECEDING
                      AND CURRENT ROW) AS win_count
FROM c ORDER BY event_id
""",
        # ROLLUP over the same leaf-cents rounding: every level is an
        # exact integer sum on both sides
        "events_rollup": """
WITH c AS (SELECT event_type,
                  (epoch_us(ts) // 3600000000) * 3600000000 AS w,
                  CAST(round(value * 100.0, 0) AS BIGINT) AS cents
           FROM events)
SELECT event_type, w AS window_start_us,
       count(*)::BIGINT AS n_events,
       sum(cents) AS sum_value_cents
FROM c GROUP BY ROLLUP (event_type, w)
ORDER BY event_type, window_start_us
""",
        # PIVOT as conditional integer-cents sums
        "user_pivot": """
WITH c AS (SELECT user_id, event_type,
                  CAST(round(value * 100.0, 0) AS BIGINT) AS cents
           FROM events)
SELECT user_id,
       sum((event_type = 'click')::INT)::BIGINT AS n_click,
       sum(CASE WHEN event_type = 'click' THEN cents ELSE 0 END)
           AS cents_click,
       sum((event_type = 'error')::INT)::BIGINT AS n_error,
       sum(CASE WHEN event_type = 'error' THEN cents ELSE 0 END)
           AS cents_error,
       sum((event_type = 'purchase')::INT)::BIGINT AS n_purchase,
       sum(CASE WHEN event_type = 'purchase' THEN cents ELSE 0 END)
           AS cents_purchase,
       sum((event_type = 'signup')::INT)::BIGINT AS n_signup,
       sum(CASE WHEN event_type = 'signup' THEN cents ELSE 0 END)
           AS cents_signup,
       sum((event_type = 'view')::INT)::BIGINT AS n_view,
       sum(CASE WHEN event_type = 'view' THEN cents ELSE 0 END)
           AS cents_view
FROM c GROUP BY user_id ORDER BY user_id
""",
        # trailing-N window in exact cents: same rounding + frame
        "moving_spend": """
WITH c AS (SELECT event_id, user_id, ts,
                  CAST(round(value * 100.0, 0) AS BIGINT) AS cents
           FROM events)
SELECT event_id, user_id,
       sum(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
           AS moving_sum_cents,
       count(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
           AS moving_count
FROM c ORDER BY event_id
""",
        # lead-diff per user; mean rounds half away to whole µs
        "user_gaps": """
WITH o AS (SELECT user_id, epoch_us(ts) AS us,
                  lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                      AS nxt
           FROM events),
g AS (SELECT user_id, nxt - us AS gap FROM o WHERE nxt IS NOT NULL)
SELECT u.user_id,
       coalesce(s.n, 0)::BIGINT AS n_gaps,
       s.mn AS min_gap_us, s.mx AS max_gap_us,
       CAST(round(s.mean_g, 0) AS BIGINT) AS mean_gap_us
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN (SELECT user_id, count(*)::BIGINT AS n,
                  min(gap)::BIGINT AS mn, max(gap)::BIGINT AS mx,
                  avg(gap) AS mean_g
           FROM g GROUP BY user_id) s USING (user_id)
ORDER BY u.user_id
""",
        # the funnel_signup CTEs aggregated: reach = count of non-null
        # stage times, conversion = reach_i / reach_{i-1} (stage 1 vs
        # the keys entering the funnel at all)
        "funnel_conversion": """
WITH u AS (SELECT DISTINCT user_id FROM events
           WHERE event_type IN ('signup', 'click', 'purchase')),
s1 AS (SELECT user_id, min(ts) AS t FROM events
       WHERE event_type = 'signup' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.ts > s1.t
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.ts > s2.t
       GROUP BY e.user_id),
agg AS (SELECT (SELECT count(*) FROM u)::BIGINT AS total,
               (SELECT count(*) FROM s1)::BIGINT AS r1,
               (SELECT count(*) FROM s2)::BIGINT AS r2,
               (SELECT count(*) FROM s3)::BIGINT AS r3)
SELECT 1::BIGINT AS stage, 'signup' AS stage_name, r1 AS n_reached,
       round(CASE WHEN total > 0 THEN r1 / total::DOUBLE
                  ELSE 0 END, 6) AS conversion FROM agg
UNION ALL
SELECT 2, 'click', r2,
       round(CASE WHEN r1 > 0 THEN r2 / r1::DOUBLE ELSE 0 END, 6)
FROM agg
UNION ALL
SELECT 3, 'purchase', r3,
       round(CASE WHEN r2 > 0 THEN r3 / r2::DOUBLE ELSE 0 END, 6)
FROM agg
ORDER BY stage
""",
        # one min-CTE per stage, each strictly after the previous
        "funnel_signup": """
WITH u AS (SELECT DISTINCT user_id FROM events
           WHERE event_type IN ('signup', 'click', 'purchase')),
s1 AS (SELECT user_id, min(ts) AS t FROM events
       WHERE event_type = 'signup' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.ts > s1.t
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.ts > s2.t
       GROUP BY e.user_id)
SELECT u.user_id,
       ((s1.t IS NOT NULL)::INT + (s2.t IS NOT NULL)::INT
        + (s3.t IS NOT NULL)::INT)::BIGINT AS n_stages,
       epoch_us(s1.t) AS stage1_us,
       epoch_us(s2.t) AS stage2_us,
       epoch_us(s3.t) AS stage3_us
FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
       LEFT JOIN s3 USING (user_id)
ORDER BY u.user_id
""",
        # SEMI join via EXISTS
        "building_orders": """
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice
FROM orders o
WHERE EXISTS (SELECT 1 FROM customer c
              WHERE c.c_custkey = o.o_custkey
                AND c.c_mktsegment = 'BUILDING')
ORDER BY o.o_orderkey
""",
        # ANTI join via NOT EXISTS
        "never_purchased": """
SELECT e.event_id, e.user_id, e.event_type
FROM events e
WHERE NOT EXISTS (SELECT 1 FROM events p
                  WHERE p.user_id = e.user_id
                    AND p.event_type = 'purchase'
                    AND p.value > 90.0)
ORDER BY e.event_id
""",
        # the generic equi-join: INNER join, right key dropped (USING)
        "orders_customers": """
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
       c.c_name, c.c_mktsegment
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
ORDER BY o.o_orderkey
""",
        # incremental-crawl anti-join on exact text bytes; IS NOT
        # DISTINCT FROM mirrors the engine's NULL-matches-NULL sentinel
        "corpus_diff": """
WITH r AS (SELECT text FROM documents WHERE doc_id % 3 <> 0)
SELECT l.doc_id FROM documents l
WHERE NOT EXISTS (SELECT 1 FROM r
                  WHERE r.text IS NOT DISTINCT FROM l.text)
ORDER BY l.doc_id
""",
        # NFC over the decomposed-injected view; chr(769) = U+0301
        "nfc_normalized": """
WITH v AS (SELECT doc_id,
                  replace(coalesce(text, ''), ' the ',
                          ' the' || chr(769) || ' ') AS t
           FROM documents)
SELECT doc_id, nfc_normalize(t) AS text,
       nfc_normalize(t) <> t AS changed
FROM v ORDER BY doc_id
""",
        # Zipf fit: DuckDB's regr_slope/regr_intercept over the same
        # log10(count)/log10(rank) pairs — the normal-equation algebra
        # is identical in reals, round 6 absorbs float association
        "zipf_corpus": f"""
WITH tk AS (
  SELECT t.term FROM (
    SELECT {_ALNUM_TOKS} AS toks FROM documents) d,
  UNNEST(d.toks) AS t(term)),
c AS (SELECT term, count(*)::BIGINT AS c FROM tk GROUP BY term),
r AS (SELECT c, row_number() OVER (ORDER BY c DESC, term) AS rnk FROM c)
SELECT count(*)::BIGINT AS n_terms,
       round(regr_slope(log10(c::DOUBLE), log10(rnk::DOUBLE)), 6)
           AS zipf_slope,
       round(regr_intercept(log10(c::DOUBLE), log10(rnk::DOUBLE)), 6)
           AS zipf_intercept
FROM r
""",
        # split + ordinality + whitespace trim, rank among kept rows
        "doc_sentences": r"""
WITH s AS (
  SELECT d.doc_id,
         regexp_replace(u.s, '^\s+|\s+$', '', 'g') AS sentence, u.i
  FROM (SELECT doc_id,
               regexp_split_to_array(coalesce(text, ''),
                                     '[.!?]+') AS ss
        FROM documents) d,
  LATERAL (SELECT unnest(d.ss) AS s,
                  generate_subscripts(d.ss, 1) AS i) u),
k AS (SELECT doc_id, sentence,
             row_number() OVER (PARTITION BY doc_id ORDER BY i) - 1
                 AS sent_id
      FROM s WHERE length(sentence) >= 1)
SELECT doc_id, sent_id, sentence FROM k ORDER BY doc_id, sent_id
""",
        # one UNION ALL branch per column; COUNT(DISTINCT) excludes
        # NULLs exactly like the engine's drop_null + pair distinct
        "events_profile": """
SELECT 'event_id' AS "column", count(*)::BIGINT AS n_rows,
       sum((event_id IS NULL)::INT)::BIGINT AS n_null,
       count(DISTINCT event_id)::BIGINT AS n_distinct FROM events
UNION ALL
SELECT 'ts', count(*), sum((ts IS NULL)::INT),
       count(DISTINCT ts) FROM events
UNION ALL
SELECT 'user_id', count(*), sum((user_id IS NULL)::INT),
       count(DISTINCT user_id) FROM events
UNION ALL
SELECT 'event_type', count(*), sum((event_type IS NULL)::INT),
       count(DISTINCT event_type) FROM events
UNION ALL
SELECT 'value', count(*), sum((value IS NULL)::INT),
       count(DISTINCT value) FROM events
UNION ALL
SELECT 'props', count(*), sum((props IS NULL)::INT),
       count(DISTINCT props) FROM events
ORDER BY "column"
""",
        # lead() over the same (ts, event_id) per-user order; integer
        # counts hash-exact, probs the same n/tot doubles round 6
        "transition_matrix": """
WITH o AS (SELECT user_id, event_type AS from_type,
                  lead(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id)
                      AS to_type
           FROM events),
c AS (SELECT from_type, to_type, count(*)::BIGINT AS n_transitions
      FROM o WHERE to_type IS NOT NULL GROUP BY 1, 2),
t AS (SELECT from_type, sum(n_transitions)::DOUBLE AS tot
      FROM c GROUP BY from_type)
SELECT c.from_type, c.to_type, c.n_transitions,
       round(c.n_transitions / t.tot, 6) AS prob
FROM c JOIN t USING (from_type)
ORDER BY c.from_type, c.to_type
""",
        # population stddev + min/max per type; round 4 absorbs float
        # association between the engines' sufficient-statistic sums
        "normalized_values": """
WITH s AS (SELECT event_type, avg(value) AS m,
                  stddev_pop(value) AS sd,
                  min(value) AS lo, max(value) AS hi
           FROM events GROUP BY event_type)
SELECT e.event_id, e.event_type, e.value,
       round(CASE WHEN s.sd > 0 THEN (e.value - s.m) / s.sd
                  ELSE 0 END, 4) AS zscore,
       round(CASE WHEN s.hi > s.lo
                  THEN (e.value - s.lo) / (s.hi - s.lo)
                  ELSE 0 END, 4) AS minmax
FROM events e JOIN s USING (event_type)
ORDER BY e.event_id
""",
        # exact-quantile clip; quantile_cont is the same linear
        # interpolation as the engine's order-statistic fetch
        "winsorized_values": """
WITH q AS (SELECT quantile_cont(value, 0.05) AS qlo,
                  quantile_cont(value, 0.95) AS qhi
           FROM events)
SELECT e.event_id, e.value,
       round(least(greatest(e.value, q.qlo), q.qhi), 4) AS value_w
FROM events e, q ORDER BY e.event_id
""",
        # the entropy CTE of quality_deciles + the three SQL rank fns
        "entropy_ranks": """
WITH ch AS (
  SELECT d.doc_id, t.c
  FROM (SELECT doc_id, regexp_split_to_array(coalesce(text,''), '') AS cs
        FROM documents) d, UNNEST(d.cs) AS t(c)
  WHERE t.c <> ''),
e AS (SELECT doc_id, entropy(c) AS ent FROM ch GROUP BY doc_id),
s AS (SELECT d.doc_id,
             round(coalesce(e.ent, 0.0), 4) AS char_entropy
      FROM documents d LEFT JOIN e USING (doc_id))
SELECT doc_id, char_entropy,
       rank() OVER w AS rank,
       round(percent_rank() OVER w, 6) AS percent_rank,
       round(cume_dist() OVER w, 6) AS cume_dist
FROM s WINDOW w AS (ORDER BY char_entropy, doc_id)
ORDER BY doc_id
""",
        # Heaps fit: cumulative window sums over doc order, then the
        # same regr_slope/regr_intercept algebra as zipf_corpus
        "heaps_corpus": f"""
WITH tk AS (
  SELECT d.doc_id, t.term FROM (
    SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents) d,
  UNNEST(d.toks) AS t(term)),
f AS (SELECT term, min(doc_id) AS first_doc FROM tk GROUP BY term),
nv AS (SELECT first_doc AS doc_id, count(*)::BIGINT AS n_new
       FROM f GROUP BY first_doc),
ntk AS (SELECT doc_id, count(*)::BIGINT AS n_tok FROM tk
        GROUP BY doc_id),
p AS (SELECT d.doc_id, coalesce(ntk.n_tok, 0) AS n_tok,
             coalesce(nv.n_new, 0) AS n_new
      FROM documents d LEFT JOIN ntk USING (doc_id)
      LEFT JOIN nv USING (doc_id)),
c AS (SELECT n_tok,
             sum(n_tok) OVER (ORDER BY doc_id) AS n_cum,
             sum(n_new) OVER (ORDER BY doc_id) AS v_cum
      FROM p),
s AS (SELECT log10(n_cum::DOUBLE) AS x,
             log10(greatest(v_cum, 1)::DOUBLE) AS y
      FROM c WHERE n_tok > 0)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT sum(n_tok) FROM p)::BIGINT AS n_tokens,
       (SELECT count(*) FROM f)::BIGINT AS n_terms,
       round(regr_slope(y, x), 6) AS heaps_beta,
       round(regr_intercept(y, x), 6) AS heaps_log10_k
FROM s
""",
        # the knuth-hash global permutation + round-robin shards: exact
        # BIGINT arithmetic both sides
        "shard_shuffle": """
WITH h AS (SELECT doc_id, source,
                  (doc_id * 2654435761) % 4294967296 AS hv
           FROM documents),
r AS (SELECT doc_id, source,
             row_number() OVER (ORDER BY hv, doc_id) AS shuffle_rank
      FROM h)
SELECT doc_id, source, shuffle_rank,
       (shuffle_rank - 1) % 8 AS shard
FROM r ORDER BY doc_id
""",
        # knuth multiplicative hash: exact BIGINT arithmetic both sides
        "dataset_split": """
WITH b AS (SELECT doc_id,
                  (doc_id * 2654435761) % 4294967296 % 1000000 AS bkt
           FROM documents)
SELECT doc_id,
       CASE WHEN bkt < 800000 THEN 'train'
            WHEN bkt < 900000 THEN 'val'
            ELSE 'test' END AS split
FROM b ORDER BY doc_id
""",
        "alpha_mix_weights": f"""
WITH c AS (SELECT source,
                  sum(len(regexp_extract_all(text,
                      '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')))::BIGINT
                    AS n_tokens
           FROM documents GROUP BY source),
tot AS (SELECT sum(n_tokens)::DOUBLE AS t FROM c),
w AS (SELECT source, n_tokens, n_tokens / tot.t AS share,
             pow(n_tokens / tot.t, 0.3) AS pw
      FROM c, tot)
SELECT source, n_tokens, round(share, 6) AS share,
       round(pw / sum(pw) OVER (), 6) AS weight
FROM w ORDER BY source
""",
        "stratified_sample": """
WITH h AS (SELECT doc_id, lang,
                  (doc_id * 2654435761) % 4294967296 AS hv
           FROM documents),
r AS (SELECT doc_id, lang,
             row_number() OVER (PARTITION BY lang
                                ORDER BY hv, doc_id) AS sample_rank
      FROM h)
SELECT doc_id, lang, sample_rank FROM r
WHERE sample_rank <= 20
ORDER BY lang, sample_rank
""",
        # weekly retention triangle: distinct (user, week) pairs,
        # cohort = each user's min week, count distinct users per
        # (cohort, offset)
        "retention_cohorts": """
WITH b AS (SELECT DISTINCT user_id,
                  (epoch_us(ts) // 604800000000) * 604800000000 AS wk
           FROM events),
f AS (SELECT user_id, MIN(wk) AS cohort FROM b GROUP BY user_id)
SELECT f.cohort AS cohort_us,
       (b.wk - f.cohort) // 604800000000 AS period_offset,
       COUNT(*)::BIGINT AS n_users
FROM b JOIN f USING (user_id)
GROUP BY 1, 2
ORDER BY 1, 2
""",
        # temperature mix T=2 over 300 docs: count^(1/2) weights,
        # largest-remainder rounding (frac desc, source asc), capped
        # at each source's size; selection = knuth32 bottom-target
        "temperature_mix": """
WITH c AS (SELECT source, COUNT(*)::BIGINT AS n
           FROM documents GROUP BY source),
w AS (SELECT source, n, pow(n, 1.0/2.0) AS wt FROM c),
e AS (SELECT source, n, 300.0 * wt / SUM(wt) OVER () AS exact FROM w),
b AS (SELECT source, n, CAST(floor(exact) AS BIGINT) AS base,
             exact - floor(exact) AS frac FROM e),
rk AS (SELECT source, n, base,
              row_number() OVER (ORDER BY frac DESC, source) AS fr
       FROM b),
t AS (SELECT source,
             LEAST(base + CASE WHEN fr <= 300 - (SELECT SUM(base)
                                                 FROM b)
                          THEN 1 ELSE 0 END, n) AS target
      FROM rk),
h AS (SELECT doc_id, source,
             (doc_id * 2654435761) % 4294967296 AS hv
      FROM documents),
r AS (SELECT doc_id, source,
             row_number() OVER (PARTITION BY source
                                ORDER BY hv, doc_id) AS sample_rank
      FROM h)
SELECT r.doc_id, r.source, r.sample_rank
FROM r JOIN t USING (source)
WHERE r.sample_rank <= t.target
ORDER BY source, sample_rank
""",
        # unigram LM over the corpus's own alnum tokens; per-doc float
        # sums round to 4 decimals on BOTH sides (engines associate
        # differently; 1e-10 abs error vs a 1e-4 grid is hash-stable)
        "lm_logprob": f"""
WITH tk AS (
  SELECT d.doc_id, t.term FROM (
    SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents) d,
  UNNEST(d.toks) AS t(term)),
f AS (SELECT term, count(*)::BIGINT AS c FROM tk GROUP BY term),
tot AS (SELECT sum(c)::DOUBLE AS n FROM f),
s AS (SELECT tk.doc_id, count(*)::BIGINT AS n_tokens,
             sum(log10(f.c)) AS slc
      FROM tk JOIN f USING (term) GROUP BY tk.doc_id)
SELECT d.doc_id,
       coalesce(s.n_tokens, 0) AS n_tokens,
       round(coalesce(s.slc, 0), 4) AS sum_log10_count,
       round(CASE WHEN s.n_tokens > 0
                  THEN log10((SELECT n FROM tot)) - s.slc / s.n_tokens
                  ELSE 0 END, 4) AS avg_neg_logprob
FROM documents d LEFT JOIN s USING (doc_id) ORDER BY d.doc_id
""",
        # interpolated bigram LM (lam=0.7): (1.0 - 0.7) is written out
        # so SQL computes the IDENTICAL double for 1-lam that the
        # engine's float arithmetic produces; per-doc sums round to 4
        # decimals on both sides like lm_logprob
        "bigram_lm": f"""
WITH d AS (SELECT doc_id, {_ALNUM_TOKS} AS toks FROM documents),
tk AS (SELECT doc_id, unnest(toks) AS term,
              generate_subscripts(toks, 1) AS ord FROM d),
bg AS (SELECT a.doc_id, a.term AS ta, b.term AS tb
       FROM tk a JOIN tk b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1),
u AS (SELECT term, count(*)::BIGINT AS c FROM tk GROUP BY term),
tot AS (SELECT sum(c)::DOUBLE AS n FROM u),
p AS (SELECT ta, tb, count(*)::BIGINT AS c_ab FROM bg GROUP BY 1, 2),
tr AS (SELECT doc_id, ta, tb, count(*)::BIGINT AS k FROM bg
       GROUP BY 1, 2, 3),
w AS (SELECT tr.doc_id, tr.k,
             tr.k * log10(0.7 * (p.c_ab::DOUBLE / ua.c::DOUBLE)
                          + (1.0 - 0.7) * (ub.c::DOUBLE /
                                           (SELECT n FROM tot))) AS w
      FROM tr JOIN p ON p.ta = tr.ta AND p.tb = tr.tb
              JOIN u ua ON ua.term = tr.ta
              JOIN u ub ON ub.term = tr.tb),
agg AS (SELECT doc_id, sum(k)::BIGINT AS n, sum(w) AS s
        FROM w GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(agg.n, 0) AS n_transitions,
       round(coalesce(agg.s, 0), 4) AS sum_log10_p,
       round(CASE WHEN agg.n > 0 THEN -(agg.s / agg.n) ELSE 0 END,
             4) AS avg_neg_logprob
FROM documents d LEFT JOIN agg USING (doc_id) ORDER BY d.doc_id
""",
        # Gopher rules: same alnum splitter; symbol ratio via the same
        # length-difference arithmetic and eval order as the engine
        "gopher_quality": f"""
WITH d AS (SELECT doc_id, coalesce(text, '') AS text,
                  {_ALNUM_TOKS} AS toks FROM documents),
tk AS (SELECT doc_id, unnest(toks) AS term FROM d),
agg AS (SELECT doc_id, count(*)::BIGINT AS nw,
               sum(length(term))::DOUBLE AS swl,
               sum(CASE WHEN regexp_matches(term, '[a-z]')
                        THEN 1.0 ELSE 0.0 END) AS na
        FROM tk GROUP BY 1),
st AS (SELECT doc_id, count(DISTINCT term)::BIGINT AS ns FROM tk
       WHERE term IN ('the','be','to','of','and','that','have','with')
       GROUP BY 1),
base AS (SELECT d.doc_id,
       coalesce(agg.nw, 0) AS n_words,
       CASE WHEN coalesce(agg.nw, 0) > 0
            THEN round(agg.swl / agg.nw, 4) ELSE 0.0
            END AS mean_word_len,
       CASE WHEN coalesce(agg.nw, 0) > 0
            THEN round(agg.na / agg.nw, 4) ELSE 0.0
            END AS alpha_word_ratio,
       CASE WHEN length(d.text) > 0
            THEN round(((length(d.text)
                         - length(replace(d.text, '#', '')))::DOUBLE
                        + (length(d.text)
                           - length(replace(d.text, '...', '')))::DOUBLE
                          / 3.0)
                       / length(d.text), 4)
            ELSE 0.0 END AS symbol_ratio,
       coalesce(st.ns, 0) AS n_stopwords_present
FROM d LEFT JOIN agg USING (doc_id) LEFT JOIN st USING (doc_id))
SELECT doc_id, n_words, mean_word_len, alpha_word_ratio, symbol_ratio,
       n_stopwords_present,
       (n_words >= 30 AND n_words <= 100000
        AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
        AND symbol_ratio <= 0.1 AND alpha_word_ratio >= 0.8
        AND n_stopwords_present >= 1) AS keep
FROM base ORDER BY doc_id
""",
        "source_quota": _SOURCE_QUOTA_SQL,
        # the mega-source salted path must reproduce it exactly
        "source_quota_salted": _SOURCE_QUOTA_SQL,
        # minhash_pairs / simhash_pairs / ngram_jaccard /
        # contamination_fuzzy / embedding_near_dups / media_features /
        # ann_cosine_topk_pq / semantic_dedup_clustered / heavy_users_mg:
        # intentionally no SQL oracle (LSH/hash-banded, quantized-approximate, or
        # model-shaped ops) -> driver records the rows-only check;
        # exact-value verification lives in tests/ against brute force,
        # and each LSH/approximate family has an exact oracle-gated twin
        # (ngram_jaccard_exact, embedding_near_dups_exact,
        # ann_cosine_topk, contamination).
    }
