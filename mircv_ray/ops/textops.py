"""Text-analysis operators over a document table (vectorized map_batches).

All stateless, Arrow-native (pyarrow.compute regex kernels — no Python
loop over rows in any hot path). Each has a DuckDB-expressible
definition where feasible so the driver's oracle gate can check it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..text.tokenizer import Tokenizer
from ..util import binary_column_values

# BPE-ish word pattern: alpha runs, digit runs, or single non-space symbol
TOKEN_COUNT_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
PUNCT_RE = r"[!-/:-@\[-`{-~]"

_EN_MARKERS = frozenset("the of and to in is that it for on with as are this".split())
_IT_MARKERS = frozenset("il di che la e per una non sono con del le si".split())
_DE_MARKERS = frozenset("der die das und ist nicht mit ein für auf den".split())
_FR_MARKERS = frozenset("le la les de et un une est pour dans que sur".split())
_CODE_MARKERS = frozenset("def return import class void int self fn func var const".split())
_LANGS = [("en", _EN_MARKERS), ("it", _IT_MARKERS), ("de", _DE_MARKERS),
          ("fr", _FR_MARKERS), ("code", _CODE_MARKERS)]


def basic_token_stats(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """(doc_id, doc_len) with the SQL-checkable basic tokenizer."""
    tok = Tokenizer(parse=False, squeeze=False, content_col=text_col)
    content = batch[text_col]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    _, doc_len = tok.tokenize_column(content)
    return pa.table({id_col: batch[id_col],
                     "doc_len": pa.array(doc_len, type=pa.int64())})


def token_count(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_tokens) under the BPE-ish token regex."""
    n = pc.count_substring_regex(batch[text_col], TOKEN_COUNT_RE)
    return pa.table({id_col: batch[id_col],
                     "n_tokens": n.combine_chunks().cast(pa.int64())
                     if isinstance(n, pa.ChunkedArray) else n.cast(pa.int64())})


def quality_stats(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Integer quality counters (SQL-checkable): chars, punct, digits,
    uppercase, whitespace."""
    t = batch[text_col]
    def cnt(pat):
        c = pc.count_substring_regex(t, pat)
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        return c.cast(pa.int64())
    n_chars = pc.utf8_length(t)
    n_chars = (n_chars.combine_chunks() if isinstance(n_chars, pa.ChunkedArray)
               else n_chars).cast(pa.int64())
    return pa.table({
        id_col: batch[id_col],
        "n_chars": n_chars,
        "n_punct": cnt(PUNCT_RE),
        "n_digits": cnt(r"[0-9]"),
        "n_upper": cnt(r"[A-Z]"),
        "n_spaces": cnt(r" "),
    })


def lang_id(batch: pa.Table, text_col: str = "text",
            id_col: str = "doc_id") -> pa.Table:
    """Marker-word voting language heuristic (n-gram-free, deterministic).

    Counts whole-word marker hits per language; ties and zero evidence
    resolve to 'unknown'. Vectorized: one count_substring_regex per
    marker set.
    """
    t = pc.fill_null(batch[text_col], "")   # NULL text: zero votes,
    lowered = pc.utf8_lower(t)               # never NaN->INT64_MIN casts
    votes = []
    for name, markers in _LANGS:
        pat = r"\b(" + "|".join(sorted(markers)) + r")\b"
        c = pc.count_substring_regex(lowered, pat)
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        votes.append(c.to_numpy(zero_copy_only=False).astype(np.int64))
    votes = np.stack(votes, axis=1)
    best = votes.argmax(axis=1)
    best_cnt = votes.max(axis=1)
    second = np.sort(votes, axis=1)[:, -2] if votes.shape[1] > 1 else np.zeros(len(best))
    labels = np.array([name for name, _ in _LANGS])[best]
    labels = np.where((best_cnt == 0) | (best_cnt == second), "unknown", labels)
    return pa.table({id_col: batch[id_col],
                     "lang_pred": pa.array(labels.tolist(), type=pa.string()),
                     "lang_votes": pa.array(best_cnt, type=pa.int64())})


# PII patterns (RE2 syntax — the same engine evaluates them in pyarrow
# and in DuckDB's regexp_* functions, so redaction is exactly
# SQL-checkable). Applied in list order; counts are over the ORIGINAL
# text so earlier replacements never mask later counts.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("n_emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("n_ipv4", r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    ("n_phones", r"\b\d{3}[- ]\d{3}[- ]\d{4}\b", "<PHONE>"),
]


def pii_redact(batch: pa.Table, text_col: str = "text",
               id_col: str = "doc_id") -> pa.Table:
    """PII redaction: mask emails / IPv4 addresses / phone numbers and
    count each category (the standard pre-training scrub pass).

    Fully vectorized: one ``count_substring_regex`` + one
    ``replace_substring_regex`` kernel per pattern — no Python loop over
    rows. NULL text stays NULL (counts too), matching SQL semantics.
    """
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    cols: dict = {id_col: batch[id_col]}
    clean = t
    for name, pat, repl in PII_PATTERNS:
        c = pc.count_substring_regex(t, pat)
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        cols[name] = c.cast(pa.int64())
        clean = pc.replace_substring_regex(clean, pattern=pat,
                                           replacement=repl)
    cols["clean_text"] = (clean.combine_chunks()
                          if isinstance(clean, pa.ChunkedArray) else clean)
    return pa.table(cols)


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition quality counters per document:
    token count, distinct-token count, type-token ratio, and the
    most-frequent-2-gram count/fraction (high values flag boilerplate /
    degenerate repetition; cf. Rae et al. 2021 "Scaling Language Models"
    repetition filters).

    Vectorized over the whole batch: tokens and 2-gram hashes come from
    the flat dictionary-encoded token stream (no per-doc Python); both
    the per-doc distinct count and the per-doc top-2-gram count are one
    lexsort + run-length pass each.
    """
    from .dedup import _shingle_hashes, _token_ids_flat
    # hash64: distinct/top-bigram counts are SQL-oracle-gated EXACT —
    # 32-bit crc32 collides with near-certainty by ~100k distinct
    # tokens in one doc (d^2/2^33), silently shrinking n_distinct
    base, counts = _token_ids_flat(batch, text_col, hash64=True)
    n_docs = len(counts)
    parent = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    order = np.lexsort((base, parent))
    v, p = base[order], parent[order]
    first = np.ones(len(v), dtype=bool)
    if len(v) > 1:
        first[1:] = (v[1:] != v[:-1]) | (p[1:] != p[:-1])
    n_distinct = np.bincount(p[first], minlength=n_docs).astype(np.int64)

    bg, bg_counts = _shingle_hashes(base, counts, 2)
    bparent = np.repeat(np.arange(n_docs, dtype=np.int64), bg_counts)
    border = np.lexsort((bg, bparent))
    bv, bp = bg[border], bparent[border]
    newrun = np.ones(len(bv), dtype=bool)
    if len(bv) > 1:
        newrun[1:] = (bv[1:] != bv[:-1]) | (bp[1:] != bp[:-1])
    run_starts = np.flatnonzero(newrun)
    top = np.zeros(n_docs, dtype=np.int64)
    if len(run_starts):
        run_len = np.diff(np.append(run_starts, len(bv)))
        run_parent = bp[run_starts]
        pstart = np.flatnonzero(
            np.append(True, run_parent[1:] != run_parent[:-1]))
        top[run_parent[pstart]] = np.maximum.reduceat(run_len, pstart)

    ttr = np.where(counts > 0, n_distinct / np.maximum(counts, 1), 0.0)
    frac = np.where(bg_counts > 0, top / np.maximum(bg_counts, 1), 0.0)
    return pa.table({
        id_col: batch[id_col],
        "n_tokens": pa.array(counts, type=pa.int64()),
        "n_distinct_tokens": pa.array(n_distinct),
        "ttr": pa.array(ttr, type=pa.float64()),
        "top_bigram_count": pa.array(top),
        "top_bigram_frac": pa.array(frac, type=pa.float64()),
    })


_FP_BASE = np.uint64(1099511628211)


def fingerprint(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """64-bit polynomial rolling-hash fingerprint over UTF-8 bytes:
    ``h(doc) = sum(b[i] * P^(n-1-i)) mod 2^64``.

    Fully vectorized: one concatenated byte buffer per batch, a power
    table ``P^k`` built by wrapping uint64 cumprod, per-position products
    segment-summed with ``np.add.reduceat`` — order-dependent (rolling)
    but no Python loop over bytes or docs.
    """
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    bin_arr = t.cast(pa.binary())
    lens = pc.fill_null(pc.binary_length(bin_arr), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    # one aligned copy of the arrow value buffer (nulls occupy 0 bytes,
    # matching the fill_null(0) lengths) — no to_pylist over content
    buf = binary_column_values(bin_arr, np.uint8).astype(np.uint64)
    n_docs = len(lens)
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(buf):
        ends = np.cumsum(lens)
        starts = ends - lens
        max_len = int(lens.max())
        pows = np.ones(max_len, dtype=np.uint64)
        if max_len > 1:
            with np.errstate(over="ignore"):
                pows[1:] = np.cumprod(np.full(max_len - 1, _FP_BASE,
                                              dtype=np.uint64))
        # exponent at flat position j (doc d): (ends[d]-1) - j
        parent = np.repeat(np.arange(n_docs), lens)
        expo = (ends[parent] - 1) - np.arange(len(buf))
        with np.errstate(over="ignore"):
            prod = buf * pows[expo]
        nz = lens > 0
        seg = np.add.reduceat(prod, starts[nz])
        out[nz] = seg
    return pa.table({id_col: batch[id_col],
                     "fingerprint": pa.array(out.astype(np.int64))})


class ContaminationCheck:
    """Benchmark-decontamination scan: flag documents that contain any
    of a set of probe strings VERBATIM (the exact-match half of the
    standard LLM training-data decontamination recipe; the fuzzy half is
    ``ngram_jaccard_pairs`` / ``minhash_candidate_pairs`` against the
    probe corpus).

    Scale design: the probe suite is the SMALL side (benchmark test
    sets are ≤ MBs even for large eval suites) — it ships once in the
    constructor (once per map_batches actor, NOT per batch) and is
    compiled into a single re2 alternation, so the per-batch cost is ONE
    vectorized ``match_substring_regex`` pass; the corpus streams
    through ``map_batches`` and never shuffles.  Per-probe hit counts
    run additional per-probe kernels only over the (typically tiny)
    contaminated subset.  For probe suites too large for one alternation
    (millions of strings), split probes across several
    ``ContaminationCheck`` stages or pre-filter with a Bloom/ngram
    bucket pass — the per-stage contract is unchanged.
    """

    def __init__(self, probes, text_col: str = "text",
                 id_col: str = "doc_id"):
        if not probes:
            raise ValueError("probes must be a non-empty list of strings")
        import re as _re
        self.probes = [str(p) for p in probes]
        self.pattern = "|".join(_re.escape(p) for p in self.probes)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch[self.text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        any_hit = pc.fill_null(
            pc.match_substring_regex(t, self.pattern), False)
        hit_np = any_hit.to_numpy(zero_copy_only=False)
        n_hits = np.zeros(len(t), dtype=np.int64)
        idx = np.flatnonzero(hit_np)
        if len(idx):
            sub = t.take(pa.array(idx, type=pa.int64()))
            for p in self.probes:
                m = pc.fill_null(pc.match_substring(sub, p), False)
                n_hits[idx] += m.to_numpy(zero_copy_only=False)
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_probes_hit": pa.array(n_hits, type=pa.int64()),
            "contaminated": pa.array(hit_np, type=pa.bool_()),
        })


def contamination_check(ds, probes, text_col: str = "text",
                        id_col: str = "doc_id"):
    """(doc_id, n_probes_hit, contaminated) for every document."""
    return ds.map_batches(ContaminationCheck(probes, text_col, id_col),
                          batch_format="pyarrow")


# --------------------------------------------------- unigram LM scoring

def _alnum_flat_terms(batch: pa.Table, text_col: str):
    """Lowercased alnum token STRINGS per doc -> (flat StringArray,
    parent doc indices, per-doc counts). The same token definition as
    ops.dedup._token_ids_flat / the _ALNUM_TOKS SQL twin, kept as
    strings here because the LM's counts must be SQL-joinable."""
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    lists = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(t, "")),
                                   pattern=r"[^a-z0-9]+")
    flat = pc.list_flatten(lists)
    keep = pc.greater(pc.binary_length(flat), 0)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    parent = parent[keep.to_numpy(zero_copy_only=False)]
    flat = flat.filter(keep)
    counts = np.bincount(parent, minlength=len(t)).astype(np.int64)
    return flat, parent, counts


def _doc_key_runs(batch: pa.Table, id_col: str, keys: pa.Array,
                  parent: np.ndarray) -> pa.Table:
    """(id_col, key, k): one row per distinct (doc, key) with its count
    k, plus one NULL-key k=0 row per doc, so docs without keys still
    reach the per-doc finish of a ``lookup_join``."""
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    g = pa.table({id_col: ids.take(pa.array(parent, type=pa.int64())),
                  "key": keys}).group_by([id_col, "key"]) \
        .aggregate([([], "count_all")])
    return pa.concat_tables([
        pa.table({id_col: g[id_col], "key": g["key"],
                  "k": g["count_all"].cast(pa.int64())}),
        pa.table({id_col: ids, "key": pa.nulls(len(ids), keys.type),
                  "k": pa.array(np.zeros(len(ids), dtype=np.int64))}),
    ]).combine_chunks()


def _per_doc_sums(rows: pa.Table, id_col: str, cols: list[str]):
    """(one id per doc, [per-doc sum of each column]) over keyed rows."""
    ids = rows[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    uniq, first, inv = np.unique(ids.to_numpy(zero_copy_only=False),
                                 return_index=True, return_inverse=True)
    return ids.take(pa.array(first, type=pa.int64())), [
        np.bincount(inv, weights=rows[c].to_numpy(zero_copy_only=False),
                    minlength=len(uniq)) for c in cols]


def unigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Perplexity-style quality scoring under a unigram LM trained on
    the corpus itself (the shape of CCNet / Gopher perplexity filters,
    with the n=1 model exactly SQL-mirrorable). Two passes:

    1. global term counts — per-batch map-side combine, one vocab-sized
       groupby (materialized: it is read twice).
    2. a ``lookup_join`` of each doc's (doc, term, k) runs against the
       counts, then a per-doc sum: map-only against a broadcast sorted
       vocabulary when it fits the gate, else term-partitioned with a
       doc-partitioned finish — no driver vocab either way.

    Returns (doc_id, n_tokens, sum_log10_count, avg_neg_logprob) where
    avg_neg_logprob = log10(total_tokens) - sum_log10_count/n_tokens,
    i.e. the mean token surprisal in decibans (HIGH = rare vocabulary,
    LOW = boilerplate). Floats round to 4 decimals: the per-doc float
    sums associate differently across engines, and 1e-10 absolute error
    against a 1e-4 grid keeps the SQL oracle hash-stable.
    """
    from ray.data.aggregate import Sum

    from .equijoin import lookup, lookup_join, sorted_keys

    def term_counts(batch: pa.Table) -> pa.Table:
        flat, _, _ = _alnum_flat_terms(batch, text_col)
        a = pa.table({"term": flat}).group_by("term").aggregate(
            [([], "count_all")])
        return pa.table({"term": a["term"],
                         "c": a["count_all"].cast(pa.int64())})

    counts_ds = (ds.map_batches(term_counts, batch_format="pyarrow")
                   .groupby("term").aggregate(Sum("c", alias_name="c"))
                   .materialize())
    total = float(counts_ds.sum("c") or 0)
    log_total = float(np.log10(max(total, 1.0)))

    def explode(batch: pa.Table) -> pa.Table:
        flat, parent, _ = _alnum_flat_terms(batch, text_col)
        return _doc_key_runs(batch, id_col, flat, parent)

    def prepare(t: pa.Table):
        keys, order = sorted_keys(t["term"])
        c = t["c"].to_numpy()[order].astype(np.float64)
        return keys, np.log10(np.maximum(c, 1.0))

    def apply(rows: pa.Table, state) -> pa.Table:
        w = lookup(*state, rows["key"]) * rows["k"].to_numpy()
        return rows.append_column("w", pa.array(w, type=pa.float64()))

    def finish(rows: pa.Table) -> pa.Table:
        ids, (n_tok, sums) = _per_doc_sums(rows, id_col, ["k", "w"])
        n_tok = n_tok.astype(np.int64)
        avg = np.where(n_tok > 0, log_total - sums / np.maximum(n_tok, 1),
                       0.0)
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "sum_log10_count": pa.array(np.round(sums, 4)),
            "avg_neg_logprob": pa.array(np.round(avg, 4)),
        })

    return lookup_join(ds, counts_ds, "key", prepare, apply,
                       right_on="term", explode=explode,
                       regroup=(id_col, finish))


# --------------------------------- n-gram decontamination (Bloom prefilter)

def contamination_ngram(ds, probes, n: int = 20, text_col: str = "text",
                        id_col: str = "doc_id", fpr: float = 1e-3):
    """(doc_id, n_shared_grams, contaminated) for every document —
    n-gram-overlap decontamination: a document is contaminated iff it
    shares any length-``n`` byte window with any probe (the GPT-3
    appendix-C / PaLM overlap rule; `ContaminationCheck`'s docstring
    names this Bloom pass as the scale path for probe suites too large
    for one regex alternation).

    The answer is EXACT (SQL-mirrorable): the Bloom filter only
    prefilters. Three passes, none content-shuffling:

    1. probe grams (small side, distributed): rolling-hash windows ->
       `bloom_build`'s range-partitioned bitmap — sized by
       `bloom_params(total probe windows, fpr)`.
    2. docs (map-only): window hashes roll per batch, test against the
       broadcast bitmap; only FLAGGED windows materialize gram bytes —
       the exchange carries candidate rows only (no false negatives,
       so recall is exactly 1; false positives die in pass 3).
    3. exact verify: candidate grams + probe grams meet in one
       ghash-partitioned exchange; matching is by GRAM BYTES
       (`pc.is_in`), distinct-per-partition == globally distinct since
       a gram maps to one partition. Per-doc counts (aggregate-sized)
       broadcast back onto the full id column.

    Probes shorter than ``n`` contribute no windows (the overlap rule
    is undefined below the window length); documents shorter than
    ``n`` are clean by construction.
    """
    import ray
    import ray.data as rd

    from .dedup import _add_pkey
    from .sketches import bloom_params, bloom_test, bloom_build
    from .substring import ngram_window_rows, _window_hashes
    from ..util import binary_values_parts, multi_arange

    probe_list = [str(p) for p in probes]
    if not probe_list:
        raise ValueError("probes must be a non-empty list of strings")
    n_probe_grams = sum(max(len(p.encode()) - n + 1, 0)
                        for p in probe_list)
    if n_probe_grams == 0:
        raise ValueError(f"no probe is at least n={n} bytes long")
    n_bits, k = bloom_params(n_probe_grams, fpr)

    probes_ds = rd.from_arrow(pa.table({
        "probe_idx": pa.array(range(len(probe_list)), type=pa.int64()),
        text_col: pa.array(probe_list, type=pa.string()),
    }))

    def probe_grams(batch: pa.Table) -> pa.Table:
        t = ngram_window_rows(batch, text_col, "probe_idx", n)
        return pa.table({"gram": t["gram"], "ghash": t["ghash"],
                         id_col: pa.array(
                             np.full(t.num_rows, -1, dtype=np.int64))})

    grams_probe = probes_ds.map_batches(probe_grams,
                                        batch_format="pyarrow")
    bitmap_ref = ray.put(bloom_build(grams_probe, hash_col="ghash",
                                     n_bits=n_bits, k=k))

    def flagged_doc_grams(batch: pa.Table):
        bitmap = ray.get(bitmap_ref)
        # char-budget slices bound the O(batch bytes) hash temps and
        # each yielded block (the shared_ngram_pairs pattern)
        lens_all = pc.fill_null(pc.binary_length(batch[text_col]), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        budget = 4 << 20
        cum = np.cumsum(lens_all)
        total = int(cum[-1]) if len(cum) else 0
        marks = np.searchsorted(cum, np.arange(budget, total, budget),
                                side="left") + 1
        cuts = np.unique(np.concatenate(
            [[0], marks, [len(lens_all)]])).tolist()
        for s, e in zip(cuts[:-1], cuts[1:]):
            sl = batch.slice(s, e - s)
            data, lens = binary_values_parts(sl[text_col])
            ids = sl[id_col].to_numpy()
            wins = np.maximum(lens - (n - 1), 0)
            doc_starts = np.cumsum(lens) - lens
            starts = np.repeat(doc_starts, wins) + multi_arange(wins)
            h = _window_hashes(data, starts, n)
            flag = bloom_test(h, bitmap, n_bits, k)
            starts, h = starts[flag], h[flag]
            win_ids = np.repeat(ids, wins)[flag]
            m = len(starts)
            if m:
                g = data[starts[:, None] + np.arange(n, dtype=np.int64)]
                gram_arr = pa.Array.from_buffers(
                    pa.binary(n), m, [None, pa.py_buffer(g.tobytes())])
            else:
                gram_arr = pa.array([], type=pa.binary(n))
            yield pa.table({
                "gram": gram_arr,
                "ghash": pa.array(h.view(np.int64)),
                id_col: pa.array(win_ids, type=pa.int64()),
            })

    cand = ds.select_columns([id_col, text_col]).map_batches(
        flagged_doc_grams, batch_format="pyarrow")

    def verify(group: pa.Table) -> pa.Table:
        is_probe = pc.equal(group[id_col], -1)
        probe_set = group.filter(is_probe)["gram"]
        docs = group.filter(pc.invert(is_probe))
        if probe_set.length() == 0 or docs.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        hit = pc.fill_null(pc.is_in(docs["gram"],
                                    value_set=probe_set.combine_chunks()),
                           False)
        docs = docs.filter(hit)
        # distinct (doc, gram) within the partition == global distinct
        # (a gram maps to exactly one pkey); dedup by one sort + one
        # neighbor-equality pass over (id, gram bytes)
        order = pc.sort_indices(docs, sort_keys=[(id_col, "ascending"),
                                                 ("gram", "ascending")])
        docs = docs.take(order)
        ids_np = docs[id_col].to_numpy()
        grams_bytes = docs["gram"]
        same_id = np.zeros(len(ids_np), dtype=bool)
        if len(ids_np) > 1:
            same_id[1:] = ids_np[1:] == ids_np[:-1]
            same_gram = pc.equal(grams_bytes.slice(1),
                                 grams_bytes.slice(0, len(ids_np) - 1))
            same_id[1:] &= pc.fill_null(same_gram, False).to_numpy(
                zero_copy_only=False)
        keep_ids = ids_np[~same_id]
        uid, cnt = np.unique(keep_ids, return_counts=True)
        return pa.table({id_col: pa.array(uid, type=pa.int64()),
                         "c": pa.array(cnt, type=pa.int64())})

    both = cand.union(grams_probe)
    packed = both.map_batches(lambda b: _add_pkey(b, ["ghash"]),
                              batch_format="pyarrow")
    per_part = packed.groupby("pkey").map_groups(
        verify, batch_format="pyarrow")
    counts = per_part.groupby(id_col).sum("c")
    # per-doc counts attach back onto the full id column via the
    # equi-join: a small contaminated set broadcasts map-side, an
    # adversarially contaminated corpus (output approaching corpus-
    # sized) takes the partitioned path — the counts never land in the
    # driver heap at ANY size
    from .equijoin import equi_join
    joined = equi_join(ds.select_columns([id_col]), counts,
                       on=id_col, how="left")

    def finish(batch: pa.Table) -> pa.Table:
        cnt = pc.fill_null(batch["sum(c)"], 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "n_shared_grams": pa.array(cnt),
            "contaminated": pa.array(cnt > 0),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------ Gopher quality filter

# the 8 Gopher stop words (Rae et al. 2021 §A1.1): a document must
# contain at least 2 of them to pass the "stop word" rule
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                    "with")


def gopher_filter(ds, id_col: str = "doc_id", text_col: str = "text",
                  min_words: int = 50, max_words: int = 100_000,
                  min_mean_word_len: float = 3.0,
                  max_mean_word_len: float = 10.0,
                  max_symbol_ratio: float = 0.1,
                  min_alpha_word_ratio: float = 0.8,
                  min_stopwords: int = 2):
    """(doc_id, n_words, mean_word_len, alpha_word_ratio, symbol_ratio,
    n_stopwords_present, keep) — the Gopher repetition-free quality
    rules (Rae et al. 2021 §A1.1), the standard pre-training quality
    gate, over the shared alnum tokenizer so every rule is exactly
    SQL-mirrorable:

    - word count within [min_words, max_words]
    - mean word length within [min_mean_word_len, max_mean_word_len]
    - '#'/'...'-symbol-to-character ratio <= max_symbol_ratio
    - fraction of words containing an alphabetic char >=
      min_alpha_word_ratio
    - at least ``min_stopwords`` DISTINCT Gopher stop words present

    One map-only pass (no shuffle); ratios round to 4 decimals for
    oracle hash stability. Documents with zero words fail the word-
    count rule (ratios emit 0.0)."""

    stop_arr = pa.array(list(GOPHER_STOPWORDS), type=pa.string())

    def stats(batch: pa.Table) -> pa.Table:
        t = batch[text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.fill_null(t, "")
        flat, parent, n_words = _alnum_flat_terms(batch, text_col)
        n_docs = batch.num_rows
        wlen = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        sum_wlen = np.bincount(parent, weights=wlen, minlength=n_docs)
        has_alpha = pc.match_substring_regex(flat, "[a-z]") \
            .to_numpy(zero_copy_only=False)
        n_alpha = np.bincount(parent, weights=has_alpha,
                              minlength=n_docs)
        # distinct stop words present: per (doc, stopword) membership
        is_stop = pc.is_in(flat, value_set=stop_arr) \
            .to_numpy(zero_copy_only=False)
        sidx = np.flatnonzero(is_stop)
        if len(sidx):
            sw = pc.index_in(flat.take(pa.array(sidx, type=pa.int64())),
                             value_set=stop_arr) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            pairs = parent[sidx] * len(GOPHER_STOPWORDS) + sw
            uniq = np.unique(pairs)
            n_stop = np.bincount(uniq // len(GOPHER_STOPWORDS),
                                 minlength=n_docs).astype(np.int64)
        else:
            n_stop = np.zeros(n_docs, dtype=np.int64)
        n_chars = pc.binary_length(t).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        n_hash = n_chars - pc.binary_length(
            pc.replace_substring(t, "#", "")) \
            .to_numpy(zero_copy_only=False)
        t_no_ell = pc.replace_substring(t, "...", "")
        n_ell = (n_chars - pc.binary_length(t_no_ell)
                 .to_numpy(zero_copy_only=False)) / 3.0
        nw = n_words.astype(np.float64)

        # half-AWAY-from-zero to 4 decimals (DuckDB round()), not
        # numpy's half-to-even: small-integer ratios like 141/32 =
        # 4.40625 land exactly on the boundary and the two conventions
        # diverge there
        def r4(x: np.ndarray) -> np.ndarray:
            return np.trunc(x * 1e4 + np.copysign(0.5, x)) / 1e4

        mean_wl = r4(
            np.where(n_words > 0, sum_wlen / np.maximum(nw, 1.0), 0.0))
        alpha_r = r4(
            np.where(n_words > 0, n_alpha / np.maximum(nw, 1.0), 0.0))
        # symbol ratio: (#'#' + #'...') / chars — DuckDB mirrors via
        # length-difference arithmetic, same eval order
        sym_r = r4(
            np.where(n_chars > 0,
                     (n_hash + n_ell) / np.maximum(n_chars, 1.0), 0.0))
        keep = ((n_words >= min_words) & (n_words <= max_words)
                & (mean_wl >= min_mean_word_len)
                & (mean_wl <= max_mean_word_len)
                & (sym_r <= max_symbol_ratio)
                & (alpha_r >= min_alpha_word_ratio)
                & (n_stop >= min_stopwords))
        return pa.table({
            id_col: batch[id_col],
            "n_words": pa.array(n_words, type=pa.int64()),
            "mean_word_len": pa.array(mean_wl, type=pa.float64()),
            "alpha_word_ratio": pa.array(alpha_r, type=pa.float64()),
            "symbol_ratio": pa.array(sym_r, type=pa.float64()),
            "n_stopwords_present": pa.array(n_stop, type=pa.int64()),
            "keep": pa.array(keep),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


def char_entropy(batch: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Per-document Shannon entropy (base 2) over CHARACTERS — the
    classic gibberish/boilerplate quality signal (low entropy = repeated
    filler, near-random = binary junk); used as a cheap pre-filter in
    web-scale cleaning stacks alongside the Gopher rules.

    Vectorized: the batch's whole utf-8 values buffer decodes ONCE to a
    uint32 codepoint array (no Python loop over rows); per-(doc, char)
    counts come from one np.unique over a packed 64-bit key. NULL text
    counts as empty (entropy 0.0), matching the SQL oracle's
    coalesce(text, ''). Entropy rounds half-away-from-zero to 4
    decimals (DuckDB round()) for oracle hash stability.
    """
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    t = pc.fill_null(t, "")
    n = len(t)
    lens = pc.utf8_length(t).to_numpy(zero_copy_only=False).astype(np.int64)
    raw = binary_column_values(t, np.uint8)
    # concatenation of valid utf-8 strings is valid utf-8: one decode +
    # one utf-32 encode turns the whole batch into codepoints
    codes = np.frombuffer(raw.tobytes().decode("utf-8")
                          .encode("utf-32-le"), dtype=np.uint32)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
    # pack (doc, codepoint) into one sortable key: codepoints < 0x110000
    key = doc_idx * 0x110000 + codes.astype(np.int64)
    uq, cnt = np.unique(key, return_counts=True)
    docs_of = uq // 0x110000
    p = cnt / np.maximum(lens[docs_of], 1).astype(np.float64)
    ent = np.zeros(n, dtype=np.float64)
    np.add.at(ent, docs_of, -p * np.log2(p))
    ent = np.trunc(ent * 1e4 + 0.5) / 1e4  # half-away-from-zero round 4
    return pa.table({
        id_col: batch[id_col],
        "n_chars": pa.array(lens, type=pa.int64()),
        "char_entropy": pa.array(ent, type=pa.float64()),
    })


def zipf_fit(ds, text_col: str = "text"):
    """Least-squares Zipf-law fit over the corpus's term-frequency
    distribution: slope/intercept of log10(count) vs log10(rank) with
    terms ranked by (count desc, term asc). The classic corpus-health
    diagnostic (a natural-language corpus fits slope ≈ −1, Zipf 1949;
    boilerplate floods and template spam bend the curve) and the n=1
    reading of the lexicon's collectionFrequency
    (`m/model/LexiconEntry.java`).

    Scale shape: term counts via map-side-combined partials + ONE
    (term) groupby (the term_df machinery — only batch-distinct terms
    enter the exchange); ranks from a range-partitioned sort by
    (count desc, term asc) + block-METADATA prefix offsets (the
    global_ntile machinery); regression sums as per-block partials —
    the driver sees ONE 5-number row per block, never a vocab-sized
    table. Returns a single-row pyarrow Table (n_terms, zipf_slope,
    zipf_intercept), slope/intercept rounded 6 (float sums associate
    differently across engines; the normal-equation algebra equals
    SQL's regr_slope/regr_intercept exactly in reals).
    """
    import ray
    from ray.data.aggregate import Sum

    def count_pass(batch: pa.Table) -> pa.Table:
        flat, _, _ = _alnum_flat_terms(batch, text_col)
        if len(flat) == 0:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        g = (pa.table({"term": flat}).group_by("term")
             .aggregate([([], "count_all")]))
        return pa.table({"term": g["term"],
                         "c": g["count_all"].cast(pa.int64())})

    counts = (ds.map_batches(count_pass, batch_format="pyarrow")
              .groupby("term")
              .aggregate(Sum("c", alias_name="c")))
    sorted_ds = counts.sort(["c", "term"], descending=[True, False])

    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            rows.append(meta.num_rows)
    offsets = np.concatenate([[0], np.cumsum(rows[:-1])]).astype(np.int64) \
        if rows else np.zeros(0, dtype=np.int64)
    n_terms = int(sum(rows))
    if n_terms == 0:
        return pa.table({"n_terms": pa.array([], type=pa.int64()),
                         "zipf_slope": pa.array([], type=pa.float64()),
                         "zipf_intercept": pa.array([], type=pa.float64())})

    @ray.remote
    def partial(tbl: pa.Table, off: int):
        x = np.log10(off + np.arange(tbl.num_rows, dtype=np.float64) + 1.0)
        y = np.log10(tbl["c"].to_numpy().astype(np.float64))
        return (float(x.sum()), float(y.sum()), float((x * y).sum()),
                float((x * x).sum()), tbl.num_rows)

    parts = ray.get([partial.remote(r, int(o))
                     for r, o in zip(refs, offsets)])
    sx = sum(p[0] for p in parts)
    sy = sum(p[1] for p in parts)
    sxy = sum(p[2] for p in parts)
    sxx = sum(p[3] for p in parts)
    n = float(sum(p[4] for p in parts))
    denom = n * sxx - sx * sx
    if denom == 0.0:           # a single term: the fit is degenerate
        slope, intercept = 0.0, sy / n
    else:
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
    r6 = lambda v: float(np.trunc(v * 1e6 + np.copysign(0.5, v)) / 1e6)
    return pa.table({"n_terms": pa.array([n_terms], type=pa.int64()),
                     "zipf_slope": pa.array([r6(slope)],
                                            type=pa.float64()),
                     "zipf_intercept": pa.array([r6(intercept)],
                                                type=pa.float64())})


def nfc_normalize(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Unicode NFC normalization — the canonical text-cleaning step
    before hashing/dedup (the same logical text arrives from the web as
    either composed 'á' or decomposed 'a'+U+0301; every exact-dedup,
    fingerprint and shingle operator upstream keys on BYTES, so corpora
    must normalize first or near-identical docs silently miss).

    Map-only, no shuffle. Scale shape: a batch whose values buffer is
    pure ASCII (one vectorized max over the raw bytes) is ALREADY
    normalized — zero per-string work, which is the overwhelmingly
    common case for web/code corpora; non-ASCII batches normalize each
    batch-DISTINCT value once (dictionary-encode, one
    unicodedata.normalize C call per unique string — the same memoized
    per-unique shape as the tokenizer's stemmer) and fan results back
    out through the codes. Returns (id_col, text [normalized],
    changed bool).
    """
    import unicodedata

    def norm(batch: pa.Table) -> pa.Table:
        t = batch[text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.fill_null(t, "")
        raw = binary_column_values(t, np.uint8)
        n = batch.num_rows
        if len(raw) == 0 or raw.max() < 0x80:    # pure ASCII: identity
            return pa.table({
                id_col: batch[id_col],
                "text": t,
                "changed": pa.array(np.zeros(n, dtype=bool))})
        denc = pc.dictionary_encode(t)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        uniq = denc.dictionary.to_pylist()
        fixed = [unicodedata.normalize("NFC", u) for u in uniq]
        codes = denc.indices.to_numpy(zero_copy_only=False)
        out = pa.DictionaryArray.from_arrays(
            pa.array(codes, type=pa.int32()),
            pa.array(fixed, type=pa.string())).cast(pa.string())
        changed = np.array([f != u for f, u in zip(fixed, uniq)])
        return pa.table({
            id_col: batch[id_col],
            "text": out,
            "changed": pa.array(changed[codes])})

    return ds.map_batches(norm, batch_format="pyarrow")


def heaps_fit(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Heaps'-law fit of vocabulary growth: V(n) ≈ K·n^beta, fit as the
    least-squares slope/intercept of log10 V against log10 n over the
    corpus consumed in ascending ``id_col`` order (one sample per doc
    with ≥1 token) — the companion corpus-health diagnostic to
    :func:`zipf_fit` (natural text: beta ≈ 0.4-0.6; runaway vocabulary
    — every identifier a new term — pushes beta toward 1 and flags a
    code/template flood).

    Scale shape: ONE content scan emits (term, first_doc) per
    batch-distinct term plus per-doc token counts; one term groupby
    takes min(first_doc) (the only vocab-sized exchange — slim pairs);
    new-term counts per doc and token counts per doc then reduce to
    per-BLOCK regression partials through the global_ntile
    sort+metadata-offset machinery, exactly the zipf_fit shape: the
    driver sees a 5-number row per block. Returns a single-row table
    (n_docs, n_tokens, n_terms, heaps_beta, heaps_log10_k), rounded 6.
    """
    import ray
    from ray.data.aggregate import Min, Sum

    def scan(batch: pa.Table) -> pa.Table:
        flat, parent, counts = _alnum_flat_terms(batch, text_col)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(flat):
            t = pa.table({"term": flat,
                          "first_doc": pa.array(ids[parent],
                                                type=pa.int64())})
            firsts = t.group_by("term").aggregate([("first_doc", "min")])
            terms = pa.table({"term": firsts["term"],
                              "first_doc": firsts["first_doc_min"]})
        else:
            terms = pa.table({"term": pa.array([], type=pa.string()),
                              "first_doc": pa.array([],
                                                    type=pa.int64())})
        docs = pa.table({id_col: batch[id_col],
                         "n_tok": pa.array(counts, type=pa.int64())})
        return terms, docs

    # two derived streams from one scan: run it twice rather than cache
    # blocks driver-side (each pass is map-only and column-pruned; the
    # alternative — materializing a tagged union — costs a full copy)
    firsts = (ds.map_batches(lambda b: scan(b)[0],
                             batch_format="pyarrow")
              .groupby("term")
              .aggregate(Min("first_doc", alias_name="first_doc")))
    def count_new(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "first_doc" not in b.column_names:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "n_new": pa.array([], type=pa.int64())})
        g = (pa.table({id_col: b["first_doc"]})
             .group_by(id_col).aggregate([([], "count_all")]))
        return pa.table({id_col: g[id_col],
                         "n_new": g["count_all"].cast(pa.int64())})

    new_per_doc = (firsts.map_batches(count_new, batch_format="pyarrow")
                   .groupby(id_col)
                   .aggregate(Sum("n_new", alias_name="n_new")))

    toks_per_doc = (ds.map_batches(lambda b: scan(b)[1],
                                   batch_format="pyarrow"))

    # tagged union -> per-doc (n_tok, n_new) -> sort by doc id ->
    # block-offset prefix sums -> per-block regression partials
    schema = pa.schema([(id_col, pa.int64()), ("n_tok", pa.int64()),
                        ("n_new", pa.int64())])

    def tag_tok(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b[id_col], "n_tok": b["n_tok"],
                         "n_new": pa.array(np.zeros(b.num_rows,
                                                    np.int64))},
                        schema=schema)

    def tag_new(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or id_col not in b.column_names:
            return schema.empty_table()
        return pa.table({id_col: b[id_col],
                         "n_tok": pa.array(np.zeros(b.num_rows,
                                                    np.int64)),
                         "n_new": b["n_new"]}, schema=schema)

    per_doc = (toks_per_doc.map_batches(tag_tok, batch_format="pyarrow")
               .union(new_per_doc.map_batches(tag_new,
                                              batch_format="pyarrow"))
               .groupby(id_col)
               .aggregate(Sum("n_tok", alias_name="n_tok"),
                          Sum("n_new", alias_name="n_new")))
    sorted_ds = per_doc.sort(id_col)

    refs, rows = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            rows.append(meta.num_rows)
    if not rows:
        return pa.table({"n_docs": pa.array([], type=pa.int64()),
                         "n_tokens": pa.array([], type=pa.int64()),
                         "n_terms": pa.array([], type=pa.int64()),
                         "heaps_beta": pa.array([], type=pa.float64()),
                         "heaps_log10_k": pa.array([],
                                                   type=pa.float64())})

    @ray.remote
    def block_sums(tbl: pa.Table):
        return (int(tbl["n_tok"].to_numpy().sum()),
                int(tbl["n_new"].to_numpy().sum()), tbl.num_rows)

    sums = ray.get([block_sums.remote(r) for r in refs])
    tok_off = np.concatenate(
        [[0], np.cumsum([s[0] for s in sums][:-1])]).astype(np.int64)
    new_off = np.concatenate(
        [[0], np.cumsum([s[1] for s in sums][:-1])]).astype(np.int64)

    @ray.remote
    def partial(tbl: pa.Table, t_off: int, v_off: int):
        nt = tbl["n_tok"].to_numpy()
        nv = tbl["n_new"].to_numpy()
        n_cum = t_off + np.cumsum(nt)
        v_cum = v_off + np.cumsum(nv)
        keep = nt > 0          # sample per doc with >= 1 token
        x = np.log10(n_cum[keep].astype(np.float64))
        y = np.log10(np.maximum(v_cum[keep], 1).astype(np.float64))
        return (float(x.sum()), float(y.sum()), float((x * y).sum()),
                float((x * x).sum()), int(keep.sum()))

    parts = ray.get([partial.remote(r, int(t), int(v))
                     for r, t, v in zip(refs, tok_off, new_off)])
    sx = sum(p[0] for p in parts)
    sy = sum(p[1] for p in parts)
    sxy = sum(p[2] for p in parts)
    sxx = sum(p[3] for p in parts)
    n = float(sum(p[4] for p in parts))
    n_tokens = sum(s[0] for s in sums)
    n_terms = sum(s[1] for s in sums)
    denom = n * sxx - sx * sx
    if n == 0 or denom == 0.0:
        beta, logk = 0.0, (sy / n if n else 0.0)
    else:
        beta = (n * sxy - sx * sy) / denom
        logk = (sy - beta * sx) / n
    r6 = lambda v: float(np.trunc(v * 1e6 + np.copysign(0.5, v)) / 1e6)
    return pa.table({
        "n_docs": pa.array([int(sum(s[2] for s in sums))],
                           type=pa.int64()),
        "n_tokens": pa.array([int(n_tokens)], type=pa.int64()),
        "n_terms": pa.array([int(n_terms)], type=pa.int64()),
        "heaps_beta": pa.array([r6(beta)], type=pa.float64()),
        "heaps_log10_k": pa.array([r6(logk)], type=pa.float64())})
