"""Corpus-level duplicate-line removal (the RefinedWeb / C4 line-dedup
step: drop every line whose exact byte content appears >= min_count
times across the WHOLE corpus — navigation menus, cookie banners,
boilerplate headers) plus the within-document duplicate-line /
duplicate-paragraph repetition fractions (Gopher rules 1-4, Rae et al.
2021 §A1.1) that complement `ops.textops.gopher_filter`'s quality
rules.

Scale shape of `line_dedup`:

- pass 1 (count): per-batch map-side combine over distinct lines, then
  ONE (line -> count) groupby — the only exchange that moves line
  content, and only distinct-per-batch lines enter it.
- pass 2 (rebuild): one ``lookup_join`` of each doc's (doc, ord, line)
  rows against the dup set, matching on line BYTES (hash-set `is_in`,
  so hash collisions cannot flip the result), then a per-doc rebuild.
  Map-only against the broadcast dup set when it fits the gate; else
  the lines meet the dup set co-partitioned by line hash and the
  flagged lines take one doc-partitioned exchange to the rebuild.
  Nothing corpus-sized ever lands on the driver.

`duplicate_line_stats` is one map-only pass (no shuffle): an
occurrence is a duplicate iff an identical line/paragraph appeared
EARLIER in the same document (SQL `row_number() OVER (PARTITION BY
doc, line ORDER BY ord) > 1`), so the fractions are deterministic and
exactly SQL-mirrorable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _split_lines(col):
    """column -> (flat line StringArray, per-row line counts int64,
    parent row index per line). NULL text splits like ''."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    lst = pc.split_pattern(col, pattern="\n")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    counts = pc.list_value_length(lst).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(lst)
    parent = np.repeat(np.arange(len(col), dtype=np.int64), counts)
    return flat, counts, parent


def _rebuild(batch: pa.Table, flat, counts, parent, is_dup: np.ndarray,
             id_col: str) -> pa.Table:
    """Assemble the output table given the per-line dup mask."""
    n_docs = batch.num_rows
    n_dup = np.bincount(parent[is_dup], minlength=n_docs) \
        .astype(np.int64) if is_dup.any() else \
        np.zeros(n_docs, dtype=np.int64)
    keep = pa.array(~is_dup)
    kept_flat = flat.filter(keep)
    kept_counts = counts - n_dup
    offsets = np.concatenate(
        [[0], np.cumsum(kept_counts)]).astype(np.int32)
    lst = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                   kept_flat)
    text_clean = pc.binary_join(lst, "\n")
    return pa.table({
        id_col: batch[id_col],
        "n_lines": pa.array(counts, type=pa.int64()),
        "n_dup_lines": pa.array(n_dup, type=pa.int64()),
        "text_clean": text_clean,
    })


def line_dedup(ds, min_count: int = 2, id_col: str = "doc_id",
               text_col: str = "text"):
    """(doc_id, n_lines, n_dup_lines, text_clean): remove every line
    whose exact content occurs >= ``min_count`` times corpus-wide;
    kept lines re-join with '\\n' in original order (all-duplicate docs
    yield ''). Matching is exact on line BYTES on both paths."""
    from ray.data.aggregate import Sum

    from .equijoin import lookup_join

    if min_count < 2:
        raise ValueError(f"min_count must be >= 2, got {min_count}")

    def line_counts(batch: pa.Table) -> pa.Table:
        flat, _, _ = _split_lines(batch[text_col])
        a = pa.table({"line": flat}).group_by("line").aggregate(
            [([], "count_all")])
        return pa.table({"line": a["line"],
                         "c": a["count_all"].cast(pa.int64())})

    def only_dups(batch: pa.Table) -> pa.Table:
        m = pc.greater_equal(batch["c"], min_count)
        return batch.filter(m).select(["line"])

    dup_ds = (ds.map_batches(line_counts, batch_format="pyarrow")
                .groupby("line").aggregate(Sum("c", alias_name="c"))
                .map_batches(only_dups, batch_format="pyarrow")
                .materialize())

    def explode(batch: pa.Table) -> pa.Table:
        # every doc has >= 1 line (NULL and '' split to one empty line)
        flat, counts, parent = _split_lines(batch[text_col])
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ords = np.arange(len(parent), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        return pa.table({id_col: ids.take(pa.array(parent)),
                         "ord": pa.array(ords), "line": flat})

    def apply(rows: pa.Table, dup_set) -> pa.Table:
        return rows.append_column(
            "dup", pc.is_in(rows["line"], value_set=dup_set))

    def finish(rows: pa.Table) -> pa.Table:
        rows = rows.take(pc.sort_indices(rows, sort_keys=[
            (id_col, "ascending"), ("ord", "ascending")]))
        ids = rows[id_col].to_numpy()
        n = len(ids)
        starts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1])) \
            if n else np.zeros(0, dtype=np.int64)
        counts = np.diff(np.append(starts, n)).astype(np.int64)
        parent = np.repeat(np.arange(len(starts)), counts)
        return _rebuild(
            pa.table({id_col: rows[id_col].take(pa.array(starts))}),
            rows["line"].combine_chunks(), counts, parent,
            rows["dup"].to_numpy(zero_copy_only=False), id_col)

    return lookup_join(ds, dup_ds, "line",
                       lambda t: t["line"].combine_chunks(), apply,
                       explode=explode, regroup=(id_col, finish))


# ------------------------- within-doc repetition fractions (Gopher 1-4)

def _dup_occurrence_stats(flat, counts, parent, n_docs: int):
    """counts/chars of occurrences that repeat an EARLIER identical
    element within the same parent doc. Returns (n_dup, dup_chars,
    total_chars) per doc."""
    lens = pc.binary_length(flat).to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    total_chars = np.bincount(parent, weights=lens, minlength=n_docs)
    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    if len(codes) == 0:
        z = np.zeros(n_docs, dtype=np.int64)
        return z, np.zeros(n_docs), total_chars
    # stable sort keeps original order within (doc, line) runs, so
    # "first" is the earliest occurrence — matches row_number() > 1
    order = np.lexsort((codes, parent))
    c2, p2 = codes[order], parent[order]
    first = np.ones(len(c2), dtype=bool)
    first[1:] = (c2[1:] != c2[:-1]) | (p2[1:] != p2[:-1])
    dup = ~first
    n_dup = np.bincount(p2[dup], minlength=n_docs).astype(np.int64)
    dup_chars = np.bincount(p2[dup], weights=lens[order][dup],
                            minlength=n_docs)
    return n_dup, dup_chars, total_chars


def duplicate_line_stats(batch: pa.Table, id_col: str = "doc_id",
                         text_col: str = "text") -> pa.Table:
    """(doc_id, n_lines, dup_line_frac, dup_line_char_frac, n_paras,
    dup_para_frac, dup_para_char_frac) — Gopher repetition rules 1-4:
    the fraction of lines / paragraphs (and of their characters) that
    repeat an earlier identical one WITHIN the document. Map-only;
    fractions round half-away-from-zero to 4 decimals (SQL round())."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    n_docs = batch.num_rows

    def r4(x: np.ndarray) -> np.ndarray:
        return np.trunc(x * 1e4 + np.copysign(0.5, x)) / 1e4

    out = {id_col: batch[id_col]}
    for name, pat in (("line", "\n"), ("para", "\n\n")):
        lst = pc.split_pattern(col, pattern=pat)
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        counts = pc.list_value_length(lst) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lst)
        parent = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        n_dup, dup_chars, tot_chars = _dup_occurrence_stats(
            flat, counts, parent, n_docs)
        nf = counts.astype(np.float64)
        out[f"n_{name}s"] = pa.array(counts, type=pa.int64())
        out[f"dup_{name}_frac"] = pa.array(
            r4(np.where(counts > 0, n_dup / np.maximum(nf, 1.0), 0.0)),
            type=pa.float64())
        out[f"dup_{name}_char_frac"] = pa.array(
            r4(np.where(tot_chars > 0,
                        dup_chars / np.maximum(tot_chars, 1.0), 0.0)),
            type=pa.float64())
    return pa.table(out)
