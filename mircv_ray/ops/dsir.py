"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
arXiv:2302.03169): score every raw document by the log likelihood
ratio of a bag-of-tokens model fit on a TARGET subset vs one fit on
the full raw corpus; resampling raw data proportionally to exp(weight)
shifts the mixture toward the target distribution. The paper hashes
n-gram features into a fixed bucket count to bound model size; the
unhashed feature space is the exact twin the hashed path is validated
against.

log_w(d) = sum_{tok in d} [log10 p_t(tok) - log10 p_r(tok)],
p(tok) = (count(tok) + 1) / (N + V)   (add-one smoothing; V = raw
vocab size, so target-side zero counts are well-defined and every
token of a raw doc is in-vocab by construction).

Shape: ONE counting pass — each batch emits map-side-combined
(feature, c_all, c_tgt) partials, one feature-sized groupby sums them —
then one ``lookup_join`` of each doc's (doc, feature, k) runs against
the counts scores it: the model broadcasts (read once per worker, a
map-only pass) when it fits the gate, else the runs meet the counts
feature-partitioned with a doc-partitioned finish. The hashed path
bounds the model at ``buckets`` floats regardless of corpus size (the
paper's point); the unhashed twin takes the partitioned path when its
vocabulary outgrows the gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textops import _alnum_flat_terms, _doc_key_runs, _per_doc_sums


def dsir_weights(ds, target_col: str, target_value,
                 id_col: str = "doc_id", text_col: str = "text",
                 buckets: int | None = None):
    """Per-doc DSIR log importance weight. ``target_col == target_value``
    defines the target subset (e.g. lang == 'en'). ``buckets=None`` is
    the exact (unhashed unigram) twin; an int hashes features with
    crc32 into that many buckets (the paper's production shape).

    Returns (id_col, n_tokens, log_weight) with log_weight rounded to 4
    decimals (per-doc float sums associate differently across engines).
    """
    from ray.data.aggregate import Sum

    from .equijoin import lookup, lookup_join, sorted_keys

    def featurize(batch: pa.Table):
        flat, parent, counts = _alnum_flat_terms(batch, text_col)
        if buckets is None:
            return flat, parent, counts
        from ..util import crc32_column
        h = (crc32_column(flat) % np.uint32(buckets)).astype(np.int64)
        return pa.array(h), parent, counts

    def count_pass(batch: pa.Table) -> pa.Table:
        feats, parent, _ = featurize(batch)
        is_t = pc.equal(batch[target_col], target_value)
        tmask = pc.fill_null(is_t, False).to_numpy(zero_copy_only=False)
        tgt = tmask[parent].astype(np.int64)
        part = (pa.table({"feature": feats,
                          "c_all": pa.array(
                              np.ones(len(parent), np.int64)),
                          "c_tgt": pa.array(tgt)})
                .group_by("feature")
                .aggregate([("c_all", "sum"), ("c_tgt", "sum")]))
        return pa.table({"feature": part["feature"],
                         "c_all": part["c_all_sum"],
                         "c_tgt": part["c_tgt_sum"]})

    counts_ds = (ds.map_batches(count_pass, batch_format="pyarrow")
                 .groupby("feature")
                 .aggregate(Sum("c_all", alias_name="c_all"),
                            Sum("c_tgt", alias_name="c_tgt"))
                 .materialize())
    v = float(counts_ds.count())
    sums = counts_ds.aggregate(Sum("c_all"), Sum("c_tgt")) or {}
    n_all = float(sums.get("sum(c_all)") or 0)
    n_tgt = float(sums.get("sum(c_tgt)") or 0)

    def explode(batch: pa.Table) -> pa.Table:
        feats, parent, _ = featurize(batch)
        return _doc_key_runs(batch, id_col, feats, parent)

    def prepare(m: pa.Table):
        keys, order = sorted_keys(m["feature"])
        c_all = m["c_all"].to_numpy()[order].astype(np.float64)
        c_tgt = m["c_tgt"].to_numpy()[order].astype(np.float64)
        # log10 p under add-one smoothing; V is the RAW vocab/bucket
        # count on both sides so the ratio is well-defined for
        # unseen-in-target
        log_p_t = np.log10(c_tgt + 1.0) - np.log10(max(n_tgt + v, 1.0))
        log_p_r = np.log10(c_all + 1.0) - np.log10(max(n_all + v, 1.0))
        return keys, log_p_t - log_p_r

    def apply(rows: pa.Table, state) -> pa.Table:
        w = lookup(*state, rows["key"], 0.0) * rows["k"].to_numpy()
        return rows.append_column("w", pa.array(w, type=pa.float64()))

    def finish(rows: pa.Table) -> pa.Table:
        ids, (n_tok, lw) = _per_doc_sums(rows, id_col, ["k", "w"])
        lw = np.trunc(lw * 1e4 + np.where(lw >= 0, 0.5, -0.5)) / 1e4
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(n_tok.astype(np.int64), type=pa.int64()),
            "log_weight": pa.array(lw, type=pa.float64()),
        })

    return lookup_join(ds, counts_ds, "key", prepare, apply,
                       right_on="feature", explode=explode,
                       regroup=(id_col, finish))
