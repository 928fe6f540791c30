"""Static index pruning — Carmel et al., "Static Index Pruning for
Information Retrieval Systems" (SIGIR 2001), the top-k (uniform)
variant: keep only each term's ``keep_per_term`` highest-impact
postings (tf desc, docId asc — the champion-list criterion,
`query/champions.py`) and rebuild a self-contained SMALLER index that
approximates the full index's top-k results at a fraction of the
posting volume. The reference engine has no equivalent (it always
stores and walks full lists); this is the index-side extension that
trades bounded effectiveness loss for storage + latency.

Reuses the lifecycle machinery end to end (the vacuum shape,
`build/tombstones.py`): postings decode -> per-term top-k filter ->
the build's own partial/encode/lexicon/stats stages. The docs table
and document lengths COPY over unchanged — kept postings score with
the full corpus's length normalization — while df / idf / upper
bounds recompute from the pruned lists (the pruned index is exactly
what a from-scratch build over the kept postings would produce, so
every query path works on it unmodified).

Scale shape: the top-k filter is the champion-list exchange — a
LOSSLESS per-batch pre-top-k means at most k rows per (term, batch)
enter the term groupby, never the postings; everything downstream is
the build's own distributed encode.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from ..config import IndexConfig
from .index_build import (
    _build_lexicon_files,
    _encode_partials,
    _partition_stats,
    _write_stats,
    load_stats,
)
from .manifests import write_manifest
from .merge import _TOKENIZER_KNOBS, _rows_to_partials


def prune_index(index_dir: str, out_dir: str, keep_per_term: int,
                cfg: IndexConfig | None = None) -> dict:
    """Write a pruned copy of ``index_dir`` at ``out_dir`` keeping each
    term's top ``keep_per_term`` postings by (tf desc, docId asc)."""
    import ray.data as rd

    from ..query.champions import _topm_rows
    from ..query.dump import dump_postings

    if keep_per_term <= 0:
        raise ValueError("keep_per_term must be positive")
    stats = load_stats(index_dir)
    cfg = cfg or IndexConfig(
        parse=stats["parse"], squeeze=stats["squeeze"],
        codec=stats["codec"], num_shards=stats["num_shards"],
        salt_buckets=stats["salt_buckets"],
        k1=stats["k1"], b=stats["b"])
    cfg.codec_valid()
    for knob in _TOKENIZER_KNOBS:
        if getattr(cfg, knob) != stats[knob]:
            raise ValueError(
                f"cfg.{knob}={getattr(cfg, knob)!r} does not match the "
                f"input index ({stats[knob]!r}); pruning never "
                "re-tokenizes, so tokenizer knobs cannot change here")
    n_docs = int(stats["n_docs"])
    total_len = int(stats["total_doc_len"])
    avg_len = total_len / max(n_docs, 1)

    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    metrics: dict = {"pruned_from": str(index_dir),
                     "keep_per_term": int(keep_per_term),
                     "n_docs": n_docs}

    # ------- docs + doc lengths: byte-identical copies -------
    t0 = time.time()
    if Path(index_dir, "docs").exists():
        shutil.copytree(Path(index_dir, "docs"), out / "docs")
    else:
        (out / "docs").mkdir()
    # tombstones CARRY THROUGH like merge_indexes (build/merge.py):
    # the pruned index keeps the same docId space, so the deletion
    # record stays valid verbatim; the postings dump below also
    # APPLIES them, so tombstoned docs never occupy kept top-k slots
    # and never resurrect at query time
    for side in ("doc_lens", "tombstones"):
        p = Path(index_dir, side)
        if p.exists():
            shutil.copytree(p, out / side)
    write_manifest(out_dir=str(out), stage="docs", payload={
        "lineage": {"pruned_from": str(index_dir)},
        "n_docs": n_docs, "total_doc_len": total_len,
        "seconds": time.time() - t0,
    })
    metrics["docs_seconds"] = time.time() - t0

    # ------- postings: decode -> per-term top-k -> re-encode -------
    t1 = time.time()
    xstats: dict = {}
    if any(Path(index_dir, "postings").glob("**/*.parquet")):
        rows = dump_postings(index_dir, docno_offset=0,
                             apply_tombstones=True)
        kept = (rows.map_batches(
                    lambda b: _topm_rows(b, keep_per_term),
                    batch_format="pyarrow")
                .groupby("term")
                .map_groups(lambda g: _topm_rows(g, keep_per_term),
                            batch_format="pyarrow"))
        posts = kept.map_batches(
            _rows_to_partials(cfg.num_shards, cfg.salt_buckets, n_docs),
            batch_format="pyarrow")
        xstats = _encode_partials(posts, out, cfg, n_docs, avg_len)
    else:
        (out / "postings").mkdir(exist_ok=True)
    write_manifest(out_dir=str(out), stage="postings", payload={
        "seconds": time.time() - t1, "codec": cfg.codec,
        "salt_buckets": cfg.salt_buckets, "num_shards": cfg.num_shards,
        "partitions": _partition_stats(out / "postings"), "sub": xstats,
    })
    metrics["postings_seconds"] = time.time() - t1

    # ------- lexicon + stats: the build's own stage code -------
    t2 = time.time()
    _build_lexicon_files(out, n_docs)
    write_manifest(out_dir=str(out), stage="lexicon",
                   payload={"seconds": time.time() - t2})
    metrics["lexicon_seconds"] = time.time() - t2
    return _write_stats(out, cfg, n_docs, total_len, metrics)
