"""Static index pruning — Carmel et al., "Static Index Pruning for
Information Retrieval Systems" (SIGIR 2001), the top-k (uniform)
variant: keep only each term's ``keep_per_term`` highest-impact
postings (tf desc, docId asc — the champion-list criterion,
`query/champions.py`) and rebuild a self-contained SMALLER index that
approximates the full index's top-k results at a fraction of the
posting volume. The reference engine has no equivalent (it always
stores and walks full lists); this is the index-side extension that
trades bounded effectiveness loss for storage + latency.

Runs the lifecycle rewrite path (`build/lifecycle.py`), as vacuum
does: postings decode -> per-term top-k filter -> the build's own
partial/encode/lexicon/stats stages. The docs table
and document lengths COPY over unchanged — kept postings score with
the full corpus's length normalization — while df / idf / upper
bounds recompute from the pruned lists (the pruned index is exactly
what a from-scratch build over the kept postings would produce, so
every query path works on it unmodified).

Scale shape: a term's whole posting list sits in one source shard
directory, so each exchange map decodes one source shard and takes
every term's top-k in place — only kept postings enter the build's
own distributed encode, and no term exchange runs at all.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pyarrow as pa

from ..config import IndexConfig
from .index_build import load_stats


def prune_index(index_dir: str, out_dir: str, keep_per_term: int,
                cfg: IndexConfig | None = None) -> dict:
    """Write a pruned copy of ``index_dir`` at ``out_dir`` keeping each
    term's top ``keep_per_term`` postings by (tf desc, docId asc)."""
    from ..query.champions import _topm_rows
    from .lifecycle import rewrite_index
    from .tombstones import _filter_remap, load_tombstones

    if keep_per_term <= 0:
        raise ValueError("keep_per_term must be positive")
    stats = load_stats(index_dir)
    # tombstones are APPLIED before the top-k, so tombstoned docs never
    # occupy kept slots and never resurrect at query time
    drop = _filter_remap(load_tombstones(index_dir), renumber=False)

    def write_docs(out: Path, cfg: IndexConfig, metrics: dict) -> int:
        # docs + doc lengths: byte-identical copies
        if Path(index_dir, "docs").exists():
            shutil.copytree(Path(index_dir, "docs"), out / "docs")
        else:
            (out / "docs").mkdir()
        # tombstones CARRY THROUGH like merge_indexes (build/merge.py):
        # the pruned index keeps the same docId space, so the deletion
        # record stays valid verbatim
        for side in ("doc_lens", "tombstones"):
            p = Path(index_dir, side)
            if p.exists():
                shutil.copytree(p, out / side)
        return int(stats["total_doc_len"])

    def top_k(rows: pa.Table) -> pa.Table:
        return _topm_rows(drop(rows), keep_per_term)

    return rewrite_index(
        "prune", stats, out_dir, cfg, n_docs=int(stats["n_docs"]),
        lineage={"pruned_from": str(index_dir),
                 "keep_per_term": int(keep_per_term)},
        write_docs=write_docs, sources=[(index_dir, 0)], step=top_k)
