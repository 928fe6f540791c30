"""Upsert: replace documents by (repo, path) key without a base rescan.

The reference engine has no incremental path at all (a changed document
means rebuilding `indexer.jar` from scratch); this composes the three
lifecycle primitives this repo already has — delta build, tombstone-
carrying merge, logical delete — into the standard LSM-ish update:

1. build a DELTA index over the NEW document versions only,
2. ``merge_indexes(base, delta)`` (no content rescan: postings decode ->
   re-encode; the delta's docIds land AFTER the base's),
3. tombstone the superseded base docIds in the merged output (the old
   versions of every upserted key).

Query-visible semantics: base docs whose key was NOT upserted keep
their docIds and postings; upserted keys are served by their new
version at a post-base docId. The old rows stay physical (and keep
occupying id space / collection stats) until ``vacuum_index`` — same
contract as plain deletes.

Scale shape: the only per-base-size work is the merge's postings
decode->encode pass (compressed index bytes, ~10-20% of corpus) and
one slim scan of the base docs table to find superseded ids; the
upserted-key set broadcasts (it is update-sized), and only the
superseded id array (deletion-sized) ever reaches the driver.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig
from .index_build import build_index
from .merge import merge_indexes
from .tombstones import delete_docs


def _key_col(batch: pa.Table) -> pa.Array:
    # NUL can appear in neither repo nor path (filesystem keys), so the
    # joined bytes are collision-free
    return pc.binary_join_element_wise(
        batch["repo"].cast(pa.binary()), batch["path"].cast(pa.binary()),
        b"\x00")


def upsert_docs(base_dir: str, delta_corpus, out_dir: str,
                cfg: IndexConfig | None = None,
                delta_dir: str | None = None) -> dict:
    """Write an index at ``out_dir`` = ``base_dir`` with every document
    whose (repo, path) key appears in ``delta_corpus`` replaced by its
    new version (and brand-new keys appended). Returns the merge stats
    dict plus ``n_superseded``. ``delta_dir`` keeps the intermediate
    delta index (default: ``out_dir + '.delta'``, removed on success).
    """
    import ray
    import ray.data as rd

    from .index_build import load_stats
    from .lifecycle import cfg_from_stats

    keep_delta = delta_dir is not None
    delta_dir = delta_dir or f"{out_dir}.delta"
    base_stats = load_stats(base_dir)
    build_index(delta_corpus, delta_dir, cfg or cfg_from_stats(base_stats))

    # upserted keys from the DELTA index's slim docs table (update-sized)
    delta_keys = pa.concat_tables(
        [t for t in ray.get(
            rd.read_parquet(f"{delta_dir}/docs",
                            columns=["repo", "path"]).to_arrow_refs())
         if t.num_rows] or
        [pa.table({"repo": pa.array([], pa.string()),
                   "path": pa.array([], pa.string())})]).combine_chunks()
    keys_ref = ray.put(_key_col(delta_keys))

    stats = merge_indexes(base_dir, delta_dir, out_dir, cfg)

    # superseded = base docIds whose key was re-uploaded: one slim
    # column-pruned scan, is_in against the broadcast key set, only the
    # matching id array (deletion-sized) reaches the driver
    def match(batch: pa.Table) -> pa.Table:
        hit = pc.is_in(_key_col(batch), value_set=ray.get(keys_ref))
        return pa.table({"doc_id": batch["doc_id"].filter(hit)})

    hits = rd.read_parquet(f"{base_dir}/docs",
                           columns=["repo", "path", "doc_id"]) \
        .map_batches(match, batch_format="pyarrow")
    ids = np.concatenate(
        [t["doc_id"].to_numpy() for t in ray.get(hits.to_arrow_refs())
         if t.num_rows] or [np.zeros(0, np.int64)])
    if len(ids):
        delete_docs(out_dir, ids)
    if not keep_delta:
        shutil.rmtree(Path(delta_dir), ignore_errors=True)
    stats = dict(stats)
    stats["n_superseded"] = int(len(ids))
    return stats
