"""General distributed equi-join. Ray Data 2.49 ships ``Dataset.join``
(the build's docId attach uses it, ``build/index_build.py``); this
module predates that and is kept for its broadcast path and its raw-
task partitioned path. Every sided operator in this repo
(dedup verify, LM count attach, as-of carry, line-dedup rebuild)
hand-rolls its own tagged-union join tuned to its row shapes; this
module is the GENERIC pair: SQL ``INNER`` / ``LEFT OUTER`` join of two
Datasets on one key column, any column sets, exact SQL NULL semantics
(NULL keys match nothing — pyarrow's acero hash join implements this
natively, and every per-partition or per-batch join below delegates to
that battle-tested C++ kernel; the operator's contribution is the
DISTRIBUTED orchestration).

Two paths, chosen by measured right-side size (the dedup
``_join_pair_state`` adaptive rule):

- **broadcast** (right <= ``broadcast_max_bytes``): the right table is
  packed once, ``ray.put`` once, read once per worker, and every left
  batch joins against it map-side — the left side streams, nothing
  shuffles. This is the "small dimension table" path.
- **partitioned** (above): the classic MR repartition join as raw Ray
  tasks (the index build's mr2-exchange shape, `build/index_build.py`):
  one split task per input block hash-partitions its rows by key
  (``num_returns=N`` so each partition is an independently fetchable
  object — a reduce fetches exactly its shard, never a block's other
  partitions), one reduce task per partition concatenates its shards
  from both sides and runs the arrow join. Only (row) bytes move,
  each exactly once; no driver materialization at any size.

A LEFT join's null-key left rows match nothing and are emitted padded
by the per-partition arrow join itself (nulls hash to partition 0 —
where they land is irrelevant since they match nothing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BROADCAST_RIGHT_MAX_BYTES = 256 * 1024 * 1024

_JOIN_TYPE = {"inner": "inner", "left": "left outer"}


def _as_keys(on) -> list:
    return list(on) if isinstance(on, (list, tuple)) else [on]


def _key_partition(batch: pa.Table, on, n: int) -> np.ndarray:
    from ..util import crc32_column
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    valid = np.ones(batch.num_rows, dtype=bool)
    with np.errstate(over="ignore"):
        for col in _as_keys(on):
            k = batch[col]
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            sc = pc.fill_null(pc.cast(k, pa.string()), "")
            h = h * np.uint64(1099511628211) \
                ^ crc32_column(sc).astype(np.uint64)
            valid &= k.is_valid().to_numpy(zero_copy_only=False)
    # NULL keys match nothing; send them all to partition 0
    return np.where(valid, (h % np.uint64(n)).astype(np.int64), 0)


def equi_join(left_ds, right_ds, on, how: str = "inner",
              right_on=None, right_suffix: str = "_r",
              broadcast_max_bytes: int | None = None,
              num_partitions: int | None = None):
    """SQL equi-join of two Datasets on column ``on`` (one-to-many and
    many-to-many emit the full cross product per key, like SQL).
    ``how``: "inner" or "left". ``on``/``right_on`` take a column name
    or a LIST of names (composite keys); ``right_on`` names the right
    side's key(s) when they differ (SQL's ``l.on = r.right_on``; right
    key columns drop from the output like SQL USING). Right columns clashing
    with left names get ``right_suffix``. Returns a Dataset; output row
    order is not defined (sort it if the consumer needs determinism)."""
    import ray
    import ray.data as rd

    if how not in _JOIN_TYPE:
        raise ValueError(f"how must be one of {sorted(_JOIN_TYPE)}, "
                         f"got {how!r}")
    join_type = _JOIN_TYPE[how]
    on = _as_keys(on)
    right_on = on if right_on is None else _as_keys(right_on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have the same length")
    if broadcast_max_bytes is None:
        broadcast_max_bytes = BROADCAST_RIGHT_MAX_BYTES

    right_schema = right_ds.schema().base_schema
    size = right_ds.size_bytes()
    if size is not None and size <= broadcast_max_bytes:
        tbls = [t for t in ray.get(right_ds.to_arrow_refs())
                if t.num_rows]
        right_tbl = (pa.concat_tables(tbls, promote_options="default")
                     .combine_chunks() if tbls
                     else right_schema.empty_table())
        ref = ray.put(right_tbl)
        cache: dict = {}

        def attach(batch: pa.Table) -> pa.Table:
            key = ref.hex() if hasattr(ref, "hex") else id(ref)
            if key not in cache:
                cache[key] = ray.get(ref)
                while len(cache) > 4:
                    cache.pop(next(iter(cache)))
            # empty right joins fine: acero pads a LEFT join and empties
            # an INNER one, keeping the output schema exact
            return batch.join(cache[key], keys=on,
                              right_keys=right_on, join_type=join_type,
                              right_suffix=right_suffix)

        return left_ds.map_batches(attach, batch_format="pyarrow")

    if num_partitions is None:
        from ..util import default_join_partitions
        num_partitions = default_join_partitions()
    n = int(num_partitions)

    def _split(tbl: pa.Table, _on: str, _n=n):
        p = _key_partition(tbl, _on, _n)
        return tuple(tbl.filter(pa.array(p == i)) for i in range(_n))

    split = ray.remote(_split)

    def _shards(ds, key):
        per_block = []
        for bundle in ds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows:
                    per_block.append(
                        split.options(num_returns=n).remote(ref, key))
        # transpose: shard lists per partition
        return [[blk[i] for blk in per_block] for i in range(n)] \
            if per_block else [[] for _ in range(n)]

    left_schema = left_ds.schema().base_schema
    lshards = _shards(left_ds, on)
    rshards = _shards(right_ds, right_on)

    @ray.remote
    def reduce(n_left: int, *parts: pa.Table) -> pa.Table:
        lefts = [t for t in parts[:n_left] if t.num_rows]
        rights = [t for t in parts[n_left:] if t.num_rows]
        # empty sides join as schema-true empty tables so every
        # partition emits the exact joined schema (acero pads/empties)
        lt = (pa.concat_tables(lefts, promote_options="default")
              .combine_chunks() if lefts else left_schema.empty_table())
        rt = (pa.concat_tables(rights, promote_options="default")
              .combine_chunks() if rights else right_schema.empty_table())
        return lt.join(rt, keys=on, right_keys=right_on,
                       join_type=join_type, right_suffix=right_suffix)

    out = [reduce.remote(len(lshards[i]), *(lshards[i] + rshards[i]))
           for i in range(n)]
    return rd.from_arrow_refs(out)


def semi_join(left_ds, right_ds, on, right_on=None,
              anti: bool = False,
              broadcast_max_bytes: int | None = None,
              num_partitions: int | None = None):
    """SQL SEMI / ANTI join: left rows WHERE [NOT] EXISTS a right row
    with an equal key — the "filter the huge fact table by a key set"
    primitive (semi) and its complement (anti; ``ops.dedup.corpus_diff``
    is the content-hash special case). Left rows emit AT MOST ONCE
    regardless of right-side duplicates, and NULL keys match nothing
    (SQL EXISTS semantics: a NULL-key left row is dropped by semi,
    kept by anti).

    Cheaper than :func:`equi_join` everywhere it applies: only the
    right side's DISTINCT KEYS travel (per-block distinct first), never
    its payload, and the output never multiplies. Broadcast path for a
    small key set (left streams map-side, zero shuffle); above the
    threshold the same MR repartition machinery, with reduces doing one
    vectorized ``is_in`` per partition. Composite keys (lists, like
    :func:`equi_join`) combine per row into one US-separated string —
    a row with ANY null key column matches nothing (SQL AND-equality).
    """
    import ray
    import ray.data as rd

    on = _as_keys(on)
    right_on = on if right_on is None else _as_keys(right_on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have the same length")
    if broadcast_max_bytes is None:
        broadcast_max_bytes = BROADCAST_RIGHT_MAX_BYTES

    def combined(batch: pa.Table, keys: list):
        """One nullable string key per row (null iff any part null).
        Composite values ESCAPE the separator (\\x1e -> \\x1e0,
        \\x1f -> \\x1e1) before joining with \\x1f, so the mapping from
        key tuples to strings is injective — distinct tuples whose
        values contain the separator can never collide (ADVICE r4)."""
        parts = []
        valid = None
        for c in keys:
            k = batch[c]
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            v = k.is_valid()
            valid = v if valid is None else pc.and_(valid, v)
            s = pc.fill_null(pc.cast(k, pa.string()), "")
            if len(keys) > 1:
                s = pc.replace_substring(s, "\x1e", "\x1e0")
                s = pc.replace_substring(s, "\x1f", "\x1e1")
            parts.append(s)
        if len(parts) == 1:
            joined = parts[0]
        else:
            joined = pc.binary_join_element_wise(*parts, "\x1f")
        return pc.if_else(valid, joined, pa.scalar(None, pa.string()))

    def rkeys(batch: pa.Table) -> pa.Table:
        k = combined(batch, right_on)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        uniq = pc.unique(k.drop_null())
        return pa.table({"__k": uniq})

    keys_ds = right_ds.map_batches(rkeys, batch_format="pyarrow")

    def filter_with(batch: pa.Table, keyset) -> pa.Table:
        k = combined(batch, on)
        if keyset is None or len(keyset) == 0:
            hit = pa.array(np.zeros(batch.num_rows, dtype=bool))
        else:
            hit = pc.fill_null(pc.is_in(k, value_set=keyset), False)
        return batch.filter(pc.invert(hit) if anti else hit)

    size = keys_ds.size_bytes()
    if size is not None and size <= broadcast_max_bytes:
        tbls = [t for t in ray.get(keys_ds.to_arrow_refs())
                if t.num_rows]
        keyset = (pc.unique(pa.concat_tables(tbls)
                            .combine_chunks()["__k"])
                  if tbls else None)
        ref = ray.put(keyset)
        cache: dict = {}

        def attach(batch: pa.Table) -> pa.Table:
            key = ref.hex() if hasattr(ref, "hex") else id(ref)
            if key not in cache:
                cache[key] = ray.get(ref)
                while len(cache) > 4:
                    cache.pop(next(iter(cache)))
            return filter_with(batch, cache[key])

        return left_ds.map_batches(attach, batch_format="pyarrow")

    if num_partitions is None:
        from ..util import default_join_partitions
        num_partitions = default_join_partitions()
    n = int(num_partitions)

    def _split(tbl: pa.Table, _keys, _n=n):
        # both sides partition by crc32 of the SAME combined key string
        # (the left derives it per row; the right's "__k" IS it) — the
        # per-column mix of equi_join would not co-locate with "__k"
        from ..util import crc32_column
        k = combined(tbl, _keys) if _keys != ["__k"] else tbl["__k"]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        h = crc32_column(pc.fill_null(k, "")) % np.uint32(_n)
        valid = k.is_valid().to_numpy(zero_copy_only=False)
        p = np.where(valid, h.astype(np.int64), 0)
        return tuple(tbl.filter(pa.array(p == i)) for i in range(_n))

    split = ray.remote(_split)

    def _shards(ds, key):
        per_block = []
        for bundle in ds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows:
                    per_block.append(
                        split.options(num_returns=n).remote(ref, key))
        return [[blk[i] for blk in per_block] for i in range(n)] \
            if per_block else [[] for _ in range(n)]

    left_schema = left_ds.schema().base_schema
    lshards = _shards(left_ds, on)
    rshards = _shards(keys_ds, ["__k"])

    @ray.remote
    def reduce(n_left: int, *parts: pa.Table) -> pa.Table:
        lefts = [t for t in parts[:n_left] if t.num_rows]
        rights = [t for t in parts[n_left:] if t.num_rows]
        lt = (pa.concat_tables(lefts, promote_options="default")
              .combine_chunks() if lefts else left_schema.empty_table())
        ks = (pc.unique(pa.concat_tables(rights)
                        .combine_chunks()["__k"]) if rights else None)
        return filter_with(lt, ks)

    out = [reduce.remote(len(lshards[i]), *(lshards[i] + rshards[i]))
           for i in range(n)]
    return rd.from_arrow_refs(out)
