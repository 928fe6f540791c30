"""The one equality lookup join of ``ops/``.

Every sided operator that attaches a table to rows by key (SQL
equi/semi joins, the LM / TF-IDF / DSIR count attach, the line-dedup
dup set, the z-score group stats, the dedup pair-state verify, the
keyed frames' carry attach, each round of the graph operators in
``ops/graph.py``, ``corpus_diff`` and ``profile_table``) runs through
:func:`lookup_join`. The caller supplies two functions:

- ``prepare(right_table) -> state``: build the lookup structure from a
  table of right rows (sorted key arrays, finalized stats);
- ``apply(left_table, state) -> table``: attach it to left rows.

One byte gate, :data:`BROADCAST_MAX_BYTES`, picks the path:

- **broadcast** (right <= gate): one Ray task concatenates the right
  blocks and runs ``prepare``; its returned ref IS the broadcast, so the
  driver never holds the table. Every left batch runs ``apply`` against
  it map-side through the per-worker memo (``util._cached_get``) —
  the left side streams, nothing shuffles.
- **partitioned** (above): the classic MR repartition join as raw Ray
  tasks. One split task per block hash-partitions its rows by key
  (``num_returns=N``, so a reduce fetches exactly its shard), and one
  reduce per partition runs ``apply(left_part, prepare(right_part))``.
  Only row bytes move, each once; nothing lands on the driver. NULL
  keys match nothing, so NULL-key rows spread over all partitions
  instead of piling into one reduce.

Per-document operators pass ``explode`` (doc batch -> keyed rows, with a
NULL-key sentinel row per doc when docs without keys must survive) and
``regroup=(id_col, finish)`` (keyed rows -> per-doc output). On the
broadcast path explode -> apply -> finish runs in ONE map over the doc
batches (a doc never spans batches), so the default path gains no
exchange; on the partitioned path the applied rows hash-partition by
``id_col`` and ``finish`` runs once per partition.

:func:`equi_join` (SQL INNER / LEFT OUTER, acero's NULL semantics) and
:func:`semi_join` (SQL SEMI / ANTI) are thin callers. The as-of and
interval joins (``ops/joins.py``) are not equality lookups and stay
separate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..util import _cached_get, crc32_column

# right sides up to this many in-memory bytes broadcast; larger ones
# take the partitioned path
BROADCAST_MAX_BYTES = 256 * 1024 * 1024

_JOIN_TYPE = {"inner": "inner", "left": "left outer"}


def _as_keys(on) -> list:
    return list(on) if isinstance(on, (list, tuple)) else [on]


def _concat(parts: list, empty: pa.Table | None = None) -> pa.Table:
    """One table of the non-empty ``parts``; with none, ``empty`` or the
    widest empty part (a map_groups block can come back zero-column)."""
    tbls = [t for t in parts if t.num_rows]
    if not tbls:
        return empty if empty is not None else \
            max(parts, key=lambda t: t.num_columns)
    return pa.concat_tables(tbls, promote_options="default").combine_chunks()


def _key_partition(batch: pa.Table, on, n: int) -> np.ndarray:
    """Partition of each row: a hash of its key columns, or round-robin
    for NULL-key rows (they match nothing, so any reduce will do)."""
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
    spread = np.arange(batch.num_rows, dtype=np.int64) % n
    return np.where(valid, (h % np.uint64(n)).astype(np.int64), spread)


def _split(tbl: pa.Table, on, n: int):
    if tbl.num_rows == 0:
        return (tbl,) * n if n > 1 else tbl
    p = _key_partition(tbl, on, n)
    parts = tuple(tbl.filter(pa.array(p == i)) for i in range(n))
    return parts if n > 1 else parts[0]


_split_task = ray.remote(_split)


@ray.remote
def _prepare_task(prepare, empty: pa.Table, *blocks: pa.Table):
    return prepare(_concat(list(blocks), empty))


@ray.remote
def _apply_task(prepare, apply, empty_r: pa.Table, n_left: int,
                *parts: pa.Table) -> pa.Table:
    return apply(_concat(list(parts[:n_left])),
                 prepare(_concat(list(parts[n_left:]), empty_r)))


@ray.remote
def _finish_task(finish, *parts: pa.Table) -> pa.Table:
    return finish(_concat(list(parts)))


def _empty(ds) -> pa.Table:
    schema = ds.schema()
    return schema.base_schema.empty_table() if schema is not None \
        else pa.table({})


def _shards(blocks: list, on, n: int) -> list[list]:
    """Split every block by key: shard refs per partition (>= 1 each)."""
    per_block = []
    for ref in blocks:
        out = _split_task.options(num_returns=n).remote(ref, on, n)
        per_block.append(out if n > 1 else [out])
    return [[blk[i] for blk in per_block] for i in range(n)]


def _block_refs(ds) -> list:
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]
    # a block-less dataset still gives every reduce one (empty) shard
    return refs or [ray.put(_empty(ds))]


def key_array(col) -> np.ndarray:
    """A key column as a sortable numpy array: bytes ('S') for string
    and binary keys, the values themselves otherwise."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) \
            or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return np.asarray(col.cast(pa.binary()).to_pylist(), dtype="S")
    return col.to_numpy(zero_copy_only=False)


def sorted_keys(col) -> tuple[np.ndarray, np.ndarray]:
    """(sorted key array, the argsort that sorts it) — the usual
    ``prepare`` lookup structure; take value columns by the order."""
    keys = key_array(col)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def probe(keys: np.ndarray, col) -> tuple[np.ndarray, np.ndarray]:
    """(pos, hit) for each value of ``col`` in the sorted ``keys``:
    ``pos`` is clamped into range, ``hit`` is False for misses and
    NULLs. String keys are searched once per distinct value."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0 or len(keys) == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    if keys.dtype.kind == "S":
        denc = pc.dictionary_encode(col)
        q = key_array(denc.dictionary)
        if len(q) == 0:
            return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
        # a value longer than every key cannot hit; the others compare
        # at the keys' width (numpy would truncate, not widen)
        short = pc.binary_length(denc.dictionary.cast(pa.binary())) \
            .to_numpy(zero_copy_only=False) <= keys.dtype.itemsize
        q = q.astype(keys.dtype)
        upos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        uhit = (keys[upos] == q) & short
        idx = pc.fill_null(denc.indices, 0).to_numpy(zero_copy_only=False)
        return upos[idx], uhit[idx] & valid
    q = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return pos, (keys[pos] == q) & valid


def lookup(keys: np.ndarray, vals: np.ndarray, col, fill=0) -> np.ndarray:
    """``vals`` at each value of ``col`` in the sorted ``keys``, ``fill``
    for misses and NULLs."""
    pos, hit = probe(keys, col)
    if len(keys) == 0:
        return np.full(len(pos), fill, dtype=vals.dtype)
    return np.where(hit, vals[pos], fill)


def fits_broadcast(right_ds) -> bool:
    """Whether :func:`lookup_join` broadcasts ``right_ds`` (the gate)."""
    size = right_ds.size_bytes()
    return size is not None and size <= BROADCAST_MAX_BYTES


def lookup_join(left, right, on, prepare, apply, *, explode=None,
                regroup=None, right_on=None,
                num_partitions: int | None = None):
    """Attach ``right`` to the rows of ``left`` that share a key: see
    the module docstring for ``prepare`` / ``apply`` / ``explode`` /
    ``regroup`` and the two paths. ``on`` names the left key column(s)
    (after ``explode``), ``right_on`` the right's when they differ.
    Every callback must accept zero-row tables. Returns a Dataset whose
    row order is not defined."""
    import ray.data as rd

    on = _as_keys(on)
    right_on = on if right_on is None else _as_keys(right_on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have the same length")
    finish = regroup[1] if regroup is not None else None

    if fits_broadcast(right):
        state_ref = _prepare_task.remote(prepare, _empty(right),
                                         *right.to_arrow_refs())

        def attach(batch: pa.Table) -> pa.Table:
            rows = apply(explode(batch) if explode else batch,
                         _cached_get(state_ref))
            return finish(rows) if finish else rows

        return left.map_batches(attach, batch_format="pyarrow")

    if num_partitions is None:
        from ..util import default_join_partitions
        num_partitions = default_join_partitions()
    n = int(num_partitions)
    if explode is not None:
        left = left.map_batches(explode, batch_format="pyarrow")
    lshards = _shards(_block_refs(left), on, n)
    rshards = _shards(_block_refs(right), right_on, n)
    empty_r = _empty(right)
    out = [_apply_task.remote(prepare, apply, empty_r, len(lshards[i]),
                              *(lshards[i] + rshards[i]))
           for i in range(n)]
    if finish is not None:
        out = [_finish_task.remote(finish, *shards)
               for shards in _shards(out, [regroup[0]], n)]
    return rd.from_arrow_refs(out)


def equi_join(left_ds, right_ds, on, how: str = "inner",
              right_on=None, right_suffix: str = "_r",
              num_partitions: int | None = None):
    """SQL equi-join of two Datasets on column ``on`` (one-to-many and
    many-to-many emit the full cross product per key, like SQL).
    ``how``: "inner" or "left". ``on``/``right_on`` take a column name
    or a LIST of names (composite keys); ``right_on`` names the right
    side's key(s) when they differ (SQL's ``l.on = r.right_on``; right
    key columns drop from the output like SQL USING). Right columns clashing
    with left names get ``right_suffix``. NULL keys match nothing
    (acero's hash join implements SQL semantics; a LEFT join pads
    them). Returns a Dataset; output row order is not defined (sort it
    if the consumer needs determinism)."""
    if how not in _JOIN_TYPE:
        raise ValueError(f"how must be one of {sorted(_JOIN_TYPE)}, "
                         f"got {how!r}")
    join_type = _JOIN_TYPE[how]
    on = _as_keys(on)
    right_on = on if right_on is None else _as_keys(right_on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have the same length")

    def apply(left: pa.Table, right: pa.Table) -> pa.Table:
        # an empty side joins fine: acero pads a LEFT join and empties
        # an INNER one, keeping the output schema exact
        return left.join(right, keys=on, right_keys=right_on,
                         join_type=join_type, right_suffix=right_suffix)

    return lookup_join(left_ds, right_ds, on, lambda t: t, apply,
                       right_on=right_on, num_partitions=num_partitions)


def _combined_key(batch: pa.Table, keys: list):
    """One nullable string key per row (null iff any part null).
    Composite values ESCAPE the separator (\\x1e -> \\x1e0,
    \\x1f -> \\x1e1) before joining with \\x1f, so the mapping from
    key tuples to strings is injective — distinct tuples whose values
    contain the separator can never collide."""
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
    joined = parts[0] if len(parts) == 1 else \
        pc.binary_join_element_wise(*parts, "\x1f")
    return pc.if_else(valid, joined, pa.scalar(None, pa.string()))


def semi_join(left_ds, right_ds, on, right_on=None,
              anti: bool = False,
              num_partitions: int | None = None):
    """SQL SEMI / ANTI join: left rows WHERE [NOT] EXISTS a right row
    with an equal key — the "filter the huge fact table by a key set"
    primitive (semi) and its complement (anti; ``ops.dedup.corpus_diff``
    runs it on content hashes). Left rows emit AT MOST ONCE
    regardless of right-side duplicates, and NULL keys match nothing
    (SQL EXISTS semantics: a NULL-key left row is dropped by semi,
    kept by anti).

    Only the right side's DISTINCT KEYS travel (per-block distinct
    first), never its payload, and the output never multiplies; each
    left batch or partition runs one vectorized ``is_in``. Composite
    keys (lists, like :func:`equi_join`) combine per row into one
    escaped US-separated string on both sides — a row with ANY null key
    column matches nothing (SQL AND-equality)."""
    on = _as_keys(on)
    right_on = on if right_on is None else _as_keys(right_on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have the same length")

    def right_keys(batch: pa.Table) -> pa.Table:
        k = _combined_key(batch, right_on)
        return pa.table({"__k": pc.unique(k.drop_null())})

    def left_keys(batch: pa.Table) -> pa.Table:
        return batch.append_column("__k", _combined_key(batch, on))

    def keyset(t: pa.Table):
        # an empty right side may arrive schemaless
        if t.num_rows == 0:
            return pa.array([], type=pa.string())
        return pc.unique(t["__k"].combine_chunks())

    def apply(batch: pa.Table, keys) -> pa.Table:
        hit = pc.fill_null(pc.is_in(batch["__k"], value_set=keys), False)
        return batch.filter(pc.invert(hit) if anti else hit) \
            .drop_columns(["__k"])

    keys_ds = right_ds.map_batches(right_keys, batch_format="pyarrow") \
        .materialize()
    return lookup_join(left_ds, keys_ds, "__k", keyset, apply,
                       explode=left_keys, num_partitions=num_partitions)
