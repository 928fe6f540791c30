"""Iterative graph operators over an edge Dataset: PageRank, HITS,
multi-source BFS depths and connected components.

Each keeps its node state as a node-sized Dataset and runs rounds of
one shape, :func:`_round`:

1. attach: one ``lookup_join`` attaches the state to every edge by its
   sending endpoint and emits one (node, message) row per edge whose
   sender has state. The state is node-sized, so below
   ``BROADCAST_MAX_BYTES`` it is broadcast and the edges do not move;
   above the gate both sides hash-partition by node.
2. fold: the messages union a node-keyed baseline (so a node without
   messages keeps its row) and fold per node in one packed groupby,
   one ufunc's ``reduceat`` (``np.add`` or ``np.minimum``) over every
   value column.
3. pin: the folded state repartitions to the starting block count and
   materializes (without the pin its blocks grow every round).

An edge whose sender has no state emits nothing; a message to a node
outside the baseline creates that node's row. Round counts are fixed,
or end on an order-free driver scalar, so results do not depend on the
partition count.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _add_pkey
from .equijoin import lookup_join, probe, sorted_keys

logger = logging.getLogger(__name__)

_EDGES = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
_RANK = pa.schema([("node", pa.int64()), ("rank", pa.float64())])
_SCORE = pa.schema([("node", pa.int64()), ("s", pa.float64())])
_HITS = pa.schema([("node", pa.int64()), ("hub", pa.float64()),
                   ("authority", pa.float64())])
_DIST = pa.schema([("node", pa.int64()), ("depth", pa.int64())])
_LABEL = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def _edges(ds):
    """``ds``'s ``src``/``dst`` columns as int64 edges, materialized."""
    def f(b: pa.Table) -> pa.Table:
        if b.num_columns == 0:
            return _EDGES.empty_table()
        return pa.table([b["src"].cast(pa.int64()),
                         b["dst"].cast(pa.int64())], schema=_EDGES)
    return ds.map_batches(f, batch_format="pyarrow").materialize()


def _fold(rows, ufunc, n_blocks: int, finish=None):
    """Per-node fold of ``rows``: every column but ``node`` reduced by
    ``ufunc.reduceat`` over the node's rows, then ``finish`` (table ->
    table) if given; pinned to ``n_blocks`` and materialized."""
    def reduce(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy()
        order = np.argsort(node, kind="stable")
        n_s = node[order]
        starts = np.flatnonzero(np.append(True, n_s[1:] != n_s[:-1]))
        out = pa.table({"node": n_s[starts], **{
            c: ufunc.reduceat(group[c].to_numpy()[order], starts)
            for c in group.column_names if c not in ("node", "pkey")}})
        return finish(out) if finish else out

    return (rows.map_batches(lambda b: _add_pkey(b, ["node"]),
                             batch_format="pyarrow")
            .groupby("pkey").map_groups(reduce, batch_format="pyarrow")
            .repartition(n_blocks).materialize())


def _round(edges, state, send, schema: pa.Schema, ufunc, baseline,
           n_blocks: int, src: str = "src", dst: str = "dst", finish=None):
    """One graph round. Every edge whose ``src`` node has state sends
    that node's ``send(state_table)`` values (one array per value column
    of ``schema``) to its ``dst``; the ``schema``-typed messages union
    ``baseline`` and :func:`_fold`."""
    def prepare(t: pa.Table):
        if t.num_rows == 0:
            return np.zeros(0, np.int64), {}
        keys, order = sorted_keys(t["node"])
        return keys, {c: np.asarray(v)[order] for c, v in send(t).items()}

    def emit(e: pa.Table, state_):
        keys, vals = state_
        if e.num_rows == 0 or len(keys) == 0:
            return schema.empty_table()
        pos, hit = probe(keys, e[src])
        return pa.table([e[dst].filter(pa.array(hit))]
                        + [vals[c][pos[hit]] for c in schema.names[1:]],
                        schema=schema)

    msgs = lookup_join(edges, state, src, prepare, emit, right_on="node")
    return _fold(msgs.union(baseline), ufunc, n_blocks, finish)


def pagerank(edges, nodes, n_iter: int = 10, damping: float = 0.85):
    """(node, rank) after ``n_iter`` damped power-iteration rounds
    (Page et al. 1999):

        r_{k+1}(v) = (1-d)/N + d * ( sum_{(u,v) in E} r_k(u)/outdeg(u)
                                     + dangling_mass_k / N )

    with the standard uniform redistribution of dangling (outdeg 0)
    mass. Multi-edges contribute once each (outdeg counts the multiset).

    ``edges``: Dataset with int64 ``src``/``dst`` columns.  ``nodes``: a
    Dataset with a ``node`` column of every vertex (isolated and
    dangling vertices included — edge endpoints alone can't enumerate
    them without an extra distinct exchange).

    The state rows are (node, rank, deg) and each node sends rank/deg.
    The baseline, folded once, holds every edge source's out-degree and
    marks the ``nodes`` rows known; a source outside ``nodes`` joins the
    state only once a message reaches it. The dangling mass, from state
    rows of degree 0, is the one driver scalar per round. Fixed
    ``n_iter`` rounds (the SQL oracle unrolls the same K), no
    convergence short-circuit."""
    import ray

    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")

    nodes = nodes.materialize()
    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(_RANK.empty_table())
    n_blocks = max(nodes.num_blocks(), 1)
    edges = _edges(edges)
    msg = pa.schema([("node", pa.int64()), ("c", pa.float64()),
                     ("deg", pa.int64()), ("known", pa.int64())])

    def rows(node, deg: int, known: int) -> pa.Table:
        m = len(node)
        return pa.table([node.cast(pa.int64()), np.zeros(m),
                         np.full(m, deg), np.full(m, known)], schema=msg)

    base = _fold(
        edges.map_batches(lambda b: rows(b["src"], 1, 0),
                          batch_format="pyarrow")
        .union(nodes.map_batches(lambda b: rows(b["node"], 0, 1),
                                 batch_format="pyarrow")),
        np.add, n_blocks)

    def ranked(t: pa.Table, rank) -> pa.Table:
        t = t.filter(pc.greater(t["known"], 0))
        return pa.table({"node": t["node"], "rank": rank(t["c"].to_numpy()),
                         "deg": t["deg"]})

    ranks = base.map_batches(
        lambda b: ranked(b, lambda c: np.full(len(c), 1.0 / n)),
        batch_format="pyarrow").materialize()
    for _ in range(n_iter):
        dm = ranks.map_batches(
            lambda b: b.filter(pc.equal(b["deg"], 0)),
            batch_format="pyarrow").sum("rank") or 0.0
        ranks = _round(
            edges, ranks,
            lambda t: {"c": t["rank"].to_numpy()
                       / np.maximum(t["deg"].to_numpy(), 1),
                       "deg": np.zeros(t.num_rows, np.int64),
                       "known": np.ones(t.num_rows, np.int64)},
            msg, np.add, base, n_blocks,
            finish=lambda t, _add=dm / n: ranked(
                t, lambda c: (1.0 - damping) / n + damping * (c + _add)))
    return ranks.map_batches(lambda b: b.select(["node", "rank"]),
                             batch_format="pyarrow")


def hits(edges, nodes, n_iter: int = 5):
    """HITS hubs & authorities (Kleinberg JACM 1999) — the query-
    independent power iteration:

        a_k(v) = sum_{(u,v) in E} h_{k-1}(u),
        h_k(u) = sum_{(u,v) in E} a_k(v),

    each half-step renormalized by its GLOBAL MAX (the eigenvector's
    scale is arbitrary; max — unlike an L2 sum — is order-independent,
    so the normalizer is bit-identical on any partitioning and in the
    SQL oracle). Multi-edges contribute once each.

    Each half-step is one :func:`_round` (authorities along edges,
    hubs against them) over the all-nodes zero baseline, plus one
    driver SCALAR (the max). The result is the sum fold of (hub, 0) and
    (0, authority) rows, so its node set is the outer union of both
    vectors'.

    Returns (node, hub, authority), unnormalized beyond the max rule.
    ``edges``/``nodes`` as in :func:`pagerank`.
    """
    import ray

    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    nodes = nodes.materialize()
    if nodes.count() == 0:
        return ray.data.from_arrow(_HITS.empty_table())
    n_blocks = max(nodes.num_blocks(), 1)
    edges = _edges(edges)
    zeros = nodes.map_batches(
        lambda b: pa.table({"node": b["node"].cast(pa.int64()),
                            "s": np.zeros(b.num_rows)}),
        batch_format="pyarrow").materialize()

    def half_step(sc, src: str, dst: str):
        out = _round(edges, sc, lambda t: {"s": t["s"].to_numpy()},
                     _SCORE, np.add, zeros, n_blocks, src, dst)
        mx = out.max("s") or 0.0
        if mx > 0:
            out = out.map_batches(
                lambda b, _m=mx: pa.table(
                    {"node": b["node"],
                     "s": pc.divide(b["s"], pa.scalar(_m, pa.float64()))}),
                batch_format="pyarrow").materialize()
        return out

    h = zeros.map_batches(
        lambda b: pa.table({"node": b["node"], "s": np.ones(b.num_rows)}),
        batch_format="pyarrow").materialize()
    for _ in range(n_iter):
        a = half_step(h, "src", "dst")    # authorities gather from hubs
        h = half_step(a, "dst", "src")    # hubs gather from authorities

    def as_pair(hub: bool):
        def f(b: pa.Table) -> pa.Table:
            z = np.zeros(b.num_rows)
            return pa.table([b["node"], b["s"] if hub else z,
                             z if hub else b["s"]], schema=_HITS)
        return f

    return _fold(h.map_batches(as_pair(True), batch_format="pyarrow")
                 .union(a.map_batches(as_pair(False),
                                      batch_format="pyarrow")),
                 np.add, n_blocks)


def bfs_depths(edges, sources, max_depth: int = 6):
    """Multi-source BFS hop distance — depth(v) = min hops from any
    seed along directed edges, capped at ``max_depth`` (the crawl-depth
    / seed-proximity analysis; the unweighted companion to
    :func:`pagerank`). Unreachable nodes are absent from the output.

    Bellman-Ford rounds on Datasets (exactly ``max_depth`` of them —
    deterministic, partition-independent): each round is one
    :func:`_round` that sends depth+1 along every edge from a settled
    src and keeps the min per node, the previous distances as the
    baseline. State is node-sized end to end; the driver holds only
    the seed list.
    """
    import ray

    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    seeds = sorted(set(int(s) for s in sources))
    if not seeds:
        return ray.data.from_arrow(_DIST.empty_table())
    edges = _edges(edges)
    dist = ray.data.from_arrow(pa.table({
        "node": pa.array(seeds, type=pa.int64()),
        "depth": pa.array(np.zeros(len(seeds), np.int64))}))
    n_blocks = max(dist.num_blocks(), 1)
    for _ in range(max_depth):
        dist = _round(edges, dist,
                      lambda t: {"depth": t["depth"].to_numpy() + 1},
                      _DIST, np.minimum, dist, n_blocks)
    return dist


def connected_components(pairs_ds, nodes_ds, id_col: str = "doc_id",
                         max_iters: int = 50):
    """Connected components over near-dup pairs: every node labeled with
    the MINIMUM id reachable from it — the "cluster id" of transitive
    dedup (keep `cluster_id == id`, drop the rest).

    Min-label propagation WITH pointer jumping (the MapReduce-CC family,
    cf. Kiveris et al. 2014). Each round is one :func:`_round` against
    the labels over two kinds of edges:

      1. neighbor propagation — every directed edge (x, y) picks up
         label(x) and sends it to y;
      2. path halving — every node x asks for label(label(x)) via a
         per-round pseudo-edge (label(x) -> x), so label chains collapse
         geometrically instead of one hop per round;

    and the min per node over those messages and its own label is its
    new label. Rounds are O(log diameter) thanks to (2) — a 1000-hop
    chain settles in ~10 rounds — and `_pair_rows_in_partition`'s star
    pairs already bound over-cap LSH clusters to diameter 2. Only slim
    (int64, int64) rows ever move — content stays where the pair
    generators left it. Convergence = the row count and the global
    label sum both stay put (labels only decrease; a pair endpoint
    outside ``nodes_ds`` adds a row when first reached), checked with a
    distributed `sum` per round; `max_iters` is a backstop with a
    logged warning.
    """
    def both_ways(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:
            return _EDGES.empty_table()
        a = batch["a"].cast(pa.int64()).to_numpy()
        b = batch["b"].cast(pa.int64()).to_numpy()
        return pa.table([np.concatenate([a, b]), np.concatenate([b, a])],
                        schema=_EDGES)

    def jumps(batch: pa.Table) -> pa.Table:
        # pseudo-edge label(x) -> x: the round answers it with
        # label(label(x)) exactly like a real edge's neighbor request
        return pa.table([batch["label"], batch["node"]], schema=_EDGES)

    edges = pairs_ds.map_batches(both_ways,
                                 batch_format="pyarrow").materialize()
    labels = nodes_ds.map_batches(
        lambda b: pa.table([b[id_col], b[id_col]], schema=_LABEL),
        batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return labels

    def settled(ds) -> tuple:
        # labels only fall, and a row appears only for a pair endpoint
        # outside nodes_ds: an equal (row count, sum) means no change
        return ds.count(), ds.sum("label")

    prev = settled(labels)
    n_blocks = max(labels.num_blocks(), 1)
    for _ in range(max_iters):
        labels = _round(
            edges.union(labels.map_batches(jumps, batch_format="pyarrow")),
            labels, lambda t: {"label": t["label"].to_numpy()},
            _LABEL, np.minimum, labels, n_blocks)
        cur = settled(labels)
        if cur == prev:
            break
        prev = cur
    else:
        logger.warning(
            "connected_components hit max_iters=%d before the labels "
            "settled — component diameter exceeds the round budget; "
            "labels are an upper bound on the true cluster ids", max_iters)
    return labels
