"""Distributed PageRank (Page et al. 1999) over an edge Dataset — the
weighted-iterative companion to ``ops.dedup.connected_components``'
label propagation.

    r_{k+1}(v) = (1-d)/N + d * ( sum_{(u,v) in E} r_k(u)/outdeg(u)
                                 + dangling_mass_k / N )

with the standard uniform redistribution of dangling (outdeg 0) mass.
Multi-edges contribute once each (outdeg counts the multiset).

Scale shape — ranks and edges stay node-/edge-sized Datasets end to
end, exactly two partitioned exchanges per round:

1. scatter: rank rows and edge rows meet co-partitioned by src hash;
   each group computes the src's out-degree IN-GROUP (every edge of a
   src lands in its group, so no precomputed degree table) and emits
   (dst, r/deg) per edge — or one (DANGLING, r) row when the src has
   no edges.
2. gather: contributions union the node baseline (so isolated nodes
   keep ranking) co-partitioned by node hash; each group sums and
   applies the damping formula.

The only driver-side values per round are the dangling-mass scalar and
nothing else; N is computed once. Fixed ``n_iter`` rounds (the SQL
oracle unrolls the same K), no convergence short-circuit — PageRank on
a fixed budget is deterministic and partition-count-independent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_DANGLING = np.int64(-1)

_TAG = pa.schema([("key", pa.int64()), ("side", pa.int8()),
                  ("dst", pa.int64()), ("r", pa.float64())])
_CONTRIB = pa.schema([("node", pa.int64()), ("c", pa.float64())])
_RANK = pa.schema([("node", pa.int64()), ("rank", pa.float64())])


def pagerank(edges, nodes, n_iter: int = 10, damping: float = 0.85):
    """(node, rank) after ``n_iter`` damped power-iteration rounds.

    ``edges``: Dataset with int64 ``src``/``dst`` columns (node ids
    must be >= 0; -1 is the internal dangling sentinel).  ``nodes``: a
    Dataset with a ``node`` column of every vertex (isolated and
    dangling vertices included — edge endpoints alone can't enumerate
    them without an extra distinct exchange)."""
    import ray
    from .dedup import _add_pkey

    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")

    nodes = nodes.materialize()
    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(_RANK.empty_table())
    base = 1.0 / n

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"].cast(pa.int64()),
            "rank": pa.array(np.full(batch.num_rows, base),
                             type=pa.float64())})

    def tag_rank(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({"key": batch["node"],
                         "side": pa.array(np.zeros(m, dtype=np.int8)),
                         "dst": pa.nulls(m, pa.int64()),
                         "r": batch["rank"]}).cast(_TAG)

    def tag_edge(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return _TAG.empty_table()
        m = batch.num_rows
        return pa.table({"key": batch["src"].cast(pa.int64()),
                         "side": pa.array(np.ones(m, dtype=np.int8)),
                         "dst": batch["dst"].cast(pa.int64()),
                         "r": pa.nulls(m, pa.float64())}).cast(_TAG)

    def scatter(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _CONTRIB.empty_table()
        side = group["side"].to_numpy(zero_copy_only=False)
        rk = group.filter(pa.array(side == 0))
        ed = group.filter(pa.array(side == 1))
        if rk.num_rows == 0:
            return _CONTRIB.empty_table()  # edges from unknown nodes
        keys = rk["key"].to_numpy()
        order = np.argsort(keys, kind="stable")
        keys_s, r_s = keys[order], rk["r"].to_numpy()[order]
        ek = ed["key"].to_numpy() if ed.num_rows else \
            np.zeros(0, dtype=np.int64)
        # in-group out-degree: every edge of a src is in this group
        if ed.num_rows:
            deg = np.zeros(len(keys_s), dtype=np.int64)
            pos = np.searchsorted(keys_s, ek)
            ok = (pos < len(keys_s))
            ok[ok] &= keys_s[np.minimum(pos, len(keys_s) - 1)][ok] == \
                ek[ok]
            np.add.at(deg, pos[ok], 1)
            contrib_r = r_s[pos[ok]] / deg[pos[ok]]
            out_dst = ed["dst"].to_numpy()[ok]
        else:
            deg = np.zeros(len(keys_s), dtype=np.int64)
            contrib_r = np.zeros(0)
            out_dst = np.zeros(0, dtype=np.int64)
        dangle = deg == 0
        return pa.table({
            "node": pa.array(np.concatenate(
                [out_dst, np.full(int(dangle.sum()), _DANGLING)]),
                type=pa.int64()),
            "c": pa.array(np.concatenate([contrib_r, r_s[dangle]]),
                          type=pa.float64())})

    def base_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"].cast(pa.int64()),
            "c": pa.array(np.zeros(batch.num_rows),
                          type=pa.float64())})

    edges = edges.map_batches(tag_edge, batch_format="pyarrow") \
        .materialize()
    ranks = nodes.map_batches(init_rank, batch_format="pyarrow") \
        .materialize()
    n_blocks = max(ranks.num_blocks(), 1)

    for _ in range(n_iter):
        tagged = (ranks.map_batches(tag_rank, batch_format="pyarrow")
                  .union(edges)
                  .map_batches(lambda b: _add_pkey(b, ["key"]),
                               batch_format="pyarrow"))
        contribs = tagged.groupby("pkey").map_groups(
            scatter, batch_format="pyarrow").materialize()
        dm = contribs.map_batches(
            lambda b: b.filter(pc.equal(b["node"], _DANGLING)),
            batch_format="pyarrow").sum("c") or 0.0
        add = dm / n  # dangling share per node

        def gather(group: pa.Table, _add=add) -> pa.Table:
            if group.num_columns == 0 or group.num_rows == 0:
                return _RANK.empty_table()
            node = group["node"].to_numpy()
            c = group["c"].to_numpy()
            order = np.argsort(node, kind="stable")
            n_s, c_s = node[order], c[order]
            starts = np.flatnonzero(np.append(True, n_s[1:] != n_s[:-1]))
            sums = np.add.reduceat(c_s, starts)
            r = (1.0 - damping) / n + damping * (sums + _add)
            return pa.table({"node": pa.array(n_s[starts]),
                             "rank": pa.array(r, type=pa.float64())})

        unioned = (contribs.map_batches(
                       lambda b: b.filter(
                           pc.invert(pc.equal(b["node"], _DANGLING))),
                       batch_format="pyarrow")
                   .union(nodes.map_batches(base_rows,
                                            batch_format="pyarrow"))
                   .map_batches(lambda b: _add_pkey(b, ["node"]),
                                batch_format="pyarrow"))
        ranks = unioned.groupby("pkey").map_groups(
            gather, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()
    return ranks


_SCORE = pa.schema([("node", pa.int64()), ("s", pa.float64())])
_HITS = pa.schema([("node", pa.int64()), ("hub", pa.float64()),
                   ("authority", pa.float64())])


def hits(edges, nodes, n_iter: int = 5):
    """HITS hubs & authorities (Kleinberg JACM 1999) — the query-
    independent power iteration:

        a_k(v) = sum_{(u,v) in E} h_{k-1}(u),
        h_k(u) = sum_{(u,v) in E} a_k(v),

    each half-step renormalized by its GLOBAL MAX (the eigenvector's
    scale is arbitrary; max — unlike an L2 sum — is order-independent,
    so the normalizer is bit-identical on any partitioning and in the
    SQL oracle). Multi-edges contribute once each.

    Scale shape mirrors :func:`pagerank`: scores and edges stay node-/
    edge-sized Datasets; each half-step is exactly two partitioned
    exchanges (scatter: score rows + edge rows co-partitioned by the
    score-holding endpoint's hash, one emitted contribution per edge;
    gather: contributions ∪ the all-nodes zero baseline co-partitioned
    by node hash) plus one driver SCALAR (the max). Fixed ``n_iter``,
    block count pinned per round, partition-count-independent.

    Returns (node, hub, authority), unnormalized beyond the max rule.
    ``edges``/``nodes`` as in :func:`pagerank`.
    """
    import ray
    from .dedup import _add_pkey

    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    nodes = nodes.materialize()
    if nodes.count() == 0:
        return ray.data.from_arrow(_HITS.empty_table())

    def tag_edges(key_col: str, emit_col: str):
        def f(batch: pa.Table) -> pa.Table:
            if batch.num_columns == 0 or batch.num_rows == 0:
                return _TAG.empty_table()
            m = batch.num_rows
            return pa.table({"key": batch[key_col].cast(pa.int64()),
                             "side": pa.array(np.ones(m, dtype=np.int8)),
                             "dst": batch[emit_col].cast(pa.int64()),
                             "r": pa.nulls(m, pa.float64())}).cast(_TAG)
        return f

    e_by_src = edges.map_batches(tag_edges("src", "dst"),
                                 batch_format="pyarrow").materialize()
    e_by_dst = edges.map_batches(tag_edges("dst", "src"),
                                 batch_format="pyarrow").materialize()

    def init_score(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"].cast(pa.int64()),
                         "s": pa.array(np.ones(batch.num_rows),
                                       type=pa.float64())})

    def tag_score(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({"key": batch["node"],
                         "side": pa.array(np.zeros(m, dtype=np.int8)),
                         "dst": pa.nulls(m, pa.int64()),
                         "r": batch["s"]}).cast(_TAG)

    def scatter(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _CONTRIB.empty_table()
        side = group["side"].to_numpy(zero_copy_only=False)
        sc = group.filter(pa.array(side == 0))
        ed = group.filter(pa.array(side == 1))
        if sc.num_rows == 0 or ed.num_rows == 0:
            return _CONTRIB.empty_table()
        keys = sc["key"].to_numpy()
        order = np.argsort(keys, kind="stable")
        keys_s, s_s = keys[order], sc["r"].to_numpy()[order]
        ek = ed["key"].to_numpy()
        pos = np.searchsorted(keys_s, ek)
        ok = pos < len(keys_s)
        ok[ok] &= keys_s[np.minimum(pos, len(keys_s) - 1)][ok] == ek[ok]
        return pa.table({
            "node": ed["dst"].to_numpy()[ok],
            "c": pa.array(s_s[pos[ok]], type=pa.float64())}).cast(_CONTRIB)

    def base_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"].cast(pa.int64()),
            "c": pa.array(np.zeros(batch.num_rows), type=pa.float64())})

    def gather(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _SCORE.empty_table()
        node = group["node"].to_numpy()
        c = group["c"].to_numpy()
        order = np.argsort(node, kind="stable")
        n_s, c_s = node[order], c[order]
        starts = np.flatnonzero(np.append(True, n_s[1:] != n_s[:-1]))
        return pa.table({"node": pa.array(n_s[starts]),
                         "s": pa.array(np.add.reduceat(c_s, starts),
                                       type=pa.float64())})

    scores = nodes.map_batches(init_score,
                               batch_format="pyarrow").materialize()
    n_blocks = max(scores.num_blocks(), 1)

    def matvec(sc, tagged_edges):
        tagged = (sc.map_batches(tag_score, batch_format="pyarrow")
                  .union(tagged_edges)
                  .map_batches(lambda b: _add_pkey(b, ["key"]),
                               batch_format="pyarrow"))
        contribs = tagged.groupby("pkey").map_groups(
            scatter, batch_format="pyarrow")
        unioned = (contribs
                   .union(nodes.map_batches(base_rows,
                                            batch_format="pyarrow"))
                   .map_batches(lambda b: _add_pkey(b, ["node"]),
                                batch_format="pyarrow"))
        out = unioned.groupby("pkey").map_groups(
            gather, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()
        mx = out.max("s") or 0.0
        if mx > 0:
            out = out.map_batches(
                lambda b, _m=mx: pa.table(
                    {"node": b["node"],
                     "s": pc.divide(b["s"], pa.scalar(_m, pa.float64()))}),
                batch_format="pyarrow").materialize()
        return out

    h, a = scores, scores
    for _ in range(n_iter):
        a = matvec(h, e_by_src)     # authorities gather from hubs
        h = matvec(a, e_by_dst)     # hubs gather from authorities

    def tag_side(side: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["node"],
                "which": pa.array(np.full(batch.num_rows, side, np.int8)),
                "s": batch["s"]})
        return f

    def pivot(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _HITS.empty_table()
        which = group["which"].to_numpy(zero_copy_only=False)
        hrows = group.filter(pa.array(which == 0))
        arows = group.filter(pa.array(which == 1))
        hn = hrows["node"].to_numpy()
        an = arows["node"].to_numpy()
        # OUTER union of the two node sets: an edge dst absent from the
        # nodes table appears in the authority vector only (the gather
        # unions contribs from unknown nodes) — assuming node-complete
        # sides crashed with unequal column lengths where pagerank
        # degrades gracefully on the same input (round-5 review)
        nodes = np.unique(np.concatenate([hn, an]))
        hub = np.zeros(len(nodes))
        auth = np.zeros(len(nodes))
        hub[np.searchsorted(nodes, hn)] = hrows["s"].to_numpy()
        auth[np.searchsorted(nodes, an)] = arows["s"].to_numpy()
        return pa.table({
            "node": pa.array(nodes),
            "hub": pa.array(hub, type=pa.float64()),
            "authority": pa.array(auth, type=pa.float64())})

    pair = (h.map_batches(tag_side(0), batch_format="pyarrow")
            .union(a.map_batches(tag_side(1), batch_format="pyarrow"))
            .map_batches(lambda b: _add_pkey(b, ["node"]),
                         batch_format="pyarrow"))
    return pair.groupby("pkey").map_groups(pivot, batch_format="pyarrow")


_DIST = pa.schema([("node", pa.int64()), ("depth", pa.int64())])
_BTAG = pa.schema([("key", pa.int64()), ("side", pa.int8()),
                   ("dst", pa.int64()), ("d", pa.int64())])


def bfs_depths(edges, sources, max_depth: int = 6):
    """Multi-source BFS hop distance — depth(v) = min hops from any
    seed along directed edges, capped at ``max_depth`` (the crawl-depth
    / seed-proximity analysis; the unweighted companion to
    :func:`pagerank`). Unreachable nodes are absent from the output.

    Bellman-Ford rounds on Datasets (exactly ``max_depth`` of them —
    deterministic, partition-independent): each round co-partitions the
    current distance rows with the edges by src hash (scatter emits
    (dst, depth+1) per edge from a settled src), unions the previous
    distances, and a node-hash gather keeps the min — the pagerank
    two-exchange shape with int depths instead of float mass. State is
    node-sized end to end; the driver holds only the seed list.
    """
    import ray
    from .dedup import _add_pkey

    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    seeds = sorted(set(int(s) for s in sources))
    if not seeds:
        return ray.data.from_arrow(_DIST.empty_table())

    def tag_edge(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return _BTAG.empty_table()
        m = batch.num_rows
        return pa.table({"key": batch["src"].cast(pa.int64()),
                         "side": pa.array(np.ones(m, dtype=np.int8)),
                         "dst": batch["dst"].cast(pa.int64()),
                         "d": pa.nulls(m, pa.int64())}).cast(_BTAG)

    e_tagged = edges.map_batches(tag_edge,
                                 batch_format="pyarrow").materialize()

    dist = ray.data.from_arrow(pa.table({
        "node": pa.array(seeds, type=pa.int64()),
        "depth": pa.array(np.zeros(len(seeds), np.int64))}))
    n_blocks = max(dist.num_blocks(), 1)

    def tag_dist(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return pa.table({"key": batch["node"],
                         "side": pa.array(np.zeros(m, dtype=np.int8)),
                         "dst": pa.nulls(m, pa.int64()),
                         "d": batch["depth"]}).cast(_BTAG)

    def scatter(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _DIST.empty_table()
        side = group["side"].to_numpy(zero_copy_only=False)
        dk = group.filter(pa.array(side == 0))
        ed = group.filter(pa.array(side == 1))
        if dk.num_rows == 0 or ed.num_rows == 0:
            return _DIST.empty_table()
        keys = dk["key"].to_numpy()
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        d_s = dk["d"].to_numpy()[order]
        ek = ed["key"].to_numpy()
        pos = np.searchsorted(keys_s, ek)
        ok = pos < len(keys_s)
        ok[ok] &= keys_s[np.minimum(pos, len(keys_s) - 1)][ok] == ek[ok]
        return pa.table({
            "node": ed["dst"].to_numpy()[ok],
            "depth": pa.array(d_s[pos[ok]] + 1,
                              type=pa.int64())}).cast(_DIST)

    def gather(group: pa.Table) -> pa.Table:
        if group.num_columns == 0 or group.num_rows == 0:
            return _DIST.empty_table()
        node = group["node"].to_numpy()
        d = group["depth"].to_numpy()
        order = np.argsort(node, kind="stable")
        n_s, d_s = node[order], d[order]
        starts = np.flatnonzero(np.append(True, n_s[1:] != n_s[:-1]))
        return pa.table({"node": pa.array(n_s[starts]),
                         "depth": pa.array(np.minimum.reduceat(d_s,
                                                               starts),
                                           type=pa.int64())})

    for _ in range(max_depth):
        tagged = (dist.map_batches(tag_dist, batch_format="pyarrow")
                  .union(e_tagged)
                  .map_batches(lambda b: _add_pkey(b, ["key"]),
                               batch_format="pyarrow"))
        contribs = tagged.groupby("pkey").map_groups(
            scatter, batch_format="pyarrow")
        unioned = (contribs.union(dist.map_batches(
            lambda b: pa.table({"node": b["node"], "depth": b["depth"]}),
            batch_format="pyarrow"))
            .map_batches(lambda b: _add_pkey(b, ["node"]),
                         batch_format="pyarrow"))
        dist = unioned.groupby("pkey").map_groups(
            gather, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()
    return dist
