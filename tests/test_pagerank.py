"""PageRank: parity vs a dense numpy power iteration on graphs with
dangling, isolated, self-loop, multi-edge and hub nodes."""
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest


NODES = list(range(9))
EDGES = [
    (0, 1), (0, 2), (1, 2), (2, 0),   # cycle-ish core
    (3, 2), (3, 2),                   # multi-edge into the hub
    (4, 4),                           # self-loop
    (5, 0), (5, 1), (5, 2), (5, 3),   # fan-out
    (6, 2),
    # 7 dangling (no out-edges), 8 isolated (no edges at all)
    (0, 7),
]


def _brute(edges, nodes, n_iter=10, d=0.85):
    nodes = sorted(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    outdeg = Counter(s for s, _ in edges)
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        s = np.zeros(n)
        dm = sum(r[idx[v]] for v in nodes if outdeg[v] == 0)
        for u, v in edges:
            s[idx[v]] += r[idx[u]] / outdeg[u]
        r = (1.0 - d) / n + d * (s + dm / n)
    return {v: r[idx[v]] for v in nodes}


def _run(edges, nodes, parts=3, **kw):
    import ray
    import ray.data as rd
    from mircv_ray.ops import pagerank
    e = rd.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([t for _, t in edges], type=pa.int64()),
    })).repartition(parts)
    v = rd.from_arrow(pa.table({
        "node": pa.array(nodes, type=pa.int64())})).repartition(parts)
    out = pagerank(e, v, **kw)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()),
                         promote_options="default").combine_chunks()
    return {t["node"][i].as_py(): t["rank"][i].as_py()
            for i in range(t.num_rows)}


def test_pagerank_equals_power_iteration(ray_session):
    exp = _brute(EDGES, NODES)
    got = _run(EDGES, NODES)
    assert set(got) == set(exp)
    for v in NODES:
        assert abs(got[v] - exp[v]) < 1e-9, v
    # total mass conserved; hub 2 outranks the isolated node 8
    assert abs(sum(got.values()) - 1.0) < 1e-9
    assert got[2] > got[8]


def test_pagerank_partition_invariance(ray_session):
    a = _run(EDGES, NODES, parts=1, n_iter=5)
    b = _run(EDGES, NODES, parts=7, n_iter=5)
    for v in NODES:
        assert abs(a[v] - b[v]) < 1e-12, v


def test_pagerank_all_dangling(ray_session):
    # no edges at all: every round redistributes uniformly -> uniform
    got = _run([], [0, 1, 2, 3], n_iter=4)
    for v in got.values():
        assert abs(v - 0.25) < 1e-12


def test_pagerank_validation(ray_session):
    import pytest
    import ray.data as rd
    from mircv_ray.ops import pagerank
    e = rd.from_items([{"src": 0, "dst": 1}])
    v = rd.from_items([{"node": 0}, {"node": 1}])
    with pytest.raises(ValueError):
        pagerank(e, v, damping=1.0)
    with pytest.raises(ValueError):
        pagerank(e, v, n_iter=0)


# ---------------------------------------------------------------- HITS

def _hits_brute(edges, nodes, n_iter=5):
    nodes = sorted(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    h = np.ones(n)
    a = np.ones(n)

    def maxnorm(x):
        m = x.max() if len(x) else 0.0
        return x / m if m > 0 else x

    for _ in range(n_iter):
        a = np.zeros(n)
        for u, v in edges:
            a[idx[v]] += h[idx[u]]
        a = maxnorm(a)
        h = np.zeros(n)
        for u, v in edges:
            h[idx[u]] += a[idx[v]]
        h = maxnorm(h)
    return ({v: h[idx[v]] for v in nodes},
            {v: a[idx[v]] for v in nodes})


def _hits_run(edges, nodes, parts=3, **kw):
    import ray
    import ray.data as rd
    from mircv_ray.ops import hits
    e = rd.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([t for _, t in edges], type=pa.int64()),
    })).repartition(parts)
    v = rd.from_arrow(pa.table({
        "node": pa.array(nodes, type=pa.int64())})).repartition(parts)
    out = hits(e, v, **kw)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()),
                         promote_options="default").combine_chunks()
    return {t["node"][i].as_py(): (t["hub"][i].as_py(),
                                   t["authority"][i].as_py())
            for i in range(t.num_rows)}


def test_hits_equals_power_iteration(ray_session):
    exp_h, exp_a = _hits_brute(EDGES, NODES)
    got = _hits_run(EDGES, NODES)
    assert set(got) == set(NODES)
    for v in NODES:
        assert abs(got[v][0] - exp_h[v]) < 1e-9, ("hub", v)
        assert abs(got[v][1] - exp_a[v]) < 1e-9, ("auth", v)
    # the argmaxes agree with the reference (node 3's double edge into
    # the top authority makes it the top hub; node 2 is top authority);
    # the isolated node 8 is 0/0
    assert max(got, key=lambda v: got[v][0]) == \
        max(exp_h, key=exp_h.__getitem__) == 3
    assert max(got, key=lambda v: got[v][1]) == \
        max(exp_a, key=exp_a.__getitem__) == 2
    assert got[8] == (0.0, 0.0)


def test_hits_partition_invariance(ray_session):
    a = _hits_run(EDGES, NODES, parts=1)
    b = _hits_run(EDGES, NODES, parts=7)
    for v in NODES:
        assert abs(a[v][0] - b[v][0]) < 1e-12
        assert abs(a[v][1] - b[v][1]) < 1e-12


def test_hits_edgeless_and_validation(ray_session):
    import ray.data as rd
    from mircv_ray.ops import hits
    got = _hits_run([], [0, 1, 2])
    assert got == {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (0.0, 0.0)}
    e = rd.from_arrow(pa.table({"src": pa.array([0], type=pa.int64()),
                                "dst": pa.array([1], type=pa.int64())}))
    v = rd.from_arrow(pa.table({"node": pa.array([0, 1],
                                                 type=pa.int64())}))
    import pytest
    with pytest.raises(ValueError):
        hits(e, v, n_iter=0)


# ---------------------------------------------------------------- BFS

def _bfs_brute(edges, sources, max_depth):
    from collections import deque
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        u = q.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj.get(u, []):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _bfs_run(edges, sources, max_depth, parts=3):
    import ray
    import ray.data as rd
    from mircv_ray.ops import bfs_depths
    e = rd.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([t for _, t in edges], type=pa.int64()),
    })).repartition(parts)
    out = bfs_depths(e, sources, max_depth)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()),
                         promote_options="default").combine_chunks()
    return dict(zip(t["node"].to_pylist(), t["depth"].to_pylist()))


def test_bfs_matches_brute_force(ray_session):
    rng = np.random.default_rng(51)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 200, (600, 2))]
    for k in (0, 2, 5):
        got = _bfs_run(edges, [0, 7, 99], k)
        exp = _bfs_brute(edges, [0, 7, 99], k)
        assert got == exp, k


def test_bfs_cycles_and_partition_invariance(ray_session):
    edges = [(0, 1), (1, 2), (2, 0),       # cycle
             (2, 3), (3, 3),               # self-loop
             (5, 6)]                       # disconnected from seed
    got = _bfs_run(edges, [0], 10, parts=1)
    assert got == {0: 0, 1: 1, 2: 2, 3: 3}
    got7 = _bfs_run(edges, [0], 10, parts=7)
    assert got7 == got
    import pytest as _pt
    import ray.data as rd
    e = rd.from_arrow(pa.table({"src": pa.array([0], type=pa.int64()),
                                "dst": pa.array([1], type=pa.int64())}))
    with _pt.raises(ValueError):
        from mircv_ray.ops import bfs_depths
        bfs_depths(e, [0], max_depth=-1)


# ------------------------------------------------ both lookup-join paths

def _partitioned(monkeypatch):
    """Every round's lookup_join takes the partitioned path."""
    import mircv_ray.ops.equijoin as ej
    monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)


@pytest.mark.parametrize("check", [
    test_pagerank_equals_power_iteration, test_hits_equals_power_iteration,
    test_bfs_matches_brute_force], ids=["pagerank", "hits", "bfs"])
def test_partitioned_join(ray_session, monkeypatch, check):
    _partitioned(monkeypatch)
    check(ray_session)


# 9 is an edge endpoint outside the nodes table, 8 a source that no
# message ever reaches: 8 -> 0 never fires, while the first message to 9
# creates its row and 9 -> 3 fires from then on
MISSING = [(0, 1), (1, 2), (2, 9), (9, 3), (8, 0), (3, 0), (3, 3)]
NODES5 = [0, 1, 2, 3, 4]


def _close(got: dict, exp: dict):
    assert set(got) == set(exp)
    for v in exp:
        assert np.allclose(got[v], exp[v], rtol=0, atol=1e-12), v


@pytest.mark.parametrize("bcast", [None, 0])
def test_missing_endpoint_and_empty_edges(ray_session, monkeypatch, bcast):
    """Pinned outputs (the values of the tagged-union rounds the join
    rounds replaced) on both lookup-join paths."""
    if bcast == 0:
        _partitioned(monkeypatch)
    _close(_run(MISSING, NODES5, n_iter=4),
           {0: 0.193353877625, 1: 0.17718527325, 2: 0.1429767045,
            3: 0.398002087625, 4: 0.036281432, 9: 0.188729017})
    _close(_hits_run(MISSING, NODES5, n_iter=3),
           {0: (1 / 18, 1.0), 1: (1 / 18, 1 / 9), 2: (1 / 18, 1 / 9),
            3: (1.0, 1.0), 4: (0.0, 0.0), 8: (0.5, 0.0), 9: (0.5, 1 / 9)})
    assert _bfs_run(MISSING, [0, 8], 5) == \
        {0: 0, 1: 1, 2: 2, 3: 4, 8: 0, 9: 3}
    _close(_run([], NODES5, n_iter=4), {v: 0.2 for v in NODES5})
    _close(_hits_run([], NODES5, n_iter=3),
           {v: (0.0, 0.0) for v in NODES5})
    assert _bfs_run([], [0, 8], 5) == {0: 0, 8: 0}
