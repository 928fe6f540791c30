"""Per-layer metrics of a traced run.

A workload reports the layers its own ops go through. The benchmark
prints every per-layer metric on every workload, so the layers a
workload does not go through are measured by probes after its timed
loop, over the same run's corpus and index: a vacuum op of
``VacuumWorkload`` on ``build`` and ``query_cold``, traced
``QueryColdWorkload`` ops on ``build`` and ``vacuum``, and the codec
decode on all three. Each metric should move one end-to-end metric of
one workload:

- ``text.tokenize_s``: ``build`` ops_per_s and postings_per_s; flat on
  ``vacuum``, which never tokenizes.
- ``build.*`` stage walls: ``build``; ``build.postings_s`` and
  ``build.lexicon_s`` also ``vacuum``, which shares those stages.
- ``vacuum.*`` stage walls: ``vacuum``.
- ``codecs.*``: ``query_cold`` and ``vacuum``; flat on ``build``.
- ``query.prefetch_us``, ``query.decode_us`` and ``query.score_us``:
  ``query_cold`` ops_per_s and op_p95_ms.

The ``build.*`` and ``vacuum.*`` walls are the ones ``build_index`` and
``vacuum_index`` already return; the benchmark adds no timer for them.
"""

from __future__ import annotations

import statistics
import time

from perfbench.workloads import QueryColdWorkload, VacuumWorkload, start_ray

# traced query_cold ops the query probe runs
PROBE_QUERIES = 64


def stage_walls(stats: list[dict]) -> dict:
    """Median stage walls of ``build_index`` stats dicts."""
    def med(f):
        return statistics.median(f(s["metrics"]) for s in stats)
    return {
        "build.docs_s": med(lambda m: m["docs_seconds"]),
        "build.docs.tokenize_s": med(lambda m: m["docs_sub"]["tokenize_s"]),
        "build.docs.idmap_s": med(lambda m: m["docs_sub"]["idmap_s"]),
        "build.docs.write_s": med(lambda m: m["docs_sub"]["docs_write_s"]),
        "build.docs.sidecar_s": med(lambda m: m["docs_sub"]["sidecar_s"]),
        "build.postings_s": med(lambda m: m["postings_seconds"]),
        "build.lexicon_s": med(lambda m: m["lexicon_seconds"]),
    }


def vacuum_walls(stats: list[dict]) -> dict:
    """Median stage walls of ``vacuum_index`` stats dicts."""
    def med(key):
        return statistics.median(s["metrics"][key] for s in stats)
    return {"vacuum.docs_s": med("docs_seconds"),
            "vacuum.postings_s": med("postings_seconds"),
            "vacuum.lexicon_s": med("lexicon_seconds")}


def probe_vacuum(wl) -> dict:
    """Checked ``VacuumWorkload`` ops over ``wl``'s index; the walls of
    the second."""
    import ray
    if not ray.is_initialized():   # query_cold stops Ray before its loop
        start_ray(wl.root)
    v = VacuumWorkload.over(wl)
    v.prepare()
    for i in (-1, 0):   # the first op warms the pipeline up, as in setup
        v.before(i)
        if not v.check(i, v.op(i, False)):
            raise RuntimeError("the probe vacuum's output is wrong")
    v.verify()
    return vacuum_walls(v.layers["vacuum_stats"][-1:])


def probe_codecs(index_dir, stats: dict) -> dict:
    """Decode every posting byte of the index with the codec kernels and
    check the totals against the index's own stats."""
    import pyarrow.parquet as pq

    from mircv_ray.codecs import vbyte_decode
    from mircv_ray.codecs.unary import unary_decode_blocks

    blocks = pq.read_table(str(index_dir / "postings"), columns=["blocks"])
    blocks = blocks["blocks"].combine_chunks().flatten()
    counts = blocks.field("n").to_numpy()
    ids = b"".join(blocks.field("ids").to_pylist())
    tfs = blocks.field("tfs").to_pylist()
    total = int(counts.sum())
    t0 = time.perf_counter()
    gaps = vbyte_decode(ids, total)
    t1 = time.perf_counter()
    tf = unary_decode_blocks(tfs, counts)
    t2 = time.perf_counter()
    if (len(gaps) != stats["metrics"]["n_postings"]
            or int(tf.sum()) != stats["total_doc_len"]):
        raise RuntimeError("decoded postings disagree with stats.json")
    return {"codecs.vbyte_decode_s": t1 - t0,
            "codecs.unary_decode_s": t2 - t1}


def probe_queries(wl) -> dict:
    """Traced, checked ``QueryColdWorkload`` ops over ``wl``'s index."""
    q = QueryColdWorkload.over(wl)
    q.open()
    for k in range(PROBE_QUERIES):
        q.before(-1 - k)
        q.check(-1 - k, q.op(-1 - k, True))
    if q.verify():
        raise RuntimeError("the probe queries' results are wrong")
    return q.layers


def per_layer(wl, lat: list[float], lat_traced: list[float]) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    got = dict(wl.layers)
    got.update(stage_walls(got.pop("build_stats", [wl.setup_stats])))
    if "vacuum_stats" in got:
        got.update(vacuum_walls(got.pop("vacuum_stats")))
    else:
        got.update(probe_vacuum(wl))
    got.update(probe_codecs(wl.index_dir, wl.setup_stats))
    if "query.cold_terms" not in got:
        got.update(probe_queries(wl))
    tr = wl.tracer
    m = wl.setup_stats["metrics"]
    units = {
        "text.tokenize_s": "s",
        "build.n_postings": "count", "build.num_terms": "count",
        "build.bytes_per_posting": "B",
        "query.terms_us": "us", "query.prefetch_us": "us",
        "query.decode_us": "us", "query.score_us": "us",
        "query.reader_init_ms": "ms",
        "query.cold_terms": "count", "query.postings_scored": "count",
        "trace.overhead_ms": "ms",
    }
    got.update({
        "build.n_postings": m["n_postings"],
        "build.num_terms": wl.setup_stats["num_terms"],
        "build.bytes_per_posting": m["bytes_compressed"] / m["n_postings"],
        "query.terms_us": tr.median("query.terms") * 1e6,
        "query.prefetch_us": tr.median("query.prefetch") * 1e6,
        "query.decode_us": tr.median("query.decode") * 1e6,
        "query.score_us": tr.median("query.score") * 1e6,
        "trace.overhead_ms": (statistics.median(lat_traced)
                              - statistics.median(lat)) * 1e3,
    })
    return {k: (v, units.get(k, "s")) for k, v in sorted(got.items())}
