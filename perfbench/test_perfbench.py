"""Self-test of the benchmark on a tiny corpus.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload once untraced and once traced, checks that a wrong
result counts as a failed op, and checks the tiny index's query results
against the brute-force oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

TINY_DOCS = 400
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one run in a process of its own, as the command makes it, on the tiny corpus
RUN_TINY = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from perfbench import workloads
print(json.dumps(workloads.run(sys.argv[2], Path(sys.argv[1]), 7, 1.0,
                               sys.argv[3] == "1", n_docs=int(sys.argv[4]))))
"""


@pytest.mark.parametrize("trace", [0, 1])
# vacuum runs from the command although the benchmark does not gate it
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]] + ["vacuum"])
def test_every_metric_prints_with_its_unit(workload, trace):
    p = subprocess.run(
        [sys.executable, "-c", RUN_TINY, str(ROOT), workload, str(trace),
         str(TINY_DOCS)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


# a subreaper whose child exits and leaves a sleeping grandchild behind
ORPHAN = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from perfbench import workloads
workloads.adopt_orphans()
leave = ("import subprocess as s; print(s.Popen(['sleep', '60'], "
         "stdout=s.DEVNULL, stderr=s.DEVNULL).pid)")
pid = subprocess.run([sys.executable, "-c", leave], capture_output=True,
                     text=True, check=True).stdout
workloads.reap_children(grace=0.5)
print(pid.strip())
"""


def test_orphaned_grandchild_is_reaped():
    p = subprocess.run([sys.executable, "-c", ORPHAN, str(ROOT)],
                       capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr[-3000:]
    pid = int(p.stdout.strip().splitlines()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_wrong_expected_result_is_a_failed_op(monkeypatch):
    real = workloads.expected_results

    def one_wrong(index_dir, texts):
        want = real(index_dir, texts)
        q = texts[0]
        want[q] = [("-1", 0.0)] + want[q][1:]
        return want

    monkeypatch.setattr(workloads, "expected_results", one_wrong)
    result = workloads.run("query_cold", ROOT, 3, 0.2, False,
                           n_docs=TINY_DOCS)
    assert result["correct"] is False
    assert result["failed"] >= 1


def hot_query(words: list[str], rng) -> str:
    """2 to 4 distinct shared words: long posting lists, many ties."""
    n = int(rng.integers(2, 5))
    return " ".join(rng.choice(words, size=n, replace=False).tolist())


def test_query_results_match_oracle():
    import pyarrow.parquet as pq

    from mircv_ray.oracle import OracleIndex

    wl = workloads.QueryColdWorkload(ROOT, 5, TINY_DOCS, None)
    shutil.rmtree(wl.work, ignore_errors=True)
    wl.work.mkdir(parents=True)
    try:
        wl.setup()
    finally:
        wl.teardown()
    rows = pq.read_table(str(wl.corpus_dir),
                         columns=["repo", "path", "content"]).to_pylist()
    # blank docs get no docId in the engine (InvertedIndex.java:45-47)
    rows = [r for r in rows if r["content"].strip()]
    oracle = OracleIndex.build(rows, parse=True)
    queries = ([hot_query(wl.words, wl.rng) for _ in range(50)]
               + [wl.cold.next() for _ in range(50)])
    # the run-time check's oracle, built from the vectorized tokenizer
    ref_oracle = wl.ref.oracle(queries)
    for q in queries:
        got = wl.engine.query(q)
        want = oracle.score_query(q, standard="BM25", k=10)
        assert [d for d, _ in got] == [str(d - 1) for d, _ in want], q
        assert [s for _, s in got] == pytest.approx([s for _, s in want],
                                                    rel=1e-12), q
        assert ref_oracle.score_query(q, standard="BM25", k=10) == want, q
        assert workloads.same_ranking(got, want), q
