"""The benchmark's workloads and the closed loop that times them.

Every run is one client in one process that sends its next op only when
the previous one has returned (a closed loop). ``setup`` does all the
untimed work before the first timed op. ``op`` is one call through the
public API, and ``check`` compares its output with a value the benchmark
derives on its own, so a wrong output counts as a failed op.

Why these workloads: ``build`` runs the whole write path, tokenizer,
docId map, postings exchange and lexicon. ``query_cold`` pairs each query
with a term the reader has not cached, so every op pays for the row-group
read and the decode that the cache otherwise hides. ``vacuum`` shares the
exchange, encoder and lexicon stages with ``build`` but never tokenizes,
so a tokenizer change should move ``build`` alone while an exchange change
moves both; it runs from the command, but is not one of the benchmark's
gated workloads, because the quartile spread of its median op latency
over ten runs of the same code passed the 25% bound. A hot-cache query
workload, whose sub-millisecond median moved up to 27% between runs with
the host's speed, is left out.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import shutil
import signal
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

# corpus size of every workload (F1 generator rows)
N_DOCS = 10_000
# corpus parquet files; the build reads them in parallel
CORPUS_FILES = 16
# share of the prebuilt index each vacuum op deletes
VACUUM_FRACTION = 0.01
# exact per-layer counts are taken over this many leading timed ops
COUNT_OPS = 256
# query_cold queries whose results are also checked against the oracle
ORACLE_QUERIES = 64
# Ray's object store; the 10k-doc build needs a few tens of MB
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# seconds the processes Ray started get to end on their own after
# ray.shutdown before they are killed
REAP_GRACE_S = 10.0
# prctl option that makes orphaned descendants children of the caller
PR_SET_CHILD_SUBREAPER = 36

WORK_DIR = ".pbw"


def pin_one_core() -> None:
    """Run this process and every process it starts on one core.

    On a shared 4-vCPU VM the host takes time away from the virtual
    cores in bursts: builds spread over all four cores varied about 40%
    (quartile spread over the median) from run to run, on one core about
    11%. Ray is sized to the one core it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def start_ray(root: Path) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             # workers import mircv_ray from the checkout whatever the
             # working directory the benchmark was started from
             runtime_env={"env_vars": {"PYTHONPATH": str(root)}})
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    import ray
    if ray.is_initialized():
        ray.shutdown()


def adopt_orphans() -> None:
    """Make this process the subreaper of every process it starts.

    Ray's workers and agents are children of its raylet. When
    ``ray.shutdown`` kills the raylet they are orphaned and, without a
    subreaper, re-parented to init, where they can outlive the run. With
    it they become children of this process, so ``reap_children`` finds
    and waits for them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): "
                           f"{os.strerror(err)}")


def descendants() -> list[int]:
    """Pids of the descendants of this process, zombies included."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    stat = f.read()
            except OSError:   # ended meanwhile
                continue
            # the field after state, which follows the "(comm)" field
            parent[int(d)] = int(stat.rsplit(")", 1)[1].split()[1])
    out: list[int] = []
    frontier = {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier}
        out.extend(frontier)
    return out


def reap_zombies() -> None:
    """Collect the exit status of every child that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:   # no children left
        pass


def reap_children(grace: float = REAP_GRACE_S) -> None:
    """Wait until every descendant of this process has ended; kill the
    ones still running after ``grace`` seconds. Raises if a killed
    process does not end."""
    kill_at = time.monotonic() + grace
    give_up = kill_at + 30.0
    while True:
        reap_zombies()
        pids = descendants()
        if not pids:
            return
        now = time.monotonic()
        if now >= give_up:
            raise RuntimeError(f"processes {pids} did not end")
        if now >= kill_at:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def build(corpus_dir: Path, out: Path) -> dict:
    """One default-config build (no exchange or salting override)."""
    import ray.data as rd

    from mircv_ray.build import build_index
    corpus = rd.read_parquet(str(corpus_dir),
                             columns=["repo", "path", "lang", "content"])
    return build_index(corpus, str(out))


def build_signature(stats: dict) -> tuple:
    m = stats["metrics"]
    return (stats["n_docs"], m["n_postings"], stats["num_terms"],
            m["bytes_compressed"])


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


class Reference:
    """What the index must hold, from the corpus and the in-process
    tokenizer alone (the oracle's semantics, no index code): blank docs
    get no docId, the others are numbered from 1 in (repo, path) order,
    and a doc's postings are its distinct terms."""

    def __init__(self, corpus_dir: Path):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from mircv_ray.text import Tokenizer

        corpus = pq.read_table(str(corpus_dir),
                               columns=["repo", "path", "content"])
        content = corpus["content"]
        # InvertedIndex.java:45-47: blank docs are skipped
        corpus = corpus.filter(pc.and_(
            content.is_valid(),
            pc.greater(pc.binary_length(pc.utf8_trim_whitespace(content)),
                       0)))
        corpus = corpus.take(pc.sort_indices(
            corpus, sort_keys=[("repo", "ascending"), ("path", "ascending")]))
        t0 = time.perf_counter()
        tokens, doc_len = Tokenizer().tokenize_column(
            corpus["content"].combine_chunks())
        self.tokenize_s = time.perf_counter() - t0
        enc = pc.dictionary_encode(pc.list_flatten(tokens))
        self.terms = enc.dictionary.to_pylist()
        codes = enc.indices.to_numpy().astype(np.int64)
        doc = pc.list_parent_indices(tokens).to_numpy().astype(np.int64) + 1
        width = len(self.terms)
        pairs, tf = np.unique(doc * width + codes, return_counts=True)
        # one entry per posting: docId, term code and tf
        self.post_doc = (pairs // width).astype(np.int32)
        self.post_term = (pairs % width).astype(np.int32)
        self.post_tf = tf.astype(np.int32)
        self.n_docs = len(corpus)
        self.doc_len = np.asarray(doc_len, dtype=np.int64)
        self.per_doc = np.bincount(self.post_doc, minlength=self.n_docs + 1)

    def check(self, stats: dict) -> None:
        """Raise unless a ``build_index`` stats dict matches the corpus."""
        got = (stats["n_docs"], stats["metrics"]["n_postings"],
               stats["num_terms"])
        want = (self.n_docs, len(self.post_doc), len(self.terms))
        if got != want:
            raise RuntimeError(f"the index holds (docs, postings, terms) "
                               f"{got}, the corpus gives {want}")

    def oracle(self, texts: list[str]):
        """An ``OracleIndex`` with the collection statistics of the whole
        corpus and the posting lists of the terms of ``texts``, enough for
        its ``score_query`` on those texts."""
        from mircv_ray.oracle import OracleIndex
        from mircv_ray.text import tokenize_text

        code = {t: i for i, t in enumerate(self.terms)}
        o = OracleIndex(parse=True, n_docs=self.n_docs,
                        total_doc_len=int(self.doc_len.sum()),
                        doc_len=dict(enumerate(self.doc_len.tolist(), 1)))
        for text in texts:
            for t in tokenize_text(text, parse=True):
                if t in code and t not in o.postings:
                    sel = self.post_term == code[t]
                    o.postings[t] = dict(zip(self.post_doc[sel].tolist(),
                                             self.post_tf[sel].tolist()))
        return o


def same_ranking(got: list, want: list) -> bool:
    """Engine top-k [(docno, score)] against oracle top-k [(docId, score)];
    docno is docId - 1."""
    return ([d for d, _ in got] == [str(d - 1) for d, _ in want]
            and all(math.isclose(a, b, rel_tol=1e-9)
                    for (_, a), (_, b) in zip(got, want)))


class Workload:
    """Base: a closed-loop workload over a seed-generated F1 corpus."""

    name = ""

    def __init__(self, root: Path, seed: int, n_docs: int, tracer):
        self.root = root
        self.seed = seed
        self.n_docs = n_docs
        self.tracer = tracer
        self.work = root / WORK_DIR / self.name
        self.corpus_dir = self.work / "corpus"
        self.index_dir = self.work / "index"
        self.rng = np.random.default_rng(seed)
        self.written = 0        # postings written or scored by timed ops
        self.layers: dict = {}  # per-layer values the workload measured

    @classmethod
    def over(cls, other: "Workload") -> "Workload":
        """A workload of this kind that shares ``other``'s corpus, index
        and reference instead of running its own ``setup``."""
        w = cls(other.root, other.seed, other.n_docs, other.tracer)
        w.work, w.corpus_dir, w.index_dir = (other.work, other.corpus_dir,
                                             other.index_dir)
        w.setup_stats, w.ref = other.setup_stats, other.ref
        return w

    def setup(self) -> None:
        """Start Ray, write the corpus, build the workload's index and
        check it against the corpus."""
        start_ray(self.root)
        from mircv_ray.sources import write_corpus
        write_corpus(str(self.corpus_dir), self.n_docs, seed=self.seed,
                     num_files=CORPUS_FILES)
        # before the build, so the build reuses the memory it freed
        self.ref = Reference(self.corpus_dir)
        self.layers["text.tokenize_s"] = self.ref.tokenize_s
        self.setup_stats = build(self.corpus_dir, self.index_dir)
        # the exchange that ran names the keys of its stats
        sub = self.setup_stats["metrics"]["postings_sub"] or {}
        print(f"{self.name}: postings_sub keys {sorted(sub)}")
        self.ref.check(self.setup_stats)

    def before(self, i: int) -> None:
        """Untimed preparation of op ``i``."""

    def op(self, i: int, traced: bool):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def verify(self) -> int:
        """Untimed checks after the loop; returns the number of wrong ops."""
        return 0

    def teardown(self) -> None:
        stop_ray()


class BuildWorkload(Workload):
    """``build_index`` over the corpus into a fresh directory per op."""

    name = "build"

    def setup(self) -> None:
        super().setup()   # the index build is the untimed warm-up build
        self.expected = build_signature(self.setup_stats)

    def before(self, i: int) -> None:
        shutil.rmtree(self.work / f"op{i % 2}", ignore_errors=True)

    def op(self, i: int, traced: bool):
        out = self.work / f"op{i % 2}"
        if not traced:
            return build(self.corpus_dir, out)
        with self.tracer.span("build", i):
            return build(self.corpus_dir, out)

    def check(self, i: int, out) -> bool:
        if out is None or build_signature(out) != self.expected:
            return False
        self.written += out["metrics"]["n_postings"]
        self.layers.setdefault("build_stats", []).append(out)
        return True


class VacuumWorkload(Workload):
    """Each op tombstones a fresh 1% of a prebuilt index, then vacuums it."""

    name = "vacuum"

    def setup(self) -> None:
        super().setup()
        self.prepare()
        # one untimed vacuum warms the decode-and-re-encode pipeline
        self.before(-1)
        self.op(-1, False)
        self.before(-1)

    def prepare(self) -> None:
        self.n_old = self.setup_stats["n_docs"]
        # disjoint deletion sets, so every op deletes docs never deleted
        self.order = self.rng.permutation(np.arange(1, self.n_old + 1))
        self.k = max(1, int(self.n_old * VACUUM_FRACTION))

    def deleted(self, i: int) -> np.ndarray:
        lo = ((i + 1) * self.k) % (len(self.order) - self.k + 1)
        return self.order[lo:lo + self.k]

    def before(self, i: int) -> None:
        from mircv_ray.build import clear_tombstones
        clear_tombstones(str(self.index_dir))
        shutil.rmtree(self.work / "vacuumed", ignore_errors=True)

    def op(self, i: int, traced: bool):
        from mircv_ray.build import delete_docs, vacuum_index
        ids = self.deleted(i)
        if not traced:
            delete_docs(str(self.index_dir), ids)
            return vacuum_index(str(self.index_dir),
                                str(self.work / "vacuumed"))
        with self.tracer.span("vacuum", i):
            delete_docs(str(self.index_dir), ids)
            return vacuum_index(str(self.index_dir),
                                str(self.work / "vacuumed"))

    def check(self, i: int, out) -> bool:
        ids = self.deleted(i)
        want = len(self.ref.post_doc) - int(self.ref.per_doc[ids].sum())
        if (out is None or out["n_docs"] != self.n_old - len(ids)
                or out["metrics"]["n_postings"] != want):
            return False
        self.written += want
        self.layers.setdefault("vacuum_stats", []).append(out)
        return True

    def verify(self) -> int:
        self.before(-1)   # drop the last op's tombstones: the index is as built
        return 0


def one_indexed_term(engine, text: str) -> bool:
    """``text`` tokenizes to exactly one term, and the index holds it."""
    terms = engine.query_terms(text)
    return len(terms) == 1 and bool(engine.reader.lexicon_entry(terms[0]))


def shared_words(corpus_dir: Path, engine, sample: int = 2000) -> list[str]:
    """Raw corpus words in at least 2% of docs that the query tokenizer
    maps to exactly one indexed term (the F1 generator's shared
    vocabulary, read from the generated corpus itself)."""
    import pyarrow.parquet as pq
    content = pq.read_table(str(corpus_dir), columns=["content"])["content"]
    texts = content.slice(0, sample).to_pylist()
    counts = Counter()
    for text in texts:
        counts.update(set(text.split()))
    out = []
    for w, c in sorted(counts.items()):
        if (c >= 0.02 * len(texts) and w.isascii() and w.isalnum()
                and one_indexed_term(engine, w)):
            out.append(w)
    return out


class ColdQueries:
    """``uniq{i}token <shared word>`` queries. The F1 generator salts doc
    ``i`` with the term ``uniq{i}token``, so each has df 1. The uniq terms
    come in a seed-drawn order that starts over once all were queried; a
    corpus with more of them than the reader caches (4096 terms) has
    evicted a term before it comes round again, so every op reads and
    decodes one posting list from disk."""

    def __init__(self, n_docs: int, words: list[str], engine, rng):
        self.terms = [t for t in (f"uniq{i}token"
                                  for i in rng.permutation(n_docs))
                      if one_indexed_term(engine, t)]
        self.words = words
        self.rng = rng
        self.pos = 0

    def next(self, word: str | None = None) -> str:
        """The next query; ``word`` defaults to a seed-drawn shared word."""
        term = self.terms[self.pos % len(self.terms)]
        self.pos += 1
        if word is None:
            word = self.words[self.rng.integers(len(self.words))]
        return f"{term} {word}"


def traced_query(tracer, engine, text: str, i: int):
    """``QueryEngine.query`` issued as its public layer calls, in order."""
    reader = engine.reader
    with tracer.span("query", i):
        with tracer.span("query.terms", i):
            terms = engine.query_terms(text)
        with tracer.span("query.prefetch", i):
            reader.prefetch(terms)
        for t in terms:
            with tracer.span("query.decode", i):
                reader.decoded(t)
        with tracer.span("query.score", i):
            res = engine.score_terms(terms)
    return [(reader.docno(d), s) for d, s in res]


def expected_results(index_dir: Path, texts: list[str]) -> dict:
    """Top-k of each distinct query from a fresh reader and engine, so no
    cache state is shared with the engine under test."""
    from mircv_ray.query import IndexReader, QueryEngine
    texts = sorted(set(texts))
    ref = QueryEngine(str(index_dir),
                      reader=IndexReader(str(index_dir),
                                         term_cache_size=4 * len(texts) + 64))
    ref.reader.prefetch([t for q in texts for t in ref.query_terms(q)])
    return {q: ref.query(q) for q in texts}


def query_counts(engine, texts: list[str]) -> dict:
    """Exact per-layer counts over ``texts``: the distinct indexed terms
    they query, and the df summed over each query's indexed terms."""
    lex = engine.reader.lexicon_entry
    seen, scored = set(), 0
    for text in texts:
        terms = [t for t in engine.query_terms(text) if lex(t)]
        seen.update(terms)
        scored += sum(lex(t)[0] for t in terms)
    return {"query.cold_terms": len(seen), "query.postings_scored": scored}


class QueryColdWorkload(Workload):
    """BM25 top-10 disjunctive queries from one in-process QueryEngine;
    every op reads and decodes one posting list never queried before."""

    name = "query_cold"

    def setup(self) -> None:
        super().setup()
        # Ray's idle processes add jitter to millisecond query timings
        stop_ray()
        reap_children()
        self.open()

    def open(self) -> None:
        """Open the engine and query every shared word once: afterwards
        only the uniq term of an op is read from disk, and every shard
        file is open."""
        from mircv_ray.query import IndexReader, QueryEngine
        t0 = time.perf_counter()
        reader = IndexReader(str(self.index_dir))
        self.layers["query.reader_init_ms"] = (time.perf_counter() - t0) * 1e3
        self.engine = QueryEngine(str(self.index_dir), reader=reader)
        self.words = shared_words(self.corpus_dir, self.engine)
        self.texts: list[str] = []   # query text of each timed op
        self.results: list = []      # output of each timed op
        self.cold = ColdQueries(self.n_docs, self.words, self.engine,
                                self.rng)
        for w in self.words:
            self.engine.query(self.cold.next(w))

    def before(self, i: int) -> None:
        self.text = self.cold.next()

    def op(self, i: int, traced: bool):
        if not traced:
            return self.engine.query(self.text)
        return traced_query(self.tracer, self.engine, self.text, i)

    def check(self, i: int, out) -> bool:
        self.texts.append(self.text)
        self.results.append(out)
        return out is not None

    def verify(self) -> int:
        """Every op against a fresh engine, and a seed-drawn sample against
        the oracle's brute-force scoring."""
        want = expected_results(self.index_dir, self.texts)
        wrong = {i for i, (q, got) in enumerate(zip(self.texts,
                                                    self.results))
                 if got is not None and got != want[q]}
        sample = self.rng.choice(len(self.texts),
                                 min(ORACLE_QUERIES, len(self.texts)),
                                 replace=False)
        oracle = self.ref.oracle([self.texts[i] for i in sample])
        wrong.update(int(i) for i in sample if self.results[i] is not None
                     and not same_ranking(self.results[i],
                                          oracle.score_query(self.texts[i],
                                                             k=10)))
        self.written = query_counts(self.engine,
                                    self.texts)["query.postings_scored"]
        self.layers.update(query_counts(self.engine, self.texts[:COUNT_OPS]))
        # ops that raised were already counted by ``check``
        return len(wrong)


WORKLOADS = {w.name: w for w in (BuildWorkload, VacuumWorkload,
                                 QueryColdWorkload)}


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, int(np.ceil(q * len(sorted_vals))) - 1)]


def run(name: str, root: Path, seed: int, seconds: float, trace: bool,
        n_docs: int = N_DOCS) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    from perfbench.tracing import Tracer

    for k in [k for k in os.environ if k.startswith("MIRCV_")]:
        del os.environ[k]   # measure the default build path
    cpus = os.sched_getaffinity(0)
    adopt_orphans()
    pin_one_core()
    shutil.rmtree(root / WORK_DIR, ignore_errors=True)
    tracer = Tracer() if trace else None
    wl = WORKLOADS[name](root, seed, n_docs, tracer)
    wl.work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        reset_peak_rss()
        lat: list[float] = []
        lat_traced: list[float] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        # a traced run needs one untraced and one traced op at least
        min_ops = 2 if trace else 1
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            wl.before(i)
            # a traced run alternates untraced and traced ops, so the
            # difference of their medians is the tracing overhead
            traced = trace and i % 2 == 1
            t = time.perf_counter()
            try:
                out = wl.op(i, traced)
            except Exception:  # noqa: BLE001 -- a failed op is counted
                traceback.print_exc()
                out = None
            dt = time.perf_counter() - t
            (lat_traced if traced else lat).append(dt)
            if not wl.check(i, out):
                failed += 1
            i += 1
        rss_mb = peak_rss_mb()
        failed += wl.verify()
        busy_s = sum(lat) + sum(lat_traced)
        if trace:
            from perfbench.layers import per_layer
            metrics = per_layer(wl, lat, lat_traced)
            tracer.write(wl.work / "trace.jsonl")
        else:
            s = sorted(lat)
            # no median: the host runs in fast and slow phases about 1.4x
            # apart, and the median of millisecond ops jumps between them
            # (26-29% quartile spread over ten query_cold runs)
            metrics = {
                "setup_s": (setup_s, "s"),
                # the tail: the p99 of a 10 s query_cold run, ~18 ops
                # beyond it, moved 28% between seeds with the host's
                # sub-second stalls; a p95 has five times as many
                "op_p95_ms": (nearest_rank(s, 0.95) * 1e3, "ms"),
                "ops_per_s": (len(s) / busy_s, "1/s"),
                "postings_per_s": (wl.written / busy_s, "1/s"),
                "driver_peak_rss_mb": (rss_mb, "MB"),
            }
    finally:
        try:
            wl.teardown()
        finally:
            reap_children()
            os.sched_setaffinity(0, cpus)
    attempted = len(lat) + len(lat_traced)
    print(f"{name}: {attempted} ops, {failed} failed, setup {setup_s:.2f} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
