"""mircv_ray — a Ray-Data-native inverted-index build + BM25 query engine.

A from-scratch rebuild of the data-processing capabilities of the
DavideBruni/MIRCV_project reference (a single-JVM SPIMI search engine),
re-expressed as Ray Data pipelines: streaming ``map_batches`` tokenization
over zero-copy Arrow batches, one direct map/reduce postings exchange
(``build/index_build._exchange``) writing sorted, block-structured,
compressed posting lists per (term shard, docId segment), and
actor-pool query scoring with MaxScore dynamic pruning.

Layout:
  codecs/   bit-level compression kernels (unary, vbyte-gap, Elias-Fano)
  text/     tokenizer (reference-parity), Porter stemmer, stopwords
  build/    index build pipeline (docid assignment, exchange, lexicon)
            and the index lifecycle (merge, delete, vacuum, prune)
  query/    posting cursors, MaxScore scorer, query engine actor
  oracle/   pure-Python single-process reference-semantics oracle (tests)
  ops/      training-data ops: dedup, similarity search, text analysis,
            multimodal stubs
  sources/  corpus adapters (documents table -> corpus schema)
"""

__version__ = "0.1.0"


def _tune_malloc() -> None:
    """Keep freed large blocks in the malloc arena instead of returning
    them to the kernel (mmap threshold + trim threshold -> 1 GiB).

    The build/query kernels allocate large short-lived NumPy arrays in
    every batch; with glibc defaults each one is a fresh mmap whose
    pages must be first-touch faulted — syscall + TLB churn + page
    zeroing everywhere, and on memory-overcommitted hosts (including
    this sandbox VM, where a host-level reclaim wave makes fresh-page
    faults up to 1000x slower — measured 0.2 vs 230 ms/MB, see
    BASELINE.md) a catastrophic stall. Arena retention makes repeated
    batch-sized allocations reuse hot pages: measured 17 ms -> 0.5 ms
    per 100 MB steady-state on this box. Runs at import time so every
    Ray worker that deserializes our stages gets it; a no-op off glibc."""
    import ctypes
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(ctypes.c_int(-3), ctypes.c_int(1 << 30))  # M_MMAP_THRESHOLD
        libc.mallopt(ctypes.c_int(-1), ctypes.c_int(1 << 30))  # M_TRIM_THRESHOLD
    except Exception:  # noqa: BLE001 — best-effort platform tuning
        pass
    try:
        # arrow's bundled jemalloc purges dirty pages after a 1 s decay
        # — the same fresh-fault exposure for every Arrow buffer. Keep
        # a worker's pages at its batch-level high-water mark instead
        # (workers process one batch at a time, so retention is
        # batch-sized, not dataset-sized).
        import pyarrow as _pa
        _pa.jemalloc_set_decay_ms(-1)
    except Exception:  # noqa: BLE001 — non-jemalloc builds
        pass


_tune_malloc()


def use_push_shuffle(ds=None) -> None:
    """Select Ray Data's push-based sort shuffle for wide operations.

    The default pull-based sort shuffle degrades sharply with task count
    on the all-to-all exchanges this engine relies on (measured 62s vs
    9s for the 19M-row postings groupby at 32 CPUs); push-based
    (magnet-style) shuffle is also the right topology for multi-node
    clusters. Called at the entry of every shuffle-heavy pipeline.

    A Dataset captures its DataContext at CREATION time, so setting the
    global context inside a pipeline does not affect datasets the caller
    already built — pass ``ds`` to retarget its captured context too."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    strat = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    DataContext.get_current().shuffle_strategy = strat
    if ds is not None:
        try:
            ds.context.shuffle_strategy = strat
        except AttributeError:
            pass
