"""Engine configuration.

Mirrors the reference's compile-time knobs
(search_engine/src/main/java/unipi/aide/mircv/configuration/Configuration.java
and Lexicon.TERM_DIMENSION at model/Lexicon.java:22), plus the Ray-specific
scale knobs (shards, salt buckets) the reference has no equivalent for.
Batch sizes are module constants of ``build/index_build.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IndexConfig:
    # --- reference-equivalent knobs -------------------------------------
    parse: bool = True              # stopword removal + Porter stemming (IndexingMain.java:33)
    codec: str = "vbyte"            # "vbyte" (north-star primary) | "ef" | "none"
    block_threshold: int = 2048     # bytes (Configuration.java:15)
    term_dimension: int = 64        # max term bytes, exclusive (Lexicon.java:22)
    # BM25 parameters (Scorer.java:13-15) — NOT the textbook values
    k1: float = 1.5
    b: float = 0.7

    # --- Ray-scale knobs -------------------------------------------------
    num_shards: int = 16            # term-hash partitions of the postings/lexicon output
    salt_buckets: int = 1           # docId-range segments per term (>1 splits hot terms)
    squeeze: bool = True            # run-of-3+ squeeze (Parser.java:63-90); the
                                    # "basic" SQL-checkable mode turns this off

    def codec_valid(self) -> None:
        if self.codec not in ("vbyte", "ef", "none"):
            raise ValueError(f"unknown codec {self.codec!r}")


@dataclass(frozen=True)
class QueryConfig:
    standard: str = "BM25"          # "BM25" | "TFIDF" (Configuration.java:4, default TFIDF there;
                                    # BM25 is this engine's headline standard)
                                    # | "QLD" (query-likelihood, Dirichlet
                                    # smoothing — this engine's extension)
    mu: float = 2000.0              # QLD Dirichlet smoothing parameter
                                    # (Zhai & Lafferty SIGIR'01 default)
    k: int = 10                     # top-k heap size (MINHEAP_DIMENSION)
    conjunctive: bool = False
    parse: bool = True              # must match the index build's parse flag
    squeeze: bool = True
    algo: str = "auto"              # "auto" (vectorized TAAT for disjunctive,
                                    # MaxScore for conjunctive) | "maxscore"
                                    # (always the faithful Scorer.java loop)
                                    # | "wand" (Broder CIKM'03 pruning,
                                    # disjunctive; this engine's extension)
                                    # | "bmw" (Block-Max WAND, Ding & Suel
                                    # SIGIR'11 — WAND + per-block bounds)
