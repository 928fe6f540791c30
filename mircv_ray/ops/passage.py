"""Passage retrieval — chunk-level index with MaxP doc aggregation.

Dai & Callan (SIGIR'19 "Deeper Text Understanding...") popularized the
MaxP recipe for long-document retrieval: index PASSAGES (sliding token
windows), score passages, and rank documents by their best passage.
This composes the engine's existing pieces: :func:`chunk_documents`
(ops/chunking.py) -> the standard index builder over a chunk corpus ->
the standard scorer -> a per-document max.

Scale shape: chunking and indexing are the existing distributed stages;
the chunk->doc mapping is written as a parquet sidecar in engine-docno
order (chunk paths are (doc_id, chunk_id) zero-padded, so the builder's
(repo, path) docId order IS the (doc_id, chunk_id) sort — row i of the
sidecar is docno i). Query-side the mapping loads once per process as
one int64 column (8 B/chunk; at 10^12 chunks this becomes the same
mmap-or-join treatment as the doc-length file, doc_len.i64 —
documented, not needed at gate scale). Per query the work is the same
posting decodes any disjunctive query pays, plus a vectorized group-max
over the matched chunks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .chunking import chunk_documents


def build_passage_index(docs_ds, out_dir: str, size: int = 40,
                        stride: int = 25, cfg=None, id_col: str = "doc_id",
                        text_col: str = "text") -> str:
    """Chunk ``docs_ds`` (id, text) and build the standard inverted
    index over the chunks; writes ``chunk_meta/`` (doc_id, chunk_id,
    start, n_tokens — row order == engine docno order) beside it."""
    from ..build import build_index
    from ..config import IndexConfig

    chunks = chunk_documents(docs_ds, size=size, stride=stride,
                             id_col=id_col, text_col=text_col)

    def to_corpus(b: pa.Table) -> pa.Table:
        did = pc.utf8_lpad(b["doc_id"].cast(pa.string()), 12, "0")
        cid = pc.utf8_lpad(b["chunk_id"].cast(pa.string()), 6, "0")
        path = pc.binary_join_element_wise(did, cid, "-")
        n = b.num_rows
        return pa.table({
            "repo": pa.array(["p"] * n),
            "path": path,
            "commit": pa.array([""] * n),
            "lang": pa.array(["txt"] * n),
            "content": b["text"],
        })

    build_index(chunks.map_batches(to_corpus, batch_format="pyarrow"),
                out_dir,
                cfg or IndexConfig(parse=False, squeeze=False,
                                   num_shards=4, salt_buckets=1))
    meta_dir = Path(out_dir) / "chunk_meta"
    if not (meta_dir / "meta.parquet").exists():
        meta_dir.mkdir(exist_ok=True)
        # chunk-count-sized slim table; single sorted file so row == docno
        mt = chunks.select_columns(
            ["doc_id", "chunk_id", "start", "n_tokens"]).to_pandas()
        mt = mt.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        tmp = meta_dir / ".meta.tmp"
        pq.write_table(pa.Table.from_pandas(mt, preserve_index=False),
                       str(tmp))
        tmp.rename(meta_dir / "meta.parquet")
    return out_dir


def passage_topk_maxp(index_dir: str, term_queries: list[list[str]],
                      k: int = 10, standard: str = "BM25",
                      agg: str = "max") -> pa.Table:
    """Top-``k`` DOCUMENTS per query from a passage index: score all
    matching chunks with the standard scorer, aggregate per source doc
    (``agg="max"`` — MaxP; ``"sum"`` — SumP), ties (score desc, doc
    asc). Returns (qid, doc_id, score) with doc_id = the original
    document id from the chunk sidecar."""
    if agg not in ("max", "sum"):
        raise ValueError(f"agg must be 'max' or 'sum', got {agg!r}")
    from ..config import QueryConfig
    from ..query import QueryEngine

    eng = QueryEngine(index_dir, QueryConfig(standard=standard, k=1 << 62,
                                             parse=False, squeeze=False))
    meta = pq.read_table(str(Path(index_dir) / "chunk_meta"),
                         columns=["doc_id"])["doc_id"].to_numpy()
    qs, ds_, ss = [], [], []
    for qid, terms in enumerate(term_queries):
        res = eng.score_terms(list(terms))
        if not res:
            continue
        ranks = np.fromiter((d - 1 for d, _ in res), dtype=np.int64,
                            count=len(res))
        scores = np.fromiter((s for _, s in res), dtype=np.float64,
                             count=len(res))
        docs = meta[ranks]
        uniq, inv = np.unique(docs, return_inverse=True)
        if agg == "max":
            dsc = np.full(len(uniq), -np.inf)
            np.maximum.at(dsc, inv, scores)
        else:
            dsc = np.zeros(len(uniq))
            # sum in chunk-id order (ranks ascending == sidecar order)
            order = np.argsort(ranks, kind="stable")
            np.add.at(dsc, inv[order], scores[order])
        kk = min(k, len(uniq))
        sel = np.lexsort((uniq, -dsc))[:kk]
        qs.append(np.full(kk, qid, dtype=np.int64))
        ds_.append(uniq[sel])
        ss.append(dsc[sel])
    if not qs:
        return pa.table({"qid": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    return pa.table({"qid": pa.array(np.concatenate(qs), type=pa.int64()),
                     "doc_id": pa.array(np.concatenate(ds_),
                                        type=pa.int64()),
                     "score": pa.array(np.concatenate(ss),
                                       type=pa.float64())})
