"""Similarity search over an embedding column (``list<float>``).

- ``cosine_topk``: brute-force cosine top-k — per-batch NumPy matmul of
  the batch's embedding matrix against a broadcast query matrix, partial
  top-k per batch, small final merge per query. Scales linearly: the
  full-vector data never shuffles, only (query_id, vec_id, score)
  candidates (batches x queries x k rows).
- ``ivf_cosine_topk``: IVF-style scale path — deterministic k-means
  centroids (built once from a sample), per-batch bucket assignment,
  probe only the ``nprobe`` nearest buckets per query. With
  ``nprobe == n_clusters`` it reproduces brute force exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _emb_matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch[emb_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dim = len(col[0])
    return col.values.to_numpy(zero_copy_only=False).reshape(-1, dim) \
        .astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _topk_table(qid, vid, score):
    return pa.table({"query_id": pa.array(qid, type=pa.int64()),
                     "vec_id": pa.array(vid, type=pa.int64()),
                     "score": pa.array(score, type=pa.float64())})


def cosine_topk(emb_ds, queries: np.ndarray, k: int = 10,
                emb_col: str = "embedding", id_col: str = "vec_id"):
    """Brute-force cosine top-k. Returns Dataset (query_id, vec_id, score)
    with exactly k rows per query (ties broken by ascending vec_id)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))

    def batch_candidates(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        sims = qn @ m.T                                 # (q, batch)
        ids = batch[id_col].to_numpy()
        q_out, v_out, s_out = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            s = sims[qi]
            # partial top-k with deterministic (score desc, vec_id asc)
            part = np.argpartition(-s, kk - 1)[:kk]
            order = part[np.lexsort((ids[part], -s[part]))]
            q_out.append(np.full(kk, qi, dtype=np.int64))
            v_out.append(ids[order])
            s_out.append(s[order])
        return _topk_table(np.concatenate(q_out), np.concatenate(v_out),
                           np.concatenate(s_out))

    def final_topk(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy()
        v = group["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        return _topk_table(group["query_id"].to_numpy()[order], v[order],
                           s[order])

    cands = emb_ds.map_batches(batch_candidates, batch_format="pyarrow")
    return cands.groupby("query_id").map_groups(final_topk,
                                                batch_format="pyarrow")


def ivf_build_centroids(emb_ds, n_clusters: int = 16, iters: int = 10,
                        sample_limit: int = 20000,
                        emb_col: str = "embedding", seed: int = 42) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (centroids are
    the broadcast small side; the dataset itself never materializes)."""
    sample = emb_ds.limit(sample_limit).to_pandas()
    m = _normalize(np.stack(sample[emb_col].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(n_clusters, len(m)), replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            mask = assign == c
            if mask.any():
                cent[c] = m[mask].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_cosine_topk(emb_ds, queries: np.ndarray, centroids: np.ndarray,
                    k: int = 10, nprobe: int = 4,
                    emb_col: str = "embedding", id_col: str = "vec_id"):
    """IVF probe search: score only vectors whose nearest centroid is among
    each query's nprobe closest centroids."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    nprobe = min(nprobe, len(cn))
    # per query: the set of probed buckets
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]   # (q, nprobe)

    def batch_candidates(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        bucket = (m @ cn.T).argmax(axis=1)                  # (batch,)
        ids = batch[id_col].to_numpy()
        q_out, v_out, s_out = [], [], []
        for qi in range(len(qn)):
            mask = np.isin(bucket, probe[qi])
            if not mask.any():
                continue
            s = m[mask] @ qn[qi]
            sub_ids = ids[mask]
            kk = min(k, len(s))
            part = np.argpartition(-s, kk - 1)[:kk]
            order = part[np.lexsort((sub_ids[part], -s[part]))]
            q_out.append(np.full(kk, qi, dtype=np.int64))
            v_out.append(sub_ids[order])
            s_out.append(s[order])
        if not q_out:
            return _topk_table([], [], [])
        return _topk_table(np.concatenate(q_out), np.concatenate(v_out),
                           np.concatenate(s_out))

    def final_topk(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy()
        v = group["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        return _topk_table(group["query_id"].to_numpy()[order], v[order],
                           s[order])

    cands = emb_ds.map_batches(batch_candidates, batch_format="pyarrow")
    return cands.groupby("query_id").map_groups(final_topk,
                                                batch_format="pyarrow")


def pq_train(emb_ds, m: int = 8, k: int = 256, sample_limit: int = 20000,
             iters: int = 10, emb_col: str = "embedding",
             seed: int = 4) -> np.ndarray:
    """Train product-quantization codebooks on a bounded driver-side
    sample (the broadcast small side, like `ivf_build_centroids`):
    split the normalized space into ``m`` subspaces and run
    deterministic mini k-means with ``k`` centroids in each. Returns
    (m, k, dim//m) float64 codebooks."""
    if not 1 <= k <= 256:
        # pq_encode packs codes as uint8: k > 256 would silently WRAP
        # centroid indices (260 -> 4) and corrupt every ADC lookup
        raise ValueError(f"k must be in [1, 256] (uint8 codes), got {k}")
    sample = emb_ds.limit(sample_limit).to_pandas()
    x = _normalize(np.stack(sample[emb_col].to_numpy()).astype(np.float64))
    dim = x.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    k = min(k, len(x))
    rng = np.random.default_rng(seed)
    books = np.zeros((m, k, dsub))
    for s in range(m):
        xs = x[:, s * dsub:(s + 1) * dsub]
        cent = xs[rng.choice(len(xs), size=k, replace=False)]
        for _ in range(iters):
            # nearest centroid by squared L2 (||c||^2 - 2 x.c term)
            d2 = (cent ** 2).sum(1)[None, :] - 2.0 * (xs @ cent.T)
            assign = d2.argmin(axis=1)
            for c in range(k):
                mask = assign == c
                if mask.any():
                    cent[c] = xs[mask].mean(axis=0)
        books[s] = cent
    return books


def pq_encode(emb_ds, codebooks: np.ndarray,
              emb_col: str = "embedding", id_col: str = "vec_id"):
    """(vec_id, code: binary[m]) — each normalized vector quantized to
    its nearest centroid per subspace (uint8 codes, 8 bytes/vector at
    m=8 — a 32x compression of a 64-dim float32 embedding)."""
    m, k, dsub = codebooks.shape

    def encode(batch: pa.Table) -> pa.Table:
        x = _normalize(_emb_matrix(batch, emb_col))
        codes = np.zeros((len(x), m), dtype=np.uint8)
        for s in range(m):
            xs = x[:, s * dsub:(s + 1) * dsub]
            cent = codebooks[s]
            d2 = (cent ** 2).sum(1)[None, :] - 2.0 * (xs @ cent.T)
            codes[:, s] = d2.argmin(axis=1).astype(np.uint8)
        from .dedup import _pack_rows
        return pa.table({id_col: batch[id_col], "code": _pack_rows(codes)})

    return emb_ds.map_batches(encode, batch_format="pyarrow")


def pq_cosine_topk(codes_ds, codebooks: np.ndarray, queries: np.ndarray,
                   k: int = 10, id_col: str = "vec_id"):
    """Approximate cosine top-k over PQ codes via ADC (asymmetric
    distance computation): per query, one (m, 256) lookup table of
    subspace dot products; per batch, scores gather-sum from the table —
    the full vectors are never touched after encoding, so the scan reads
    ``m`` bytes per vector instead of ``4*dim``. Candidates-only
    shuffle + per-query merge, same shape as `cosine_topk`."""
    from .dedup import _unpack_fixed
    m, nk, dsub = codebooks.shape
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    # lut[q, s, c] = <q_sub, centroid_c> ; dot(q, x~) = sum_s lut[q,s,code_s]
    lut = np.einsum("qsd,scd->qsc",
                    qn.reshape(len(qn), m, dsub),
                    codebooks)

    def batch_candidates(batch: pa.Table) -> pa.Table:
        codes = _unpack_fixed(batch["code"], np.uint8, m)
        ids = batch[id_col].to_numpy()
        if len(codes) == 0:
            return _topk_table([], [], [])
        q_out, v_out, s_out = [], [], []
        kk = min(k, len(codes))
        cols = np.arange(m)
        for qi in range(len(qn)):
            s = lut[qi][cols[None, :], codes].sum(axis=1)
            part = np.argpartition(-s, kk - 1)[:kk]
            order = part[np.lexsort((ids[part], -s[part]))]
            q_out.append(np.full(kk, qi, dtype=np.int64))
            v_out.append(ids[order])
            s_out.append(s[order])
        return _topk_table(np.concatenate(q_out), np.concatenate(v_out),
                           np.concatenate(s_out))

    def final_topk(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy()
        v = group["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        return _topk_table(group["query_id"].to_numpy()[order], v[order],
                           s[order])

    cands = codes_ds.map_batches(batch_candidates, batch_format="pyarrow")
    return cands.groupby("query_id").map_groups(final_topk,
                                                batch_format="pyarrow")


def pq_cosine_topk_rerank(emb_ds, codes_ds, codebooks: np.ndarray,
                          queries: np.ndarray, k: int = 10,
                          factor: int = 10, emb_col: str = "embedding",
                          id_col: str = "vec_id"):
    """PQ scan + EXACT re-rank (the production ANN shape): the ADC scan
    over 8-byte codes retrieves ``k * factor`` candidates per query,
    then one filtered pass over the full vectors rescores JUST those
    candidates exactly and keeps the top ``k``.

    Within-cluster orderings sit below PQ's quantization error, so the
    raw ADC top-k has poor rank fidelity; oversample-then-rerank
    recovers it while still reading only ``m`` bytes per vector for the
    bulk of the corpus. The candidate set (queries x k x factor ids) is
    the broadcast small side; the rescore pass touches full vectors only
    for matching rows."""
    import ray

    cand = pq_cosine_topk(codes_ds, codebooks, queries, k=k * factor,
                          id_col=id_col).to_pandas()
    if len(cand) == 0 or "vec_id" not in cand.columns:
        # empty ADC scan (e.g. empty codes_ds): nothing to rescore —
        # an empty result, not a crash inside the rescore tasks
        import ray.data as rd
        return rd.from_arrow(_topk_table([], [], []))
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    # (id, query) membership as a sorted id list + per-id query bitmask
    by_id: dict[int, set] = {}
    for qid, vid in zip(cand["query_id"], cand["vec_id"]):
        by_id.setdefault(int(vid), set()).add(int(qid))
    memb = np.zeros((len(cand_ids), len(qn)), dtype=bool)
    for i, vid in enumerate(cand_ids):
        for qid in by_id[int(vid)]:
            memb[i, qid] = True
    ref = ray.put((cand_ids, memb))

    def rescore(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        c_ids, c_memb = ray.get(ref)
        if len(c_ids) == 0:
            # empty ADC scan (e.g. empty codes_ds): len(c_ids)-1 below
            # would index an empty array — there is nothing to rescore
            return _topk_table([], [], [])
        pos = np.searchsorted(c_ids, ids)
        pos_c = np.minimum(pos, len(c_ids) - 1)
        hit = c_ids[pos_c] == ids
        if not hit.any():
            return _topk_table([], [], [])
        sub = _normalize(_emb_matrix(batch, emb_col))[hit]
        sub_ids = ids[hit]
        sub_memb = c_memb[pos_c[hit]]                 # (rows, queries)
        sims = sub @ qn.T                             # exact cosines
        ri, qi = np.nonzero(sub_memb)
        return _topk_table(qi.astype(np.int64), sub_ids[ri], sims[ri, qi])

    def final_topk(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy()
        v = group["vec_id"].to_numpy()
        order = np.lexsort((v, -s))[:k]
        return _topk_table(group["query_id"].to_numpy()[order], v[order],
                           s[order])

    scored = emb_ds.map_batches(rescore, batch_format="pyarrow")
    return scored.groupby("query_id").map_groups(final_topk,
                                                 batch_format="pyarrow")


def mmr_rerank(emb_ds, queries: np.ndarray, k: int = 5, lam: float = 0.7,
               n_cand: int = 20, emb_col: str = "embedding",
               id_col: str = "vec_id") -> pa.Table:
    """Maximal Marginal Relevance diversified top-k (Carbonell &
    Goldstein, SIGIR'98): greedily pick the candidate maximizing

        lam * sim(q, d)  -  (1 - lam) * max_{s in selected} sim(d, s)

    so later picks trade query relevance against redundancy with what
    was already picked; ``lam=1`` degenerates to plain cosine top-k.
    Ties break (mmr desc, vec_id asc); the first pick is the cosine
    rank-1 candidate by construction.

    Scale: the distributed work is the exact cosine top-``n_cand`` scan
    (:func:`cosine_topk` — content never shuffles, only candidate
    triples); the greedy loop runs on the (queries x n_cand)-sized
    candidate set, so driver memory is candidates x dim and k x n_cand
    dot products per query — NEVER corpus-sized. Returns a pa.Table
    (query_id, rank, vec_id, score) with score = the mmr value at
    selection time (rank 1 = lam * cosine).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    if k < 1 or n_cand < k:
        raise ValueError(f"need 1 <= k <= n_cand, got k={k} n_cand={n_cand}")
    cand = cosine_topk(emb_ds, queries, k=n_cand, emb_col=emb_col,
                       id_col=id_col).to_pandas()     # queries x n_cand rows
    if len(cand) == 0 or "vec_id" not in cand.columns:
        # empty corpus: the zero-row scan drops block schema (the
        # pq_cosine_topk_rerank guard, applied here too)
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    cand_ids = np.unique(cand["vec_id"].to_numpy())

    import ray
    ids_ref = ray.put(cand_ids)

    def keep_candidates(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = batch[id_col].to_numpy()
        pos = np.searchsorted(wanted, ids)
        pos[pos >= len(wanted)] = 0
        return batch.take(np.flatnonzero(wanted[pos] == ids))

    emb_t = pa.concat_tables(
        [t for t in ray.get(emb_ds.map_batches(
            keep_candidates, batch_format="pyarrow").to_arrow_refs())
         if t.num_rows])
    all_ids = emb_t[id_col].to_numpy()
    order = np.argsort(all_ids)
    all_ids = all_ids[order]
    E = _normalize(_emb_matrix(emb_t, emb_col))[order]

    q_out, r_out, v_out, s_out = [], [], [], []
    for qi in sorted(cand["query_id"].unique()):
        part = cand[cand["query_id"] == qi]
        ids = part["vec_id"].to_numpy()
        rel = part["score"].to_numpy()
        o = np.argsort(ids)                 # deterministic candidate order
        ids, rel = ids[o], rel[o]
        Eq = E[np.searchsorted(all_ids, ids)]
        n = len(ids)
        maxdiv = np.zeros(n)
        picked = np.zeros(n, dtype=bool)
        for rank in range(1, min(k, n) + 1):
            mmr = lam * rel - (1.0 - lam) * maxdiv
            mmr[picked] = -np.inf
            best = int(np.lexsort((ids, -mmr))[0])
            picked[best] = True
            q_out.append(int(qi))
            r_out.append(rank)
            v_out.append(int(ids[best]))
            s_out.append(float(mmr[best]))
            maxdiv = np.maximum(maxdiv, Eq @ Eq[best])
    return pa.table({"query_id": pa.array(q_out, type=pa.int64()),
                     "rank": pa.array(r_out, type=pa.int64()),
                     "vec_id": pa.array(v_out, type=pa.int64()),
                     "score": pa.array(s_out, type=pa.float64())})


def rocchio_dense(emb_ds, queries: np.ndarray, k: int = 10,
                  alpha: float = 1.0, beta: float = 0.75, n_fb: int = 5,
                  emb_col: str = "embedding", id_col: str = "vec_id"):
    """Dense pseudo-relevance feedback (Rocchio, 1971, in embedding
    space — the dense sibling of the sparse ``bm25_prf``): refine each
    query vector toward the centroid of its cosine top-``n_fb`` hits,

        q' = alpha * q + beta * mean(raw feedback embeddings)

    then rank by cosine(q', d). Rocchio runs in RAW vector space (the
    classic formulation); only the cosine rankings normalize.

    Scale: two :func:`cosine_topk` scans (feedback + final — each
    content-stationary, candidates only shuffle) plus ONE broadcast-id
    filtered gather of the (queries x n_fb) feedback embeddings; the
    centroid math is queries x dim on the driver. Returns (query_id,
    vec_id, score).
    """
    if n_fb < 1 or k < 1:
        raise ValueError(f"need n_fb >= 1 and k >= 1, got {n_fb}, {k}")
    q = np.asarray(queries, dtype=np.float64)
    fb = cosine_topk(emb_ds, q, k=n_fb, emb_col=emb_col,
                     id_col=id_col).to_pandas()
    if len(fb) == 0 or "vec_id" not in fb.columns:
        # empty corpus: no feedback, no results (schema-true empty)
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    fb_ids = np.unique(fb["vec_id"].to_numpy())

    import ray
    ids_ref = ray.put(fb_ids)

    def keep(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = batch[id_col].to_numpy()
        pos = np.searchsorted(wanted, ids)
        pos[pos >= len(wanted)] = 0
        return batch.take(np.flatnonzero(wanted[pos] == ids))

    emb_t = pa.concat_tables(
        [t for t in ray.get(emb_ds.map_batches(
            keep, batch_format="pyarrow").to_arrow_refs()) if t.num_rows])
    got_ids = emb_t[id_col].to_numpy()
    order = np.argsort(got_ids)
    got_ids = got_ids[order]
    E = _emb_matrix(emb_t, emb_col)[order]          # RAW vectors

    q2 = np.empty_like(q)
    for qi in range(len(q)):
        ids = np.sort(fb[fb["query_id"] == qi]["vec_id"].to_numpy())
        cent = E[np.searchsorted(got_ids, ids)].mean(axis=0)
        q2[qi] = alpha * q[qi] + beta * cent
    return cosine_topk(emb_ds, q2, k=k, emb_col=emb_col, id_col=id_col)


def cosine_all_pairs(emb_ds, threshold: float = 0.9,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     block_rows: int = 8192):
    """EXACT all-pairs cosine similarity join: every pair (a < b) with
    cosine >= threshold — the brute-force baseline the LSH-bucketed
    `embedding_near_dup_pairs` is verified against.

    Distributed as a tiled block-nested-loop self-join (GEMM tiling):
    vectors are normalized and packed per block once (the blocks live in
    the object store, only their REFS reach the driver), then one raw
    Ray task per block pair (i <= j) computes the (rows_i x rows_j)
    cosine tile with a single matmul and keeps only threshold-passing
    (a, b, cosine) rows. This is one of the few operators expressed with
    raw tasks rather than Dataset transforms: the Dataset API has no
    self-cross-product, and a tile task reading two zero-copy object
    refs IS the idiomatic Ray shape for it.

    Scale contract: O(B^2) tasks of O(block_rows^2 * dim) work each —
    intrinsically quadratic in the corpus, by definition of the exact
    join. Use it as a correctness baseline or on bounded corpora; the
    LSH path is the 10^12-row route.
    """
    import ray

    from .dedup import _pack_rows, _unpack_varlen

    def pack_normalized(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        return pa.table({id_col: batch[id_col], "nemb": _pack_rows(m)})

    packed = emb_ds.map_batches(pack_normalized, batch_format="pyarrow",
                                batch_size=block_rows).materialize()
    refs = packed.to_arrow_refs()

    @ray.remote
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "cosine": pa.array([], type=pa.float64())})
        if ta.num_rows == 0 or tb.num_rows == 0:
            return empty
        fa, la = _unpack_varlen(ta["nemb"].combine_chunks(), np.float64)
        fb, _ = _unpack_varlen(tb["nemb"].combine_chunks(), np.float64)
        dim = int(la[0])
        ma, mb = fa.reshape(-1, dim), fb.reshape(-1, dim)
        sims = ma @ mb.T
        ia_all = ta[id_col].to_numpy()
        ib_all = tb[id_col].to_numpy()
        mask = sims >= threshold
        if same:
            # keep strictly-upper entries only (one bool tile, no
            # materialized index arrays for the non-matching cells)
            mask &= np.arange(len(mb))[None, :] > np.arange(len(ma))[:, None]
        ri, ci = np.nonzero(mask)
        s = sims[ri, ci]
        ia, ib = ia_all[ri], ib_all[ci]
        lo = np.minimum(ia, ib)
        hi = np.maximum(ia, ib)
        return pa.table({"a": pa.array(lo, type=pa.int64()),
                         "b": pa.array(hi, type=pa.int64()),
                         "cosine": pa.array(s, type=pa.float64())})

    out_refs = [tile.remote(refs[i], refs[j], i == j)
                for i in range(len(refs)) for j in range(i, len(refs))]
    import ray.data as rd
    return rd.from_arrow_refs(out_refs)


def embedding_near_dup_pairs(emb_ds, threshold: float = 0.9,
                             id_col: str = "vec_id",
                             emb_col: str = "embedding",
                             bands: int = 4, bits: int = 64, seed: int = 9):
    """Embedding-cosine near-dup pairs (a < b, cosine >= threshold).

    Random-hyperplane LSH: a 64-bit sign sketch per vector, banded into
    ``bands`` buckets (pairs within Hamming distance 64/bands of each
    other share a band with high probability for high-cosine pairs);
    exact cosine verification inside each bucket. The normalized vectors
    reach the verify stage through ``dedup._join_pair_state`` (the
    distinct candidate pairs against the binary-packed embedding
    dataset) — never a driver materialization.
    """
    from .. import use_push_shuffle
    use_push_shuffle(emb_ds)

    state = {}

    def sketch(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        if "planes" not in state:
            rng = np.random.default_rng(seed)
            state["planes"] = rng.standard_normal((m.shape[1], bits))
        signs = (m @ state["planes"]) > 0
        h = np.zeros(len(m), dtype=np.uint64)
        for j in range(bits):
            h |= signs[:, j].astype(np.uint64) << np.uint64(j)
        width = bits // bands
        ids_out, band_out, key_out = [], [], []
        for bi in range(bands):
            shift = np.uint64(bi * width)
            mask = np.uint64((1 << width) - 1)
            ids_out.append(batch[id_col].to_numpy())
            band_out.append(np.full(len(m), bi, dtype=np.int64))
            key_out.append(((h >> shift) & mask).astype(np.int64))
        return pa.table({
            id_col: pa.array(np.concatenate(ids_out)),
            "band": pa.array(np.concatenate(band_out)),
            "band_key": pa.array(np.concatenate(key_out)),
        })

    from .dedup import (_bucketed_pairs, _join_pair_state,
                        _pack_rows, _unpack_varlen)

    def pack_normalized(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        return pa.table({id_col: batch[id_col], "nemb": _pack_rows(m)})

    def verify_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        fa, la = _unpack_varlen(batch["state_a"], np.float64)
        fb, _ = _unpack_varlen(batch["state_b"], np.float64)
        dim = int(la[0])
        ma = fa.reshape(-1, dim)
        mb = fb.reshape(-1, dim)
        cs = np.einsum("ij,ij->i", ma, mb)
        keep = cs >= threshold
        return pa.table({"a": batch["a"].filter(pa.array(keep)),
                         "b": batch["b"].filter(pa.array(keep)),
                         "cosine": pa.array(cs[keep], type=pa.float64())})

    cand = _bucketed_pairs(
        emb_ds.map_batches(sketch, batch_format="pyarrow"),
        ["band", "band_key"], id_col, max_bucket=1000)
    # materialized once: feeds the size probe (adaptive broadcast vs
    # partitioned joins) and the verify attach without a re-scan
    emb_bin = emb_ds.map_batches(pack_normalized,
                                 batch_format="pyarrow").materialize()
    joined = _join_pair_state(cand, emb_bin, id_col, "nemb")
    return joined.map_batches(verify_pairs, batch_format="pyarrow")


def _partial_knn(sims: np.ndarray, src_ids: np.ndarray,
                 dst_ids: np.ndarray, k: int):
    """Per-row top-k of one similarity tile: (src, dst, cosine) arrays,
    ties broken (cosine desc, dst asc), vectorized over the tile."""
    n, m = sims.shape
    kk = min(k, m)
    if kk == m:
        part = np.broadcast_to(np.arange(m), (n, m))
    else:
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    rows = np.repeat(np.arange(n), kk)
    cols = part.reshape(-1)
    return (np.repeat(src_ids, kk), dst_ids[cols],
            sims[rows, cols])


def knn_graph(emb_ds, k: int = 10, id_col: str = "vec_id",
              emb_col: str = "embedding", block_rows: int = 8192):
    """EXACT cosine k-nearest-neighbor graph: for every vector its k
    most similar OTHER vectors, ties (cosine desc, id asc) — the
    building block of SemDeDup-style duplicate graphs, kNN-classifier
    data maps, and graph-based ANN indexes (NN-Descent's ground truth).

    Distributed as the same tiled block-nested-loop self-join as
    :func:`cosine_all_pairs` (normalized blocks live in the object
    store, one raw Ray task per block pair), but each tile keeps only
    its PER-ROW top-k in both directions — a tile emits at most
    (rows_i + rows_j) * k candidate edges, never the full tile — and a
    final per-src groupby merges the B partial lists. O(B^2) tasks of
    one GEMM each: intrinsically quadratic (it IS the exact graph);
    the LSH-bucketed :func:`knn_graph_lsh` is the 10^12-row route and
    is recall-validated against this on samples.

    Returns a Dataset (src, dst, cosine) with min(k, n-1) rows per src.
    """
    import ray
    import ray.data as rd

    from .dedup import _pack_rows, _unpack_varlen

    def pack_normalized(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        return pa.table({id_col: batch[id_col], "nemb": _pack_rows(m)})

    packed = emb_ds.map_batches(pack_normalized, batch_format="pyarrow",
                                batch_size=block_rows).materialize()
    refs = packed.to_arrow_refs()

    empty = pa.table({"src": pa.array([], type=pa.int64()),
                      "dst": pa.array([], type=pa.int64()),
                      "cosine": pa.array([], type=pa.float64())})

    @ray.remote
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        if ta.num_rows == 0 or tb.num_rows == 0:
            return empty
        fa, la = _unpack_varlen(ta["nemb"].combine_chunks(), np.float64)
        fb, _ = _unpack_varlen(tb["nemb"].combine_chunks(), np.float64)
        dim = int(la[0])
        ma, mb = fa.reshape(-1, dim), fb.reshape(-1, dim)
        ia = ta[id_col].to_numpy()
        ib = tb[id_col].to_numpy()
        sims = ma @ mb.T
        outs = []
        if same:
            np.fill_diagonal(sims, -np.inf)
            s, d, c = _partial_knn(sims, ia, ib, k)
            outs.append((s, d, c))
        else:
            s, d, c = _partial_knn(sims, ia, ib, k)
            outs.append((s, d, c))
            s, d, c = _partial_knn(sims.T.copy(), ib, ia, k)
            outs.append((s, d, c))
        src = np.concatenate([o[0] for o in outs])
        dst = np.concatenate([o[1] for o in outs])
        cos = np.concatenate([o[2] for o in outs])
        keep = np.isfinite(cos)
        return pa.table({"src": pa.array(src[keep], type=pa.int64()),
                         "dst": pa.array(dst[keep], type=pa.int64()),
                         "cosine": pa.array(cos[keep], type=pa.float64())})

    cand_refs = [tile.remote(refs[i], refs[j], i == j)
                 for i in range(len(refs)) for j in range(i, len(refs))]

    def final_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return empty
        c = group["cosine"].to_numpy()
        d = group["dst"].to_numpy()
        order = np.lexsort((d, -c))[:min(k, group.num_rows)]
        return pa.table({
            "src": group["src"].take(pa.array(order)),
            "dst": group["dst"].take(pa.array(order)),
            "cosine": pa.array(c[order], type=pa.float64())})

    return (rd.from_arrow_refs(cand_refs)
            .groupby("src")
            .map_groups(final_topk, batch_format="pyarrow"))


def knn_graph_lsh(emb_ds, k: int = 10, id_col: str = "vec_id",
                  emb_col: str = "embedding", bands: int = 8,
                  bits: int = 64, seed: int = 9,
                  max_bucket: int = 2000):
    """Approximate kNN graph via random-hyperplane LSH buckets — the
    scale path: only same-band-key pairs are scored, so the work is
    sum-of-bucket^2 instead of n^2. More bands (narrower band keys)
    raise recall at more candidate cost. Recall vs :func:`knn_graph`
    is asserted in-entry at small scale (the graph is approximate by
    construction: a vector whose true neighbor never shares a band
    misses it).

    Returns (src, dst, cosine) with <= k rows per src (fewer when a
    vector's candidate set is smaller than k).
    """
    from .dedup import _bucketed_pairs, _join_pair_state, _pack_rows, \
        _unpack_varlen

    state: dict = {}

    def sketch(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        if "planes" not in state:
            rng = np.random.default_rng(seed)
            state["planes"] = rng.standard_normal((m.shape[1], bits))
        signs = (m @ state["planes"]) > 0
        h = np.zeros(len(m), dtype=np.uint64)
        for j in range(bits):
            h |= signs[:, j].astype(np.uint64) << np.uint64(j)
        width = bits // bands
        ids_out, band_out, key_out = [], [], []
        for bi in range(bands):
            shift = np.uint64(bi * width)
            mask = np.uint64((1 << width) - 1)
            ids_out.append(batch[id_col].to_numpy())
            band_out.append(np.full(len(m), bi, dtype=np.int64))
            key_out.append(((h >> shift) & mask).astype(np.int64))
        return pa.table({
            id_col: pa.array(np.concatenate(ids_out)),
            "band": pa.array(np.concatenate(band_out)),
            "band_key": pa.array(np.concatenate(key_out)),
        })

    def pack_normalized(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch, emb_col))
        return pa.table({id_col: batch[id_col], "nemb": _pack_rows(m)})

    def score_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"src": pa.array([], type=pa.int64()),
                             "dst": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        fa, la = _unpack_varlen(batch["state_a"], np.float64)
        fb, _ = _unpack_varlen(batch["state_b"], np.float64)
        dim = int(la[0])
        cs = np.einsum("ij,ij->i", fa.reshape(-1, dim),
                       fb.reshape(-1, dim))
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        # candidate pairs are undirected (a < b); the graph is directed
        # per-src — emit both directions
        return pa.table({
            "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            "cosine": pa.array(np.concatenate([cs, cs]),
                               type=pa.float64())})

    def final_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return pa.table({"src": pa.array([], type=pa.int64()),
                             "dst": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        c = group["cosine"].to_numpy()
        d = group["dst"].to_numpy()
        order = np.lexsort((d, -c))[:min(k, group.num_rows)]
        return pa.table({
            "src": group["src"].take(pa.array(order)),
            "dst": group["dst"].take(pa.array(order)),
            "cosine": pa.array(c[order], type=pa.float64())})

    cand = _bucketed_pairs(
        emb_ds.map_batches(sketch, batch_format="pyarrow"),
        ["band", "band_key"], id_col, max_bucket=max_bucket)
    emb_bin = emb_ds.map_batches(pack_normalized,
                                 batch_format="pyarrow").materialize()
    joined = _join_pair_state(cand, emb_bin, id_col, "nemb")
    return (joined.map_batches(score_pairs, batch_format="pyarrow")
            .groupby("src")
            .map_groups(final_topk, batch_format="pyarrow"))
