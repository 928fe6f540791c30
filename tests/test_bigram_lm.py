"""Bigram interpolated LM scoring: brute force parity, path identity."""
import math
import re

import numpy as np
import pyarrow as pa
import pytest

import mircv_ray.ops.equijoin as ej


def _brute(docs, lam):
    """Independent pure-Python interpolated bigram LM."""
    toks = {d: [t for t in re.split(r"[^a-z0-9]+", txt.lower()) if t]
            for d, txt in docs}
    uni, bi, total = {}, {}, 0
    for ts in toks.values():
        for t in ts:
            uni[t] = uni.get(t, 0) + 1
            total += 1
        for a, b in zip(ts, ts[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
    out = {}
    for d, ts in toks.items():
        n = max(len(ts) - 1, 0)
        s = 0.0
        for a, b in zip(ts, ts[1:]):
            p = lam * (bi[(a, b)] / uni[a]) + (1 - lam) * (uni[b] / total)
            s += math.log10(p)
        out[d] = (n, round(s, 4), round(-(s / n) if n else 0.0, 4))
    return out


def _run(docs, lam, threshold, parts=4):
    import ray.data as rd
    from mircv_ray.ops import bigram_logprob
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs]),
    })).repartition(parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ej, "BROADCAST_MAX_BYTES", threshold)
        return bigram_logprob(ds, lam=lam) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    vocab = ["hash", "join", "scan", "merge", "sort", "probe", "run"]
    docs = []
    for i in range(40):
        words = rng.choice(vocab, size=rng.integers(1, 20)).tolist()
        docs.append((i, " ".join(words)))
    docs.append((40, "solo"))          # 1 token: zero transitions
    docs.append((41, "   "))           # 0 tokens
    return docs


def test_bigram_lm_equals_brute_force(ray_session, corpus):
    got = _run(corpus, lam=0.7, threshold=10**9)
    exp = _brute(corpus, 0.7)
    assert got.doc_id.tolist() == sorted(exp)
    for _, r in got.iterrows():
        n, s, a = exp[r.doc_id]
        assert r.n_transitions == n, r.doc_id
        assert abs(r.sum_log10_p - s) < 2e-4, (r.doc_id, r.sum_log10_p, s)
        assert abs(r.avg_neg_logprob - a) < 2e-4, r.doc_id
    z = got.set_index("doc_id")
    assert z.loc[40].n_transitions == 0 and z.loc[40].sum_log10_p == 0.0
    assert z.loc[41].n_transitions == 0


def test_bigram_lm_joined_path_identical(ray_session, corpus):
    """threshold=0 forces the 3-join scale path; values must equal the
    broadcast path bit-for-bit (same rounding grid)."""
    a = _run(corpus, lam=0.7, threshold=10**9)
    b = _run(corpus, lam=0.7, threshold=0, parts=7)
    assert a.doc_id.tolist() == b.doc_id.tolist()
    assert a.n_transitions.tolist() == b.n_transitions.tolist()
    assert np.allclose(a.sum_log10_p, b.sum_log10_p, atol=1e-9)
    assert np.allclose(a.avg_neg_logprob, b.avg_neg_logprob, atol=1e-9)


def test_bigram_lm_validation(ray_session):
    import ray.data as rd
    from mircv_ray.ops import bigram_logprob
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64()),
                                 "text": ["a b"]}))
    with pytest.raises(ValueError, match="lam"):
        bigram_logprob(ds, lam=1.0)
