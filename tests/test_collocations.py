"""Collocation mining (adjacent-bigram PMI) vs brute force."""
import collections
import math
import re

import pyarrow as pa
import pytest

import mircv_ray.ops.equijoin as ej

from mircv_ray.ops.collocations import pmi_collocations


def _brute(docs, min_count):
    uni = collections.Counter()
    bi = collections.Counter()
    for d in docs:
        toks = [t for t in re.split(r"[^a-z0-9]+", (d or "").lower()) if t]
        uni.update(toks)
        bi.update(zip(toks, toks[1:]))
    total = sum(uni.values())
    total_b = sum(bi.values())
    out = {}
    for (a, b), c in bi.items():
        if c >= min_count:
            out[(a, b)] = (c, round(math.log10(
                (c * total * total) / (total_b * uni[a] * uni[b])), 4))
    return out


def _ds(docs, nparts=3):
    import ray.data as rd
    t = pa.table({"doc_id": list(range(len(docs))), "text": docs})
    return rd.from_arrow(t).repartition(nparts)


FIXTURE = [
    "the big cat sat on the big mat",
    "big cat big cat big cat",
    "",
    "solo",
    "the the the",
    "a1 b2 a1 b2 a1!",
    None,
    "New-York new york NEW york",
]


@pytest.mark.parametrize("min_count", [1, 2, 3])
@pytest.mark.parametrize("bmax", [10**9, 0])  # broadcast vs joined path
def test_pmi_vs_brute_force(ray_session, min_count, bmax):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ej, "BROADCAST_MAX_BYTES", bmax)
        t = pmi_collocations(_ds(FIXTURE), min_count=min_count).to_pandas()
    got = {(r.term_a, r.term_b): (r.pair_count, r.pmi)
           for r in t.itertuples()}
    assert got == _brute(FIXTURE, min_count)


def test_random_corpus_both_paths_identical(ray_session):
    import random
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(40)]
    docs = [" ".join(rng.choices(vocab, k=rng.randrange(0, 30)))
            for _ in range(120)]
    exp = _brute(docs, 2)
    for bmax in (10**9, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ej, "BROADCAST_MAX_BYTES", bmax)
            t = pmi_collocations(_ds(docs, 5), min_count=2).to_pandas()
        got = {(r.term_a, r.term_b): (r.pair_count, r.pmi)
               for r in t.itertuples()}
        assert got == exp


def test_no_cross_document_bigrams(ray_session):
    # 'b a' would only arise by pairing across the doc boundary
    docs = ["a b", "a b"]
    t = pmi_collocations(_ds(docs, 2), min_count=1).to_pandas()
    assert set(zip(t.term_a, t.term_b)) == {("a", "b")}
    assert t.pair_count.tolist() == [2]


def test_partitioning_invariance(ray_session):
    docs = FIXTURE * 4
    ref = None
    for nparts in (1, 7):
        t = pmi_collocations(_ds(docs, nparts), min_count=2).to_pandas()
        t = t.sort_values(["term_a", "term_b"]).reset_index(drop=True)
        if ref is None:
            ref = t
        else:
            assert t.equals(ref)


def test_empty_corpus(ray_session):
    out = pmi_collocations(_ds(["", None, "!!"]), min_count=1)
    assert out.schema().names == ["term_a", "term_b", "pair_count", "pmi"]
    assert out.count() == 0
