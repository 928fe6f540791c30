"""TF-IDF keywords: brute-force parity + broadcast ≡ joined path."""
import math
import re
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import mircv_ray.ops.equijoin as ej


DOCS = [
    (0, "apple apple apple banana cherry"),
    (1, "banana banana cherry date elderberry fig"),
    (2, "apple cherry cherry cherry date"),
    (3, "unique solitary words only here"),
    (4, ""),
    (5, None),
    (6, "date date date date apple"),
]


def _toks(t):
    return [x for x in re.split(r"[^a-z0-9]+", (t or "").lower()) if x]


def _brute(docs, k):
    n = len(docs)
    df = Counter()
    for _, t in docs:
        df.update(set(_toks(t)))
    out = {}
    for d, t in docs:
        tf = Counter(_toks(t))
        scored = sorted(((term, c * math.log10(n / df[term]))
                         for term, c in tf.items()),
                        key=lambda x: (-x[1], x[0]))[:k]
        out[d] = [(i + 1, term, s) for i, (term, s) in enumerate(scored)]
    return out


def _run(docs, parts=3, gate=None, **kw):
    import ray
    import ray.data as rd
    from mircv_ray.ops import tfidf_keywords
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs], type=pa.string()),
    })).repartition(parts)
    with pytest.MonkeyPatch.context() as mp:
        if gate is not None:
            mp.setattr(ej, "BROADCAST_MAX_BYTES", gate)
        out = tfidf_keywords(ds, **kw)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()),
                         promote_options="default").combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending"),
                                             ("rank", "ascending")]))
    res = {}
    for i in range(t.num_rows):
        res.setdefault(t["doc_id"][i].as_py(), []).append(
            (t["rank"][i].as_py(), t["term"][i].as_py(),
             t["tfidf"][i].as_py()))
    return res


def test_tfidf_keywords_equals_brute_force(ray_session):
    for k in (1, 3, 10):
        exp = _brute(DOCS, k)
        got = _run(DOCS, k=k)
        assert set(got) == {d for d, t in DOCS if _toks(t)}
        for d, rows in got.items():
            assert len(rows) == len(exp[d]), (k, d)
            for (gr, gt, gs), (er, et, es) in zip(rows, exp[d]):
                assert (gr, gt) == (er, et), (k, d, rows, exp[d])
                assert abs(gs - es) < 1e-12, (k, d)


def test_tfidf_keywords_joined_path_identical(ray_session):
    a = _run(DOCS, k=4)
    b = _run(DOCS, k=4, gate=0)
    assert a == b


def test_tfidf_keywords_validation(ray_session):
    import pytest
    import ray.data as rd
    from mircv_ray.ops import tfidf_keywords
    ds = rd.from_items([{"doc_id": 0, "text": "a"}])
    with pytest.raises(ValueError):
        tfidf_keywords(ds, k=0)
