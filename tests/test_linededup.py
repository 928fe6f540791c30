"""Corpus-level line dedup + within-doc repetition stats: brute-force
parity on handcrafted docs, broadcast ≡ partitioned-join identity."""
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import mircv_ray.ops.equijoin as ej


DOCS = [
    (0, "nav menu\nunique zero\nfooter text"),
    (1, "nav menu\nunique one\nfooter text"),
    (2, "nav menu\nunique two"),
    (3, "only original content here"),
    (4, "footer text\nfooter text\nsolo line"),
    (5, "twice\ntwice\nkeep me"),
    (6, ""),
    (7, None),
]


def _brute_line_dedup(docs, min_count=2):
    from collections import Counter
    cnt = Counter()
    split = {d: (t or "").split("\n") for d, t in docs}
    for lines in split.values():
        cnt.update(lines)
    out = {}
    for d, lines in split.items():
        kept = [l for l in lines if cnt[l] < min_count]
        out[d] = (len(lines), len(lines) - len(kept), "\n".join(kept))
    return out


def _run(ds, gate=None, **kw):
    import ray
    from mircv_ray.ops import line_dedup
    with pytest.MonkeyPatch.context() as mp:
        if gate is not None:
            mp.setattr(ej, "BROADCAST_MAX_BYTES", gate)
        t = pa.concat_tables(ray.get(line_dedup(ds, **kw).to_arrow_refs()),
                             promote_options="default").combine_chunks()
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def _docs_ds():
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in DOCS], type=pa.int64()),
        "text": pa.array([t for _, t in DOCS], type=pa.string()),
    })).repartition(3)


def test_line_dedup_equals_brute_force(ray_session):
    exp = _brute_line_dedup(DOCS)
    got = _run(_docs_ds())
    assert got.num_rows == len(DOCS)
    for i in range(got.num_rows):
        d = got["doc_id"][i].as_py()
        assert (got["n_lines"][i].as_py(), got["n_dup_lines"][i].as_py(),
                got["text_clean"][i].as_py()) == exp[d], d
    # planted semantics: corpus boilerplate gone, within-doc-only pair
    # with corpus count 2 gone, unique content intact
    by_id = {got["doc_id"][i].as_py(): got["text_clean"][i].as_py()
             for i in range(got.num_rows)}
    assert by_id[0] == "unique zero"
    assert by_id[3] == "only original content here"
    assert by_id[4] == "solo line"          # footer dup'd corpus-wide
    assert by_id[5] == "keep me"            # 'twice' dup'd within-doc
    assert by_id[6] == "" and by_id[7] == ""  # ''+null both -> dup ''


def test_line_dedup_min_count_3(ray_session):
    exp = _brute_line_dedup(DOCS, min_count=3)
    got = _run(_docs_ds(), min_count=3)
    for i in range(got.num_rows):
        d = got["doc_id"][i].as_py()
        assert (got["n_lines"][i].as_py(), got["n_dup_lines"][i].as_py(),
                got["text_clean"][i].as_py()) == exp[d], d
    by_id = {got["doc_id"][i].as_py(): got["text_clean"][i].as_py()
             for i in range(got.num_rows)}
    # 'footer text' occurs 4x (>=3) -> gone; 'twice' occurs 2x -> kept
    assert by_id[0] == "unique zero"
    assert by_id[5] == "twice\ntwice\nkeep me"


def test_line_dedup_joined_path_identical(ray_session):
    # gate=0 forces the partitioned-join rebuild; output
    # must be byte-identical to the broadcast path
    a = _run(_docs_ds())
    b = _run(_docs_ds(), gate=0)
    assert a.equals(b)
    c = _run(_docs_ds(), min_count=3, gate=0)
    d = _run(_docs_ds(), min_count=3)
    assert c.equals(d)


def test_line_dedup_rejects_min_count_1(ray_session):
    import pytest
    from mircv_ray.ops import line_dedup
    with pytest.raises(ValueError):
        line_dedup(_docs_ds(), min_count=1)


def _brute_stats(text):
    def axis(elems):
        seen, nd, dc = set(), 0, 0
        tot = sum(len(e) for e in elems)
        for e in elems:
            if e in seen:
                nd += 1
                dc += len(e)
            seen.add(e)
        n = len(elems)
        def r4(x):
            import math
            return math.trunc(x * 1e4 + math.copysign(0.5, x)) / 1e4
        return (n, r4(nd / n if n else 0.0),
                r4(dc / tot if tot else 0.0))
    t = text or ""
    return axis(t.split("\n")), axis(t.split("\n\n"))


def test_duplicate_line_stats_brute_force(ray_session):
    from mircv_ray.ops import duplicate_line_stats
    docs = [
        (0, "a\n\na\n\nb"),
        (1, "long line here\nlong line here\nother"),
        (2, "para one two\n\npara one two\n\nx"),
        (3, "no repeats at all"),
        (4, ""),
        (5, None),
    ]
    batch = pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs], type=pa.string()),
    })
    out = duplicate_line_stats(batch)
    for i in range(out.num_rows):
        (ln, lf, lcf), (pn, pf, pcf) = _brute_stats(docs[i][1])
        row = {c: out[c][i].as_py() for c in out.column_names}
        assert row["n_lines"] == ln and row["n_paras"] == pn, i
        assert abs(row["dup_line_frac"] - lf) < 1e-12, i
        assert abs(row["dup_line_char_frac"] - lcf) < 1e-12, i
        assert abs(row["dup_para_frac"] - pf) < 1e-12, i
        assert abs(row["dup_para_char_frac"] - pcf) < 1e-12, i
    # doc 0: lines [a,'',a,'',b] -> 2/5 dup; paras [a,a,b] -> 1/3
    assert out["dup_line_frac"][0].as_py() == 0.4
    assert out["dup_para_frac"][0].as_py() == 0.3333
