"""top_ngrams: corpus-wide most-frequent word n-grams
(ops/topngrams.py) vs a pure-Python brute force."""

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from mircv_ray.ops import top_ngrams

RX = re.compile(r"[^a-z0-9]+")


def _brute(texts, n, k, min_count=1):
    cnt = Counter()
    for t in texts:
        toks = [w for w in RX.split((t or "").lower()) if w]
        for i in range(len(toks) - n + 1):
            cnt[" ".join(toks[i:i + n])] += 1
    rows = sorted(((g, c) for g, c in cnt.items() if c >= min_count),
                  key=lambda gc: (-gc[1], gc[0]))[:k]
    return rows


def _docs(seed=11, n_docs=120):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    texts = []
    for i in range(n_docs):
        toks = rng.choice(vocab, rng.integers(0, 40)).tolist()
        texts.append(" ".join(toks) + (". End-Of! doc" if i % 7 == 0
                                       else ""))
    texts.append(None)
    texts.append("   ")
    return pa.table({"doc_id": pa.array(range(len(texts)),
                                        type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


class TestTopNgrams:
    @pytest.mark.parametrize("n,parts", [(1, 1), (2, 7), (3, 1), (3, 7)])
    def test_matches_brute_force(self, ray_session, n, parts):
        import ray.data as rd
        tbl = _docs()
        out = (top_ngrams(rd.from_arrow(tbl).repartition(parts), n=n, k=25)
               .to_pandas().sort_values("ngram_rank")
               .reset_index(drop=True))
        exp = _brute(tbl["text"].to_pylist(), n, 25)
        assert list(zip(out.ngram, out.ngram_count)) == exp
        assert list(out.ngram_rank) == list(range(1, len(exp) + 1))

    def test_grams_never_cross_docs(self, ray_session):
        import ray.data as rd
        tbl = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                        "text": pa.array(["aa bb", "cc dd"])})
        out = top_ngrams(rd.from_arrow(tbl), n=2, k=10).to_pandas()
        assert set(out.ngram) == {"aa bb", "cc dd"}   # never "bb cc"

    def test_min_count_cut(self, ray_session):
        import ray.data as rd
        tbl = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                        "text": pa.array(["x y x y", "x y z"])})
        out = top_ngrams(rd.from_arrow(tbl), n=2, k=10,
                         min_count=2).to_pandas()
        exp = _brute(tbl["text"].to_pylist(), 2, 10, min_count=2)
        assert list(zip(out.ngram, out.ngram_count)) == exp
        assert (out.ngram_count >= 2).all()

    def test_empty_and_validation(self, ray_session):
        import ray.data as rd
        tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                        "text": pa.array([""], type=pa.string())})
        assert top_ngrams(rd.from_arrow(tbl), n=2, k=5).count() == 0
        with pytest.raises(ValueError):
            top_ngrams(rd.from_arrow(tbl), n=0)
        with pytest.raises(ValueError):
            top_ngrams(rd.from_arrow(tbl), k=0)
        with pytest.raises(ValueError):
            top_ngrams(rd.from_arrow(tbl), min_count=0)


class TestZipfFit:
    """zipf_fit: distributed log-log regression over term counts
    (ops/textops.py: zipf_fit) vs a numpy polyfit reference."""

    @staticmethod
    def _brute(texts):
        cnt = Counter()
        for t in texts:
            for w in RX.split((t or "").lower()):
                if w:
                    cnt[w] += 1
        ranked = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        x = np.log10(np.arange(1, len(ranked) + 1, dtype=np.float64))
        y = np.log10(np.array([c for _, c in ranked], dtype=np.float64))
        n = float(len(x))
        denom = n * (x * x).sum() - x.sum() ** 2
        slope = (n * (x * y).sum() - x.sum() * y.sum()) / denom
        intercept = (y.sum() - slope * x.sum()) / n
        return len(ranked), slope, intercept

    @pytest.mark.parametrize("parts", [1, 7])
    def test_matches_brute_force(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import zipf_fit
        rng = np.random.default_rng(5)
        # zipf-ish corpus: term w_i with weight 1/(i+1)
        vocab = [f"w{i}" for i in range(200)]
        p = 1.0 / np.arange(1, 201)
        p /= p.sum()
        texts = [" ".join(rng.choice(vocab, 80, p=p)) for _ in range(150)]
        tbl = pa.table({"doc_id": pa.array(range(150), type=pa.int64()),
                        "text": pa.array(texts)})
        out = zipf_fit(rd.from_arrow(tbl).repartition(parts))
        n, slope, intercept = self._brute(texts)
        assert out["n_terms"][0].as_py() == n
        assert abs(out["zipf_slope"][0].as_py() - slope) < 2e-6
        assert abs(out["zipf_intercept"][0].as_py() - intercept) < 2e-6
        assert out["zipf_slope"][0].as_py() < -0.4   # zipf-ish decay

    def test_single_term_degenerate_and_empty(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import zipf_fit
        tbl = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                        "text": pa.array(["aaa aaa aaa"])})
        out = zipf_fit(rd.from_arrow(tbl))
        assert out["n_terms"][0].as_py() == 1
        assert out["zipf_slope"][0].as_py() == 0.0
        empty = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                          "text": pa.array([""], type=pa.string())})
        assert zipf_fit(rd.from_arrow(empty)).num_rows == 0


class TestCorpusDiff:
    """corpus_diff: exact-content anti-join of two corpus snapshots
    (ops/dedup.py: corpus_diff)."""

    def _snapshots(self):
        texts_old = [f"document number {i} body" for i in range(40)]
        # new crawl: keeps 0..29, drops 30..39, adds 40..49, and adds
        # two docs whose text DUPLICATES old content (not new), plus a
        # None and an empty doc on both sides
        texts_new = ([f"document number {i} body" for i in range(30)]
                     + [f"fresh page {i}" for i in range(40, 50)]
                     + [texts_old[35], texts_old[5], None, ""])
        old = pa.table({
            "doc_id": pa.array(range(40), type=pa.int64()),
            "text": pa.array(texts_old + [], type=pa.string())})
        old = pa.table({
            "doc_id": pa.array(range(42), type=pa.int64()),
            "text": pa.array(texts_old + [None, ""], type=pa.string())})
        new = pa.table({
            "doc_id": pa.array(range(100, 100 + len(texts_new)),
                               type=pa.int64()),
            "text": pa.array(texts_new, type=pa.string())})
        return old, new

    @pytest.mark.parametrize("parts", [1, 6])
    def test_matches_brute_force(self, ray_session, parts):
        self._check(parts)

    def test_partitioned_join(self, ray_session, monkeypatch):
        import mircv_ray.ops.equijoin as ej
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        self._check(6)
        self.test_null_matches_null_and_disjoint(ray_session)

    def _check(self, parts):
        import ray.data as rd
        from mircv_ray.ops import corpus_diff
        old, new = self._snapshots()
        out = (corpus_diff(rd.from_arrow(new).repartition(parts),
                           rd.from_arrow(old).repartition(parts))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        old_set = set(old["text"].to_pylist())
        exp = sorted(i for i, t in zip(new["doc_id"].to_pylist(),
                                       new["text"].to_pylist())
                     if t not in old_set)
        assert list(out.doc_id) == exp
        # the ten fresh pages are new; dup-of-old, None and '' are not
        assert len(out) == 10

    def test_null_matches_null_and_disjoint(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import corpus_diff
        left = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                         "text": pa.array([None, "only here"],
                                          type=pa.string())})
        right = pa.table({"doc_id": pa.array([9], type=pa.int64()),
                          "text": pa.array([None], type=pa.string())})
        out = corpus_diff(rd.from_arrow(left),
                          rd.from_arrow(right)).to_pandas()
        assert list(out.doc_id) == [2]     # NULL text matched NULL
        empty_right = pa.table({"doc_id": pa.array([], type=pa.int64()),
                                "text": pa.array([], type=pa.string())})
        out2 = corpus_diff(rd.from_arrow(left),
                           rd.from_arrow(empty_right)).to_pandas()
        assert sorted(out2.doc_id) == [1, 2]


class TestNfcNormalize:
    """nfc_normalize: Unicode NFC with the ASCII fast path
    (ops/textops.py: nfc_normalize)."""

    def test_matches_unicodedata(self, ray_session):
        import unicodedata
        import ray.data as rd
        from mircv_ray.ops import nfc_normalize
        texts = ["plain ascii stays",
                 "café decomposed",          # e + combining acute
                 "é already composed",
                 "mixed å ring and ö umlaut",
                 None, ""]
        tbl = pa.table({"doc_id": pa.array(range(len(texts)),
                                           type=pa.int64()),
                        "text": pa.array(texts, type=pa.string())})
        out = (nfc_normalize(rd.from_arrow(tbl).repartition(3))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        exp = [unicodedata.normalize("NFC", t or "") for t in texts]
        assert list(out.text) == exp
        assert list(out.changed) == [False, True, False, True,
                                     False, False]
        assert "́" not in out.text[1]     # composed, no combining
        assert out.text[1].startswith("café ")

    def test_ascii_fast_path_identity(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import nfc_normalize
        tbl = pa.table({"doc_id": pa.array(range(500), type=pa.int64()),
                        "text": pa.array([f"doc {i} body" for i in
                                          range(500)])})
        out = nfc_normalize(rd.from_arrow(tbl)).to_pandas()
        assert not out.changed.any()
        assert sorted(out.text) == sorted(f"doc {i} body"
                                          for i in range(500))


class TestHeapsFit:
    """heaps_fit: vocabulary-growth regression (ops/textops.py)."""

    @staticmethod
    def _brute(texts):
        seen = set()
        n_cum = v_cum = 0
        xs, ys = [], []
        for t in texts:
            toks = [w for w in RX.split((t or "").lower()) if w]
            if not toks:
                continue
            n_cum += len(toks)
            seen.update(toks)
            v_cum = len(seen)
            xs.append(np.log10(n_cum))
            ys.append(np.log10(max(v_cum, 1)))
        x = np.array(xs)
        y = np.array(ys)
        n = float(len(x))
        denom = n * (x * x).sum() - x.sum() ** 2
        beta = (n * (x * y).sum() - x.sum() * y.sum()) / denom
        logk = (y.sum() - beta * x.sum()) / n
        return n_cum, len(seen), beta, logk

    @pytest.mark.parametrize("parts", [1, 7])
    def test_matches_brute_force(self, ray_session, parts):
        import ray.data as rd
        from mircv_ray.ops import heaps_fit
        rng = np.random.default_rng(19)
        vocab = [f"w{i}" for i in range(400)]
        p = 1.0 / np.arange(1, 401)
        p /= p.sum()
        texts = [" ".join(rng.choice(vocab, 40, p=p))
                 for _ in range(200)] + [None, "   "]
        tbl = pa.table({"doc_id": pa.array(range(len(texts)),
                                           type=pa.int64()),
                        "text": pa.array(texts, type=pa.string())})
        out = heaps_fit(rd.from_arrow(tbl).repartition(parts))
        n_tok, n_terms, beta, logk = self._brute(texts)
        assert out["n_docs"][0].as_py() == len(texts)
        assert out["n_tokens"][0].as_py() == n_tok
        assert out["n_terms"][0].as_py() == n_terms
        assert abs(out["heaps_beta"][0].as_py() - beta) < 2e-6
        assert abs(out["heaps_log10_k"][0].as_py() - logk) < 2e-6
        assert 0.1 < out["heaps_beta"][0].as_py() < 1.0


class TestProfileTable:
    """profile_table: per-column row/null/distinct profile
    (ops/profile.py: profile_table) vs pandas."""

    @pytest.mark.parametrize("parts", [1, 6])
    def test_matches_pandas(self, ray_session, parts):
        self._check(parts)

    def test_partitioned_join(self, ray_session, monkeypatch):
        import mircv_ray.ops.equijoin as ej
        monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
        self._check(6)
        self.test_column_subset_and_allnull(ray_session)

    def _check(self, parts):
        import ray.data as rd
        from mircv_ray.ops import profile_table
        rng = np.random.default_rng(55)
        n = 2000
        vals = rng.normal(size=n)
        vals[::17] = np.nan                       # becomes null below
        tbl = pa.table({
            "id": pa.array(np.arange(n), type=pa.int64()),
            "cat": pa.array(rng.choice(["a", "b", "c", None],
                                       n).tolist(), type=pa.string()),
            "x": pa.array([None if np.isnan(v) else float(v)
                           for v in vals], type=pa.float64()),
        })
        out = (profile_table(rd.from_arrow(tbl).repartition(parts))
               .to_pandas().sort_values("column")
               .reset_index(drop=True))
        df = tbl.to_pandas()
        assert list(out.column) == ["cat", "id", "x"]
        assert (out.n_rows == n).all()
        exp_null = [int(df.cat.isna().sum()), 0, int(df.x.isna().sum())]
        assert list(out.n_null) == exp_null
        exp_dist = [df.cat.nunique(), n, df.x.nunique()]
        assert list(out.n_distinct) == exp_dist

    def test_column_subset_and_allnull(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import profile_table
        tbl = pa.table({"a": pa.array([1, 1, 2], type=pa.int64()),
                        "b": pa.array([None, None, None],
                                      type=pa.string())})
        out = (profile_table(rd.from_arrow(tbl), columns=["b"])
               .to_pandas())
        assert list(out.column) == ["b"]
        assert list(out.n_null) == [3]
        assert list(out.n_distinct) == [0]
