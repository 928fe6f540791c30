"""dsir_weights: importance-resampling log weights (arXiv:2302.03169)."""

import numpy as np
import pyarrow as pa
import pytest


def _corpus():
    rng = np.random.default_rng(23)
    en = ["the quick brown fox jumps over the lazy dog",
          "a stitch in time saves nine the more the merrier"]
    de = ["der schnelle braune fuchs springt ueber den faulen hund",
          "viele koeche verderben den brei der apfel faellt nicht weit"]
    rows = []
    for i in range(120):
        if i % 2 == 0:
            rows.append(("en", en[i % 2] + f" extra{rng.integers(5)}"))
        else:
            rows.append(("de", de[i % 2] + f" wort{rng.integers(5)}"))
    return pa.table({
        "doc_id": pa.array(np.arange(120), type=pa.int64()),
        "lang": pa.array([r[0] for r in rows]),
        "text": pa.array([r[1] for r in rows]),
    })


class TestDsirWeights:
    def test_target_docs_score_higher(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import dsir_weights
        tbl = _corpus()
        out = (dsir_weights(rd.from_arrow(tbl).repartition(3),
                            "lang", "en")
               .to_pandas().merge(tbl.to_pandas()[["doc_id", "lang"]],
                                  on="doc_id"))
        en_w = out[out.lang == "en"].log_weight
        de_w = out[out.lang == "de"].log_weight
        # every english doc outweighs every german doc under the
        # lang='en' target model
        assert en_w.min() > de_w.max()

    def test_hashed_tracks_exact(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import dsir_weights
        tbl = _corpus()
        exact = dsir_weights(rd.from_arrow(tbl), "lang", "en") \
            .to_pandas().sort_values("doc_id")
        hashed = dsir_weights(rd.from_arrow(tbl), "lang", "en",
                              buckets=2048) \
            .to_pandas().sort_values("doc_id")
        ra = np.argsort(np.argsort(exact.log_weight.to_numpy()))
        rb = np.argsort(np.argsort(hashed.log_weight.to_numpy()))
        rho = np.corrcoef(ra.astype(float), rb.astype(float))[0, 1]
        assert rho > 0.95
        # token counts identical (hashing only remaps features)
        np.testing.assert_array_equal(exact.n_tokens, hashed.n_tokens)

    def test_matches_numpy_reference(self, ray_session):
        import ray.data as rd
        from mircv_ray.ops import dsir_weights
        tbl = _corpus()
        out = dsir_weights(rd.from_arrow(tbl), "lang", "en") \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        # brute force with the same tokenizer (lower + alnum split)
        import re
        rx = re.compile(r"[a-z0-9]+")
        toks = [rx.findall(t.lower()) for t in tbl["text"].to_pylist()]
        langs = tbl["lang"].to_pylist()
        from collections import Counter
        c_all, c_tgt = Counter(), Counter()
        for tk, lg in zip(toks, langs):
            c_all.update(tk)
            if lg == "en":
                c_tgt.update(tk)
        v = len(c_all)
        n_all = sum(c_all.values())
        n_tgt = sum(c_tgt.values())
        lr = {t: (np.log10(c_tgt.get(t, 0) + 1.0)
                  - np.log10(n_tgt + v)
                  - np.log10(c_all[t] + 1.0)
                  + np.log10(n_all + v)) for t in c_all}
        want = [round(sum(lr[t] for t in tk) + 0.0, 4) for tk in toks]
        np.testing.assert_allclose(out.log_weight, want, atol=2e-4)
        np.testing.assert_array_equal(out.n_tokens,
                                      [len(tk) for tk in toks])


@pytest.mark.parametrize("buckets", [None, 64])
def test_partitioned_path_equals_broadcast(ray_session, monkeypatch,
                                           buckets):
    # above the broadcast gate the model attaches key-partitioned with a
    # doc-partitioned finish; both paths give the same weights
    import ray.data as rd
    import mircv_ray.ops.equijoin as ej
    from mircv_ray.ops import dsir_weights
    tbl = _corpus()

    def run():
        return (dsir_weights(rd.from_arrow(tbl).repartition(3), "lang",
                             "en", buckets=buckets)
                .to_pandas().sort_values("doc_id").reset_index(drop=True))

    a = run()
    monkeypatch.setattr(ej, "BROADCAST_MAX_BYTES", 0)
    b = run()
    assert a.doc_id.tolist() == list(range(tbl.num_rows))
    assert a.equals(b)
