"""Width-adaptive tf packing in the partial-posting exchange
(util.packed_tf_values / packed_tf_dtype): uint16 runs when a batch's
max tf fits 16 bits, int32 past that, width resolved per ROW on the
consumer side — so mixed-width groups (one batch packed wide, others
narrow) decode exactly, and the final index is byte-identical to the
all-int32 format it replaces."""

import numpy as np
import pyarrow as pa
import pytest

from mircv_ray.util import packed_tf_dtype, packed_tf_values


def _pack(vals: np.ndarray, run_starts: np.ndarray) -> pa.Array:
    from mircv_ray.build.index_build import _packed_runs
    return _packed_runs(vals, run_starts)


class TestPackedTfValues:
    def test_dtype_choice(self):
        assert packed_tf_dtype(np.array([1, 65535])) == np.uint16
        assert packed_tf_dtype(np.array([1, 65536])) == np.int32
        assert packed_tf_dtype(np.array([], dtype=np.int64)) == np.uint16

    def test_uniform_narrow_and_wide_roundtrip(self):
        vals = np.array([1, 7, 65535, 2, 3], dtype=np.int64)
        starts = np.array([0, 3])
        for dt in (np.uint16, np.int32):
            col = _pack(vals.astype(dt), starts)
            n_col = np.array([3, 2], dtype=np.int64)
            got = packed_tf_values(col, n_col)
            assert got.tolist() == vals.tolist()

    def test_mixed_width_rows_decode_exactly(self):
        a = _pack(np.array([1, 2, 3], dtype=np.uint16), np.array([0, 2]))
        b = _pack(np.array([70000, 5], dtype=np.int32), np.array([0]))
        c = _pack(np.array([9], dtype=np.uint16), np.array([0]))
        col = pa.concat_arrays([a, b, c])
        n_col = np.array([2, 1, 2, 1], dtype=np.int64)
        got = packed_tf_values(col, n_col)
        assert got.dtype == np.int32
        assert got.tolist() == [1, 2, 3, 70000, 5, 9]

    def test_sliced_column(self):
        col = _pack(np.array([4, 5, 6, 7], dtype=np.uint16),
                    np.array([0, 1, 2, 3]))
        got = packed_tf_values(col.slice(1, 2), np.array([1, 1]))
        assert got.tolist() == [5, 6]

    def test_corrupt_length_raises(self):
        col = pa.array([b"abc"], type=pa.binary())   # 3 bytes, n=1
        with pytest.raises(ValueError, match="neither"):
            packed_tf_values(col, np.array([1]))


class TestWideTfEndToEnd:
    def test_giant_tf_doc_identical_across_exchanges(self, ray_session,
                                                     tmp_path, monkeypatch):
        # one doc repeats a term > 2^16 times -> its explode batch packs
        # int32 while others pack uint16; the postings and the positions
        # sidecar (both written through the one exchange) must agree on
        # the occurrence count, and the decoded tf must survive exactly
        import ray.data as rd
        from mircv_ray.build import build_index, index_build
        from mircv_ray.config import IndexConfig
        from mircv_ray.query.engine import IndexReader
        from mircv_ray.sources import generate_corpus_table

        base = generate_corpus_table(12, seed=5).drop_columns(["sha256"])
        giant = pa.table({
            "repo": ["r"], "path": ["giant.py"], "commit": ["c"],
            "lang": ["python"],
            "content": ["zzwide " * 70000],
        })
        table = pa.concat_tables(
            [base, giant.cast(base.schema)], promote_options="default")
        monkeypatch.setattr(index_build, "TOKENIZE_BATCH_SIZE", 4)
        monkeypatch.setattr(index_build, "EXPLODE_BATCH_SIZE", 4)
        cfg = IndexConfig(parse=True, num_shards=4, salt_buckets=2)
        out = str(tmp_path / "idx")
        build_index(rd.from_arrow(table), out, cfg)
        r = IndexReader(out)
        # Porter may strip the final 'e' ("zzwide" -> "zzwid")
        term = next(t for t in r._lex if t.startswith("zzwid"))
        ids, tfs = r.decoded(term)
        assert 70000 in tfs.tolist()
        # the positions sidecar shares the width machinery: a >= 2^16
        # in-doc position forces its batch onto the wide path, mixed
        # with the other (narrow) batches in the same partition
        from mircv_ray.build import build_positions_index
        from mircv_ray.build.positions import read_term_positions
        build_positions_index(
            out, rd.from_arrow(table.select(["repo", "path", "content"])),
            cfg)
        got = read_term_positions(out, term, num_shards=4, salt_buckets=2)
        assert got is not None
        ids_p, cnts_p, pos_p = got
        assert ids_p.tolist() == ids.tolist()
        assert cnts_p.tolist() == tfs.tolist()
        j = list(cnts_p).index(70000)
        start = int(np.cumsum(cnts_p)[j]) - 70000
        assert pos_p[start:start + 70000].tolist() == \
            list(range(70000))


from hypothesis import given, settings
from hypothesis import strategies as st


class TestPackedTfValuesProperty:
    # property fuzz: arbitrary run partitions x arbitrary per-batch
    # width choices (incl. values straddling 2^16) round-trip exactly
    @given(st.lists(
        st.tuples(
            st.lists(st.lists(st.integers(min_value=1,
                                          max_value=200_000),
                              min_size=1, max_size=6),
                     min_size=1, max_size=5),
            st.booleans()),          # force-wide flag per batch
        min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_mix(self, batches):
        from mircv_ray.build.index_build import _packed_runs
        cols, all_vals, all_ns = [], [], []
        for runs, force_wide in batches:
            flat = np.array([v for r in runs for v in r],
                            dtype=np.int64)
            starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
            dt = np.int32 if (force_wide or flat.max() >= 1 << 16) \
                else np.uint16
            cols.append(_packed_runs(flat.astype(dt),
                                     np.asarray(starts)))
            all_vals.extend(flat.tolist())
            all_ns.extend(len(r) for r in runs)
        col = pa.concat_arrays(cols)
        got = packed_tf_values(col, np.array(all_ns, dtype=np.int64))
        assert got.tolist() == all_vals
