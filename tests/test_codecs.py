"""Golden byte vectors ported from the reference JUnit suite (FIXTURES.md F4):
BitsTest.java, UnaryCompressorTest.java, EliasFanoTest.java,
CompressedPostingListTest.java. These pin the exact on-wire formats."""

import math

import numpy as np
import pytest

from mircv_ray.codecs import (
    EliasFanoCache,
    decode_block_ids,
    decode_block_tfs,
    ef_compress,
    ef_compressed_size,
    ef_decompress,
    ef_get,
    ef_get_l,
    encode_blocks,
    split_blocks,
    unary_byte_size,
    unary_decode,
    unary_encode,
    unary_get,
    vbyte_decode,
    vbyte_decode_gaps,
    vbyte_encode,
    vbyte_encode_gaps,
)
from mircv_ray.codecs.eliasfano import round_up


def jbytes(*vals):
    """Java signed bytes -> python bytes."""
    return bytes(v & 0xFF for v in vals)


class TestUnary:
    def test_write_unary_golden(self):
        # BitsTest.writeUnary: {3,10,1,2} -> {-17,-3,96}
        assert unary_encode([3, 10, 1, 2]) == jbytes(-17, -3, 96)

    def test_read_unary_golden(self):
        assert list(unary_decode(jbytes(-17, -3, 96), 4)) == [3, 10, 1, 2]

    def test_read_unary_limit_case(self):
        # BitsTest.readUnaryLimitCase: {-1,-1,15,-32} -> {16,0,0,0,7}
        assert list(unary_decode(jbytes(-1, -1, 15, -32), 5)) == [16, 0, 0, 0, 7]

    @pytest.mark.parametrize("n", [25, 100, 1000])
    def test_byte_size_formula(self, n):
        # UnaryCompressorTest.getByteSizeInUnary: f=1..n
        freqs = list(range(1, n + 1))
        nbits = n * (n + 1) // 2 + n
        assert unary_byte_size(np.array(freqs)) == math.ceil(nbits / 8)

    def test_compress_decompress(self):
        assert unary_encode([3, 10, 1, 2]) == jbytes(-17, -3, 96)
        assert list(unary_decode(jbytes(-17, -3, 96), 4)) == [3, 10, 1, 2]

    def test_cursor_get(self):
        # UnaryCompressorTest.get
        buf = unary_encode([3, 10, 1, 2])
        val, off = unary_get(buf, 1, -1, 0)
        assert val == 10
        val, off = unary_get(buf, 3, 1, off)
        assert val == 2

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        vals = rng.integers(1, 50, size=500)
        assert np.array_equal(unary_decode(unary_encode(vals), 500), vals)

    def test_decode_blocks_equals_per_block(self):
        """The vectorized many-block decode equals per-block
        ``unary_decode`` on random blocks, zero-count blocks (a one-byte
        buffer of padding) and padded tails of every length among them."""
        from mircv_ray.codecs.unary import unary_decode_blocks
        rng = np.random.default_rng(7)
        for _ in range(200):
            blocks = [rng.integers(0, int(rng.choice([2, 9, 300])),
                                   size=int(rng.choice([0, 0, 1, 3, 7, 40])))
                      for _ in range(int(rng.integers(1, 25)))]
            bufs = [unary_encode(b) for b in blocks]
            counts = [len(b) for b in blocks]
            want = np.concatenate([unary_decode(buf, c)
                                   for buf, c in zip(bufs, counts)])
            got = unary_decode_blocks(bufs, counts)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()


class TestEliasFano:
    @pytest.mark.parametrize("u,n,expected", [
        (32, 7, 3), (32, 8, 2), (127, 8, 4), (5, 1, 3), (1200, 1200, 0)])
    def test_get_l(self, u, n, expected):
        assert ef_get_l(u, n) == expected

    def test_compress_golden(self):
        vals = [16, 18, 24, 25, 26, 30, 32]
        out = bytearray(5)
        ef_compress(vals, out, 3, round_up(3 * 7))
        assert bytes(out) == jbytes(0b00001000, 0b00010101, -128, 0b00110111, -96)

    def test_compress_low_bits_gt_1_byte(self):
        vals = [1024, 1025, 10000, 10001]
        l = ef_get_l(10001, 4)
        out = bytearray(ef_compressed_size(10001, 4))
        ef_compress(vals, out, l, round_up(l * 4))
        assert bytes(out) == jbytes(64, 4, 1, 113, 7, 17, -52)

    def test_compress_high_bits_gt_1_byte(self):
        vals = list(range(1, 11)) + [512]
        l = ef_get_l(512, 11)
        out = bytearray(ef_compressed_size(512, 11))
        ef_compress(vals, out, l, round_up(l * 11))
        assert bytes(out) == jbytes(4, 32, -60, 20, 97, -56, 36, -96, 0, -1, -64, 32)

    @pytest.mark.parametrize("buf,u,n,expected", [
        (jbytes(4, 32, -60, 20, 97, -56, 36, -96, 0, -1, -64, 32), 512, 11,
         list(range(1, 11)) + [512]),
        (jbytes(64, 4, 1, 113, 7, 17, -52), 10001, 4, [1024, 1025, 10000, 10001]),
        (jbytes(8, 21, -128, 55, -96), 32, 7, [16, 18, 24, 25, 26, 30, 32]),
    ])
    def test_decompress_golden(self, buf, u, n, expected):
        assert list(ef_decompress(buf, n, u)) == expected

    def test_compressed_size(self):
        assert ef_compressed_size(12, 4) == 2

    def test_get(self):
        buf = jbytes(8, 21, -128, 55, -96)
        assert ef_get(buf, 32, 7, 0, EliasFanoCache()) == 16
        assert ef_get(buf, 32, 7, 2, EliasFanoCache()) == 24
        assert ef_get(buf, 32, 7, 8, EliasFanoCache()) == 2 ** 31 - 1
        buf2 = jbytes(4, 32, -60, 20, 97, -56, 36, -96, 0, -1, -64, 32)
        assert ef_get(buf2, 512, 11, 10, EliasFanoCache()) == 512

    def test_get_with_warm_cache(self):
        buf = jbytes(8, 21, -128, 55, -96)
        cache = EliasFanoCache()
        expected = [16, 18, 24, 25, 26, 30, 32]
        for i, e in enumerate(expected):
            assert ef_get(buf, 32, 7, i, cache) == e

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 10, 1000):
            vals = np.unique(rng.integers(1, 10 ** 6, size=n))
            m = int(vals[-1])
            l = ef_get_l(m, len(vals))
            from mircv_ray.codecs.blocks import ids_high_bits
            size = (round_up(l * len(vals)) + round_up(ids_high_bits(vals, l))) // 8
            out = bytearray(size)
            ef_compress(vals, out, l, round_up(l * len(vals)))
            assert np.array_equal(ef_decompress(bytes(out), len(vals), m), vals)


class TestVByte:
    def test_small_values(self):
        assert vbyte_encode(np.array([0])) == b"\x00"
        assert vbyte_encode(np.array([127])) == b"\x7f"
        assert vbyte_encode(np.array([128])) == b"\x80\x01"
        assert vbyte_encode(np.array([300])) == b"\xac\x02"  # protobuf example

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        vals = np.concatenate([
            rng.integers(0, 2 ** 7, 100), rng.integers(0, 2 ** 14, 100),
            rng.integers(0, 2 ** 28, 100), rng.integers(0, 2 ** 62, 100)])
        assert np.array_equal(vbyte_decode(vbyte_encode(vals)), vals)

    def test_gaps_roundtrip(self):
        ids = np.array([5, 6, 100, 1000, 10 ** 9])
        buf = vbyte_encode_gaps(ids, base=0)
        assert np.array_equal(vbyte_decode_gaps(buf, 5, base=0), ids)
        buf2 = vbyte_encode_gaps(ids, base=4)
        assert np.array_equal(vbyte_decode_gaps(buf2, 5, base=4), ids)

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            vbyte_encode_gaps(np.array([5, 5]))


class TestBlocks:
    def test_single_block_small_df(self):
        # df*4 <= 2048 -> one block (UncompressedPostingList.java:253-256)
        assert split_blocks(512, 10 ** 6, "vbyte") == [(0, 512)]
        assert len(split_blocks(513, 10 ** 6, "vbyte")) > 1

    def test_sqrt_split(self):
        df = 10000
        ranges = split_blocks(df, 10 ** 7, "vbyte")
        bs = int(math.isqrt(df))
        assert ranges[0] == (0, bs)
        assert ranges[-1][1] == df
        assert all(e - s == bs for s, e in ranges[:-1])

    def test_ef_threshold_uses_compressed_size(self):
        df = 600  # df*4 > 2048 but EF size may be under threshold
        assert ef_compressed_size(10000, df) <= 2048
        assert split_blocks(df, 10000, "ef") == [(0, df)]

    @pytest.mark.parametrize("codec", ["vbyte", "ef", "none"])
    @pytest.mark.parametrize("size", [10, 100, 1000, 10000])
    def test_roundtrip_and_next_geq(self, codec, size):
        # CompressedPostingListTest.java:16-62 semantics
        rng = np.random.default_rng(size)
        ids = np.unique(rng.integers(1, size * 20, size=size)).astype(np.int64)
        tfs = rng.integers(1, 8, size=len(ids)).astype(np.int64)
        enc = encode_blocks(ids, tfs, codec)
        # decode all blocks and compare
        out_ids, out_tfs = [], []
        prev = 0
        for mx, n, idb, tfb in zip(enc["max_doc_id"], enc["n"], enc["ids"], enc["tfs"]):
            dec = decode_block_ids(idb, codec, n, mx, prev)
            out_ids.append(dec)
            out_tfs.append(decode_block_tfs(tfb, codec, n))
            assert dec[-1] == mx
            prev = mx
        assert np.array_equal(np.concatenate(out_ids), ids)
        assert np.array_equal(np.concatenate(out_tfs), tfs)


class TestBatchSingleBlockEncode:
    def test_byte_identical_to_per_term(self):
        """encode_single_block_terms must produce byte-identical buffers
        to encode_blocks called per term (vbyte single-block terms)."""
        import numpy as np
        from mircv_ray.codecs.blocks import encode_blocks, encode_single_block_terms
        rng = np.random.default_rng(17)
        ids_parts, tfs_parts, bounds = [], [], [0]
        for _ in range(300):
            df = int(rng.integers(1, 60))
            ids = np.sort(rng.choice(np.arange(1, 100000), size=df,
                                     replace=False)).astype(np.int64)
            tfs = rng.integers(1, 30, size=df).astype(np.int64)
            ids_parts.append(ids)
            tfs_parts.append(tfs)
            bounds.append(bounds[-1] + df)
        flat_ids = np.concatenate(ids_parts)
        flat_tfs = np.concatenate(tfs_parts)
        got_i, got_t = encode_single_block_terms(
            flat_ids, flat_tfs, np.array(bounds))
        for k, (ids, tfs) in enumerate(zip(ids_parts, tfs_parts)):
            enc = encode_blocks(ids, tfs, "vbyte")
            assert len(enc["ids"]) == 1
            assert got_i[k] == enc["ids"][0], f"ids mismatch term {k}"
            assert got_t[k] == enc["tfs"][0], f"tfs mismatch term {k}"
