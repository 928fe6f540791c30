"""Tokenizer parity tests (FIXTURES.md F1 coverage rows; Parser.java:34-90)
and Porter stemmer sanity (canonical algorithm cases)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from mircv_ray.text import Tokenizer, tokenize_text, stem
from mircv_ray.text.tokenizer import squeeze_token, java_trim
from mircv_ray.text.stopwords import load_stopwords


class TestTokenizeText:
    def test_html_strip(self):
        assert tokenize_text("<div>foo</div> bar", parse=False) == ["foo", "bar"]

    def test_punctuation(self):
        assert tokenize_text("self.value += x;", parse=False) == ["self", "value", "x"]

    def test_lowercase_and_squeeze_pdf_example(self):
        # PDF §2.1.1: "University-of-PissSa" -> university, of, pissa
        assert tokenize_text("University-of-PissSa", parse=False) == \
            ["university", "of", "pissa"]

    def test_squeeze_digit_exemption(self):
        assert squeeze_token("aaa111bbb") == "aa111bb"
        assert squeeze_token("xx1000yy") == "xx1000yy"
        assert squeeze_token("aaab") == "aab"

    def test_squeeze_short_tokens_unchanged(self):
        assert squeeze_token("aa") == "aa"
        assert tokenize_text("aaa aa", parse=False) == ["aa", "aa"]

    def test_long_token_dropped(self):
        tok = "x" * 70
        assert tokenize_text(f"keep {tok} also", parse=False) == ["keep", "also"]
        # 63 bytes is kept (< 64, Lexicon.java:22); use a run-free token so
        # the squeeze doesn't rewrite it
        t63 = ("ab" * 32)[:63]
        assert tokenize_text(t63, parse=False) == [t63]
        assert tokenize_text("ab" * 32, parse=False) == []

    def test_non_ascii_dropped_not_cleaned(self):
        assert tokenize_text("café naïve über ok", parse=False) == ["ok"]

    def test_single_space_split_with_tab(self):
        # a tab is not punctuation and not a split char; the whitespace-only
        # word survives trim as the reference's empty-token quirk
        assert tokenize_text("foo \t bar", parse=False) == ["foo", "", "bar"]
        assert tokenize_text("a\tb", parse=False) == ["a\tb"]

    def test_basic_mode_drops_empty(self):
        assert tokenize_text("foo \t bar", parse=False, squeeze=False) == ["foo", "bar"]

    def test_stopwords_and_stemming(self):
        # the/of/and are stopwords; return is NOT in the reference list
        toks = tokenize_text("the of and return", parse=True)
        assert toks == ["return"]
        assert tokenize_text("running runs runner", parse=True) == \
            ["run", "run", "runner"]

    def test_stopwords_before_stemming(self):
        # "this" is a stopword; "running" stems AFTER filtering (Parser.java:58-59)
        assert tokenize_text("this running", parse=True) == ["run"]

    def test_stopword_list_size(self):
        # 1298 logical lines (the file has no trailing newline, so `wc -l`
        # reports 1297); Java Files.lines() also yields 1298
        assert len(load_stopwords()) == 1298

    def test_java_trim(self):
        assert java_trim("\t foo\n") == "foo"
        assert java_trim("\x01bar\x1f") == "bar"
        assert java_trim(" \t ") == ""


class TestBatchTokenizer:
    @pytest.mark.parametrize("parse", [False, True])
    def test_matches_scalar_path(self, parse):
        docs = [
            "<div>foo</div> bar",
            "self.value += x;",
            "University-of-PissSa",
            "aaa111bbb xx1000yy aaa aa",
            "x" * 70 + " keep",
            "café naïve über ok",
            "foo \t bar",
            "the of and return running runs runner",
            "",
            "   ",
            "def main(args): return 0 # TODO!!!",
        ]
        tok = Tokenizer(parse=parse)
        batch = pa.table({"content": pa.array(docs)})
        out = tok(batch)
        got = out["tokens"].to_pylist()
        lens = out["doc_len"].to_pylist()
        for text, toks, dl in zip(docs, got, lens):
            expected = tokenize_text(text, parse=parse)
            assert toks == expected, text
            assert dl == len(expected)

    def test_basic_mode_matches_scalar(self):
        docs = ["foo \t bar", "Hello, World!  x", "aaa bbb"]
        tok = Tokenizer(parse=False, squeeze=False)
        out = tok(pa.table({"content": pa.array(docs)}))
        for text, toks in zip(docs, out["tokens"].to_pylist()):
            assert toks == tokenize_text(text, parse=False, squeeze=False)

    def test_memo_cache_reused(self):
        tok = Tokenizer(parse=True)
        tok(pa.table({"content": pa.array(["running jumping"])}))
        assert tok._memo["running"] == "run"
        tok(pa.table({"content": pa.array(["running again"])}))
        assert tok._memo["running"] == "run"


MODES = [(True, True), (True, False), (False, True), (False, False)]


def _batch_tokens(content, parse, squeeze):
    if isinstance(content, list):
        content = pa.array(content, pa.string())
    tokens, doc_len = Tokenizer(parse=parse, squeeze=squeeze).tokenize_column(
        content)
    got = tokens.to_pylist()
    assert doc_len.tolist() == [len(t) for t in got]
    return got


def _scalar_tokens(docs, parse, squeeze):
    return [tokenize_text(d or "", parse=parse, squeeze=squeeze) for d in docs]


class TestBatchKernels:
    """The byte-table / ASCII fast path of ``Tokenizer.tokenize_column``
    against the scalar ``tokenize_text`` in all four parse/squeeze modes."""

    @pytest.mark.parametrize("parse,squeeze", MODES)
    def test_every_ascii_byte(self, parse, squeeze):
        docs = []
        for b in range(0x80):
            c = chr(b)
            docs += [f"a{c}b", c, f"{c}X{c}{c}{c}Yz {c} Run{c}ning"]
        assert _batch_tokens(docs, parse, squeeze) == \
            _scalar_tokens(docs, parse, squeeze)

    @pytest.mark.parametrize("parse,squeeze", MODES)
    def test_code_points_that_lowercase_to_ascii(self, parse, squeeze):
        # U+0130 lowercases to "i" + U+0307 in Python and Java but to a
        # bare "i" in Arrow; the Kelvin sign U+212A gives "k" in all three
        cps = [c for c in range(0x80, 0x110000) if not 0xD800 <= c <= 0xDFFF]
        chars = [chr(c) for c in cps]
        arrow = pc.utf8_lower(pa.array(chars)).to_pylist()
        special = [c for c, low in zip(chars, arrow)
                   if c.lower().isascii() or low.isascii()]
        assert {"\u0130", "\u212a"} <= set(special)
        docs = [f"a{c}b" for c in special] + ["\u0130stanbul city"]
        assert _batch_tokens(docs, parse, squeeze) == \
            _scalar_tokens(docs, parse, squeeze)
        assert _batch_tokens(["\u0130stanbul city"], False, True) == [["city"]]

    @pytest.mark.parametrize("parse,squeeze", MODES)
    def test_sliced_and_chunked_input(self, parse, squeeze):
        docs = ["skip Me", "Hello, World! <b>x</b>", "caf\u00e9 na\u00efve ok",
                "running RUNS", "a\tb  c", "THE End."]
        want = _scalar_tokens(docs[2:5], parse, squeeze)
        sliced = pa.array(docs).slice(2, 3)
        assert sliced.offset == 2
        assert _batch_tokens(sliced, parse, squeeze) == want
        chunked = pa.chunked_array([pa.array(docs[2:3]), pa.array(docs[3:5])])
        assert _batch_tokens(chunked, parse, squeeze) == want

    @pytest.mark.parametrize("parse,squeeze", MODES)
    def test_null_content(self, parse, squeeze):
        docs = [None, "Foo bar", None, "caf\u00e9 Bar", None]
        assert _batch_tokens(docs, parse, squeeze) == \
            _scalar_tokens(docs, parse, squeeze)
        assert _batch_tokens([None, None], parse, squeeze) == [[], []]


def _corpus_block(contents):
    n = len(contents)
    return pa.table({"repo": ["r"] * n,
                     "path": [f"p{i:02d}" for i in range(n)],
                     "content": contents})


class TestFusedTokenize:
    """``tokenize_corpus``'s per-block UDF: blank filter, then one
    ``tokenize_column`` per slice of at most ``TOKENIZE_BATCH_SIZE`` docs."""

    def _run(self, monkeypatch, block, sha256=True):
        from mircv_ray.build import index_build
        from mircv_ray.config import IndexConfig
        seen = []
        real = Tokenizer.tokenize_column

        def spy(self, content):
            seen.append(len(content))
            return real(self, content)

        monkeypatch.setattr(index_build, "TOKENIZE_BATCH_SIZE", 4)
        monkeypatch.setattr(Tokenizer, "tokenize_column", spy)
        udf = index_build._TokenizeBlock(IndexConfig(), sha256)
        out = pa.concat_tables(list(udf(block)))
        return out, seen

    def test_slices_equal_one_call(self, monkeypatch):
        contents = [f"Doc {i}: running <i>dogs</i> and cats, #{i}"
                    for i in range(10)]
        block = _corpus_block(contents)
        want, _ = Tokenizer().tokenize_column(block["content"])
        out, seen = self._run(monkeypatch, block)
        assert seen == [4, 4, 2]
        assert out["tokens"].to_pylist() == want.to_pylist()
        assert out.column_names == ["repo", "path", "doc_len", "sha256",
                                    "tokens"]
        assert out["doc_len"].to_pylist() == [len(t) for t in
                                              want.to_pylist()]

    def test_ascii_and_mixed_slices_in_one_block(self, monkeypatch):
        # slice 1 is all ASCII, slice 2 holds non-ASCII words
        contents = ["Foo BAR", "x.y", "RUNNING", "tab\there",
                    "caf\u00e9 Bar", "\u0130stanbul city", "a\u212ab", "ok"]
        out, seen = self._run(monkeypatch, _corpus_block(contents),
                              sha256=False)
        assert seen == [4, 4]
        assert "sha256" not in out.column_names
        assert out["tokens"].to_pylist() == _scalar_tokens(contents, True,
                                                           True)

    def test_blank_docs_dropped_before_slicing(self, monkeypatch):
        contents = ["a b", "", "   ", None, "c d", "e", "f", "g", "h"]
        out, seen = self._run(monkeypatch, _corpus_block(contents))
        assert seen == [4, 2]
        assert out["path"].to_pylist() == ["p00", "p04", "p05", "p06",
                                           "p07", "p08"]
        out, seen = self._run(monkeypatch, _corpus_block(["", " \t"]))
        assert seen == [0] and out.num_rows == 0
        assert "tokens" in out.column_names

    def test_fused_into_the_read(self, ray_session, tmp_path):
        import pyarrow.parquet as pq
        import ray.data as rd
        from mircv_ray.build.index_build import tokenize_corpus
        from mircv_ray.config import IndexConfig
        contents = ["Running dogs", "hello, world"]
        pq.write_table(_corpus_block(contents), tmp_path / "c.parquet")
        # one block per file: a read that splits its blocks does not fuse
        read = rd.read_parquet(str(tmp_path), override_num_blocks=1)
        ds = tokenize_corpus(read, IndexConfig()).materialize()
        assert "ReadParquet->MapBatches(_TokenizeBlock)" in ds.stats()
        assert [list(r["tokens"]) for r in ds.take_all()] == \
            _scalar_tokens(contents, True, True)


class TestPorter:
    # canonical algorithm behavior (tartarus reference implementation cases)
    @pytest.mark.parametrize("word,expected", [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
        ("caress", "caress"), ("cats", "cat"),
        ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
        ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
        ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
        ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
        ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"), ("sky", "sky"),
        ("relational", "relat"), ("conditional", "condit"),
        ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
        ("digitizer", "digit"), ("conformabli", "conform"),
        ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
        ("analogousli", "analog"), ("vietnamization", "vietnam"),
        ("predication", "predic"), ("operator", "oper"),
        ("feudalism", "feudal"), ("decisiveness", "decis"),
        ("hopefulness", "hope"), ("callousness", "callous"),
        ("formaliti", "formal"), ("sensitiviti", "sensit"),
        ("sensibiliti", "sensibl"),
        ("triplicate", "triplic"), ("formative", "form"),
        ("formalize", "formal"), ("electriciti", "electr"),
        ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
        ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
        ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"), ("defensible", "defens"),
        ("irritant", "irrit"), ("replacement", "replac"),
        ("adjustment", "adjust"), ("dependent", "depend"),
        ("adoption", "adopt"), ("homologou", "homolog"),
        ("communism", "commun"), ("activate", "activ"),
        ("angulariti", "angular"), ("homologous", "homolog"),
        ("effective", "effect"), ("bowdlerize", "bowdler"),
        ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"),
        # departures in the C reference implementation
        ("archaeologi", "archaeolog"),
        # <= 2 chars unchanged
        ("is", "is"), ("a", "a"),
    ])
    def test_known(self, word, expected):
        assert stem(word) == expected
