"""Reference-parity tokenizer.

Reproduces `Parser.getTokens`
(search_engine/src/main/java/unipi/aide/mircv/parsing/Parser.java:34-90)
step for step:

  M2  HTML strip          ``<[^>]+>`` -> space
  M3  punctuation strip   Java ``\\p{Punct}`` (the 32 ASCII punct chars) -> space
  M4  lowercase, then split on a SINGLE space; empty words dropped
  M5  keep word only if UTF-8 byte length < 64 (Lexicon.TERM_DIMENSION)
  M6  drop word if it contains any non-ASCII char (dropped, not cleaned)
  --  Java ``String.trim()`` (strips chars <= U+0020 from both ends)
  M7  collapse runs of >2 identical non-digit chars to exactly 2
      (digits exempt; words of length <= 2 unchanged)
  M8  stopword removal (parse=True only; vendored reference list)
  M9  Porter stemming (parse=True only)

Reference quirk kept in reference mode: a whitespace-only word survives as
the empty token "" (non-empty pre-trim, length <= 2 post-trim so returned
unchanged by the squeeze, Parser.java:48,53,64-65). The SQL-checkable
"basic" mode (squeeze=False) instead drops empty-after-trim tokens so the
semantics are expressible in DuckDB's RE2 (no backreferences -> no squeeze).

The batch path (`Tokenizer`) is vectorized over Arrow buffers. After the
HTML regex, one pass maps every byte of the UTF-8 data buffer through a
256-entry table that turns the 32 punctuation bytes into spaces and folds
A-Z to a-z (M3 + the ASCII part of M4). That is exact for UTF-8: every byte
of a multi-byte sequence is >= 0x80, so the table never touches one. A
batch whose text is all ASCII is then done with case and needs no word-level
ASCII filter (M6 cannot drop a word). Only a batch holding a non-ASCII byte
also runs the full Unicode lowercase and keeps the words that are ASCII
after it, as ``str.lower`` does: U+0130 lowercases to "i" + U+0307 there
(and in Java), so it is spelled out before Arrow's one-to-one lowercase,
which would give a bare ASCII "i". Split/byte-length filters are Arrow
kernels; the residual per-token work (trim/squeeze/stopword/stem) runs
once per UNIQUE token via dictionary encoding with a per-instance memo —
vocabulary repeats heavily, so the hot path is Arrow take/filter, not a
Python loop over rows.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .porter import stem
from .stopwords import load_stopwords

_HTML_RE = "<[^>]+>"
# Java \p{Punct}: !"#$%&'()*+,-./:;<=>?@[\]^_`{|}~
_PUNCT_RE = r"[!-/:-@\[-`{-~]"
_NON_ASCII_RE = r"[^\x00-\x7F]"

_html = re.compile(_HTML_RE)
_punct = re.compile(_PUNCT_RE)
_non_ascii = re.compile(_NON_ASCII_RE)
_squeeze_re = re.compile(r"([^0-9])\1{2,}")



def _byte_table() -> pa.Array:
    """M3 + ASCII lowercase as one byte map: punctuation -> space, A-Z -> a-z."""
    t = np.arange(256, dtype=np.uint8)
    t[[b for b in range(0x80) if _punct.match(chr(b))]] = ord(" ")
    t[ord("A"):ord("Z") + 1] += ord("a") - ord("A")
    return pa.array(t)


_BYTE_TABLE = _byte_table()

_JAVA_WS = "".join(chr(c) for c in range(0x21))  # String.trim(): chars <= U+0020


def _fold_bytes(txt: pa.Array) -> tuple[pa.Array, bool]:
    """Map ``txt``'s data buffer through ``_BYTE_TABLE``; also tell whether
    its strings are all ASCII. Offsets and validity are shared, not copied."""
    validity, offsets, data = txt.buffers()
    if data is None or data.size == 0:
        return txt, True
    raw = pa.Array.from_buffers(pa.uint8(), data.size, [None, data])
    folded = pc.take(_BYTE_TABLE, raw).buffers()[1]
    out = pa.Array.from_buffers(txt.type, len(txt), [validity, offsets, folded],
                                txt.null_count, txt.offset)
    return out, pc.max(raw).as_py() < 0x80


def java_trim(s: str) -> str:
    return s.strip(_JAVA_WS)


def squeeze_token(token: str) -> str:
    """Parser.removeConsecutiveCharacter (Parser.java:63-90)."""
    if len(token) <= 2:
        return token
    return _squeeze_re.sub(r"\1\1", token)


def tokenize_text(text: str, parse: bool, squeeze: bool = True,
                  term_dimension: int = 64) -> list[str]:
    """Single-string tokenizer (query path + oracle). Reference semantics."""
    text = _html.sub(" ", text)
    text = _punct.sub(" ", text)
    tokens: list[str] = []
    stopwords = load_stopwords() if parse else None
    for word in text.lower().split(" "):
        if not word or len(word.encode("utf-8")) >= term_dimension:
            continue
        if _non_ascii.search(word):
            continue
        word = java_trim(word)
        if squeeze:
            word = squeeze_token(word)
        elif not word:
            continue  # basic mode drops the empty-token quirk
        tokens.append(word)
    if parse:
        tokens = [stem(t) for t in tokens if t not in stopwords]
    return tokens


class Tokenizer:
    """Batch tokenizer for ``map_batches`` (Arrow in / Arrow out).

    Adds ``tokens: list<string>`` and ``doc_len: int64`` columns computed
    from ``content``. Stateful setup (stopword set, memo cache) happens
    once per instance in ``__init__``; a map task gets its own copy.
    """

    def __init__(self, parse: bool = True, squeeze: bool = True,
                 term_dimension: int = 64, content_col: str = "content"):
        self.parse = parse
        self.squeeze = squeeze
        self.term_dimension = term_dimension
        self.content_col = content_col
        self.stopwords = load_stopwords() if parse else frozenset()
        self._memo: dict[str, str | None] = {}

    def _finalize_token(self, word: str) -> str | None:
        """trim + squeeze + stopword + stem for one unique raw word.

        Returns None when the token is dropped (stopword / basic-mode empty).
        """
        word = java_trim(word)
        if self.squeeze:
            word = squeeze_token(word)
        elif not word:
            return None
        if self.parse:
            if word in self.stopwords:
                return None
            word = stem(word)
        return word

    def tokenize_column(self, content: pa.Array | pa.ChunkedArray
                        ) -> tuple[pa.LargeListArray, np.ndarray]:
        """Vectorized M2..M9 over a string column.

        Returns (tokens list array, doc_len int64 numpy array).
        """
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        n = len(content)
        txt = pc.replace_substring_regex(content, pattern=_HTML_RE, replacement=" ")
        txt, ascii_only = _fold_bytes(txt)
        if not ascii_only:
            # U+0130: str.lower (and Java) give "i" + U+0307, Arrow a bare "i"
            txt = pc.utf8_lower(pc.replace_substring(txt, "\u0130", "i\u0307"))
        lists = pc.split_pattern(txt, pattern=" ")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists)
        # vectorized filters: non-empty, <64 UTF-8 bytes, pure ASCII (a word
        # of an all-ASCII batch always is)
        length = pc.binary_length(flat)
        keep = pc.and_(pc.greater(length, 0),
                       pc.less(length, self.term_dimension))
        if not ascii_only:
            keep = pc.and_(keep, pc.string_is_ascii(flat))
        flat = flat.filter(keep)
        parent = parent.filter(keep)
        # residual per-token work once per unique token (dictionary encode)
        dict_arr = pc.dictionary_encode(flat)
        vocab = dict_arr.dictionary.to_pylist()
        memo = self._memo
        fin = self._finalize_token
        mapping = [memo[w] if w in memo else memo.setdefault(w, fin(w)) for w in vocab]
        final = pa.array(mapping, type=pa.string())
        codes = dict_arr.indices
        if final.null_count:
            # drop the tokens of dropped words on the narrow codes, then
            # take the strings of the survivors only
            kept = final.is_valid().take(codes)
            codes = codes.filter(kept)
            parent = parent.filter(kept)
        doc_len = np.bincount(parent.to_numpy(), minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(doc_len, out=offsets[1:])
        tokens = pa.LargeListArray.from_arrays(offsets, final.take(codes))
        return tokens, doc_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens, doc_len = self.tokenize_column(batch[self.content_col])
        return batch.append_column("tokens", tokens).append_column(
            "doc_len", pa.array(doc_len, type=pa.int64()))
