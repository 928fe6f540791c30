"""Classic Porter stemmer (Porter, 1980) — fresh implementation.

Follows the canonical ANSI-C reference algorithm published by Martin
Porter (tartarus.org/martin/PorterStemmer), including its two documented
departures from the 1980 paper (``bli -> ble`` in step 2, the ``logi ->
log`` rule) and the "words of length <= 2 are left unchanged" behavior.
The reference engine stems with `ca.rmen:porter-stemmer:1.0.0`, a Java
port of that same C reference (used at
search_engine/src/main/java/unipi/aide/mircv/parsing/Parser.java:93-101),
so outputs must match token-for-token.

``stem()`` is pure; the batch tokenizer memoizes it per unique word —
corpus vocabulary repeats heavily, so stemming amortizes to a dict lookup.
"""

from __future__ import annotations


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in "aeiou":
        return False
    if c == "y":
        return True if i == 0 else not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in ``stem``."""
    n = 0
    i = 0
    ln = len(stem)
    # skip initial consonants
    while i < ln and _is_cons(stem, i):
        i += 1
    while i < ln:
        # in vowel run
        while i < ln and not _is_cons(stem, i):
            i += 1
        if i >= ln:
            break
        n += 1
        while i < ln and _is_cons(stem, i):
            i += 1
    return n


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1))


def _cvc(word: str) -> bool:
    """*o: stem ends cvc where the final c is not w, x or y."""
    if len(word) < 3:
        return False
    if (_is_cons(word, len(word) - 1) and not _is_cons(word, len(word) - 2)
            and _is_cons(word, len(word) - 3)):
        return word[-1] not in "wxy"
    return False


def stem(word: str) -> str:
    if len(word) <= 2:
        return word
    b = word

    # ---- step 1a
    if b.endswith("sses"):
        b = b[:-2]
    elif b.endswith("ies"):
        b = b[:-2]
    elif b.endswith("ss"):
        pass
    elif b.endswith("s"):
        b = b[:-1]

    # ---- step 1b
    if b.endswith("eed"):
        if _measure(b[:-3]) > 0:
            b = b[:-1]
    else:
        applied = False
        if b.endswith("ed") and _has_vowel(b[:-2]):
            b = b[:-2]
            applied = True
        elif b.endswith("ing") and _has_vowel(b[:-3]):
            b = b[:-3]
            applied = True
        if applied:
            if b.endswith(("at", "bl", "iz")):
                b += "e"
            elif _ends_double_cons(b) and b[-1] not in "lsz":
                b = b[:-1]
            elif _measure(b) == 1 and _cvc(b):
                b += "e"

    # ---- step 1c
    if b.endswith("y") and _has_vowel(b[:-1]):
        b = b[:-1] + "i"

    # ---- step 2 (m > 0), incl. the C reference's departures bli->ble, logi->log
    _STEP2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
        ("logi", "log"),
    )
    for suf, rep in _STEP2:
        if b.endswith(suf):
            if _measure(b[: -len(suf)]) > 0:
                b = b[: -len(suf)] + rep
            break

    # ---- step 3 (m > 0)
    _STEP3 = (("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
              ("ical", "ic"), ("ful", ""), ("ness", ""))
    for suf, rep in _STEP3:
        if b.endswith(suf):
            if _measure(b[: -len(suf)]) > 0:
                b = b[: -len(suf)] + rep
            break

    # ---- step 4 (m > 1)
    _STEP4 = ("al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
              "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize")
    for suf in _STEP4:
        if b.endswith(suf):
            stem_part = b[: -len(suf)]
            if suf == "ion" and not stem_part.endswith(("s", "t")):
                break
            if _measure(stem_part) > 1:
                b = stem_part
            break

    # ---- step 5a
    if b.endswith("e"):
        m = _measure(b[:-1])
        if m > 1 or (m == 1 and not _cvc(b[:-1])):
            b = b[:-1]

    # ---- step 5b
    if _measure(b) > 1 and _ends_double_cons(b) and b.endswith("l"):
        b = b[:-1]

    return b

