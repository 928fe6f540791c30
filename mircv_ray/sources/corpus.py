"""Corpus input adapters.

The engine's input table is the BASELINE.json `input_hint` shape:
``(repo: string, path: string, commit: string, lang: string,
content: string)`` — one row per source file.

Two ways to obtain it here:

1. `documents_as_corpus(sf_dir)` — adapt the driver-generated
   ``documents.parquet`` (doc_id, text, lang, source, n_chars) into the
   corpus shape. Deterministic: repo/path derive from source/doc_id, so
   the (repo, path) sort order equals doc_id order. This is the corpus
   used by the driver-facing `queries()` entries (DuckDB can mirror the
   same mapping in SQL).

2. `generate_corpus_table(n)` — the FIXTURES.md F1 deterministic
   synthetic source-code corpus (seeded, no external data), used for
   larger-scale tests and the benchmark where documents.parquet is too
   small (5000 rows at sf0.1).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]

_LANGS = ["py", "java", "js", "go", "rs", "md"]


def _commit_hex(key: str) -> str:
    return hashlib.sha1(f"commit{key}".encode()).hexdigest()


def documents_as_corpus_table(sf_dir: str) -> pa.Table:
    """documents.parquet -> corpus table (pyarrow, driver-side).

    Single repo + zero-padded doc_id paths so the engine's (repo, path)
    docId order equals doc_id order -> docno == str(original doc_id).
    """
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    doc_id = t["doc_id"].to_numpy()
    path = pa.array([f"doc_{d:08d}.txt" for d in doc_id])
    commit = pa.array([_commit_hex(str(d)) for d in doc_id])
    return pa.table({
        "repo": pa.array(["corpus"] * len(t)),
        "path": path,
        "commit": commit,
        "lang": t["lang"].combine_chunks().cast(pa.string()),
        "content": t["text"].combine_chunks().cast(pa.string()),
    })


def documents_as_corpus(sf_dir: str, parallelism: int | None = None):
    """documents.parquet -> ray.data.Dataset in corpus shape (streaming)."""
    import ray.data as rd

    def to_corpus(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy()
        # docno == str(original doc_id) downstream RELIES on: ids in
        # [0, 10^8) (8-digit zero-pad keeps path order == id order) and no
        # blank/NULL text (a blank-filtered doc would shift every later
        # docno relative to the SQL oracle). Fail loudly, never shift.
        if len(doc_id) and (doc_id.min() < 0 or doc_id.max() >= 10 ** 8):
            raise ValueError("documents.parquet doc_id outside [0, 1e8); "
                             "docno derivation requires 8-digit ids")
        t = batch["text"]
        blank = pc.or_(t.is_null(), pc.equal(
            pc.utf8_trim_whitespace(pc.fill_null(t, "x")), ""))
        if pc.any(blank).as_py():
            bad = batch["doc_id"].filter(blank)[0].as_py()
            raise ValueError(
                f"documents.parquet has blank/NULL text (doc_id={bad}); "
                "blank docs never get a docId, which would silently shift "
                "every later docno — clean the table first")
        return pa.table({
            "repo": pa.array(["corpus"] * len(batch)),
            "path": pa.array([f"doc_{d:08d}.txt" for d in doc_id]),
            "commit": pa.array([_commit_hex(str(d)) for d in doc_id]),
            "lang": batch["lang"].combine_chunks().cast(pa.string()),
            "content": batch["text"].combine_chunks().cast(pa.string()),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    return ds.map_batches(to_corpus, batch_format="pyarrow")


def _pid_to_path(pid: pa.Array) -> pa.Array:
    """pid -> path: numeric pids zero-pad to 12 so lexicographic
    (repo, path) docId order equals numeric pid order; decided PER
    VALUE (a mixed collection can't get batch-dependent paths);
    numeric pids wider than the pad escape the order, so they raise."""
    is_num = pc.match_substring_regex(pid, r"^\d{1,12}$")
    over = pc.match_substring_regex(pid, r"^\d{13,}$")
    if len(pid) and pc.any(over).as_py():
        bad = pid.filter(over)[0].as_py()
        raise ValueError(
            f"numeric pid {bad!r} exceeds the 12-digit pad width — "
            "it would sort out of numeric order")
    return pc.if_else(is_num, pc.utf8_lpad(pid, 12, "0"), pid)


def jsonl_as_corpus(path, id_field: str = "id", text_field: str = "text",
                    lang_field: str | None = None,
                    repo: str = "collection", lang: str = "txt"):
    """JSON-Lines corpus (the de-facto LLM-training-data interchange
    format: one JSON object per line) -> corpus-shaped Dataset.

    ``path`` is a file, directory, or list accepted by
    ``ray.data.read_json`` (which streams .jsonl/.jsonl.gz in parallel
    via the Arrow JSON reader — no driver-side parse). ``id_field`` /
    ``text_field`` name the document key and content; ``lang_field``
    optionally maps a per-record language tag, else ``lang`` applies
    to every row. Ids follow the same per-value zero-pad rule as the
    TSV reader so numeric-id corpora keep numeric docId order; blank
    or missing text rows are dropped (the build's blank filter would
    drop them anyway). Identical content through the TSV and JSONL
    readers builds byte-identical indexes (pytest-pinned)."""
    import ray.data as rd

    def parse(batch: pa.Table) -> pa.Table:
        if id_field not in batch.column_names:
            raise ValueError(f"jsonl records lack id field {id_field!r}")
        if text_field not in batch.column_names:
            raise ValueError(
                f"jsonl records lack text field {text_field!r}")
        pid = batch[id_field]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        pid = pid.cast(pa.string())
        txt = batch[text_field]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt.cast(pa.string()), "")
        if lang_field is not None:
            lg = batch[lang_field]
            if isinstance(lg, pa.ChunkedArray):
                lg = lg.combine_chunks()
            lg = pc.fill_null(lg.cast(pa.string()), lang)
        else:
            lg = pa.array([lang] * len(pid), type=pa.string())
        keep = pc.greater(pc.binary_length(pc.utf8_trim_whitespace(txt)),
                          0)
        pid, txt, lg = pid.filter(keep), txt.filter(keep), lg.filter(keep)
        return pa.table({
            "repo": pa.array([repo] * len(pid)),
            "path": _pid_to_path(pid),
            "commit": pa.array([""] * len(pid)),
            "lang": lg,
            "content": txt,
        })

    return rd.read_json(path).map_batches(parse, batch_format="pyarrow")


# ------------------------------------------------------------------ WARC

def warc_record_bytes(headers: dict, payload: bytes) -> bytes:
    """Serialize one WARC/1.0 record (header block + payload + the
    mandatory two trailing CRLFs, ISO 28500 §4). ``Content-Length`` is
    computed; other headers pass through in dict order. Used by tests
    and demos to build deterministic fixtures — the engine itself only
    READS WARC."""
    lines = ["WARC/1.0"]
    for k, v in headers.items():
        if k.lower() == "content-length":
            continue
        lines.append(f"{k}: {v}")
    lines.append(f"Content-Length: {len(payload)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")
    return head + payload + b"\r\n\r\n"


def _warc_iter_records(data: bytes):
    """Yield (headers: dict[lower->str], payload: bytes) from one WARC
    stream. Sequential by necessity (record length lives in each
    record's own Content-Length header), but the loop runs once per
    RECORD (content-sized work units, like the multimodal codecs), and
    the payload is a zero-copy memoryview slice."""
    view = memoryview(data)
    pos, n = 0, len(data)
    while pos < n:
        while data.startswith(b"\r\n", pos):
            pos += 2
        if pos >= n:
            break
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            raise ValueError(f"truncated WARC header at byte {pos}")
        head = data[pos:hdr_end].decode("utf-8", "replace")
        lines = head.split("\r\n")
        if not lines[0].startswith("WARC/"):
            raise ValueError(
                f"not a WARC record at byte {pos}: {lines[0][:40]!r}")
        headers: dict[str, str] = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(":")
            headers[k.strip().lower()] = v.strip()
        try:
            clen = int(headers["content-length"])
        except (KeyError, ValueError):
            raise ValueError(f"WARC record at byte {pos} lacks a valid "
                             "Content-Length") from None
        body_start = hdr_end + 4
        if body_start + clen > n:
            raise ValueError(f"WARC record at byte {pos} overruns the "
                             f"stream (Content-Length {clen})")
        yield headers, view[body_start:body_start + clen]
        pos = body_start + clen


def _http_body(payload: bytes) -> bytes:
    """Strip the HTTP response envelope from an application/http
    payload (status line + headers end at the first blank line)."""
    cut = payload.find(b"\r\n\r\n")
    return payload[cut + 4:] if cut >= 0 else payload


def warc_as_corpus(path, repo: str = "warc", lang: str = "html",
                   record_types: tuple = ("response", "resource",
                                          "conversion"),
                   parallelism: int | None = None):
    """WARC (ISO 28500, the Common-Crawl / web-archive interchange
    format) -> corpus-shaped Dataset.

    ``path`` is a ``.warc`` / ``.warc.gz`` file, directory, or list for
    ``ray.data.read_binary_files``. Parallelism is per FILE — the right
    axis at web scale, where a crawl is millions of ~1 GB segment files
    (per-record gzip members make mid-file splits impossible without an
    offset index; CDX-style indexes can be layered on later). Each map
    task holds one decompressed segment, so per-task memory is bounded
    by segment size — size ``override_num_blocks``/file count, not
    ``batch_size``, to tune this stage.

    Per record: ``response`` payloads drop their HTTP envelope;
    ``resource``/``conversion`` payloads are taken whole; all other
    types (warcinfo, request, metadata, revisit) are skipped. The
    document id is ``WARC-Target-URI`` (falling back to
    ``WARC-Record-ID``) and follows the same per-value zero-pad rule as
    the TSV/JSONL readers, so numeric-URI corpora keep numeric docId
    order and identical content builds a byte-identical index
    (pytest-pinned). Bodies decode as UTF-8 with replacement; blank
    ones are dropped.
    """
    import gzip

    import ray.data as rd

    types = {t.lower() for t in record_types}

    def parse(batch: pa.Table) -> pa.Table:
        pids, txts = [], []
        for blob in batch["bytes"]:
            data = blob.as_py()
            if data[:2] == b"\x1f\x8b":
                # per-record gzip members; gzip joins concatenated
                # members transparently
                data = gzip.decompress(data)
            for hdrs, payload in _warc_iter_records(data):
                if hdrs.get("warc-type", "").lower() not in types:
                    continue
                if hdrs.get("content-type", "").startswith(
                        "application/http"):
                    payload = _http_body(bytes(payload))
                txt = bytes(payload).decode("utf-8", "replace")
                pids.append(hdrs.get("warc-target-uri")
                            or hdrs.get("warc-record-id", ""))
                txts.append(txt)
        pid = pa.array(pids, type=pa.string())
        txt = pa.array(txts, type=pa.string())
        keep = pc.greater(pc.binary_length(pc.utf8_trim_whitespace(txt)),
                          0)
        pid, txt = pid.filter(keep), txt.filter(keep)
        return pa.table({
            "repo": pa.array([repo] * len(pid)),
            "path": _pid_to_path(pid),
            "commit": pa.array([""] * len(pid)),
            "lang": pa.array([lang] * len(pid)),
            "content": txt,
        })

    ds = rd.read_binary_files(path)
    if parallelism:
        ds = ds.repartition(parallelism)
    return ds.map_batches(parse, batch_format="pyarrow")


def _extracted_tsvs(archive: Path) -> list[str]:
    """The ``.tsv`` members of a tar collection, extracted into ONE
    temp directory per archive — keyed by its resolved path, size and
    mtime — that later calls reuse. The directory outlives the call (the
    corpus Dataset reads the files lazily). Extraction goes to a private
    directory renamed into place, so a reader never sees a partial one."""
    import os
    import shutil
    import tarfile
    import tempfile
    st = archive.stat()
    key = hashlib.sha1(f"{archive.resolve()}|{st.st_size}|{st.st_mtime_ns}"
                       .encode()).hexdigest()[:16]
    d = Path(tempfile.gettempdir()) / f"mircv_collection_{key}"
    if not d.exists():
        tmp = Path(tempfile.mkdtemp(prefix=f".{d.name}.", dir=d.parent))
        try:
            with tarfile.open(archive) as tf:
                members = [m for m in tf.getmembers()
                           if m.isfile() and m.name.endswith(".tsv")]
                if not members:
                    raise ValueError(f"no .tsv member inside {archive}")
                for m in members:
                    m.name = Path(m.name).name  # flatten, no path traversal
                    tf.extract(m, tmp)
            os.rename(tmp, d)
        except OSError:
            if not d.exists():
                raise
            # a concurrent call published the directory first
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return sorted(str(f) for f in d.glob("*.tsv"))


def collection_tsv_as_corpus(path: str, repo: str = "collection",
                             lang: str = "txt"):
    """The reference's own collection format -> corpus-shaped Dataset.

    Accepts MS MARCO-style ``collection.tsv`` (``pid \\t text`` lines,
    IndexingMain.java:36-43) or a ``.tar.gz``/``.tgz`` archive containing
    it (InvertedIndex.java:35-47 streams TarArchiveInputStream; gzip is
    inherently sequential, so the archive is expanded once to a temp dir
    — see :func:`_extracted_tsvs` — and the extracted TSV is then read in
    parallel; at real scale store the collection as parquet/plain files
    instead).

    Numeric pids are zero-padded into ``path`` so the engine's
    (repo, path) docId order equals pid order (docno == pid exactly when
    pids are 0-based contiguous, like MS MARCO's). Padding is decided
    PER VALUE (a pid is padded iff it itself is numeric), never per
    batch — the pid -> path mapping is a pure function, so read_text
    batching can't produce inconsistent paths in mixed collections.
    Non-numeric pids sort lexicographically — docnos then follow that
    order, not arrival order. Numeric pids wider than 12 digits would
    escape the pad width and sort out of numeric order, so they raise.
    Blank-text lines are dropped here (the build's blank filter would
    drop them anyway, InvertedIndex.java:45-47).
    """
    import ray.data as rd
    p = Path(path)
    if p.name.endswith((".tar.gz", ".tgz", ".tar")):
        paths = _extracted_tsvs(p)
    else:
        paths = [str(p)]

    def parse(batch: pa.Table) -> pa.Table:
        lines = batch["text"]
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        lines = lines.filter(pc.match_substring(lines, "\t"))
        parts = pc.split_pattern(lines, "\t", max_splits=1)
        pid = pc.list_element(parts, 0)
        txt = pc.list_element(parts, 1)
        keep = pc.greater(pc.binary_length(pc.utf8_trim_whitespace(txt)), 0)
        pid, txt = pid.filter(keep), txt.filter(keep)
        pid_path = _pid_to_path(pid)
        return pa.table({
            "repo": pa.array([repo] * len(pid)),
            "path": pid_path,
            "commit": pa.array([""] * len(pid)),
            "lang": pa.array([lang] * len(pid)),
            "content": txt,
        })

    return rd.read_text(paths).map_batches(parse, batch_format="pyarrow")


# --------------------------------------------------------------------- F1 gen

_KEYWORDS = (
    "def return if else for while import from class self None True False "
    "public static void int long double string new try catch finally throw "
    "func var let const fn pub mut impl struct enum match trait use mod "
    "print println log error warn info debug assert test main init run "
    "read write open close flush buffer stream file path dir list map set "
    "dict array vector queue stack heap tree graph node edge hash sort "
    "merge split join filter reduce fold scan count sum min max avg len "
    "batch block shard partition shuffle spill index lexicon posting term "
    "query score rank docid freq token parse stem stop word text doc"
).split()

_IDENTS = [f"var{i}" for i in range(40)] + [f"helper_{i}" for i in range(25)] + \
          [f"Cls{i}" for i in range(15)]
_NUMBERS = [str(x) for x in (0, 1, 2, 10, 42, 100, 255, 1000, 1024, 65536)]

# rows exercising every tokenizer rule (FIXTURES.md F1 coverage rows)
COVERAGE_CONTENTS = [
    "<div>foo</div> bar",
    "self.value += x;",
    "University-of-PissSa",
    "aaa111bbb xx1000yy",
    "aaa aa",
    "x" * 70 + " visible",
    "café naïve über ascii_only",
    "tab\there newline splits stay",
    "the of and return",
    "running runs runner",
    "",
    "   ",
    "+conjunctive marker stripped",
]


def generate_corpus_table(n: int, seed: int = 42,
                          with_sha: bool = True) -> pa.Table:
    """Deterministic synthetic source-code corpus (F1).

    Row i: repo = org{i%7}/repo{i%23}, path = src/mod{i%11}/file_{i}.{ext};
    content = seeded pseudo-code lines from a fixed vocabulary salted with
    a row-unique token. The first len(COVERAGE_CONTENTS) rows carry the
    tokenizer-coverage payloads appended to generated text.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array(_KEYWORDS + _IDENTS + _NUMBERS)
    repos, paths, commits, langs, contents = [], [], [], [], []
    # content length distribution: mostly 30-300 tokens, a few big, a few empty
    n_tokens = rng.integers(30, 300, size=n)
    big = rng.random(n) < 0.005
    n_tokens[big] = rng.integers(1500, 4000, size=int(big.sum()))
    empty = rng.random(n) < 0.01
    for i in range(n):
        lang = _LANGS[i % len(_LANGS)]
        repos.append(f"org{i % 7}/repo{i % 23}")
        paths.append(f"src/mod{i % 11}/file_{i}.{lang}")
        commits.append(_commit_hex(str(i)))
        langs.append(lang)
        if empty[i] and i >= len(COVERAGE_CONTENTS):
            contents.append("" if i % 2 else "   \t ")
            continue
        toks = rng.choice(vocab, size=int(n_tokens[i]))
        # salt with a row-unique token so docs differ
        text = " ".join(toks.tolist() + [f"uniq{i}token"])
        # sprinkle punctuation/code shape deterministically
        if i % 3 == 0:
            text = text.replace(" def ", " def fn_%d(): " % i, 1)
        if i % 5 == 0:
            text += f"\nx = [{i}, {i+1}]; # comment!"
        if i < len(COVERAGE_CONTENTS):
            text = COVERAGE_CONTENTS[i] + " " + text
        contents.append(text)
    cols = {
        "repo": pa.array(repos), "path": pa.array(paths),
        "commit": pa.array(commits), "lang": pa.array(langs),
        "content": pa.array(contents),
    }
    if with_sha:
        cols["sha256"] = pa.array(
            [hashlib.sha256(c.encode()).hexdigest() for c in contents])
    return pa.table(cols)


def write_corpus(out_dir: str, n: int, seed: int = 42, num_files: int = 64) -> str:
    """Write the F1 corpus as ``num_files`` parquet files (read parallelism
    for the two-parallelism-level scaling runs, FIXTURES.md F6)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = generate_corpus_table(n, seed=seed)
    rows_per = (n + num_files - 1) // num_files
    for f in range(num_files):
        lo = f * rows_per
        if lo >= n:
            break
        pq.write_table(table.slice(lo, rows_per), out / f"part-{f:05d}.parquet")
    return str(out)
