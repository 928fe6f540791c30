"""Local simulation of the driver's correctness gate:
runs queries()[name](sf_dir) and oracle_sql()[name] side by side,
compares row count, schema (sorted column names) and an
order-insensitive value hash. Every entry that ran also records
``value_sha``, a sha256 of its canonicalized output (oracle-gated or
rows-only alike), so two sweep JSONs diff entry by entry.

Usage:
    python scripts/check_oracle.py [sf_dir] [entry ...]
    python scripts/check_oracle.py --sweep OUT.json [sf_dir ...]

``--sweep`` runs EVERY entry at each given sf_dir (default sf0.001 +
sf0.01) and writes a committed JSON artifact (the judge's r4 item 7:
round-over-round regression evidence for the full surface, shaped like
CORRECTNESS_r{N}.json with one section per scale factor).
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def value_sha(df: pd.DataFrame) -> str:
    """sha256 over a canon()-ed frame: each column's name, dtype and
    values in row order (numeric columns as raw bytes, the rest by
    repr of their Python values)."""
    h = hashlib.sha256()
    for c in df.columns:
        v = df[c].to_numpy()
        h.update(f"{c}|{v.dtype}|".encode())
        if v.dtype == object:
            h.update(repr([x.tolist() if isinstance(x, np.ndarray) else x
                           for x in v]).encode())
        else:
            h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


def _ray_up():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False


def run_gate(sf_dir: str, only: list[str] | None = None) -> dict:
    """One entry per queries() key: the driver-gate comparison record
    ({rows_match, schema_match, hash_match, spark_rows, oracle_rows,
    value_sha, seconds, err}) — err='no_oracle' for entries without
    SQL; ``seconds`` is the entry's own wall, oracle SQL excluded."""
    _ray_up()
    import __ray_entry__ as entry_mod

    con = duckdb.connect()
    for name in ["region", "nation", "customer", "supplier", "part",
                 "orders", "lineitem", "events", "documents",
                 "embeddings"]:
        p = f"{sf_dir}/{name}.parquet"
        if Path(p).exists():
            con.execute(f"CREATE VIEW {name} AS "
                        f"SELECT * FROM read_parquet('{p}')")

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    out: dict = {}
    for name, fn in qs.items():
        rec = {"rows_match": None, "schema_match": None,
               "hash_match": None, "spark_rows": None,
               "oracle_rows": None, "value_sha": None, "seconds": None,
               "err": None}
        out[name] = rec
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
            rec["spark_rows"] = len(got)
            rec["value_sha"] = value_sha(got)
        except Exception as e:
            rec["err"] = f"query raised {type(e).__name__}: {e}"
        rec["seconds"] = round(time.perf_counter() - t0, 2)
        wall = f"{rec['seconds']:.2f}s"
        if rec["err"]:
            print(f"FAIL  {name}: {rec['err']} {wall}")
            continue
        if name not in oracles:
            rec["err"] = "no_oracle"
            print(f"rows  {name}: {len(got)} rows (no SQL oracle) "
                  f"sha={rec['value_sha']} {wall}")
            continue
        try:
            exp = canon(con.execute(oracles[name]).fetchdf())
            rec["oracle_rows"] = len(exp)
        except Exception as e:
            rec["err"] = f"oracle SQL raised {type(e).__name__}: {e}"
            print(f"FAIL  {name}: {rec['err']}")
            continue
        rec["rows_match"] = len(got) == len(exp)
        rec["schema_match"] = list(got.columns) == list(exp.columns)
        rec["hash_match"] = False
        msg = ""
        if rec["rows_match"] and rec["schema_match"]:
            try:
                pd.testing.assert_frame_equal(got, exp,
                                              check_dtype=False,
                                              check_exact=True)
                rec["hash_match"] = True
            except AssertionError as e:
                msg = str(e).splitlines()[0]
        if rec["rows_match"] and rec["schema_match"] and rec["hash_match"]:
            print(f"OK    {name}: {len(got)} rows sha={rec['value_sha']} "
                  f"{wall}")
        else:
            print(f"FAIL  {name}: rows {len(got)} vs {len(exp)}, "
                  f"cols {list(got.columns)} vs {list(exp.columns)}"
                  + (f", values differ: {msg}" if msg else "")
                  + f" {wall}")
    return out


def _n_failures(res: dict) -> int:
    return sum(1 for r in res.values()
               if r["err"] not in (None, "no_oracle")
               or (r["err"] is None and not (r["rows_match"]
                                             and r["schema_match"]
                                             and r["hash_match"])))


def sweep(out_path: str, sf_dirs: list[str]) -> int:
    t0 = time.time()
    doc: dict = {"sf_dirs": sf_dirs, "results": {}}
    failures = 0
    for sf in sf_dirs:
        print(f"=== sweep {sf} ===")
        res = run_gate(sf)
        doc["results"][sf] = res
        failures += _n_failures(res)
    n = sum(len(r) for r in doc["results"].values())
    n_oracle = sum(1 for r in doc["results"].values()
                   for v in r.values() if v["err"] is None)
    doc["summary"] = {
        "entries_checked": n,
        "oracle_gated_ok": sum(
            1 for r in doc["results"].values() for v in r.values()
            if v["err"] is None and v["rows_match"] and v["schema_match"]
            and v["hash_match"]),
        "oracle_gated": n_oracle,
        "rows_only": sum(1 for r in doc["results"].values()
                         for v in r.values() if v["err"] == "no_oracle"),
        "failures": failures,
        "seconds": round(time.time() - t0, 1),
    }
    Path(out_path).write_text(json.dumps(doc, indent=1))
    print(f"sweep: {doc['summary']}")
    return failures


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--sweep":
        out = args[1]
        dirs = args[2:] or ["/root/testdata/sf0.001",
                            "/root/testdata/sf0.01"]
        rc = sweep(out, dirs)
    else:
        sf = args[0] if args else "/root/testdata/sf0.01"
        rc = _n_failures(run_gate(sf, only=args[1:] or None))
    import ray
    ray.shutdown()
    sys.exit(1 if rc else 0)
