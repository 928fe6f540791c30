"""Index-build CLI — the reference's IndexingMain
(search_engine/src/main/java/unipi/aide/mircv/indexing/IndexingMain.java:19-64)
re-expressed over a Parquet corpus.

Usage:
    python scripts/indexer.py CORPUS OUT_DIR [--no-parse]
        [--codec vbyte|ef|none] [--num-shards N] [--salt-buckets N]
        [--num-cpus N]

CORPUS is a Parquet directory/file (repo, path, commit, lang, content)
or the reference's own collection format — a ``.tsv`` of ``pid \t text``
lines or a ``.tar.gz``/``.tgz`` containing one (IndexingMain.java:36-43).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("corpus_dir")
    ap.add_argument("out_dir")
    ap.add_argument("--no-parse", action="store_true",
                    help="disable stopword removal + stemming "
                         "(IndexingMain's parse flag)")
    ap.add_argument("--codec", default="vbyte",
                    choices=["vbyte", "ef", "none"],
                    help="posting compression (the reference's compress "
                         "flag; 'ef' is its Elias-Fano format)")
    ap.add_argument("--num-shards", type=int, default=64)
    ap.add_argument("--salt-buckets", type=int, default=4)
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args()

    import ray
    import ray.data as rd
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    from mircv_ray.build import build_index
    from mircv_ray.config import IndexConfig

    cfg = IndexConfig(parse=not args.no_parse, codec=args.codec,
                      num_shards=args.num_shards,
                      salt_buckets=args.salt_buckets)
    if args.corpus_dir.endswith((".tsv", ".tar.gz", ".tgz", ".tar")):
        from mircv_ray.sources import collection_tsv_as_corpus
        corpus = collection_tsv_as_corpus(args.corpus_dir)
    else:
        corpus = rd.read_parquet(args.corpus_dir,
                                 columns=["repo", "path", "lang", "content"])
    stats = build_index(corpus, args.out_dir, cfg,
                        lineage={"source": args.corpus_dir})
    print(json.dumps(stats["metrics"], indent=2, default=str))
    ray.shutdown()


if __name__ == "__main__":
    main()
