"""Index lifecycle CLI: merge, delete (tombstone), vacuum, status.

The reference engine has no post-build lifecycle (IndexingMain rebuilds
from scratch); these subcommands drive the incremental machinery:

    python scripts/index_admin.py merge BASE DELTA OUT [--codec ...]
    python scripts/index_admin.py upsert BASE NEW_CORPUS OUT
    python scripts/index_admin.py delete INDEX --ids 5,9,12
    python scripts/index_admin.py delete INDEX --ids-file ids.txt
    python scripts/index_admin.py vacuum INDEX OUT
    python scripts/index_admin.py status INDEX
    python scripts/index_admin.py positions INDEX CORPUS
    python scripts/index_admin.py phrase INDEX "hash join" ...
    python scripts/index_admin.py proximity INDEX "merge sort" ...
    python scripts/index_admin.py fuzzy INDEX mergee tablr
    python scripts/index_admin.py boolean INDEX --pos merge,sort --neg join
    python scripts/index_admin.py facets INDEX merge sort --facet lang
    python scripts/index_admin.py snippet INDEX CORPUS "merge sort" ...
    python scripts/index_admin.py prf INDEX CORPUS merge,sort ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    mp = sub.add_parser("merge", help="compact BASE + DELTA into OUT "
                        "(no content scan)")
    mp.add_argument("base")
    mp.add_argument("delta")
    mp.add_argument("out")
    mp.add_argument("--codec", default=None,
                    choices=["vbyte", "ef", "none"],
                    help="output codec (default: the base index's)")

    up = sub.add_parser("upsert", help="replace documents by (repo, "
                        "path) key: delta build + tombstone-carrying "
                        "merge + superseded-row delete (vacuum to make "
                        "physical)")
    up.add_argument("base")
    up.add_argument("corpus", help="parquet dir of the NEW document "
                    "versions in corpus shape (repo, path, lang, "
                    "content)")
    up.add_argument("out")

    dp = sub.add_parser("delete", help="tombstone engine docIds")
    dp.add_argument("index")
    dp.add_argument("--ids", default=None,
                    help="comma-separated engine docIds")
    dp.add_argument("--ids-file", default=None,
                    help="file with one engine docId per line")

    vp = sub.add_parser("vacuum", help="physically remove tombstoned "
                        "docs into OUT (fresh stats, dense ids)")
    vp.add_argument("index")
    vp.add_argument("out")

    ex = sub.add_parser("explain", help="per-term score breakdown of "
                        "a doc for a query: why did it rank here")
    ex.add_argument("index")
    ex.add_argument("query", help="comma-separated raw terms")
    ex.add_argument("docno", type=int,
                    help="document number (engine docId - 1)")
    ex.add_argument("--standard", default="BM25",
                    choices=["BM25", "TFIDF"])

    rs = sub.add_parser("reshard", help="re-layout the index (shard "
                        "count / docId salting / codec) into OUT "
                        "without re-tokenizing — the operational fix "
                        "when the fleet resizes or term skew evolves")
    rs.add_argument("index")
    rs.add_argument("out")
    rs.add_argument("--num-shards", type=int, default=None)
    rs.add_argument("--salt-buckets", type=int, default=None)
    rs.add_argument("--codec", default=None)

    sp = sub.add_parser("status", help="print stats + tombstone count")
    sp.add_argument("index")

    pr = sub.add_parser("prune", help="static index pruning: keep each "
                        "term's top-K postings (tf desc, docId asc) "
                        "into OUT (Carmel et al. SIGIR'01)")
    pr.add_argument("index")
    pr.add_argument("out")
    pr.add_argument("--keep", type=int, default=10,
                    help="postings kept per term (default 10)")

    pp = sub.add_parser("positions", help="build the positional-postings "
                        "sidecar (enables index-only phrase queries)")
    pp.add_argument("index")
    pp.add_argument("corpus", help="the corpus the index was built from "
                    "(documents.parquet dir or file)")

    qp = sub.add_parser("phrase", help="run phrase queries from the "
                        "positional sidecar")
    qp.add_argument("index")
    qp.add_argument("phrases", nargs="+")

    xp = sub.add_parser("proximity", help="minimal-cover proximity "
                        "search from the positional sidecar")
    xp.add_argument("index")
    xp.add_argument("queries", nargs="+")

    fz = sub.add_parser("fuzzy", help="'did you mean' retrieval: each "
                        "word expands to its Levenshtein<=1 lexicon "
                        "terms, scored as disjunctive BM25")
    fz.add_argument("index")
    fz.add_argument("words", nargs="+")
    fz.add_argument("-k", type=int, default=10)

    wc = sub.add_parser("wildcard", help="general * wildcard retrieval "
                        "(suffix/infix/multi-star) via the 3-gram "
                        "lexicon index, scored as disjunctive BM25")
    wc.add_argument("index")
    wc.add_argument("patterns", nargs="+")
    wc.add_argument("-k", type=int, default=10)

    bq = sub.add_parser("boolean", help="+pos -neg retrieval")
    bq.add_argument("index")
    bq.add_argument("--pos", required=True,
                    help="comma-separated required terms")
    bq.add_argument("--neg", default="",
                    help="comma-separated excluded terms")
    bq.add_argument("-k", type=int, default=10)

    fc = sub.add_parser("facets", help="facet counts of the full match "
                        "set over a docs-table column")
    fc.add_argument("index")
    fc.add_argument("terms", nargs="+")
    fc.add_argument("--facet", default="lang")

    sn = sub.add_parser("snippet", help="best-window snippets (needs "
                        "the positional sidecar and the corpus)")
    sn.add_argument("index")
    sn.add_argument("corpus")
    sn.add_argument("queries", nargs="+")
    sn.add_argument("--ctx", type=int, default=3)

    rf = sub.add_parser("prf", help="pseudo-relevance-feedback BM25 "
                        "(needs the corpus for feedback-doc tfs)")
    rf.add_argument("index")
    rf.add_argument("corpus")
    rf.add_argument("queries", nargs="+",
                    help="each query = comma-separated terms")
    args = ap.parse_args()

    from mircv_ray.build import (delete_docs, load_stats, load_tombstones,
                                 merge_indexes, vacuum_index)

    if args.cmd == "upsert":
        import ray.data as rd
        from mircv_ray.build import upsert_docs
        stats = upsert_docs(args.base, rd.read_parquet(args.corpus),
                            args.out)
        print(json.dumps({"n_docs": stats.get("n_docs"),
                          "n_superseded": stats.get("n_superseded")},
                         default=str))
        return

    if args.cmd == "delete":
        if not args.ids and not args.ids_file:
            ap.error("delete needs --ids or --ids-file")
        ids: list[int] = []
        if args.ids:
            ids += [int(x) for x in args.ids.split(",") if x.strip()]
        if args.ids_file:
            ids += [int(line) for line in
                    Path(args.ids_file).read_text().split() if line.strip()]
        total = delete_docs(args.index, ids)
        print(json.dumps({"tombstoned_now": len(set(ids)),
                          "tombstoned_total": total}))
        return

    if args.cmd == "status":
        stats = load_stats(args.index)
        stats["n_tombstoned"] = int(len(load_tombstones(args.index)))
        print(json.dumps(stats, indent=2, default=str))
        return

    if args.cmd == "phrase":
        from mircv_ray.build import phrase_match_positional
        stats = load_stats(args.index)
        t = phrase_match_positional(args.index, args.phrases,
                                    parse=stats["parse"],
                                    squeeze=stats["squeeze"])
        print(json.dumps(t.to_pylist()))
        return

    if args.cmd == "proximity":
        from mircv_ray.build.positions import proximity_min_span
        stats = load_stats(args.index)
        t = proximity_min_span(args.index, args.queries,
                               parse=stats["parse"],
                               squeeze=stats["squeeze"])
        print(json.dumps(t.to_pylist()))
        return

    if args.cmd == "fuzzy":
        from mircv_ray.query.fuzzy import bm25_fuzzy
        stats = load_stats(args.index)
        t, exp = bm25_fuzzy(args.index, args.words, k=args.k,
                            parse=stats["parse"],
                            squeeze=stats["squeeze"])
        print(json.dumps({"expansions": exp,
                          "results": t.to_pylist()}))
        return

    if args.cmd == "wildcard":
        from mircv_ray.query.kgram import bm25_wildcard
        stats = load_stats(args.index)
        t, exp = bm25_wildcard(args.index, args.patterns, k=args.k,
                               parse=stats["parse"],
                               squeeze=stats["squeeze"])
        print(json.dumps({"expansions": exp,
                          "results": t.to_pylist()}))
        return

    if args.cmd == "boolean":
        from mircv_ray.query.boolean import bm25_boolean
        stats = load_stats(args.index)
        pos = [x.strip() for x in args.pos.split(",") if x.strip()]
        neg = [x.strip() for x in args.neg.split(",") if x.strip()]
        t = bm25_boolean(args.index, [(pos, neg)], k=args.k,
                         parse=stats["parse"],
                         squeeze=stats["squeeze"])
        print(json.dumps(t.to_pylist()))
        return

    # the remaining subcommands run Ray pipelines
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    if args.cmd == "positions":
        from mircv_ray.build import build_positions_index
        from mircv_ray.build.lifecycle import cfg_from_stats
        from mircv_ray.sources import documents_as_corpus
        cfg = cfg_from_stats(load_stats(args.index))
        corpus = documents_as_corpus(str(Path(args.corpus).parent)
                                     if args.corpus.endswith(".parquet")
                                     else args.corpus)
        print(json.dumps(build_positions_index(args.index, corpus, cfg)))
        ray.shutdown()
        return
    if args.cmd == "facets":
        from mircv_ray.query.facets import facet_counts
        t = facet_counts(args.index, [args.terms],
                         facet_col=args.facet)
        print(json.dumps(t.to_pylist()))
        ray.shutdown()
        return
    if args.cmd in ("snippet", "prf"):
        from mircv_ray.sources import documents_as_corpus
        stats = load_stats(args.index)
        corpus = documents_as_corpus(str(Path(args.corpus).parent)
                                     if args.corpus.endswith(".parquet")
                                     else args.corpus)
        if args.cmd == "snippet":
            from mircv_ray.query.snippets import snippet_extract
            out = snippet_extract(args.index, corpus, args.queries,
                                  ctx=args.ctx, parse=stats["parse"],
                                  squeeze=stats["squeeze"])
            print(json.dumps(out.take_all()))
        else:
            from mircv_ray.query.feedback import bm25_prf
            qs = [[t.strip() for t in q.split(",") if t.strip()]
                  for q in args.queries]
            t, exp = bm25_prf(args.index, corpus, qs,
                              parse=stats["parse"],
                              squeeze=stats["squeeze"])
            print(json.dumps({"expansions": exp,
                              "results": t.to_pylist()}))
        ray.shutdown()
        return
    if args.cmd == "prune":
        from mircv_ray.build import prune_index
        stats = prune_index(args.index, args.out,
                            keep_per_term=args.keep)
        print(json.dumps(stats["metrics"], indent=2, default=str))
        ray.shutdown()
        return
    if args.cmd == "explain":
        from mircv_ray.build import load_stats
        from mircv_ray.query.explain import explain_scores
        from mircv_ray.text.tokenizer import tokenize_text
        stats = load_stats(args.index)
        terms = []
        for part in args.query.split(","):
            terms += tokenize_text(part, parse=stats["parse"],
                                   squeeze=stats["squeeze"])
        t = explain_scores(args.index, [terms], [args.docno + 1],
                           standard=args.standard)
        print(json.dumps(t.to_pylist(), indent=2))
        ray.shutdown()
        return
    if args.cmd == "reshard":
        from mircv_ray.build import reshard_index
        stats = reshard_index(args.index, args.out,
                              num_shards=args.num_shards,
                              salt_buckets=args.salt_buckets,
                              codec=args.codec)
        print(json.dumps(stats["metrics"], indent=2, default=str))
        ray.shutdown()
        return
    if args.cmd == "merge":
        cfg = None
        if args.codec:
            from mircv_ray.build.lifecycle import cfg_from_stats
            cfg = cfg_from_stats(load_stats(args.base), codec=args.codec)
        stats = merge_indexes(args.base, args.delta, args.out, cfg)
    else:
        stats = vacuum_index(args.index, args.out)
    print(json.dumps(stats["metrics"], indent=2, default=str))
    ray.shutdown()


if __name__ == "__main__":
    main()
