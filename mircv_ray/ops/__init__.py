"""Training-data-pipeline operators beyond the reference's scope:
deduplication (exact, MinHash-LSH, SimHash, n-gram Jaccard), similarity
search over embeddings, text analysis (lang-id, quality, token counts,
fingerprints, verbatim-probe decontamination), and multimodal decode
(real pure-NumPy PPM/PGM/BMP/PNG/WAV/RAWV codecs; JPEG/MP4 stubbed)."""

from .textops import (
    ContaminationCheck, basic_token_stats, char_entropy,
    contamination_check, contamination_ngram, fingerprint,
    gopher_filter, lang_id, pii_redact, quality_stats,
    heaps_fit, nfc_normalize, repetition_stats, token_count, unigram_logprob,
    zipf_fit,
)
from .lm import bigram_logprob
from .linededup import duplicate_line_stats, line_dedup
from .ngramrep import ngram_repetition_stats
from .c4filter import c4_line_filter
from .cooccur import cooccurrence_counts
from .topngrams import top_ngrams
from .graph import bfs_depths, connected_components, hits, pagerank
from .keywords import tfidf_keywords
from .dedup import contamination_fuzzy, corpus_diff, exact_dedup_keep, jaccard_simjoin_exact, minhash_signatures, minhash_candidate_pairs, simhash64, near_dup_pairs, ngram_jaccard_pairs, shingle_sets
from .similarity import cosine_all_pairs, cosine_topk, mmr_rerank, rocchio_dense, ivf_build_centroids, ivf_cosine_topk, embedding_near_dup_pairs, knn_graph, knn_graph_lsh, pq_cosine_topk, pq_cosine_topk_rerank, pq_encode, pq_train
from .clustering import kmeans_assign, kmeans_fit, semantic_dedup
from .dsir import dsir_weights
from .bpe import bpe_encode_counts, bpe_train
from .fusion import comb_fuse, rrf_fuse
from .chunking import chunk_documents, split_sentences
from .ltr import ltr_features
from .passage import build_passage_index, passage_topk_maxp
from .packing import greedy_pack, pack_sequences
from .profile import profile_table
from .collocations import pmi_collocations
from .multimodal import DecodeImage, SampleFrames, make_media_table
from .sampling import alpha_mix_weights, hash_split, importance_resample, shuffle_shards, source_quota_sample, stratified_sample, temperature_mix_sample
from .sketches import (bloom_build, bloom_params, bloom_probe, bloom_test,
                       cm_build, cm_query, exact_distinct_per_group,
                       hll_distinct_per_group, mg_heavy_hitters)
from .equijoin import equi_join, semi_join
from .joins import (asof_join_backward, asof_join_backward_salted,
                    interval_join, interval_join_salted)
from .quantiles import global_ntile, global_rank, grouped_quantiles, grouped_quantiles_tdigest, winsorize, zscore_normalize
from .streaming import (StreamingSessionizer, StreamingTumblingWindow,
                        stream_sessionize, stream_tumbling_window_agg)
from .substring import ngram_window_rows, shared_ngram_pairs
from .windows import event_transitions, funnel, retention_cohorts, funnel_rates, interarrival_stats, hopping_window_agg, moving_agg, pivot_counts, props_extract, rollup_agg, running_agg, time_window_agg, sessionize, top_users_by_type, tumbling_window_agg

__all__ = [
    "DecodeImage", "SampleFrames", "make_media_table",
    "ContaminationCheck", "contamination_check", "contamination_fuzzy",
    "basic_token_stats", "token_count", "quality_stats", "lang_id",
    "fingerprint", "exact_dedup_keep", "corpus_diff", "minhash_signatures",
    "minhash_candidate_pairs", "simhash64", "near_dup_pairs",
    "cosine_topk", "mmr_rerank", "rocchio_dense", "ivf_build_centroids", "ivf_cosine_topk",
    "ngram_jaccard_pairs", "shingle_sets", "embedding_near_dup_pairs",
    "jaccard_simjoin_exact", "cosine_all_pairs", "pii_redact",
    "repetition_stats", "connected_components", "source_quota_sample",
    "hash_split", "stratified_sample", "alpha_mix_weights", "temperature_mix_sample",
    "importance_resample", "shuffle_shards",
    "knn_graph", "knn_graph_lsh", "global_ntile", "dsir_weights", "unigram_logprob", "char_entropy", "zipf_fit", "nfc_normalize", "heaps_fit",
    "bpe_train", "bpe_encode_counts",
    "ngram_window_rows", "shared_ngram_pairs",
    "exact_distinct_per_group", "hll_distinct_per_group",
    "asof_join_backward", "asof_join_backward_salted", "interval_join",
    "equi_join", "semi_join",
    "grouped_quantiles", "grouped_quantiles_tdigest", "global_rank", "winsorize", "zscore_normalize",
    "pq_train", "pq_encode", "pq_cosine_topk", "pq_cosine_topk_rerank",
    "tumbling_window_agg", "hopping_window_agg", "sessionize", "props_extract", "top_users_by_type", "running_agg", "funnel", "moving_agg", "rollup_agg", "pivot_counts", "time_window_agg", "event_transitions", "funnel_rates", "interarrival_stats", "retention_cohorts",
    "StreamingTumblingWindow", "stream_tumbling_window_agg",
    "StreamingSessionizer", "stream_sessionize",
    "kmeans_assign", "kmeans_fit", "semantic_dedup",
    "chunk_documents", "split_sentences", "comb_fuse", "rrf_fuse", "ltr_features",
    "build_passage_index", "passage_topk_maxp",
    "greedy_pack", "pack_sequences", "profile_table",
    "pmi_collocations",
    "mg_heavy_hitters",
    "bloom_build", "bloom_params", "bloom_probe", "bloom_test",
    "contamination_ngram",
    "cm_build", "cm_query",
    "bigram_logprob", "gopher_filter",
    "duplicate_line_stats", "line_dedup",
    "ngram_repetition_stats",
    "c4_line_filter",
    "cooccurrence_counts", "top_ngrams",
    "pagerank", "hits", "bfs_depths",
    "tfidf_keywords",
]
