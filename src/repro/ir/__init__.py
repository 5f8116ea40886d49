"""Information-retrieval engine.

The qunits paradigm's whole point is that once a database is modeled as a
flat collection of independent documents, *standard IR techniques* apply.
This package supplies those techniques: analysis (tokenization, stopwords,
light stemming), an inverted index with per-field storage, TF-IDF and BM25
ranked retrieval (with term-at-a-time and document-at-a-time top-k fast
paths — see :mod:`repro.ir.topk` and :mod:`repro.ir.wand`),
persistent index snapshots (:mod:`repro.ir.persist`), sharded parallel
scoring (:mod:`repro.ir.shard`), and the usual effectiveness metrics.
"""

from repro.ir.analysis import Analyzer, STOPWORDS
from repro.ir.documents import Document
from repro.ir.feedback import RocchioFeedback
from repro.ir.index import (
    ColumnarIndexSnapshot,
    IndexSnapshot,
    InvertedIndex,
    Posting,
    TermContributions,
)
from repro.ir.persist import (
    DocumentStore,
    load_document_store,
    load_snapshot,
    open_scoring_snapshot,
    save_document_store,
    save_snapshot,
)
from repro.ir.shard import ShardedTopK, TermBloomFilter, shard_snapshot
from repro.ir.topk import TopKHeap, merge_ranked, topk_scores
from repro.ir.wand import STRATEGIES, retrieve, wand_scores
from repro.ir.metrics import (
    average_precision,
    dcg,
    majority_agreement,
    mean,
    mean_reciprocal_rank,
    ndcg,
    precision_at_k,
    recall_at_k,
)
from repro.ir.retrieval import SearchHit, Searcher
from repro.ir.scoring import Bm25Scorer, Scorer, TfIdfScorer

__all__ = [
    "Analyzer",
    "STOPWORDS",
    "Document",
    "ColumnarIndexSnapshot",
    "IndexSnapshot",
    "InvertedIndex",
    "Posting",
    "TermContributions",
    "TopKHeap",
    "topk_scores",
    "merge_ranked",
    "STRATEGIES",
    "retrieve",
    "wand_scores",
    "save_snapshot",
    "load_snapshot",
    "open_scoring_snapshot",
    "save_document_store",
    "load_document_store",
    "DocumentStore",
    "ShardedTopK",
    "TermBloomFilter",
    "shard_snapshot",
    "Searcher",
    "SearchHit",
    "Scorer",
    "TfIdfScorer",
    "Bm25Scorer",
    "RocchioFeedback",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "mean_reciprocal_rank",
    "dcg",
    "ndcg",
    "mean",
    "majority_agreement",
]
