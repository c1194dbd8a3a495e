"""Comparison baselines and the partition-agreement harness.

Baseline 1 ranks books by TF-IDF cosine over metadata tokens (title,
author, genres); baseline 2 does the same over summary text, falling
back to the full body when no summary exists. Both feed the same
average-linkage clustering as the progression pipeline so the
comparison isolates the similarity signal, not the clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .clustering import cluster_matrix
from .errors import MissingLabel, MissingText
from .ingest import tokenize
from .similarity import SimilarityMatrix

__all__ = [
    "baseline1_vectors", "baseline2_vectors", "cosine",
    "similarity_matrix_from_vectors", "partition_from_similarity",
    "AgreementReport", "agreement",
]


def _tfidf(bags: dict) -> dict:
    """TF-IDF weights per document from raw token bags.

    tf is the in-document count; idf is ln(N / df).
    """
    n_docs = len(bags)
    df = {}
    for bag in bags.values():
        for term in bag:
            df[term] = df.get(term, 0) + 1
    vectors = {}
    for doc_id, bag in bags.items():
        vectors[doc_id] = {
            term: count * math.log(n_docs / df[term])
            for term, count in bag.items()
        }
    return vectors


def _bag(tokens) -> dict:
    bag = {}
    for t in tokens:
        bag[t] = bag.get(t, 0) + 1
    return bag


def baseline1_vectors(docs) -> dict:
    """Metadata TF-IDF: title, author and genre tokens."""
    bags = {}
    for doc in docs:
        parts = [doc.title or ""]
        if doc.author:
            parts.append(doc.author)
        parts.extend(doc.metadata.get("genres", []))
        bags[doc.book_id] = _bag(t.text for t in tokenize(" ".join(parts)))
    return _tfidf(bags)


def baseline2_vectors(docs) -> dict:
    """Summary-text TF-IDF, falling back to the full body."""
    bags = {}
    for doc in docs:
        summary = doc.metadata.get("summary")
        if summary:
            tokens = [t.text for t in tokenize(summary)]
        elif doc.tokens:
            tokens = [t.text for t in doc.tokens]
        else:
            raise MissingText(f"{doc.book_id}: no summary and no body text")
        bags[doc.book_id] = _bag(tokens)
    return _tfidf(bags)


def cosine(u: dict, v: dict) -> float:
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[term] for term, w in u.items() if term in v)
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    norm_v = math.sqrt(sum(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def similarity_matrix_from_vectors(vectors: dict) -> SimilarityMatrix:
    """Cosine matrix over the vectors; diagonal pinned to 1."""
    ids = list(vectors)
    n = len(ids)
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = cosine(vectors[ids[i]], vectors[ids[j]])
            values[i][j] = s
            values[j][i] = s
    return SimilarityMatrix(book_ids=ids, values=values)


def partition_from_similarity(matrix: SimilarityMatrix, dt: float):
    """The same average-linkage partition the pipeline uses."""
    partition, _trace = cluster_matrix(matrix, dt)
    return partition


@dataclass
class AgreementReport:
    method: str
    assignment: dict          # book_id -> cluster key
    pairwise_agreement: float
    purity: float
    agreed_count: int         # agreeing pairs
    pair_count: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "pairwise_agreement": self.pairwise_agreement,
            "purity": self.purity,
            "agreed_pairs": self.agreed_count,
            "total_pairs": self.pair_count,
        }


def agreement(partition, labels: dict, method: str = "") -> AgreementReport:
    """Compare a partition against reference labels.

    Pairwise agreement is the fraction of book pairs grouped the same
    way by both sides; purity is the share of books matching their
    cluster's majority label. Both ignore cluster naming entirely.
    """
    assignment = {}
    for idx, members in enumerate(partition):
        for book_id in members:
            assignment[book_id] = idx
    missing = [b for b in assignment if b not in labels]
    if missing:
        raise MissingLabel(f"no reference label for: {', '.join(sorted(map(str, missing))[:5])}")

    books = sorted(assignment)
    agreed = 0
    total = 0
    for a, b in combinations(books, 2):
        total += 1
        same_cluster = assignment[a] == assignment[b]
        same_label = labels[a] == labels[b]
        if same_cluster == same_label:
            agreed += 1

    majority_total = 0
    for members in partition:
        counts = {}
        for book_id in members:
            label = labels[book_id]
            counts[label] = counts.get(label, 0) + 1
        if counts:
            majority_total += max(counts.values())
    n_books = len(books)
    return AgreementReport(
        method=method,
        assignment=assignment,
        pairwise_agreement=agreed / total if total else 1.0,
        purity=majority_total / n_books if n_books else 1.0,
        agreed_count=agreed,
        pair_count=total,
    )
