"""Comparison baselines and the partition-agreement harness.

Baseline 1 ranks books by TF-IDF cosine over metadata tokens (title,
author, genres); baseline 2 does the same over summary text, falling
back to the full body when no summary exists. Both feed the same
average-linkage clustering as the progression pipeline so the
comparison isolates the similarity signal, not the clustering.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import MissingLabel, MissingText
from .ingest import tokenize
from .similarity import SimilarityMatrix

__all__ = [
    "baseline1_vectors", "baseline2_vectors", "cosine",
    "similarity_matrix_from_vectors",
    "AgreementReport", "agreement",
]


def _tfidf(bags: dict) -> dict:
    """TF-IDF weights per document from raw token bags.

    tf is the in-document count; idf is ln(N / df).
    """
    n_docs = len(bags)
    df = Counter(term for bag in bags.values() for term in bag)
    vectors = {}
    for doc_id, bag in bags.items():
        vectors[doc_id] = {
            term: count * math.log(n_docs / df[term])
            for term, count in bag.items()
        }
    return vectors


def _bag(tokens) -> dict:
    """Word -> count over the tokens, words in the order each is first used.

    The codes are counted, and only the distinct ones are mapped back to
    words; a ``Counter`` keeps first-use order, as one over the words would.
    """
    vocab = tokens.vocab
    return {vocab[code]: count for code, count in Counter(tokens.codes).items()}


def baseline1_vectors(docs) -> dict:
    """Metadata TF-IDF: title, author and genre tokens."""
    bags = {}
    for doc in docs:
        parts = [doc.title]
        if doc.author:
            parts.append(doc.author)
        parts.extend(doc.metadata.get("genres", []))
        bags[doc.book_id] = _bag(tokenize(" ".join(parts)))
    return _tfidf(bags)


def baseline2_vectors(docs) -> dict:
    """Summary-text TF-IDF, falling back to the full body."""
    bags = {}
    for doc in docs:
        summary = doc.metadata.get("summary")
        if summary:
            tokens = tokenize(summary)
        elif doc.tokens:
            tokens = doc.tokens
        else:
            raise MissingText(f"{doc.book_id}: no summary and no body text")
        bags[doc.book_id] = _bag(tokens)
    return _tfidf(bags)


def _norm(u: dict) -> float:
    # Left to right, not sum(): 3.12's compensated sum gives other bits.
    total = 0.0
    for w in u.values():
        total += w * w
    return math.sqrt(total)


def _cosine(x: tuple, y: tuple) -> float:
    """Cosine of two ``(vector, norm)`` pairs."""
    u, norm_u = x
    v, norm_v = y
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = 0.0
    for term, w in u.items():
        if term in v:
            dot += w * v[term]
    return dot / (norm_u * norm_v)


def cosine(u: dict, v: dict) -> float:
    return _cosine((u, _norm(u)), (v, _norm(v)))


def similarity_matrix_from_vectors(vectors: dict) -> SimilarityMatrix:
    """Cosine matrix over the vectors; diagonal pinned to 1.

    Each vector's norm is computed once and shared by all its pairs.
    """
    items = [(u, _norm(u)) for u in vectors.values()]
    return SimilarityMatrix.from_pairs(list(vectors), items, _cosine)


@dataclass
class AgreementReport:
    method: str
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


def _pairs(counts: Counter) -> int:
    """Unordered pairs within each counted group: the sum of C(n, 2)."""
    return sum(n * (n - 1) // 2 for n in counts.values())


def agreement(partition, labels: dict, method: str = "") -> AgreementReport:
    """Compare a partition against reference labels.

    Pairwise agreement (the Rand index) is the fraction of book pairs
    grouped the same way by both sides; purity is the share of books
    matching their cluster's majority label. Both ignore cluster naming
    entirely. A book listed in more than one cluster counts once, in
    the last, for pairwise agreement, and in each for purity.

    Pairs are counted from the cluster x label table, not looped over:
    of the C(n, 2) pairs, C(n, 2) - (pairs sharing a cluster) - (pairs
    sharing a label) + 2 * (pairs sharing both) agree.
    """
    assignment = {book_id: idx for idx, members in enumerate(partition)
                  for book_id in members}
    missing = [b for b in assignment if b not in labels]
    if missing:
        raise MissingLabel(f"no reference label for: {', '.join(sorted(map(str, missing))[:5])}")

    n_books = len(assignment)
    total = n_books * (n_books - 1) // 2
    agreed = (total - _pairs(Counter(assignment.values()))
              - _pairs(Counter(labels[b] for b in assignment))
              + 2 * _pairs(Counter((idx, labels[b]) for b, idx in assignment.items())))
    majority_total = sum(max(Counter(labels[b] for b in members).values(), default=0)
                         for members in partition)
    return AgreementReport(
        method=method,
        pairwise_agreement=agreed / total if total else 1.0,
        purity=majority_total / n_books if n_books else 1.0,
        agreed_count=agreed,
        pair_count=total,
    )
