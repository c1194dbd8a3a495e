"""Sentiment Progression Similarity Indicator.

Given two equal-length series of sentiment values, the indicator
measures how closely the two progressions track each other:

    RS(i) = S1(i) + S2(i)
    PS    = sum(S1) / sum(RS)
    CF(i) = (PS * RS(i) - S1(i)) / sqrt(RS(i) * PS * (1 - PS))
    SD    = sum(CF(i)^2 * N(i)) / sum(N(i)),  N(i) = sqrt(RS(i))
    SPSI  = 1 / (1 + ln(1 + SD))

Identical series give exactly 1 and the value decays slowly toward 0 as
the progressions diverge. Swapping the operands maps PS to 1 - PS and
flips the sign of every CF, so the result is symmetric; to make the
symmetry hold bit for bit in floating point, ``score`` alone orders the
operands canonically before evaluating. The value-level ``spsi`` and
``spsi_breakdown`` check their value sequences as series and score
them with ``score``. Every matrix, SPSI or cosine, fills through
``SimilarityMatrix.from_pairs``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from math import fsum, log1p, sqrt
from operator import add, mul

from .errors import DegenerateSeries, FormatError, LengthMismatch
from .ingest import _csv_rows
from .series import SentimentSeries, SeriesPoint, align_lengths

__all__ = [
    "SpsiBreakdown", "SimilarityMatrix", "score", "spsi", "spsi_breakdown",
    "spsi_matrix", "write_matrix_csv",
]


def _value_series(s1, s2) -> tuple:
    """Two equal-length value sequences as series ``s1`` and ``s2`` at positions 0, 1, ...

    Each series refuses bad values as every series does, naming its
    operand and the point.
    """
    a, b = list(s1), list(s2)
    if len(a) != len(b):
        raise LengthMismatch(f"series lengths differ: {len(a)} vs {len(b)}")
    return tuple(SentimentSeries(name, [SeriesPoint(float(i), v) for i, v in enumerate(values)])
                 for name, values in (("s1", a), ("s2", b)))


def _evaluate(s1, s2, sum1: float) -> tuple:
    """(rs, ps, cf, n, sd, spsi) of s1 against s2, in the passed order.

    ``sum1`` is ``fsum(s1)``, which the caller may have kept.

    A point where RS is 0 carries no mass and gets CF 0, not 0/0. When
    one series is all-zero (or numerically indistinguishable from it),
    PS sits on 0 or 1; every CF tends to 0 there, so all CFs are 0 and
    the continuous extension of the formula, 1, comes out. Two all-zero
    series take PS = 0.5 and score 1 the same way.
    """
    rs = list(map(add, s1, s2))
    total = fsum(rs)
    ps = sum1 / total if total != 0.0 else 0.5
    n = list(map(sqrt, rs))
    if total == 0.0 or ps <= 0.0 or ps >= 1.0:
        cf = [0.0] * len(rs)
    else:
        qs = 1.0 - ps
        # A tiny RS (around 1e-200 and below) can underflow the product
        # to 0; the factored root then keeps the denominator nonzero.
        cf = [0.0 if r == 0.0 else
              (ps * r - v) / (sqrt(r * ps * qs) or sqrt(r) * sqrt(ps * qs))
              for v, r in zip(s1, rs)]
    denom = fsum(n)
    sd = fsum(map(mul, map(mul, cf, cf), n)) / denom if denom != 0.0 else 0.0
    return rs, ps, cf, n, sd, 1.0 / (1.0 + log1p(sd))


def spsi(s1, s2) -> float:
    """The similarity indicator for two equal-length value sequences.

    The sequences are checked as series (2+ points, every value finite
    and >= 0; otherwise ``DegenerateSeries``) and scored by ``score``,
    so spsi(a, b) and spsi(b, a) return the identical float.
    """
    a, b = _value_series(s1, s2)
    # Equal lengths align unchanged, so the ratio limit is never read.
    return score(a, b, 0.0)


def score(s1: SentimentSeries, s2: SentimentSeries, ratio_limit: float) -> float:
    """SPSI of two series after aligning them to a common length.

    Every pairwise score (matrix, clustering, catalogue search, nearest
    cluster and the value-level ``spsi``) goes through here. It reads
    the values and ``fsum`` that each aligned series checked and kept
    when it was made, and is the one place that orders the two operands
    canonically, so the result does not depend on their order.
    """
    a, b = align_lengths(s1, s2, ratio_limit)
    if b._values < a._values:
        return _evaluate(b._values, a._values, b._fsum)[-1]
    return _evaluate(a._values, b._values, a._fsum)[-1]


@dataclass(frozen=True)
class SpsiBreakdown:
    """Intermediate quantities of one evaluation, in the passed order.

    ``spsi`` is the canonical (order-independent) value, which can
    differ from 1/(1+ln(1+sd)) by no more than float rounding.
    """
    rs: list
    ps: float
    cf: list
    n: list
    sd: float
    spsi: float


def spsi_breakdown(s1, s2) -> SpsiBreakdown:
    """The intermediates of one evaluation, in the passed order, and the canonical spsi.

    The sequences are checked as series, as ``spsi`` checks them.
    """
    a, b = _value_series(s1, s2)
    *quantities, _ = _evaluate(a._values, b._values, a._fsum)
    # Equal lengths align unchanged, so the ratio limit is never read.
    return SpsiBreakdown(*quantities, score(a, b, 0.0))


@dataclass
class SimilarityMatrix:
    book_ids: list
    values: list      # row-major, symmetric, unit diagonal

    def __len__(self) -> int:
        return len(self.book_ids)

    def off_diagonal(self) -> list:
        """Upper-triangle entries, row by row."""
        n = len(self.book_ids)
        return [self.values[i][j] for i in range(n) for j in range(i + 1, n)]

    @classmethod
    def from_pairs(cls, book_ids, items, pair_score) -> SimilarityMatrix:
        """All-pairs matrix of ``pair_score(items[i], items[j])``, unit diagonal.

        Each pair is scored once, the earlier item first, and written to
        both triangles. A ``DegenerateSeries`` raised there is re-raised
        naming the pair by its book ids.
        """
        n = len(items)
        values = [[1.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    value = pair_score(items[i], items[j])
                except DegenerateSeries as exc:
                    raise DegenerateSeries(f"pair ({book_ids[i]}, {book_ids[j]}): {exc}") from exc
                values[i][j] = value
                values[j][i] = value
        return cls(book_ids=list(book_ids), values=values)


def spsi_matrix(series_list, ratio_limit: float) -> SimilarityMatrix:
    """All-pairs SPSI with pairwise alignment to a common length."""
    if len(series_list) < 2:
        raise DegenerateSeries("need at least 2 series for a matrix")
    return SimilarityMatrix.from_pairs([s.book_id for s in series_list], series_list,
                                       partial(score, ratio_limit=ratio_limit))


def write_matrix_csv(matrix: SimilarityMatrix, path) -> None:
    """Export with a book_id header row/column, values to 6 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["book_id"] + list(matrix.book_ids))
        for book_id, row in zip(matrix.book_ids, matrix.values):
            writer.writerow([book_id] + [f"{v:.6f}" for v in row])


def read_matrix_csv(path) -> SimilarityMatrix:
    """Read a square similarity matrix with a book_id header row/column."""
    rows = [row for _, row in _csv_rows(path)]
    if len(rows) < 2:
        raise FormatError(f"{path}: empty matrix")
    ids = [c.strip() for c in rows[0][1:]]
    n = len(ids)
    if len(set(ids)) != n:
        repeated = next(book_id for i, book_id in enumerate(ids) if book_id in ids[:i])
        raise FormatError(f"{path}: book id {repeated!r} is repeated in the header")
    if len(rows) - 1 != n:
        raise FormatError(f"{path}: header names {n} books but {len(rows) - 1} rows follow")
    values = []
    for row in rows[1:]:
        if len(row) != n + 1:
            raise FormatError(f"{path}: row {row[0]!r} has {len(row) - 1} values, expected {n}")
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric matrix entry: {exc}")
        if not all(map(math.isfinite, values[-1])):
            raise FormatError(f"{path}: row {row[0]!r} has a non-finite entry")
    row_ids = [r[0].strip() for r in rows[1:]]
    if row_ids != ids:
        raise FormatError(f"{path}: row labels do not match header labels")
    return SimilarityMatrix(book_ids=ids, values=values)
