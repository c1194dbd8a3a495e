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
symmetry hold bit for bit in floating point, the scalar entry point
canonicalizes operand order before evaluating.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from math import fsum, log1p, sqrt

from .errors import DegenerateSeries, LengthMismatch
from .series import SentimentSeries, align_lengths

__all__ = [
    "SpsiBreakdown", "SimilarityMatrix", "score", "spsi", "spsi_breakdown",
    "spsi_matrix", "write_matrix_csv",
]


def _check_pair(s1, s2):
    if len(s1) != len(s2):
        raise LengthMismatch(f"series lengths differ: {len(s1)} vs {len(s2)}")
    if len(s1) < 2:
        raise DegenerateSeries("series must have at least 2 points")


def _evaluate(s1, s2) -> tuple:
    """(rs, ps, cf, n, sd, spsi) of s1 against s2, in the passed order.

    A point where RS is 0 carries no mass and gets CF 0, not 0/0. When
    one series is all-zero (or numerically indistinguishable from it),
    PS sits on 0 or 1; every CF tends to 0 there, so all CFs are 0 and
    the continuous extension of the formula, 1, comes out. Two all-zero
    series take PS = 0.5 and score 1 the same way.
    """
    rs = [a + b for a, b in zip(s1, s2)]
    total = fsum(rs)
    ps = fsum(s1) / total if total != 0.0 else 0.5
    n = [sqrt(r) for r in rs]
    if total == 0.0 or ps <= 0.0 or ps >= 1.0:
        cf = [0.0] * len(rs)
    else:
        # A tiny RS (around 1e-200 and below) can underflow the product
        # to 0; the factored root then keeps the denominator nonzero.
        cf = [0.0 if r == 0.0 else
              (ps * r - v) / (sqrt(r * ps * (1.0 - ps)) or sqrt(r) * sqrt(ps * (1.0 - ps)))
              for v, r in zip(s1, rs)]
    denom = fsum(n)
    sd = fsum([c * c * w for c, w in zip(cf, n)]) / denom if denom != 0.0 else 0.0
    return rs, ps, cf, n, sd, 1.0 / (1.0 + log1p(sd))


def spsi(s1, s2) -> float:
    """The similarity indicator for two equal-length value sequences.

    Operands are ordered canonically before evaluation so that
    spsi(a, b) and spsi(b, a) return the identical float.
    """
    a = list(s1)
    b = list(s2)
    _check_pair(a, b)
    if b < a:
        a, b = b, a
    return _evaluate(a, b)[-1]


def score(s1: SentimentSeries, s2: SentimentSeries, ratio_limit: float = 0.3) -> float:
    """SPSI of two series after aligning them to a common length.

    Every pairwise score of the pipeline (matrix, clustering, catalogue
    distances and search) goes through here.
    """
    a, b = align_lengths(s1, s2, ratio_limit)
    return spsi(a.values(), b.values())


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
    a = list(s1)
    b = list(s2)
    _check_pair(a, b)
    rs, ps, cf, n, sd, _ = _evaluate(a, b)
    return SpsiBreakdown(rs=rs, ps=ps, cf=cf, n=n, sd=sd, spsi=spsi(a, b))


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


def spsi_matrix(series_list, ratio_limit: float = 0.3) -> SimilarityMatrix:
    """All-pairs SPSI with pairwise alignment to a common length."""
    if len(series_list) < 2:
        raise DegenerateSeries("need at least 2 series for a matrix")
    n = len(series_list)
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            try:
                value = score(series_list[i], series_list[j], ratio_limit)
            except (LengthMismatch, DegenerateSeries) as exc:
                raise type(exc)(
                    f"pair ({series_list[i].book_id}, {series_list[j].book_id}): {exc}"
                ) from exc
            values[i][j] = value
            values[j][i] = value
    return SimilarityMatrix(book_ids=[s.book_id for s in series_list], values=values)


def write_matrix_csv(matrix: SimilarityMatrix, path) -> None:
    """Export with a book_id header row/column, values to 6 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["book_id"] + list(matrix.book_ids))
        for book_id, row in zip(matrix.book_ids, matrix.values):
            writer.writerow([book_id] + [f"{v:.6f}" for v in row])


def read_matrix_csv(path) -> SimilarityMatrix:
    """Read a square similarity matrix with a book_id header row/column."""
    from .errors import FormatError

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and "".join(row).strip()]
    if len(rows) < 2:
        raise FormatError(f"{path}: empty matrix")
    ids = [c.strip() for c in rows[0][1:]]
    n = len(ids)
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
