"""Sentiment progression series: construction, alignment, resampling.

A series is the ordered list of (narrative position, sentiment value)
points taken at a book's pivot points. Two series are only comparable at
equal lengths; the shorter one is padded by interpolation when the
length difference is small, and by promoting secondary pivots from the
originating book when it is large.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DegenerateSeries, FormatError, TooFewPivots

PRIMARY = "primary"
INTERPOLATED = "interpolated"
SECONDARY = "secondary-pivot"

_PROVENANCE = (PRIMARY, INTERPOLATED, SECONDARY)


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    position: float
    value: float
    provenance: str = PRIMARY


@dataclass(frozen=True, slots=True)
class ContextBlock:
    """One logical block of the originating book, kept for resampling."""
    position: float
    value: float        # raw block sentiment
    smoothed: float
    interacting: bool


@dataclass
class SentimentSeries:
    book_id: str
    points: list
    # Block-level context from the source book; not persisted and not
    # part of equality, only consulted when promoting secondary pivots.
    context: list | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def positions(self) -> list:
        return [p.position for p in self.points]

    def values(self) -> list:
        return [p.value for p in self.points]


def build_series(book_id: str, pivots) -> SentimentSeries:
    """One primary point per pivot, in narrative order."""
    if len(pivots) < 2:
        raise TooFewPivots(f"{book_id}: {len(pivots)} pivot(s), need at least 2")
    points = [SeriesPoint(p.position, p.sv, PRIMARY) for p in pivots]
    return SentimentSeries(book_id=book_id, points=points)


def _largest_gap(points) -> int:
    """Index i of the widest (points[i], points[i+1]) gap; ties earliest."""
    best_i = 0
    best_gap = -1.0
    for i in range(len(points) - 1):
        gap = points[i + 1].position - points[i].position
        if gap > best_gap:
            best_gap = gap
            best_i = i
    return best_i


def _lerp(lo, hi, position: float) -> float:
    span = hi.position - lo.position
    if span <= 0.0:
        return (lo.value + hi.value) / 2.0
    t = (position - lo.position) / span
    return lo.value + t * (hi.value - lo.value)


def _insert_midpoint(points) -> list:
    i = _largest_gap(points)
    lo, hi = points[i], points[i + 1]
    mid = (lo.position + hi.position) / 2.0
    if not lo.position < mid < hi.position:
        raise DegenerateSeries("gap too narrow to split")
    value = _lerp(lo, hi, mid)
    return points[:i + 1] + [SeriesPoint(mid, value, INTERPOLATED)] + points[i + 1:]


def _primary_bounds(points, position: float):
    """The nearest primary points strictly left and right of position."""
    left = right = None
    for p in points:
        if p.provenance != PRIMARY:
            continue
        if p.position < position:
            left = p
        elif p.position > position and right is None:
            right = p
    return left, right


def resample_secondary(series: SentimentSeries, deficit: int) -> SentimentSeries:
    """Grow a series by promoting secondary pivots from its source book.

    Each inserted point is the interacting block with the highest
    smoothed sentiment strictly inside the current widest gap. Its value
    is the average of the block's own sentiment and the straight-line
    value between the bracketing primary pivots. Gaps with no eligible
    block fall back to midpoint interpolation.
    """
    if deficit <= 0:
        return series
    points = list(series.points)
    context = series.context or []
    for _ in range(deficit):
        i = _largest_gap(points)
        lo, hi = points[i], points[i + 1]
        used = {p.position for p in points}
        candidates = [
            cb for cb in context
            if cb.interacting and lo.position < cb.position < hi.position
            and cb.position not in used
        ]
        if candidates:
            chosen = max(candidates, key=lambda cb: (cb.smoothed, -cb.position))
            p_left, p_right = _primary_bounds(points, chosen.position)
            if p_left is None or p_right is None:
                baseline = _lerp(lo, hi, chosen.position)
            else:
                baseline = _lerp(p_left, p_right, chosen.position)
            value = (chosen.value + baseline) / 2.0
            points = points[:i + 1] + [SeriesPoint(chosen.position, value, SECONDARY)] + points[i + 1:]
        else:
            points = _insert_midpoint(points)
    return SentimentSeries(book_id=series.book_id, points=points, context=series.context)


def align_lengths(s1: SentimentSeries, s2: SentimentSeries,
                  ratio_limit: float = 0.3):
    """Equalize two series to the longer length.

    Existing points are never touched. When the length difference ratio
    is within ``ratio_limit`` the shorter series gains interpolated
    midpoints of its widest gaps; beyond that, secondary pivots from the
    source book are promoted first.
    """
    if len(s1) == len(s2):
        return s1, s2
    if len(s1) < 2 or len(s2) < 2:
        raise DegenerateSeries("cannot align a series with fewer than 2 points")
    longer, shorter = (s1, s2) if len(s1) > len(s2) else (s2, s1)
    target = len(longer)
    ratio = (target - len(shorter)) / target
    if ratio > ratio_limit:
        shorter = resample_secondary(shorter, deficit=target - len(shorter))
    points = list(shorter.points)
    while len(points) < target:
        points = _insert_midpoint(points)
    grown = SentimentSeries(book_id=shorter.book_id, points=points,
                            context=shorter.context)
    return (s1, grown) if longer is s1 else (grown, s2)


def export_series_csv(series: SentimentSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "value", "provenance"])
        for p in series.points:
            writer.writerow([repr(p.position), repr(p.value), p.provenance])


def read_series_csv(path, book_id: str | None = None) -> SentimentSeries:
    """Read ``position,value[,provenance]`` rows; header optional."""
    path = Path(path)
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if row_no == 1 and row[0].strip().lower() == "position":
                continue
            if len(row) not in (2, 3):
                raise FormatError(f"{path}: row {row_no}: expected 2 or 3 columns")
            try:
                position = float(row[0])
                value = float(row[1])
            except ValueError:
                raise FormatError(f"{path}: row {row_no}: non-numeric position/value")
            if not (math.isfinite(position) and math.isfinite(value)):
                raise FormatError(f"{path}: row {row_no}: non-finite position/value")
            provenance = row[2].strip() if len(row) == 3 else PRIMARY
            if provenance not in _PROVENANCE:
                raise FormatError(f"{path}: row {row_no}: unknown provenance {provenance!r}")
            points.append(SeriesPoint(position, value, provenance))
    if len(points) < 2:
        raise FormatError(f"{path}: need at least 2 points")
    for a, b in zip(points, points[1:]):
        if b.position <= a.position:
            raise FormatError(f"{path}: positions must strictly increase")
    return SentimentSeries(book_id=book_id or path.stem, points=points)
