"""Sentiment progression series: construction and alignment.

A series is the ordered list of (narrative position, sentiment value)
points taken at a book's pivot points. Two series are only comparable at
equal lengths, so the shorter one grows by splitting its widest gap, one
point at a time: with a secondary pivot from the originating book when
the length difference is large and such a pivot lies in the gap, and
with the gap's midpoint otherwise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import fsum, inf, isfinite
from operator import lt
from pathlib import Path
from typing import NamedTuple

from .errors import DegenerateSeries, FormatError, TooFewPivots
from .ingest import _csv_rows

PRIMARY = "primary"
INTERPOLATED = "interpolated"
SECONDARY = "secondary-pivot"

_PROVENANCE = (PRIMARY, INTERPOLATED, SECONDARY)


class SeriesPoint(NamedTuple):
    """One point of a series.

    A named tuple: it is cheap to make, it cannot change, and it equals
    the plain tuple of its fields.
    """
    position: float
    value: float
    provenance: str = PRIMARY


@dataclass
class SentimentSeries:
    """A book's progression series, checked when it is made.

    A series has at least 2 points, every position and value is finite,
    no value is negative and positions strictly increase; otherwise
    construction raises ``DegenerateSeries`` naming the book and the
    first bad point. The series then keeps its values as a tuple with
    their ``fsum``, which ``similarity.score`` reads, and
    ``align_lengths`` keeps every copy it grows from it. So a series is
    a value: do not mutate ``points`` or ``context``. ``values()``
    still builds a fresh list from ``points``.
    """
    book_id: str
    points: list
    # The source book's blocks where the predominant pair interacts, as
    # (position, block sentiment) tuples ranked best first: highest
    # smoothed sentiment, then earliest block. Only consulted when
    # promoting secondary pivots; not persisted, not part of equality.
    context: list | None = field(default=None, compare=False, repr=False)
    # Grown copies keyed by (target length, promoted); see align_lengths.
    _grown: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # The values as a tuple and their fsum, taken when the series is made.
    _values: tuple = field(init=False, compare=False, repr=False)
    _fsum: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        positions = [p.position for p in self.points]
        # A tuple, not a list: CPython's GC stops tracking a tuple of floats,
        # so the kept values add no collection work.
        values = tuple([p.value for p in self.points])
        # Positions that strictly increase between finite ends are all finite:
        # a NaN fails every comparison.
        if not (len(values) >= 2 and all(map(isfinite, values)) and min(values) >= 0.0
                and isfinite(positions[0]) and isfinite(positions[-1])
                and all(map(lt, positions, positions[1:]))):
            raise DegenerateSeries(f"{self.book_id}: {_fault(self.points)}")
        self._values, self._fsum = values, fsum(values)

    def __len__(self) -> int:
        return len(self.points)

    def values(self) -> list:
        return [p.value for p in self.points]


def _fault(points) -> str:
    """The first thing wrong with points that a series refuses."""
    last = -inf
    for i, p in enumerate(points, start=1):
        if not (isfinite(p.position) and isfinite(p.value)):
            return f"point {i}: non-finite position/value"
        if p.value < 0.0:
            return f"point {i}: negative value {p.value}"
        if p.position <= last:
            return f"point {i}: positions must strictly increase"
        last = p.position
    return f"{len(points)} point(s), need at least 2"


def build_series(book_id: str, pivots, context=None) -> SentimentSeries:
    """One primary point per pivot, in narrative order, with the book's context."""
    if len(pivots) < 2:
        raise TooFewPivots(f"{book_id}: {len(pivots)} pivot(s), need at least 2")
    points = [SeriesPoint(p.position, p.sv, PRIMARY) for p in pivots]
    return SentimentSeries(book_id=book_id, points=points, context=context)


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
    """Callers pass lo.position < position < hi.position."""
    t = (position - lo.position) / (hi.position - lo.position)
    return lo.value + t * (hi.value - lo.value)


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


def _grow(points, target: int, context) -> list:
    """A copy of points grown to target points, one point per widest gap.

    Each step splits the widest gap, ties to the earliest. The first
    ``context`` block strictly inside it becomes a secondary point,
    valued at the mean of the block's own sentiment and the straight
    line between the nearest primary points either side of it, or
    between the gap's ends when a side has none. A gap with no such
    block gets an interpolated point at its midpoint. The gap lies
    between adjacent points, so no point sits there yet.
    """
    points = list(points)
    while len(points) < target:
        i = _largest_gap(points)
        lo, hi = points[i], points[i + 1]
        chosen = next((block for block in context
                       if lo.position < block[0] < hi.position), None)
        if chosen is None:
            mid = (lo.position + hi.position) / 2.0
            if not lo.position < mid < hi.position:
                raise DegenerateSeries("gap too narrow to split")
            point = SeriesPoint(mid, _lerp(lo, hi, mid), INTERPOLATED)
        else:
            position, block_value = chosen
            left, right = _primary_bounds(points, position)
            if left is None or right is None:
                left, right = lo, hi
            value = (block_value + _lerp(left, right, position)) / 2.0
            point = SeriesPoint(position, value, SECONDARY)
        points.insert(i + 1, point)
    return points


def align_lengths(s1: SentimentSeries, s2: SentimentSeries, ratio_limit: float):
    """Equalize two series to the longer length.

    Existing points are never touched. When the length difference ratio
    is within ``ratio_limit`` the shorter series gains interpolated
    midpoints of its widest gaps; beyond that, secondary pivots from the
    source book's context are promoted where they fall in a widest gap.

    The grown copy depends only on the shorter series, the target length
    and whether promotion applies, so it is kept on the shorter series
    under that key and later alignments to the same length look it up.
    """
    n1, n2 = len(s1.points), len(s2.points)
    if n1 == n2:
        return s1, s2
    longer, shorter = (s1, s2) if n1 > n2 else (s2, s1)
    target = len(longer)
    promoted = (target - len(shorter)) / target > ratio_limit
    grown = shorter._grown.get((target, promoted))
    if grown is None:
        context = (shorter.context or ()) if promoted else ()
        grown = SentimentSeries(book_id=shorter.book_id,
                                points=_grow(shorter.points, target, context),
                                context=shorter.context)
        shorter._grown[(target, promoted)] = grown
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
    for row_no, row in _csv_rows(path):
        if row_no == 1 and row[0].strip().lower() == "position":
            continue
        if len(row) not in (2, 3):
            raise FormatError(f"{path}: row {row_no}: expected 2 or 3 columns")
        provenance = row[2].strip() if len(row) == 3 else PRIMARY
        if provenance not in _PROVENANCE:
            raise FormatError(f"{path}: row {row_no}: unknown provenance {provenance!r}")
        try:
            points.append(SeriesPoint(float(row[0]), float(row[1]), provenance))
        except ValueError:
            raise FormatError(f"{path}: row {row_no}: non-numeric position/value") from None
    try:
        return SentimentSeries(book_id=book_id or path.stem, points=points)
    except DegenerateSeries as exc:
        raise FormatError(f"{path}: {exc}") from None
