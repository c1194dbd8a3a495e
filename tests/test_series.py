import copy
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcindex.catalogue import build_catalogue, load, save
from arcindex.clustering import Cluster
from arcindex.config import PipelineConfig
from arcindex.errors import DegenerateSeries, FormatError, TooFewPivots
from arcindex.pivots import PivotPoint
from arcindex.series import (INTERPOLATED, PRIMARY, SECONDARY, SentimentSeries,
                             SeriesPoint, _grow, align_lengths, build_series,
                             export_series_csv, read_series_csv)
from oracle_reference import ref_checked_points, ref_resample_secondary

RATIO = PipelineConfig().length_ratio_limit


def _pivot(block, position, sv):
    return PivotPoint(block_index=block, position=position, sv=sv,
                      participants=frozenset({"A", "B"}), occurrence_weight=1.0)


def _series(book_id, positions, values, provenance=None):
    provenance = provenance or [PRIMARY] * len(positions)
    points = [SeriesPoint(p, v, pr)
              for p, v, pr in zip(positions, values, provenance)]
    return SentimentSeries(book_id=book_id, points=points)


def test_a_point_is_an_immutable_value():
    point = SeriesPoint(0.25, 0.5)
    assert point.provenance == PRIMARY
    assert repr(point) == "SeriesPoint(position=0.25, value=0.5, provenance='primary')"
    with pytest.raises(AttributeError):
        point.value = 0.75
    assert copy.deepcopy(point) == point
    assert hash(SeriesPoint(0.25, 0.5, PRIMARY)) == hash(point)
    assert point != SeriesPoint(0.25, 0.5, INTERPOLATED)


def test_build_series_orders_points_by_position():
    pivots = [_pivot(2, 0.2, 0.6), _pivot(5, 0.5, 0.8), _pivot(9, 0.9, 0.3)]
    s = build_series("bk", pivots)
    assert [p.position for p in s.points] == [0.2, 0.5, 0.9]
    assert s.values() == [0.6, 0.8, 0.3]
    assert all(p.provenance == PRIMARY for p in s.points)


def test_build_series_needs_two_pivots():
    with pytest.raises(TooFewPivots):
        build_series("bk", [_pivot(2, 0.2, 0.6)])


def test_equal_lengths_pass_through_unchanged():
    a = _series("a", [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    b = _series("b", [0.0, 0.5, 1.0], [0.4, 0.5, 0.6])
    ra, rb = align_lengths(a, b, RATIO)
    assert ra is a and rb is b


def test_alignment_fills_two_largest_gaps():
    # Shorter series has gaps 0.30 and 0.22; each half of the split
    # first gap (0.15) is below the second gap, so one interpolated
    # point lands in each.
    long_vals = [0.5] * 10
    longer = _series("long", [i / 9 for i in range(10)], long_vals)
    positions = [0.0, 0.30, 0.52, 0.60, 0.68, 0.76, 0.88, 1.0]
    values = [0.2, 0.4, 0.6, 0.5, 0.4, 0.3, 0.7, 0.8]
    shorter = _series("short", positions, values)
    ra, rb = align_lengths(longer, shorter, RATIO)
    assert len(ra) == len(rb) == 10
    added = [p for p in rb.points if p.provenance == INTERPOLATED]
    assert len(added) == 2
    first, second = sorted(p.position for p in added)
    assert 0.0 < first < 0.30
    assert 0.30 < second < 0.52
    # original points untouched, order preserved
    kept = [(p.position, p.value) for p in rb.points if p.provenance == PRIMARY]
    assert kept == list(zip(positions, values))


def test_interpolated_point_takes_midpoint_value():
    a = _series("a", [0.0, 1.0], [0.2, 0.8])
    b = _series("b", [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    ra, _ = align_lengths(a, b, RATIO)
    mid = ra.points[1]
    assert mid.position == 0.5
    assert mid.value == pytest.approx(0.5)
    assert mid.provenance == INTERPOLATED


def test_gap_ties_split_the_earliest_gap():
    a = _series("a", [0.0, 0.5, 1.0], [0.3, 0.6, 0.9])
    b = _series("b", [0.0, 0.25, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4])
    # a's gaps tie at 0.5; the first one splits.
    ra, _ = align_lengths(a, b, RATIO)
    assert ra.points[1].position == 0.25


def test_random_pairs_align_without_touching_originals():
    rng = random.Random(77)
    for _ in range(500):
        n_long = rng.randint(4, 16)
        min_short = max(2, -(-7 * n_long // 10))   # ratio <= 30%
        n_short = rng.randint(min_short, n_long - 1)

        def positions(n):
            grid = rng.sample(range(1000), n - 2) if n > 2 else []
            pos = [0.0, 1.0] + [g / 1000 + 0.0005 for g in grid]
            return sorted(set(pos))

        p_long = positions(n_long)
        while len(p_long) < n_long:
            p_long = positions(n_long)
        p_short = positions(n_short)
        while len(p_short) < n_short:
            p_short = positions(n_short)
        a = _series("a", p_long, [rng.random() for _ in p_long])
        b = _series("b", p_short, [rng.random() for _ in p_short])
        ra, rb = align_lengths(a, b, RATIO)
        assert len(ra) == len(rb) == n_long
        assert ra is a
        kept = [(p.position, p.value, p.provenance) for p in rb.points
                if p.provenance == PRIMARY]
        assert kept == [(p.position, p.value, p.provenance) for p in b.points]
        added = [p for p in rb.points if p.provenance != PRIMARY]
        assert len(added) == n_long - n_short
        assert all(p.provenance == INTERPOLATED for p in added)
        pos = [p.position for p in rb.points]
        assert pos == sorted(pos)


def test_large_deficit_routes_through_secondary_resampling():
    a = _series("a", [i / 9 for i in range(10)], [0.5] * 10)
    b = _series("b", [0.0, 0.4, 1.0], [0.2, 0.9, 0.3])
    b.context = [(0.7, 0.8), (0.2, 0.6), (0.9, 0.4), (0.55, 0.5)]
    blocks = {position for position, _ in b.context}
    # 7 of 10 points missing is above the ratio: context blocks are promoted.
    ra, rb = align_lengths(a, b, RATIO)
    assert len(ra) == len(rb) == 10
    secondary = [p.position for p in rb.points if p.provenance == SECONDARY]
    assert secondary and set(secondary) <= blocks
    # Within the ratio the same series only gains midpoints.
    _, rb = align_lengths(a, b, 0.8)
    assert len(rb) == 10
    assert {p.provenance for p in rb.points} == {PRIMARY, INTERPOLATED}


def _ranked(blocks):
    """A context from (position, value, smoothed, interacting) blocks."""
    return [(b[0], b[1]) for b in sorted(blocks, key=lambda b: (-b[2], b[0])) if b[3]]


def test_secondary_points_come_from_interacting_blocks():
    blocks = [(0.1, 0.9, 0.85, False), (0.2, 0.8, 0.7, True), (0.3, 0.4, 0.5, True)]
    s = SentimentSeries(
        book_id="bk",
        points=[SeriesPoint(0.0, 0.2), SeriesPoint(0.5, 0.6), SeriesPoint(1.0, 0.4)],
        context=_ranked(blocks),
    )
    assert s.context == [(0.2, 0.8), (0.3, 0.4)]
    grown = _grow(s.points, len(s) + 1, s.context)
    added = [p for p in grown if p.provenance == SECONDARY]
    assert len(added) == 1
    # the interacting block with the highest smoothed value wins
    assert added[0].position == 0.2
    # value blends the block sentiment with the primary straight line
    baseline = 0.2 + (0.2 - 0.0) / (0.5 - 0.0) * (0.6 - 0.2)
    assert added[0].value == pytest.approx((0.8 + baseline) / 2.0)


def test_secondary_resampling_falls_back_to_midpoints():
    s = SentimentSeries(
        book_id="bk",
        points=[SeriesPoint(0.0, 0.2), SeriesPoint(1.0, 0.8)],
        context=[],
    )
    grown = _grow(s.points, len(s) + 1, s.context)
    assert len(grown) == 3
    assert grown[1].provenance == INTERPOLATED
    assert grown[1].position == 0.5


@st.composite
def _series_with_context(draw, book_id):
    """2-14 points on a 1/1000 grid, with 75 context blocks as a book has."""
    n = draw(st.integers(min_value=2, max_value=14))
    grid = draw(st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.integers(min_value=0, max_value=100),
                           min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    blocks = [(b / 74, rng.randint(0, 10) / 10, rng.randint(0, 20) / 20, rng.random() < 0.3)
              for b in range(75)]
    points = [SeriesPoint(g / 1000, v / 100) for g, v in zip(sorted(grid), values)]
    return SentimentSeries(book_id=book_id, points=points, context=_ranked(blocks))


@st.composite
def _points_and_blocks(draw):
    """2-14 points and 75 blocks; some points sit at block positions.

    Smoothed values come from five levels, so ties are common, and the
    points are a mix of primary and interpolated ones.
    """
    position = st.one_of(st.integers(0, 1000).map(lambda g: g / 1000),
                         st.integers(0, 74).map(lambda b: b / 74))
    positions = sorted(set(draw(st.lists(position, min_size=2, max_size=14))))
    if len(positions) < 2:
        positions = [0.0, 1.0]
    points = [(p, draw(st.integers(0, 100)) / 100,
               draw(st.sampled_from([PRIMARY, PRIMARY, INTERPOLATED])))
              for p in positions]
    blocks = [(b / 74, draw(st.integers(0, 10)) / 10, draw(st.integers(0, 4)) / 4,
               draw(st.booleans()))
              for b in range(75)]
    return points, blocks


@settings(max_examples=300, deadline=None)
@given(case=_points_and_blocks(), deficit=st.integers(min_value=0, max_value=14))
def test_ranked_context_resamples_like_the_full_block_reference(case, deficit):
    points, blocks = case
    series = SentimentSeries(book_id="bk", points=[SeriesPoint(*p) for p in points],
                             context=_ranked(blocks))
    grown = _grow(series.points, len(series) + deficit, series.context)
    assert [(p.position, p.value, p.provenance) for p in grown] == \
        ref_resample_secondary(points, blocks, deficit)


def _fresh_growth(shorter, target, ratio_limit):
    """What alignment grows, computed without the memo."""
    promoted = (target - len(shorter)) / target > ratio_limit
    return _grow(shorter.points, target, shorter.context if promoted else ())


@settings(max_examples=300, deadline=None)
@given(a=_series_with_context("a"), b=_series_with_context("b"),
       limits=st.permutations([0.1, 0.3, 0.6]))
def test_repeated_alignment_returns_a_fresh_growth(a, b, limits):
    target = max(len(a), len(b))
    expected = {s.book_id: {limit: _fresh_growth(s, target, limit) for limit in limits}
                for s in (a, b)}
    originals = {s.book_id: list(s.points) for s in (a, b)}
    for _ in range(2):
        for limit in limits:
            for s1, s2 in ((a, b), (b, a)):
                r1, r2 = align_lengths(s1, s2, limit)
                assert r1.points == expected[s1.book_id][limit]
                assert r2.points == expected[s2.book_id][limit]
    assert {s.book_id: s.points for s in (a, b)} == originals


def test_alignment_memo_stays_out_of_equality_and_repr():
    longer = _series("long", [i / 11 for i in range(12)], [0.5] * 12)
    shorter = _series("short", [0.0, 0.4, 1.0], [0.2, 0.9, 0.3])
    twin = _series("short", [0.0, 0.4, 1.0], [0.2, 0.9, 0.3])
    before = repr(shorter)
    _, grown = align_lengths(longer, shorter, RATIO)
    assert align_lengths(longer, shorter, RATIO)[1] is grown
    assert shorter == twin
    assert repr(shorter) == before


def test_alignment_rejects_single_point_series():
    # A series of fewer than 2 points cannot be made, so none reaches alignment.
    with pytest.raises(DegenerateSeries, match=r"^b: 1 point\(s\), need at least 2$"):
        SentimentSeries(book_id="b", points=[SeriesPoint(0.5, 0.5)])
    with pytest.raises(DegenerateSeries, match=r"^b: 0 point\(s\), need at least 2$"):
        SentimentSeries(book_id="b", points=[])


# Floats a series must refuse or keep exactly: NaN, infinities, negatives,
# signed zero, subnormals, and a repeated position.
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-300, -0.0, 0.0,
                               5e-324, 2.2e-308, 0.5])
_FLOATS = st.one_of(st.floats(0.0, 1.0), _ODD_FLOATS, st.floats())


@st.composite
def _raw_points(draw):
    """0-14 (position, value) pairs, their positions sorted or not."""
    n = draw(st.integers(min_value=0, max_value=14))
    positions = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    if draw(st.booleans()):
        positions.sort()
    return list(zip(positions, draw(st.lists(_FLOATS, min_size=n, max_size=n))))


@settings(max_examples=500, deadline=None)
@given(points=_raw_points())
def test_a_series_checks_its_points_as_the_reference_does(points):
    try:
        ref_checked_points([{"position": p, "value": v} for p, v in points])
    except ValueError as exc:
        with pytest.raises(DegenerateSeries) as excinfo:
            SentimentSeries(book_id="bk", points=[SeriesPoint(p, v) for p, v in points])
        assert str(excinfo.value) == f"bk: {exc}"
        return
    s = SentimentSeries(book_id="bk", points=[SeriesPoint(p, v) for p, v in points])
    assert type(s._values) is tuple and s._values == tuple(s.values())
    assert s._fsum == math.fsum(s.values())


def test_series_csv_round_trip(tmp_path):
    s = _series("bk", [0.0, 0.25, 1.0], [0.1, 0.5, 0.9],
                [PRIMARY, INTERPOLATED, PRIMARY])
    path = tmp_path / "series.csv"
    export_series_csv(s, path)
    back = read_series_csv(path, book_id="bk")
    assert back.book_id == "bk"
    assert [(p.position, p.value, p.provenance) for p in back.points] == \
           [(p.position, p.value, p.provenance) for p in s.points]


def test_series_csv_accepts_two_columns(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0.0,0.2\n0.5,0.8\n1.0,0.4\n", encoding="utf-8")
    s = read_series_csv(path)
    assert len(s) == 3
    assert all(p.provenance == PRIMARY for p in s.points)


def test_series_csv_rejects_unsorted_positions(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.2\n0.1,0.8\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_series_csv(path)


@pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,0.3", "0.5,-1e999"])
def test_series_csv_rejects_non_finite_numbers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"0.0,0.2\n{row}\n1.0,0.8\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_series_csv(path)


def test_series_csv_rejects_negative_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.6\n0.5,-0.5\n1.0,0.3\n", encoding="utf-8")
    with pytest.raises(FormatError, match="negative"):
        read_series_csv(path)


def test_series_csv_rejects_non_numeric_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("position,value\n0.0,0.2\nhalf,0.5\n1.0,0.8\n", encoding="utf-8")
    with pytest.raises(FormatError, match="row 3: non-numeric"):
        read_series_csv(path)


def _load_stored_points(tmp_path, rows):
    """The series of a saved one-book catalogue whose stored points are rows.

    The catalogue's loader is where stored points get their type test.
    """
    series = _series("bk", [0.0, 1.0], [0.2, 0.4])
    catalogue = build_catalogue([Cluster("bk", ["bk"], series)], {"bk": series},
                                PipelineConfig(), {})
    path = tmp_path / "catalogue.json"
    save(catalogue, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["entries"][0]["series"] = rows
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load(path).entry("bk").series


@pytest.mark.parametrize("bad", ["0.2", True, None, [0.2]],
                         ids=["string", "bool", "null", "list"])
@pytest.mark.parametrize("field", ["position", "value"])
def test_checked_points_take_numbers_only(tmp_path, bad, field):
    rows = [{"position": 0.0, "value": 0.2}, {"position": 1.0, "value": 0.4}]
    rows[1][field] = bad
    with pytest.raises(FormatError, match="'bk': point 2: non-numeric") as excinfo:
        _load_stored_points(tmp_path, rows)
    assert str(tmp_path / "catalogue.json") in str(excinfo.value)


def test_checked_points_read_ints_as_floats(tmp_path):
    series = _load_stored_points(tmp_path, [{"position": 0, "value": 1},
                                            {"position": 1, "value": 0}])
    assert [(p.position, p.value) for p in series.points] == [(0.0, 1.0), (1.0, 0.0)]
    assert all(type(p.position) is float and type(p.value) is float for p in series.points)
    assert all(type(v) is float for v in series._values)
