import random

import pytest

from arcindex.errors import DegenerateSeries, FormatError, TooFewPivots
from arcindex.pivots import PivotPoint
from arcindex.series import (INTERPOLATED, PRIMARY, SECONDARY, ContextBlock,
                             SentimentSeries, SeriesPoint, align_lengths,
                             build_series, export_series_csv, read_series_csv,
                             resample_secondary)


def _pivot(block, position, sv):
    return PivotPoint(block_index=block, position=position, sv=sv,
                      participants=frozenset({"A", "B"}), occurrence_weight=1.0)


def _series(book_id, positions, values, provenance=None):
    provenance = provenance or [PRIMARY] * len(positions)
    points = [SeriesPoint(p, v, pr)
              for p, v, pr in zip(positions, values, provenance)]
    return SentimentSeries(book_id=book_id, points=points)


def test_build_series_orders_points_by_position():
    pivots = [_pivot(2, 0.2, 0.6), _pivot(5, 0.5, 0.8), _pivot(9, 0.9, 0.3)]
    s = build_series("bk", pivots)
    assert s.positions() == [0.2, 0.5, 0.9]
    assert s.values() == [0.6, 0.8, 0.3]
    assert all(p.provenance == PRIMARY for p in s.points)


def test_build_series_needs_two_pivots():
    with pytest.raises(TooFewPivots):
        build_series("bk", [_pivot(2, 0.2, 0.6)])


def test_equal_lengths_pass_through_unchanged():
    a = _series("a", [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    b = _series("b", [0.0, 0.5, 1.0], [0.4, 0.5, 0.6])
    ra, rb = align_lengths(a, b)
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
    ra, rb = align_lengths(longer, shorter)
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
    ra, _ = align_lengths(a, b)
    mid = ra.points[1]
    assert mid.position == 0.5
    assert mid.value == pytest.approx(0.5)
    assert mid.provenance == INTERPOLATED


def test_gap_ties_split_the_earliest_gap():
    a = _series("a", [0.0, 0.5, 1.0], [0.3, 0.6, 0.9])
    b = _series("b", [0.0, 0.25, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4])
    # a's gaps tie at 0.5; the first one splits.
    ra, _ = align_lengths(a, b)
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
        ra, rb = align_lengths(a, b)
        assert len(ra) == len(rb) == n_long
        assert ra is a
        kept = [(p.position, p.value, p.provenance) for p in rb.points
                if p.provenance == PRIMARY]
        assert kept == [(p.position, p.value, p.provenance) for p in b.points]
        added = [p for p in rb.points if p.provenance != PRIMARY]
        assert len(added) == n_long - n_short
        assert all(p.provenance == INTERPOLATED for p in added)
        pos = rb.positions()
        assert pos == sorted(pos)


def test_large_deficit_routes_through_secondary_resampling(monkeypatch):
    import arcindex.series as series_mod

    calls = []
    original = series_mod.resample_secondary

    def spy(series, deficit):
        calls.append(deficit)
        return original(series, deficit)

    monkeypatch.setattr(series_mod, "resample_secondary", spy)
    a = _series("a", [i / 9 for i in range(10)], [0.5] * 10)
    b = _series("b", [0.0, 0.4, 1.0], [0.2, 0.9, 0.3])
    ra, rb = align_lengths(a, b)
    assert calls == [7]
    assert len(ra) == len(rb) == 10


def test_secondary_points_come_from_interacting_blocks():
    context = [
        ContextBlock(position=0.1, value=0.9, smoothed=0.85, interacting=False),
        ContextBlock(position=0.2, value=0.8, smoothed=0.7, interacting=True),
        ContextBlock(position=0.3, value=0.4, smoothed=0.5, interacting=True),
    ]
    s = SentimentSeries(
        book_id="bk",
        points=[SeriesPoint(0.0, 0.2), SeriesPoint(0.5, 0.6), SeriesPoint(1.0, 0.4)],
        context=context,
    )
    grown = resample_secondary(s, deficit=1)
    added = [p for p in grown.points if p.provenance == SECONDARY]
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
    grown = resample_secondary(s, deficit=1)
    assert len(grown) == 3
    assert grown.points[1].provenance == INTERPOLATED
    assert grown.points[1].position == 0.5


def test_alignment_rejects_single_point_series():
    a = _series("a", [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
    b = SentimentSeries(book_id="b", points=[SeriesPoint(0.5, 0.5)])
    with pytest.raises(DegenerateSeries):
        align_lengths(a, b)


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


def test_series_csv_rejects_non_numeric_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,low\n1.0,0.8\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_series_csv(path)
