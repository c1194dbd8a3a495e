import copy
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcindex.config import PipelineConfig
from arcindex.errors import DegenerateSeries, LengthMismatch
from arcindex.series import SentimentSeries, SeriesPoint, align_lengths
from arcindex.similarity import (SimilarityMatrix, read_matrix_csv, score, spsi,
                                 spsi_breakdown, spsi_matrix, write_matrix_csv)
from oracle_reference import ref_spsi, ref_spsi_parts
from reference_data import (CLOSED_FORM_SPSI, EXPECTED_PS, EXPECTED_SD,
                            EXPECTED_SPSI, SERIES_A, SERIES_B)

RATIO = PipelineConfig().length_ratio_limit


def test_identical_series_score_exactly_one():
    rng = random.Random(11)
    for _ in range(50):
        s = [rng.random() for _ in range(rng.randint(2, 16))]
        assert spsi(s, s) == 1.0


def test_symmetry_is_bit_exact():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(2, 16)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        assert spsi(a, b) == spsi(b, a)


def test_scores_stay_in_half_open_unit_interval():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 16)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        v = spsi(a, b)
        assert 0.0 < v <= 1.0


def test_closed_form_antisymmetric_pair():
    assert spsi([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0 / (1.0 + math.log(2.0)), abs=1e-12)
    assert spsi([1.0, 0.0], [0.0, 1.0]) == pytest.approx(CLOSED_FORM_SPSI, abs=1e-12)


def test_reference_series_match_straight_line_oracle():
    br = spsi_breakdown(SERIES_A, SERIES_B)
    ps, sd, value = ref_spsi_parts(SERIES_A, SERIES_B)
    assert br.ps == pytest.approx(ps, abs=1e-12)
    assert br.sd == pytest.approx(sd, abs=1e-12)
    assert br.spsi == pytest.approx(value, abs=1e-12)
    assert br.ps == pytest.approx(EXPECTED_PS, abs=1e-12)
    assert br.sd == pytest.approx(EXPECTED_SD, abs=1e-12)
    assert br.spsi == pytest.approx(EXPECTED_SPSI, abs=1e-12)


def test_random_pairs_match_oracle():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(2, 16)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        assert spsi(a, b) == pytest.approx(ref_spsi(a, b), abs=1e-9)


def test_breakdown_exposes_intermediates():
    br = spsi_breakdown([1.0, 0.0], [0.0, 1.0])
    assert br.rs == [1.0, 1.0]
    assert br.ps == pytest.approx(0.5)
    assert br.cf == pytest.approx([-1.0, 1.0])
    assert br.n == pytest.approx([1.0, 1.0])
    assert br.sd == pytest.approx(1.0)


def test_both_all_zero_series_are_identical():
    assert spsi([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 1.0


def test_one_all_zero_series_takes_the_boundary_value():
    # PS hits an endpoint; the correction factors vanish in the limit.
    assert spsi([0.0, 0.0], [0.3, 0.7]) == 1.0
    assert spsi([0.3, 0.7], [0.0, 0.0]) == 1.0


def test_zero_combined_entry_contributes_nothing():
    a = [0.0, 0.5, 0.5]
    b = [0.0, 0.5, 0.5]
    br = spsi_breakdown(a, b)
    assert br.cf[0] == 0.0
    assert br.n[0] == 0.0
    assert br.spsi == 1.0


def _value_pairs():
    """Equal-length value lists on [0, 1], exact zeros and all-zero lists included."""
    value = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return st.integers(2, 14).flatmap(
        lambda n: st.tuples(st.lists(value, min_size=n, max_size=n),
                            st.lists(value, min_size=n, max_size=n)
                            | st.just([0.0] * n)))


@settings(max_examples=500, deadline=None)
@given(_value_pairs())
def test_breakdown_value_is_the_canonical_spsi_bit_for_bit(pair):
    a, b = pair
    value = spsi(a, b).hex()
    assert spsi_breakdown(a, b).spsi.hex() == value
    assert spsi_breakdown(b, a).spsi.hex() == value


@pytest.mark.parametrize("tiny", [5e-324, 1e-200])
def test_underflowing_combined_entry_still_scores(tiny):
    # r * ps * (1 - ps) underflows to 0 at the second point.
    value = spsi([0.0, tiny], [1.0, 0.0])
    assert value == spsi([1.0, 0.0], [0.0, tiny])
    assert value == pytest.approx(1.0)


NON_FINITE_OR_NEGATIVE = {
    "nan": [0.2, math.nan, 0.4],
    "inf": [0.2, math.inf, 0.4],
    "minus-inf": [0.2, -math.inf, 0.4],
    "negative": [0.2, -1.0, 0.4],
    "tiny-negative": [-0.0, 0.5, -1e-300],
}
BAD_PAIRS = {name: (bad, [0.5, 0.5, 0.5]) for name, bad in NON_FINITE_OR_NEGATIVE.items()}
# fsum would raise an untyped ValueError ("-inf + inf in fsum").
BAD_PAIRS["inf-against-minus-inf"] = ([math.inf, 0.5], [0.2, -math.inf])


@pytest.mark.parametrize("pair", BAD_PAIRS.values(), ids=BAD_PAIRS)
@pytest.mark.parametrize("fn", [spsi, spsi_breakdown])
def test_non_finite_or_negative_values_never_reach_the_formula(fn, pair):
    for a, b in (pair, pair[::-1]):
        with pytest.raises(DegenerateSeries,
                           match=r"^s[12]: point \d+: (non-finite|negative value)"):
            fn(a, b)


@pytest.mark.parametrize("bad", NON_FINITE_OR_NEGATIVE.values(), ids=NON_FINITE_OR_NEGATIVE)
def test_score_names_the_book_with_bad_values(bad):
    # A series checks its values when it is made, so bad ones never reach score.
    for length in (3, 4, 5):
        with pytest.raises(DegenerateSeries,
                           match=r"^bent: point [1-3]: (non-finite|negative value)"):
            _series("bent", bad + [0.5] * (length - 3))


def test_matrix_names_the_pair_whose_gap_is_too_narrow():
    wide = _series("wide", [0.1, 0.2, 0.3, 0.4])
    narrow = SentimentSeries(book_id="narrow", points=[
        SeriesPoint(0.5, 0.2), SeriesPoint(math.nextafter(0.5, 1.0), 0.3)])
    with pytest.raises(DegenerateSeries, match=r"pair \(wide, narrow\): gap too narrow"):
        spsi_matrix([wide, narrow], RATIO)


def test_length_mismatch_raises():
    with pytest.raises(LengthMismatch):
        spsi([0.1, 0.2, 0.3], [0.1, 0.2])


def test_single_point_series_rejected():
    with pytest.raises(DegenerateSeries):
        spsi([0.5], [0.5])


def _series(book_id, values):
    n = len(values)
    points = [SeriesPoint(i / (n - 1), v) for i, v in enumerate(values)]
    return SentimentSeries(book_id=book_id, points=points)


def test_from_pairs_scores_each_pair_once_into_both_triangles():
    calls = []

    def pair_score(x, y):
        calls.append((x, y))
        return float(10 * x + y)

    m = SimilarityMatrix.from_pairs(("a", "b", "c"), [1, 2, 4], pair_score)
    assert calls == [(1, 2), (1, 4), (2, 4)]
    assert m.book_ids == ["a", "b", "c"]
    assert m.values == [[1.0, 12.0, 14.0], [12.0, 1.0, 24.0], [14.0, 24.0, 1.0]]

    def refuse_b_c(x, y):
        calls.append((x, y))
        if (x, y) == (2, 4):
            raise DegenerateSeries("no value")
        return 0.5

    calls.clear()
    with pytest.raises(DegenerateSeries, match=r"^pair \(b, c\): no value$"):
        SimilarityMatrix.from_pairs(["a", "b", "c"], [1, 2, 4], refuse_b_c)
    assert calls == [(1, 2), (1, 4), (2, 4)]


def test_matrix_is_symmetric_with_unit_diagonal():
    rng = random.Random(15)
    series = [_series(f"b{i}", [rng.random() for _ in range(6)]) for i in range(5)]
    m = spsi_matrix(series, RATIO)
    for i in range(5):
        assert m.values[i][i] == 1.0
        for j in range(5):
            assert m.values[i][j] == m.values[j][i]


def test_matrix_of_identical_series_is_all_ones():
    base = [0.2, 0.4, 0.6, 0.8]
    series = [_series(f"b{i}", base) for i in range(4)]
    m = spsi_matrix(series, RATIO)
    assert all(v == 1.0 for row in m.values for v in row)


def test_matrix_aligns_unequal_lengths_pairwise():
    s1 = _series("long", [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.5])
    s2 = _series("short", [0.5, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8, 0.1])
    m = spsi_matrix([s1, s2], RATIO)
    assert 0.0 < m.values[0][1] <= 1.0


def test_matrix_needs_two_series():
    with pytest.raises(DegenerateSeries):
        spsi_matrix([_series("only", [0.1, 0.2])], RATIO)


def test_matrix_csv_round_trip(tmp_path):
    rng = random.Random(16)
    series = [_series(f"b{i}", [rng.random() for _ in range(5)]) for i in range(3)]
    m = spsi_matrix(series, RATIO)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(m, path)
    back = read_matrix_csv(path)
    assert back.book_ids == m.book_ids
    for i in range(3):
        for j in range(3):
            assert back.values[i][j] == pytest.approx(m.values[i][j], abs=5e-7)


def test_matrix_csv_rejects_ragged_rows(tmp_path):
    from arcindex.errors import FormatError

    path = tmp_path / "bad.csv"
    path.write_text("book_id,a,b\na,1.0,0.5\nb,1.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_matrix_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_matrix_csv_rejects_non_finite_entries(tmp_path, cell):
    from arcindex.errors import FormatError

    path = tmp_path / "bad.csv"
    path.write_text(f"book_id,a,b\na,1.0,{cell}\nb,0.5,1.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_matrix_csv(path)


def test_off_diagonal_lists_upper_triangle():
    m = SimilarityMatrix(book_ids=["a", "b", "c"],
                         values=[[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]])
    assert m.off_diagonal() == [0.2, 0.3, 0.4]


@st.composite
def _scored_series(draw, book_id):
    """2-12 points with a ranked context; values include 0 and tiny ones.

    With the ratios the test draws, pairs take all three alignment
    routes: equal lengths, midpoints and promoted context blocks.
    """
    n = draw(st.integers(2, 12))
    grid = sorted(draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True)))
    value = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-200]), st.floats(0.0, 1.0))
    values = draw(st.lists(value, min_size=n, max_size=n))
    blocks = draw(st.lists(st.tuples(st.integers(1, 999), st.floats(0.0, 1.0)), max_size=20))
    context = sorted({(g / 1000, v) for g, v in blocks}, key=lambda b: (-b[1], b[0]))
    points = [SeriesPoint(g / 1000, v) for g, v in zip(grid, values)]
    return SentimentSeries(book_id=book_id, points=points, context=context)


@settings(max_examples=400, deadline=None)
@given(s1=_scored_series("a"), s2=_scored_series("b"), ratio=st.sampled_from([0.1, 0.3, 0.6]))
def test_score_is_spsi_of_the_aligned_values_bit_for_bit(s1, s2, ratio):
    expected = spsi(*[x.values() for x in align_lengths(s1, s2, ratio)]).hex()
    for first, second in ((s1, s2), (s2, s1)):
        a, b = dataclasses.replace(first), dataclasses.replace(second)
        assert score(a, b, ratio).hex() == expected
        assert score(a, b, ratio).hex() == expected
        assert score(b, a, ratio).hex() == expected


def test_kept_values_stay_out_of_equality_repr_and_replace():
    s = _series("a", [0.1, 0.2, 0.3])
    twin = _series("a", [0.1, 0.2, 0.3])
    other = _series("b", [0.3, 0.1, 0.2])
    before = repr(s)
    assert s._values == (0.1, 0.2, 0.3) and s._fsum == math.fsum([0.1, 0.2, 0.3])
    first = score(s, other, RATIO)
    assert s == twin and repr(s) == before
    assert score(s, other, RATIO) == first
    moved = dataclasses.replace(s, points=[SeriesPoint(p.position, 0.9) for p in s.points])
    assert moved._values == (0.9, 0.9, 0.9) and moved._fsum == math.fsum([0.9] * 3)
    assert score(moved, other, RATIO) == spsi([0.9] * 3, other.values())


def test_values_read_the_points_of_a_scored_copy():
    # What perfbench's selftest does: bend one point of a deep copy.
    s = _series("a", [0.1, 0.2, 0.3, 0.4, 0.5])
    score(s, _series("b", [0.5, 0.4, 0.3, 0.2, 0.1]), RATIO)
    bent = copy.deepcopy(s)
    point = bent.points[3]
    bent.points[3] = SeriesPoint(point.position, point.value + 1e-6)
    assert bent.values()[3] == 0.4 + 1e-6
    assert s.values() == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert s.values() is not s.values()
