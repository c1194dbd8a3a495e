import math
import random

import pytest

from arcindex.errors import DegenerateSeries, LengthMismatch
from arcindex.series import SentimentSeries, SeriesPoint
from arcindex.similarity import (SimilarityMatrix, read_matrix_csv, spsi,
                                 spsi_breakdown, spsi_matrix, write_matrix_csv)
from oracle_reference import ref_spsi, ref_spsi_parts
from reference_data import (CLOSED_FORM_SPSI, EXPECTED_PS, EXPECTED_SD,
                            EXPECTED_SPSI, SERIES_A, SERIES_B)


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


def test_matrix_is_symmetric_with_unit_diagonal():
    rng = random.Random(15)
    series = [_series(f"b{i}", [rng.random() for _ in range(6)]) for i in range(5)]
    m = spsi_matrix(series)
    for i in range(5):
        assert m.values[i][i] == 1.0
        for j in range(5):
            assert m.values[i][j] == m.values[j][i]


def test_matrix_of_identical_series_is_all_ones():
    base = [0.2, 0.4, 0.6, 0.8]
    series = [_series(f"b{i}", base) for i in range(4)]
    m = spsi_matrix(series)
    assert all(v == 1.0 for row in m.values for v in row)


def test_matrix_aligns_unequal_lengths_pairwise():
    s1 = _series("long", [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.5])
    s2 = _series("short", [0.5, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8, 0.1])
    m = spsi_matrix([s1, s2])
    assert 0.0 < m.values[0][1] <= 1.0


def test_matrix_needs_two_series():
    with pytest.raises(DegenerateSeries):
        spsi_matrix([_series("only", [0.1, 0.2])])


def test_matrix_csv_round_trip(tmp_path):
    rng = random.Random(16)
    series = [_series(f"b{i}", [rng.random() for _ in range(5)]) for i in range(3)]
    m = spsi_matrix(series)
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
