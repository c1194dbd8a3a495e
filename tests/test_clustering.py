import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcindex.clustering import (cluster_matrix, cluster_report, cluster_series,
                                 resolve_threshold)
from arcindex.config import PipelineConfig
from arcindex.errors import FormatError
from arcindex.series import SentimentSeries, SeriesPoint
from arcindex.similarity import SimilarityMatrix, spsi_matrix
from oracle_reference import ref_adaptive_threshold, ref_average_linkage
from reference_data import (GRID_ADAPTIVE_DT, GRID_FIRST_MERGE, GRID_IDS,
                            GRID_PARTITION_AT_04, GRID_TRACE_AT_04,
                            RANDOM12_TRACE, SYNTH_MERGE_TRACE,
                            grid_matrix_values, grid_pair_sims_str,
                            random_matrix_values)

RATIO = PipelineConfig().length_ratio_limit


def _grid_matrix():
    return SimilarityMatrix(book_ids=list(GRID_IDS), values=grid_matrix_values())


def test_fixed_threshold_passes_through():
    cfg = PipelineConfig(dt=0.37)
    assert resolve_threshold(_grid_matrix(), cfg) == 0.37


def test_adaptive_threshold_matches_oracle():
    cfg = PipelineConfig(dt_mode="adaptive")
    value = resolve_threshold(_grid_matrix(), cfg)
    assert value == pytest.approx(GRID_ADAPTIVE_DT, abs=1e-12)
    assert value == pytest.approx(ref_adaptive_threshold(grid_pair_sims_str()), abs=1e-12)


def test_adaptive_threshold_is_clamped_to_open_interval():
    ones = SimilarityMatrix(book_ids=["a", "b"], values=[[1.0, 1.0], [1.0, 1.0]])
    cfg = PipelineConfig(dt_mode="adaptive")
    value = resolve_threshold(ones, cfg)
    assert 0.0 < value < 1.0


def test_adaptive_threshold_has_the_same_bits_on_every_python():
    # statistics.pstdev is correctly rounded from Python 3.11 on; 3.10's
    # rounds twice and reads this matrix's threshold as 0x1.3af44fd8fea12p-1.
    values = [[1.0, 0.96, 0.11, 0.93], [0.96, 1.0, 0.21, 0.22],
              [0.11, 0.21, 1.0, 0.17], [0.93, 0.22, 0.17, 1.0]]
    value = resolve_threshold(SimilarityMatrix(list("abcd"), values),
                              PipelineConfig(dt_mode="adaptive"))
    assert value.hex() == "0x1.3af44fd8fea13p-1"


# resolve_threshold keeps its bits across Pythons only while pstdev is
# correctly rounded; this checks that on each interpreter the tests run on.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300)),
                min_size=1, max_size=50))
def test_population_deviation_is_correctly_rounded(xs):
    exact = [Fraction(x) for x in xs]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / len(exact)
    root = statistics.pstdev(xs)
    below, above = math.nextafter(root, 0.0), math.nextafter(root, 1.0)
    assert ((Fraction(below) + Fraction(root)) / 2) ** 2 <= variance
    assert variance <= ((Fraction(root) + Fraction(above)) / 2) ** 2


def test_grid_partition_at_dt_04():
    partition, trace = cluster_matrix(_grid_matrix(), dt=0.4)
    assert sorted(partition) == GRID_PARTITION_AT_04
    assert trace[0] == GRID_FIRST_MERGE
    assert [tuple(t) for t in trace] == GRID_TRACE_AT_04


def test_grid_partition_matches_straight_line_oracle():
    partition, trace = cluster_matrix(_grid_matrix(), dt=0.4)
    ref_partition, ref_trace = ref_average_linkage(grid_pair_sims_str(),
                                                   list(GRID_IDS), 0.4)
    assert sorted(partition) == ref_partition
    assert [tuple(t) for t in trace] == ref_trace


def test_grid_merge_similarities_never_increase():
    _, trace = cluster_matrix(_grid_matrix(), dt=0.4)
    sims = [s for _, _, s in trace]
    assert all(a >= b for a, b in zip(sims, sims[1:]))


def test_all_ones_matrix_collapses_to_one_cluster():
    n = 5
    ids = [f"b{i}" for i in range(n)]
    m = SimilarityMatrix(book_ids=ids, values=[[1.0] * n for _ in range(n)])
    partition, trace = cluster_matrix(m, dt=0.5)
    assert len(partition) == 1
    assert sorted(partition[0]) == sorted(ids)
    assert len(trace) == n - 1


def test_zero_off_diagonal_keeps_singletons():
    ids = ["a", "b", "c"]
    values = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    partition, trace = cluster_matrix(SimilarityMatrix(ids, values), dt=0.4)
    assert sorted(map(tuple, partition)) == [("a",), ("b",), ("c",)]
    assert trace == []


def test_merge_ties_choose_smallest_pair():
    ids = ["a", "b", "c", "d"]
    # (a,b) and (c,d) tie exactly; the loop must take (a,b) first.
    values = [
        [1.0, 0.9, 0.1, 0.1],
        [0.9, 1.0, 0.1, 0.1],
        [0.1, 0.1, 1.0, 0.9],
        [0.1, 0.1, 0.9, 1.0],
    ]
    _, trace = cluster_matrix(SimilarityMatrix(ids, values), dt=0.5)
    assert trace[0][:2] == ("a", "b")
    assert trace[1][:2] == ("c", "d")


@st.composite
def _eighths_matrices(draw):
    """Symmetric matrices with off-diagonal values k/8, plus a threshold.

    Multiples of 1/8 and their sums are exact in binary, so every
    average is the same whatever order its terms are added in, and
    exact ties between pairs are common.
    """
    n = draw(st.integers(min_value=3, max_value=9))
    ids = [f"b{i}" for i in range(n)]
    values = [[1.0] * n for _ in range(n)]
    pair_sims = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(min_value=0, max_value=8)) / 8
            values[i][j] = values[j][i] = v
            pair_sims[(ids[i], ids[j])] = v
    dt = draw(st.integers(min_value=0, max_value=7)) / 8
    return SimilarityMatrix(ids, values), pair_sims, dt


@settings(max_examples=200, deadline=None)
@given(_eighths_matrices())
def test_matrix_clustering_matches_oracle_including_ties(case):
    matrix, pair_sims, dt = case
    partition, trace = cluster_matrix(matrix, dt)
    ref_partition, ref_trace = ref_average_linkage(pair_sims, matrix.book_ids, dt)
    assert sorted(partition) == ref_partition
    assert [tuple(t) for t in trace] == ref_trace


def test_matrix_trace_scores_the_merged_cluster_first():
    ids = [f"b{i:02d}" for i in range(12)]
    matrix = SimilarityMatrix(ids, random_matrix_values(12, 0))
    _, trace = cluster_matrix(matrix, dt=0.0)
    assert [(a, b, repr(s)) for a, b, s in trace] == RANDOM12_TRACE


def test_two_books_first_score_the_row_of_the_smaller_id():
    # Not symmetric, and not in id order: (a, c) reads row a, column c.
    ids = ["c", "a", "b"]
    values = [[1.0, 0.2, 0.3],
              [0.9, 1.0, 0.8],
              [0.1, 0.7, 1.0]]
    _, trace = cluster_matrix(SimilarityMatrix(ids, values), dt=0.5)
    assert trace == [("a", "c", 0.9), ("a", "b", (0.8 + 0.3) / 2)]


def test_series_merge_trace_is_pinned(synth_outcome):
    result = synth_outcome["result"]
    trace = result.merge_trace
    assert [(a, b, repr(s)) for a, b, s in trace] == SYNTH_MERGE_TRACE
    # Each cluster's own trace holds exactly its merges from the global one.
    report = cluster_report(result.clusters, result.dynamic_threshold, trace)
    own = sorted(tuple(t) for c in report["clusters"] for t in c["trace"])
    assert own == sorted(trace)


def _series(book_id, values):
    n = len(values)
    points = [SeriesPoint(i / (n - 1), v) for i, v in enumerate(values)]
    return SentimentSeries(book_id=book_id, points=points)


def test_series_clustering_merges_identical_shapes():
    flat_a = _series("flat-a", [0.5, 0.5, 0.5, 0.5])
    flat_b = _series("flat-b", [0.5, 0.5, 0.5, 0.5])
    spike = _series("spike", [0.05, 0.95, 0.05, 0.95])
    cfg = PipelineConfig(dt=0.9)
    shelf = [flat_a, flat_b, spike]
    clusters, dt, trace = cluster_series(shelf, cfg, spsi_matrix(shelf, RATIO))
    assert dt == 0.9
    by_members = sorted(tuple(c.members) for c in clusters)
    assert ("flat-a", "flat-b") in by_members
    assert ("spike",) in by_members


def test_cluster_representative_is_member_mean():
    a = _series("a", [0.2, 0.4, 0.6])
    b = _series("b", [0.4, 0.6, 0.8])
    cfg = PipelineConfig(dt=0.5)
    clusters, _, _ = cluster_series([a, b], cfg, spsi_matrix([a, b], RATIO))
    assert len(clusters) == 1
    rep = clusters[0].representative
    assert [p.value for p in rep.points] == pytest.approx([0.3, 0.5, 0.7])
    assert [p.position for p in rep.points] == pytest.approx([0.0, 0.5, 1.0])


def test_cluster_ids_are_smallest_member():
    a = _series("a", [0.2, 0.4, 0.6])
    b = _series("b", [0.2, 0.4, 0.6])
    cfg = PipelineConfig(dt=0.5)
    clusters, _, _ = cluster_series([b, a], cfg, spsi_matrix([b, a], RATIO))
    assert len(clusters) == 1
    assert clusters[0].cluster_id == "a"
    assert clusters[0].members == ["a", "b"]


def test_series_clustering_rejects_duplicate_ids():
    a = _series("same", [0.1, 0.2])
    b = _series("same", [0.3, 0.4])
    with pytest.raises(FormatError, match="duplicate book_id"):
        cluster_series([a, b], PipelineConfig(), spsi_matrix([a, b], RATIO))


def test_precomputed_matrix_must_match_series():
    a = _series("a", [0.1, 0.2])
    b = _series("b", [0.3, 0.4])
    wrong = SimilarityMatrix(book_ids=["a", "zz"], values=[[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(FormatError, match="do not match"):
        cluster_series([a, b], PipelineConfig(), wrong)


def test_cluster_report_shape():
    a = _series("a", [0.2, 0.4, 0.6])
    b = _series("b", [0.4, 0.6, 0.8])
    cfg = PipelineConfig(dt=0.5)
    clusters, dt, trace = cluster_series([a, b], cfg, spsi_matrix([a, b], RATIO))
    report = cluster_report(clusters, dt, trace)
    assert report["dynamic_threshold"] == 0.5
    assert len(report["clusters"]) == 1
    entry = report["clusters"][0]
    assert entry["members"] == ["a", "b"]
    assert len(entry["representative"]) == 3
    assert entry["trace"] == [["a", "b", trace[0][2]]]
