import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcindex.baselines import (agreement, baseline1_vectors, baseline2_vectors,
                                cosine, similarity_matrix_from_vectors)
from arcindex.clustering import cluster_matrix
from arcindex.errors import MissingLabel, MissingText
from arcindex.ingest import BookDocument, tokenize
from arcindex.similarity import SimilarityMatrix

from oracle_reference import ref_agreement


def _doc(book_id, title="T", body="", author=None, **metadata):
    return BookDocument(book_id=book_id, title=title, tokens=tokenize(body),
                        author=author, metadata=metadata)


def test_tfidf_weights_are_count_times_log_ratio():
    docs = [
        _doc("b1", summary="storm storm harbor"),
        _doc("b2", summary="storm quay"),
        _doc("b3", summary="garden"),
    ]
    vectors = baseline2_vectors(docs)
    assert vectors["b1"]["storm"] == pytest.approx(2 * math.log(3 / 2), abs=1e-12)
    assert vectors["b1"]["harbor"] == pytest.approx(math.log(3), abs=1e-12)
    assert vectors["b3"]["garden"] == pytest.approx(math.log(3), abs=1e-12)


def test_cosine_of_identical_vectors_is_one():
    u = {"a": 2.0, "b": 1.0}
    assert cosine(u, dict(u)) == pytest.approx(1.0, abs=1e-12)


def test_cosine_of_disjoint_vectors_is_zero():
    assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0


def test_cosine_with_empty_vector_is_zero():
    assert cosine({}, {"a": 1.0}) == 0.0
    assert cosine({"a": 0.0}, {"a": 1.0}) == 0.0


def test_cosine_hand_value():
    u = {"a": 1.0, "b": 1.0}
    v = {"a": 1.0}
    assert cosine(u, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_metadata_vectors_cover_title_author_and_genres():
    docs = [
        _doc("b1", title="The Gull", author="Mora Finch",
             genres=["Maritime Fiction", "Adventure"]),
        _doc("b2", title="The Orchard", author="Pell Gray",
             genres=["Pastoral Fiction"]),
    ]
    vectors = baseline1_vectors(docs)
    positive = {term for term, w in vectors["b1"].items() if w > 0}
    assert {"gull", "mora", "finch", "maritime", "adventure"} <= positive
    # terms shared by every document carry zero discriminating weight
    assert vectors["b1"]["the"] == 0.0
    assert vectors["b1"]["fiction"] == 0.0


def test_summary_vectors_fall_back_to_body_text():
    docs = [
        _doc("b1", summary="a quiet harbor tale"),
        _doc("b2", body="wind over the water"),
    ]
    vectors = baseline2_vectors(docs)
    assert "harbor" in vectors["b1"]
    assert "wind" in vectors["b2"]


def test_vectors_keep_each_term_in_first_use_order():
    # _tfidf, _norm and _cosine add in a bag's order, so the order is part of the bits.
    docs = [
        _doc("b1", title="Zeta Alpha", author="Zeta Mid", genres=["Beta"],
             body="zeta alpha zeta mid beta"),
        _doc("b2", summary="Omega beta omega alpha"),
    ]
    assert list(baseline1_vectors(docs)["b1"]) == ["zeta", "alpha", "mid", "beta"]
    assert list(baseline2_vectors(docs)["b1"]) == ["zeta", "alpha", "mid", "beta"]
    assert list(baseline2_vectors(docs)["b2"]) == ["omega", "beta", "alpha"]


def test_summary_vectors_need_some_text():
    docs = [_doc("b1")]
    with pytest.raises(MissingText, match="b1"):
        baseline2_vectors(docs)


def test_vector_similarity_matrix_is_symmetric_with_unit_diagonal():
    vectors = {
        "a": {"x": 1.0, "y": 1.0},
        "b": {"x": 1.0},
        "c": {"z": 3.0},
    }
    matrix = similarity_matrix_from_vectors(vectors)
    assert matrix.book_ids == ["a", "b", "c"]
    for i in range(3):
        assert matrix.values[i][i] == 1.0
    assert matrix.values[0][1] == matrix.values[1][0]
    assert matrix.values[0][1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert matrix.values[0][2] == 0.0


def test_vector_similarity_matrix_entries_equal_cosine_bit_for_bit():
    docs = [
        _doc("b1", summary="storm storm harbor quay gull"),
        _doc("b2", summary="storm quay"),
        _doc("b3", summary="garden storm gull gull rose"),
        _doc("b4", summary="garden"),
        _doc("b5", summary="harbor"),
    ]
    vectors = baseline2_vectors(docs)
    vectors["b6"] = {}
    matrix = similarity_matrix_from_vectors(vectors)
    ids = matrix.book_ids
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i != j:
                assert matrix.values[i][j].hex() == cosine(vectors[a], vectors[b]).hex()
                assert cosine(vectors[a], vectors[b]).hex() == cosine(vectors[b], vectors[a]).hex()


def test_baseline_partition_applies_threshold():
    ids = ["a", "b", "c", "d"]
    sims = {("a", "b"): 0.9, ("c", "d"): 0.8}
    values = [[1.0] * 4 for _ in range(4)]
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            if i < j:
                s = sims.get((u, v), 0.1)
                values[i][j] = s
                values[j][i] = s
    partition, _ = cluster_matrix(SimilarityMatrix(ids, values), 0.5)
    groups = {frozenset(members) for members in partition}
    assert groups == {frozenset({"a", "b"}), frozenset({"c", "d"})}


LABELS = {f"b{i}": ("red" if i < 4 else "blue") for i in range(8)}


def test_agreement_of_all_singletons():
    partition = [[f"b{i}"] for i in range(8)]
    report = agreement(partition, LABELS, method="trivial")
    # 28 pairs total; the 16 cross-label pairs are split by both sides
    assert report.pair_count == 28
    assert report.agreed_count == 16
    assert report.pairwise_agreement == pytest.approx(16 / 28, abs=1e-12)
    assert report.purity == 1.0
    assert report.method == "trivial"


def test_agreement_of_one_big_cluster():
    partition = [[f"b{i}" for i in range(8)]]
    report = agreement(partition, LABELS)
    # only the 12 same-label pairs are grouped alike by both sides
    assert report.agreed_count == 12
    assert report.pairwise_agreement == pytest.approx(12 / 28, abs=1e-12)
    assert report.purity == 0.5


def test_agreement_of_matching_partition_is_perfect():
    partition = [[f"b{i}" for i in range(4)], [f"b{i}" for i in range(4, 8)]]
    report = agreement(partition, LABELS)
    assert report.pairwise_agreement == 1.0
    assert report.purity == 1.0


def test_agreement_requires_labels_for_every_book():
    with pytest.raises(MissingLabel, match="b9"):
        agreement([["b0", "b9"]], LABELS)


def test_agreement_of_empty_partition_is_vacuous():
    report = agreement([], {})
    assert report.pairwise_agreement == 1.0
    assert report.purity == 1.0
    assert report.pair_count == 0


def test_agreement_report_serializes():
    report = agreement([[f"b{i}"] for i in range(8)], LABELS, method="m")
    data = report.to_dict()
    assert data["method"] == "m"
    assert data["agreed_pairs"] == 16
    assert data["total_pairs"] == 28


@st.composite
def _labelled_partitions(draw):
    """A partition that may list a book twice or hold empty clusters, with labels."""
    books = draw(st.lists(st.text("abcdef", min_size=1, max_size=2), unique=True,
                          max_size=10))
    labels = {b: draw(st.one_of(st.integers(0, 2), st.sampled_from("xy"))) for b in books}
    cluster = st.lists(st.sampled_from(books), max_size=6) if books else st.just([])
    return draw(st.lists(cluster, max_size=5)), labels


@settings(max_examples=200, deadline=None)
@given(_labelled_partitions())
@example(([["a", "b"], ["b", "c"], []], {"a": 1, "b": 1, "c": "x", "d": 0}))
def test_counted_agreement_equals_the_pair_loop(case):
    partition, labels = case
    report = agreement(partition, labels)
    agreed, total, pairwise, purity = ref_agreement(partition, labels)
    assert (report.agreed_count, report.pair_count) == (agreed, total)
    assert report.pairwise_agreement.hex() == pairwise.hex()
    assert report.purity.hex() == purity.hex()
