import math

import pytest

from arcindex.baselines import (agreement, baseline1_vectors, baseline2_vectors,
                                cosine, partition_from_similarity,
                                similarity_matrix_from_vectors)
from arcindex.errors import MissingLabel, MissingText
from arcindex.ingest import BookDocument, tokenize
from arcindex.similarity import SimilarityMatrix


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


def test_partition_from_similarity_applies_threshold():
    ids = ["a", "b", "c", "d"]
    sims = {("a", "b"): 0.9, ("c", "d"): 0.8}
    values = [[1.0] * 4 for _ in range(4)]
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            if i < j:
                s = sims.get((u, v), 0.1)
                values[i][j] = s
                values[j][i] = s
    partition = partition_from_similarity(SimilarityMatrix(ids, values), dt=0.5)
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
