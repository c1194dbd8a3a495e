import json

import pytest

from arcindex.catalogue import (FORMAT_VERSION, build_catalogue, load,
                                nearest_cluster, quantize, save, search_similar)
from arcindex.clustering import Cluster
from arcindex.config import PipelineConfig
from arcindex.errors import (EmptyCatalogue, FormatError, UnknownBook,
                             VersionError)
from arcindex.series import SentimentSeries, SeriesPoint


def _series(book_id, values, positions=None):
    n = len(values)
    positions = positions or [i / (n - 1) for i in range(n)]
    return SentimentSeries(book_id=book_id,
                           points=[SeriesPoint(p, v) for p, v in zip(positions, values)])


def _toy_catalogue():
    s_a = _series("book-a", [0.2, 0.4, 0.6])
    s_b = _series("book-b", [0.22, 0.42, 0.62])
    s_c = _series("book-c", [0.9, 0.1, 0.9])
    clusters = [
        Cluster(cluster_id="book-a", members=["book-a", "book-b"],
                representative=_series("rep", [0.21, 0.41, 0.61]), merge_trace=[]),
        Cluster(cluster_id="book-c", members=["book-c"],
                representative=_series("rep2", [0.9, 0.1, 0.9]), merge_trace=[]),
    ]
    series_by_id = {"book-a": s_a, "book-b": s_b, "book-c": s_c}
    meta = {
        "book-a": ("Alpha", "Author One"),
        "book-b": ("Beta", "Author Two"),
        "book-c": ("Gamma", None),
    }
    cfg = PipelineConfig(dt=0.8)
    return build_catalogue(clusters, series_by_id, cfg, meta)


def test_quantize_is_idempotent_at_nine_digits():
    x = 0.12345678987654321
    q = quantize(x)
    assert quantize(q) == q
    assert q == pytest.approx(x, rel=1e-8)


def test_entries_sorted_by_distance_then_title():
    cat = _toy_catalogue()
    first_cluster = [e for e in cat.entries if e.cluster_id == "book-a"]
    distances = [e.distance for e in first_cluster]
    assert distances == sorted(distances)


def test_entry_lookup_and_membership():
    cat = _toy_catalogue()
    assert "book-b" in cat
    assert cat.entry("book-b").title == "Beta"
    with pytest.raises(UnknownBook):
        cat.entry("missing")


def test_round_trip_preserves_everything(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    back = load(path)
    assert back.format_version == FORMAT_VERSION
    assert back.config == cat.config
    assert [c.cluster_id for c in back.clusters] == [c.cluster_id for c in cat.clusters]
    for c1, c2 in zip(cat.clusters, back.clusters):
        assert c1.members == c2.members
        assert [(p.position, p.value) for p in c1.representative.points] == \
               [(p.position, p.value) for p in c2.representative.points]
    assert [(e.book_id, e.title, e.author, e.cluster_id, e.distance)
            for e in cat.entries] == \
           [(e.book_id, e.title, e.author, e.cluster_id, e.distance)
            for e in back.entries]


def test_second_save_is_byte_identical(tmp_path):
    cat = _toy_catalogue()
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    save(cat, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_major_version_bump(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = "2.0"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(VersionError):
        load(path)


def test_load_accepts_minor_version_bump(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = "1.9"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load(path).format_version == "1.9"


def test_load_reports_corruption_with_offset(tmp_path):
    path = tmp_path / "broken.json"
    good = json.dumps({"format_version": "1.0"})
    path.write_text(good[:10], encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert excinfo.value.offset is not None


@pytest.mark.parametrize("constant", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_non_finite_numbers(tmp_path, constant):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["entries"][0]["series"][0]["value"] = constant
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError):
        load(path)


@pytest.mark.parametrize("where", ["position", "value", "distance", "representative"])
def test_load_rejects_overflowing_numbers(tmp_path, where):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if where == "distance":
        payload["entries"][0]["distance"] = 12345.678
    elif where == "representative":
        payload["clusters"][0]["representative"][0]["value"] = 12345.678
    else:
        payload["entries"][0]["series"][0][where] = 12345.678
    # json.loads reads 1e999 as inf without consulting parse_constant.
    path.write_text(json.dumps(payload).replace("12345.678", "1e999"), encoding="utf-8")
    with pytest.raises(FormatError, match="non-finite"):
        load(path)


def test_failed_save_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("arcindex.catalogue.os.replace", fail)
    cat = _toy_catalogue()
    cat.entries = cat.entries[:1]
    with pytest.raises(OSError, match="disk full"):
        save(cat, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["catalogue.json"]


def test_load_rejects_missing_version(tmp_path):
    path = tmp_path / "no-version.json"
    path.write_text(json.dumps({"clusters": [], "entries": []}), encoding="utf-8")
    with pytest.raises(FormatError):
        load(path)


def test_search_by_book_excludes_itself():
    cat = _toy_catalogue()
    results = search_similar(cat, "book-a", k=5)
    ids = [book_id for book_id, _ in results]
    assert "book-a" not in ids
    assert ids[0] == "book-b"


def test_search_scores_sorted_descending_with_title_ties():
    cat = _toy_catalogue()
    results = search_similar(cat, "book-a", k=5)
    scores = [s for _, s in results]
    assert scores == sorted(scores, reverse=True)


def test_search_by_external_series_keeps_everything():
    cat = _toy_catalogue()
    probe = _series("probe", [0.2, 0.4, 0.6])
    results = search_similar(cat, probe, k=2)
    assert len(results) == 2
    assert results[0][0] == "book-a"
    assert results[0][1] == 1.0


def test_search_unknown_book_raises():
    cat = _toy_catalogue()
    with pytest.raises(UnknownBook):
        search_similar(cat, "missing", k=3)


def test_nearest_cluster_prefers_most_similar_representative():
    cat = _toy_catalogue()
    probe = _series("probe", [0.88, 0.12, 0.88])
    cid, sim = nearest_cluster(cat, probe)
    assert cid == "book-c"
    assert 0.9 < sim <= 1.0


def test_nearest_cluster_tie_takes_smallest_id():
    s_a = _series("a", [0.5, 0.5])
    s_b = _series("b", [0.5, 0.5])
    clusters = [
        Cluster(cluster_id="a", members=["a"], representative=s_a, merge_trace=[]),
        Cluster(cluster_id="b", members=["b"], representative=s_b, merge_trace=[]),
    ]
    cfg = PipelineConfig()
    cat = build_catalogue(clusters, {"a": s_a, "b": s_b}, cfg,
                          {"a": ("A", None), "b": ("B", None)})
    cid, sim = nearest_cluster(cat, _series("probe", [0.5, 0.5]))
    assert cid == "a"
    assert sim == 1.0


def test_nearest_cluster_requires_clusters():
    cfg = PipelineConfig()
    cat = build_catalogue([], {}, cfg, {})
    with pytest.raises(EmptyCatalogue):
        nearest_cluster(cat, _series("probe", [0.5, 0.5]))


def test_distance_complements_similarity_to_representative():
    cat = _toy_catalogue()
    entry = cat.entry("book-c")
    assert entry.distance == pytest.approx(0.0, abs=1e-9)
