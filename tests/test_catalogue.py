import json
import os
import random
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcindex.catalogue import (FORMAT_VERSION, Catalogue, CatalogueEntry, build_catalogue,
                                load, nearest_cluster, save, search_similar)
from arcindex.clustering import Cluster, cluster_series
from arcindex.config import PipelineConfig
from arcindex.errors import (EmptyCatalogue, FormatError, UnknownBook,
                             VersionError)
from arcindex.series import SECONDARY, SentimentSeries, SeriesPoint, align_lengths
from arcindex.similarity import score, spsi_matrix


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
                representative=_series("rep", [0.21, 0.41, 0.61])),
        Cluster(cluster_id="book-c", members=["book-c"],
                representative=_series("rep2", [0.9, 0.1, 0.9])),
    ]
    series_by_id = {"book-a": s_a, "book-b": s_b, "book-c": s_c}
    meta = {
        "book-a": ("Alpha", "Author One"),
        "book-b": ("Beta", "Author Two"),
        "book-c": ("Gamma", None),
    }
    cfg = PipelineConfig(dt=0.8)
    return build_catalogue(clusters, series_by_id, cfg, meta)


def test_entry_lookup_and_membership():
    cat = _toy_catalogue()
    assert "book-b" in cat
    assert "missing" not in cat
    assert cat.entry("book-b").title == "Beta"
    with pytest.raises(UnknownBook):
        cat.entry("missing")
    assert cat.cluster("book-a").members == ["book-a", "book-b"]
    with pytest.raises(KeyError):
        cat.cluster("book-b")


# Entry ids that a document would refuse as well.
BAD_ENTRY_IDS = ["../x", "", ".", "..", "a/b", "nul\0byte"]


def _entry(book_id, cluster_id):
    return CatalogueEntry(book_id=book_id, title=book_id.upper(), author=None,
                          cluster_id=cluster_id, series=_series(book_id, [0.2, 0.4]))


def _cluster(cluster_id, members):
    return Cluster(cluster_id, members, _series(f"cluster:{cluster_id}", [0.2, 0.4]))


# Clusters and entries that disagree, and the words the refusal must contain.
_DISAGREEING = {
    "repeated-book-id": ([_cluster("a", ["a", "a"])], [_entry("a", "a"), _entry("a", "a")],
                         "duplicate book_id 'a'"),
    "entry-names-no-cluster": ([_cluster("a", ["a"])], [_entry("a", "a"), _entry("b", "z")],
                               "entry 'b' names no cluster 'z'"),
    "members-miss-an-entry": ([_cluster("a", ["a"])], [_entry("a", "a"), _entry("b", "a")],
                              "members \\['a'\\] are not the sorted ids"),
    "members-unsorted": ([_cluster("a", ["b", "a"])], [_entry("a", "a"), _entry("b", "a")],
                         "are not the sorted ids"),
    "cluster-without-entries": ([_cluster("a", ["a"]), _cluster("z", [])], [_entry("a", "a")],
                                "no entry names cluster 'z'"),
    "repeated-cluster-id": ([_cluster("a", ["a"]), _cluster("a", ["a"])], [_entry("a", "a")],
                            "cluster id 'a' is not a unique string"),
    "numeric-cluster-id": ([_cluster(7, ["a"])], [_entry("a", "a")],
                           "cluster id 7 is not a unique string"),
}


@pytest.mark.parametrize("case", list(_DISAGREEING))
def test_a_catalogue_refuses_clusters_and_entries_that_disagree(case):
    clusters, entries, words = _DISAGREEING[case]
    with pytest.raises(FormatError, match=words):
        Catalogue(format_version=FORMAT_VERSION, config=PipelineConfig(),
                  clusters=clusters, entries=entries)


def test_build_catalogue_refuses_a_book_in_two_clusters():
    s_a, s_b = _series("a", [0.2, 0.4]), _series("b", [0.3, 0.5])
    clusters = [_cluster("a", ["a"]), _cluster("b", ["a", "b"])]
    with pytest.raises(FormatError, match="duplicate book_id 'a'"):
        build_catalogue(clusters, {"a": s_a, "b": s_b}, PipelineConfig(), {})


@pytest.mark.parametrize("book_id", BAD_ENTRY_IDS)
def test_build_catalogue_refuses_a_book_id_that_is_not_a_file_name(book_id):
    series = _series(book_id, [0.2, 0.4])
    with pytest.raises(FormatError, match=f"entry {re.escape(repr(book_id))}: "
                                          "book_id is not a plain file name"):
        build_catalogue([Cluster(book_id, [book_id], series)], {book_id: series},
                        PipelineConfig(), {})


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
    assert [(e.book_id, e.title, e.author, e.cluster_id) for e in cat.entries] == \
           [(e.book_id, e.title, e.author, e.cluster_id) for e in back.entries]


def test_saved_catalogue_stores_what_search_reads(tmp_path):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert {key for c in payload["clusters"] for key in c} == {"cluster_id", "representative"}
    assert {key for e in payload["entries"] for key in e} == \
           {"book_id", "title", "author", "cluster_id", "series"}


def test_load_derives_members_from_the_entries(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["entries"].reverse()
    path.write_text(json.dumps(payload), encoding="utf-8")
    back = load(path)
    assert [(c.cluster_id, c.members) for c in back.clusters] == \
           [("book-a", ["book-a", "book-b"]), ("book-c", ["book-c"])]
    assert back.clusters == cat.clusters


def test_second_save_is_byte_identical(tmp_path):
    cat = _toy_catalogue()
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    save(cat, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_alignment_memo_leaves_catalogue_bytes_alone(tmp_path):
    def catalogue(series_by_id):
        clusters = [Cluster(cluster_id="book-a", members=sorted(series_by_id),
                            representative=series_by_id["book-c"])]
        meta = {b: (b.upper(), None) for b in series_by_id}
        return build_catalogue(clusters, series_by_id, PipelineConfig(dt=0.8), meta)

    def series_by_id():
        return {"book-a": _series("book-a", [0.2, 0.7, 0.4]),
                "book-b": _series("book-b", [0.3, 0.5, 0.6, 0.2, 0.8]),
                "book-c": _series("book-c", [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4])}

    save(catalogue(series_by_id()), tmp_path / "fresh.json")
    aligned = series_by_id()
    for s1 in aligned.values():
        for s2 in aligned.values():
            for limit in (0.1, 0.6):
                align_lengths(s1, s2, limit)
    warm = catalogue(aligned)
    save(warm, tmp_path / "aligned.json")
    for book_id in aligned:
        search_similar(warm, book_id, k=3)
    save(warm, tmp_path / "searched.json")
    fresh = (tmp_path / "fresh.json").read_bytes()
    assert (tmp_path / "aligned.json").read_bytes() == fresh
    assert (tmp_path / "searched.json").read_bytes() == fresh


def test_load_rejects_major_version_bump(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = "3.0"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(VersionError):
        load(path)


def test_load_rejects_a_format_1_catalogue(tmp_path):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = "1.0"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(VersionError, match="arcindex index") as excinfo:
        load(path)
    assert str(path) in str(excinfo.value)


def test_load_accepts_minor_version_bump(tmp_path):
    cat = _toy_catalogue()
    path = tmp_path / "catalogue.json"
    save(cat, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = "2.9"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load(path).format_version == "2.9"


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


@pytest.mark.parametrize("where", ["position", "value", "representative"])
def test_load_rejects_overflowing_numbers(tmp_path, where):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if where == "representative":
        payload["clusters"][0]["representative"][0]["value"] = 12345.678
    else:
        payload["entries"][0]["series"][0][where] = 12345.678
    # json.loads reads 1e999 as inf without consulting parse_constant.
    path.write_text(json.dumps(payload).replace("12345.678", "1e999"), encoding="utf-8")
    with pytest.raises(FormatError, match="non-finite"):
        load(path)


# Each corruption of a saved catalogue and the words its error must contain.
_BAD_SERIES = {
    "entry": (lambda p: p["entries"][0]["series"][1].update(value=-0.5), "negative"),
    "representative": (lambda p: p["clusters"][0]["representative"][1].update(value=-0.5),
                       "negative"),
    "swapped-positions": (lambda p: p["entries"][0]["series"].reverse(), "strictly increase"),
    "one-point": (lambda p: p["entries"][0]["series"].__delitem__(slice(1, None)),
                  "at least 2"),
    "null-title": (lambda p: p["entries"][0].update(title=None), "title"),
    "numeric-author": (lambda p: p["entries"][0].update(author=7), "author"),
    "entry-names-no-cluster": (lambda p: p["entries"][0].update(cluster_id="nowhere"),
                               "no cluster"),
    "cluster-without-entries": (lambda p: p["clusters"].append(
        {"cluster_id": "ghost", "representative": p["clusters"][1]["representative"]}),
        "no entry names cluster"),
    "duplicate-book-id": (lambda p: p["entries"][1].update(book_id=p["entries"][0]["book_id"]),
                          "duplicate"),
    "duplicate-cluster-id": (lambda p: p["clusters"][1].update(cluster_id="book-a"), "unique"),
    "string-value": (lambda p: p["entries"][0]["series"][1].update(value="0.2"),
                     "non-numeric"),
    "bool-position": (lambda p: p["clusters"][0]["representative"][0].update(position=True),
                      "non-numeric"),
    "overflowing-int-value": (lambda p: p["entries"][0]["series"][1].update(value=10**400),
                              "too large"),
    "numeric-format-version": (lambda p: p.update(format_version=1), "format_version"),
    "numeric-cluster-id": (lambda p: p["entries"][0].update(cluster_id=7),
                           "cluster_id is not a string"),
    **{f"cluster-id-{bad!r}": (lambda p, bad=bad: p["clusters"][0].update(cluster_id=bad),
                               "is not a unique string") for bad in ([1], {})},
    **{f"entry-id-{bad!r}": (lambda p, bad=bad: p["entries"][0].update(book_id=bad),
                             "is not a plain file name") for bad in BAD_ENTRY_IDS},
}


@pytest.mark.parametrize("where", list(_BAD_SERIES))
def test_load_rejects_negative_values(tmp_path, where):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    corrupt, words = _BAD_SERIES[where]
    corrupt(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=words) as excinfo:
        load(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("config", [
    [],
    {**PipelineConfig().to_dict(), "colour": "blue"},
    {"length_ratio_limit": "x"},
    {"length_ratio_limit": 1.5},
    {"block_size": 120.5},
    {"prime_max": True},
], ids=["not-a-mapping", "unknown-key", "wrong-type", "out-of-range", "float-for-int",
        "bool-for-int"])
def test_load_rejects_a_bad_config(tmp_path, config):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"] = config
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="config") as excinfo:
        load(path)
    assert str(path) in str(excinfo.value)


def test_load_without_a_config_takes_the_defaults(tmp_path):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["config"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load(path).config == PipelineConfig()


def test_failed_save_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "catalogue.json"
    save(_toy_catalogue(), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("arcindex.ingest.os.replace", fail)
    cat = _toy_catalogue()
    cat.entries = cat.entries[:1]
    with pytest.raises(OSError, match="disk full"):
        save(cat, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["catalogue.json"]


def test_save_keeps_the_mode_a_plain_write_gives(tmp_path):
    path, plain = tmp_path / "catalogue.json", tmp_path / "plain.json"
    umask = os.umask(0o077)
    try:
        save(_toy_catalogue(), path)
        plain.write_text("", encoding="utf-8")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o600
    path.chmod(0o640)
    save(_toy_catalogue(), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


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
        Cluster(cluster_id="a", members=["a"], representative=s_a),
        Cluster(cluster_id="b", members=["b"], representative=s_b),
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


def _mean_points(long, short, ratio_limit):
    _, grown = align_lengths(long, short, ratio_limit)
    return [((a.position + b.position) / 2, (a.value + b.value) / 2)
            for a, b in zip(long.points, grown.points)]


def test_a_catalogue_scores_with_its_configured_ratio_limit(tmp_path):
    # 12 against 7 points is a length ratio of 5/12: above 0.3 the short
    # series promotes secondary pivots, below 0.6 it is interpolated.
    long = _series("long", [0.2, 0.5, 0.3, 0.7, 0.4, 0.6, 0.35, 0.8, 0.45, 0.55, 0.3, 0.65])
    short = _series("short", [0.25, 0.6, 0.35, 0.75, 0.4, 0.7, 0.5])
    ranked = sorted(range(75), key=lambda b: (-(0.3 + 0.04 * (b * 17 % 13)), b))
    short.context = [(b / 74, 0.3 + 0.04 * (b * 37 % 11)) for b in ranked]
    cfg = PipelineConfig(dt=0.01, length_ratio_limit=0.6).validate()
    clusters, _, _ = cluster_series([long, short], cfg, spsi_matrix([long, short], 0.6))
    assert [c.members for c in clusters] == [["long", "short"]]
    rep = [(p.position, p.value) for p in clusters[0].representative.points]
    assert rep == _mean_points(long, short, 0.6)
    assert rep != _mean_points(long, short, 0.3)

    path = tmp_path / "cat.json"
    save(build_catalogue(clusters, {"long": long, "short": short}, cfg, {}), path)
    loaded = load(path)
    entry = loaded.entry("long").series
    results = dict(search_similar(loaded, short, k=2))
    assert results["long"] == score(short, entry, 0.6)
    assert results["long"] != score(short, entry, 0.3)
    cid, sim = nearest_cluster(loaded, short)
    assert sim == score(short, loaded.cluster(cid).representative, 0.6)
    assert sim != score(short, loaded.cluster(cid).representative, 0.3)


@st.composite
def _shelf(draw):
    """4-7 series of 5, 7, 9 or 12 points, the first four 12, 12, 9 and 5.

    At the default ratio limit 0.3, 12 against 9, 9 against 7 and 7
    against 5 points are interpolated, wider differences promote
    secondary pivots. So every shelf holds a pair of each route: the
    5-point series always has context blocks, others may. Values include
    zeros; positions run from 0 to 1 on a 1/1000 grid.
    """
    lengths = [12, 12, 9, 5] + draw(st.lists(st.sampled_from([5, 7, 9, 12]), max_size=3))
    shelf = []
    for i, n in enumerate(lengths):
        inner = draw(st.lists(st.integers(1, 999), min_size=n - 2, max_size=n - 2,
                              unique=True))
        positions = [0.0] + [g / 1000 for g in sorted(inner)] + [1.0]
        values = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        series = _series(f"b{i}", [v / 20 for v in values], positions)
        if n == 5 or draw(st.booleans()):
            rng = random.Random(draw(st.integers(0, 2**32)))
            series.context = [(b / 74, rng.randint(0, 10) / 10)
                              for b in rng.sample(range(75), 75 if i == 3 else 30)]
        shelf.append(series)
    return shelf


def _without_context(series):
    return SentimentSeries(book_id=series.book_id, points=series.points)


@settings(max_examples=60, deadline=None)
@given(shelf=_shelf(), dt=st.sampled_from([0.5, 0.8, 0.95]))
def test_search_after_load_scores_pairs_as_the_index_did(tmp_path_factory, shelf, dt):
    cfg = PipelineConfig(dt=dt).validate()
    ratio = cfg.length_ratio_limit
    matrix = spsi_matrix(shelf, ratio)
    clusters, _, _ = cluster_series(shelf, cfg, matrix)
    by_id = {s.book_id: s for s in shelf}
    built = build_catalogue(clusters, by_id, cfg, {})
    path = tmp_path_factory.mktemp("cat") / "cat.json"
    save(built, path)
    loaded = load(path)
    assert [(c.cluster_id, c.members) for c in loaded.clusters] == \
           [(c.cluster_id, c.members) for c in built.clusters]
    index = {b: i for i, b in enumerate(matrix.book_ids)}
    routes = set()
    for query in matrix.book_ids:
        for book_id, found in search_similar(loaded, query, k=len(shelf)):
            expected = matrix.values[index[query]][index[book_id]]
            a, b = align_lengths(by_id[query], by_id[book_id], ratio)
            secondary = any(p.provenance == SECONDARY for p in a.points + b.points)
            routes.add("secondary" if secondary else
                       "equal" if len(by_id[query]) == len(by_id[book_id]) else "interpolated")
            if secondary:
                # The context is not stored: after load the pair is grown
                # by midpoints, as if the book had no context.
                assert found == score(_without_context(by_id[query]),
                                      _without_context(by_id[book_id]), ratio)
            else:
                assert found == expected
    assert routes == {"equal", "interpolated", "secondary"}
