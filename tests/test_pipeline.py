import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcindex
from arcindex.catalogue import load, nearest_cluster, save, search_similar
from arcindex.characters import extract_characters
from arcindex.clustering import cluster_report
from arcindex.config import PipelineConfig
from arcindex.errors import CoreExtractionError, FormatError, TooFewPivots
from arcindex.ingest import (AliasTable, BookDocument, load_default_lexicon, load_store,
                             save_store, segment_blocks, tokenize)
from arcindex.pipeline import (analyze_book, analyze_corpus, build_from_documents,
                               evaluate, load_corpus_dir, load_labels)
from arcindex.pivots import block_sentiments, compute_interactions, smooth
from arcindex.series import SECONDARY, align_lengths
from arcindex.similarity import score
from arcindex.synth import DEFAULT_TEMPLATES, ArcTemplate, GenSpec, generate, write_corpus


def _label_groups(labels):
    groups = {}
    for book_id, label in labels.items():
        groups.setdefault(label, set()).add(book_id)
    return {frozenset(v) for v in groups.values()}


def test_analyze_book_reports_structure_and_context(synth_small, synth_cfg):
    doc = synth_small.documents[0]
    truth = synth_small.truth[doc.book_id]
    analysis = analyze_book(doc, synth_cfg)
    assert analysis.book_id == doc.book_id
    assert analysis.title == doc.title
    assert analysis.author == doc.author
    assert analysis.block_count == 75
    assert analysis.core == sorted(truth.core)
    assert analysis.series.book_id == doc.book_id

    # The context is the pair's interacting blocks as (position, block
    # sentiment), best first: highest smoothed sentiment, then earliest.
    denom = analysis.block_count - 1
    ranked = [round(position * denom) for position, _ in analysis.series.context]
    blocks = segment_blocks(doc, synth_cfg.block_size)
    sentiments = block_sentiments(blocks, doc, load_default_lexicon(), synth_cfg)
    smoothed = smooth(sentiments, synth_cfg.smoothing_radius)
    assert analysis.series.context == [(b / denom, sentiments[b]) for b in ranked]
    assert ranked == sorted(ranked, key=lambda b: (-smoothed[b], b))
    profiles = [p for p in extract_characters(doc) if p.canonical_name in analysis.core]
    interactions = compute_interactions(profiles, synth_cfg.window, synth_cfg.block_size,
                                        analysis.block_count)
    assert sorted(ranked) == interactions.interacting_blocks(analysis.pair)
    assert {p.block_index for p in analysis.pivots} <= set(ranked)


def test_skip_errors_collects_failures_instead_of_raising(synth_small, synth_cfg):
    bad = BookDocument(book_id="bad", title="Bad",
                       tokens=tokenize("no names in this text at all. " * 100))
    docs = [synth_small.documents[0], bad]

    with pytest.raises(CoreExtractionError):
        analyze_corpus(docs, synth_cfg)

    analyses, failures = analyze_corpus(docs, synth_cfg, skip_errors=True)
    assert [a.book_id for a in analyses] == [synth_small.documents[0].book_id]
    assert len(failures) == 1
    assert failures[0][0] == "bad"
    assert "CoreExtractionError" in failures[0][1]


def test_an_explicit_empty_lexicon_is_used_not_replaced(synth_small, synth_cfg,
                                                       monkeypatch):
    import arcindex.pipeline as pipeline_mod

    def no_default():
        raise AssertionError("the default lexicon was loaded")

    monkeypatch.setattr(pipeline_mod, "load_default_lexicon", no_default)
    doc = synth_small.documents[0]
    # Every block scores 0.5, so the flat series has a single pivot.
    with pytest.raises(TooFewPivots):
        analyze_book(doc, synth_cfg, lexicon={})
    analyses, failures = analyze_corpus([doc], synth_cfg, lexicon={}, skip_errors=True)
    assert analyses == []
    assert [book_id for book_id, _ in failures] == [doc.book_id]
    assert "TooFewPivots" in failures[0][1]


def test_build_from_documents_clusters_by_archetype(synth_small, synth_outcome,
                                                    synth_cfg):
    result = build_from_documents(synth_small.documents, synth_cfg)
    assert len(result.analyses) == 6
    assert result.failures == []
    assert result.matrix.book_ids == [d.book_id for d in synth_small.documents]
    grouped = {frozenset(c.members) for c in result.clusters}
    assert grouped == _label_groups(synth_small.labels)
    assert len(result.catalogue.entries) == 6
    assert result.dynamic_threshold == synth_cfg.dt
    assert result.merge_trace


def test_build_from_documents_refuses_a_repeated_book_id(synth_small, synth_cfg):
    docs = synth_small.documents
    with pytest.raises(FormatError, match="duplicate book_id"):
        build_from_documents(docs + [docs[0]], synth_cfg)


def test_matrix_entries_equal_the_pair_scorer(synth_cfg):
    # Series of 12, 11 and 7 points: pairs take the equal-length,
    # interpolated and secondary-pivot alignment routes.
    templates = tuple(ArcTemplate(t.archetype_id, t.name, t.description, t.values[:k])
                      for t, k in zip(DEFAULT_TEMPLATES, (12, 10, 7)))
    docs = generate(GenSpec(seed=31, books_per_archetype=2, templates=templates)).documents
    result = build_from_documents(docs, synth_cfg)
    series = [a.series for a in result.analyses]
    assert result.matrix.book_ids == [s.book_id for s in series]
    assert len({len(s) for s in series}) == 3
    for i, j in combinations(range(len(series)), 2):
        expected = score(series[i], series[j], synth_cfg.length_ratio_limit)
        assert result.matrix.values[i][j] == expected
        assert result.matrix.values[j][i] == expected


def test_import_starts_no_process_machinery():
    code = ("import sys, arcindex; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(arcindex.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_evaluate_scores_progression_and_baselines(synth_small, synth_cfg):
    report = evaluate(synth_small.documents, synth_small.labels, synth_cfg)
    assert report.progression.method == "sentiment-progression"
    assert report.progression.purity == 1.0
    assert report.metadata_baseline.method == "tfidf-metadata"
    assert report.summary_baseline.method == "tfidf-summary"
    assert set(report.baseline_dts) == {"tfidf-metadata", "tfidf-summary"}
    margins = report.purity_margins()
    assert set(margins) == {"over_metadata", "over_summary"}
    json.dumps(report.to_dict())


def test_index_then_evaluate_analyses_each_book_once(synth_small, synth_cfg, monkeypatch):
    # Neither call is given a lexicon: both take the one default lexicon,
    # so evaluate finds the analyses that indexing kept.
    import arcindex.pipeline as pipeline_mod

    runs = []
    real = pipeline_mod._analyze

    def counted(doc, *args):
        runs.append(doc.book_id)
        return real(doc, *args)

    monkeypatch.setattr(pipeline_mod, "_analyze", counted)
    docs = [replace(d) for d in synth_small.documents]
    build_from_documents(docs, synth_cfg)
    evaluate(docs, synth_small.labels, synth_cfg)
    assert runs == [d.book_id for d in docs]
    assert load_default_lexicon() is load_default_lexicon()


def test_load_corpus_dir_merges_summary_metadata(tmp_path, synth_small, monkeypatch):
    write_corpus(synth_small, tmp_path)
    tokenized = []
    monkeypatch.setattr(arcindex.ingest, "tokenize",
                        lambda text, tokenize=tokenize: tokenized.append(text) or tokenize(text))
    docs, aliases = load_corpus_dir(tmp_path)
    # Only the books are tokenized; the summaries give metadata alone.
    assert len(tokenized) == len(docs)
    assert aliases is None
    assert [d.book_id for d in docs] == sorted(synth_small.texts)
    originals = {d.book_id: d for d in synth_small.documents}
    for doc in docs:
        original = originals[doc.book_id]
        assert doc.title == original.title
        assert doc.author == original.author
        assert doc.metadata["genres"] == original.metadata["genres"]
        assert doc.metadata["summary"] == original.metadata["summary"]
        assert doc.tokens.words() == original.tokens.words()


def test_load_corpus_dir_accepts_bare_text_files(tmp_path):
    (tmp_path / "one_tale.txt").write_text("They saw Mira by the gate.",
                                           encoding="utf-8")
    (tmp_path / "two_tale.txt").write_text("Others met Jorin at the mill.",
                                           encoding="utf-8")
    docs, aliases = load_corpus_dir(tmp_path)
    assert [d.book_id for d in docs] == ["one_tale", "two_tale"]
    assert docs[0].title == "one tale"
    assert aliases is None


def test_load_corpus_dir_picks_up_alias_sidecar(tmp_path):
    books = tmp_path / "books"
    books.mkdir()
    (books / "b1.txt").write_text("They saw Mira by the gate.", encoding="utf-8")
    (tmp_path / "aliases.tsv").write_text("Mira\tMi\n", encoding="utf-8")
    _docs, aliases = load_corpus_dir(tmp_path)
    assert aliases is not None
    assert aliases.resolve("mi") == "Mira"


def test_load_labels_reads_two_column_csv(tmp_path):
    path = tmp_path / "labels.csv"
    # A row of whitespace is blank, as it is in series and matrix CSVs.
    for text in ("book_id,label\nb1,2\nb2,1\n", "book_id,label\nb1,2\n   \nb2,1\n"):
        path.write_text(text, encoding="utf-8")
        assert load_labels(path) == {"b1": "2", "b2": "1"}


def test_load_labels_rejects_a_one_column_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("book_id,label\nb1,2\nb2\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_labels(path)


def test_load_labels_rejects_a_repeated_book_id(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("book_id,label\nb1,x\nb2,x\nb1,y\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: row 4: book id 'b1' is repeated")):
        load_labels(path)


def _hexed(value):
    """A value with floats as hex and dataclasses as tuples of their public fields."""
    if isinstance(value, float):
        return value.hex()
    if is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _hexed(getattr(value, f.name)) for f in fields(value) if not f.name.startswith("_"))
    if isinstance(value, (list, tuple)):
        return tuple(_hexed(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


# Alternative values for config fields; alpha changes the analysis, the
# others only its key.
_OTHER_VALUES = {"alpha": 0.05, "dt": 0.5, "length_ratio_limit": 0.4}


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(sorted(_OTHER_VALUES) + ["lexicon", "aliases"]),
                min_size=1, max_size=6))
def test_a_kept_analysis_equals_a_fresh_one(synth_small, synth_cfg, changes):
    shared = replace(synth_small.documents[0])
    cfg, lexicon, aliases = synth_cfg, load_default_lexicon(), None
    previous = None
    for change in [None] + changes:
        if change == "lexicon":
            lexicon = dict(lexicon)          # equal content, another object
        elif change == "aliases":
            aliases = AliasTable()
        elif change is not None:
            default = getattr(synth_cfg, change)
            now = getattr(cfg, change)
            cfg = cfg.replace(**{change: _OTHER_VALUES[change] if now == default else default})
        got = analyze_book(shared, cfg, lexicon, aliases)
        assert got is not previous
        assert analyze_book(shared, cfg, lexicon, aliases) is got
        fresh = analyze_book(replace(synth_small.documents[0]), cfg, lexicon, aliases)
        assert _hexed(got) == _hexed(fresh)
        previous = got


def test_a_config_changed_in_place_misses_the_kept_analysis(synth_small, synth_cfg):
    # The memo keeps a copy of the config, so the caller's own object may change.
    doc = replace(synth_small.documents[0])
    cfg = replace(synth_cfg)
    kept = analyze_book(doc, cfg)
    cfg.alpha = _OTHER_VALUES["alpha"]
    got = analyze_book(doc, cfg)
    assert got is not kept
    assert _hexed(got) == _hexed(analyze_book(replace(synth_small.documents[0]), cfg))
    assert _hexed(got) != _hexed(kept)


def test_a_lexicon_is_held_so_its_address_cannot_be_reused(synth_small, synth_cfg):
    # Were the kept lexicon compared by id alone, a new lexicon allocated
    # where the freed one lived would be taken for it.
    doc = replace(synth_small.documents[0])
    base = load_default_lexicon()
    for scale in (1.0, 0.5, 1.0, 0.5):
        lexicon = {term: polarity * scale for term, polarity in base.items()}
        got = _hexed(analyze_book(doc, synth_cfg, lexicon))
        assert got == _hexed(analyze_book(replace(doc), synth_cfg, lexicon))
        del lexicon


def test_a_failed_analysis_is_not_kept(synth_cfg, monkeypatch):
    import arcindex.pipeline as pipeline_mod

    runs = []
    real = pipeline_mod._analyze

    def counted(doc, *args):
        runs.append(doc.book_id)
        return real(doc, *args)

    monkeypatch.setattr(pipeline_mod, "_analyze", counted)
    bad = BookDocument(book_id="bad", title="Bad",
                       tokens=tokenize("no names in this text at all. " * 100))
    lexicon = load_default_lexicon()
    for _ in range(2):
        analyses, failures = analyze_corpus([bad], synth_cfg, lexicon=lexicon,
                                            skip_errors=True)
        assert analyses == []
        assert [book_id for book_id, _ in failures] == ["bad"]
        assert "CoreExtractionError" in failures[0][1]
        assert bad._analysis is None
    assert runs == ["bad", "bad"]


def test_overlapping_shelves_match_builds_from_fresh_documents(tmp_path, synth_cfg):
    # 12-, 10- and 7-point series, so shared series also share grown copies.
    templates = tuple(ArcTemplate(t.archetype_id, t.name, t.description, t.values[:k])
                      for t, k in zip(DEFAULT_TEMPLATES, (12, 10, 7)))
    corpus = generate(GenSpec(seed=31, books_per_archetype=2, templates=templates))
    docs = corpus.documents
    store = tmp_path / "store.json"
    save_store(docs, store)
    lexicon = load_default_lexicon()
    shelves = [docs[0:4], docs[2:6], docs[0:4]]
    kept = {}
    for i, shelf in enumerate(shelves):
        by_id = {d.book_id: d for d in load_store(store)}
        fresh_docs = [by_id[d.book_id] for d in shelf]
        shared = build_from_documents(shelf, synth_cfg, lexicon=lexicon)
        fresh = build_from_documents(fresh_docs, synth_cfg, lexicon=load_default_lexicon())
        assert _hexed(shared.matrix.values) == _hexed(fresh.matrix.values)
        assert repr(shared.merge_trace) == repr(fresh.merge_trace)
        save(shared.catalogue, tmp_path / f"shared-{i}.json")
        save(fresh.catalogue, tmp_path / f"fresh-{i}.json")
        assert ((tmp_path / f"shared-{i}.json").read_bytes()
                == (tmp_path / f"fresh-{i}.json").read_bytes())
        labels = {d.book_id: corpus.labels[d.book_id] for d in shelf}
        assert (evaluate(shelf, labels, synth_cfg, lexicon=lexicon).to_dict()
                == evaluate(fresh_docs, labels, synth_cfg).to_dict())
        for a in shared.analyses:
            # A book seen on an earlier shelf is not analysed again.
            assert kept.setdefault(a.book_id, a) is a


def test_the_kept_analysis_is_never_saved(tmp_path, synth_small, synth_cfg):
    docs = [replace(d) for d in synth_small.documents[:2]]
    save_store(docs, tmp_path / "before.json")
    analyze_corpus(docs, synth_cfg)
    assert all(d._analysis is not None for d in docs)
    save_store(docs, tmp_path / "after.json")
    assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
    assert load_store(tmp_path / "after.json") == docs
    assert "_analysis" not in repr(docs[0])


# Windows of the default templates that a shelf of mixed lengths holds,
# as perfbench's shelves cut them: archetype id -> {length: first index
# kept}. Each window ends on a value of at least 0.35, so the analysed
# series has exactly the window's length.
_WINDOWS = {1: {9: 0, 7: 0, 5: 0}, 2: {9: 3, 7: 5, 5: 7}, 3: {9: 0, 7: 0, 5: 0}, 4: {9: 2}}

PROMOTED_SHELF_DIGESTS = {
    "matrix": "496d9008100cfc9b570a0d589ddb9fce0cadab9f81dae7a4b1d817818031158d",
    "merge_trace": "bdc6d2e71431eaf72c57e6ebc5806f30b1c3d962cb236a70c2ec0aa95fb0af73",
    "catalogue": "b771312f7751429da6b9dab6aeba4005ca58373256262e042d2d27416527b224",
    "like": "df17fcad053844e2ced6853cc452cec556ac03a465aec8bfb6c8b1dbe8e9043a",
    "pattern": "8cbb6a8e989c9ccf56bbdae91b10aed666944c43e77e41674897c8187037bd0e",
    "cluster_report": "327488708dade1f6829ee6ddf021c9beae41ec1330a62b8b484c45bb76179ee8",
}


def promoted_shelf_digests(workdir):
    """Index, save, load and search a shelf of 12-, 9-, 7- and 5-point books.

    Returns the alignment routes its pairs take and the SHA-256 of the
    matrix values, the merge trace, the saved catalogue, the like
    results after load (keyed by query, in book-id order), the pattern
    results after load (each analysed series' search results, nearest
    cluster and that cluster's members) and the cluster report as
    ``arcindex cluster --json`` prints it. It needs neither pytest nor
    hypothesis, so a plain script can run it under any Python version.
    """
    templates = []
    for n in (12, 9, 7, 5):
        for t in DEFAULT_TEMPLATES:
            start = 0 if n == 12 else _WINDOWS[t.archetype_id].get(n)
            if start is not None:
                templates.append(ArcTemplate(t.archetype_id, f"{t.name}-{n}", t.description,
                                             t.values[start:start + n]))
    corpus = generate(GenSpec(seed=11, books_per_archetype=2, templates=tuple(templates)))
    cfg = PipelineConfig(**corpus.recommended_config).validate()
    result = build_from_documents(corpus.documents, cfg)
    routes = set()
    for a, b in combinations([a.series for a in result.analyses], 2):
        grown = align_lengths(a, b, cfg.length_ratio_limit)
        routes.add("equal" if len(a) == len(b) else
                   "secondary" if any(p.provenance == SECONDARY
                                      for s in grown for p in s.points) else
                   "interpolated")
    path = Path(workdir) / "catalogue.json"
    save(result.catalogue, path)
    loaded = load(path)
    k = len(loaded.entries)
    likes = {q: search_similar(loaded, q, k=k) for q in sorted(e.book_id for e in loaded.entries)}
    patterns = []
    for a in result.analyses:
        cluster_id, sim = nearest_cluster(loaded, a.series)
        patterns.append((a.book_id, search_similar(loaded, a.series, k=k),
                         cluster_id, sim, loaded.cluster(cluster_id).members))
    outputs = {"matrix": repr(result.matrix.values).encode(),
               "merge_trace": repr(result.merge_trace).encode(),
               "catalogue": path.read_bytes(),
               "like": repr(likes).encode(),
               "pattern": repr(patterns).encode(),
               "cluster_report": json.dumps(
                   cluster_report(result.clusters, result.dynamic_threshold, result.merge_trace),
                   indent=2, sort_keys=True).encode()}
    return routes, {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_a_shelf_of_mixed_lengths_is_pinned_on_every_route(tmp_path):
    routes, digests = promoted_shelf_digests(tmp_path)
    assert routes == {"equal", "interpolated", "secondary"}
    assert digests == PROMOTED_SHELF_DIGESTS
