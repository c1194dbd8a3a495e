import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import arcindex
from arcindex.errors import CoreExtractionError, FormatError
from arcindex.ingest import BookDocument, tokenize
from arcindex.pipeline import (analyze_book, analyze_corpus, build_from_documents,
                               evaluate, load_corpus_dir, load_labels)
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

    context = analysis.series.context
    assert len(context) == analysis.block_count
    assert context[0].position == 0.0
    assert context[-1].position == 1.0
    for pivot in analysis.pivots:
        assert context[pivot.block_index].interacting


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


def test_load_corpus_dir_merges_summary_metadata(tmp_path, synth_small):
    write_corpus(synth_small, tmp_path)
    docs, aliases = load_corpus_dir(tmp_path)
    assert aliases is None
    assert [d.book_id for d in docs] == sorted(synth_small.texts)
    originals = {d.book_id: d for d in synth_small.documents}
    for doc in docs:
        original = originals[doc.book_id]
        assert doc.title == original.title
        assert doc.author == original.author
        assert doc.metadata["genres"] == original.metadata["genres"]
        assert doc.metadata["summary"] == original.metadata["summary"]
        assert [t.text for t in doc.tokens] == [t.text for t in original.tokens]


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
    path.write_text("book_id,label\nb1,2\nb2,1\n", encoding="utf-8")
    assert load_labels(path) == {"b1": "2", "b2": "1"}


def test_load_labels_rejects_a_one_column_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("book_id,label\nb1,2\nb2\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_labels(path)
