"""End-to-end orchestration: documents in, catalogue out.

The per-book stage (characters, interactions, pivots, series) runs once
per document; the corpus stages (similarity matrix, clustering,
catalogue assembly) then run over all of the resulting series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .baselines import (agreement, baseline1_vectors, baseline2_vectors,
                        similarity_matrix_from_vectors)
from .catalogue import Catalogue, build_catalogue
from .characters import co_occurrence, extract_characters, select_core, select_prime
from .clustering import cluster_matrix, cluster_series, resolve_threshold
from .config import PipelineConfig
from .errors import ArcIndexError, FormatError
from .ingest import (AliasTable, BookDocument, _csv_rows, _summary_rows, load_aliases,
                     load_default_lexicon, load_plain_text, segment_blocks)
from .pivots import (block_positions, block_sentiments, compute_interactions,
                     predominant_pair, smooth)
from .series import SentimentSeries, build_series
from .similarity import SimilarityMatrix, spsi_matrix

__all__ = [
    "BookAnalysis", "CorpusResult", "EvaluationReport",
    "analyze_book", "analyze_corpus", "build_from_documents",
    "evaluate", "load_corpus_dir", "load_labels",
]


@dataclass
class BookAnalysis:
    book_id: str
    title: str
    author: str | None
    block_count: int
    core: list                 # canonical names, sorted
    pair: tuple                # predominant interacting pair
    pivots: list               # PivotPoint, narrative order
    series: SentimentSeries


def analyze_book(doc: BookDocument, cfg: PipelineConfig,
                 lexicon: dict | None = None,
                 aliases: AliasTable | None = None) -> BookAnalysis:
    """Run the per-book stages and produce the book's sentiment series.

    The result is kept on the document together with a copy of the
    config and the lexicon and alias table objects it came from. A later
    call with an equal config and the very same lexicon and alias
    table returns that same ``BookAnalysis`` without re-running the
    stages. So the document, the lexicon and the alias table are values
    once analysed: do not change them afterwards. A returned analysis
    is shared between callers and is read-only, its series included.
    Failed analyses are not kept.
    """
    if lexicon is None:
        lexicon = load_default_lexicon()
    kept = doc._analysis
    if kept is not None and kept[0] == cfg and kept[1] is lexicon and kept[2] is aliases:
        return kept[3]
    analysis = _analyze(doc, cfg, lexicon, aliases)
    # A copy: PipelineConfig is mutable, and the caller may change theirs.
    doc._analysis = (replace(cfg), lexicon, aliases, analysis)
    return analysis


def _analyze(doc, cfg, lexicon, aliases) -> BookAnalysis:
    blocks = segment_blocks(doc, cfg.block_size)
    profiles = extract_characters(doc, aliases)
    primes = select_prime(profiles, cfg.prime_max, cfg.min_mentions)
    edges = co_occurrence(primes, cfg.window)
    core = select_core(primes, edges, cfg.edge_threshold)
    core_profiles = [p for p in profiles if p.canonical_name in core]
    interactions = compute_interactions(core_profiles, cfg.window,
                                        cfg.block_size, len(blocks))
    sentiments = block_sentiments(blocks, doc, lexicon, cfg)
    smoothed = smooth(sentiments, cfg.smoothing_radius)
    pair, pivots = predominant_pair(core, interactions, sentiments, smoothed, cfg)
    ranked = sorted(interactions.interacting_blocks(pair), key=lambda b: (-smoothed[b], b))
    context = list(zip(block_positions(ranked, len(blocks)), [sentiments[b] for b in ranked]))
    series = build_series(doc.book_id, pivots, context)
    return BookAnalysis(
        book_id=doc.book_id,
        title=doc.title,
        author=doc.author,
        block_count=len(blocks),
        core=sorted(core),
        pair=pair,
        pivots=pivots,
        series=series,
    )


def analyze_corpus(docs, cfg: PipelineConfig,
                   lexicon: dict | None = None,
                   aliases: AliasTable | None = None,
                   skip_errors: bool = False):
    """Analyze every document, in order.

    Returns (analyses, failures); failures is a list of (book_id,
    message) and stays empty unless skip_errors is set, in which case
    books the pipeline cannot carry to a series are reported there
    instead of raising.
    """
    if lexicon is None:
        lexicon = load_default_lexicon()
    analyses = []
    failures = []
    for doc in docs:
        try:
            analyses.append(analyze_book(doc, cfg, lexicon, aliases))
        except ArcIndexError as exc:
            if not skip_errors:
                raise
            failures.append((doc.book_id, f"{type(exc).__name__}: {exc}"))
    return analyses, failures


@dataclass
class CorpusResult:
    analyses: list
    failures: list
    matrix: SimilarityMatrix
    clusters: list
    dynamic_threshold: float
    merge_trace: list
    catalogue: Catalogue


def build_from_documents(docs, cfg: PipelineConfig,
                         lexicon: dict | None = None,
                         aliases: AliasTable | None = None,
                         skip_errors: bool = False) -> CorpusResult:
    """Documents to searchable catalogue in one pass: the one corpus driver.

    Analyzes every book, scores every pair, clusters the series and
    assembles the catalogue.
    """
    analyses, failures = analyze_corpus(docs, cfg, lexicon=lexicon,
                                        aliases=aliases, skip_errors=skip_errors)
    series_list = [a.series for a in analyses]
    matrix = spsi_matrix(series_list, cfg.length_ratio_limit)
    clusters, dt, trace = cluster_series(series_list, cfg, matrix=matrix)
    book_meta = {a.book_id: (a.title, a.author) for a in analyses}
    catalogue = build_catalogue(clusters, {a.book_id: a.series for a in analyses},
                                cfg, book_meta)
    return CorpusResult(
        analyses=analyses,
        failures=failures,
        matrix=matrix,
        clusters=clusters,
        dynamic_threshold=dt,
        merge_trace=trace,
        catalogue=catalogue,
    )


@dataclass
class EvaluationReport:
    progression: object        # AgreementReport for the pivot-series method
    metadata_baseline: object
    summary_baseline: object
    progression_dt: float
    baseline_dts: dict

    def purity_margins(self) -> dict:
        return {
            "over_metadata": self.progression.purity - self.metadata_baseline.purity,
            "over_summary": self.progression.purity - self.summary_baseline.purity,
        }

    def to_dict(self) -> dict:
        return {
            "progression": self.progression.to_dict(),
            "metadata_baseline": self.metadata_baseline.to_dict(),
            "summary_baseline": self.summary_baseline.to_dict(),
            "progression_dt": self.progression_dt,
            "baseline_dts": self.baseline_dts,
            "purity_margins": self.purity_margins(),
        }


def evaluate(docs, labels: dict, cfg: PipelineConfig,
             lexicon: dict | None = None,
             aliases: AliasTable | None = None) -> EvaluationReport:
    """Cluster three ways and score each against reference labels.

    The progressions go through ``build_from_documents``, the one corpus
    driver. The two lexical baselines cluster their own cosine matrices with
    the same average-linkage procedure; their thresholds adapt to each
    matrix because cosine and progression similarity live on different
    scales.
    """
    progression, progression_dt = _progression(docs, labels, cfg, lexicon, aliases)
    adaptive = cfg.replace(dt_mode="adaptive")
    baseline_dts = {}
    reports = {}
    for method, vectors in (
        ("tfidf-metadata", baseline1_vectors(docs)),
        ("tfidf-summary", baseline2_vectors(docs)),
    ):
        cos_matrix = similarity_matrix_from_vectors(vectors)
        b_dt = resolve_threshold(cos_matrix, adaptive)
        b_partition = cluster_matrix(cos_matrix, b_dt)[0]
        reports[method] = agreement(b_partition, labels, method=method)
        baseline_dts[method] = b_dt

    return EvaluationReport(
        progression=progression,
        metadata_baseline=reports["tfidf-metadata"],
        summary_baseline=reports["tfidf-summary"],
        progression_dt=progression_dt,
        baseline_dts=baseline_dts,
    )


def _progression(docs, labels: dict, cfg: PipelineConfig, lexicon=None, aliases=None):
    """The progression clusters' agreement report and their threshold.

    The corpus result, SPSI matrix included, is freed on return, before
    ``evaluate`` builds the baselines' matrices.
    """
    result = build_from_documents(docs, cfg, lexicon, aliases)
    partition = [list(c.members) for c in result.clusters]
    return (agreement(partition, labels, method="sentiment-progression"),
            result.dynamic_threshold)


def load_labels(path) -> dict:
    """Read a two-column ``book_id,label`` CSV (header optional, blank rows skipped).

    An id may not repeat.
    """
    labels = {}
    for row_no, row in _csv_rows(path):
        if row[0].strip().lower() == "book_id":
            continue
        if len(row) < 2:
            raise FormatError(f"{path}: row {row_no}: expected book_id,label")
        book_id = row[0].strip()
        if book_id in labels:
            raise FormatError(f"{path}: row {row_no}: book id {book_id!r} is repeated")
        labels[book_id] = row[1].strip()
    return labels


def load_corpus_dir(path):
    """Load a corpus directory.

    Layout: ``books/*.txt`` (or ``*.txt`` at the top level), optional
    ``summaries.tsv`` in the seven-column dump format for metadata,
    optional ``aliases.tsv``. Returns (documents, aliases or None).
    """
    return _load_corpus_dir(path)[:2]


def _load_corpus_dir(path):
    """``load_corpus_dir``'s (documents, aliases), then the skipped summary rows."""
    root = Path(path)
    books_dir = root / "books" if (root / "books").is_dir() else root
    meta = {}
    skipped = 0
    tsv = root / "summaries.tsv"
    if tsv.is_file():
        rows, skipped = _summary_rows(tsv)
        meta = {book_id: rest for book_id, *rest in rows}
    docs = []
    for text_path in sorted(books_dir.glob("*.txt")):
        doc = load_plain_text(text_path, book_id=text_path.stem)
        if doc.book_id in meta:
            title, author, metadata = meta[doc.book_id]
            doc = replace(doc, title=title, author=author, metadata=metadata)
        docs.append(doc)
    aliases_path = root / "aliases.tsv"
    aliases = load_aliases(aliases_path) if aliases_path.is_file() else None
    return docs, aliases, skipped
