"""End-to-end orchestration: documents in, catalogue out.

The per-book stage (characters, interactions, pivots, series) is
embarrassingly parallel and can fan out over worker processes; the
corpus stages (similarity matrix, clustering, catalogue assembly) run
in the parent process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .baselines import (agreement, baseline1_vectors, baseline2_vectors,
                        partition_from_similarity, similarity_matrix_from_vectors)
from .catalogue import Catalogue, build_catalogue
from .characters import co_occurrence, extract_characters, select_core, select_prime
from .clustering import cluster_series, resolve_threshold
from .config import PipelineConfig
from .errors import ArcIndexError, FormatError
from .ingest import (AliasTable, BookDocument, SentimentLexicon, load_aliases,
                     load_cmu_summaries, load_default_lexicon, load_plain_text,
                     segment_blocks)
from .pivots import block_sentiments, compute_interactions, predominant_pair, smooth
from .series import ContextBlock, SentimentSeries, build_series
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
                 lexicon: SentimentLexicon | None = None,
                 aliases: AliasTable | None = None) -> BookAnalysis:
    """Run the per-book stages and produce the book's sentiment series."""
    lexicon = lexicon or load_default_lexicon()
    blocks = segment_blocks(doc, cfg.block_size)
    profiles = extract_characters(doc, aliases)
    primes = select_prime(profiles, cfg.prime_max, cfg.min_mentions)
    edges = co_occurrence(doc, primes, cfg.window)
    core = select_core(primes, edges, cfg.edge_threshold)
    core_profiles = [p for p in profiles if p.canonical_name in core]
    interactions = compute_interactions(core_profiles, cfg.window,
                                        cfg.block_size, len(blocks))
    sentiments = block_sentiments(blocks, doc, lexicon, cfg)
    smoothed = smooth(sentiments, cfg.smoothing_radius)
    pair, pivots = predominant_pair(core, interactions, sentiments, smoothed, cfg)
    series = build_series(doc.book_id, pivots)
    denom = len(blocks) - 1
    interacting = set(interactions.interacting_blocks(pair))
    series.context = [
        ContextBlock(
            position=b / denom if denom > 0 else 0.0,
            value=sentiments[b],
            smoothed=smoothed[b],
            interacting=b in interacting,
        )
        for b in range(len(blocks))
    ]
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


def _analysis_task(doc, cfg, lexicon, aliases):
    return analyze_book(doc, cfg, lexicon=lexicon, aliases=aliases)


def analyze_corpus(docs, cfg: PipelineConfig,
                   lexicon: SentimentLexicon | None = None,
                   aliases: AliasTable | None = None,
                   skip_errors: bool = False):
    """Analyze every document, optionally in parallel.

    Returns (analyses, failures); failures is a list of (book_id,
    message) and stays empty unless skip_errors is set, in which case
    books the pipeline cannot carry to a series are reported there
    instead of raising.
    """
    lexicon = lexicon or load_default_lexicon()
    analyses = []
    failures = []

    def record(doc, outcome):
        try:
            analyses.append(outcome())
        except ArcIndexError as exc:
            if not skip_errors:
                raise
            failures.append((doc.book_id, f"{type(exc).__name__}: {exc}"))

    if cfg.jobs > 1 and len(docs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_analysis_task, doc, cfg, lexicon, aliases)
                       for doc in docs]
            for doc, future in zip(docs, futures):
                record(doc, future.result)
    else:
        for doc in docs:
            record(doc, lambda d=doc: analyze_book(d, cfg, lexicon, aliases))
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
                         lexicon: SentimentLexicon | None = None,
                         aliases: AliasTable | None = None,
                         skip_errors: bool = False) -> CorpusResult:
    """Documents to searchable catalogue in one pass."""
    analyses, failures = analyze_corpus(docs, cfg, lexicon=lexicon,
                                        aliases=aliases, skip_errors=skip_errors)
    series_list = [a.series for a in analyses]
    matrix = spsi_matrix(series_list, cfg.length_ratio_limit)
    clusters, dt, trace = cluster_series(series_list, cfg, matrix=matrix)
    book_meta = {a.book_id: (a.title, a.author) for a in analyses}
    catalogue = build_catalogue(clusters, {s.book_id: s for s in series_list},
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
             lexicon: SentimentLexicon | None = None,
             aliases: AliasTable | None = None) -> EvaluationReport:
    """Cluster three ways and score each against reference labels.

    The two lexical baselines cluster their own cosine matrices with
    the same average-linkage procedure; their thresholds adapt to each
    matrix because cosine and progression similarity live on different
    scales.
    """
    analyses, _ = analyze_corpus(docs, cfg, lexicon=lexicon, aliases=aliases)
    series_list = [a.series for a in analyses]
    matrix = spsi_matrix(series_list, cfg.length_ratio_limit)
    clusters, dt, _trace = cluster_series(series_list, cfg, matrix=matrix)
    partition = [list(c.members) for c in clusters]
    progression = agreement(partition, labels, method="sentiment-progression")

    adaptive = cfg.replace(dt_mode="adaptive")
    baseline_dts = {}
    reports = {}
    for method, vectors in (
        ("tfidf-metadata", baseline1_vectors(docs)),
        ("tfidf-summary", baseline2_vectors(docs)),
    ):
        cos_matrix = similarity_matrix_from_vectors(vectors)
        b_dt = resolve_threshold(cos_matrix, adaptive)
        b_partition = partition_from_similarity(cos_matrix, b_dt)
        reports[method] = agreement(b_partition, labels, method=method)
        baseline_dts[method] = b_dt

    return EvaluationReport(
        progression=progression,
        metadata_baseline=reports["tfidf-metadata"],
        summary_baseline=reports["tfidf-summary"],
        progression_dt=dt,
        baseline_dts=baseline_dts,
    )


def load_labels(path) -> dict:
    """Read a two-column ``book_id,label`` CSV (header optional)."""
    import csv

    labels = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() == "book_id":
                continue
            if len(row) < 2:
                raise FormatError(f"{path}: row {row_no}: expected book_id,label")
            labels[row[0].strip()] = row[1].strip()
    return labels


def load_corpus_dir(path, aliases_name: str = "aliases.tsv"):
    """Load a corpus directory.

    Layout: ``books/*.txt`` (or ``*.txt`` at the top level), optional
    ``summaries.tsv`` in the seven-column dump format for metadata,
    optional ``aliases.tsv``. Returns (documents, aliases or None).
    """
    root = Path(path)
    books_dir = root / "books" if (root / "books").is_dir() else root
    meta = {}
    tsv = root / "summaries.tsv"
    if tsv.is_file():
        meta_docs, _skipped = load_cmu_summaries(tsv)
        meta = {d.book_id: d for d in meta_docs}
    docs = []
    for text_path in sorted(books_dir.glob("*.txt")):
        book_id = text_path.stem
        doc = load_plain_text(text_path, book_id=book_id)
        m = meta.get(book_id)
        if m is not None:
            doc = BookDocument(book_id=book_id, title=m.title, tokens=doc.tokens,
                               author=m.author, language=doc.language,
                               metadata=dict(m.metadata))
        docs.append(doc)
    aliases_path = root / aliases_name
    aliases = load_aliases(aliases_path) if aliases_path.is_file() else None
    return docs, aliases
