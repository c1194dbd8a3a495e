"""arcindex: index and search books by their sentiment progression.

The pipeline turns raw narrative text into a compact series of
sentiment values sampled at character-interaction pivot points, scores
series against each other with a similarity index built on combined
sentiment, clusters the corpus by that similarity, and serves top-k and
nearest-cluster queries from a persisted catalogue.
"""

from .baselines import (AgreementReport, agreement, baseline1_vectors,
                        baseline2_vectors, cosine, similarity_matrix_from_vectors)
from .catalogue import (FORMAT_VERSION, Catalogue, CatalogueEntry, build_catalogue,
                        load, nearest_cluster, save, search_similar)
from .characters import (CharacterProfile, CoOccurrenceEdge, co_occurrence,
                         extract_characters, select_core, select_prime)
from .clustering import (Cluster, cluster_matrix, cluster_report, cluster_series,
                         resolve_threshold)
from .config import PipelineConfig, format_config, load_config, parse_config_text
from .errors import (AliasError, ArcIndexError, ConfigError, CoreExtractionError,
                     DegenerateSeries, EmptyCatalogue, EmptyDocument, FormatError,
                     LengthMismatch, LexiconError, MissingLabel, MissingText,
                     NoPivots, TooFewPivots, UnknownBook, VersionError)
from .ingest import (AliasTable, BookDocument, LogicalBlock, Tokens, load_aliases,
                     load_cmu_summaries, load_default_lexicon, load_lexicon,
                     load_plain_text, load_store, save_store, segment_blocks,
                     tokenize)
from .pipeline import (BookAnalysis, CorpusResult, EvaluationReport, analyze_book,
                       analyze_corpus, build_from_documents, evaluate,
                       load_corpus_dir, load_labels)
from .pivots import (InteractionIndex, PivotPoint, block_sentiment,
                     block_sentiments, compute_interactions, detect_pivots,
                     predominant_pair, smooth)
from .series import (INTERPOLATED, PRIMARY, SECONDARY, SentimentSeries, SeriesPoint,
                     align_lengths, build_series, export_series_csv, read_series_csv)
from .similarity import (SimilarityMatrix, SpsiBreakdown, read_matrix_csv, score,
                         spsi, spsi_breakdown, spsi_matrix, write_matrix_csv)
from .synth import (DEFAULT_TEMPLATES, ArcTemplate, GenSpec, SynthResult,
                    generate, write_corpus)

__version__ = "0.1.0"
