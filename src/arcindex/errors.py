"""Exception types raised across the arcindex pipeline."""


class ArcIndexError(Exception):
    """Base class for all arcindex errors."""


class ConfigError(ArcIndexError):
    """Invalid or unknown configuration value."""


class EmptyDocument(ArcIndexError):
    """A document with no usable tokens."""


class LexiconError(ArcIndexError):
    """Malformed sentiment lexicon file."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class AliasError(ArcIndexError):
    """Malformed or conflicting alias sidecar."""


class CoreExtractionError(ArcIndexError):
    """No prime characters available, so no core set can exist."""


class NoPivots(ArcIndexError):
    """A character pair with no interacting blocks."""


class TooFewPivots(ArcIndexError):
    """Fewer than two pivot points; no series can be built."""


class LengthMismatch(ArcIndexError):
    """Series of different lengths passed where equal lengths are required."""


class DegenerateSeries(ArcIndexError):
    """A series computation that has no defined value."""


class VersionError(ArcIndexError):
    """Persisted catalogue written by an incompatible format version."""


class FormatError(ArcIndexError):
    """Corrupt or unparseable persisted file, or a refused record.

    ``BookDocument`` raises it for a document that breaks its rules (a
    book id that is not a plain file name, a field of the wrong type),
    whichever path made the document; ``CatalogueEntry`` and
    ``Catalogue`` raise it for an entry or a catalogue that breaks its
    rules, whether ``index`` or ``load`` made it; ``cluster_series``
    raises it for a repeated book id, or a matrix whose ids are not the
    series'.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class UnknownBook(ArcIndexError):
    """Query by a book_id that is not in the catalogue."""


class EmptyCatalogue(ArcIndexError):
    """Operation that needs at least one indexed cluster."""


class MissingText(ArcIndexError):
    """Document without summary or body text where one is required."""


class MissingLabel(ArcIndexError):
    """A partitioned book has no reference label."""
