"""The searchable catalogue: cluster index points plus per-book entries.

Format 2.0 stores what search reads: each cluster's id and
representative, and each book's id, title, author, cluster id and
analysed series. ``load`` derives a cluster's members from the entries
that name it. Every float is written as its ``repr``, which reads back
as the same float. So save/load is lossless, repeated saves are byte
identical, and a search scores a pair exactly as indexing did, except
where alignment would promote secondary pivots from a book's context,
which is not stored. Every stored point is primary (members come from
pivots, representatives are means), so points are stored without
provenance.

A catalogue checks its rules once, when it is made, so ``index``
(through ``build_catalogue``) and ``load`` get the same ones:
:class:`CatalogueEntry` and :class:`Catalogue` own them, and each
series checks itself, as every :class:`SentimentSeries` does. An
entry's book id follows the document id rule, so it is a plain file
name. ``load`` only decodes: it reads the JSON as the store does
(``NaN`` and ``Infinity`` literals, nesting too deep and integers too
long are refused), then checks the format version, the config
(a valid :class:`PipelineConfig`), that ``entries`` and ``clusters``
are lists of objects and each ``series`` or ``representative`` a list
of points, and that every stored position and value is an ``int`` or a
``float`` (not a ``bool``), read as a float.
Anything refused is a ``FormatError`` naming the file; a 1.x catalogue
is a ``VersionError``. ``save`` replaces the file atomically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .clustering import Cluster
from .config import PipelineConfig
from .errors import (ConfigError, DegenerateSeries, EmptyCatalogue, FormatError, UnknownBook,
                     VersionError)
from .ingest import _BOOK_RULES, _read_json, _write_atomic
from .series import SentimentSeries, SeriesPoint
from .similarity import score

FORMAT_VERSION = "2.0"

__all__ = [
    "CatalogueEntry", "Catalogue", "build_catalogue", "save", "load",
    "search_similar", "nearest_cluster", "FORMAT_VERSION",
]

# A document's book id, title and author rules, and the entry's own.
_ENTRY_RULES = _BOOK_RULES + (
    ("cluster_id is not a string", lambda e: isinstance(e.cluster_id, str)),
)


@dataclass
class CatalogueEntry:
    """One book of the catalogue, checked when it is made.

    ``book_id``, ``title`` and ``author`` keep a document's rules, from
    the same table as :class:`BookDocument`: the id is a plain file name
    (a string that is not ``""``, ``.`` or ``..`` and holds no ``/``,
    ``os.sep`` or NUL), the title a string, the author a string or None.
    ``cluster_id`` is a string. Otherwise construction raises
    ``FormatError`` naming the entry and the first broken rule.
    """
    book_id: str
    title: str
    author: str | None
    cluster_id: str
    series: SentimentSeries

    def __post_init__(self) -> None:
        for fault, holds in _ENTRY_RULES:
            if not holds(self):
                raise FormatError(f"entry {self.book_id!r}: {fault}")


@dataclass
class Catalogue:
    """Clusters and entries that agree, checked when the catalogue is made.

    Cluster ids are unique strings and book ids unique; every entry names
    a stored cluster, and each cluster's ``members`` are exactly the
    sorted ids of the entries that name it, so every cluster is named by
    an entry. Otherwise construction raises ``FormatError``. The
    catalogue keeps its entries by book id and its clusters by id, for
    ``entry``, ``in`` and ``cluster``; so it is a value: do not change
    ``entries`` or ``clusters`` after it is made.
    """
    format_version: str
    config: PipelineConfig
    clusters: list = field(default_factory=list)
    entries: list = field(default_factory=list)
    # The entries by book id and the clusters by id, taken when it is made.
    _entries: dict = field(init=False, compare=False, repr=False)
    _clusters: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._clusters = {}
        for c in self.clusters:
            if not isinstance(c.cluster_id, str) or c.cluster_id in self._clusters:
                raise FormatError(f"cluster id {c.cluster_id!r} is not a unique string")
            self._clusters[c.cluster_id] = c
        self._entries = {}
        members = {cluster_id: [] for cluster_id in self._clusters}
        for e in self.entries:
            if e.book_id in self._entries:
                raise FormatError(f"duplicate book_id {e.book_id!r}")
            if e.cluster_id not in members:
                raise FormatError(f"entry {e.book_id!r} names no cluster {e.cluster_id!r}")
            self._entries[e.book_id] = e
            members[e.cluster_id].append(e.book_id)
        for c in self.clusters:
            ids = sorted(members[c.cluster_id])
            if not ids:
                raise FormatError(f"no entry names cluster {c.cluster_id!r}")
            if c.members != ids:
                raise FormatError(f"cluster {c.cluster_id!r}: members {c.members!r} are not the "
                                  f"sorted ids of its entries, {ids!r}")

    def entry(self, book_id: str) -> CatalogueEntry:
        try:
            return self._entries[book_id]
        except KeyError:
            raise UnknownBook(book_id) from None

    def cluster(self, cluster_id) -> Cluster:
        return self._clusters[cluster_id]

    def __contains__(self, book_id: str) -> bool:
        return book_id in self._entries


def build_catalogue(clusters, series_by_id: dict, cfg: PipelineConfig,
                    book_meta: dict) -> Catalogue:
    """Assemble the index from a clustering outcome.

    ``book_meta`` maps book_id to (title, author). Clusters are sorted
    by id, and each cluster's entries by book id, the order ``load``
    gives its members.
    """
    index_clusters = []
    entries = []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        cid = cluster.cluster_id
        # Name every representative as load does, so that load(save(c)) == c
        # holds for a singleton too, whose representative is its book's series.
        rep = SentimentSeries(book_id=f"cluster:{cid}", points=cluster.representative.points)
        members = sorted(cluster.members)
        index_clusters.append(Cluster(cid, members, rep))
        for member in members:
            title, author = book_meta.get(member, (member, None))
            entries.append(CatalogueEntry(book_id=member, title=title, author=author,
                                          cluster_id=cid, series=series_by_id[member]))
    return Catalogue(format_version=FORMAT_VERSION, config=cfg,
                     clusters=index_clusters, entries=entries)


def _series_payload(series: SentimentSeries) -> list:
    return [{"position": p.position, "value": p.value} for p in series.points]


def _series_from_payload(book_id: str, payload, where: str) -> SentimentSeries:
    """The stored series of ``book_id``; ``where`` names its field in a refusal."""
    if not isinstance(payload, list):
        raise ValueError(f"{where} must be a list of points")
    points = []
    try:
        for row in payload:
            position, value = row["position"], row["value"]
            if type(position) is not float or type(value) is not float:
                # Exact type tests: they turn a bool away, which isinstance would take.
                if type(position) not in (int, float) or type(value) not in (int, float):
                    raise ValueError(f"series of {book_id!r}: point {len(points) + 1}: "
                                     "non-numeric position/value")
                position, value = float(position), float(value)
            points.append(SeriesPoint(position, value))
    except TypeError:       # a point that is not an object
        raise ValueError(f"{where} must be a list of points") from None
    return SentimentSeries(book_id=book_id, points=points)


def save(catalogue: Catalogue, path) -> None:
    """Write atomically; an interrupted save never corrupts an old file."""
    payload = {
        "format_version": catalogue.format_version,
        "config": catalogue.config.to_dict(),
        "clusters": [{"cluster_id": c.cluster_id,
                      "representative": _series_payload(c.representative)}
                     for c in catalogue.clusters],
        "entries": [{"book_id": e.book_id, "title": e.title, "author": e.author,
                     "cluster_id": e.cluster_id, "series": _series_payload(e.series)}
                    for e in catalogue.entries],
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load(path) -> Catalogue:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise FormatError(f"{path}: not a catalogue file (no format_version)")
    version = payload["format_version"]
    if not isinstance(version, str):
        raise FormatError(f"{path}: format_version {version!r} is not a string")
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise VersionError(f"{path}: format version {version} not readable by this "
                           f"build (expects {FORMAT_VERSION}); re-run `arcindex index` "
                           "to rebuild the catalogue")
    try:
        config = PipelineConfig(**payload.get("config", {})).validate()
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: bad catalogue config: {exc}") from None
    try:
        for name in ("entries", "clusters"):
            rows = payload[name]
            if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
                raise ValueError(f"{name} must be a list of objects")
        entries = [CatalogueEntry(book_id=e["book_id"], title=e["title"], author=e.get("author"),
                                  cluster_id=e["cluster_id"],
                                  series=_series_from_payload(e["book_id"], e["series"],
                                                              f"entry {e['book_id']!r}: series"))
                   for e in payload["entries"]]
        members = {}            # cluster id -> ids of the entries naming it
        for e in entries:
            members.setdefault(e.cluster_id, []).append(e.book_id)
        clusters = []
        for c in payload["clusters"]:
            cid = c["cluster_id"]
            # Only a string id is looked up; Catalogue refuses any other in its own words.
            ids = sorted(members.get(cid, ())) if isinstance(cid, str) else []
            rep = _series_from_payload(f"cluster:{cid}", c["representative"],
                                       f"cluster {cid!r}: representative")
            clusters.append(Cluster(cid, ids, rep))
        return Catalogue(format_version=version, config=config,
                         clusters=clusters, entries=entries)
    except (KeyError, TypeError, ValueError, OverflowError, DegenerateSeries,
            FormatError) as exc:
        raise FormatError(f"{path}: malformed catalogue structure: {exc}") from exc


def search_similar(catalogue: Catalogue, query, k: int) -> list:
    """Top-k books by SPSI against a query book or external series.

    A query book is left out of its own results. Returns (book_id,
    spsi) pairs, best first, ties broken by title.
    """
    exclude = query if isinstance(query, str) else None
    query_series = query if exclude is None else catalogue.entry(query).series
    ratio_limit = catalogue.config.length_ratio_limit
    scored = []
    for e in catalogue.entries:
        if exclude is not None and e.book_id == exclude:
            continue
        scored.append((e, score(query_series, e.series, ratio_limit)))
    scored.sort(key=lambda item: (-item[1], item[0].title))
    return [(e.book_id, s) for e, s in scored[:max(k, 0)]]


def nearest_cluster(catalogue: Catalogue, series: SentimentSeries):
    """The cluster whose representative is most similar to the series."""
    if not catalogue.clusters:
        raise EmptyCatalogue("catalogue has no clusters")
    ratio_limit = catalogue.config.length_ratio_limit
    best_id = None
    best_sim = -1.0
    for c in sorted(catalogue.clusters, key=lambda c: c.cluster_id):
        sim = score(series, c.representative, ratio_limit)
        if sim > best_sim:
            best_sim = sim
            best_id = c.cluster_id
    return best_id, best_sim
