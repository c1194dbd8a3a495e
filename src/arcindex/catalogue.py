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

``load`` checks what it reads: the config must be a valid
:class:`PipelineConfig`, and every stored position and value an ``int``
or a ``float`` (not a ``bool``), read as a float; each series then
checks itself when it is made, as every :class:`SentimentSeries` does.
Book and cluster ids, titles and authors must be strings (an author may
be null), ids unique, each entry must name a stored cluster and each
cluster must be named by an entry. Anything else is a ``FormatError``
naming the file; a 1.x catalogue is a ``VersionError``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import Cluster
from .config import PipelineConfig
from .errors import (ConfigError, DegenerateSeries, EmptyCatalogue, FormatError, UnknownBook,
                     VersionError)
from .ingest import _not_utf8
from .series import SentimentSeries, SeriesPoint
from .similarity import score

FORMAT_VERSION = "2.0"

__all__ = [
    "CatalogueEntry", "Catalogue", "build_catalogue", "save", "load",
    "search_similar", "nearest_cluster", "FORMAT_VERSION",
]


@dataclass
class CatalogueEntry:
    book_id: str
    title: str
    author: str | None
    cluster_id: str
    series: SentimentSeries


@dataclass
class Catalogue:
    format_version: str
    config: PipelineConfig
    clusters: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def entry(self, book_id: str) -> CatalogueEntry:
        for e in self.entries:
            if e.book_id == book_id:
                return e
        raise UnknownBook(book_id)

    def cluster(self, cluster_id) -> Cluster:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise KeyError(cluster_id)

    def __contains__(self, book_id: str) -> bool:
        return any(e.book_id == book_id for e in self.entries)


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


def _series_from_payload(book_id: str, payload) -> SentimentSeries:
    points = []
    for row in payload:
        position, value = row["position"], row["value"]
        if type(position) is not float or type(value) is not float:
            # Exact type tests: they turn a bool away, which isinstance would take.
            if type(position) not in (int, float) or type(value) not in (int, float):
                raise ValueError(f"series of {book_id!r}: point {len(points) + 1}: "
                                 "non-numeric position/value")
            position, value = float(position), float(value)
        points.append(SeriesPoint(position, value))
    return SentimentSeries(book_id=book_id, points=points)


def save(catalogue: Catalogue, path) -> None:
    """Write atomically; an interrupted save never corrupts an old file."""
    payload = {
        "format_version": catalogue.format_version,
        "config": catalogue.config.to_dict(),
        "clusters": [
            {
                "cluster_id": c.cluster_id,
                "representative": _series_payload(c.representative),
            }
            for c in catalogue.clusters
        ],
        "entries": [
            {
                "book_id": e.book_id,
                "title": e.title,
                "author": e.author,
                "cluster_id": e.cluster_id,
                "series": _series_payload(e.series),
            }
            for e in catalogue.entries
        ],
    }
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        # mkstemp creates the file owner-only; keep the mode a plain write gave.
        os.chmod(tmp, 0o644)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load(path) -> Catalogue:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, FormatError) from None

    def reject_constant(name):
        raise FormatError(f"{path}: non-finite number {name} in catalogue")

    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid catalogue JSON at offset {exc.pos}: {exc.msg}",
                          offset=exc.pos) from exc
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
        reps = {}
        for c in payload["clusters"]:
            cluster_id = c["cluster_id"]
            if not isinstance(cluster_id, str) or cluster_id in reps:
                raise ValueError(f"cluster id {cluster_id!r} is not a unique string")
            reps[cluster_id] = _series_from_payload(f"cluster:{cluster_id}",
                                                    c["representative"])
        members = {cluster_id: [] for cluster_id in reps}   # ids of the entries naming it
        entries = []
        book_ids = set()
        for e in payload["entries"]:
            book_id, title, author = e["book_id"], e["title"], e.get("author")
            cluster_id = e["cluster_id"]
            if not (isinstance(book_id, str) and isinstance(title, str)
                    and isinstance(cluster_id, str)
                    and (author is None or isinstance(author, str))):
                raise ValueError(f"entry {book_id!r}: book_id, title and cluster_id "
                                 "must be strings, author a string or null")
            if book_id in book_ids:
                raise ValueError(f"duplicate book_id {book_id!r}")
            if cluster_id not in members:
                raise ValueError(f"entry {book_id!r} names no cluster {cluster_id!r}")
            book_ids.add(book_id)
            members[cluster_id].append(book_id)
            entries.append(CatalogueEntry(book_id=book_id, title=title, author=author,
                                          cluster_id=cluster_id,
                                          series=_series_from_payload(book_id, e["series"])))
        for cluster_id, ids in members.items():
            if not ids:
                raise ValueError(f"no entry names cluster {cluster_id!r}")
    except (KeyError, TypeError, ValueError, OverflowError, DegenerateSeries) as exc:
        raise FormatError(f"{path}: malformed catalogue structure: {exc}") from exc
    clusters = [Cluster(cid, sorted(members[cid]), rep) for cid, rep in reps.items()]
    return Catalogue(format_version=version, config=config,
                     clusters=clusters, entries=entries)


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
