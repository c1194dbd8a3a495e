"""The searchable catalogue: cluster index points plus per-book entries.

A catalogue stores each member's analysed series and each cluster
representative as they are, and every float is written as its
``repr``, which reads back as the same float. So save/load is lossless,
repeated saves are byte identical, and a search scores a pair exactly
as indexing did, except where alignment would promote secondary pivots
from a book's context, which is not stored. Every stored point is
primary (members come from pivots, representatives are means), so
points are stored without provenance.

``load`` checks what it reads: the config must be a valid
:class:`PipelineConfig`, and every series is checked as a series CSV
is (finite, non-negative values, strictly increasing positions, at
least 2 points). Book and cluster ids, titles and authors must be
strings (an author may be null), ids unique, each distance a finite
number, and each cluster's members exactly the entries that name it.
Anything else is a ``FormatError`` naming the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

from .clustering import Cluster
from .config import PipelineConfig
from .errors import ConfigError, EmptyCatalogue, FormatError, UnknownBook, VersionError
from .ingest import _not_utf8
from .series import SentimentSeries, _checked_points
from .similarity import score

FORMAT_VERSION = "1.0"

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
    distance: float
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

    ``book_meta`` maps book_id to (title, author). Within a cluster,
    entries are sorted by distance to the representative, then title.
    """
    ratio_limit = cfg.length_ratio_limit
    index_clusters = []
    entries = []
    for cluster in sorted(clusters, key=lambda c: str(c.cluster_id)):
        cid = str(cluster.cluster_id)
        # Name every representative as load does, so that load(save(c)) == c
        # holds for a singleton too, whose representative is its book's series.
        rep = SentimentSeries(book_id=f"cluster:{cid}", points=cluster.representative.points)
        index_clusters.append(Cluster(cid, sorted(str(m) for m in cluster.members), rep))
        cluster_entries = []
        for member in cluster.members:
            series = series_by_id[member]
            distance = 1.0 - score(series, rep, ratio_limit)
            title, author = book_meta.get(member, (str(member), None))
            cluster_entries.append(CatalogueEntry(
                book_id=str(member),
                title=title,
                author=author,
                cluster_id=cid,
                distance=distance,
                series=series,
            ))
        cluster_entries.sort(key=lambda e: (e.distance, e.title))
        entries.extend(cluster_entries)
    return Catalogue(format_version=FORMAT_VERSION, config=cfg,
                     clusters=index_clusters, entries=entries)


def _series_payload(series: SentimentSeries) -> list:
    return [{"position": p.position, "value": p.value} for p in series.points]


def _series_from_payload(book_id: str, payload) -> SentimentSeries:
    try:
        points = _checked_points(payload)
    except ValueError as exc:
        raise ValueError(f"series of {book_id!r}: {exc}") from None
    return SentimentSeries(book_id=book_id, points=points)


def save(catalogue: Catalogue, path) -> None:
    """Write atomically; an interrupted save never corrupts an old file."""
    payload = {
        "format_version": catalogue.format_version,
        "config": catalogue.config.to_dict(),
        "clusters": [
            {
                "cluster_id": c.cluster_id,
                "members": c.members,
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
                "distance": e.distance,
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
        raise VersionError(f"{path}: format version {version} not readable "
                           f"by this build (expects {FORMAT_VERSION})")
    try:
        config = PipelineConfig(**payload.get("config", {})).validate()
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: bad catalogue config: {exc}") from None
    try:
        clusters = []
        named = {}          # cluster id -> ids of the entries that name it
        for c in payload["clusters"]:
            cluster_id, members = c["cluster_id"], c["members"]
            if not isinstance(cluster_id, str) or cluster_id in named:
                raise ValueError(f"cluster id {cluster_id!r} is not a unique string")
            if not isinstance(members, list):
                raise ValueError(f"members of cluster {cluster_id!r} are not a list")
            named[cluster_id] = set()
            clusters.append(Cluster(cluster_id, members, _series_from_payload(
                f"cluster:{cluster_id}", c["representative"])))
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
            if cluster_id not in named:
                raise ValueError(f"entry {book_id!r} names no cluster {cluster_id!r}")
            book_ids.add(book_id)
            named[cluster_id].add(book_id)
            distance = e["distance"]
            if isinstance(distance, bool) or not isinstance(distance, (int, float)):
                raise ValueError(f"distance of {book_id!r} is not a number")
            if not isfinite(distance):
                raise ValueError(f"non-finite distance of {book_id!r}")
            entries.append(CatalogueEntry(
                book_id=book_id,
                title=title,
                author=author,
                cluster_id=cluster_id,
                distance=distance,
                series=_series_from_payload(book_id, e["series"]),
            ))
        # Members equal to these string ids need no type check of their own.
        for c in clusters:
            ids = named[c.cluster_id]
            if len(c.members) != len(ids) or set(c.members) != ids:
                raise ValueError(f"members of cluster {c.cluster_id!r} are not "
                                 "the entries that name it")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed catalogue structure: {exc}") from exc
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
