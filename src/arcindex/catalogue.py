"""The searchable catalogue: cluster index points plus per-book entries.

Every float stored in a catalogue is quantized to 9 significant digits
at build time. Decimal literals that short round-trip exactly through
binary floats, so save/load is lossless and repeated saves are byte
identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyCatalogue, FormatError, UnknownBook, VersionError
from .series import PRIMARY, SentimentSeries, SeriesPoint, align_lengths
from .similarity import spsi

FORMAT_VERSION = "1.0"

__all__ = [
    "CatalogueEntry", "Catalogue", "build_catalogue", "save", "load",
    "search_similar", "nearest_cluster", "FORMAT_VERSION",
]


def quantize(x: float) -> float:
    return float(f"{x:.9g}")


def _quantize_series(series: SentimentSeries) -> SentimentSeries:
    points = [SeriesPoint(quantize(p.position), quantize(p.value), p.provenance)
              for p in series.points]
    return SentimentSeries(book_id=series.book_id, points=points)


@dataclass
class CatalogueEntry:
    book_id: str
    title: str
    author: str | None
    cluster_id: str
    distance: float
    series: SentimentSeries


@dataclass
class IndexCluster:
    cluster_id: str
    members: list
    representative: SentimentSeries


@dataclass
class Catalogue:
    format_version: str
    config: dict
    clusters: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def entry(self, book_id: str) -> CatalogueEntry:
        for e in self.entries:
            if e.book_id == book_id:
                return e
        raise UnknownBook(book_id)

    def cluster(self, cluster_id) -> IndexCluster:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise KeyError(cluster_id)

    def __contains__(self, book_id: str) -> bool:
        return any(e.book_id == book_id for e in self.entries)


def build_catalogue(clusters, series_by_id: dict, cfg, book_meta: dict) -> Catalogue:
    """Assemble the index from a clustering outcome.

    ``book_meta`` maps book_id to (title, author). Within a cluster,
    entries are sorted by distance to the representative, then title.
    """
    index_clusters = []
    entries = []
    for cluster in sorted(clusters, key=lambda c: str(c.cluster_id)):
        rep = _quantize_series(cluster.representative)
        rep_values = rep.values()
        cid = str(cluster.cluster_id)
        index_clusters.append(IndexCluster(
            cluster_id=cid,
            members=sorted(str(m) for m in cluster.members),
            representative=SentimentSeries(book_id=f"cluster:{cid}", points=rep.points),
        ))
        cluster_entries = []
        for member in cluster.members:
            series = _quantize_series(series_by_id[member])
            aligned_s, aligned_r = align_lengths(
                series,
                SentimentSeries(book_id="rep", points=rep.points),
            )
            distance = quantize(1.0 - spsi(aligned_s.values(), aligned_r.values()))
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
    config = {k: (quantize(v) if isinstance(v, float) else v)
              for k, v in (cfg.to_dict() if hasattr(cfg, "to_dict") else dict(cfg)).items()}
    return Catalogue(format_version=FORMAT_VERSION, config=config,
                     clusters=index_clusters, entries=entries)


def _series_payload(series: SentimentSeries) -> list:
    return [{"position": p.position, "value": p.value, "provenance": p.provenance}
            for p in series.points]


def _series_from_payload(book_id: str, payload) -> SentimentSeries:
    points = [SeriesPoint(float(p["position"]), float(p["value"]),
                          p.get("provenance", PRIMARY))
              for p in payload]
    return SentimentSeries(book_id=book_id, points=points)


def save(catalogue: Catalogue, path) -> None:
    """Write atomically; an interrupted save never corrupts an old file."""
    payload = {
        "format_version": catalogue.format_version,
        "config": catalogue.config,
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
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def load(path) -> Catalogue:
    text = Path(path).read_text(encoding="utf-8")

    def reject_constant(name):
        raise FormatError(f"{path}: non-finite number {name} in catalogue")

    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid catalogue JSON at offset {exc.pos}: {exc.msg}",
                          offset=exc.pos) from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise FormatError(f"{path}: not a catalogue file (no format_version)")
    version = str(payload["format_version"])
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise VersionError(f"{path}: format version {version} not readable "
                           f"by this build (expects {FORMAT_VERSION})")
    try:
        clusters = [
            IndexCluster(
                cluster_id=c["cluster_id"],
                members=list(c["members"]),
                representative=_series_from_payload(
                    f"cluster:{c['cluster_id']}", c["representative"]),
            )
            for c in payload["clusters"]
        ]
        entries = [
            CatalogueEntry(
                book_id=e["book_id"],
                title=e["title"],
                author=e.get("author"),
                cluster_id=e["cluster_id"],
                distance=float(e["distance"]),
                series=_series_from_payload(e["book_id"], e["series"]),
            )
            for e in payload["entries"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed catalogue structure: {exc}") from exc
    return Catalogue(format_version=version, config=payload.get("config", {}),
                     clusters=clusters, entries=entries)


def _score(query: SentimentSeries, candidate: SentimentSeries) -> float:
    a, b = align_lengths(query, candidate)
    return spsi(a.values(), b.values())


def search_similar(catalogue: Catalogue, query, k: int,
                   include_self: bool = False) -> list:
    """Top-k books by SPSI against a query book or external series.

    Returns (book_id, spsi) pairs, best first, ties broken by title.
    """
    if isinstance(query, str):
        query_series = catalogue.entry(query).series
        exclude = None if include_self else query
    else:
        query_series = query
        exclude = None
    scored = []
    for e in catalogue.entries:
        if exclude is not None and e.book_id == exclude:
            continue
        scored.append((e, _score(query_series, e.series)))
    scored.sort(key=lambda item: (-item[1], item[0].title))
    return [(e.book_id, s) for e, s in scored[:max(k, 0)]]


def nearest_cluster(catalogue: Catalogue, series: SentimentSeries):
    """The cluster whose representative is most similar to the series."""
    if not catalogue.clusters:
        raise EmptyCatalogue("catalogue has no clusters")
    best_id = None
    best_sim = -1.0
    for c in sorted(catalogue.clusters, key=lambda c: c.cluster_id):
        sim = _score(series, c.representative)
        if sim > best_sim:
            best_sim = sim
            best_id = c.cluster_id
    return best_id, best_sim
