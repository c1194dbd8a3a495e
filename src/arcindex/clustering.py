"""Agglomerative clustering of progression series.

Two modes share one merge loop. Series mode is the pipeline's: clusters
carry representative series (element-wise means of aligned members) and
inter-cluster similarity is the SPSI of representatives. Matrix mode
works from a precomputed similarity matrix with average linkage, for
cases where only the matrix survives.

Merging always takes the most similar pair, breaking ties toward the
lexicographically smallest id pair, and stops when no pair exceeds the
threshold. The loop keeps every live pair that scores above the
threshold in a heap and discards stale entries lazily. In both modes
two books' first similarity is their matrix entry, so n ids cost
n(n-1)/2 matrix reads to seed the heap, one fresh score per remaining
cluster after each merge, and O(n^2 log n) heap work; pairs at or below
the threshold can never merge and are never pushed.
After a merge the merged id is always the first argument to
``similarity_of``, whichever id is smaller: matrix-mode averages sum in
argument order, so swapping the arguments can move the last bit of a
trace value.
"""

from __future__ import annotations

import heapq
import statistics
from dataclasses import dataclass

from .config import PipelineConfig
from .errors import FormatError
from .series import PRIMARY, SentimentSeries, SeriesPoint, align_lengths
from .similarity import SimilarityMatrix, score

__all__ = [
    "Cluster", "resolve_threshold", "cluster_matrix", "cluster_series",
    "cluster_report",
]


@dataclass
class Cluster:
    cluster_id: object
    members: list                      # book ids, sorted
    representative: SentimentSeries


def resolve_threshold(matrix: SimilarityMatrix, cfg: PipelineConfig) -> float:
    """The merge-termination threshold.

    Adaptive mode pitches it half a standard deviation above the mean
    off-diagonal similarity, so corpora that are similar overall still
    split. Falls back to the fixed value when there is nothing to
    measure. ``statistics.pstdev`` is correctly rounded from Python 3.11
    on, so the threshold has the same bits on every supported Python.
    """
    if cfg.dt_mode == "fixed":
        return cfg.dt
    off = matrix.off_diagonal()
    if not off:
        return cfg.dt
    value = statistics.fmean(off) + 0.5 * statistics.pstdev(off)
    return min(max(value, 1e-9), 1.0 - 1e-9)


def _merge_loop(members: dict, matrix: SimilarityMatrix, similarity_of, on_merge,
                dt: float):
    """Shared agglomeration: merge the argmax pair while above dt.

    ``members`` maps each book id to its own singleton cluster and is
    updated in place: merging b into a (a < b) moves b's members into a
    and drops b, then ``on_merge(a, b)`` updates the caller's own state.
    Two books a < b first score ``matrix``'s entry at row a, column b;
    after a merge ``similarity_of(merged, other)`` scores the merged
    cluster against each other live one. Returns the trace; ``members``
    is left holding the final clusters.

    Every live pair with sim > dt has one valid heap entry ``(-sim, a,
    b, stamp_a, stamp_b)`` with a < b; pairs at or below dt never merge,
    so they are left out. A merge bumps the survivor's stamp, retires
    the absorbed id and pushes the survivor's fresh pairs; entries with
    a retired id or an old stamp are dropped when popped. The loop ends
    when the heap is empty.
    """
    ids = sorted(members)
    pos = {book_id: i for i, book_id in enumerate(matrix.book_ids)}
    stamp = dict.fromkeys(ids, 0)
    heap = [(-sim, a, b, 0, 0)
            for i, a in enumerate(ids) for b in ids[i + 1:]
            if (sim := matrix.values[pos[a]][pos[b]]) > dt]
    heapq.heapify(heap)
    trace = []
    while heap:
        neg_sim, a, b, stamp_a, stamp_b = heapq.heappop(heap)
        if stamp.get(a) != stamp_a or stamp.get(b) != stamp_b:
            continue
        trace.append((a, b, -neg_sim))
        members[a] = sorted(members[a] + members.pop(b))
        on_merge(a, b)
        del stamp[b]
        stamp[a] += 1
        for other in members:
            if other != a:
                # Score with the merged id first, then key the pair by
                # (min, max): matrix-mode averages sum in argument order.
                sim = similarity_of(a, other)
                if sim <= dt:
                    continue
                if a < other:
                    heapq.heappush(heap, (-sim, a, other, stamp[a], stamp[other]))
                else:
                    heapq.heappush(heap, (-sim, other, a, stamp[other], stamp[a]))
    return trace


def cluster_matrix(matrix: SimilarityMatrix, dt: float):
    """Average-linkage partition over the original matrix entries.

    Returns (partition, trace) where the partition lists each cluster's
    member ids and a cluster is identified by its smallest member.
    """
    index = {book_id: i for i, book_id in enumerate(matrix.book_ids)}
    members = {book_id: [book_id] for book_id in matrix.book_ids}

    def similarity_of(a, b):
        total = 0.0
        for ma in members[a]:
            row = matrix.values[index[ma]]
            for mb in members[b]:
                total += row[index[mb]]
        return total / (len(members[a]) * len(members[b]))

    trace = _merge_loop(members, matrix, similarity_of, lambda a, b: None, dt)
    return [members[c] for c in sorted(members)], trace


def _mean_series(cluster_id, member_series, ratio_limit: float) -> SentimentSeries:
    """Element-wise mean of member series, aligned to the longest."""
    target = max(member_series, key=len)
    aligned = []
    for s in member_series:
        _, grown = align_lengths(target, s, ratio_limit)
        aligned.append(grown)
    length = len(target)
    count = len(aligned)
    points = []
    for i in range(length):
        # Left to right, not sum(): 3.12's compensated sum gives other bits.
        position = value = 0.0
        for s in aligned:
            p = s.points[i]
            position += p.position
            value += p.value
        points.append(SeriesPoint(position / count, value / count, PRIMARY))
    return SentimentSeries(book_id=f"cluster:{cluster_id}", points=points)


def cluster_series(series_list, cfg: PipelineConfig, matrix: SimilarityMatrix):
    """Cluster series by SPSI of representatives.

    Returns (clusters, resolved_dt, global_trace). The all-pairs matrix
    of the series seeds the initial similarities and the adaptive
    threshold. It must be symmetric, as ``spsi_matrix``'s is bit for bit.
    A singleton's representative is the book's own series.
    """
    series_by_id = {s.book_id: s for s in series_list}
    if len(series_by_id) != len(series_list):
        raise FormatError("duplicate book_id in series list")
    if sorted(matrix.book_ids) != sorted(series_by_id):
        raise FormatError("matrix book_ids do not match the series list")
    dt = resolve_threshold(matrix, cfg)
    members = {book_id: [book_id] for book_id in series_by_id}
    reps = dict(series_by_id)

    def similarity_of(a, b):
        return score(reps[a], reps[b], cfg.length_ratio_limit)

    def on_merge(a, b):
        reps[a] = _mean_series(a, [series_by_id[m] for m in members[a]],
                               cfg.length_ratio_limit)
        del reps[b]

    trace = _merge_loop(members, matrix, similarity_of, on_merge, dt)
    clusters = [Cluster(cid, members[cid], reps[cid]) for cid in sorted(members)]
    return clusters, dt, trace


def cluster_report(clusters, dt: float, trace) -> dict:
    """JSON-ready summary of a clustering outcome.

    Each cluster's trace is its merges from the global ``trace``: the
    survivor's, then the absorbed cluster's, then the merge itself.
    """
    own = {}
    for a, b, sim in trace:
        own[a] = own.pop(a, []) + own.pop(b, []) + [[a, b, sim]]
    return {
        "dynamic_threshold": dt,
        "clusters": [
            {
                "id": c.cluster_id,
                "members": list(c.members),
                "representative": [[p.position, p.value] for p in c.representative.points],
                "trace": own.get(c.cluster_id, []),
            }
            for c in clusters
        ],
    }
