"""Agglomerative clustering of progression series.

Two modes share one merge loop. Series mode is the pipeline's: clusters
carry representative series (element-wise means of aligned members) and
inter-cluster similarity is the SPSI of representatives. Matrix mode
works from a precomputed similarity matrix with average linkage, for
cases where only the matrix survives.

Merging always takes the most similar pair, breaking ties toward the
lexicographically smallest id pair, and stops when no pair exceeds the
threshold. The loop keeps every live pair in a heap and discards stale
entries lazily, so n ids cost n(n-1)/2 initial scores, one fresh score
per remaining cluster after each merge, and O(n^2 log n) heap work.
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
from .series import PRIMARY, SentimentSeries, SeriesPoint, align_lengths
from .similarity import SimilarityMatrix, spsi

__all__ = [
    "Cluster", "resolve_threshold", "cluster_matrix", "cluster_series",
    "cluster_report",
]


@dataclass
class Cluster:
    cluster_id: object
    members: list                      # book ids, sorted
    representative: SentimentSeries | None
    merge_trace: list                  # (left_id, right_id, similarity)


def resolve_threshold(matrix: SimilarityMatrix, cfg: PipelineConfig) -> float:
    """The merge-termination threshold.

    Adaptive mode pitches it half a standard deviation above the mean
    off-diagonal similarity, so corpora that are similar overall still
    split. Falls back to the fixed value when there is nothing to
    measure.
    """
    if cfg.dt_mode == "fixed":
        return cfg.dt
    off = matrix.off_diagonal()
    if not off:
        return cfg.dt
    value = statistics.fmean(off) + 0.5 * statistics.pstdev(off)
    return min(max(value, 1e-9), 1.0 - 1e-9)


def _merge_loop(ids, similarity_of, on_merge, dt: float):
    """Shared agglomeration: merge the argmax pair while above dt.

    ``similarity_of(a, b)`` scores two live cluster ids; ``on_merge(a,
    b, sim)`` folds b's state into a (a < b), given the pair's
    similarity. Returns (live ids, trace).

    Every live pair has one valid heap entry ``(-sim, a, b, stamp_a,
    stamp_b)`` with a < b. A merge bumps the survivor's stamp, retires
    the absorbed id and pushes the survivor's fresh pairs; entries with
    a retired id or an old stamp are dropped when popped.
    """
    live = sorted(ids)
    stamp = dict.fromkeys(live, 0)
    heap = [(-similarity_of(a, b), a, b, 0, 0)
            for i, a in enumerate(live) for b in live[i + 1:]]
    heapq.heapify(heap)
    trace = []
    while len(live) > 1:
        neg_sim, a, b, stamp_a, stamp_b = heapq.heappop(heap)
        if stamp.get(a) != stamp_a or stamp.get(b) != stamp_b:
            continue
        best_sim = -neg_sim
        if best_sim <= dt:
            break
        trace.append((a, b, best_sim))
        on_merge(a, b, best_sim)
        live.remove(b)
        del stamp[b]
        stamp[a] += 1
        for other in live:
            if other != a:
                # Score with the merged id first, then key the pair by
                # (min, max): matrix-mode averages sum in argument order.
                sim = similarity_of(a, other)
                if a < other:
                    heapq.heappush(heap, (-sim, a, other, stamp[a], stamp[other]))
                else:
                    heapq.heappush(heap, (-sim, other, a, stamp[other], stamp[a]))
    return live, trace


def cluster_matrix(matrix: SimilarityMatrix, dt: float):
    """Average-linkage partition over the original matrix entries.

    Returns (partition, trace) where the partition lists each cluster's
    member ids and a cluster is identified by its smallest member.
    """
    index = {book_id: i for i, book_id in enumerate(matrix.book_ids)}
    members = {book_id: [book_id] for book_id in matrix.book_ids}

    def similarity_of(a, b):
        total = 0.0
        count = 0
        for ma in members[a]:
            for mb in members[b]:
                total += matrix.values[index[ma]][index[mb]]
                count += 1
        return total / count

    def on_merge(a, b, _sim):
        members[a] = sorted(members[a] + members[b])
        del members[b]

    live, trace = _merge_loop(list(members), similarity_of, on_merge, dt)
    partition = [members[cid] for cid in live]
    return partition, trace


def _mean_series(cluster_id, member_series) -> SentimentSeries:
    """Element-wise mean of member series, aligned to the longest."""
    target = max(member_series, key=len)
    aligned = []
    for s in member_series:
        _, grown = align_lengths(target, s)
        aligned.append(grown)
    length = len(target)
    count = len(aligned)
    points = []
    for i in range(length):
        position = sum(s.points[i].position for s in aligned) / count
        value = sum(s.points[i].value for s in aligned) / count
        points.append(SeriesPoint(position, value, PRIMARY))
    return SentimentSeries(book_id=f"cluster:{cluster_id}", points=points)


def cluster_series(series_list, cfg: PipelineConfig,
                   matrix: SimilarityMatrix | None = None,
                   dt: float | None = None):
    """Cluster series by SPSI of representatives.

    Returns (clusters, resolved_dt, global_trace). An existing all-pairs
    matrix seeds the initial similarities and the adaptive threshold;
    otherwise pairs are scored on demand.
    """
    series_by_id = {s.book_id: s for s in series_list}
    if len(series_by_id) != len(series_list):
        raise ValueError("duplicate book_id in series list")
    if dt is None:
        if matrix is None and cfg.dt_mode == "adaptive":
            from .similarity import spsi_matrix
            matrix = spsi_matrix(series_list, cfg.length_ratio_limit)
        dt = resolve_threshold(matrix, cfg) if matrix is not None else cfg.dt

    state = {
        s.book_id: Cluster(cluster_id=s.book_id, members=[s.book_id],
                           representative=s, merge_trace=[])
        for s in series_list
    }
    initial = {}
    if matrix is not None:
        if sorted(matrix.book_ids) != sorted(series_by_id):
            raise ValueError("matrix book_ids do not match the series list")
        ids = matrix.book_ids
        for i, a in enumerate(ids):
            for j in range(i + 1, len(ids)):
                initial[tuple(sorted((a, ids[j])))] = matrix.values[i][j]

    def similarity_of(a, b):
        key = tuple(sorted((a, b)))
        if key in initial and len(state[a].members) == 1 and len(state[b].members) == 1:
            return initial[key]
        ra, rb = align_lengths(state[a].representative, state[b].representative,
                               cfg.length_ratio_limit)
        return spsi(ra.values(), rb.values())

    def on_merge(a, b, sim):
        ca, cb = state[a], state[b]
        members = sorted(ca.members + cb.members)
        rep = _mean_series(a, [series_by_id[m] for m in members])
        state[a] = Cluster(
            cluster_id=a,
            members=members,
            representative=rep,
            merge_trace=ca.merge_trace + cb.merge_trace + [(a, b, sim)],
        )
        del state[b]

    live, trace = _merge_loop(list(state), similarity_of, on_merge, dt)
    clusters = [state[cid] for cid in sorted(live)]
    return clusters, dt, trace


def cluster_report(clusters, dt: float) -> dict:
    """JSON-ready summary of a clustering outcome."""
    return {
        "dynamic_threshold": dt,
        "clusters": [
            {
                "id": c.cluster_id,
                "members": list(c.members),
                "representative": (
                    [[p.position, p.value] for p in c.representative.points]
                    if c.representative is not None else None
                ),
                "trace": [list(t) for t in c.merge_trace],
            }
            for c in clusters
        ],
    }
