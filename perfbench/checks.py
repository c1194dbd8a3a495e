"""Correctness checks on arcindex outputs. None of them runs inside a timed region.

Each check raises CheckFailed with a reason. ``like_mismatches`` is the
one exception: a like query whose scores disagree with the index-time
matrix is a failed operation, not an incorrect run, as long as every
disagreeing pair took the secondary-promotion alignment route (the
catalogue does not persist the context that route reads).
"""

from __future__ import annotations

import math
import random

SERIES_TOL = 1e-9
SPSI_TOL = 1e-12
SEARCH_TOL = 1e-9
SPSI_SAMPLE = 200


class CheckFailed(Exception):
    """An output of arcindex is wrong."""


def reference_spsi(s1, s2) -> float:
    """RS/PS/CF/SD as the paper defines them, written out independently."""
    rs = [a + b for a, b in zip(s1, s2)]
    total = sum(rs)
    ps = sum(s1) / total
    if ps <= 0.0 or ps >= 1.0:
        return 1.0
    num = 0.0
    den = 0.0
    for a, r in zip(s1, rs):
        n = math.sqrt(r)
        cf = 0.0 if r == 0.0 else (ps * r - a) / math.sqrt(r * ps * (1.0 - ps))
        num += cf * cf * n
        den += n
    sd = num / den if den else 0.0
    return 1.0 / (1.0 + math.log(1.0 + sd))


def check_closed_form(api) -> None:
    got = api.spsi([1.0, 0.0], [0.0, 1.0])
    want = 1.0 / (1.0 + math.log(2.0))
    if got != want:
        raise CheckFailed(f"spsi([1,0],[0,1]) = {got!r}, expected 1/(1+ln 2) = {want!r}")


def check_analyses(analyses, truth: dict) -> None:
    """Series, core set and predominant pair equal the planted ones."""
    for a in analyses:
        t = truth[a.book_id]
        values = a.series.values()
        planted = t["planted_svs"]
        if len(values) != len(planted) or any(
                abs(v - p) > SERIES_TOL for v, p in zip(values, planted)):
            raise CheckFailed(f"{a.book_id}: series {values} != planted {planted}")
        if sorted(a.core) != t["core"]:
            raise CheckFailed(f"{a.book_id}: core {sorted(a.core)} != planted {t['core']}")
        if list(a.pair) != t["pair"]:
            raise CheckFailed(f"{a.book_id}: pair {list(a.pair)} != planted {t['pair']}")


def check_matrix(matrix, series_by_id: dict, seed) -> None:
    """Bit symmetry, unit diagonal, and a seeded sample against reference_spsi."""
    ids = matrix.book_ids
    n = len(ids)
    for i in range(n):
        if matrix.values[i][i] != 1.0:
            raise CheckFailed(f"matrix diagonal at {ids[i]} is {matrix.values[i][i]!r}")
        for j in range(i + 1, n):
            if matrix.values[i][j] != matrix.values[j][i]:
                raise CheckFailed(f"matrix not bit-symmetric at ({ids[i]}, {ids[j]})")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if len(series_by_id[ids[i]]) == len(series_by_id[ids[j]])]
    rng = random.Random(seed)
    for i, j in rng.sample(pairs, min(SPSI_SAMPLE, len(pairs))):
        want = reference_spsi(series_by_id[ids[i]].values(), series_by_id[ids[j]].values())
        got = matrix.values[i][j]
        if abs(got - want) > SPSI_TOL:
            raise CheckFailed(f"SPSI({ids[i]}, {ids[j]}) = {got!r}, reference {want!r}")


def check_round_trip(api, catalogue, path, second_path) -> None:
    """load(save(c)) == c, and saving the loaded catalogue repeats the bytes."""
    try:
        loaded = api.load(path)
    except api.ArcIndexError as exc:
        raise CheckFailed(f"{path.name}: saved catalogue does not load: {exc}") from exc
    if loaded != catalogue:
        raise CheckFailed(f"{path.name}: load(save(c)) differs from c")
    api.save(loaded, second_path)
    if second_path.read_bytes() != path.read_bytes():
        raise CheckFailed(f"{path.name}: a second save is not byte-identical")


def check_purity(report) -> None:
    p = report.progression.purity
    m = report.metadata_baseline.purity
    s = report.summary_baseline.purity
    if p != 1.0:
        raise CheckFailed(f"progression purity {p} != 1.0")
    if not (p > m and p > s):
        raise CheckFailed(f"progression purity {p} does not beat baselines {m}, {s}")


def check_like(results, query: str, k: int, n_books: int, archetype: dict,
               first_same: bool) -> None:
    """Excludes the query, sorted best first, a same-archetype book on top."""
    if len(results) != min(k, n_books - 1):
        raise CheckFailed(f"like {query}: {len(results)} results for k={k}")
    if any(book_id == query for book_id, _ in results):
        raise CheckFailed(f"like {query}: the query is among its own results")
    scores = [s for _, s in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        raise CheckFailed(f"like {query}: results not sorted best first")
    if first_same and archetype[results[0][0]] != archetype[query]:
        raise CheckFailed(f"like {query}: top result {results[0][0]} is another archetype")


def like_mismatches(api, results, query: str, matrix_index: dict, matrix,
                    series_by_id: dict, ratio_limit: float, routes: dict) -> int:
    """Number of returned scores that differ from the index-time matrix.

    Raises CheckFailed when a differing pair did not take the
    secondary-promotion route at index time. ``routes`` caches that
    route per pair across calls.
    """
    row = matrix.values[matrix_index[query]]
    bad = 0
    for book_id, score in results:
        if abs(score - row[matrix_index[book_id]]) <= SEARCH_TOL:
            continue
        bad += 1
        if (query, book_id) not in routes:
            a, b = api.align_lengths(series_by_id[query], series_by_id[book_id],
                                     ratio_limit)
            routes[query, book_id] = any(p.provenance == api.SECONDARY
                                         for p in a.points + b.points)
        if not routes[query, book_id]:
            raise CheckFailed(
                f"like {query}: score for {book_id} is {score!r}, index-time "
                f"{row[matrix_index[book_id]]!r}, and the pair is not on the "
                f"secondary-promotion route")
    return bad


def check_pattern(results, cluster_members, pattern: dict, members, truth: dict) -> None:
    """The nearest cluster and the top results share the pattern's archetype.

    "Top" is as many results as the collection holds books of the
    pattern's archetype and series length: across lengths, alignment
    blurs the arcs enough that other archetypes may rank next.
    """
    want = pattern["archetype"]
    wrong = [m for m in cluster_members if truth[m]["archetype"] != want]
    if wrong:
        raise CheckFailed(f"pattern of archetype {want}: nearest cluster holds "
                          f"{wrong[:3]} of other archetypes")
    top = sum(truth[m]["archetype"] == want
              and len(truth[m]["planted_svs"]) == len(pattern["values"]) for m in members)
    lead = [b for b, _ in results[:top] if truth[b]["archetype"] != want]
    if lead:
        raise CheckFailed(f"pattern of archetype {want}: top {top} results "
                          f"include {lead[:3]} of other archetypes")
