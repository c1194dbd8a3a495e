"""Independent straight-line reference implementations.

Everything here is deliberately written from the formulas alone, with
no imports from the package under test, so the main library can be
checked against a second, independently derived answer. Keep it free of
arcindex imports.
"""

import math
import re
from dataclasses import dataclass
from itertools import combinations


def ref_spsi_parts(a, b):
    """(probable sentiment, sentiment distance, similarity) for two series."""
    rs = [x + y for x, y in zip(a, b)]
    total = math.fsum(rs)
    if total == 0.0:
        return 0.5, 0.0, 1.0
    ps = math.fsum(a) / total
    if ps <= 0.0 or ps >= 1.0:
        cf = [0.0] * len(rs)
    else:
        cf = []
        for x, r in zip(a, rs):
            if r == 0.0:
                cf.append(0.0)
            else:
                cf.append((ps * r - x) / math.sqrt(r * ps * (1.0 - ps)))
    n = [math.sqrt(r) for r in rs]
    den = math.fsum(n)
    sd = math.fsum(c * c * w for c, w in zip(cf, n)) / den if den else 0.0
    return ps, sd, 1.0 / (1.0 + math.log(1.0 + sd))


def ref_spsi(a, b):
    return ref_spsi_parts(a, b)[2]


def ref_average_linkage(pair_sims, ids, dt):
    """Agglomerate ids by average linkage over fixed pairwise values.

    pair_sims maps unordered (min, max) id pairs to similarity. Merges
    the best pair while similarity strictly exceeds dt; ties go to the
    lexicographically smallest pair. Returns (partition, trace).
    """
    members = {i: [i] for i in ids}

    def avg(a, b):
        vals = [pair_sims[(min(x, y), max(x, y))]
                for x in members[a] for y in members[b]]
        total = 0.0
        for v in vals:   # left to right, as cluster_matrix adds; sum() compensates from 3.12
            total += v
        return total / len(vals)

    trace = []
    while len(members) > 1:
        best = None
        for a, b in combinations(sorted(members), 2):
            s = avg(a, b)
            if best is None or s > best[0]:
                best = (s, a, b)
        s, a, b = best
        if s <= dt:
            break
        trace.append((a, b, s))
        members[a] = sorted(members[a] + members[b])
        del members[b]
    partition = sorted(members.values())
    return partition, trace


def ref_agreement(partition, labels):
    """(agreed pairs, pairs, pairwise agreement, purity) by looping over pairs.

    A book listed in more than one cluster belongs to the last one for
    the pairs; purity counts it in every cluster that lists it, over
    the number of distinct books.
    """
    assignment = {}
    for idx, members in enumerate(partition):
        for book_id in members:
            assignment[book_id] = idx
    books = sorted(assignment)
    agreed = total = 0
    for a, b in combinations(books, 2):
        total += 1
        same_cluster = assignment[a] == assignment[b]
        same_label = labels[a] == labels[b]
        if same_cluster == same_label:
            agreed += 1
    majority_total = 0
    for members in partition:
        counts = {}
        for book_id in members:
            label = labels[book_id]
            counts[label] = counts.get(label, 0) + 1
        if counts:
            majority_total += max(counts.values())
    return (agreed, total, agreed / total if total else 1.0,
            majority_total / len(books) if books else 1.0)


def ref_adaptive_threshold(pair_sims):
    """mean + half a population standard deviation of the off-diagonal."""
    values = list(pair_sims.values())
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean + 0.5 * math.sqrt(var)


def _ref_lerp(lo, hi, position):
    span = hi[0] - lo[0]
    if span <= 0.0:
        return (lo[1] + hi[1]) / 2.0
    t = (position - lo[0]) / span
    return lo[1] + t * (hi[1] - lo[1])


def ref_resample_secondary(points, blocks, deficit):
    """Grow a series by deficit points, promoting secondary pivots.

    points are (position, value, provenance) tuples, provenance one of
    "primary", "interpolated" and "secondary-pivot". blocks hold every
    block of the source book as (position, value, smoothed, interacting).
    Each step splits the widest gap, ties to the earliest. Among the
    interacting blocks strictly inside it and at no point's position,
    the one with the highest smoothed value, ties to the earliest,
    becomes a "secondary-pivot" point. Its value is the mean of the
    block's value and the straight line between the nearest primary
    points left and right of it, or between the gap's ends when a side
    has none. A gap without such a block gets an "interpolated" point at
    its midpoint, on the straight line between the gap's ends.
    """
    points = list(points)
    for _ in range(deficit):
        gaps = [b[0] - a[0] for a, b in zip(points, points[1:])]
        i = gaps.index(max(gaps))
        lo, hi = points[i], points[i + 1]
        used = {p[0] for p in points}
        candidates = [b for b in blocks
                      if b[3] and lo[0] < b[0] < hi[0] and b[0] not in used]
        if candidates:
            position, value, _, _ = max(candidates, key=lambda b: (b[2], -b[0]))
            left = [p for p in points if p[2] == "primary" and p[0] < position]
            right = [p for p in points if p[2] == "primary" and p[0] > position]
            a, b = (left[-1], right[0]) if left and right else (lo, hi)
            new = (position, (value + _ref_lerp(a, b, position)) / 2.0, "secondary-pivot")
        else:
            mid = (lo[0] + hi[0]) / 2.0
            new = (mid, _ref_lerp(lo, hi, mid), "interpolated")
        points.insert(i + 1, new)
    return points


def ref_checked_points(rows):
    """(position, value) pairs of float from mappings with a ``position`` and a ``value``.

    Raises ValueError, naming the point, unless every position and value
    is a finite number (an ``int`` or a ``float``, not a ``bool``), no
    value is negative, positions strictly increase, and there are at
    least 2 points.
    """
    points = []
    last = -math.inf
    for row in rows:
        position, value = row["position"], row["value"]
        if type(position) not in (int, float) or type(value) not in (int, float):
            raise ValueError(f"point {len(points) + 1}: non-numeric position/value")
        position, value = float(position), float(value)
        if not (math.isfinite(position) and math.isfinite(value)):
            raise ValueError(f"point {len(points) + 1}: non-finite position/value")
        if value < 0.0:
            raise ValueError(f"point {len(points) + 1}: negative value {value}")
        if position <= last:
            raise ValueError(f"point {len(points) + 1}: positions must strictly increase")
        last = position
        points.append((position, value))
    if len(points) < 2:
        raise ValueError(f"{len(points)} point(s), need at least 2")
    return points


@dataclass(slots=True)
class RefToken:
    text: str               # lowercased surface form
    capitalized: bool       # original form started with an uppercase letter
    sentence_start: bool    # first token of the text or follows ., ! or ?


_REF_WORD_RE = re.compile(r"\w+(?:['’]\w+)*", re.UNICODE)
_REF_SENTENCE_END = frozenset(".!?")


def ref_tokenize(text):
    """One RefToken per word; ``tokenize``'s three columns must match these fields."""
    tokens = []
    last_end = 0
    first = True
    for match in _REF_WORD_RE.finditer(text):
        gap = text[last_end:match.start()]
        starts_sentence = first or any(ch in _REF_SENTENCE_END for ch in gap)
        surface = match.group(0)
        tokens.append(RefToken(
            text=surface.lower(),
            capitalized=surface[0].isupper(),
            sentence_start=starts_sentence,
        ))
        last_end = match.end()
        first = False
    return tokens


def ref_extract_characters(text, capitalized, sentence_start, alias_resolve=None):
    """Character profiles by one resolution per capitalized run.

    Takes the three token columns and an optional ``alias_resolve``
    (lowercased surface -> canonical name or None). Returns (canonical
    name, mention count, first mention, sorted mention offsets) tuples,
    ordered by count (descending), then first mention, then first seen.
    """
    runs = []
    validated = set()
    i = 0
    n = len(capitalized)
    while i < n:
        if not capitalized[i]:
            i += 1
            continue
        j = i + 1
        while j < n and capitalized[j] and not sentence_start[j]:
            j += 1
        texts = tuple(text[i:j])
        initial = sentence_start[i]
        runs.append((i, texts, initial))
        if not initial:
            surface = " ".join(texts)
            if surface != "i":
                validated.add(surface)
        i = j

    def resolve(surface):
        if alias_resolve is not None:
            canonical = alias_resolve(surface)
            if canonical is not None:
                return canonical
        if surface in validated:
            return surface.title()
        return None

    profiles = {}
    order = {}
    for start, texts, initial in runs:
        mention = None
        for k in range(len(texts)) if initial else (0,):
            canonical = resolve(" ".join(texts[k:]))
            if canonical is not None:
                mention = (start + k, canonical)
                break
        if mention is None:
            continue
        position, canonical = mention
        if canonical not in profiles:
            profiles[canonical] = []
            order[canonical] = len(order)
        profiles[canonical].append(position)

    result = [(name, len(found), min(found), sorted(found))
              for name, found in profiles.items()]
    result.sort(key=lambda p: (-p[1], p[2], order[p[0]]))
    return result
