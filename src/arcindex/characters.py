"""Character mining: mentions, prime selection, co-occurrence, core set.

Characters are found as capitalized-token runs. A surface form only
qualifies when it appears capitalized somewhere other than the start of
a sentence at least once; after that, every occurrence of the form
(including sentence-initial ones) counts as a mention. Alias sidecars
fold variant surface forms into one canonical profile.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations

from .errors import CoreExtractionError
from .ingest import AliasTable, BookDocument

__all__ = [
    "CharacterProfile", "CoOccurrenceEdge", "CoreCharacterSet",
    "extract_characters", "select_prime", "co_occurrence", "select_core",
]


@dataclass
class CharacterProfile:
    canonical_name: str
    mention_count: int = 0
    first_mention: int = 0                      # token offset of earliest mention
    mention_positions: list = field(default_factory=list)


@dataclass(frozen=True)
class CoOccurrenceEdge:
    pair: tuple                 # (name_a, name_b), lexicographic order
    raw_weight: int
    normalized_weight: float


@dataclass
class CoreCharacterSet:
    members: frozenset

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


def _capitalized_runs(tokens):
    """Yield (start_index, run_token_list) for maximal capitalized runs.

    A sentence-start token always begins a new run, so names separated
    only by a sentence boundary are not glued together.
    """
    i = 0
    n = len(tokens)
    while i < n:
        if not tokens[i].capitalized:
            i += 1
            continue
        j = i + 1
        while j < n and tokens[j].capitalized and not tokens[j].sentence_start:
            j += 1
        yield i, tokens[i:j]
        i = j


def extract_characters(doc: BookDocument, aliases: AliasTable | None = None) -> list:
    """Mine candidate character profiles from capitalized mentions.

    A run that opens a sentence is ambiguous: its first word may be an
    ordinary capitalized sentence start ("Later Bramwell returned").
    Such runs resolve to their longest suffix that is either known to
    the alias table or was seen capitalized mid-sentence elsewhere;
    runs with no known suffix are dropped.
    """
    runs = []                 # (start_index, token texts, sentence_initial)
    validated = set()         # surface forms seen capitalized mid-sentence
    for start, run in _capitalized_runs(doc.tokens):
        texts = tuple(t.text for t in run)
        initial = run[0].sentence_start
        runs.append((start, texts, initial))
        if not initial:
            surface = " ".join(texts)
            if surface != "i":        # first-person pronoun, never a name
                validated.add(surface)

    def resolve(surface):
        if aliases is not None:
            canonical = aliases.resolve(surface)
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
        profile = profiles.get(canonical)
        if profile is None:
            profile = CharacterProfile(canonical_name=canonical, first_mention=position)
            profiles[canonical] = profile
            order[canonical] = len(order)
        profile.mention_count += 1
        profile.first_mention = min(profile.first_mention, position)
        profile.mention_positions.append(position)

    result = sorted(profiles.values(),
                    key=lambda p: (-p.mention_count, p.first_mention, order[p.canonical_name]))
    for profile in result:
        profile.mention_positions.sort()
    return result


def select_prime(profiles, prime_max: int, min_mentions: int) -> list:
    """Top prime_max profiles with at least min_mentions mentions.

    Ties on count go to the character mentioned earlier.
    """
    eligible = [p for p in profiles if p.mention_count >= min_mentions]
    eligible.sort(key=lambda p: (-p.mention_count, p.first_mention))
    return eligible[:prime_max]


def _pair_window_count(positions_a, positions_b, window: int) -> int:
    count = 0
    for pos in positions_a:
        lo = bisect_left(positions_b, pos - window)
        hi = bisect_right(positions_b, pos + window)
        count += hi - lo
    return count


def co_occurrence(doc: BookDocument, primes, window: int) -> list:
    """Windowed co-mention edges between prime characters.

    raw_weight counts mention pairs at most ``window`` tokens apart;
    weights are normalized by the book's maximum raw weight.
    """
    raw = {}
    for a, b in combinations(primes, 2):
        key = tuple(sorted((a.canonical_name, b.canonical_name)))
        if key[0] == a.canonical_name:
            first, second = a, b
        else:
            first, second = b, a
        raw[key] = _pair_window_count(first.mention_positions,
                                      second.mention_positions, window)
    max_raw = max(raw.values(), default=0)
    edges = []
    for key in sorted(raw):
        weight = raw[key]
        normalized = weight / max_raw if max_raw > 0 else 0.0
        edges.append(CoOccurrenceEdge(pair=key, raw_weight=weight,
                                      normalized_weight=normalized))
    return edges


def select_core(primes, edges, edge_threshold: float) -> CoreCharacterSet:
    """Prime characters with at least one strong edge to another prime.

    Falls back to the top two primes when no edge clears the threshold,
    so the core set is never empty while primes exist.
    """
    if not primes:
        raise CoreExtractionError("no prime characters")
    connected = set()
    for edge in edges:
        if edge.normalized_weight >= edge_threshold and edge.raw_weight > 0:
            connected.update(edge.pair)
    prime_names = {p.canonical_name for p in primes}
    members = connected & prime_names
    if not members:
        members = {p.canonical_name for p in primes[:2]}
    return CoreCharacterSet(members=frozenset(members))
