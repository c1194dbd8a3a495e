"""Character mining: mentions, prime selection, co-occurrence, core set.

Characters are found as capitalized-token runs. A surface form only
qualifies when it appears capitalized somewhere other than the start of
a sentence at least once; after that, every occurrence of the form
(including sentence-initial ones) counts as a mention. Alias sidecars
fold variant surface forms into one canonical profile.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations, compress

from .errors import CoreExtractionError
from .ingest import AliasTable, BookDocument

__all__ = [
    "CharacterProfile", "CoOccurrenceEdge",
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


def _capitalized_runs(tokens):
    """Yield (start, end) token offsets of maximal capitalized runs.

    A sentence-start token always begins a new run, so names separated
    only by a sentence boundary are not glued together.
    """
    capitalized, starts = tokens.capitalized, tokens.sentence_start
    n = len(capitalized)
    end = 0
    for i in compress(range(n), capitalized):
        if i < end:
            continue
        end = i + 1
        while end < n and capitalized[end] and not starts[end]:
            end += 1
        yield i, end


def extract_characters(doc: BookDocument, aliases: AliasTable | None = None) -> list:
    """Mine candidate character profiles from capitalized mentions.

    A run that opens a sentence is ambiguous: its first word may be an
    ordinary capitalized sentence start ("Later Bramwell returned").
    Such runs resolve to their longest suffix that is either known to
    the alias table or was seen capitalized mid-sentence elsewhere;
    runs with no known suffix are dropped.

    Runs repeat a few surface forms many times, so each distinct key, a
    run's codes as bytes and whether it opens a sentence, is decoded to
    its words and resolved once per book.
    """
    tokens = doc.tokens
    codes, starts, vocab = tokens.codes, tokens.sentence_start, tokens.vocab
    runs = [(start, (codes[start:end].tobytes(), starts[start]))
            for start, end in _capitalized_runs(tokens)]
    keys = {key: tuple(map(vocab.__getitem__, array(codes.typecode, key[0])))
            for key in dict.fromkeys(key for _, key in runs)}
    # Surface forms seen capitalized mid-sentence; "i" is never a name.
    validated = {" ".join(texts) for (_, initial), texts in keys.items() if not initial}
    validated.discard("i")

    def resolve(surface):
        if aliases is not None:
            canonical = aliases.resolve(surface)
            if canonical is not None:
                return canonical
        if surface in validated:
            return surface.title()
        return None

    resolved = {}             # key -> (offset into the run, canonical) or None
    for key, texts in keys.items():
        mention = None
        for k in range(len(texts)) if key[1] else (0,):
            canonical = resolve(" ".join(texts[k:]))
            if canonical is not None:
                mention = (k, canonical)
                break
        resolved[key] = mention

    # Runs are disjoint and ascending, so each name's positions come out
    # sorted and no two names share a first mention.
    positions = {}            # canonical -> mention offsets, first-seen order
    for start, key in runs:
        mention = resolved[key]
        if mention is not None:
            k, canonical = mention
            positions.setdefault(canonical, []).append(start + k)

    profiles = [CharacterProfile(canonical_name=name, mention_count=len(found),
                                 first_mention=found[0], mention_positions=found)
                for name, found in positions.items()]
    profiles.sort(key=lambda p: (-p.mention_count, p.first_mention))
    return profiles


def select_prime(profiles, prime_max: int, min_mentions: int) -> list:
    """Top prime_max profiles with at least min_mentions mentions.

    Ties on count go to the character mentioned earlier.
    """
    eligible = [p for p in profiles if p.mention_count >= min_mentions]
    eligible.sort(key=lambda p: (-p.mention_count, p.first_mention))
    return eligible[:prime_max]


def _pair_window_count(positions_a, positions_b, window: int) -> int:
    """Mention pairs at most ``window`` apart; symmetric in a and b."""
    count = 0
    for pos in positions_a:
        lo = bisect_left(positions_b, pos - window)
        hi = bisect_right(positions_b, pos + window)
        count += hi - lo
    return count


def co_occurrence(primes, window: int) -> list:
    """Windowed co-mention edges between prime characters.

    raw_weight counts mention pairs at most ``window`` tokens apart;
    weights are normalized by the book's maximum raw weight.
    """
    raw = {}
    for a, b in combinations(primes, 2):
        key = tuple(sorted((a.canonical_name, b.canonical_name)))
        raw[key] = _pair_window_count(a.mention_positions, b.mention_positions, window)
    max_raw = max(raw.values(), default=0)
    edges = []
    for key in sorted(raw):
        weight = raw[key]
        normalized = weight / max_raw if max_raw > 0 else 0.0
        edges.append(CoOccurrenceEdge(pair=key, raw_weight=weight,
                                      normalized_weight=normalized))
    return edges


def select_core(primes, edges, edge_threshold: float) -> frozenset:
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
    return frozenset(members)
