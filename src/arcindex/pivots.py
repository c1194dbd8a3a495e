"""Pivot detection: block sentiment, interaction intensity, local maxima.

A pivot point is a logical block where two core characters interact and
the smoothed block sentiment peaks locally. Only interacting blocks are
eligible; smoothing runs over the whole block sequence so that context
around an interacting block still shapes its score.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

from .config import PipelineConfig
from .errors import NoPivots
from .ingest import BookDocument

__all__ = [
    "PivotPoint", "block_sentiment", "block_sentiments", "smooth",
    "InteractionIndex", "compute_interactions", "block_positions",
    "detect_pivots", "predominant_pair",
]


@dataclass(frozen=True)
class PivotPoint:
    block_index: int
    position: float            # narrative fraction in [0, 1]
    sv: float                  # unsmoothed block sentiment in [0, 1]
    participants: frozenset
    occurrence_weight: float   # normalized co-mention mass near the block


def block_sentiment(block, doc: BookDocument, lexicon: dict,
                    cfg: PipelineConfig) -> float:
    """Mean lexicon polarity of the block, rescaled to [0, 1].

    Blocks without lexicon hits score a neutral 0.5 (before alpha).
    """
    return block_sentiments([block], doc, lexicon, cfg)[0]


def block_sentiments(blocks, doc: BookDocument, lexicon: dict, cfg: PipelineConfig) -> list:
    """``block_sentiment`` of each block, looking each vocabulary word up once."""
    codes = doc.tokens.codes
    polarity = list(map(lexicon.get, doc.tokens.vocab))
    out = []
    for block in blocks:
        total = 0.0
        hits = 0
        for value in map(polarity.__getitem__, codes[block.start:block.end]):
            if value is not None:
                total += value
                hits += 1
        raw = total / hits if hits else 0.0
        out.append(min(1.0, max(0.0, (raw + 1.0) / 2.0 + cfg.alpha)))
    return out


def smooth(values, radius: int) -> list:
    """Centered moving average; the window clips at sequence edges."""
    if radius <= 0:
        return list(values)
    n = len(values)
    out = []
    for i in range(n):
        lo = max(0, i - radius)
        hi = min(n, i + radius + 1)
        # Add left to right: since Python 3.12, sum() of floats is
        # compensated and would give other bits than 3.11.
        total = 0.0
        for value in values[lo:hi]:
            total += value
        out.append(total / (hi - lo))
    return out


class InteractionIndex:
    """Per-pair, per-block co-mention counts for one book.

    A co-mention is a pair of mentions at most ``window`` tokens apart;
    it is counted for every block whose one-block neighborhood contains
    both mentions. Intensities are normalized by the book-wide maximum
    count over all pairs so that weights are comparable across pairs.
    """

    def __init__(self, counts: dict, block_count: int):
        self.counts = counts
        self.block_count = block_count
        self.book_max = max(
            (c for per_block in counts.values() for c in per_block.values()),
            default=0,
        )

    def intensity(self, pair_key, block_index: int) -> float:
        if self.book_max == 0:
            return 0.0
        return self.counts.get(pair_key, {}).get(block_index, 0) / self.book_max

    def interacting_blocks(self, pair_key) -> list:
        return sorted(b for b, c in self.counts.get(pair_key, {}).items() if c > 0)


def compute_interactions(profiles, window: int, block_size: int,
                         block_count: int) -> InteractionIndex:
    counts = {}
    for pa, pb in combinations(profiles, 2):
        key = tuple(sorted((pa.canonical_name, pb.canonical_name)))
        per_block = {}
        other = pb.mention_positions
        for pos_a in pa.mention_positions:
            lo_i = bisect_left(other, pos_a - window)
            hi_i = bisect_right(other, pos_a + window)
            for pos_b in other[lo_i:hi_i]:
                lo = min(pos_a, pos_b) // block_size
                hi = max(pos_a, pos_b) // block_size
                if hi - lo > 2:
                    continue
                for block in range(max(0, hi - 1), min(block_count, lo + 2)):
                    per_block[block] = per_block.get(block, 0) + 1
        counts[key] = per_block
    return InteractionIndex(counts, block_count)


def block_positions(block_indices, block_count: int) -> list:
    """The narrative fraction in [0, 1] of each block index.

    Pivots and a series' context blocks both take their positions from
    here, so a context block at a pivot's block sits at exactly the
    pivot's position.
    """
    denom = block_count - 1
    return [b / denom if denom > 0 else 0.0 for b in block_indices]


def _local_maxima(smoothed_subsequence) -> list:
    """Indices of local maxima; plateaus resolve to their leftmost block."""
    out = []
    last = len(smoothed_subsequence) - 1
    for k, value in enumerate(smoothed_subsequence):
        left_ok = k == 0 or value > smoothed_subsequence[k - 1]
        right_ok = k == last or value >= smoothed_subsequence[k + 1]
        if left_ok and right_ok:
            out.append(k)
    return out


def detect_pivots(pair_key, interactions: InteractionIndex, sentiments,
                  smoothed, cfg: PipelineConfig) -> list:
    """Pivot points for one character pair.

    ``sentiments``/``smoothed`` are the raw and smoothed block SV
    sequences for the whole book. Raises NoPivots when the pair never
    interacts.
    """
    interacting = interactions.interacting_blocks(pair_key)
    if not interacting:
        raise NoPivots(f"pair {pair_key} has no interacting blocks")
    subsequence = [smoothed[b] for b in interacting]
    maxima = [interacting[k] for k in _local_maxima(subsequence)]
    if len(maxima) > cfg.max_pivots:
        ranked = sorted(maxima,
                        key=lambda b: (-interactions.intensity(pair_key, b), b))
        maxima = sorted(ranked[:cfg.max_pivots])
    participants = frozenset(pair_key)
    return [
        PivotPoint(
            block_index=b,
            position=position,
            sv=sentiments[b],
            participants=participants,
            occurrence_weight=interactions.intensity(pair_key, b),
        )
        for b, position in zip(maxima, block_positions(maxima, interactions.block_count))
    ]


def predominant_pair(core_names, interactions: InteractionIndex, sentiments,
                     smoothed, cfg: PipelineConfig):
    """The core pair whose pivots carry the most total occurrence weight.

    Returns (pair_key, pivots). Ties break toward the lexicographically
    smallest pair. Raises NoPivots when no core pair interacts at all.
    """
    best = None
    for pair_key in combinations(sorted(core_names), 2):
        try:
            pivots = detect_pivots(pair_key, interactions, sentiments, smoothed, cfg)
        except NoPivots:
            continue
        total = 0.0
        for p in pivots:
            total += p.occurrence_weight
        candidate = (-total, pair_key)
        if best is None or candidate < best[0]:
            best = (candidate, pair_key, pivots)
    if best is None:
        raise NoPivots("no core character pair with interacting blocks")
    return best[1], best[2]
