import pytest

from arcindex.characters import CharacterProfile
from arcindex.config import PipelineConfig
from arcindex.errors import NoPivots
from arcindex.ingest import BookDocument, LogicalBlock, tokenize
from arcindex.pivots import (InteractionIndex, block_sentiment, block_sentiments,
                             compute_interactions, detect_pivots, predominant_pair,
                             smooth)

LEX = {"love": 0.8, "joy": 0.6, "grim": -0.9, "dull": -0.5}


def _doc(text):
    return BookDocument(book_id="bk", title="T", tokens=tokenize(text))


def _single_block(text):
    doc = _doc(text)
    return LogicalBlock(block_index=0, start=0, end=len(doc.tokens)), doc


def _index(per_block, block_count, pair=("a", "b")):
    return InteractionIndex({tuple(sorted(pair)): dict(per_block)}, block_count)


def test_block_sentiment_rescales_mean_polarity():
    block, doc = _single_block("they spoke of love and joy together")
    sv = block_sentiment(block, doc, LEX, PipelineConfig())
    # mean polarity (0.8 + 0.6) / 2 = 0.7 maps to (0.7 + 1) / 2
    assert sv == pytest.approx(0.85, abs=1e-12)


def test_block_without_hits_scores_neutral():
    block, doc = _single_block("the quiet road went on and on")
    assert block_sentiment(block, doc, LEX, PipelineConfig()) == 0.5


def test_alpha_shifts_and_clamps():
    block, doc = _single_block("the quiet road went on")
    assert block_sentiment(block, doc, LEX, PipelineConfig(alpha=0.2)) == pytest.approx(0.7)
    block, doc = _single_block("love love love")
    assert block_sentiment(block, doc, LEX, PipelineConfig(alpha=0.6)) == 1.0
    block, doc = _single_block("grim grim")
    assert block_sentiment(block, doc, LEX, PipelineConfig(alpha=-0.5)) == 0.0


def test_block_sentiments_scores_each_block():
    doc = _doc("love love grim grim")
    blocks = [LogicalBlock(0, 0, 2), LogicalBlock(1, 2, 4)]
    values = block_sentiments(blocks, doc, LEX, PipelineConfig())
    assert values == pytest.approx([0.9, 0.05], abs=1e-12)


def test_empty_lexicon_scores_every_block_neutral():
    doc = _doc("love love grim grim joy dull")
    blocks = [LogicalBlock(0, 0, 2), LogicalBlock(1, 2, 4), LogicalBlock(2, 4, 6)]
    assert block_sentiments(blocks, doc, {}, PipelineConfig()) == [0.5, 0.5, 0.5]


def test_smooth_centered_window_clips_at_edges():
    out = smooth([0.0, 1.0, 0.0, 1.0, 0.0], radius=1)
    assert out == pytest.approx([0.5, 1 / 3, 2 / 3, 1 / 3, 0.5])


def test_smooth_radius_zero_copies_input():
    values = [0.3, 0.9, 0.1]
    out = smooth(values, radius=0)
    assert out == values
    assert out is not values


def test_detect_pivots_finds_local_maxima():
    idx = _index({i: 1 for i in range(5)}, block_count=5)
    raw = [0.1, 0.2, 0.3, 0.4, 0.5]
    smoothed = [0.4, 0.7, 0.5, 0.6, 0.3]
    pivots = detect_pivots(("a", "b"), idx, raw, smoothed, PipelineConfig())
    assert [p.block_index for p in pivots] == [1, 3]
    assert [p.position for p in pivots] == [0.25, 0.75]
    assert [p.sv for p in pivots] == [0.2, 0.4]
    assert all(p.participants == frozenset({"a", "b"}) for p in pivots)
    assert all(p.occurrence_weight == 1.0 for p in pivots)


def test_flat_series_pivots_once_at_leftmost_block():
    idx = _index({i: 1 for i in range(5)}, block_count=5)
    smoothed = [0.5] * 5
    pivots = detect_pivots(("a", "b"), idx, smoothed, smoothed, PipelineConfig())
    assert [p.block_index for p in pivots] == [0]


def test_only_interacting_blocks_are_eligible():
    # the global peak at block 2 is skipped; maxima come from the
    # smoothed values restricted to interacting blocks only
    idx = _index({0: 1, 4: 1}, block_count=5)
    smoothed = [0.6, 0.1, 0.9, 0.1, 0.5]
    pivots = detect_pivots(("a", "b"), idx, smoothed, smoothed, PipelineConfig())
    assert [p.block_index for p in pivots] == [0]


def test_pivot_cap_keeps_heaviest_blocks_in_block_order():
    idx = _index({0: 1, 1: 2, 2: 1, 3: 10, 4: 1, 5: 6, 6: 1}, block_count=7)
    smoothed = [0.1, 0.9, 0.1, 0.8, 0.1, 0.85, 0.1]
    cfg = PipelineConfig(max_pivots=2)
    pivots = detect_pivots(("a", "b"), idx, smoothed, smoothed, cfg)
    assert [p.block_index for p in pivots] == [3, 5]
    assert [p.occurrence_weight for p in pivots] == [1.0, 0.6]


def test_pivot_cap_breaks_intensity_ties_toward_earlier_blocks():
    idx = _index({0: 1, 1: 5, 2: 1, 3: 5, 4: 1, 5: 5, 6: 1}, block_count=7)
    smoothed = [0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1]
    cfg = PipelineConfig(max_pivots=2)
    pivots = detect_pivots(("a", "b"), idx, smoothed, smoothed, cfg)
    assert [p.block_index for p in pivots] == [1, 3]


def test_single_block_book_pivots_at_position_zero():
    idx = _index({0: 1}, block_count=1)
    pivots = detect_pivots(("a", "b"), idx, [0.7], [0.7], PipelineConfig())
    assert [p.position for p in pivots] == [0.0]


def test_pair_without_interactions_raises():
    idx = InteractionIndex({("a", "b"): {}}, block_count=5)
    with pytest.raises(NoPivots):
        detect_pivots(("a", "b"), idx, [0.5] * 5, [0.5] * 5, PipelineConfig())


def test_empty_index_reports_zero_intensity():
    idx = InteractionIndex({}, block_count=5)
    assert idx.intensity(("a", "b"), 0) == 0.0
    assert idx.interacting_blocks(("a", "b")) == []


def test_compute_interactions_credits_block_neighborhood():
    a = CharacterProfile("A", mention_count=1, first_mention=10,
                         mention_positions=[10])
    b = CharacterProfile("B", mention_count=1, first_mention=30,
                         mention_positions=[30])
    idx = compute_interactions([a, b], window=50, block_size=20, block_count=5)
    # the co-mention spans blocks 0 and 1, so both earn credit
    assert idx.counts[("A", "B")] == {0: 1, 1: 1}
    assert idx.intensity(("A", "B"), 0) == 1.0
    assert idx.interacting_blocks(("A", "B")) == [0, 1]


def test_compute_interactions_ignores_distant_mentions():
    a = CharacterProfile("A", mention_count=1, first_mention=10,
                         mention_positions=[10])
    b = CharacterProfile("B", mention_count=1, first_mention=300,
                         mention_positions=[300])
    idx = compute_interactions([a, b], window=50, block_size=20, block_count=20)
    assert idx.interacting_blocks(("A", "B")) == []
    assert idx.book_max == 0


def test_compute_interactions_drops_wide_block_spreads():
    # within the token window, but the mentions land more than two
    # blocks apart, so the pair earns no block credit
    a = CharacterProfile("A", mention_count=1, first_mention=0,
                         mention_positions=[0])
    b = CharacterProfile("B", mention_count=1, first_mention=55,
                         mention_positions=[55])
    idx = compute_interactions([a, b], window=60, block_size=10, block_count=8)
    assert idx.interacting_blocks(("A", "B")) == []


def test_predominant_pair_prefers_highest_total_weight():
    counts = {
        ("a", "b"): {0: 5},
        ("a", "c"): {0: 5},
        ("b", "c"): {0: 5, 2: 1, 4: 5},
    }
    idx = InteractionIndex(counts, block_count=5)
    smoothed = [0.9, 0.5, 0.1, 0.5, 0.9]
    pair, pivots = predominant_pair(["c", "a", "b"], idx, smoothed, smoothed,
                                    PipelineConfig())
    assert pair == ("b", "c")
    assert [p.block_index for p in pivots] == [0, 4]


def test_predominant_pair_ties_break_to_smallest_pair():
    counts = {("a", "b"): {0: 5}, ("a", "c"): {0: 5}}
    idx = InteractionIndex(counts, block_count=3)
    smoothed = [0.9, 0.1, 0.1]
    pair, _ = predominant_pair(["a", "b", "c"], idx, smoothed, smoothed,
                               PipelineConfig())
    assert pair == ("a", "b")


def test_predominant_pair_requires_some_interaction():
    idx = InteractionIndex({}, block_count=3)
    with pytest.raises(NoPivots):
        predominant_pair(["a", "b"], idx, [0.5] * 3, [0.5] * 3, PipelineConfig())
