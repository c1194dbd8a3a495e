import csv
import json

import pytest

from arcindex.config import PipelineConfig
from arcindex.ingest import load_default_lexicon, segment_blocks, tokenize
from arcindex.pivots import block_sentiment
from arcindex.synth import (BLOCKS_PER_BOOK, DEFAULT_TEMPLATES, MAIN_PIVOT_BLOCKS,
                            TOKENS_PER_BLOCK, GenSpec, generate, write_corpus)


def _small_spec(seed=7):
    return GenSpec(seed=seed, books_per_archetype=2,
                   templates=DEFAULT_TEMPLATES[:2])


def test_same_seed_reproduces_the_corpus_exactly():
    first = generate(_small_spec())
    second = generate(_small_spec())
    assert first.texts == second.texts
    assert first.labels == second.labels
    assert first.truth == second.truth


def test_an_explicit_empty_lexicon_is_used_not_replaced(monkeypatch):
    import arcindex.synth as synth_mod

    def no_default():
        raise AssertionError("the default lexicon was loaded")

    monkeypatch.setattr(synth_mod, "load_default_lexicon", no_default)
    with pytest.raises(ValueError, match="too small to plant from"):
        generate(_small_spec(), lexicon={})


def test_different_seeds_produce_different_text():
    first = generate(_small_spec(seed=7))
    second = generate(_small_spec(seed=8))
    assert first.texts != second.texts


def test_labels_cover_every_book_evenly(synth_small):
    assert len(synth_small.documents) == 6
    assert sorted(synth_small.labels) == sorted(d.book_id for d in synth_small.documents)
    counts = {}
    for label in synth_small.labels.values():
        counts[label] = counts.get(label, 0) + 1
    assert counts == {1: 3, 2: 3}


def test_books_have_the_declared_token_budget(synth_small):
    for doc in synth_small.documents:
        assert doc.token_count == BLOCKS_PER_BOOK * TOKENS_PER_BLOCK


def test_planted_names_clear_the_mention_floor(synth_small, synth_cfg):
    for doc in synth_small.documents:
        truth = synth_small.truth[doc.book_id]
        tokens = doc.tokens.words()
        for name in truth.core:
            assert tokens.count(name.lower()) >= synth_cfg.min_mentions
        for name in truth.noise_names:
            assert 1 <= tokens.count(name.lower()) < synth_cfg.min_mentions


def test_zero_noise_plants_template_values_exactly():
    spec = GenSpec(seed=11, books_per_archetype=1, sigma=0.0)
    result = generate(spec)
    for doc in result.documents:
        truth = result.truth[doc.book_id]
        template = DEFAULT_TEMPLATES[truth.archetype_id - 1]
        assert truth.planted_svs == pytest.approx(template.values, abs=1e-12)


def test_block_sentiments_hit_planted_targets(synth_small):
    lexicon = load_default_lexicon()
    cfg = PipelineConfig(block_size=TOKENS_PER_BLOCK)
    doc = synth_small.documents[0]
    truth = synth_small.truth[doc.book_id]
    blocks = segment_blocks(doc, TOKENS_PER_BLOCK)
    # background, shoulder, then every planted pivot value in order
    assert block_sentiment(blocks[0], doc, lexicon, cfg) == pytest.approx(0.30, abs=1e-9)
    assert block_sentiment(blocks[2], doc, lexicon, cfg) == pytest.approx(0.45, abs=1e-9)
    for block_index, planted in zip(truth.pivot_blocks, truth.planted_svs):
        sv = block_sentiment(blocks[block_index], doc, lexicon, cfg)
        assert sv == pytest.approx(planted, abs=1e-9)


def test_analysis_recovers_planted_structure(synth_small, synth_small_analyses):
    for analysis in synth_small_analyses:
        truth = synth_small.truth[analysis.book_id]
        assert frozenset(analysis.core) == truth.core
        assert analysis.pair == truth.pair
        assert tuple(p.block_index for p in analysis.pivots) == truth.pivot_blocks
        detected = [p.value for p in analysis.series.points]
        assert detected == pytest.approx(list(truth.planted_svs), abs=1e-9)


def test_genres_rotate_independently_of_archetype(synth_small):
    by_archetype = {}
    for truth in synth_small.truth.values():
        by_archetype.setdefault(truth.archetype_id, set()).add(truth.genre)
    for genres in by_archetype.values():
        assert len(genres) >= 2


def test_recommended_config_is_usable(synth_small):
    cfg = PipelineConfig(**synth_small.recommended_config).validate()
    assert cfg.block_size == TOKENS_PER_BLOCK
    assert cfg.dt_mode == "fixed"


def test_pivot_grid_leaves_room_for_shoulders():
    assert MAIN_PIVOT_BLOCKS[0] >= 1
    assert MAIN_PIVOT_BLOCKS[-1] <= BLOCKS_PER_BOOK - 2
    assert len(MAIN_PIVOT_BLOCKS) == len(DEFAULT_TEMPLATES[0].values)


def test_write_corpus_materializes_every_artifact(tmp_path, synth_small):
    write_corpus(synth_small, tmp_path)

    book_files = sorted((tmp_path / "books").glob("*.txt"))
    assert [p.stem for p in book_files] == sorted(synth_small.texts)
    sample = book_files[0]
    assert sample.read_text(encoding="utf-8") == synth_small.texts[sample.stem]

    with open(tmp_path / "labels.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["book_id", "label"]
    assert {r[0]: int(r[1]) for r in rows[1:]} == synth_small.labels

    lines = (tmp_path / "summaries.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(synth_small.documents)
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 7
        genre_blob = json.loads(fields[5])
        assert "genre" in genre_blob

    payload = json.loads((tmp_path / "groundtruth.json").read_text(encoding="utf-8"))
    assert payload["seed"] == synth_small.spec.seed
    assert sorted(payload["books"]) == sorted(synth_small.truth)
    for entry in payload["books"].values():
        assert len(entry["planted_svs"]) == len(MAIN_PIVOT_BLOCKS)
        assert entry["pivot_blocks"] == list(MAIN_PIVOT_BLOCKS)


def test_rendered_text_tokenizes_back_to_the_plan(synth_small):
    doc = synth_small.documents[0]
    assert tokenize(synth_small.texts[doc.book_id]).words() == doc.tokens.words()
