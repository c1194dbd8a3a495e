import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcindex.characters import (_pair_window_count, co_occurrence, extract_characters,
                                 select_core, select_prime)
from arcindex.errors import CoreExtractionError
from arcindex.ingest import AliasTable, BookDocument, tokenize
from oracle_reference import ref_extract_characters
from token_columns import tokens_from_words


def _doc(text, book_id="bk"):
    return BookDocument(book_id=book_id, title="T", tokens=tokenize(text))


def test_mid_sentence_capitals_become_characters():
    doc = _doc("The road led to Bramwell. Later Bramwell returned home.")
    profiles = extract_characters(doc)
    names = [p.canonical_name for p in profiles]
    assert "Bramwell" in names
    bram = profiles[names.index("Bramwell")]
    assert bram.mention_count == 2


def test_sentence_initial_only_forms_are_not_characters():
    # "Walking" is only ever capitalized at sentence starts.
    doc = _doc("Walking is fine. Walking helps. The friend of Odile agreed.")
    names = [p.canonical_name for p in extract_characters(doc)]
    assert "Walking" not in names
    assert "Odile" in names


def test_validated_forms_count_sentence_initial_occurrences_too():
    doc = _doc("Odile arrived early. People saw Odile. Odile smiled.")
    profiles = extract_characters(doc)
    odile = next(p for p in profiles if p.canonical_name == "Odile")
    assert odile.mention_count == 3


def test_adjacent_capitals_form_one_run():
    doc = _doc("They all met Perdita Vane there. Perdita Vane left at dawn.")
    names = [p.canonical_name for p in extract_characters(doc)]
    assert "Perdita Vane" in names
    assert "Perdita" not in names


def test_sentence_boundary_splits_runs():
    doc = _doc("She spoke with Casimir. Dagny listened while Casimir praised Dagny.")
    names = {p.canonical_name for p in extract_characters(doc)}
    assert "Casimir" in names
    assert "Dagny" in names
    assert "Casimir Dagny" not in names


def test_alias_sidecar_folds_variants():
    table = AliasTable({"Genevieve": ["Gen"]})
    doc = _doc("They met Genevieve at noon. Later Gen smiled. Everyone liked Gen.")
    profiles = extract_characters(doc, aliases=table)
    gen = next(p for p in profiles if p.canonical_name == "Genevieve")
    assert gen.mention_count == 3


def test_profiles_sorted_by_count_then_first_mention():
    doc = _doc("People saw Brice meet Arno. Then Brice met Arno again. Brice slept.")
    profiles = extract_characters(doc)
    assert [p.canonical_name for p in profiles] == ["Brice", "Arno"]
    assert profiles[0].mention_count == 3
    assert profiles[1].mention_count == 2


def test_prime_selection_applies_floor_and_cap():
    doc = _doc(" ".join(["They met Anka here."] * 6 + ["They met Brok here."] * 3))
    profiles = extract_characters(doc)
    primes = select_prime(profiles, prime_max=10, min_mentions=5)
    assert [p.canonical_name for p in primes] == ["Anka"]
    primes = select_prime(profiles, prime_max=10, min_mentions=3)
    assert {p.canonical_name for p in primes} == {"Anka", "Brok"}
    primes = select_prime(profiles, prime_max=1, min_mentions=3)
    assert [p.canonical_name for p in primes] == ["Anka"]


def test_co_occurrence_counts_windowed_pairs():
    words = ["w"] * 200
    words[10] = "Anka"
    words[30] = "Brok"     # within 50 of Anka at 10
    words[150] = "Anka"
    words[199] = "Brok"    # within 50 of Anka at 150
    doc = _doc(" ".join(words))
    profiles = extract_characters(doc)
    primes = select_prime(profiles, prime_max=10, min_mentions=1)
    edges = co_occurrence(primes, window=50)
    edge = next(e for e in edges if e.pair == ("Anka", "Brok"))
    # qualifying pairs: (10,30) and (150,199); the cross pairs are too far
    assert edge.raw_weight == 2
    assert edge.normalized_weight == 1.0


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.integers(0, 400), unique=True).map(sorted),
       b=st.lists(st.integers(0, 400), unique=True).map(sorted),
       window=st.integers(0, 60))
def test_pair_window_count_is_symmetric(a, b, window):
    # co_occurrence counts each pair in either argument order.
    assert _pair_window_count(a, b, window) == _pair_window_count(b, a, window)


def test_core_set_keeps_strongly_linked_primes():
    blocks = []
    for _ in range(6):
        blocks.append("Anka spoke with Brok today.")
    blocks.append("Cole appeared once near Anka.")
    for _ in range(5):
        blocks.append("Cole wandered off alone for a while. So did Cole again.")
    doc = _doc(" ".join(blocks))
    profiles = extract_characters(doc)
    primes = select_prime(profiles, prime_max=10, min_mentions=2)
    edges = co_occurrence(primes, window=8)
    core = select_core(primes, edges, edge_threshold=0.25)
    assert "Anka" in core and "Brok" in core


def test_core_falls_back_to_top_two_primes():
    doc = _doc("They saw Anka. " * 6 + "They saw Brok. " * 5)
    profiles = extract_characters(doc)
    primes = select_prime(profiles, prime_max=10, min_mentions=2)
    edges = []
    core = select_core(primes, edges, edge_threshold=0.25)
    assert sorted(core) == ["Anka", "Brok"]


def test_core_extraction_needs_primes():
    with pytest.raises(CoreExtractionError):
        select_core([], [], edge_threshold=0.25)


# A small vocabulary, so runs repeat, names span several words, "i"
# appears capitalized, and the alias table has something to fold.
_WORDS = ["odile", "perdita", "vane", "gen", "genevieve", "the", "later",
          "i", "road", "and"]
_ALIASES = AliasTable({"Genevieve": ["Gen"], "Perdita Vane": ["Vane"]})


@st.composite
def _token_streams(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    text = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
    capitalized = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sentence_start = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if n:
        sentence_start[0] = True
    return tokens_from_words(text, capitalized, sentence_start)


@settings(max_examples=300, deadline=None)
@given(tokens=_token_streams(), aliases=st.sampled_from([None, _ALIASES]))
def test_profiles_match_the_per_run_reference(tokens, aliases):
    doc = BookDocument(book_id="bk", title="T", tokens=tokens)
    got = [(p.canonical_name, p.mention_count, p.first_mention, p.mention_positions)
           for p in extract_characters(doc, aliases)]
    resolve = aliases.resolve if aliases is not None else None
    assert got == ref_extract_characters(tokens.words(), list(map(bool, tokens.capitalized)),
                                         list(map(bool, tokens.sentence_start)), resolve)
