import json

import pytest

from arcindex.config import PipelineConfig
from arcindex.errors import (AliasError, ConfigError, EmptyDocument,
                             FormatError, LexiconError)
from arcindex.ingest import (AliasTable, BookDocument, load_aliases,
                             load_cmu_summaries, load_default_lexicon,
                             load_lexicon, load_plain_text, load_store,
                             save_store, segment_blocks, tokenize)


def test_tokenize_lowercases_and_flags_capitals():
    tokens = tokenize("Mara walked. The dog saw Mara.")
    texts = [t.text for t in tokens]
    assert texts == ["mara", "walked", "the", "dog", "saw", "mara"]
    assert tokens[0].capitalized and tokens[0].sentence_start
    assert tokens[2].capitalized and tokens[2].sentence_start
    assert tokens[5].capitalized and not tokens[5].sentence_start


def test_tokenize_sentence_boundaries_need_terminators():
    tokens = tokenize("one two! three? four, five")
    starts = [t.sentence_start for t in tokens]
    assert starts == [True, False, True, True, False]


def test_tokenize_keeps_contractions_whole():
    tokens = tokenize("Isn't Odette's coat here?")
    assert [t.text for t in tokens] == ["isn't", "odette's", "coat", "here"]


def test_tokenize_empty_text():
    assert tokenize("...") == []


def test_load_plain_text_uses_stem_as_title(tmp_path):
    path = tmp_path / "quiet_harbor.txt"
    path.write_text("Some words here.", encoding="utf-8")
    doc = load_plain_text(path, book_id="b1")
    assert doc.title == "quiet harbor"
    assert doc.token_count == 3


def test_load_plain_text_rejects_empty_files(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyDocument):
        load_plain_text(path, book_id="b1")


def test_segment_blocks_tiles_the_token_stream():
    doc = BookDocument(book_id="b", title="B", tokens=tokenize("w " * 260))
    blocks = segment_blocks(doc, 100)
    assert [(b.start, b.end) for b in blocks] == [(0, 100), (100, 200), (200, 260)]
    assert [b.block_index for b in blocks] == [0, 1, 2]


def test_segment_blocks_rejects_tiny_blocks():
    doc = BookDocument(book_id="b", title="B", tokens=tokenize("w w w"))
    with pytest.raises(ConfigError):
        segment_blocks(doc, 10)


def _tsv_row(i, title="Title", genres=None, summary="A fine tale of two friends."):
    genres_json = json.dumps(genres if genres is not None
                             else {"/m/01": "Fiction", "/m/02": "Adventure"})
    return "\t".join([str(1000 + i), f"/m/x{i}", f"{title} {i}", f"Writer {i}",
                      "1990", genres_json, summary])


def test_summary_tsv_parses_complete_rows(tmp_path):
    path = tmp_path / "summaries.tsv"
    path.write_text("\n".join(_tsv_row(i) for i in range(20)) + "\n",
                    encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert len(docs) == 20
    assert skipped == 0
    assert docs[0].book_id == "1000"
    assert docs[0].metadata["genres"] == ["Fiction", "Adventure"]
    assert docs[0].metadata["summary"].startswith("A fine tale")
    assert docs[0].token_count > 0


def test_summary_tsv_skips_and_counts_malformed_rows(tmp_path):
    rows = [_tsv_row(i) for i in range(5)]
    rows.insert(2, "too\tfew\tcolumns")
    rows.insert(4, _tsv_row(0))                            # duplicate id 1000
    bad_genre = _tsv_row(97).split("\t")
    bad_genre[5] = "{not json"
    rows.append("\t".join(bad_genre))
    missing_id = _tsv_row(98).split("\t")
    missing_id[0] = ""
    rows.append("\t".join(missing_id))
    path = tmp_path / "summaries.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert len(docs) == 5
    assert skipped == 4


def test_summary_tsv_empty_genres_give_empty_list(tmp_path):
    row = _tsv_row(1).split("\t")
    row[5] = ""
    path = tmp_path / "summaries.tsv"
    path.write_text("\t".join(row) + "\n", encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert skipped == 0
    assert docs[0].metadata["genres"] == []


def test_summary_tsv_keeps_tabs_inside_summary(tmp_path):
    row = _tsv_row(1, summary="part one\tpart two")
    path = tmp_path / "summaries.tsv"
    path.write_text(row + "\n", encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert skipped == 0
    assert docs[0].metadata["summary"] == "part one\tpart two"


def test_default_lexicon_loads_clean():
    lex = load_default_lexicon()
    assert len(lex) > 900
    assert lex.duplicate_count == 0
    assert all(-1.0 <= v <= 1.0 for v in lex.entries.values())


def test_lexicon_parses_comments_and_counts_duplicates(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# header\nhappy\t0.8\nsad\t-0.6\nhappy\t0.7  # re-scored\n",
                    encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex.duplicate_count == 1
    assert lex.get("happy") == 0.7


def test_lexicon_rejects_out_of_range_polarity(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("overjoyed\t1.5\n", encoding="utf-8")
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(path)
    assert excinfo.value.line_no == 1


def test_lexicon_rejects_non_numeric_polarity(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("fine\t0.2\nodd\thigh\n", encoding="utf-8")
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(path)
    assert excinfo.value.line_no == 2


def test_alias_table_resolves_case_insensitively():
    table = AliasTable({"Genevieve": ["Gen", "Ginny"]})
    assert table.resolve("gen") == "Genevieve"
    assert table.resolve("genevieve") == "Genevieve"
    assert table.resolve("unknown") is None


def test_alias_conflicts_raise():
    table = AliasTable()
    table.add("Genevieve", ["Gen"])
    with pytest.raises(AliasError):
        table.add("Gennaro", ["Gen"])


def test_alias_sidecar_parses(tmp_path):
    path = tmp_path / "aliases.tsv"
    path.write_text("# sidecar\nGenevieve\tGen, Ginny\nMaddoc\tMad\n",
                    encoding="utf-8")
    table = load_aliases(path)
    assert len(table) == 2
    assert table.resolve("ginny") == "Genevieve"


def test_store_round_trip(tmp_path):
    docs = [
        BookDocument(book_id="b1", title="One", tokens=tokenize("Hello there. Bye."),
                     author="A", metadata={"genres": ["G"]}),
        BookDocument(book_id="b2", title="Two", tokens=tokenize("More words here.")),
    ]
    path = tmp_path / "store.json"
    save_store(docs, path)
    back = load_store(path)
    assert len(back) == 2
    assert back[0].book_id == "b1"
    assert back[0].metadata == {"genres": ["G"]}
    assert [(t.text, t.capitalized, t.sentence_start) for t in back[0].tokens] == \
           [(t.text, t.capitalized, t.sentence_start) for t in docs[0].tokens]


def test_store_bytes_are_stable(tmp_path):
    docs = [
        BookDocument(book_id="b1", title='Café "Noir"', tokens=tokenize("Élise met Bram. Bye!"),
                     author="A", metadata={"genres": ["G"], "pub_date": None}),
        BookDocument(book_id="b2", title="Two", tokens=tokenize("More words here.")),
    ]
    path = tmp_path / "store.json"
    save_store(docs, path)
    assert path.read_text(encoding="utf-8") == (
        '{"documents":[{"author":"A","book_id":"b1","language":"en",'
        '"metadata":{"genres":["G"],"pub_date":null},"title":"Caf\\u00e9 \\"Noir\\"",'
        '"tokens":[["\\u00e9lise",1,1],["met",0,0],["bram",1,0],["bye",1,1]]},'
        '{"author":null,"book_id":"b2","language":"en","metadata":{},"title":"Two",'
        '"tokens":[["more",1,1],["words",0,0],["here",0,0]]}],'
        '"format":"arcindex-store","version":"1.0"}\n')


def test_store_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"something": "else"}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_store(path)
