import base64
import json
import math
import os
import re
import stat
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcindex.catalogue import load as load_catalogue
from arcindex.config import PipelineConfig, load_config
from arcindex.errors import (AliasError, ConfigError, EmptyDocument,
                             FormatError, LexiconError)
from arcindex.ingest import (AliasTable, BookDocument, Tokens, load_aliases,
                             load_cmu_summaries, load_default_lexicon,
                             load_lexicon, load_plain_text, load_store,
                             save_store, segment_blocks, tokenize)
from arcindex.pipeline import load_corpus_dir, load_labels
from arcindex.series import read_series_csv
from arcindex.similarity import read_matrix_csv
from oracle_reference import ref_tokenize
from token_columns import tokens_from_words

# Letters of any script and case (titlecase and caseless ones too; İ
# lowercases to two characters, ẞ to ß), letter-like numbers, combining
# marks (not \w), digits, and the characters that decide word and
# sentence boundaries.
TEXT = st.text(st.one_of(st.characters(categories=["Lu", "Ll", "Lt", "Lo", "Mn", "Nd",
                                                   "Nl", "No"]),
                         st.sampled_from("İẞǅ_'’.!?, \t\n\u00a0\u2003")))


def test_tokenize_lowercases_and_flags_capitals():
    tokens = tokenize("Mara walked. The dog saw Mara.")
    assert tokens.words() == ["mara", "walked", "the", "dog", "saw", "mara"]
    assert tokens.vocab == ["mara", "walked", "the", "dog", "saw"]
    assert tokens.codes == array("H", [0, 1, 2, 3, 4, 0])
    assert tokens.capitalized[0] and tokens.sentence_start[0]
    assert tokens.capitalized[2] and tokens.sentence_start[2]
    assert tokens.capitalized[5] and not tokens.sentence_start[5]


def test_tokenize_sentence_boundaries_need_terminators():
    tokens = tokenize("one two! three? four, five")
    assert tokens.sentence_start == bytes([True, False, True, True, False])


def test_tokenize_keeps_contractions_whole():
    tokens = tokenize("Isn't Odette's coat here?")
    assert tokens.words() == ["isn't", "odette's", "coat", "here"]


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_tokenize_matches_the_per_token_reference(text):
    tokens = tokenize(text)
    ref = ref_tokenize(text)
    assert tokens.words() == [t.text for t in ref]
    assert tokens.capitalized == bytes([t.capitalized for t in ref])
    assert tokens.sentence_start == bytes([t.sentence_start for t in ref])
    # One vocabulary entry per distinct word, in the order each is first used.
    assert tokens.vocab == list(dict.fromkeys(t.text for t in ref))
    assert tokens.codes.typecode == "H"
    assert all(t is sys.intern(t) for t in tokens.vocab)


@pytest.mark.parametrize("text", ["", "...", "Mara walked. The dog saw Mara."])
def test_flag_columns_are_one_byte_per_token(tmp_path, text):
    tokens = tokenize(text)
    path = tmp_path / "store.json"
    save_store([BookDocument(book_id="b1", title="T", tokens=tokens)], path)
    for got in (tokens, load_store(path)[0].tokens):
        for column in (got.capitalized, got.sentence_start):
            assert type(column) is bytes
            assert len(column) == len(got.codes) == len(tokens)
            assert set(column) <= {0, 1}


def test_tokenize_empty_text():
    assert len(tokenize("...")) == 0


def test_load_plain_text_uses_stem_as_title(tmp_path):
    path = tmp_path / "quiet_harbor.txt"
    path.write_text("Some words here.", encoding="utf-8")
    doc = load_plain_text(path, book_id="b1")
    assert doc.title == "quiet harbor"
    assert doc.token_count == 3


@pytest.mark.parametrize("loader, error", [
    (lambda path: load_plain_text(path, book_id="b1"), FormatError),
    (load_cmu_summaries, FormatError),
    (load_store, FormatError),
    (load_lexicon, LexiconError),
    (load_aliases, AliasError),
    (read_series_csv, FormatError),
    (read_matrix_csv, FormatError),
    (load_catalogue, FormatError),
    (load_labels, FormatError),
    (load_config, ConfigError),
], ids=["text", "summaries", "store", "lexicon", "aliases", "series", "matrix",
        "catalogue", "labels", "config"])
def test_undecodable_files_name_the_byte_offset(tmp_path, loader, error):
    path = tmp_path / "input"
    prefix = b"# a comment line\n" * 2000    # beyond the first chunk a text file reads
    path.write_bytes(prefix + b"caf\xe9\n")
    with pytest.raises(error, match=f"byte 0xe9 at offset {len(prefix) + 3} is not UTF-8"):
        loader(path)


# Book ids that are not plain file names; every path that makes a document refuses them.
BAD_IDS = ["", ".", "..", "a/b", "/abs/path", "nul\0byte"]


@pytest.mark.parametrize("book_id", BAD_IDS)
def test_a_document_refuses_a_book_id_that_is_not_a_file_name(book_id):
    with pytest.raises(FormatError, match="is not a plain file name"):
        BookDocument(book_id=book_id, title="T", tokens=tokenize("Some words."))


def test_a_text_file_whose_stem_is_a_dot_is_refused(tmp_path):
    path = tmp_path / "..txt"      # Path("..txt").stem == "."
    path.write_text("Mira walked. Mira ran.", encoding="utf-8")
    for load in (lambda: load_plain_text(path, book_id=path.stem),
                 lambda: load_corpus_dir(tmp_path)):
        with pytest.raises(FormatError, match="is not a plain file name") as excinfo:
            load()
        assert str(path) in str(excinfo.value)


def test_load_plain_text_rejects_empty_files(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyDocument):
        load_plain_text(path, book_id="b1")


# Inputs every JSON reader refuses: nesting too deep for the decoder, an
# integer too long for int(), and a store that is valid but for one NaN.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT_STORE = '{"format": "arcindex-store", "version": ' + "1" * 5000 + "}"
NAN_STORE = ('{"documents":[{"author":null,"book_id":"b1","language":"en",'
             '"metadata":{"x":NaN},"title":"T","tokens":{"capitalized":[0],'
             '"codes":"AAABAA==","sentence_start":[0],"vocab":"more words"}}],'
             '"format":"arcindex-store","version":"4.0"}')
# One field over csv.field_size_limit() (131,072 characters).
LONG_FIELD = "1" * 131_073


@pytest.mark.parametrize("loader, error, text, message, attrs", [
    (read_series_csv, FormatError, "0.0,0.2,primary,x\n1.0,0.3\n",
     "row 1: expected 2 or 3 columns", {}),
    (read_series_csv, FormatError, "0.0,0.2\n1.0,0.3,guess\n",
     "row 2: unknown provenance 'guess'", {}),
    (read_matrix_csv, FormatError, "book_id,a\n", "empty matrix", {}),
    (read_matrix_csv, FormatError, "book_id,a,b\na,1.0,0.5\n",
     "header names 2 books but 1 rows follow", {}),
    (read_matrix_csv, FormatError, "book_id,a,b\na,1.0,high\nb,0.5,1.0\n",
     "non-numeric matrix entry", {}),
    (read_matrix_csv, FormatError, "book_id,a,b\nb,1.0,0.5\na,0.5,1.0\n",
     "row labels do not match header labels", {}),
    (read_matrix_csv, FormatError, "book_id,a,a,b\na,1,0,0\na,0,1,0\nb,0,0,1\n",
     "book id 'a' is repeated", {}),
    (read_series_csv, FormatError, f"0.0,0.2\n{LONG_FIELD},0.3\n",
     "row 2: field larger than field limit", {}),
    (read_matrix_csv, FormatError, f"book_id,a\na,{LONG_FIELD}\n",
     "row 2: field larger than field limit", {}),
    (load_labels, FormatError, f"book_id,label\nb1,{LONG_FIELD}\n",
     "row 2: field larger than field limit", {}),
    # Python 3.13 places a trailing comma's error 2 characters before 3.11
    # and 3.12 do; a missing comma has one offset on all three.
    (load_store, FormatError, '{"format": "arcindex-store" "version": "4.0"}',
     "invalid JSON at offset 28: Expecting ',' delimiter", {"offset": 28}),
    (load_store, FormatError, DEEP_JSON, "invalid JSON: maximum recursion depth exceeded", {}),
    (load_store, FormatError, LONG_INT_STORE, "invalid JSON: Exceeds the limit", {}),
    (load_store, FormatError, NAN_STORE, "invalid JSON: non-finite number NaN", {}),
    (load_store, FormatError, NAN_STORE.replace("NaN", "-Infinity"),
     "invalid JSON: non-finite number -Infinity", {}),
    (load_catalogue, FormatError, DEEP_JSON, "invalid JSON: maximum recursion depth exceeded", {}),
    (load_catalogue, FormatError, '{"format_version": ' + "1" * 5000 + "}",
     "invalid JSON: Exceeds the limit", {}),
    (load_lexicon, LexiconError, "fine\t0.2\nodd\t0.1\textra\n",
     "line 2: expected term<TAB>polarity", {"line_no": 2}),
], ids=["series-columns", "series-provenance", "matrix-empty", "matrix-row-count",
        "matrix-non-numeric", "matrix-row-labels", "matrix-repeated-id", "series-long-field",
        "matrix-long-field", "labels-long-field", "store-json", "store-deep", "store-long-int",
        "store-nan", "store-infinity", "catalogue-deep", "catalogue-long-int",
        "lexicon-fields"])
def test_malformed_input_raises_its_typed_error(tmp_path, loader, error, text, message,
                                                attrs):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=re.escape(message)) as excinfo:
        loader(path)
    if error is FormatError:
        assert str(path) in str(excinfo.value)
    for name, value in attrs.items():
        assert getattr(excinfo.value, name) == value


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
    for bad_id in ("a/b", ".."):                          # not plain file names
        rows.append("\t".join([bad_id, *_tsv_row(99).split("\t")[1:]]))
    path = tmp_path / "summaries.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert len(docs) == 5
    assert skipped == 6


@pytest.mark.parametrize("genres", [{"a": 5}, {"a": "Fiction", "b": None}],
                         ids=["number", "null"])
def test_summary_tsv_skips_genre_maps_of_non_strings(tmp_path, genres):
    path = tmp_path / "summaries.tsv"
    path.write_text(_tsv_row(1) + "\n" + _tsv_row(2, genres=genres) + "\n",
                    encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert [d.book_id for d in docs] == ["1001"]
    assert skipped == 1


@pytest.mark.parametrize("cell", [DEEP_JSON, '{"a": ' + "1" * 5000 + "}"],
                         ids=["deep", "long-int"])
def test_summary_tsv_skips_genre_cells_the_json_reader_refuses(tmp_path, cell):
    row = _tsv_row(2).split("\t")
    row[5] = cell
    path = tmp_path / "summaries.tsv"
    path.write_text(_tsv_row(1) + "\n" + "\t".join(row) + "\n", encoding="utf-8")
    docs, skipped = load_cmu_summaries(path)
    assert [d.book_id for d in docs] == ["1001"]
    assert skipped == 1


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
    assert all(-1.0 <= v <= 1.0 for v in lex.values())


def test_lexicon_parses_comments_and_counts_duplicates(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# header\nhappy\t0.8\nsad\t-0.6\nhappy\t0.7  # re-scored\n",
                    encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex["happy"] == 0.7


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
    assert back[0].tokens == docs[0].tokens


def test_failed_store_save_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    docs = [BookDocument(book_id="b1", title="One", tokens=tokenize("Hello there."))]
    save_store(docs, path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("arcindex.ingest.os.replace", fail)
    docs.append(BookDocument(book_id="b2", title="Two", tokens=tokenize("More words.")))
    with pytest.raises(OSError, match="disk full"):
        save_store(docs, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


@pytest.mark.parametrize("number", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_store_save_refuses_a_non_finite_number(tmp_path, number):
    # 1e999 loads as inf, so a loaded document can hold one; JSON cannot.
    path = tmp_path / "store.json"
    save_store([BookDocument(book_id="b1", title="One", tokens=tokenize("Hello there."))], path)
    before = path.read_bytes()
    docs = [BookDocument(book_id="b1", title="One", tokens=tokenize("Hello there."),
                         metadata={"x": number})]
    with pytest.raises(FormatError, match="cannot store the documents as JSON"):
        save_store(docs, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


def test_store_save_keeps_the_mode_a_plain_write_gives(tmp_path):
    path, plain = tmp_path / "store.json", tmp_path / "plain.json"
    docs = [BookDocument(book_id="b1", title="One", tokens=tokenize("Hello there."))]
    umask = os.umask(0o077)
    try:
        save_store(docs, path)
        plain.write_text("", encoding="utf-8")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o600
    path.chmod(0o640)
    save_store(docs, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_store_bytes_are_stable(tmp_path):
    docs = [
        BookDocument(book_id="b1", title='Café "Noir"',
                     tokens=tokenize("Élise met Bram. Bram met Élise!"),
                     author="A", metadata={"genres": ["G"], "pub_date": None}),
        BookDocument(book_id="b2", title="Two", tokens=tokenize("More words here.")),
    ]
    path = tmp_path / "store.json"
    save_store(docs, path)
    # The codes are little-endian on every host: "AAABAAIAAgABAAAA" is the
    # bytes 00 00 01 00 02 00 02 00 01 00 00 00, codes 0 1 2 2 1 0.
    assert path.read_text(encoding="utf-8") == (
        '{"documents":[{"author":"A","book_id":"b1","language":"en",'
        '"metadata":{"genres":["G"],"pub_date":null},"title":"Caf\\u00e9 \\"Noir\\"",'
        '"tokens":{"capitalized":[0,2,3,5],"codes":"AAABAAIAAgABAAAA","sentence_start":[0,3],'
        '"vocab":"\\u00e9lise met bram"}},'
        '{"author":null,"book_id":"b2","language":"en","metadata":{},"title":"Two",'
        '"tokens":{"capitalized":[0],"codes":"AAABAAIA","sentence_start":[0],'
        '"vocab":"more words here"}}],'
        '"format":"arcindex-store","version":"4.0"}\n')


def test_store_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"something": "else"}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_store(path)


# Ids and metadata that BookDocument takes; the refused ones are in BAD_IDS
# and _BAD_DOCUMENTS.
BOOK_ID = st.text(st.characters(exclude_characters="/\0" + os.sep), min_size=1,
                  max_size=12).filter(lambda book_id: book_id not in (".", ".."))
METADATA = st.builds(
    lambda other, known: {**other, **known},
    st.dictionaries(st.text(max_size=8).filter(lambda key: key not in ("genres", "summary")),
                    st.one_of(st.none(), st.integers(), st.text(max_size=12),
                              st.lists(st.text(max_size=8), max_size=3)),
                    max_size=3),
    st.fixed_dictionaries({}, optional={"genres": st.lists(st.text(max_size=8), max_size=3),
                                        "summary": st.text(max_size=12)}))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(BOOK_ID, st.text(max_size=12), TEXT,
                          st.one_of(st.none(), st.text(max_size=12)), METADATA),
                max_size=4, unique_by=lambda book: book[0]))
def test_store_round_trips_columns_and_metadata(books):
    docs = [BookDocument(book_id=book_id, title=title, tokens=tokenize(text),
                         author=author, metadata=metadata)
            for book_id, title, text, author, metadata in books]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        save_store(docs, path)
        back = load_store(path)
    assert back == docs
    assert [d.tokens.words() for d in back] == [d.tokens.words() for d in docs]
    assert [(d.tokens.capitalized, d.tokens.sentence_start) for d in back] == [
        (d.tokens.capitalized, d.tokens.sentence_start) for d in docs]
    assert all(t is sys.intern(t) for d in back for t in d.tokens.vocab)


@pytest.mark.parametrize("distinct, typecode", [(65_536, "H"), (65_537, "I")])
def test_codes_widen_past_65536_words_and_round_trip(tmp_path, distinct, typecode):
    words = [f"w{i}" for i in range(distinct)]
    tokens = tokenize(" ".join(words + words[::-1]))
    assert tokens.codes.typecode == typecode
    assert len(tokens.vocab) == distinct
    path = tmp_path / "store.json"
    docs = [BookDocument(book_id="b1", title="T", tokens=tokens)]
    save_store(docs, path)
    stored = json.loads(path.read_text(encoding="utf-8"))["documents"][0]["tokens"]["codes"]
    width = 2 if typecode == "H" else 4
    assert base64.b64decode(stored) == b"".join(
        code.to_bytes(width, "little") for code in [*range(distinct), *reversed(range(distinct))])
    back = load_store(path)
    assert back == docs
    assert back[0].tokens.codes.typecode == typecode
    assert back[0].tokens.words() == words + words[::-1]


V1_STORE = ('{"documents":[{"author":null,"book_id":"b2","language":"en","metadata":{},'
            '"title":"Two","tokens":[["more",1,1],["words",0,0],["here",0,0]]}],'
            '"format":"arcindex-store","version":"1.0"}\n')


def test_store_rejects_the_triple_format(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(V1_STORE, encoding="utf-8")
    with pytest.raises(FormatError, match="version '1.0'"):
        load_store(path)


V2_STORE = ('{"documents":[{"author":null,"book_id":"b2","language":"en","metadata":{},'
            '"title":"Two","tokens":{"capitalized":[1,0,0],"sentence_start":[1,0,0],'
            '"text":["more","words","here"]}}],"format":"arcindex-store","version":"2.0"}\n')


def test_store_rejects_the_format_2_layout(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(V2_STORE, encoding="utf-8")
    with pytest.raises(FormatError, match="version '2.0' is not '4.0'.*arcindex ingest") as excinfo:
        load_store(path)
    assert str(path) in str(excinfo.value)


V3_STORE = ('{"documents":[{"author":null,"book_id":"b2","language":"en","metadata":{},'
            '"title":"Two","tokens":{"capitalized":[0],"sentence_start":[0],'
            '"text":"more words here"}}],"format":"arcindex-store","version":"3.0"}\n')


def test_store_rejects_the_format_3_layout(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(V3_STORE, encoding="utf-8")
    with pytest.raises(FormatError, match="version '3.0' is not '4.0'.*arcindex ingest") as excinfo:
        load_store(path)
    assert str(path) in str(excinfo.value)


def _stored_codes(codes):
    """Codes as a store holds them: base64 of two little-endian bytes each."""
    return base64.b64encode(b"".join(c.to_bytes(2, "little") for c in codes)).decode("ascii")


# Stored as vocab "more words here then bram left", codes 0-5 ("AAABAAIAAwAEAAUA"),
# capitalized [0, 1, 3, 4] and sentence_start [0, 3]: six tokens.
@pytest.mark.parametrize("column, damage", [
    ("vocab", lambda col: col.split(" ")),
    ("vocab", lambda col: col.replace(" ", "  ", 1)),
    ("vocab", lambda col: col + " "),
    ("vocab", lambda col: " " + col),
    ("vocab", lambda col: col.replace("left", "more")),
    ("vocab", lambda col: col.rsplit(" ", 1)[0]),
    ("capitalized", lambda col: "0,1,3,4"),
    ("capitalized", lambda col: [0, 1, 1, 3, 4]),
    ("capitalized", lambda col: [0, 3, 1, 4]),
    ("capitalized", lambda col: [-1, *col]),
    ("capitalized", lambda col: [0, True, 3, 4]),
    ("capitalized", lambda col: [0, 1.0, 3, 4]),
    ("capitalized", lambda col: [0, "1", 3, 4]),
    ("sentence_start", lambda col: [*col, 6]),
    ("codes", lambda col: _stored_codes([0, 1, 2, 3, 4, 6])),
    ("codes", lambda col: col[:-1]),
    ("codes", lambda col: col.replace("A", "!", 1)),
    ("codes", lambda col: col[:8] + "\n" + col[8:]),
    ("codes", lambda col: base64.b64encode(base64.b64decode(col)[:-1]).decode("ascii")),
    ("codes", lambda col: [0, 1, 2, 3, 4, 5]),
])
def test_store_rejects_malformed_token_columns(tmp_path, column, damage):
    path = tmp_path / "store.json"
    save_store([BookDocument(book_id="b1", title="One",
                             tokens=tokenize("More Words here. Then Bram left."))], path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    tokens = payload["documents"][0]["tokens"]
    assert tokens == {"vocab": "more words here then bram left",
                      "codes": _stored_codes(range(6)),
                      "capitalized": [0, 1, 3, 4], "sentence_start": [0, 3]}
    tokens[column] = damage(tokens[column])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="malformed") as excinfo:
        load_store(path)
    assert str(path) in str(excinfo.value)


# Any word without the separator, non-ASCII ones included.
WORD = st.text(st.characters(exclude_characters=" "), min_size=1, max_size=6)
TOKENS = st.lists(st.tuples(WORD, st.booleans(), st.booleans()), max_size=12).map(
    lambda rows: tokens_from_words([r[0] for r in rows], [r[1] for r in rows],
                                   [r[2] for r in rows]))


@settings(max_examples=100, deadline=None)
@given(st.lists(TOKENS, max_size=4))
def test_store_round_trips_any_tokens(columns):
    docs = [BookDocument(book_id=f"b{i}", title="T", tokens=tokens)
            for i, tokens in enumerate(columns)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        save_store(docs, path)
        back = load_store(path)
    assert back == docs
    assert all(t is sys.intern(t) for d in back for t in d.tokens.vocab)


@settings(max_examples=50, deadline=None)
@given(TOKENS, st.sampled_from(["", " ", "a b", " a", "a ", "\u00e9 ", 7, None, b"word",
                                ["word"], "repeat"]))
@example(tokens_from_words(["a", "b"], [0, 0], [1, 0]), "repeat")
def test_store_refuses_a_token_it_cannot_split_back(tokens, bad):
    # One more token, coded as a new vocabulary word that cannot be stored;
    # "repeat" stands for a word the vocabulary already holds.
    offset = len(tokens.vocab)
    if bad == "repeat":
        bad = tokens.vocab[0] if tokens.vocab else ""
    tokens = Tokens([*tokens.vocab, bad], array(tokens.codes.typecode, [*tokens.codes, offset]),
                    tokens.capitalized + b"\0", tokens.sentence_start + b"\0")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        path.write_bytes(b"kept")
        with pytest.raises(FormatError, match=f"book 'b1': vocabulary word {offset} "):
            save_store([BookDocument(book_id="b1", title="T", tokens=tokens)], path)
        assert path.read_bytes() == b"kept"


def test_store_refuses_a_code_that_names_no_word(tmp_path):
    tokens = tokenize("Mara walked.")
    tokens.codes[1] = 2
    path = tmp_path / "store.json"
    with pytest.raises(FormatError, match="book 'b1': code 2 names no word of a 2-word vocabulary"):
        save_store([BookDocument(book_id="b1", title="T", tokens=tokens)], path)
    assert not path.exists()


# Each damage to a stored document and the words its error must contain.
_BAD_DOCUMENTS = {
    "null-title": (lambda docs: docs[0].update(title=None), "title"),
    "numeric-book-id": (lambda docs: docs[0].update(book_id=5), "book_id"),
    "numeric-author": (lambda docs: docs[0].update(author=7), "author"),
    "metadata-a-list": (lambda docs: docs[0].update(metadata=[1]), "metadata"),
    "genres-a-string": (lambda docs: docs[0]["metadata"].update(genres="G"), "genres"),
    "numeric-genre": (lambda docs: docs[0]["metadata"].update(genres=["G", 5]), "genres"),
    "numeric-summary": (lambda docs: docs[0]["metadata"].update(summary=5), "summary"),
    "repeated-document": (lambda docs: docs.append(dict(docs[0])), "duplicate"),
    "numeric-language": (lambda docs: docs[0].update(language=5), "language"),
    **{f"book-id-{bad!r}": (lambda docs, bad=bad: docs[0].update(book_id=bad),
                            "is not a plain file name") for bad in BAD_IDS},
}


@pytest.mark.parametrize("damage", list(_BAD_DOCUMENTS))
def test_store_rejects_malformed_documents(tmp_path, damage):
    path = tmp_path / "store.json"
    save_store([BookDocument(book_id="b1", title="One", tokens=tokenize("More words."),
                             metadata={"genres": ["G"], "summary": "A tale."}),
                BookDocument(book_id="b2", title="Two", tokens=tokenize("Here."))], path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    corrupt, words = _BAD_DOCUMENTS[damage]
    corrupt(payload["documents"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=words) as excinfo:
        load_store(path)
    assert str(path) in str(excinfo.value)
