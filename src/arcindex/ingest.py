"""Corpus ingestion: tokenization, logical blocks, lexicon and alias files.

A document's text is coded against its own vocabulary: each distinct
lowercased word is kept once, in the order it is first used, and each
token is a small integer code into that vocabulary, two bytes per token
in an ``array('H')`` (four, in an ``array('I')``, past 65,536 words).
Two flag columns run beside the codes, ``bytes`` of one byte (0 or 1)
per token: whether the original surface form was capitalized, and
whether the token opens a sentence. Character mining keys runs on their
codes and needs the capital flags, sentiment looks each vocabulary
word's polarity up once per document, and the sentence flag keeps
ordinary sentence-initial capitals from looking like names. The store
(format 4.0) saves the vocabulary and the codes as they are held.
"""

from __future__ import annotations

import binascii
import csv
import json
import math
import os
import re
import stat
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from operator import lt
from pathlib import Path

from .errors import AliasError, ConfigError, EmptyDocument, FormatError, LexiconError

# One capture group, so split() alternates gap, word, gap, ..., gap.
_WORD_SPLIT = re.compile(r"(\w+(?:['’]\w+)*)")
_SENTENCE_END = frozenset(".!?")


# Codes take two bytes while the vocabulary has at most this many words.
_SHORT_CODE_WORDS = 1 << 16


def _code_type(vocab_size: int) -> str:
    """The array typecode of a document's codes: ``'H'``, or ``'I'`` past 65,536 words."""
    return "H" if vocab_size <= _SHORT_CODE_WORDS else "I"


@dataclass(slots=True)
class Tokens:
    """One document's token stream: a vocabulary and three columns.

    ``codes`` holds each token's index into ``vocab``, in an array whose
    typecode ``_code_type`` sets from the vocabulary's size. The flag
    columns are ``bytes``, one byte (0 or 1) per token.
    """

    vocab: list             # distinct lowercased words, interned, in first-use order
    codes: array            # each token's index into vocab
    capitalized: bytes      # original form started with an uppercase letter
    sentence_start: bytes   # first token of the text or follows ., ! or ?

    def __len__(self) -> int:
        return len(self.codes)

    def words(self) -> list:
        """Each token's word, in order: a decoded copy of the whole text.

        For callers off the hot paths; the pipeline reads the codes.
        """
        return list(map(self.vocab.__getitem__, self.codes))


def _plain_file_name(book_id) -> bool:
    """Whether a book id can name a file in a directory, as ``series -o`` does."""
    return (isinstance(book_id, str) and book_id not in ("", ".", "..")
            and not any(c in book_id for c in ("/", os.sep, "\0")))


# Each rule a book record keeps, as (the fault when it breaks, its test).
# A document and a catalogue entry both keep these.
_BOOK_RULES = (
    ("book_id is not a plain file name", lambda d: _plain_file_name(d.book_id)),
    ("title is not a string", lambda d: isinstance(d.title, str)),
    ("author is not a string or null", lambda d: d.author is None or isinstance(d.author, str)),
)
_DOCUMENT_RULES = _BOOK_RULES + (
    ("language is not a string", lambda d: isinstance(d.language, str)),
    ("metadata is not an object", lambda d: isinstance(d.metadata, dict)),
    ("genres are not a list of strings",
     lambda d: isinstance(g := d.metadata.get("genres", []), list)
     and all(isinstance(x, str) for x in g)),
    ("summary is not a string", lambda d: isinstance(d.metadata.get("summary", ""), str)),
)


@dataclass
class BookDocument:
    """One book: its token columns and metadata, checked when it is made.

    Every producer (the store, plain text, corpus directories, summary
    TSVs, ``synth``) builds documents through here, so each document
    keeps these rules: ``book_id`` is a plain file name (a string that
    is not ``""``, ``.`` or ``..`` and holds no ``/``, ``os.sep`` or
    NUL), ``title`` and ``language`` are strings, ``author`` is a string
    or None, and ``metadata`` is a dict whose ``genres``, where present,
    are a list of strings and whose ``summary``, where present, is a
    string. Otherwise construction raises ``FormatError`` naming the
    book and the first broken rule.

    A document is a value once it is first analysed: ``analyze_book``
    keeps its last result on the document, so do not change ``tokens``
    or the metadata after that. Build a new document instead.
    """
    book_id: str
    title: str
    tokens: Tokens
    author: str | None = None
    language: str = "en"
    metadata: dict = field(default_factory=dict)
    # (config copy, lexicon, aliases, BookAnalysis) of the last
    # analysis; see pipeline.analyze_book. Never saved by save_store.
    _analysis: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for fault, holds in _DOCUMENT_RULES:
            if not holds(self):
                raise FormatError(f"book {self.book_id!r}: {fault}")

    @property
    def token_count(self) -> int:
        return len(self.tokens)


@dataclass(slots=True)
class LogicalBlock:
    block_index: int
    start: int   # inclusive token offset
    end: int     # exclusive token offset


def tokenize(text: str) -> Tokens:
    """Split text into Tokens, dropping punctuation but remembering it.

    Words are maximal ``\\w`` runs; internal apostrophes keep contractions
    whole. A token is sentence-initial when only whitespace/punctuation
    containing ``.``, ``!`` or ``?`` separates it from the previous word
    (the very first token of a text counts too).
    """
    parts = _WORD_SPLIT.split(text)
    words = parts[1::2]
    if not words:
        return Tokens([], array("H"), b"", b"")
    gaps = parts[2:-1:2]     # gaps[i] lies between words[i] and words[i + 1]
    # A text repeats a few gap strings and surface forms over and over:
    # test each gap once, and lowercase, intern and code each form once.
    ends = {gap: not _SENTENCE_END.isdisjoint(gap) for gap in set(gaps)}
    index = {}               # lowercased word -> code, in first-use order
    surface = {form: index.setdefault(sys.intern(form.lower()), len(index))
               for form in dict.fromkeys(words)}
    codes = array(_code_type(len(index)))
    codes.fromlist(list(map(surface.__getitem__, words)))
    capital = {form: form[0].isupper() for form in surface}
    return Tokens(list(index), codes, bytes(map(capital.__getitem__, words)),
                  bytes([True, *map(ends.__getitem__, gaps)]))


def _not_utf8(path, error_type):
    """``error_type`` for a file that is not UTF-8, naming its first bad byte's offset."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return error_type(f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} "
                          "is not UTF-8")
    return error_type(f"{path}: not UTF-8")


def _utf8_lines(path, error_type, newline=None):
    """The lines of a UTF-8 text file; a byte that does not decode raises ``error_type``.

    ``newline`` is passed to ``open``; ``_csv_rows`` passes ``""``.
    """
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise _not_utf8(path, error_type) from None


def _csv_rows(path) -> list:
    """``(row_no, row)`` for each CSV row of a UTF-8 file that holds more than whitespace.

    Rows count from 1, blank ones included. The whole file is decoded
    first, so a byte that does not decode raises ``FormatError`` before
    a reader sees any row. A row the reader refuses, such as one with a
    field over ``csv.field_size_limit()``, raises ``FormatError`` naming
    the row.
    """
    rows = []
    try:
        for row in csv.reader(_utf8_lines(path, FormatError, newline="")):
            rows.append(row)
    except csv.Error as exc:
        raise FormatError(f"{path}: row {len(rows) + 1}: {exc}") from None
    return [(row_no, row) for row_no, row in enumerate(rows, start=1) if "".join(row).strip()]


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name}")


def _parse_json(text: str, source):
    """The value of the JSON ``text``; a refusal is a ``FormatError`` naming ``source``.

    ``NaN`` and ``Infinity`` literals are refused, and so are nesting
    too deep for the decoder and integers too long for ``int``. A syntax
    error keeps its position as the error's ``offset``.
    """
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: invalid JSON at offset {exc.pos}: {exc.msg}",
                          offset=exc.pos) from None
    except (RecursionError, ValueError) as exc:
        raise FormatError(f"{source}: invalid JSON: {exc}") from None


def _read_json(path):
    """The value of a UTF-8 JSON file, read whole; any refusal is a ``FormatError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, FormatError) from None
    return _parse_json(text, path)


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory.

    The file is replaced only once the new bytes are on disk, so a
    failed or interrupted write keeps the old file and leaves no
    temporary file behind. The file gets the mode a plain write gives:
    a replaced file keeps its mode, a new one gets ``0o666`` less the
    umask.
    """
    path = Path(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)     # the umask can only be read by setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        # mkstemp creates the file owner-only.
        os.chmod(tmp, mode)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_plain_text(path, book_id: str) -> BookDocument:
    """One book from a text file, titled after the file name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, FormatError) from None
    tokens = tokenize(text)
    if not tokens:
        raise EmptyDocument(f"{path}: no tokens")
    try:
        return BookDocument(book_id=book_id, title=path.stem.replace("_", " "), tokens=tokens)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_cmu_summaries(path):
    """Parse the 7-column book-summary TSV into tokenized documents.

    Columns: wikipedia_id, freebase_id, title, author, pub_date,
    genres-as-JSON-object, plot_summary. Returns ``(documents, skipped)``
    where malformed rows (short rows, genre JSON that the store's reader
    refuses, genre names that are not strings, duplicate or missing ids,
    ids that are not plain file names) are skipped and counted rather
    than raised.
    """
    rows, skipped = _summary_rows(path)
    return [BookDocument(book_id=book_id, title=title, author=author,
                         tokens=tokenize(metadata["summary"]), metadata=metadata)
            for book_id, title, author, metadata in rows], skipped


def _summary_rows(path):
    """``([(book_id, title, author, metadata), ...], skipped)`` of a summary TSV.

    The rows ``load_cmu_summaries`` keeps, without tokenizing them.
    """
    rows = []
    skipped = 0
    seen_ids = set()
    for line in _utf8_lines(path, FormatError):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t", 6)
        if len(cols) < 7:
            skipped += 1
            continue
        wiki_id, freebase_id, title, author, pub_date, genres_raw, summary = cols
        wiki_id = wiki_id.strip()
        if not _plain_file_name(wiki_id) or wiki_id in seen_ids:
            skipped += 1
            continue
        genres_raw = genres_raw.strip()
        if genres_raw:
            try:
                genre_map = _parse_json(genres_raw, path)
            except FormatError:
                skipped += 1
                continue
            if not (isinstance(genre_map, dict)
                    and all(isinstance(g, str) for g in genre_map.values())):
                skipped += 1
                continue
            genres = list(genre_map.values())
        else:
            genres = []
        seen_ids.add(wiki_id)
        rows.append((wiki_id, title.strip(), author.strip() or None, {
            "genres": genres,
            "summary": summary,
            "freebase_id": freebase_id.strip() or None,
            "pub_date": pub_date.strip() or None,
        }))
    return rows, skipped


def segment_blocks(doc: BookDocument, block_size: int) -> list:
    """Tile the token stream into fixed-size blocks; the last may be short."""
    if block_size < 50:
        raise ConfigError("block_size must be >= 50")
    count = math.ceil(doc.token_count / block_size)
    return [
        LogicalBlock(block_index=i,
                     start=i * block_size,
                     end=min((i + 1) * block_size, doc.token_count))
        for i in range(count)
    ]


def load_lexicon(path) -> dict:
    """Lowercased term -> polarity in [-1, 1]; a repeated term's last entry wins."""
    entries = {}
    for line_no, line in enumerate(_utf8_lines(path, LexiconError), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"line {line_no}: expected term<TAB>polarity", line_no)
        term, raw_polarity = parts[0].strip().lower(), parts[1].strip()
        try:
            polarity = float(raw_polarity)
        except ValueError:
            raise LexiconError(f"line {line_no}: polarity {raw_polarity!r} is not a number", line_no)
        if not -1.0 <= polarity <= 1.0:
            raise LexiconError(f"line {line_no}: polarity {polarity} outside [-1, 1]", line_no)
        entries[term] = polarity
    return entries


def default_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "default_lexicon.tsv"


@cache
def load_default_lexicon() -> dict:
    """The packaged lexicon, parsed once per process: every call returns one dict.

    It is shared, so read it and never change it; edit a copy instead.
    """
    return load_lexicon(default_lexicon_path())


STORE_FORMAT = "arcindex-store"
STORE_VERSION = "4.0"


def _stored_codes(codes, vocab_size: int) -> str:
    """Codes as stored: base64 of their little-endian bytes, at ``_code_type``'s width."""
    stored = array(_code_type(vocab_size), codes)
    if sys.byteorder == "big":
        stored.byteswap()
    return binascii.b2a_base64(stored.tobytes(), newline=False).decode("ascii")


def _stored_tokens(doc) -> dict:
    """A document's tokens as stored: the vocabulary, the codes and two position lists.

    The vocabulary's words are joined with single spaces, so a word that
    is not a string, is empty, holds a space or repeats cannot be
    stored; neither can a code that names no word. ``tokenize`` never
    yields either.
    """
    tokens = doc.tokens
    vocab, codes, n = tokens.vocab, tokens.codes, len(tokens)
    if not len(tokens.capitalized) == len(tokens.sentence_start) == n:
        raise FormatError(f"book {doc.book_id!r}: token columns differ in length")
    try:
        joined = " ".join(vocab)
    except TypeError:       # a word that is not a string
        joined = None
    if (joined is None or "" in vocab or joined.count(" ") != max(len(vocab) - 1, 0)
            or len(set(vocab)) != len(vocab)):
        offset = next(i for i, w in enumerate(vocab)
                      if not isinstance(w, str) or not w or " " in w or w in vocab[:i])
        raise FormatError(f"book {doc.book_id!r}: vocabulary word {offset} ({vocab[offset]!r}) "
                          "is not a string, is empty, holds a space or repeats, so it cannot "
                          "be stored")
    if codes and max(codes) >= len(vocab):
        raise FormatError(f"book {doc.book_id!r}: code {max(codes)} names no word of a "
                          f"{len(vocab)}-word vocabulary")
    return {"vocab": joined,
            "codes": _stored_codes(codes, len(vocab)),
            "capitalized": list(compress(range(n), tokens.capitalized)),
            "sentence_start": list(compress(range(n), tokens.sentence_start))}


def save_store(docs, path) -> None:
    """Persist normalized documents as JSON (format 4.0).

    Each document's tokens are stored as ``vocab``, its vocabulary's
    words joined by single spaces in code order; ``codes``, the base64
    of the tokens' codes as little-endian unsigned integers, two bytes
    each, or four when the vocabulary has more than 65,536 words; and
    ``capitalized`` and ``sentence_start``, the sorted positions where
    that flag is true. A vocabulary word that is not a string, is empty,
    holds a space or repeats, or a code that names no word, raises
    ``FormatError`` naming the book, before anything is written. So does
    a non-finite number in a document's metadata, which JSON cannot hold
    (a store's ``1e999`` loads as an infinity), naming the file. The
    file is replaced atomically, so an existing store keeps its bytes
    whenever a save fails.
    """
    payload = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "documents": [
            {
                "book_id": d.book_id,
                "title": d.title,
                "author": d.author,
                "language": d.language,
                "metadata": d.metadata,
                "tokens": _stored_tokens(d),
            }
            for d in docs
        ],
    }
    try:
        # One dumps call: json.dump to a handle runs the pure-Python encoder.
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot store the documents as JSON: {exc}") from None
    _write_atomic(path, text + "\n")


def _flags(positions, n: int) -> bytes:
    """A flag column of ``n`` bytes, 1 at the stored sorted ``positions``."""
    if not (isinstance(positions, list) and {*map(type, positions)} <= {int}):
        raise TypeError("token flags must be a list of integer positions")
    if positions and not (0 <= positions[0] and positions[-1] < n
                          and all(map(lt, positions, positions[1:]))):
        raise ValueError(f"token flag positions must strictly increase from 0 to below {n}")
    flags = bytearray(n)
    for p in positions:
        flags[p] = 1
    return bytes(flags)


def _tokens_from_payload(columns) -> Tokens:
    """Decode a stored document's tokens, checked with no per-token Python loop.

    ``vocab`` must be a string of distinct words split by single spaces
    (no double, leading or trailing space), ``codes`` base64 whose byte
    count is a multiple of the code width, every code naming a word, and
    each flag column a strictly increasing list of integer positions
    inside the document. Words are interned; an empty ``vocab`` and
    ``codes`` are a document with no tokens.
    """
    vocab, stored = columns["vocab"], columns["codes"]
    if not (isinstance(vocab, str) and isinstance(stored, str)):
        raise TypeError("token vocab and codes must be strings")
    vocab = list(map(sys.intern, vocab.split(" "))) if vocab else []
    if "" in vocab:
        raise ValueError("token vocab has an empty word (a double, leading or trailing space)")
    if len(set(vocab)) != len(vocab):
        raise ValueError("token vocab repeats a word")
    data = binascii.a2b_base64(stored, strict_mode=True)   # binascii.Error is a ValueError
    codes = array(_code_type(len(vocab)))
    codes.frombytes(data)   # a byte count that is not a multiple of the width is a ValueError
    if sys.byteorder == "big":
        codes.byteswap()
    if codes and max(codes) >= len(vocab):
        raise ValueError(f"token code {max(codes)} names no word of a {len(vocab)}-word "
                         "vocabulary")
    n = len(codes)
    return Tokens(vocab, codes, _flags(columns["capitalized"], n),
                  _flags(columns["sentence_start"], n))


def load_store(path) -> list:
    """The documents of a store written by ``save_store`` (format 4.0).

    Each document is checked as it is made (see ``BookDocument``), its
    tokens as ``_tokens_from_payload`` says, and book ids may not
    repeat. A store of another version, a 3.x store included, raises
    ``FormatError`` asking for a fresh ``arcindex ingest``; anything
    else refused is a ``FormatError`` naming the file.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
        raise FormatError(f"{path}: not a document store")
    if payload.get("version") != STORE_VERSION:
        raise FormatError(f"{path}: store version {payload.get('version')!r} is not "
                          f"{STORE_VERSION!r}; re-run arcindex ingest on the source text")
    try:
        # BookDocument checks each document's fields.
        docs = [BookDocument(book_id=d["book_id"], title=d["title"], author=d.get("author"),
                             language=d.get("language", "en"), metadata=d.get("metadata", {}),
                             tokens=_tokens_from_payload(d["tokens"]))
                for d in payload["documents"]]
        seen = set()
        for d in docs:
            if d.book_id in seen:
                raise ValueError(f"duplicate book_id {d.book_id!r}")
            seen.add(d.book_id)
    except (KeyError, TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"{path}: malformed document store: {exc}")
    return docs


class AliasTable:
    """Canonical name -> set of lowercased alias surface forms."""

    def __init__(self, mapping: dict | None = None):
        self.mapping = {}
        self._alias_to_canonical = {}
        if mapping:
            for canonical, aliases in mapping.items():
                self.add(canonical, aliases)

    def add(self, canonical: str, aliases) -> None:
        lowered = {a.lower() for a in aliases}
        lowered.add(canonical.lower())
        for alias in lowered:
            owner = self._alias_to_canonical.get(alias)
            if owner is not None and owner != canonical:
                raise AliasError(f"alias {alias!r} claimed by both {owner!r} and {canonical!r}")
            self._alias_to_canonical[alias] = canonical
        self.mapping.setdefault(canonical, set()).update(lowered)

    def resolve(self, surface_lower: str) -> str | None:
        return self._alias_to_canonical.get(surface_lower)

    def __len__(self) -> int:
        return len(self.mapping)


def load_aliases(path) -> AliasTable:
    """Parse an alias sidecar: ``Canonical<TAB>alias1,alias2,...`` per line."""
    table = AliasTable()
    for line_no, line in enumerate(_utf8_lines(path, AliasError), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split("\t")
        if len(parts) != 2:
            raise AliasError(f"line {line_no}: expected Canonical<TAB>aliases")
        canonical, alias_csv = parts[0].strip(), parts[1]
        aliases = [a.strip() for a in alias_csv.split(",") if a.strip()]
        if not canonical or not aliases:
            raise AliasError(f"line {line_no}: empty canonical name or alias list")
        table.add(canonical, aliases)
    return table
