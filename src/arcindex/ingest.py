"""Corpus ingestion: tokenization, logical blocks, lexicon and alias files.

Tokens keep their text lowercased with two flags recorded at split time:
whether the original surface form was capitalized, and whether the token
opens a sentence. Character mining needs the first, sentiment lookup the
lowercase text, and the sentence flag keeps ordinary sentence-initial
capitals from looking like names.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AliasError, ConfigError, EmptyDocument, LexiconError

_WORD_RE = re.compile(r"\w+(?:['’]\w+)*", re.UNICODE)
_SENTENCE_END = frozenset(".!?")


@dataclass(slots=True)
class Token:
    text: str               # lowercased surface form
    capitalized: bool       # original form started with an uppercase letter
    sentence_start: bool    # first token of the text or follows ., ! or ?


@dataclass
class BookDocument:
    book_id: str
    title: str
    tokens: list
    author: str | None = None
    language: str = "en"
    metadata: dict = field(default_factory=dict)

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    @property
    def analyzable(self) -> bool:
        return len(self.tokens) > 0


@dataclass(slots=True)
class LogicalBlock:
    block_index: int
    start: int   # inclusive token offset
    end: int     # exclusive token offset


def tokenize(text: str) -> list:
    """Split text into Tokens, dropping punctuation but remembering it.

    Words are maximal ``\\w`` runs; internal apostrophes keep contractions
    whole. A token is sentence-initial when only whitespace/punctuation
    containing ``.``, ``!`` or ``?`` separates it from the previous word
    (the very first token of a text counts too).
    """
    tokens = []
    last_end = 0
    first = True
    for match in _WORD_RE.finditer(text):
        gap = text[last_end:match.start()]
        starts_sentence = first or any(ch in _SENTENCE_END for ch in gap)
        surface = match.group(0)
        tokens.append(Token(
            text=surface.lower(),
            capitalized=surface[0].isupper(),
            sentence_start=starts_sentence,
        ))
        last_end = match.end()
        first = False
    return tokens


def load_plain_text(path, book_id: str, title: str | None = None,
                    author: str | None = None, language: str = "en") -> BookDocument:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyDocument(f"{path}: no tokens")
    if title is None:
        title = path.stem.replace("_", " ")
    return BookDocument(book_id=book_id, title=title, tokens=tokens,
                        author=author, language=language)


def load_cmu_summaries(path):
    """Parse the 7-column book-summary TSV.

    Columns: wikipedia_id, freebase_id, title, author, pub_date,
    genres-as-JSON-object, plot_summary. Returns ``(documents, skipped)``
    where malformed rows (short rows, bad genre JSON, duplicate or missing
    ids) are skipped and counted rather than raised.
    """
    documents = []
    skipped = 0
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t", 6)
            if len(cols) < 7:
                skipped += 1
                continue
            wiki_id, freebase_id, title, author, pub_date, genres_raw, summary = cols
            wiki_id = wiki_id.strip()
            if not wiki_id or wiki_id in seen_ids:
                skipped += 1
                continue
            genres_raw = genres_raw.strip()
            if genres_raw:
                try:
                    genre_map = json.loads(genres_raw)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if not isinstance(genre_map, dict):
                    skipped += 1
                    continue
                genres = list(genre_map.values())
            else:
                genres = []
            seen_ids.add(wiki_id)
            documents.append(BookDocument(
                book_id=wiki_id,
                title=title.strip(),
                author=author.strip() or None,
                tokens=tokenize(summary),
                metadata={
                    "genres": genres,
                    "summary": summary,
                    "freebase_id": freebase_id.strip() or None,
                    "pub_date": pub_date.strip() or None,
                },
            ))
    return documents, skipped


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


class SentimentLexicon:
    """Lowercased term -> polarity in [-1, 1]."""

    def __init__(self, entries: dict, duplicate_count: int = 0):
        self.entries = entries
        self.duplicate_count = duplicate_count

    def get(self, token_text: str):
        return self.entries.get(token_text)

    def __contains__(self, token_text: str) -> bool:
        return token_text in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path) -> SentimentLexicon:
    entries = {}
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
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
            if term in entries:
                duplicates += 1
            entries[term] = polarity
    return SentimentLexicon(entries, duplicate_count=duplicates)


def default_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "default_lexicon.tsv"


def load_default_lexicon() -> SentimentLexicon:
    return load_lexicon(default_lexicon_path())


STORE_FORMAT = "arcindex-store"
STORE_VERSION = "1.0"


def save_store(docs, path) -> None:
    """Persist normalized documents as JSON; tokens as compact triples."""
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
                "tokens": [[t.text, int(t.capitalized), int(t.sentence_start)]
                           for t in d.tokens],
            }
            for d in docs
        ],
    }
    # One dumps call: json.dump to a handle runs the pure-Python encoder.
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_store(path) -> list:
    from .errors import FormatError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}", offset=exc.pos)
    if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
        raise FormatError(f"{path}: not a document store")
    try:
        return [
            BookDocument(
                book_id=d["book_id"],
                title=d["title"],
                author=d.get("author"),
                language=d.get("language", "en"),
                metadata=d.get("metadata") or {},
                tokens=[Token(text=t[0], capitalized=bool(t[1]),
                              sentence_start=bool(t[2]))
                        for t in d["tokens"]],
            )
            for d in payload["documents"]
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"{path}: malformed document store: {exc}")


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
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
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
