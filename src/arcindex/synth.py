"""Deterministic synthetic-narrative generator with full ground truth.

Each generated book plants three named characters: a predominant pair
that interacts inside every pivot region, and a third character who
shares enough windowed co-mentions with the protagonist to join the
core set but never to outweigh the pair. Pivot regions sit on a fixed
block grid; the block before and after each pivot carries a slightly
raised sentiment shoulder so that, after smoothing, every planted
pivot block is a local maximum regardless of its own value.

Sentiment is planted exactly: every block receives ten lexicon tokens
whose polarities lie on the lexicon's 0.1 grid and average to the
block's two-decimal target, so a detected series equals the planted
one up to float rounding.

Genre vocabulary, titles, authors and summaries rotate on a four-book
cycle that is independent of the archetype assignment, which keeps
metadata and summary similarity orthogonal to arc similarity.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .ingest import BookDocument, SentimentLexicon, load_default_lexicon, tokenize

__all__ = ["ArcTemplate", "GenSpec", "SynthResult", "DEFAULT_TEMPLATES",
           "generate", "write_corpus"]


@dataclass(frozen=True)
class ArcTemplate:
    archetype_id: int
    name: str
    description: str
    values: tuple


DEFAULT_TEMPLATES = (
    ArcTemplate(
        archetype_id=1,
        name="middle-peak",
        description="the middle portion sustains high positive emotion",
        values=(0.15, 0.25, 0.60, 0.85, 0.90, 0.92, 0.92, 0.90, 0.85, 0.55, 0.30, 0.20),
    ),
    ArcTemplate(
        archetype_id=2,
        name="late-surprise",
        description="steady decline capped by a sudden positive climax",
        values=(0.70, 0.62, 0.54, 0.46, 0.38, 0.30, 0.22, 0.15, 0.08, 0.05, 0.05, 0.95),
    ),
    ArcTemplate(
        archetype_id=3,
        name="spikes",
        description="alternating emotional spikes throughout",
        values=(0.90, 0.10, 0.85, 0.12, 0.88, 0.10, 0.86, 0.12, 0.90, 0.10, 0.85, 0.12),
    ),
    ArcTemplate(
        archetype_id=4,
        name="early-high",
        description="early excitement, a long negative middle, calm resolution",
        values=(0.92, 0.95, 0.90, 0.30, 0.10, 0.05, 0.05, 0.10, 0.28, 0.48, 0.58, 0.62),
    ),
)

# Layout of one generated book. Pivot regions for the main pair sit at
# every fourth block; the shorter decoy grid holds the third character.
BLOCKS_PER_BOOK = 75
TOKENS_PER_BLOCK = 120
SENTENCE_LEN = 10
MAIN_PIVOT_BLOCKS = tuple(3 + 4 * k for k in range(12))
DECOY_BLOCKS = tuple(range(50, 72, 3))
LEXICON_OFFSETS = (8, 20, 32, 44, 56, 68, 80, 92, 104, 116)
MAIN_A_OFFSETS = (42, 48, 54)
MAIN_B_OFFSETS = (45, 52)
DECOY_A_OFFSETS = (55,)
DECOY_C_OFFSETS = (47, 52, 58)
NOISE_SLOTS = (((10, 35), (24, 75), (38, 35)), ((12, 75), (26, 35), (40, 75)))

BACKGROUND_RAW = -0.40   # sentiment value 0.30
SHOULDER_RAW = -0.10     # sentiment value 0.45

NAME_POOL = (
    "Amara", "Brindle", "Casimir", "Dagny", "Elowen", "Faruk", "Galen",
    "Hesper", "Ilsabet", "Jorun", "Kellan", "Liora", "Maddoc", "Nerissa",
    "Orrin", "Palloma", "Quendra", "Rasmus", "Selda", "Tamsin", "Ulric",
    "Vanora", "Wendel", "Xanthe", "Yorick", "Zelde", "Ansgar", "Betrys",
    "Cormac", "Delwen", "Eamon", "Fenella", "Gridley", "Halvor", "Ingrid",
    "Jasker", "Kerensa", "Lorcan", "Mirela", "Nolwen", "Osric", "Petrine",
    "Quillon", "Rosalind", "Sorcha", "Tindra", "Umbert", "Vashti", "Wystan",
    "Ysolde", "Zephrin", "Aldous", "Bronwyn", "Cedrik", "Demelza", "Evander",
    "Fineas", "Gwendol", "Hartley", "Isolde", "Jessamy", "Kirwin", "Leofric",
    "Morwenna", "Nikander", "Ottoline", "Perdita", "Quinlan", "Rohese",
    "Severin", "Thessaly", "Urien", "Verity", "Winnock", "Xenia", "Yareth",
    "Zinnia", "Alaric", "Branwen", "Caspian",
)

FILLER_WORDS = (
    "road", "stone", "window", "river", "garden", "letter", "door", "table",
    "evening", "morning", "market", "village", "city", "paper", "horse",
    "train", "coat", "bridge", "field", "lamp", "shelf", "cup", "chair",
    "boat", "street", "tower", "yard", "hall", "gate", "wall", "floor",
    "roof", "corner", "path", "hill", "valley", "forest", "branch", "leaf",
    "cloud", "stairs", "kitchen", "office", "shop", "clock", "bell", "book",
    "candle", "basket", "cart", "well", "fence", "barrow", "ribbon", "spoon",
)

CONNECTORS = ("the", "a", "of", "and", "in", "near", "beyond", "along")


@dataclass(frozen=True)
class GenrePool:
    label: str
    vocab: tuple
    authors: tuple
    title_adjectives: tuple
    title_nouns: tuple


GENRES = (
    GenrePool(
        label="maritime",
        vocab=("harbor", "voyage", "sail", "mast", "anchorage", "tide", "gull",
               "wharf", "cargo", "compass", "lighthouse", "fleet", "deck",
               "sailor", "island", "lagoon", "reef", "schooner", "buoy",
               "dock", "pier", "seaweed", "driftwood", "mainsail"),
        authors=("Helena Marsh", "Oren Vance", "Petra Lindqvist", "Casper Boyle"),
        title_adjectives=("Salted", "Windward", "Northern", "Drifting", "Leeward"),
        title_nouns=("Harbor", "Voyage", "Tide", "Wharf", "Schooner"),
    ),
    GenrePool(
        label="pastoral",
        vocab=("orchard", "meadow", "barn", "plough", "harvest", "pasture",
               "shepherd", "wheat", "barley", "gristmill", "haystack",
               "cattle", "rooster", "dairy", "grove", "vineyard", "furrow",
               "scythe", "granary", "paddock", "clover", "beehive",
               "windmill", "hedgerow"),
        authors=("Ida Brackett", "Tobias Fenn", "Maren Colley", "Rufus Hale"),
        title_adjectives=("Amber", "Fallow", "Harrowed", "Gleaning", "Lowland"),
        title_nouns=("Orchard", "Meadow", "Harvest", "Granary", "Furrow"),
    ),
    GenrePool(
        label="metropolitan",
        vocab=("alley", "precinct", "warehouse", "tram", "pavement",
               "lamppost", "briefcase", "typewriter", "elevator", "newsroom",
               "subway", "taxicab", "skyline", "tenement", "rooftop",
               "boulevard", "kiosk", "turnstile", "awning", "doorman",
               "lobby", "corridor", "basement", "stairwell"),
        authors=("Viola Krantz", "Emmett Sower", "Lucia Ferraro", "Dashel Moore"),
        title_adjectives=("Midnight", "Paved", "Neon", "Seventh", "Iron"),
        title_nouns=("Precinct", "Boulevard", "Tenement", "Newsroom", "Tramline"),
    ),
    GenrePool(
        label="alpine",
        vocab=("citadel", "rampart", "glacier", "summit", "ridge", "moraine",
               "crag", "plateau", "tundra", "fjord", "cairn", "scree",
               "massif", "couloir", "crevasse", "foothill", "uplands",
               "bedrock", "granite", "boulder", "outcrop", "snowfield",
               "icefall", "switchback"),
        authors=("Greta Olafsen", "Bram Tysoe", "Runa Skarsgard", "Felix Andermatt"),
        title_adjectives=("Frozen", "Uplifted", "Graniteborn", "Hollow", "Highmost"),
        title_nouns=("Citadel", "Glacier", "Summit", "Moraine", "Rampart"),
    ),
)


@dataclass
class GenSpec:
    seed: int = 1207
    books_per_archetype: int = 25
    sigma: float = 0.05
    templates: tuple = DEFAULT_TEMPLATES


@dataclass
class BookTruth:
    book_id: str
    archetype_id: int
    genre: str
    title: str
    author: str
    core: frozenset
    pair: tuple
    noise_names: tuple
    pivot_blocks: tuple
    planted_svs: tuple


@dataclass
class SynthResult:
    documents: list
    texts: dict                      # book_id -> rendered body text
    truth: dict                      # book_id -> BookTruth
    labels: dict                     # book_id -> archetype_id
    spec: GenSpec
    # Pipeline settings the corpus is calibrated for: its block grid,
    # and a merge threshold sitting between the within-archetype noise
    # band and the closest cross-archetype similarity.
    recommended_config: dict = field(default_factory=lambda: {
        "block_size": TOKENS_PER_BLOCK,
        "dt_mode": "fixed",
        "dt": 0.95,
    })


def _tier_words(lexicon: SentimentLexicon) -> dict:
    tiers = {}
    for term, polarity in lexicon.entries.items():
        tenths = round(polarity * 10)
        if abs(polarity * 10 - tenths) < 1e-9:
            tiers.setdefault(tenths, []).append(term)
    for tenths, words in tiers.items():
        words.sort()
        if len(words) < 4:
            raise ValueError(f"lexicon tier {tenths / 10:+.1f} too small to plant from")
    return tiers


def _sentiment_tokens(raw_target: float, tiers: dict, rng: random.Random) -> list:
    """Ten lexicon words whose mean polarity is exactly raw_target.

    raw_target must have at most two decimals. The sum of polarities in
    tenths is split across two adjacent grid tiers.
    """
    total_tenths = round(raw_target * 100)
    base, rem = divmod(total_tenths, 10)
    plan = [base + 1] * rem + [base] * (10 - rem)
    rng.shuffle(plan)
    return [rng.choice(tiers[t]) for t in plan]


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, value))


def _block_targets(template, rng: random.Random, sigma: float):
    """Per-block raw sentiment targets plus the planted pivot values."""
    targets = [BACKGROUND_RAW] * BLOCKS_PER_BOOK
    planted = []
    for block, tpl_value in zip(MAIN_PIVOT_BLOCKS, template.values):
        sv = _clamp(tpl_value + rng.gauss(0.0, sigma), 0.02, 0.98)
        raw = round(2.0 * sv - 1.0, 2)
        targets[block] = raw
        targets[block - 1] = SHOULDER_RAW
        targets[block + 1] = SHOULDER_RAW
        planted.append((raw + 1.0) / 2.0)
    return targets, planted


def _render(blocks) -> str:
    """Sentence-structured text whose token stream round-trips exactly."""
    out_blocks = []
    for words in blocks:
        sentences = []
        for s in range(0, len(words), SENTENCE_LEN):
            chunk = list(words[s:s + SENTENCE_LEN])
            first = chunk[0]
            if first[0].islower():
                chunk[0] = first[0].upper() + first[1:]
            sentences.append(" ".join(chunk) + ".")
        out_blocks.append(" ".join(sentences))
    return "\n".join(out_blocks) + "\n"


def generate(spec: GenSpec | None = None,
             lexicon: SentimentLexicon | None = None) -> SynthResult:
    spec = spec or GenSpec()
    lexicon = lexicon or load_default_lexicon()
    tiers = _tier_words(lexicon)
    fillers = [w for w in FILLER_WORDS if w not in lexicon]
    if len(fillers) < 30:
        raise ValueError("too few non-lexicon filler words")
    for name in NAME_POOL:
        if name.lower() in lexicon:
            raise ValueError(f"character name {name!r} collides with the lexicon")

    documents = []
    texts = {}
    truth = {}
    labels = {}
    n_books = spec.books_per_archetype * len(spec.templates)
    for i in range(n_books):
        template = spec.templates[i // spec.books_per_archetype]
        rng = random.Random(f"{spec.seed}:{i}")
        book_id = f"synth-{i:03d}"

        names = rng.sample(NAME_POOL, 5)
        name_a, name_b, name_c = names[:3]
        noise_names = tuple(names[3:])

        targets, planted = _block_targets(template, rng, spec.sigma)

        blocks = []
        for b in range(BLOCKS_PER_BOOK):
            words = [rng.choice(fillers) for _ in range(TOKENS_PER_BLOCK)]
            for offset, term in zip(LEXICON_OFFSETS,
                                    _sentiment_tokens(targets[b], tiers, rng)):
                words[offset] = term
            if b in MAIN_PIVOT_BLOCKS:
                for offset in MAIN_A_OFFSETS:
                    words[offset] = name_a
                for offset in MAIN_B_OFFSETS:
                    words[offset] = name_b
            elif b in DECOY_BLOCKS:
                for offset in DECOY_A_OFFSETS:
                    words[offset] = name_a
                for offset in DECOY_C_OFFSETS:
                    words[offset] = name_c
            blocks.append(words)
        for noise_name, slots in zip(noise_names, NOISE_SLOTS):
            for block, offset in slots:
                blocks[block][offset] = noise_name

        genre = GENRES[i % len(GENRES)]
        within_genre = i // len(GENRES)
        author = genre.authors[within_genre % len(genre.authors)]
        title = (f"{genre.title_adjectives[within_genre // 5 % 5]} "
                 f"{genre.title_nouns[within_genre % 5]}")
        summary_words = []
        for k in range(40):
            pool = CONNECTORS if k % 4 == 3 else genre.vocab
            summary_words.append(rng.choice(pool))
        summary = (summary_words[0].capitalize() + " "
                   + " ".join(summary_words[1:]) + ".")

        text = _render(blocks)
        doc = BookDocument(
            book_id=book_id,
            title=title,
            author=author,
            tokens=tokenize(text),
            metadata={"genres": [f"{genre.label} fiction"], "summary": summary},
        )
        documents.append(doc)
        texts[book_id] = text
        labels[book_id] = template.archetype_id
        truth[book_id] = BookTruth(
            book_id=book_id,
            archetype_id=template.archetype_id,
            genre=genre.label,
            title=title,
            author=author,
            core=frozenset({name_a, name_b, name_c}),
            pair=tuple(sorted((name_a, name_b))),
            noise_names=noise_names,
            pivot_blocks=MAIN_PIVOT_BLOCKS,
            planted_svs=tuple(planted),
        )
    return SynthResult(documents=documents, texts=texts, truth=truth,
                       labels=labels, spec=spec)


def write_corpus(result: SynthResult, outdir) -> None:
    """Materialize the corpus: book texts, metadata TSV, labels, truth."""
    outdir = Path(outdir)
    books_dir = outdir / "books"
    books_dir.mkdir(parents=True, exist_ok=True)
    for book_id, text in sorted(result.texts.items()):
        (books_dir / f"{book_id}.txt").write_text(text, encoding="utf-8")

    with open(outdir / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["book_id", "label"])
        for book_id in sorted(result.labels):
            writer.writerow([book_id, result.labels[book_id]])

    with open(outdir / "summaries.tsv", "w", encoding="utf-8", newline="") as fh:
        for i, doc in enumerate(result.documents):
            genres = json.dumps({"genre": doc.metadata["genres"][0]})
            row = [doc.book_id, f"fb:{doc.book_id}", doc.title, doc.author,
                   str(1900 + i), genres, doc.metadata["summary"]]
            fh.write("\t".join(row) + "\n")

    payload = {
        "seed": result.spec.seed,
        "sigma": result.spec.sigma,
        "recommended_config": result.recommended_config,
        "books": {
            book_id: {
                "archetype_id": t.archetype_id,
                "genre": t.genre,
                "core": sorted(t.core),
                "pair": list(t.pair),
                "noise_names": list(t.noise_names),
                "pivot_blocks": list(t.pivot_blocks),
                "planted_svs": list(t.planted_svs),
            }
            for book_id, t in sorted(result.truth.items())
        },
    }
    with open(outdir / "groundtruth.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
