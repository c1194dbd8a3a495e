"""Benchmark inputs, made from a seed and cached on disk.

Each workload draws its inputs from a fixed universe of synthetic books,
generated once per checkout with arcindex.synth and cached under
.perfbench_cache/. The seed chooses which books a run reads, the
shelves, and the search patterns. Generation is slower than most of the
workload (tokenizing every book, then a pure-Python JSON encode for the
store), so doing it once keeps it out of every run.

    python3 perfbench/inputs.py universe WORKLOAD OUTDIR [--toy]

generates one universe; run.py calls it in a child process, so the
generator's memory never counts towards a run's peak RSS. Nothing here
is ever timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
KEEP_PER_WORKLOAD = 4

# Workload sizes. The toy size serves the self-test only.
SIZES = {
    "library": {"universe_per_archetype": 100, "books_per_archetype": 60,
                "patterns_per_archetype": 30},
    # Books and patterns per shelf by series length. Like and pattern
    # latency rise from 9- to 7- to 12- and 5-point queries; these
    # shares put the median (24% + 36%) and the 90th percentile inside
    # one length's latencies instead of on the step between two.
    "shelves": {"books_per_template": 14, "shelves": 20,
                "books": {12: 10, 9: 12, 7: 18, 5: 10},
                "patterns": {12: 2, 9: 2, 7: 3, 5: 1}},
}
TOY_SIZES = {"library": {"universe_per_archetype": 3, "books_per_archetype": 3,
                         "patterns_per_archetype": 2}}

# The generator plants pivot k of a book at block 3 + 4k of 75, so a
# planted series has these narrative positions.
PIVOT_POSITIONS = tuple((3 + 4 * k) / 74 for k in range(12))

# Shelf templates shorter than 12 points are contiguous windows of the
# archetype templates: archetype id -> {length: first index kept}.
# Each window ends on a value of at least 0.35. A window ending below
# 0.15 makes the pipeline find one more pivot in the flat background
# after the planted ones (the main pair still meets in all 12 pivot
# regions), so the analysed series would no longer equal the planted
# one. middle-peak and spikes keep their first points, late-surprise
# its last (with the climax). early-high has a 9-point window only:
# every 7- or 5-point window of it that ends high enough is a plain
# rise, which clusters with middle-peak and late-surprise windows.
# With these, no cross-archetype pair of noise-free books scores above
# 0.919 SPSI, under the 0.95 merge threshold.
WINDOWS = {
    1: {9: 0, 7: 0, 5: 0},
    2: {9: 3, 7: 5, 5: 7},
    3: {9: 0, 7: 0, 5: 0},
    4: {9: 2},
}
SHELF_LENGTHS = (12, 9, 7, 5)
PATTERN_SIGMA = 0.05


def shelf_templates(api) -> tuple:
    templates = []
    for length in SHELF_LENGTHS:
        for t in api.DEFAULT_TEMPLATES:
            if length == len(t.values):
                start = 0
            elif length in WINDOWS[t.archetype_id]:
                start = WINDOWS[t.archetype_id][length]
            else:
                continue
            templates.append(api.ArcTemplate(
                archetype_id=t.archetype_id, name=f"{t.name}-{length}",
                description=t.description, values=t.values[start:start + length]))
    return tuple(templates)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- the universe: generated once ----------------------------------------------

def generate_universe(workload: str, outdir, toy: bool = False) -> None:
    """Every book a workload can draw, with its planted truth."""
    sys.path.insert(0, str(SRC))
    import arcindex as api

    outdir = Path(outdir)
    size = (TOY_SIZES if toy else SIZES)[workload]
    if workload == "library":
        templates = api.DEFAULT_TEMPLATES
        per_template = size["universe_per_archetype"]
    else:
        templates = shelf_templates(api)
        per_template = size["books_per_template"]
    result = api.generate(api.GenSpec(books_per_archetype=per_template,
                                      templates=templates))
    if workload == "library":
        api.write_corpus(result, outdir / "corpus")
    else:
        api.save_store(result.documents, outdir / "store.json")
    truth = {}
    for i, doc in enumerate(result.documents):
        t = result.truth[doc.book_id]
        truth[doc.book_id] = {"archetype": t.archetype_id, "core": sorted(t.core),
                              "pair": list(t.pair), "planted_svs": list(t.planted_svs),
                              "template": list(templates[i // per_template].values)}
    _write_json(outdir / "universe.json", {"config": result.recommended_config,
                                           "truth": truth})


# -- one seed's inputs: drawn from the universe --------------------------------

def _pattern(rng: random.Random, book_truth: dict) -> dict:
    values = book_truth["template"]
    noisy = [min(0.98, max(0.02, v + rng.gauss(0.0, PATTERN_SIGMA))) for v in values]
    return {"archetype": book_truth["archetype"], "values": noisy,
            "positions": list(PIVOT_POSITIONS[:len(values)])}


def _by_template(truth: dict) -> list:
    groups = {}
    for book_id in sorted(truth):
        groups.setdefault(tuple(truth[book_id]["template"]), []).append(book_id)
    return list(groups.values())


def _draw_library(rng, universe: Path, outdir: Path, truth: dict, size: dict) -> dict:
    groups = _by_template(truth)
    chosen = sorted(b for group in groups
                    for b in rng.sample(group, size["books_per_archetype"]))
    books = outdir / "corpus" / "books"
    books.mkdir(parents=True)
    for book_id in chosen:
        shutil.copyfile(universe / "corpus" / "books" / f"{book_id}.txt",
                        books / f"{book_id}.txt")
    keep = set(chosen)
    with open(universe / "corpus" / "summaries.tsv", encoding="utf-8") as src, \
            open(outdir / "corpus" / "summaries.tsv", "w", encoding="utf-8") as dst:
        dst.writelines(line for line in src if line.split("\t", 1)[0] in keep)
    patterns = [_pattern(rng, truth[group[0]]) for group in groups
                for _ in range(size["patterns_per_archetype"])]
    return {"corpus": "corpus", "books": chosen, "collections": [chosen],
            "like_k": [10], "patterns": [patterns]}


def _draw_shelves(rng, universe: Path, truth: dict, size: dict) -> dict:
    """Shelves of one make-up: the same number of books of each template.

    The books themselves are drawn at random, so shelves overlap. Fixing
    the make-up keeps the work of a shelf, such as its mix of alignment
    routes, the same from seed to seed. Where a length's books do not
    split evenly over its templates, the templates that get one more
    rotate from shelf to shelf. A shelf's patterns are noisy arcs of
    books on that shelf.
    """
    by_length = {}
    for group in _by_template(truth):
        by_length.setdefault(len(truth[group[0]]["template"]), []).append(group)
    shelves, patterns = [], []
    for s in range(size["shelves"]):
        shelf = []
        for length, count in size["books"].items():
            groups = by_length[length]
            base, extra = divmod(count, len(groups))
            more = {(s * extra + j) % len(groups) for j in range(extra)}
            for t, group in enumerate(groups):
                shelf += rng.sample(group, base + (t in more))
        shelf.sort()
        shelves.append(shelf)
        patterns.append([
            _pattern(rng, truth[b])
            for length, count in size["patterns"].items()
            for b in rng.sample([b for b in shelf if len(truth[b]["template"]) == length],
                                count)])
    return {"store": f"../{universe.name}/store.json", "books": sorted(truth),
            "collections": shelves,
            "like_k": [len(s) for s in shelves], "patterns": patterns}


def draw_inputs(workload: str, seed: int, universe: Path, outdir: Path,
                toy: bool = False) -> None:
    """Write workload.json (paths in it are relative to its directory)."""
    size = (TOY_SIZES if toy else SIZES)[workload]
    meta = _read_json(universe / "universe.json")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "library":
        drawn = _draw_library(rng, universe, outdir, meta["truth"], size)
    else:
        drawn = _draw_shelves(rng, universe, meta["truth"], size)
    _write_json(outdir / "workload.json", {
        "workload": workload, "seed": seed, "config": meta["config"],
        "truth": {b: meta["truth"][b] for b in drawn.pop("books")}, **drawn})


# -- the cache -------------------------------------------------------------------

def _fingerprint(*parts) -> str:
    """Hash of everything that determines a set of inputs."""
    h = hashlib.sha256(repr(parts).encode())
    for path in (BENCH_DIR / "inputs.py", SRC / "arcindex" / "synth.py",
                 SRC / "arcindex" / "ingest.py",
                 SRC / "arcindex" / "data" / "default_lexicon.tsv"):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cached(key: str, make) -> Path:
    """CACHE/key, made by make(tmpdir) unless it already exists."""
    target = CACHE / key
    if (target / "done").is_file():
        os.utime(target)
        return target
    tmp = CACHE / f"tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        make(tmp)
        (tmp / "done").touch()
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def ensure_inputs(workload: str, seed: int, toy: bool = False) -> Path:
    """The cached input directory for (workload, seed), made if absent."""
    tag = "-toy" if toy else ""
    universe = _cached(
        f"universe-{workload}{tag}-{_fingerprint(workload, toy)}",
        lambda tmp: subprocess.run(
            [sys.executable, str(BENCH_DIR / "inputs.py"), "universe", workload, str(tmp)]
            + (["--toy"] if toy else []), check=True))
    inputs = _cached(f"{workload}-{seed}{tag}-{_fingerprint(workload, seed, toy)}",
                     lambda tmp: draw_inputs(workload, seed, universe, tmp, toy))
    _prune(workload, universe)
    return inputs


def _prune(workload: str, universe: Path) -> None:
    """Drop other universes and all but the latest per-seed inputs of a workload."""
    kind = universe.name.rsplit("-", 1)[0]       # universe-WORKLOAD[-toy]
    for stale in CACHE.glob(f"{kind}-*"):
        if stale.name.rsplit("-", 1)[0] == kind and stale != universe:
            shutil.rmtree(stale, ignore_errors=True)
    entries = sorted((p for p in CACHE.glob(f"{workload}-*") if p.is_dir()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[KEEP_PER_WORKLOAD:]:
        shutil.rmtree(stale, ignore_errors=True)


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--toy"]
    if len(args) != 3 or args[0] != "universe":
        sys.exit("usage: inputs.py universe WORKLOAD OUTDIR [--toy]")
    generate_universe(args[1], args[2], toy="--toy" in sys.argv)
