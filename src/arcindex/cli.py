"""Command-line surface for the arcindex pipeline.

Every subcommand reads the same flat key=value config file, applies
``--set key=value`` overrides on top, prints a short human summary to
stdout and, with ``--json``, a machine-readable document instead.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import baseline1_vectors, baseline2_vectors
from .catalogue import load as load_catalogue
from .catalogue import nearest_cluster, save as save_catalogue, search_similar
from .clustering import cluster_matrix, cluster_report, resolve_threshold
from .config import PipelineConfig, format_config, load_config, parse_config_text
from .errors import ArcIndexError, ConfigError
from .ingest import load_cmu_summaries, load_plain_text, load_store, save_store
from .pipeline import (_load_corpus_dir, _progression, analyze_corpus, build_from_documents,
                       evaluate, load_labels)
from .series import align_lengths, export_series_csv, read_series_csv
from .similarity import read_matrix_csv, spsi_breakdown, spsi_matrix, write_matrix_csv
from .synth import DEFAULT_TEMPLATES, GenSpec, generate, write_corpus

__all__ = ["main", "entry_point"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so codes stay ours."""

    def error(self, message):
        raise UsageError(message)


def _common_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides", default=argparse.SUPPRESS,
                        help="override one config key (repeatable)")
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit machine-readable JSON instead of a summary")
    parser.add_argument("--print-config", action="store_true",
                        default=argparse.SUPPRESS,
                        help="print the effective config and exit")


def build_parser() -> _Parser:
    parser = _Parser(prog="arcindex",
                     description="Index and search narrative sentiment progressions.")
    _common_flags(parser)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text, add_help=True)
        _common_flags(p)
        return p

    p = command("ingest", "normalize a corpus into a document store")
    p.add_argument("input", help="corpus dir, summary TSV, text file, or store")
    p.add_argument("-o", "--output", metavar="PATH", help="store file to write")

    p = command("characters", "mine character profiles and core sets")
    p.add_argument("input")
    p.add_argument("--book", metavar="ID", help="restrict to one book")

    p = command("pivots", "detect pivot points for the predominant pair")
    p.add_argument("input")
    p.add_argument("--book", metavar="ID")

    p = command("series", "build sentiment progression series")
    p.add_argument("input")
    p.add_argument("--book", metavar="ID")
    p.add_argument("-o", "--output", metavar="DIR",
                   help="write one CSV per book into this directory")

    p = command("spsi", "score series similarity (pair or whole corpus)")
    p.add_argument("input", nargs="?", help="corpus/store for an all-pairs matrix")
    p.add_argument("--series-a", metavar="CSV")
    p.add_argument("--series-b", metavar="CSV")
    p.add_argument("-o", "--output", metavar="CSV", help="matrix output path")

    p = command("cluster", "agglomerate series or a precomputed matrix")
    p.add_argument("input", nargs="?", help="corpus/store to cluster")
    p.add_argument("--matrix", metavar="CSV", help="precomputed similarity matrix")

    p = command("index", "build and save a searchable catalogue")
    p.add_argument("input")
    p.add_argument("-o", "--output", metavar="PATH", required=True)

    p = command("search", "query a catalogue by book or by series CSV")
    p.add_argument("--catalogue", metavar="PATH", required=True)
    p.add_argument("--like", metavar="BOOK_ID")
    p.add_argument("--pattern", metavar="CSV")
    p.add_argument("-k", type=int, default=5, metavar="N")

    p = command("eval", "cluster a labeled corpus and report agreement")
    p.add_argument("input")
    p.add_argument("--labels", metavar="CSV", required=True)
    p.add_argument("--baselines", action="store_true",
                   help="also score the two lexical baselines")

    p = command("synth", "generate a synthetic corpus with ground truth")
    p.add_argument("-o", "--output", metavar="DIR", required=True)
    p.add_argument("--seed", type=int, default=GenSpec.seed, metavar="S",
                   help="generator seed")
    p.add_argument("--per-archetype", type=int, default=25, metavar="N")
    p.add_argument("--archetypes", type=int, default=len(DEFAULT_TEMPLATES),
                   metavar="M", help="use the first M archetype templates")

    return parser


def _resolve_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = getattr(args, "overrides", [])
    if overrides:
        for item in overrides:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        cfg = parse_config_text("\n".join(overrides), base=cfg)
    return cfg.validate()


def _load_input(path_str: str):
    """Resolve a corpus argument to (documents, aliases, skipped TSV rows)."""
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"input not found: {path}")
    if path.is_dir():
        return _load_corpus_dir(path)
    if path.suffix == ".json":
        return load_store(path), None, 0
    if path.suffix == ".tsv":
        docs, skipped = load_cmu_summaries(path)
        return docs, None, skipped
    return [load_plain_text(path, book_id=path.stem)], None, 0


def _emit(args, payload: dict, human_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _analyse_input(args, cfg):
    """Analyses of the input's books, or of ``--book`` alone where given."""
    docs, aliases, _ = _load_input(args.input)
    book = getattr(args, "book", None)
    if book is not None:
        docs = [d for d in docs if d.book_id == book]
        if not docs:
            raise ArcIndexError(f"book {book!r} not in the input")
    return analyze_corpus(docs, cfg, aliases=aliases)[0]


def _cmd_ingest(args, cfg):
    docs, _aliases, skipped = _load_input(args.input)
    if args.output:
        save_store(docs, args.output)
    payload = {
        "documents": len(docs),
        "tokens": sum(d.token_count for d in docs),
        "skipped": skipped,
        "store": args.output,
    }
    lines = [f"ingested {len(docs)} document(s), {payload['tokens']} tokens"
             + (f", skipped {skipped} malformed row(s)" if skipped else "")]
    if args.output:
        lines.append(f"store written to {args.output}")
    _emit(args, payload, lines)
    return 0


def _cmd_characters(args, cfg):
    payload = {}
    lines = []
    for a in _analyse_input(args, cfg):
        payload[a.book_id] = {"core": a.core, "pair": list(a.pair)}
        lines.append(f"{a.book_id}: core={{{', '.join(a.core)}}} "
                     f"pair=({a.pair[0]}, {a.pair[1]})")
    _emit(args, payload, lines)
    return 0


def _cmd_pivots(args, cfg):
    payload = {}
    lines = []
    for a in _analyse_input(args, cfg):
        payload[a.book_id] = {
            "pair": list(a.pair),
            "pivots": [
                {"block": p.block_index, "position": p.position, "sv": p.sv,
                 "weight": p.occurrence_weight}
                for p in a.pivots
            ],
        }
        lines.append(f"{a.book_id}: {len(a.pivots)} pivot(s) for "
                     f"({a.pair[0]}, {a.pair[1]}) at blocks "
                     + ", ".join(str(p.block_index) for p in a.pivots))
    _emit(args, payload, lines)
    return 0


def _cmd_series(args, cfg):
    analyses = _analyse_input(args, cfg)
    payload = {a.book_id: [[p.position, p.value] for p in a.series.points] for a in analyses}
    lines = [f"{a.book_id}: {len(a.series)} point(s)" for a in analyses]
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for a in analyses:
            export_series_csv(a.series, out_dir / f"{a.book_id}.csv")
        lines.append(f"series CSVs written to {out_dir}")
    _emit(args, payload, lines)
    return 0


def _cmd_spsi(args, cfg):
    if args.series_a or args.series_b:
        if not (args.series_a and args.series_b):
            raise UsageError("--series-a and --series-b go together")
        a, b = align_lengths(read_series_csv(args.series_a),
                             read_series_csv(args.series_b), cfg.length_ratio_limit)
        br = spsi_breakdown(a.values(), b.values())
        payload = {
            "spsi": br.spsi, "ps": br.ps, "sd": br.sd,
            "rs": br.rs, "cf": br.cf, "n": br.n,
        }
        lines = [
            f"spsi = {br.spsi:.6f}",
            f"probable sentiment = {br.ps:.6f}",
            f"sentiment distance = {br.sd:.6f}",
            "rs = " + " ".join(f"{v:.4f}" for v in br.rs),
            "cf = " + " ".join(f"{v:.4f}" for v in br.cf),
            "n  = " + " ".join(f"{v:.4f}" for v in br.n),
        ]
        _emit(args, payload, lines)
        return 0
    if not args.input:
        raise UsageError("spsi needs an input corpus or --series-a/--series-b")
    analyses = _analyse_input(args, cfg)
    matrix = spsi_matrix([a.series for a in analyses], cfg.length_ratio_limit)
    if args.output:
        write_matrix_csv(matrix, args.output)
    payload = {"book_ids": matrix.book_ids, "values": matrix.values,
               "output": args.output}
    lines = [f"{len(matrix.book_ids)}x{len(matrix.book_ids)} similarity matrix"]
    if args.output:
        lines.append(f"matrix written to {args.output}")
    _emit(args, payload, lines)
    return 0


def _format_partition(partition) -> str:
    groups = sorted((sorted(map(str, members)) for members in partition),
                    key=lambda g: g[0])
    return ", ".join("{" + ", ".join(g) + "}" for g in groups)


def _cmd_cluster(args, cfg):
    if args.matrix:
        matrix = read_matrix_csv(args.matrix)
        dt = resolve_threshold(matrix, cfg)
        partition, trace = cluster_matrix(matrix, dt)
        payload = {
            "dynamic_threshold": dt,
            "partition": [sorted(map(str, m)) for m in partition],
            "trace": [[a, b, sim] for a, b, sim in trace],
        }
        lines = [f"threshold = {dt:.6f}",
                 f"partition: {_format_partition(partition)}"]
        _emit(args, payload, lines)
        return 0

    if not args.input:
        raise UsageError("cluster needs an input corpus or --matrix")
    docs, aliases, _ = _load_input(args.input)
    result = build_from_documents(docs, cfg, aliases=aliases)
    clusters = result.clusters
    payload = cluster_report(clusters, result.dynamic_threshold, result.merge_trace)
    lines = [f"threshold = {result.dynamic_threshold:.6f}",
             "partition: " + _format_partition([c.members for c in clusters])]
    _emit(args, payload, lines)
    return 0


def _cmd_index(args, cfg):
    docs, aliases, _ = _load_input(args.input)
    result = build_from_documents(docs, cfg, aliases=aliases)
    save_catalogue(result.catalogue, args.output)
    payload = {
        "books": len(result.catalogue.entries),
        "clusters": len(result.catalogue.clusters),
        "dynamic_threshold": result.dynamic_threshold,
        "catalogue": args.output,
    }
    lines = [f"indexed {payload['books']} book(s) into "
             f"{payload['clusters']} cluster(s)",
             f"catalogue written to {args.output}"]
    _emit(args, payload, lines)
    return 0


def _cmd_search(args, cfg):
    if bool(args.like) == bool(args.pattern):
        raise UsageError("search needs exactly one of --like or --pattern")
    if args.k < 1:
        raise ArcIndexError(f"-k must be at least 1, got {args.k}")
    catalogue = load_catalogue(args.catalogue)
    payload = {"results": []}
    lines = []
    if args.like:
        results = search_similar(catalogue, args.like, k=args.k)
    else:
        series = read_series_csv(args.pattern)
        results = search_similar(catalogue, series, k=args.k)
        cid, sim = nearest_cluster(catalogue, series)
        payload["nearest_cluster"] = {"cluster_id": cid, "spsi": sim}
        lines.append(f"nearest cluster: {cid} (spsi {sim:.6f})")
    for rank, (book_id, score) in enumerate(results, start=1):
        title = catalogue.entry(book_id).title
        payload["results"].append(
            {"rank": rank, "book_id": book_id, "title": title, "spsi": score})
        lines.append(f"{rank}. {title} [{book_id}] spsi={score:.6f}")
    if not results:
        lines.append("no results")
    _emit(args, payload, lines)
    return 0


def _cmd_eval(args, cfg):
    docs, aliases, _ = _load_input(args.input)
    labels = load_labels(args.labels)
    if args.baselines:
        report = evaluate(docs, labels, cfg, aliases=aliases)
        payload = report.to_dict()
        margins = report.purity_margins()
        lines = [
            f"progression: purity {report.progression.purity:.4f}, "
            f"pairwise {report.progression.pairwise_agreement:.4f}",
            f"metadata baseline: purity {report.metadata_baseline.purity:.4f}",
            f"summary baseline: purity {report.summary_baseline.purity:.4f}",
            f"purity margin over metadata baseline: {margins['over_metadata']:+.4f}",
            f"purity margin over summary baseline: {margins['over_summary']:+.4f}",
        ]
        _emit(args, payload, lines)
        return 0
    report = _progression(docs, labels, cfg, aliases=aliases)[0]
    payload = report.to_dict()
    lines = [f"progression: purity {report.purity:.4f}, "
             f"pairwise {report.pairwise_agreement:.4f}"]
    _emit(args, payload, lines)
    return 0


def _cmd_synth(args, cfg):
    templates = DEFAULT_TEMPLATES[:args.archetypes]
    if not templates:
        raise UsageError("--archetypes must be at least 1")
    spec = GenSpec(seed=args.seed,
                   books_per_archetype=args.per_archetype,
                   templates=templates)
    result = generate(spec)
    write_corpus(result, args.output)
    payload = {
        "books": len(result.documents),
        "archetypes": len(templates),
        "seed": spec.seed,
        "output": args.output,
        "recommended_config": result.recommended_config,
    }
    rec = " ".join(f"{k}={v}" for k, v in
                   sorted(result.recommended_config.items()))
    lines = [f"generated {payload['books']} book(s) across "
             f"{payload['archetypes']} archetype(s) with seed {spec.seed}",
             f"corpus written to {args.output}",
             f"recommended settings: {rec}"]
    _emit(args, payload, lines)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "characters": _cmd_characters,
    "pivots": _cmd_pivots,
    "series": _cmd_series,
    "spsi": _cmd_spsi,
    "cluster": _cmd_cluster,
    "index": _cmd_index,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        if getattr(args, "print_config", False):
            sys.stdout.write(format_config(cfg))
            return 0
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ArcIndexError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
