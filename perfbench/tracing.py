"""Per-module timing of arcindex, recorded from outside the package.

``Tracer.install`` replaces each public arcindex function, in every
module namespace that imports it from another module, with a wrapper
that times the call. A call's self time is its duration minus the time
of the wrapped calls it made; each module's self time is one layer's
busy time. Calls made within a function's own module stay unwrapped,
because they do not cross a layer boundary. Spans are folded into sums
as they end; only self times, call counts and the few values named in
``HOOKS`` are kept.

Nothing is recorded while ``stage`` is None, so checks run between
timed stages do not count.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
import time
from collections import Counter, defaultdict

SECONDARY = "secondary-pivot"     # arcindex.series.SECONDARY


class Tracer:
    def __init__(self):
        self.stage = None
        self.stack = []                      # child time of each open call
        self.self_s = defaultdict(float)     # (stage, module, function) -> s
        self.calls = Counter()               # (module, function) -> calls
        self.inclusive = defaultdict(list)   # (module, function) -> [s]
        self.counts = Counter()

    def install(self, api) -> None:
        """Wrap every cross-module reference to a public arcindex function."""
        modules = [api] + [importlib.import_module(f"{api.__name__}.{m.name}")
                           for m in pkgutil.iter_modules(api.__path__)]
        wrappers = {}
        for namespace in modules:
            for name, fn in list(vars(namespace).items()):
                if (not inspect.isfunction(fn) or name.startswith("_")
                        or not fn.__module__.startswith(api.__name__ + ".")):
                    continue
                own = fn.__module__ == namespace.__name__
                if own and name not in OWN_MODULE_WRAPS:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, fn.__module__.rsplit(".", 1)[1], name)
                setattr(namespace, name, wrappers[fn])

    def _wrap(self, fn, layer: str, name: str):
        key = (layer, name)
        hook = HOOKS.get(key)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            if self.stage is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[(self.stage, layer, name)] += elapsed - children
                self.calls[key] += 1
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return wrapper

    # -- reading the record -------------------------------------------------

    def layer_self(self, layer=None, stage=None, names=()) -> float:
        return sum(v for (st, ly, nm), v in self.self_s.items()
                   if (stage is None or st == stage) and (layer is None or ly == layer)
                   and (not names or nm in names))

    def metrics(self, stage_seconds: dict, catalogue_bytes: int,
                ingest_counts: dict, untraced_index_s: float) -> dict:
        ls = self.layer_self
        analyze = self.inclusive[("pipeline", "analyze_book")]
        out = {
            "ingest.load_s": (ls("ingest", "ingest"), "s"),
            "ingest.tokens": (ingest_counts["tokens"], "count"),
            "ingest.documents": (ingest_counts["documents"], "count"),
            "pipeline.analyze_book_p50_ms": (statistics.median(analyze) * 1e3, "ms"),
            "pipeline.books_analyzed": (self.calls[("pipeline", "analyze_book")], "count"),
            "characters.busy_s": (ls("characters"), "s"),
            "pivots.busy_s": (ls("pivots"), "s"),
            "pivots.blocks_scored": (self.counts["blocks"], "count"),
            "pivots.pivots": (self.counts["pivots"], "count"),
            "series.busy_s": (ls("series"), "s"),
            "series.align_equal": (self.counts["align_equal"], "count"),
            "series.align_interpolated": (self.counts["align_interpolated"], "count"),
            "series.align_secondary": (self.counts["align_secondary"], "count"),
            "series.align_secondary_fallback": (self.counts["align_secondary_fallback"], "count"),
            "similarity.matrix_s": (ls("similarity"), "s"),
            "similarity.pairs": (self.counts["pairs"] + self.calls[("similarity", "spsi")], "count"),
            "clustering.series_s": (ls("clustering", names=("cluster_series",)), "s"),
            "clustering.series_merges": (self.counts["series_merges"], "count"),
            "clustering.matrix_s": (ls("clustering", names=("cluster_matrix",)), "s"),
            "clustering.matrix_merges": (self.counts["matrix_merges"], "count"),
            "baselines.vectors_s": (ls("baselines", names=("baseline1_vectors", "baseline2_vectors")), "s"),
            "baselines.cosine_s": (ls("baselines", names=("similarity_matrix_from_vectors",)), "s"),
            "catalogue.build_s": (ls("catalogue", names=("build_catalogue",)), "s"),
            "catalogue.save_s": (ls("catalogue", "index", names=("save",)), "s"),
            "catalogue.bytes": (catalogue_bytes, "B"),
            "catalogue.load_s": (ls("catalogue", "load", names=("load",)), "s"),
            "catalogue.search_busy_s": (ls("catalogue", names=("search_similar",)), "s"),
            "catalogue.entries_scored": (self.counts["entries_scored"], "count"),
            "catalogue.nearest_cluster_s": (sum(self.inclusive[("catalogue", "nearest_cluster")]), "s"),
        }
        for stage in ("ingest", "index", "eval"):
            out[f"trace.{stage}_s"] = (stage_seconds[stage], "s")
        for stage in ("index", "eval"):
            out[f"trace.{stage}_layer_pct"] = (100.0 * ls(stage=stage) / stage_seconds[stage], "%")
        out["trace.overhead_pct"] = (
            100.0 * (stage_seconds["index"] / untraced_index_s - 1.0), "%")
        return out


def _align_route(tracer, args, kwargs, result, elapsed) -> None:
    s1, s2 = args[0], args[1]
    ratio_limit = args[2] if len(args) > 2 else kwargs.get("ratio_limit", 0.3)
    if len(s1) == len(s2):
        tracer.counts["align_equal"] += 1
        return
    shorter, grown = (s1, result[0]) if len(s1) < len(s2) else (s2, result[1])
    longer = max(len(s1), len(s2))
    if _secondary(grown) > _secondary(shorter):
        tracer.counts["align_secondary"] += 1
    elif (longer - len(shorter)) / longer > ratio_limit:
        tracer.counts["align_secondary_fallback"] += 1
    else:
        tracer.counts["align_interpolated"] += 1


def _secondary(series) -> int:
    return sum(p.provenance == SECONDARY for p in series.points)


def _record_inclusive(key):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.inclusive[key].append(elapsed)
    return hook


def _count(name, measure):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.counts[name] += measure(args, kwargs, result)
    return hook


def _entries_scored(args, kwargs, result):
    catalogue, query = args[0], args[1]
    include_self = args[3] if len(args) > 3 else kwargs.get("include_self", False)
    skip = isinstance(query, str) and not include_self
    return len(catalogue.entries) - (1 if skip else 0)


# Functions wrapped in their own module too, because they carry a metric.
OWN_MODULE_WRAPS = {"analyze_book"}

HOOKS = {
    ("series", "align_lengths"): _align_route,
    ("pipeline", "analyze_book"): _record_inclusive(("pipeline", "analyze_book")),
    ("catalogue", "nearest_cluster"): _record_inclusive(("catalogue", "nearest_cluster")),
    ("pivots", "block_sentiments"): _count("blocks", lambda a, kw, r: len(r)),
    ("pivots", "predominant_pair"): _count("pivots", lambda a, kw, r: len(r[1])),
    ("similarity", "spsi_matrix"): _count("pairs", lambda a, kw, r: len(r) * (len(r) - 1) // 2),
    ("clustering", "cluster_series"): _count("series_merges", lambda a, kw, r: len(r[2])),
    ("clustering", "cluster_matrix"): _count("matrix_merges", lambda a, kw, r: len(r[1])),
    ("catalogue", "search_similar"): _count("entries_scored", _entries_scored),
}
