"""The measured process: whole rounds of one workload, timed and checked.

    python3 perfbench/worker.py --inputs DIR --workdir DIR --seconds S --trace 0|1

A round reads the corpus, then takes each collection (the one library,
or every shelf) in turn: index it, serve it, evaluate it. Serving loads the saved catalogue repeatedly, then answers a
like query for every book and every pattern query, one at a time; the
first serving of a round starts with a warm-up. Rounds repeat until
--seconds have passed, so every run attempts whole rounds of the same
operations. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import arcindex as api  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

LOAD_REPS = 15
PATTERN_K = 10
WARMUP_LIKE = 5
WARMUP_PATTERN = 2
OP_TYPES = ("ingest", "index", "eval", "load", "like", "pattern")


class Collection:
    """One indexed collection and what its checks need from index time."""

    def __init__(self, members, like_k, patterns, path, result):
        self.members = members
        self.like_k = like_k
        self.patterns = patterns
        self.path = path
        self.matrix = result.matrix
        self.matrix_index = {b: i for i, b in enumerate(result.matrix.book_ids)}
        self.series = {a.book_id: a.series for a in result.analyses}
        self.routes = {}
        self.catalogue = None


class Run:
    def __init__(self, inputs: Path, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = None
        self.spec = json.loads((inputs / "workload.json").read_text(encoding="utf-8"))
        self.cfg = api.PipelineConfig(**self.spec["config"]).validate()
        self.lexicon = api.load_default_lexicon()
        self.truth = self.spec["truth"]
        self.archetype = {b: t["archetype"] for b, t in self.truth.items()}
        self.ops = {op: [0, 0] for op in OP_TYPES}
        self.counting = True
        self.stage_s = defaultdict(list)
        self.load_ms = defaultdict(list)     # collection -> [ms]
        self.like_ms = []
        self.pattern_ms = []
        self.catalogue_bytes = 0
        self.ingest_counts = {}

    def _timed(self, stage, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.stage = stage
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.stage = None

    def _op(self, op, failed=False):
        if self.counting:
            self.ops[op][0] += 1
            self.ops[op][1] += int(failed)

    # -- stages ---------------------------------------------------------------

    def ingest(self):
        gc.collect()
        if self.spec["workload"] == "library":
            (docs, aliases), elapsed = self._timed(
                "ingest", api.load_corpus_dir, self.inputs / self.spec["corpus"])
        else:
            docs, elapsed = self._timed("ingest", api.load_store,
                                        self.inputs / self.spec["store"])
            aliases = None
        self._op("ingest")
        by_id = {d.book_id: d for d in docs}
        if by_id.keys() != self.truth.keys():
            raise checks.CheckFailed("ingest returned another set of books")
        self.ingest_counts = {"documents": len(docs),
                              "tokens": sum(d.token_count for d in docs)}
        return by_id, aliases, elapsed

    def index(self, i, docs, aliases):
        """build_from_documents and save for collection i, then its checks."""
        members = self.spec["collections"][i]
        path = self.workdir / f"catalogue-{i}.json"
        result, t_build = self._timed("index", api.build_from_documents, docs, self.cfg,
                                      lexicon=self.lexicon, aliases=aliases)
        _, t_save = self._timed("index", api.save, result.catalogue, path)
        self._op("index")
        if result.failures:
            raise checks.CheckFailed(f"books failed analysis: {result.failures[:3]}")
        checks.check_analyses(result.analyses, self.truth)
        coll = Collection(members, self.spec["like_k"][i], self.spec["patterns"][i],
                          path, result)
        checks.check_matrix(result.matrix, coll.series, seed=f"{self.spec['seed']}:{i}")
        checks.check_round_trip(api, result.catalogue, path, self.workdir / "resave.json")
        return coll, t_build + t_save

    def evaluate(self, docs, members, aliases):
        labels = {b: self.archetype[b] for b in members}
        report, elapsed = self._timed("eval", api.evaluate, docs, labels, self.cfg,
                                      lexicon=self.lexicon, aliases=aliases)
        self._op("eval")
        checks.check_purity(report)
        return elapsed

    def serve(self, i, coll, warm_up):
        """Load the catalogue LOAD_REPS times, then answer every query once.

        Like and pattern queries interleave, so both meet the same
        machine conditions.
        """
        for _ in range(LOAD_REPS):
            coll.catalogue, elapsed = self._timed("load", api.load, coll.path)
            self.load_ms[i].append(elapsed * 1e3)
            self._op("load")
        if warm_up:
            self.counting, tracer, self.tracer = False, self.tracer, None
            for query in coll.members[:WARMUP_LIKE]:
                self.like(coll, query, record=False)
            for pattern in coll.patterns[:WARMUP_PATTERN]:
                self.pattern(coll, pattern, record=False)
            self.counting, self.tracer = True, tracer
        likes, patterns = coll.members, coll.patterns
        order = sorted([(j / len(likes), 0, j) for j in range(len(likes))]
                       + [((j + 0.5) / len(patterns), 1, j) for j in range(len(patterns))])
        for _, kind, j in order:
            if kind == 0:
                self.like(coll, likes[j])
            else:
                self.pattern(coll, patterns[j])

    def like(self, coll, query, record=True):
        results, elapsed = self._timed("search", api.search_similar, coll.catalogue, query,
                                       k=coll.like_k)
        if not record:
            return
        self.like_ms.append(elapsed * 1e3)
        bad = checks.like_mismatches(api, results, query, coll.matrix_index, coll.matrix,
                                     coll.series, self.cfg.length_ratio_limit, coll.routes)
        checks.check_like(results, query, coll.like_k, len(coll.members), self.archetype,
                          first_same=not bad)
        self._op("like", failed=bad > 0)

    def pattern(self, coll, pattern, record=True):
        series = api.SentimentSeries(book_id="pattern", points=[
            api.SeriesPoint(pos, value)
            for pos, value in zip(pattern["positions"], pattern["values"])])

        def query():
            return (api.search_similar(coll.catalogue, series, k=PATTERN_K),
                    api.nearest_cluster(coll.catalogue, series))

        (results, (cluster_id, _)), elapsed = self._timed("search", query)
        if not record:
            return
        self.pattern_ms.append(elapsed * 1e3)
        checks.check_pattern(results, coll.catalogue.cluster(cluster_id).members,
                             pattern, coll.members, self.truth)
        self._op("pattern")

    # -- rounds -----------------------------------------------------------------

    def round(self):
        """Ingest, then index, serve and evaluate each collection in turn.

        Taking the collections one after another spreads the samples of
        the index, eval and serving metrics over the whole round, so a
        slow stretch of the machine weighs on all of them alike instead
        of on one stage.
        """
        by_id, aliases, t_ingest = self.ingest()
        gc.collect()
        t_index = t_eval = 0.0
        self.catalogue_bytes = 0
        for i, members in enumerate(self.spec["collections"]):
            docs = [by_id[b] for b in members]
            coll, elapsed = self.index(i, docs, aliases)
            t_index += elapsed
            self.catalogue_bytes += coll.path.stat().st_size
            self.serve(i, coll, warm_up=i == 0)
            t_eval += self.evaluate(docs, members, aliases)
        for stage, seconds in (("ingest", t_ingest), ("index", t_index), ("eval", t_eval)):
            self.stage_s[stage].append(seconds)

    def untraced_index(self) -> float:
        """Index time with tracing off, the base of the tracing overhead."""
        self.counting = False
        by_id, aliases, _ = self.ingest()
        gc.collect()
        total = sum(self.index(i, [by_id[b] for b in members], aliases)[1]
                    for i, members in enumerate(self.spec["collections"]))
        self.counting = True
        return total

    def end_to_end(self) -> dict:
        median = statistics.median
        return {
            "ingest_s": (median(self.stage_s["ingest"]), "s"),
            "index_s": (median(self.stage_s["index"]), "s"),
            "eval_s": (median(self.stage_s["eval"]), "s"),
            "catalogue_load_ms": (sum(median(v) for v in self.load_ms.values()), "ms"),
            "like_p50_ms": (percentile(self.like_ms, 50), "ms"),
            "like_p90_ms": (percentile(self.like_ms, 90), "ms"),
            "pattern_p50_ms": (percentile(self.pattern_ms, 50), "ms"),
            "pattern_p90_ms": (percentile(self.pattern_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    run = Run(args.inputs, args.workdir)
    out = {"correct": True}
    try:
        checks.check_closed_form(api)
        if tracer is not None:
            untraced_index_s = run.untraced_index()
            tracer.install(api)
            run.tracer = tracer
        start = time.perf_counter()
        while True:
            run.round()
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is not None:
            # Layer sums cover every round, so the stage times do too.
            stage_seconds = {s: sum(v) for s, v in run.stage_s.items()}
            metrics = tracer.metrics(stage_seconds, run.catalogue_bytes,
                                     run.ingest_counts,
                                     untraced_index_s * len(run.stage_s["index"]))
        else:
            metrics = run.end_to_end()
        out["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        out["rounds"] = len(run.stage_s["ingest"])
        out["queries"] = {"like": len(run.like_ms), "pattern": len(run.pattern_ms)}
    except checks.CheckFailed as exc:
        traceback.print_exc()
        out = {"correct": False, "reason": str(exc), "metrics": {}}
    out["ops"] = run.ops
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
