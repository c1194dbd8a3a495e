"""Self-test of the benchmark's correctness checks, at toy size (a few seconds).

    python3 perfbench/selftest.py

Runs arcindex on the toy library inputs, shows that every check passes
on the real outputs, and that each one rejects a deliberately wrong
output: a perturbed score, a swapped label or a corrupted catalogue
byte. Exits 1 on the first check that lets a wrong output through.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import inputs

sys.path.insert(0, str(inputs.SRC))

import arcindex as api  # noqa: E402

import checks  # noqa: E402


def expect_pass(name, fn, *args):
    fn(*args)
    print(f"  pass    {name}")


def expect_reject(name, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"  reject  {name}: {exc}")
        return
    sys.exit(f"selftest: {name} was not rejected")


def other_archetype(truth, book_id):
    return next(b for b, t in sorted(truth.items())
                if t["archetype"] != truth[book_id]["archetype"])


def swapped(truth, a, b):
    """Truth with the archetype labels of books a and b exchanged."""
    out = copy.deepcopy(truth)
    out[a]["archetype"], out[b]["archetype"] = truth[b]["archetype"], truth[a]["archetype"]
    return out


def main() -> int:
    input_dir = inputs.ensure_inputs("library", 1, toy=True)
    spec = json.loads((input_dir / "workload.json").read_text())
    truth = spec["truth"]
    archetype = {b: t["archetype"] for b, t in truth.items()}
    cfg = api.PipelineConfig(**spec["config"]).validate()
    docs, aliases = api.load_corpus_dir(input_dir / spec["corpus"])
    result = api.build_from_documents(docs, cfg, aliases=aliases)
    series = {a.book_id: a.series for a in result.analyses}
    ids = result.matrix.book_ids
    index = {b: i for i, b in enumerate(ids)}
    work = Path(tempfile.mkdtemp(dir=inputs.CACHE))
    try:
        path = work / "catalogue.json"
        api.save(result.catalogue, path)

        print("analysed series against the planted ones")
        expect_pass("planted series", checks.check_analyses, result.analyses, truth)
        bent = copy.deepcopy(result.analyses)
        point = bent[0].series.points[3]
        bent[0].series.points[3] = api.SeriesPoint(point.position, point.value + 1e-6)
        expect_reject("perturbed series value", checks.check_analyses, bent, truth)
        bent = copy.deepcopy(result.analyses)
        bent[0].pair = bent[0].pair[::-1]
        expect_reject("swapped pair", checks.check_analyses, bent, truth)

        print("SPSI matrix")
        expect_pass("matrix", checks.check_matrix, result.matrix, series, 0)
        for label, (i, j), both in (("perturbed score", (0, 1), True),
                                    ("asymmetric score", (2, 5), False),
                                    ("diagonal", (3, 3), True)):
            wrong = copy.deepcopy(result.matrix)
            wrong.values[i][j] += 1e-9
            if both and i != j:
                wrong.values[j][i] += 1e-9
            expect_reject(label, checks.check_matrix, wrong, series, 0)
        expect_pass("closed form", checks.check_closed_form, api)
        fake = type("FakeApi", (), {"spsi": staticmethod(lambda a, b: api.spsi(a, b) + 1e-16)})
        expect_reject("perturbed closed form", checks.check_closed_form, fake)

        print("catalogue round trip")
        expect_pass("round trip", checks.check_round_trip, api, result.catalogue, path,
                    work / "again.json")
        raw = bytearray(path.read_bytes())
        for label, offset in (("corrupted digit", raw.index(b'"value": 0.') + 11),
                              ("corrupted brace", 0)):
            bad = work / "corrupt.json"
            bad.write_bytes(raw[:offset] + (b"7" if raw[offset:offset + 1] != b"7" else b"3")
                            + raw[offset + 1:])
            expect_reject(label, checks.check_round_trip, api, result.catalogue, bad,
                          work / "again.json")

        print("purity against the planted labels")
        report = api.evaluate(docs, archetype, cfg, aliases=aliases)
        expect_pass("purity", checks.check_purity, report)
        labels = dict(archetype)
        labels[ids[0]], labels[ids[-1]] = archetype[ids[-1]], archetype[ids[0]]
        expect_reject("swapped label", checks.check_purity,
                      api.evaluate(docs, labels, cfg, aliases=aliases))

        print("like queries")
        catalogue = api.load(path)
        query = ids[0]
        results = api.search_similar(catalogue, query, k=5)
        args = (query, 5, len(ids))
        expect_pass("like", checks.check_like, results, *args, archetype, True)
        if checks.like_mismatches(api, results, query, index, result.matrix, series,
                                  cfg.length_ratio_limit, {}):
            sys.exit("selftest: equal-length like scores disagree with the matrix")
        print("  pass    like scores equal the matrix")
        perturbed = [(b, s + (1e-6 if n == 1 else 0.0)) for n, (b, s) in enumerate(results)]
        expect_reject("perturbed like score", checks.like_mismatches, api, perturbed, query,
                      index, result.matrix, series, cfg.length_ratio_limit, {})
        expect_reject("unsorted like results", checks.check_like, perturbed[1:2] + perturbed[:1]
                      + perturbed[2:], *args, archetype, True)
        expect_reject("query among its results", checks.check_like,
                      [(query, 1.0)] + results[:4], *args, archetype, True)
        top = results[0][0]
        expect_reject("swapped label", checks.check_like, results, *args,
                      {b: t["archetype"] for b, t in
                       swapped(truth, top, other_archetype(truth, top)).items()}, True)

        print("pattern queries")
        pattern = spec["patterns"][0][0]
        pseries = api.SentimentSeries(book_id="pattern", points=[
            api.SeriesPoint(p, v) for p, v in zip(pattern["positions"], pattern["values"])])
        presults = api.search_similar(catalogue, pseries, k=10)
        members = catalogue.cluster(api.nearest_cluster(catalogue, pseries)[0]).members
        expect_pass("pattern", checks.check_pattern, presults, members, pattern, ids, truth)
        expect_reject("swapped label", checks.check_pattern, presults, members, pattern, ids,
                      swapped(truth, members[0], other_archetype(truth, members[0])))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: every check passes real outputs and rejects wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
