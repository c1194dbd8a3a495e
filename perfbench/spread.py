"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload library --seeds 1-10 [--trace 1] [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

The spread of a metric is the distance between the first and third
quartiles of its per-run values (statistics.quantiles, n=4) as a share
of their median. --compare sets the medians of two saved sets side by
side, with the change of each against BENCHMARK.json's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workload: str, seeds, seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": time.perf_counter() - t0, **result})
        print(f"seed {seed} ({runs[-1]['wall_s']:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values),
                         "values": values}
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    return {"workload": workload, "seeds": list(seeds), "runs": runs,
            "summary": summary, "failed_shares": shares}


def compare(first: dict, second: dict) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':22} {'first':>10} {'second':>10} {'change':>8} {'bound':>6}")
    for name, a in first["summary"].items():
        b = second["summary"][name]
        change = b["median"] / a["median"] - 1.0
        bound = bounds.get(name)
        flag = "" if bound is None or change <= bound else "  WORSE"
        print(f"{name:22} {a['median']:10.4g} {b['median']:10.4g} {change:+8.1%} "
              f"{bound if bound is not None else '':>6}{flag}")
    print(f"failed shares: {first['failed_shares']} / {second['failed_shares']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        compare(*(json.loads(p.read_text()) for p in args.compare))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = collect(args.workload, seed_list(args.seeds), seconds, args.trace)
    for name, s in result["summary"].items():
        print(f"{name:34} median {s['median']:10.4g}  spread {s['spread']:6.1%}")
    print(f"failed shares: {result['failed_shares']}")
    print(f"wall time: {sum(r['wall_s'] for r in result['runs']):.0f} s")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
