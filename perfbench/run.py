"""arcindex benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload {library,shelves} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the benchmark imports arcindex
from ./src and nothing else. Inputs are generated from the seed (and
cached under .perfbench_cache/), set-up time is taken in fresh
processes, and the workload itself runs in one worker process with one
thread. The last line printed is the JSON result; the line before it
gives the rounds, the query counts and the attempted/failed count of
each operation type.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

SETUP_REPS = 10
SETUP_CODE = ("import time; t0 = time.perf_counter(); import arcindex; "
              "arcindex.load_default_lexicon(); print(time.perf_counter() - t0)")
WORKER_TIMEOUT_S = 900


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(inputs.SRC)
    # A fixed string-hash seed keeps dict and set layouts the same from
    # run to run; the inputs vary with --seed instead.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(reps: int) -> list:
    """Times to import arcindex and load the default lexicon, fresh processes."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = child_env()
    # The first import compiles bytecode; users pay that once, not per run.
    subprocess.run(cmd, env=env, cwd=inputs.ROOT, check=True, stdout=subprocess.DEVNULL)
    return [float(subprocess.run(cmd, env=env, cwd=inputs.ROOT, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(reps)]


def run_worker(input_dir: Path, seconds: int, trace: int) -> dict:
    workdir = inputs.CACHE / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(inputs.BENCH_DIR / "worker.py"),
             "--inputs", str(input_dir), "--workdir", str(workdir),
             "--seconds", str(seconds), "--trace", str(trace)],
            env=child_env(), cwd=inputs.ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode} and no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (inputs.SRC / "arcindex" / "__init__.py").is_file():
        print(f"perfbench: no arcindex sources under {inputs.SRC}", file=sys.stderr)
        return 2

    input_dir = inputs.ensure_inputs(args.workload, args.seed)
    if args.trace:
        out = run_worker(input_dir, args.seconds, args.trace)
        metrics = out["metrics"]
    else:
        # Half the set-up samples before the workload and half after it.
        setup = measure_setup(SETUP_REPS // 2)
        out = run_worker(input_dir, args.seconds, args.trace)
        setup += measure_setup(SETUP_REPS - SETUP_REPS // 2)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **out["metrics"]}
    ops = out["ops"]
    print("run " + json.dumps({
        "rounds": out.get("rounds"), "queries": out.get("queries"),
        "ops": {op: {"attempted": a, "failed": f} for op, (a, f) in ops.items()}}))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": metrics,
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
