#!/usr/bin/env python3
"""Run the benchmark several times and write one set of runs.

    python3 benchmarks/perf/record.py --runs 10 --out A.json
        [--traced 1] [--seed 1]

Every run is a fresh process (the unit the acceptance rule compares),
for the contract's ``run_seconds``, with the *same* seed, so the spread
inside a set measures the host and nothing else.  Workloads take turns,
so a slow episode of the host spoils one run of each rather than every
run of one.  ``compare.py`` reads two such sets;
``baseline/BENCH_13.json`` is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402 - the quartile rule lives in one place

CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(CONTRACT["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"record.py: {workload} seed {seed} exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # what the last line leaves out is in the record run.py wrote
    full = json.loads((HERE / "out" / f"{workload}."
                       f"{'traced' if trace else 'run'}.json").read_text())
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "calib_ms": full["calib_ms"],
            "samples": full["samples"], "raw": full["raw_end_to_end"],
            "fingerprint": full["fingerprint"], **result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="untraced runs per workload")
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="the seed of every run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    runs: List[Dict[str, Any]] = []
    fingerprint: Dict[str, Any] = {}
    for trace, count in ((0, args.runs), (1, args.traced)):
        for _ in range(count):
            for workload in (entry["name"] for entry
                             in CONTRACT["workloads"]):
                result = one_run(workload, args.seed, trace)
                fingerprint = result.pop("fingerprint")
                runs.append(result)
                print(f"{workload:12s} trace={trace} "
                      f"{result['wall_s']:6.1f} s  correct="
                      f"{result['correct']} failed={result['failed']}",
                      flush=True)
    untraced = [result for result in runs if not result["trace"]]
    Path(args.out).write_text(json.dumps({
        "fingerprint": fingerprint, "seed": args.seed,
        "run_seconds": CONTRACT["run_seconds"],
        "end_to_end_medians": medians(
            untraced, lambda result: {name: metric["value"] for name, metric
                                      in result["metrics"].items()}),
        # the same estimator over times as measured, for comparison
        "raw_medians": medians(untraced, lambda result: result["raw"]),
        "runs": runs}, indent=1))
    return 0


def medians(runs: List[Dict[str, Any]], values_of: Any
            ) -> Dict[str, Dict[str, Any]]:
    """workload -> end-to-end metric -> median and quartiles over the
    runs (what ``compare.py`` prints, kept for readers)."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for result in runs:
        for name, value in values_of(result).items():
            values.setdefault(result["workload"], {}) \
                .setdefault(name, []).append(value)
    return {workload: {name: stats.spread(samples)
                       for name, samples in metrics.items()}
            for workload, metrics in values.items()}


if __name__ == "__main__":
    sys.exit(main())
