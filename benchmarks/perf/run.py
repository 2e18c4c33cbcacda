#!/usr/bin/env python3
"""One run of one workload of the perf benchmark.

    python3 benchmarks/perf/run.py --workload rollup_20k [--seed N]
        [--seconds S] [--trace 0|1]

Sets the workload up, verifies every distinct operation against an
independent engine, runs a closed loop with one client over identical
rounds, and prints every metric by name with its unit.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics`` — the end-to-end metrics of an untraced run,
the per-layer metrics of a traced one.  The full record (every round,
every op) goes to ``benchmarks/perf/out/``; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {SOURCE / 'repro'} is missing")
sys.path.insert(0, str(SOURCE))

import harness  # noqa: E402 - needs the program on sys.path
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        observations: Optional[int] = None,
        fixed_rounds: Optional[int] = None) -> Dict[str, Any]:
    """Set a workload up, verify it, measure it; return the record.
    ``metrics`` holds the end-to-end numbers of an untraced run, the
    per-layer numbers of a traced one.  ``fixed_rounds`` is for the
    self-test, which cannot wait for ``seconds``."""
    workload = WORKLOADS[workload_name]
    tracer = Tracer()
    cube = harness.set_up(observations or workload.observations, seed,
                          workload.star, tracer)
    ops = workload.round_ops(random.Random(seed))
    per_layer: layers.Metrics = {}
    try:
        expected = harness.verify(cube, ops)
        gc.collect()
        gc.freeze()
        rounds = harness.run_rounds(cube, ops, expected, seconds,
                                    fixed_rounds, tracer if trace else None)
        if trace:
            per_layer = layers.per_layer(cube, tracer, rounds)
    finally:
        closing = harness.clean_up(cube)
        gc.unfreeze()

    attempted = sum(len(round_.ops) for round_ in rounds)
    failed = attempted - sum(len(round_.good) for round_ in rounds)
    stages = cube.stages
    end_to_end, samples = harness.end_to_end(
        rounds, sum(stages.referred.values()))
    raw, _ = harness.end_to_end(rounds, sum(stages.raw.values()),
                                referred=False)
    record: Dict[str, Any] = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "observations": cube.facts,
        "off_contract": observations is not None
        or fixed_rounds is not None,
        "correct": (failed == 0 and not closing["leaked_segments"]
                    and not closing["live_children"]),
        "attempted": attempted, "failed": failed,
        "samples": samples, "closing": closing,
        "fingerprint": harness.fingerprint(),
        # the fastest kernel reading: a slow machine, or a slow program?
        "calib_ms": min(op.kernel_ms for round_ in rounds
                        for op in round_.ops),
        "end_to_end": {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in harness.END_TO_END_UNITS.items()},
        # the same estimator over times as measured: what the reference
        # clock is judged against
        "raw_end_to_end": raw,
        "setup": {"stages_raw_s": stages.raw,
                  "kernel_readings_ms": stages.readings},
        "rounds": [{"index": round_.index, "traced": round_.traced,
                    "wall_s": round_.wall, "counters": round_.counters,
                    "ops": [{"key": op.key, "ok": op.ok,
                             "latency_ms": op.latency * 1000.0,
                             "cpu_ms": op.cpu * 1000.0,
                             "kernel_ms": op.kernel_ms}
                            for op in round_.ops]}
                   for round_ in rounds],
    }
    if trace:
        per_layer["olap.parallel.close_ms"] = (closing["close_ms"], "ms")
        per_layer["rdf.shm.leaked_segments"] = (
            closing["leaked_segments"], "count")
        record["per_layer"] = {name: {"value": value, "unit": unit}
                               for name, (value, unit) in per_layer.items()}
        record["end_to_end_note"] = "from a traced run: never compare these"
        tracer.write(harness.OUT_DIR / f"{workload_name}.trace.json")
    record["metrics"] = record["per_layer" if trace else "end_to_end"]
    return record


def report(record: Dict[str, Any]) -> List[str]:
    """The human-readable lines: every metric by name with its unit."""
    samples = record["samples"]
    raw = record["raw_end_to_end"]
    lines = [
        f"# {record['workload']} seed={record['seed']} "
        f"observations={record['observations']} trace={record['trace']}"
        + (" off_contract=true" if record["off_contract"] else ""),
        f"# rounds {samples['rounds']} (kept {samples['rounds_kept']}), "
        f"ops attempted {record['attempted']} failed {record['failed']}, "
        f"kept ops {samples['kept_ops']}",
        f"# op_p50_ms, op_p90_ms over the round's {samples['op_types']} "
        f"ops, each the median of its {samples['rounds_kept']} kept "
        f"samples: the slow end of the op mix, not one op's tail",
        f"# times are on the reference clock; as measured: ops_per_s "
        f"{raw['ops_per_s']:.4f}, op_p50_ms {raw['op_p50_ms']:.3f}, "
        f"setup_s {raw['setup_s']:.4f}",
        f"# closing {record['closing']}",
    ]
    if record["trace"]:
        lines.append("# sparql.select_ms is one opaque box: spans inside "
                     "the evaluator belong to the later repro/obs change; "
                     "a layer this workload's rounds leave out reads 0")
        speedup = record["metrics"]["olap.parallel.speedup"]["value"]
        base = record["metrics"]["olap.engine_ms"]["value"]
        lines.append(f"# olap.parallel.speedup {speedup:.3f}x, base "
                     f"olap.engine_ms {base:.3f} ms over the same programs")
    for name, metric in record["metrics"].items():
        lines.append(f"{name:36s} {metric['value']:16.6f} {metric['unit']}")
    lines.append("# " + ("correct" if record["correct"] else "NOT CORRECT"))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed rounds measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run")
    parser.add_argument("--observations", type=int, default=None,
                        help="override the cube size (off contract)")
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.observations)
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "traced" if args.trace else "run"
    (harness.OUT_DIR / f"{args.workload}.{suffix}.json").write_text(
        json.dumps(record, indent=1))
    print("\n".join(report(record)))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # the spawn pools re-import this file: everything that runs is here
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"  # workers inherit it
        os.execv(sys.executable, [sys.executable, *sys.argv])
    status = main()
    harness.stop_resource_tracker()
    sys.exit(status)
