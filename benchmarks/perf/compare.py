#!/usr/bin/env python3
"""Compare two sets of runs under the benchmark's own bounds.

    python3 benchmarks/perf/compare.py A.json B.json [--same-commit]

A is the base (the parent commit), B the change; both are written by
``record.py``.  For every (workload, end-to-end metric) it prints both
medians with their quartiles and B's median as a ratio of A's (the
base), and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` a set's inter-quartile range is wider than the bound,
                 so a difference of that size cannot be told from noise;
* ``better``     B's median is better by more than A's own spread;
* ``same``       none of the above.

Exits non-zero if any pair is ``worse``.  With ``--same-commit`` the two
sets come from one commit and the question is whether the benchmark
repeats: each pair must have both inter-quartile ranges inside the
bound and medians closer than half of it, else ``disagree`` and a
non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402 - the quartile rule lives in one place

CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def by_workload(runs: List[Dict[str, Any]]
                ) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values of the set's untraced, correct runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"] or not run["correct"]:
            continue
        metrics = values.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return values


def verdict(base: Dict[str, float], change: Dict[str, float],
            spec: Dict[str, Any], same_commit: bool) -> str:
    bound = spec["bound"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    # positive = the change is worse, as a share of the base's median
    shift = sign * (change["median"] - base["median"]) / base["median"]
    noisy = max(base["iqr_frac"], change["iqr_frac"]) > bound
    if same_commit:
        return "disagree" if noisy or abs(shift) >= bound / 2 else "agree"
    if shift > bound:
        return "worse"
    if noisy:
        return "unresolved"
    if -shift > base["iqr_frac"]:
        return "better"
    return "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--same-commit", action="store_true")
    args = parser.parse_args()

    base_set = json.loads(Path(args.base).read_text())
    change_set = json.loads(Path(args.change).read_text())
    if base_set["run_seconds"] != change_set["run_seconds"]:
        raise SystemExit("compare.py: the sets were measured for "
                         f"{base_set['run_seconds']} and "
                         f"{change_set['run_seconds']} seconds a run")
    base_runs = by_workload(base_set["runs"])
    change_runs = by_workload(change_set["runs"])
    failing = "disagree" if args.same_commit else "worse"
    failed = 0
    print(f"{'workload':12s} {'metric':14s} {'bound':>5s}  "
          f"{'A median [q1, q3] iqr':>38s}  "
          f"{'B median [q1, q3] iqr':>38s}  {'B/A':>6s}  verdict")
    for workload in (entry["name"] for entry in CONTRACT["workloads"]):
        if workload not in base_runs or workload not in change_runs:
            continue
        for spec in CONTRACT["end_to_end"]:
            name = spec["name"]
            base = stats.spread(base_runs[workload][name])
            change = stats.spread(change_runs[workload][name])
            outcome = verdict(base, change, spec, args.same_commit)
            failed += outcome == failing
            cells = [f"{s['median']:11.4f} [{s['q1']:10.4f},{s['q3']:10.4f}]"
                     f"{s['iqr_frac']:6.1%}" for s in (base, change)]
            print(f"{workload:12s} {name:14s} {spec['bound']:5.0%}  "
                  f"{cells[0]}  {cells[1]}  "
                  f"{change['median'] / base['median']:6.3f}  {outcome}")
    print(f"# ratio base: A's median; runs per set: "
          f"{ {w: len(m['setup_s']) for w, m in base_runs.items()} } vs "
          f"{ {w: len(m['setup_s']) for w, m in change_runs.items()} }")
    print(f"# {failed} pair(s) {failing}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
