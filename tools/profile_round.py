#!/usr/bin/env python
"""``cProfile`` one round of one perf-benchmark workload.

Sets the workload up through ``benchmarks/perf/harness.py`` exactly as
``run.py`` does (imported, never edited), verifies it — which is also
the warm round: every distinct op runs once, so plan and parse caches
are hot — then runs one round of ops under :mod:`cProfile` and prints
the cumulative table.

Usage::

    python tools/profile_round.py --workload rollup_20k [--top 30]
    make profile WORKLOAD=rollup_20k [TOP=30]

``cProfile`` charges every Python call but not the work inside native
code, so the proportions lean against call-heavy code: find candidates
here, measure them with ``make perf`` / ``make perf-compare``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the harness modules import each other by bare name
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]


def main() -> int:
    import harness
    from spans import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=30,
                        help="rows of the cumulative table")
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (cumulative, tottime, ...)")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    cube = harness.set_up(workload.observations, args.seed, workload.star,
                          Tracer())
    try:
        ops = workload.round_ops(random.Random(args.seed))
        harness.verify(cube, ops)
        gc.collect()
        profile = cProfile.Profile()
        profile.enable()
        for op in ops:
            harness.run_op(cube, op)
        profile.disable()
    finally:
        harness.clean_up(cube)
    print(f"# one round of {args.workload} (seed {args.seed}): "
          f"{len(ops)} ops")
    pstats.Stats(profile).strip_dirs().sort_stats(args.sort).print_stats(
        args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
