#!/usr/bin/env python
"""Gate the morsel-driven parallel executor's correctness and hygiene.

Builds a paper-scale observation set (``REPRO_BENCH_OBS``, default
100k), compacts it into one columnar generation, and runs the same
aggregation workload — a two-pattern BGP with a grouped COUNT, the
E3-shaped scan the paper's OLAP translations lean on — through two
endpoints over the *same* dataset:

* **serial** — the ordinary single-process evaluator;
* **parallel** — ``parallel=4`` morsel execution: the first-step scan
  is split into morsels, workers join and COUNT at the id level over
  shared-memory column views, and the parent merges tiny per-group
  partials (see ``docs/parallel.md``).

Both are warmed up once (the parallel warm-up pays the one-time
per-epoch export and per-worker attach/build costs), then timed
best-of-``RUNS``; the times and their ratio are printed, not gated
(the serial path aggregates on ids like the workers do, so the ratio
measures only the extra cores, which a 2-vCPU host cannot resolve —
see ``docs/parallel.md``).  The gate asserts:

* the parallel result is checksum-identical to the serial one;
* the query actually ran parallel (no silent decline);
* after ``close()`` the shared-memory registry is empty and no
  ``/dev/shm`` segment created by this process remains.

Usage::

    REPRO_BENCH_OBS=100000 PYTHONPATH=src python benchmarks/check_parallel.py
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import time

OBSERVATIONS = int(os.environ.get("REPRO_BENCH_OBS", "100000"))
WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))
RUNS = int(os.environ.get("REPRO_BENCH_PARALLEL_RUNS", "3"))
GROUPS = 24

EX = "http://example.org/bench/parallel/"

QUERY = f"""
    SELECT ?g (COUNT(?o) AS ?n) WHERE {{
        ?o <{EX}value> ?v .
        ?o <{EX}group> ?g
    }} GROUP BY ?g
"""


def build_dataset():
    from repro.rdf.graph import Dataset
    from repro.rdf.terms import IRI, Literal

    dataset = Dataset()
    value, group = IRI(EX + "value"), IRI(EX + "group")
    groups = [IRI(EX + f"g{k}") for k in range(GROUPS)]
    rows = []
    for i in range(OBSERVATIONS):
        obs = IRI(EX + f"obs{i}")
        rows.append((obs, value, Literal(i % 997)))
        rows.append((obs, group, groups[i % GROUPS]))
    dataset.default.add_all(rows)
    dataset.default.compact()
    return dataset


def checksum(table) -> list:
    return sorted(repr(row) for row in table.rows)


def best_of(endpoint, runs: int = RUNS) -> float:
    elapsed = []
    for _ in range(runs):
        start = time.perf_counter()
        endpoint.select(QUERY)
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, "src")

    from repro.rdf.concurrency import SHM_SEGMENTS
    from repro.rdf.shm import SEGMENT_PREFIX
    from repro.sparql.endpoint import LocalEndpoint

    print(f"parallel gate: obs={OBSERVATIONS} workers={WORKERS} "
          f"runs=best-of-{RUNS}")

    dataset = build_dataset()
    serial = LocalEndpoint(dataset)
    parallel = LocalEndpoint(dataset, parallel=WORKERS,
                             parallel_threshold=1)

    serial_table = serial.select(QUERY)       # warm-up + reference
    parallel_table = parallel.select(QUERY)   # warm-up: export + attach

    executor = parallel.parallel_executor
    if executor.telemetry["queries"] == 0:
        print(f"FAIL: query declined parallel execution "
              f"({executor.last_decline})", file=sys.stderr)
        return 1
    print(f"fan-out: {executor.telemetry['morsels']} morsels across "
          f"{WORKERS} workers")

    if checksum(parallel_table) != checksum(serial_table):
        print("FAIL: parallel result diverged from serial", file=sys.stderr)
        return 1
    print(f"correctness: parallel == serial "
          f"({len(serial_table)} groups)")

    serial_best = best_of(serial)
    parallel_best = best_of(parallel)
    speedup = serial_best / max(parallel_best, 1e-9)
    print(f"serial   best: {serial_best * 1000:8.1f} ms")
    print(f"parallel best: {parallel_best * 1000:8.1f} ms")
    print(f"serial / parallel: {speedup:.2f}x (reported, not gated)")

    parallel.close()
    serial.close()
    if not SHM_SEGMENTS.empty:
        print(f"FAIL: leaked shared-memory registrations: "
              f"{SHM_SEGMENTS.segment_names()}", file=sys.stderr)
        return 1
    if os.path.isdir("/dev/shm"):
        leaked = sorted(glob.glob(
            f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"))
        if leaked:
            print(f"FAIL: leaked /dev/shm segments: {leaked}",
                  file=sys.stderr)
            return 1
    print("hygiene: zero leaked segments after close")
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
