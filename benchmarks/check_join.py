#!/usr/bin/env python
"""Gate the columnar storage tier: join throughput, compaction latency,
and the 1M-observation load.

Two checks, all over synthetic observation-shaped data (one
``qb:Observation``-like subject with a measure literal and a group
IRI, the shape every E1–E11 workload scans), at
``REPRO_BENCH_JOIN_OBS`` (default 100 000) observations:

1. **Compaction latency** — folding a 25%-of-base delta overlay into a
   fresh column generation must finish within
   ``REPRO_BENCH_COMPACT_CEILING`` seconds (default 5).
2. **1M gate** — a 1 000 000-observation bulk load plus an E3-shaped
   grouped aggregation over the resulting two-million-triple graph
   must complete within the governor's default deadline
   (``REPRO_BENCH_JOIN_DEADLINE``, default 60 s; the query runs under
   a :class:`~repro.sparql.governor.QueryGovernor` carrying that
   deadline, so an overrun surfaces as ``QueryTimeout``, not just a
   slow gate).  Skipped when ``REPRO_BENCH_JOIN_FULL=0``.

Merge-join throughput and compaction latency are recorded alongside
``baseline.json`` in ``benchmarks/join_baseline.json`` (``--update``
refreshes it); the recorded numbers are informational history — the
pass/fail gates above are ceiling-based, so a fresh checkout gates
identically with or without the baseline file.

Usage::

    PYTHONPATH=src python benchmarks/check_join.py
    PYTHONPATH=src python benchmarks/check_join.py --update
    PYTHONPATH=src REPRO_BENCH_JOIN_FULL=0 python benchmarks/check_join.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

BASELINE_PATH = pathlib.Path(__file__).parent / "join_baseline.json"
OBSERVATIONS = int(os.environ.get("REPRO_BENCH_JOIN_OBS", "100000"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))
COMPACT_CEILING = float(os.environ.get("REPRO_BENCH_COMPACT_CEILING", "5"))
DEADLINE_SECONDS = float(os.environ.get("REPRO_BENCH_JOIN_DEADLINE", "60"))
FULL_GATE = os.environ.get("REPRO_BENCH_JOIN_FULL", "1") != "0"

GROUPS = 50
VALUES = 1000

E3_QUERY = """
    SELECT ?g (SUM(?v) AS ?total) WHERE {
        ?o <http://example.org/value> ?v .
        ?o <http://example.org/inGroup> ?g
    } GROUP BY ?g
"""


def observation_ids(graph, observations: int):
    """Dictionary-encode the synthetic observation workload: parallel
    ``(s, p, o)`` id arrays, two triples per observation."""
    from repro.rdf.terms import IRI, Literal

    encode = graph.dictionary.encode
    obs = np.array([encode(IRI(f"http://example.org/obs{i}"))
                    for i in range(observations)], dtype=np.int64)
    p_value = encode(IRI("http://example.org/value"))
    p_group = encode(IRI("http://example.org/inGroup"))
    groups = np.array([encode(IRI(f"http://example.org/g{k}"))
                       for k in range(GROUPS)], dtype=np.int64)
    values = np.array([encode(Literal(v)) for v in range(VALUES)],
                      dtype=np.int64)
    rng = np.random.default_rng(SEED)
    s = np.concatenate([obs, obs])
    p = np.concatenate([np.full(observations, p_value),
                        np.full(observations, p_group)])
    o = np.concatenate([values[rng.integers(0, VALUES, observations)],
                        groups[rng.integers(0, GROUPS, observations)]])
    return s, p, o, p_value, p_group


def columnar_backend(observations: int):
    """The same content bulk-loaded into the columnar tier."""
    from repro.rdf.graph import Dataset

    dataset = Dataset()
    graph = dataset.default
    s, p, o, p_value, p_group = observation_ids(graph, observations)
    started = time.perf_counter()
    graph.bulk_load_ids(s, p, o)
    load_seconds = time.perf_counter() - started
    return dataset, graph, p_value, p_group, load_seconds


def join_throughput(dataset, observations: int) -> float:
    """Output rows/second of the E3-shaped grouped aggregation (scan +
    merge-grouped hash join + aggregate) on a snapshot-isolated
    endpoint."""
    from repro.sparql.endpoint import LocalEndpoint

    endpoint = LocalEndpoint(dataset)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = endpoint.select(E3_QUERY)
        best = min(best, time.perf_counter() - started)
        assert len(table) == GROUPS
    return observations / best


def compaction_latency(graph) -> float:
    """Seconds to fold a 25%-of-base delta overlay (worst realistic
    publish-boundary fold: reSort of base + delta)."""
    from repro.rdf import graph as graph_module
    from repro.rdf.terms import IRI, Literal

    never = 1 << 60
    saved = (graph_module.COMPACT_WRITE_THRESHOLD,
             graph_module.COMPACT_PUBLISH_THRESHOLD)
    graph_module.COMPACT_WRITE_THRESHOLD = never
    graph_module.COMPACT_PUBLISH_THRESHOLD = never
    try:
        extra = max(1, len(graph) // 8)
        for i in range(extra):
            graph.add(IRI(f"http://example.org/late{i}"),
                      IRI("http://example.org/value"),
                      Literal(i % VALUES))
    finally:
        (graph_module.COMPACT_WRITE_THRESHOLD,
         graph_module.COMPACT_PUBLISH_THRESHOLD) = saved
    assert graph.tier_sizes()[1] == extra
    started = time.perf_counter()
    graph.compact()
    elapsed = time.perf_counter() - started
    assert graph.tier_sizes()[1] == 0
    return elapsed


def run_full_gate() -> dict:
    """The 1M-observation load + E3 query, under a governed deadline."""
    from repro.sparql.endpoint import LocalEndpoint
    from repro.sparql.governor import QueryGovernor, QueryLimits

    started = time.perf_counter()
    dataset, graph, _, _, load_seconds = columnar_backend(1_000_000)
    build_seconds = time.perf_counter() - started
    governor = QueryGovernor(
        defaults=QueryLimits(deadline_seconds=DEADLINE_SECONDS))
    endpoint = LocalEndpoint(dataset, governor=governor)
    started = time.perf_counter()
    table = endpoint.select(E3_QUERY)  # raises QueryTimeout on overrun
    query_seconds = time.perf_counter() - started
    assert len(table) == GROUPS
    return {
        "load_1m/triples": len(graph),
        "load_1m/build_seconds": round(build_seconds, 3),
        "load_1m/bulk_load_seconds": round(load_seconds, 3),
        "e3_1m/query_seconds": round(query_seconds, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=BASELINE_PATH)
    parser.add_argument("--update", action="store_true",
                        help="record the fresh numbers in the baseline")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

    failures = []
    metrics: dict = {"observations": OBSERVATIONS}

    print(f"building columnar backend at {OBSERVATIONS} observations ...")
    dataset, col_graph, _, _, load_seconds = columnar_backend(OBSERVATIONS)
    metrics["load/bulk_load_seconds"] = round(load_seconds, 3)

    rows_per_s = join_throughput(dataset, OBSERVATIONS)
    metrics["join/rows_per_s"] = round(rows_per_s)
    print(f"merge-join throughput (E3 aggregation): {rows_per_s:,.0f} "
          f"obs/s")

    fold_seconds = compaction_latency(col_graph)
    metrics["compaction/seconds"] = round(fold_seconds, 4)
    flag = ""
    if fold_seconds > COMPACT_CEILING:
        flag = "  ABOVE CEILING"
        failures.append(
            f"compaction {fold_seconds:.2f}s > {COMPACT_CEILING:.1f}s")
    print(f"compaction latency (25% delta fold): {fold_seconds:.3f}s"
          f"{flag}")

    if FULL_GATE:
        print(f"running 1M-observation gate "
              f"(deadline {DEADLINE_SECONDS:.0f}s) ...")
        full = run_full_gate()
        metrics.update(full)
        total = full["load_1m/build_seconds"] + full["e3_1m/query_seconds"]
        flag = ""
        if total > DEADLINE_SECONDS:
            flag = "  OVER DEADLINE"
            failures.append(
                f"1M load+query {total:.1f}s > {DEADLINE_SECONDS:.0f}s")
        print(f"1M gate: load {full['load_1m/build_seconds']:.1f}s + "
              f"E3 query {full['e3_1m/query_seconds']:.1f}s = "
              f"{total:.1f}s{flag}")
    else:
        print("1M gate skipped (REPRO_BENCH_JOIN_FULL=0)")

    if args.update or not args.baseline.exists():
        stored = {}
        if args.baseline.exists():
            stored = json.loads(args.baseline.read_text())
        stored[str(OBSERVATIONS)] = metrics
        args.baseline.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"join baseline recorded: {args.baseline}")
    else:
        stored = json.loads(args.baseline.read_text())
        previous = stored.get(str(OBSERVATIONS))
        if previous:
            prev_join = previous.get("join/rows_per_s")
            if prev_join:
                print(f"recorded join throughput (previous run): "
                      f"{prev_join:,.0f} obs/s "
                      f"({rows_per_s / prev_join:.2f}x)")

    if failures:
        print(f"\n{len(failures)} join gate failure(s): "
              f"{'; '.join(failures)}", file=sys.stderr)
        return 1
    print("\njoin gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
