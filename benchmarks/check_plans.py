#!/usr/bin/env python
"""Guard the cost-based planner against plan-quality regressions.

Translates the E3/E6 query workload to SPARQL, plans every BGP with
the cost-based optimizer, and compares each query's **estimated plan
cost** (Σ of estimated intermediate rows across its BGPs) against a
committed baseline.  A plan whose estimated cost grows by more than
the allowed factor (default 2×) means the planner started choosing a
worse join order for that shape — the build fails before the slowdown
ever reaches a wall clock.

The default run also gates **constant-aware planning** (statistics
v2): a skewed-constant query family — the same shape probed with the
*hottest* and a *cold* destination member — must (a) plan different
first join steps, and (b) touch measurably fewer index entries under
value-aware costing than under the average-only model it replaced.
Skew results are written to ``benchmarks/results/skew_planning.txt``.

Usage::

    PYTHONPATH=src REPRO_BENCH_OBS=2000 python benchmarks/check_plans.py
    PYTHONPATH=src python benchmarks/check_plans.py --update  # re-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BASELINE_PATH = pathlib.Path(__file__).parent / "plan_baseline.json"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OBSERVATIONS = int(os.environ.get("REPRO_BENCH_OBS", "2000"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))
ALLOWED_FACTOR = float(os.environ.get("REPRO_PLAN_TOLERANCE", "2.0"))
#: costs below this are planner noise, not plan shape
COST_FLOOR = 100.0


def _collect_bgps(node):
    from repro.sparql.algebra import (
        BGP, Extend, Filter, GraphNode, Join, LeftJoin, Minus,
        SubSelectNode, Union)

    result = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, BGP):
            result.append(current)
        elif isinstance(current, (Join, LeftJoin, Union, Minus)):
            stack.extend((current.left, current.right))
        elif isinstance(current, (Filter, Extend, GraphNode)):
            stack.append(current.child)
        elif isinstance(current, SubSelectNode):
            stack.append(current.query.pattern)
    return result


def query_plan_cost(sparql_text: str, dataset) -> float:
    """Σ estimated plan cost over every BGP of one SPARQL query."""
    from repro.sparql.evaluator import DatasetContext
    from repro.sparql.optimizer import plan_physical
    from repro.sparql.parser import parse_query

    query = parse_query(sparql_text)
    source = DatasetContext(dataset).default_source()
    total = 0.0
    for bgp in _collect_bgps(query.pattern):
        total += plan_physical(bgp.patterns, source).cost
    return total


def measure(demo, skew=None) -> dict:
    """Estimated plan cost per E3/E6 workload query."""
    from repro.demo import MARY_QL
    from benchmarks.bench_e3_querying import PREDEFINED

    dataset = demo.endpoint.dataset
    costs = {}
    workload = dict(PREDEFINED)
    for name in sorted(workload):
        translation = demo.engine.prepare(workload[name])[3]
        costs[f"e3/{name}/direct"] = round(
            query_plan_cost(translation.direct, dataset), 1)
        costs[f"e3/{name}/optimized"] = round(
            query_plan_cost(translation.optimized, dataset), 1)
    translation = demo.engine.prepare(MARY_QL)[3]
    costs["e6/mary/direct"] = round(
        query_plan_cost(translation.direct, dataset), 1)
    hot_text, cold_text, _hot, _cold = skew or skew_queries(demo)
    costs["skew/hot"] = round(query_plan_cost(hot_text, dataset), 1)
    costs["skew/cold"] = round(query_plan_cost(cold_text, dataset), 1)
    return costs


# -- skewed-constant planning gate (statistics v2) ---------------------------


def skew_queries(demo):
    """``(hot_text, cold_text, hot_member, cold_member)`` — one query
    shape, probed with the busiest and an unpopular destination.

    The synthetic cube weights destinations heavy-tailed (Germany
    receives ~25x an average country's observations), so the hottest
    member is exactly the kind of constant the average-only cost model
    mispriced.  Members are picked from the live data, not hardcoded,
    so the gate holds at any scale/seed.
    """
    from repro.data.namespaces import PROPERTY
    from repro.rdf.namespace import SDMX_DIMENSION

    union = demo.endpoint.dataset.union()
    counts = sorted(
        ((union.count((None, PROPERTY.geo, member)), member.value)
         for member in set(union.objects(predicate=PROPERTY.geo))))
    nonzero = [(count, iri) for count, iri in counts if count > 0]
    hot = nonzero[-1][1]
    cold = nonzero[0][1]
    month = min(member.value
                for member in union.objects(
                    predicate=SDMX_DIMENSION.refPeriod))

    def text(member: str) -> str:
        return f"""SELECT ?o ?v WHERE {{
            ?o <{PROPERTY.geo.value}> <{member}> .
            ?o <{SDMX_DIMENSION.refPeriod.value}> <{month}> .
            ?o <http://purl.org/linked-data/sdmx/2009/measure#obsValue> ?v .
        }}"""

    return text(hot), text(cold), hot, cold


def _first_step(plan_text: str) -> str:
    """The pattern of a rendered plan's first join step."""
    line = next(l for l in plan_text.splitlines() if "[0]" in l)
    return line.split("(est.")[0].strip()


def _count_probes(endpoint, text: str) -> int:
    from repro.sparql.evaluator import PROBE_COUNTER

    with PROBE_COUNTER:
        endpoint.select(text)
        return PROBE_COUNTER.entries


def skew_gate(demo, skew=None) -> list:
    """Gate the constant-aware planner on the skewed-destination family.

    Returns a list of failure strings (empty = pass).  Checks:

    * hot and cold constants on the same shape get different first
      join steps;
    * executing the hot-constant query touches measurably fewer index
      entries than the same query planned by the average-only model
      (the pre-statistics-v2 baseline, replayed by patching
      ``optimizer._constant_base`` to find no value-aware estimate).
    """
    from repro.sparql import optimizer
    from repro.sparql.explain import explain

    hot_text, cold_text, hot, cold = skew or skew_queries(demo)
    endpoint = demo.endpoint
    dataset = endpoint.dataset
    failures = []

    optimizer.PLAN_CACHE.clear()
    hot_plan = explain(hot_text, dataset)
    cold_plan = explain(cold_text, dataset)
    orders_differ = _first_step(hot_plan) != _first_step(cold_plan)
    if not orders_differ:
        failures.append(
            "skew: hot and cold constants got the same first join step")

    optimizer.PLAN_CACHE.clear()
    constant_base = optimizer._constant_base
    optimizer._constant_base = lambda pattern, stats: None
    try:
        avg_probes = _count_probes(endpoint, hot_text)
    finally:
        optimizer._constant_base = constant_base
    optimizer.PLAN_CACHE.clear()
    aware_probes = _count_probes(endpoint, hot_text)
    if aware_probes >= avg_probes:
        failures.append(
            f"skew: constant-aware planning did not reduce hot-constant "
            f"probes ({aware_probes} vs {avg_probes} average-only)")

    RESULTS_DIR.mkdir(exist_ok=True)
    lines = [
        f"# skew_planning — observations={OBSERVATIONS}",
        "hot vs cold constant on one query shape (destination member)",
        f"{'hot member':34s} {hot}",
        f"{'cold member':34s} {cold}",
        f"{'first join steps differ':34s} {str(orders_differ):>8s}",
        f"{'hot probes, average-only model':34s} {avg_probes:8d}",
        f"{'hot probes, constant-aware model':34s} {aware_probes:8d}",
        f"{'probe reduction':34s} "
        f"{avg_probes / max(1, aware_probes):7.1f}x",
    ]
    path = RESULTS_DIR / "skew_planning.txt"
    path.write_text("\n".join(lines) + "\n")
    print()
    print("\n".join(lines))
    print(f"\nwritten to {path}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=BASELINE_PATH)
    parser.add_argument("--update", action="store_true",
                        help="write the fresh costs as the new baseline")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
    from repro.demo import prepare_enriched_demo

    demo = prepare_enriched_demo(observations=OBSERVATIONS, seed=SEED)

    skew = skew_queries(demo)  # discovered once, shared by both gates
    fresh = measure(demo, skew)
    scale_key = str(OBSERVATIONS)
    stored = {}
    if args.baseline.exists():
        stored = json.loads(args.baseline.read_text())

    if args.update:
        stored[scale_key] = fresh
        args.baseline.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"plan baseline updated for obs={OBSERVATIONS}: "
              f"{args.baseline}")
        return 0

    baseline = stored.get(scale_key)
    if baseline is None:
        print(f"no plan baseline for obs={OBSERVATIONS} in "
              f"{args.baseline}; run with --update first", file=sys.stderr)
        return 2

    failures = []
    print(f"{'query':32s} {'baseline':>12s} {'fresh':>12s} {'ratio':>7s}")
    for metric, reference in sorted(baseline.items()):
        current = fresh.get(metric)
        if current is None:
            continue
        ratio = current / reference if reference else float("inf")
        flag = ""
        if (current > reference * ALLOWED_FACTOR
                and max(current, reference) >= COST_FLOOR):
            flag = "  REGRESSION"
            failures.append(metric)
        print(f"{metric:32s} {reference:12.1f} {current:12.1f} "
              f"{ratio:6.2f}x{flag}")

    skew_failures = skew_gate(demo, skew)

    if failures:
        print(f"\n{len(failures)} plan(s) regressed estimated cost by "
              f"more than {ALLOWED_FACTOR:.0f}x: {', '.join(failures)}",
              file=sys.stderr)
    for message in skew_failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures or skew_failures:
        return 1
    print(f"\nno plan cost regression beyond {ALLOWED_FACTOR:.0f}x; "
          f"skewed-constant gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
