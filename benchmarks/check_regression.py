#!/usr/bin/env python
"""Guard the experiment hot paths against performance regressions.

Runs the E3/E6 query workload (the same executions
``bench_e3_querying.py`` and ``bench_e6_demo_query.py`` time), the
E2 enrichment phases, the E5 exploration operations, the E4 discovery
refresh, the E10 validation suite (normalization + non-expensive IC
checks) and the E11 drill-across join at the scale given by
``REPRO_BENCH_OBS`` and compares wall-clock numbers against a
committed baseline JSON.  Exits non-zero when any metric regresses
more than the allowed factor (default +20%).

Usage::

    PYTHONPATH=src REPRO_BENCH_OBS=2000 python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --update   # re-baseline

The committed baseline (``benchmarks/baseline.json``) keys metrics by
observation count, so smoke runs at 2000 observations and full runs at
20000 use their own reference numbers.  Tiny timings (< 50 ms) are
ignored: at that scale the noise floor, not the engine, is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"
OBSERVATIONS = int(os.environ.get("REPRO_BENCH_OBS", "2000"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))
ALLOWED_FACTOR = float(os.environ.get("REPRO_BENCH_TOLERANCE", "1.20"))
NOISE_FLOOR_SECONDS = 0.05


def best_of(workload, rounds: int = 3) -> float:
    """Best wall-clock of ``rounds`` runs — the noise-robust figure for
    metrics whose single-run variance exceeds the gate tolerance."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - started)
    return best


def measure() -> dict:
    """One fresh run of the guarded experiment workloads, in seconds."""
    from repro.demo import (
        MARY_PREFERENCES,
        MARY_QL,
        PAPER_DIMENSION_NAMES,
        prepare_enriched_demo,
    )
    from benchmarks.bench_e3_querying import PREDEFINED

    started = time.perf_counter()
    demo = prepare_enriched_demo(observations=OBSERVATIONS, seed=SEED)
    build_seconds = time.perf_counter() - started

    metrics = {"prepare_demo": round(build_seconds, 4)}
    for name in sorted(PREDEFINED):
        result = demo.engine.execute(PREDEFINED[name], variant="optimized")
        metrics[f"e3/{name}"] = round(result.report.execute_seconds, 4)
    result = demo.engine.execute(MARY_QL, variant="direct")
    metrics["e6/mary_direct"] = round(result.report.execute_seconds, 4)

    # E2 — enrichment phases, on a pristine (un-enriched) endpoint
    from repro.data import small_demo
    from repro.enrichment import EnrichmentSession

    data = small_demo(observations=OBSERVATIONS)
    session = EnrichmentSession(data.endpoint, data.dataset, data.dsd,
                                dimension_names=PAPER_DIMENSION_NAMES)
    started = time.perf_counter()
    session.redefine()
    metrics["e2/redefinition"] = round(time.perf_counter() - started, 4)

    # E4 — candidate discovery for the citizenship dimension (one
    # warm-up, then a forced refresh: the per-member SELECT workload)
    from repro.data.namespaces import PROPERTY as ESTAT_PROPERTY
    session.suggestions(ESTAT_PROPERTY.citizen)
    started = time.perf_counter()
    session.suggestions(ESTAT_PROPERTY.citizen, refresh=True)
    metrics["e4/discovery_refresh"] = round(
        time.perf_counter() - started, 4)

    started = time.perf_counter()
    session.auto_enrich(max_depth=3, prefer=list(MARY_PREFERENCES))
    metrics["e2/enrichment"] = round(time.perf_counter() - started, 4)
    started = time.perf_counter()
    session.generate()
    metrics["e2/generation"] = round(time.perf_counter() - started, 4)

    # E10 — validation: normalization plus the non-expensive IC suite
    # over a freshly generated cube (IC-12/17 stay delegated to the
    # native checks exactly as check_graph does)
    from repro.data.eurostat import GeneratorConfig, build_qb_graph
    from repro.qb.constraints import STATIC_CONSTRAINTS, check_constraint
    from repro.qb.normalize import normalize_graph

    cube = build_qb_graph(GeneratorConfig(observations=OBSERVATIONS,
                                          seed=SEED))
    # flush any pending gen-2 sweep of the (large, long-lived) demo
    # heap: this window is ~20ms single-shot, so a deterministic GC
    # pause landing inside it would read as a 2-3x phantom regression
    import gc
    gc.collect()
    started = time.perf_counter()
    normalize_graph(cube)
    metrics["e10/normalize"] = round(time.perf_counter() - started, 4)

    def ic_suite() -> None:
        for check in STATIC_CONSTRAINTS:
            if not check.expensive:
                check_constraint(cube, check)

    metrics["e10/ic_suite"] = round(best_of(ic_suite), 4)

    # E11 — drill-across: both cube queries plus the client-side join
    from repro.demo import (
        APPLICATIONS_BY_CONTINENT_YEAR_QL,
        DECISIONS_BY_CONTINENT_YEAR_QL,
        prepare_two_cube_demo,
    )
    from repro.ql.drillacross import drill_across

    two = prepare_two_cube_demo(observations=OBSERVATIONS,
                                decision_observations=OBSERVATIONS // 2,
                                small=True)

    def drill() -> None:
        left = two.applications.engine.execute(
            APPLICATIONS_BY_CONTINENT_YEAR_QL)
        right = two.decisions.engine.execute(
            DECISIONS_BY_CONTINENT_YEAR_QL)
        drill_across(left.cube, right.cube, suffixes=("_apps", "_dec"))

    metrics["e11/drill_across"] = round(best_of(drill), 4)

    # E5 — exploration operations over the enriched demo
    from repro.data.namespaces import PROPERTY, SCHEMA
    from repro.demo import CONTINENT_LEVEL
    from repro.exploration import CubeExplorer, InstanceBrowser

    explorer = CubeExplorer(demo.endpoint, demo.data.dataset)
    browser = InstanceBrowser(demo.endpoint, explorer.schema)
    started = time.perf_counter()
    browser.cluster_by_level(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
    metrics["e5/cluster_by_continent"] = round(
        time.perf_counter() - started, 4)
    started = time.perf_counter()
    browser.rollup_edges(PROPERTY.citizen, CONTINENT_LEVEL)
    metrics["e5/rollup_edges"] = round(time.perf_counter() - started, 4)
    started = time.perf_counter()
    browser.members(PROPERTY.citizen)
    metrics["e5/member_listing"] = round(time.perf_counter() - started, 4)
    return metrics


#: The streaming-gate workload: the two algebra shapes the translated
#: E3/E6/E8 queries lean on — a DISTINCT dimension walk and an
#: OPTIONAL label lookup, both under LIMIT.
STREAM_QUERIES = {
    "distinct_limit": """
        SELECT DISTINCT ?c WHERE {
            ?obs <http://eurostat.linked-statistics.org/property#citizen> ?c
        } LIMIT 10
    """,
    "optional_limit": """
        SELECT ?obs ?label WHERE {
            ?obs <http://eurostat.linked-statistics.org/property#citizen> ?c
            OPTIONAL {
                ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label
            }
        } LIMIT 50
    """,
}


def measure_stream() -> dict:
    """Streamed-row and probe counts for the streaming-gate queries.

    Counts, not timings, so the gate is deterministic: a fresh run
    failing the 2x factor means the streaming pipeline genuinely pulls
    more index entries / solutions than it used to (or stopped
    streaming entirely — ``streamed`` dropping to 0 trips the ratio on
    the probe metrics).  Each query's streamed results are also checked
    against materialized execution, so the gate doubles as an
    end-to-end correctness probe at benchmark scale.
    """
    import repro.sparql.evaluator as evaluator_module
    from repro.data import small_demo
    from repro.sparql.evaluator import PROBE_COUNTER

    endpoint = small_demo(observations=OBSERVATIONS).endpoint
    stats = endpoint.statistics
    metrics: dict = {}
    for name, query in STREAM_QUERIES.items():
        stats.reset()
        with PROBE_COUNTER as counter:
            streamed = endpoint.select(query)
        # PROBE_COUNTER is a singleton: save entries before reusing it
        streamed_probes = counter.entries
        streamed_selects, rows_pulled = (stats.streamed_selects,
                                         stats.streamed_rows)
        evaluator_module.STREAMING_ENABLED = False
        try:
            with PROBE_COUNTER as counter:
                materialized = endpoint.select(query)
        finally:
            evaluator_module.STREAMING_ENABLED = True
        if streamed.rows != materialized.rows:
            raise AssertionError(
                f"streamed and materialized rows differ for {name}")
        metrics[f"stream/{name}/streamed"] = streamed_selects
        metrics[f"stream/{name}/probes"] = streamed_probes
        metrics[f"stream/{name}/rows_pulled"] = rows_pulled
        metrics[f"stream/{name}/full_probes"] = counter.entries
    return metrics


def run_stream_gate(args) -> int:
    """The ``make bench-stream`` gate: count metrics, 2x tolerance."""
    factor = float(os.environ.get("REPRO_BENCH_STREAM_TOLERANCE", "2.0"))
    fresh = measure_stream()
    scale_key = f"stream/{OBSERVATIONS}"

    stored = {}
    if args.baseline.exists():
        stored = json.loads(args.baseline.read_text())

    if args.update:
        stored[scale_key] = fresh
        args.baseline.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"stream baseline updated for obs={OBSERVATIONS}: "
              f"{args.baseline}")
        return 0

    baseline = stored.get(scale_key)
    if baseline is None:
        print(f"no stream baseline for obs={OBSERVATIONS} in "
              f"{args.baseline}; run with --stream --update first",
              file=sys.stderr)
        return 2

    failures = []
    print(f"{'metric':40s} {'baseline':>10s} {'fresh':>10s} {'ratio':>7s}")
    for metric, reference in sorted(baseline.items()):
        current = fresh.get(metric)
        if current is None:
            # fail closed: a metric the fresh run no longer produces
            # means the gate would otherwise pass without checking it
            print(f"{metric:40s} {reference:10d} {'MISSING':>10s}")
            failures.append(metric)
            continue
        ratio = current / reference if reference else float("inf")
        flag = ""
        if current > reference * factor:
            flag = "  REGRESSION"
            failures.append(metric)
        elif metric.endswith("/streamed") and current < reference:
            flag = "  STOPPED STREAMING"
            failures.append(metric)
        print(f"{metric:40s} {reference:10d} {current:10d} "
              f"{ratio:6.2f}x{flag}")

    if failures:
        print(f"\n{len(failures)} streaming metric(s) regressed beyond "
              f"{factor:.1f}x: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nno streaming regression beyond {factor:.1f}x tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=BASELINE_PATH)
    parser.add_argument("--update", action="store_true",
                        help="write the fresh numbers as the new baseline")
    parser.add_argument("--stream", action="store_true",
                        help="run the streaming gate (probe / streamed-row "
                             "counts) instead of the timing workload")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
    if args.stream:
        return run_stream_gate(args)
    fresh = measure()
    scale_key = str(OBSERVATIONS)

    stored = {}
    if args.baseline.exists():
        stored = json.loads(args.baseline.read_text())

    if args.update:
        stored[scale_key] = fresh
        args.baseline.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"baseline updated for obs={OBSERVATIONS}: "
              f"{args.baseline}")
        return 0

    baseline = stored.get(scale_key)
    if baseline is None:
        print(f"no baseline for obs={OBSERVATIONS} in {args.baseline}; "
              f"run with --update first", file=sys.stderr)
        return 2

    failures = []
    print(f"{'metric':24s} {'baseline':>10s} {'fresh':>10s} {'ratio':>7s}")
    for metric, reference in sorted(baseline.items()):
        current = fresh.get(metric)
        if current is None:
            continue
        ratio = current / reference if reference else float("inf")
        flag = ""
        if (current > reference * ALLOWED_FACTOR
                and max(current, reference) >= NOISE_FLOOR_SECONDS):
            flag = "  REGRESSION"
            failures.append(metric)
        print(f"{metric:24s} {reference:9.3f}s {current:9.3f}s "
              f"{ratio:6.2f}x{flag}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed more than "
              f"{(ALLOWED_FACTOR - 1) * 100:.0f}%: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("\nno regression beyond "
          f"{(ALLOWED_FACTOR - 1) * 100:.0f}% tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
