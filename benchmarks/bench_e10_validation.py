"""E10 — ablation: the spec's pairwise IC-12 vs the linear check.

The W3C Data Cube spec defines well-formedness as 21 SPARQL ASK queries
over the *normalized* graph (§10/§11); QB2OLAP must validate its input
cube before enrichment.  This bench regenerates three series:

* normalization cost and added-triple counts as the cube grows —
  linear in observations (each observation gains one type triple);
* the IC suite's per-constraint cost on the demo cube — the
  path-navigating constraints (IC-11/13/14 walk
  ``qb:dataSet/qb:structure/qb:component/...`` per observation)
  dominate;
* the IC-12 ablation: the spec's pairwise SPARQL formulation is
  quadratic in observations, the value-keyed duplicate check
  (:func:`repro.qb.constraints.has_duplicate_observations`) linear —
  the reason ``check_graph`` answers IC-12 with code.
"""

import time

import pytest

from repro.data.eurostat import GeneratorConfig, build_qb_graph
from repro.qb.constraints import (
    IC12_PAIRWISE,
    ConstraintCheck,
    all_constraint_checks,
    check_constraint,
    has_duplicate_observations,
)
from repro.qb.normalize import normalize_graph

NORMALIZE_SIZES = [500, 2_000, 8_000]
IC12_SIZES = [100, 200, 400]
#: the IC suite is the engine's ASK / NOT EXISTS traffic, which no
#: ``benchmarks/perf`` workload issues: two sizes so a change to that
#: path has a scaling number to stand on (docs/performance.md)
IC_SUITE_SIZES = [2_000, 8_000]


def normalized_cube(observations: int, seed: int = 42):
    graph = build_qb_graph(GeneratorConfig(
        observations=observations, seed=seed))
    added = normalize_graph(graph)
    return graph, added


def test_e10_normalization_scaling(benchmark, save_rows):
    def sweep():
        rows = []
        for size in NORMALIZE_SIZES:
            graph = build_qb_graph(GeneratorConfig(observations=size))
            before = len(graph)
            started = time.perf_counter()
            added = normalize_graph(graph)
            seconds = time.perf_counter() - started
            rows.append(f"obs={size:6d}  triples={before:7d}  "
                        f"added={added:6d}  {seconds:6.2f}s")
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_rows("E10_normalization", "normalization cost scaling", rows)

    # shape: added triples track observations linearly (one implicit
    # qb:Observation type per observation after the generator's types
    # are removed — here types exist, so the adds come from component
    # closure only and stay constant) — assert both runs normalized
    graph, added = normalized_cube(500)
    again = normalize_graph(graph)
    assert again == 0  # idempotent


@pytest.mark.parametrize("observations", IC_SUITE_SIZES)
def test_e10_ic_suite_cost(benchmark, save_rows, observations):
    graph, _ = normalized_cube(observations)

    def run():
        rows = []
        for check in all_constraint_checks(graph):
            if check.expensive:
                continue
            started = time.perf_counter()
            violated = check_constraint(graph, check)
            seconds = time.perf_counter() - started
            rows.append((check.ic, check.label, violated, seconds))
        return rows

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(seconds for _, _, _, seconds in timings)
    rows = [
        f"{ic:6s} {label:42s} {'VIOLATED' if violated else 'ok':9s} "
        f"{seconds:7.3f}s ({seconds / total:5.1%})"
        for ic, label, violated, seconds in timings
    ]
    save_rows(f"E10_ic_costs_{observations}",
              f"per-constraint cost, {observations}-observation cube "
              f"(IC-17 skipped)", rows)
    # the raw synthetic cube reproduces the real dump's metadata gap:
    # dimensions lack rdfs:range (IC-4)
    violated_ics = {ic for ic, _, violated, _ in timings if violated}
    assert violated_ics == {"IC-4"}


def test_e10_ic12_linear_vs_pairwise(benchmark, save_rows):
    pairwise = ConstraintCheck("IC-12", "pairwise", [IC12_PAIRWISE])

    def sweep():
        rows = []
        for size in IC12_SIZES:
            graph, _ = normalized_cube(size)
            started = time.perf_counter()
            sparql_violated = check_constraint(graph, pairwise)
            sparql_seconds = time.perf_counter() - started
            started = time.perf_counter()
            linear_violated = has_duplicate_observations(graph)
            linear_seconds = time.perf_counter() - started
            assert sparql_violated == linear_violated
            rows.append((size, sparql_seconds, linear_seconds))
        return rows

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        f"obs={size:5d}  spec-SPARQL={sparql_seconds:8.3f}s  "
        f"linear={linear_seconds:7.4f}s  "
        f"ratio={sparql_seconds / max(linear_seconds, 1e-9):8.0f}x"
        for size, sparql_seconds, linear_seconds in timings
    ]
    save_rows("E10_ic12_ablation",
              "IC-12 duplicate detection: spec SPARQL vs linear", rows)

    # shape: the SPARQL form grows superlinearly, the linear one stays
    # cheap; at the largest size the linear check wins by a wide margin
    last = timings[-1]
    assert last[1] > last[2] * 10
    # quadratic-ish growth of the SPARQL form between first and last
    growth = timings[-1][1] / max(timings[0][1], 1e-9)
    size_ratio = IC12_SIZES[-1] / IC12_SIZES[0]
    assert growth > size_ratio  # worse than linear
