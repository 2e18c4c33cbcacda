"""The paper's actual read traffic: an *overlapping* multi-graph union.

QB2OLAP's Generation phase restates reference-attribute triples in the
instance graph and the dataset typing in the schema graph, so after
``generate()`` the endpoint's graphs are **not** disjoint, and its small
named graphs never reach a column generation.  Every QL query therefore
scans a union that must deduplicate and that mixes both storage tiers
— the state an earlier design treated as an edge case and served from a
second, per-entry scan path.  These tests pin that fact, and that the
one array scan path answers it correctly end to end.
"""

import pytest

from benchmarks.bench_e3_querying import PREDEFINED
from benchmarks.perf.workloads import DICE_PROGRAMS, ROLLUP_PROGRAMS
from repro.data import small_demo
from repro.demo import MARY_QL, enrich
from repro.olap import NativeOLAPEngine, compare_results, extract_star_schema
from repro.rdf import Dataset
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.sparql import PROBE_COUNTER, LocalEndpoint
from repro.sparql import evaluator as evaluator_module

#: E3's predefined programs plus E6's demo query and the contract
#: benchmark's five roll-ups and five dices, both translations
PROGRAMS = dict(PREDEFINED, mary=MARY_QL, **ROLLUP_PROGRAMS, **DICE_PROGRAMS)
CASES = [(name, variant) for name in sorted(PROGRAMS)
         for variant in ("direct", "optimized")]

#: a FILTER in the pattern: not a plain BGP, the executor declines
FILTERED = {"mary", "africa_france", "asia_germany", "or_destinations",
            "three_way_and"}
#: a measure dice after the roll-up: HAVING, so the direct text takes
#: the general parallel path (worker rows, one partial in the parent)
HAVING = {"busy_destinations", "busy_continent_year",
          "not_continent_and_measure"}


@pytest.fixture(scope="module")
def fresh():
    return enrich(small_demo(observations=1200, seed=33))


@pytest.fixture(scope="module")
def native(fresh):
    star, _ = extract_star_schema(fresh.endpoint, fresh.schema)
    return NativeOLAPEngine(star)


def test_generated_cube_overlaps_and_mixes_tiers(fresh):
    dataset = fresh.endpoint.dataset
    assert not dataset.graphs_disjoint
    pinned = dataset.snapshot()
    members = [pinned.default, *pinned.graphs()]
    stored = sum(len(graph) for graph in members)
    distinct = len(fresh.endpoint.dataset.union())
    assert distinct < stored  # triples really are stored twice
    layouts = [graph.tier_sizes() for graph in members if len(graph)]
    assert any(columns and not overlay for columns, overlay, _ in layouts)
    assert any(overlay and not columns for columns, overlay, _ in layouts)


@pytest.mark.parametrize("name,variant", CASES)
def test_ql_agrees_with_native_engine(fresh, native, name, variant):
    result = fresh.engine.execute(PROGRAMS[name], variant=variant)
    outcome = compare_results(result.cube,
                              native.evaluate(result.simplified))
    assert outcome.equal, outcome.explain()


@pytest.mark.parametrize("name,variant", CASES)
def test_streaming_switch_changes_nothing(fresh, monkeypatch, name, variant):
    program = PROGRAMS[name]
    with PROBE_COUNTER as counter:
        streamed = fresh.engine.execute(program, variant=variant)
        probes = counter.entries
    monkeypatch.setattr(evaluator_module, "STREAMING_ENABLED", False)
    with PROBE_COUNTER as counter:
        materialized = fresh.engine.execute(program, variant=variant)
        assert counter.entries == probes
    assert streamed.table.rows == materialized.table.rows


@pytest.fixture(scope="module")
def parallel(fresh):
    """A 2-worker endpoint over the cube's union copied into one
    compacted graph (morsels are per-member ranges, so the executor
    declines an overlapping union), with one-row morsels so that
    every fan-out has several partials to merge."""
    merged = Dataset()
    merged.default.add_all(fresh.endpoint.dataset.union())
    merged.default.compact()
    endpoint = LocalEndpoint(merged, parallel=2, parallel_threshold=1)
    endpoint.parallel_executor.morsel_rows = 1
    yield endpoint
    endpoint.close()
    assert SHM_SEGMENTS.empty


@pytest.mark.parametrize("name,variant", CASES)
def test_parallel_routes_change_nothing(fresh, parallel, name, variant):
    """The generated SPARQL answers byte-identically through the
    worker push-down (plain roll-ups, and the roll-up sub-SELECT every
    optimized text wraps), the general parallel path (HAVING) and the
    serial decline (FILTER) — counted as they were before aggregation
    had one implementation."""
    text = getattr(fresh.engine.execute(
        PROGRAMS[name], variant=variant).translation, variant)
    telemetry = parallel.parallel_executor.telemetry
    before = dict(telemetry)
    serial, fanned = fresh.endpoint.select(text), parallel.select(text)
    assert (serial.vars, serial.rows) == (fanned.vars, fanned.rows)
    ran = 0 if name in FILTERED else 1
    pushed = 0 if variant == "direct" and name in HAVING else ran
    assert telemetry["queries"] - before["queries"] == ran
    assert telemetry["agg_pushdown"] - before["agg_pushdown"] == pushed
    assert not ran or telemetry["morsels"] - before["morsels"] > 1


def test_limit_query_streams_over_the_overlapping_union(fresh, monkeypatch):
    """The streaming first-step scan reads the deduplicated union too."""
    query = """
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?c WHERE { ?s rdf:type ?c } LIMIT 40"""
    streamed = fresh.endpoint.select(query)
    monkeypatch.setattr(evaluator_module, "STREAMING_ENABLED", False)
    assert streamed.rows == fresh.endpoint.select(query).rows
    assert len(set(streamed.rows)) == len(streamed.rows) == 40
