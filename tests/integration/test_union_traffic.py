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
from repro.rdf import Dataset, Graph
from repro.rdf.graph import UnionView
from repro.sparql import PROBE_COUNTER, LocalEndpoint
from repro.sparql.evaluator import GraphSource

from tests.sparql.reference_join import reference_keyed_matches
from tests.sparql.test_limit_window import run_both

#: E3's predefined programs plus E6's demo query and the contract
#: benchmark's five roll-ups and five dices, both translations
PROGRAMS = dict(PREDEFINED, mary=MARY_QL, **ROLLUP_PROGRAMS, **DICE_PROGRAMS)
CASES = [(name, variant) for name in sorted(PROGRAMS)
         for variant in ("direct", "optimized")]


@pytest.fixture(scope="module")
def fresh():
    return enrich(small_demo(observations=1200, seed=33))


@pytest.fixture(scope="module")
def native(fresh):
    star, _ = extract_star_schema(fresh.endpoint, fresh.schema)
    return NativeOLAPEngine(star)


def test_generated_cube_overlaps_and_mixes_tiers(fresh):
    dataset = fresh.endpoint.dataset
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
def test_limit_is_a_slice_of_the_full_answer(fresh, name, variant):
    """Each program's SPARQL with a window appended answers that slice
    of its full, ordered or grouped answer."""
    text = getattr(fresh.engine.execute(
        PROGRAMS[name], variant=variant).translation, variant)
    full = fresh.endpoint.select(text)
    window = fresh.endpoint.select(text + "\nLIMIT 7 OFFSET 2")
    assert window.rows == full.rows[2:9]


@pytest.mark.parametrize("name,variant", CASES)
def test_keyed_reads_count_what_reads_per_key_counted(fresh, monkeypatch,
                                                      name, variant):
    """A probe step reads all its keys at once; read one key at a time
    instead (the oracle), every query pulls exactly as many index
    entries and answers the same rows."""
    program = PROGRAMS[name]
    with PROBE_COUNTER as counter:
        keyed = fresh.engine.execute(program, variant=variant)
        entries = counter.entries
    monkeypatch.setattr(
        GraphSource, "match_arrays",
        lambda source, pattern: reference_keyed_matches(
            source.view.match_arrays, pattern))
    with PROBE_COUNTER as counter:
        per_key = fresh.engine.execute(program, variant=variant)
        assert counter.entries == entries
    assert keyed.table.rows == per_key.table.rows


@pytest.fixture(scope="module")
def merged(fresh):
    """The cube's distinct triples copied into one compacted graph: no
    union left to deduplicate, one column generation to scan."""
    dataset = Dataset()
    dataset.default.add_all(fresh.endpoint.dataset.union())
    dataset.default.compact()
    return LocalEndpoint(dataset)


@pytest.mark.parametrize("name,variant", CASES)
def test_one_compacted_graph_changes_nothing(fresh, merged, name, variant):
    """The generated SPARQL answers byte-identically over the
    overlapping union and over the same triples stored once: the
    union's deduplication is invisible to every query it serves."""
    text = getattr(fresh.engine.execute(
        PROGRAMS[name], variant=variant).translation, variant)
    union, single = fresh.endpoint.select(text), merged.select(text)
    assert (union.vars, union.rows) == (single.vars, single.rows)


def test_limit_reads_the_overlapping_union(fresh):
    """A LIMIT window is cut from the deduplicated union."""
    query = """
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?c WHERE { ?s rdf:type ?c } LIMIT 40"""
    answer, oracle = run_both(fresh.endpoint, query)
    assert answer.rows == oracle
    assert len(set(answer.rows)) == len(answer.rows) == 40


@pytest.mark.parametrize("name", sorted(ROLLUP_PROGRAMS))
def test_a_union_read_asks_the_member_holding_its_predicate(
        fresh, monkeypatch, name):
    """Every union read of a roll-up has a constant predicate, and one
    member graph holds it: the read asks that member alone, where
    asking every member would make five calls."""
    members = UnionView(fresh.endpoint.dataset).members()
    calls = {"union": 0, "member": 0}

    def counted(method, key):
        def wrapper(self, pattern=(None, None, None)):
            calls[key] += 1
            return method(self, pattern)
        return wrapper

    monkeypatch.setattr(UnionView, "match_arrays",
                        counted(UnionView.match_arrays, "union"))
    monkeypatch.setattr(Graph, "match_arrays",
                        counted(Graph.match_arrays, "member"))
    fresh.engine.execute(ROLLUP_PROGRAMS[name], variant="direct")
    assert len(members) == 5
    assert calls["union"] > 0
    assert calls["member"] == calls["union"]
