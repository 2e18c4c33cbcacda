"""Cubes that break the observation star.

A well-formed cube makes every build side of the translated star
unique-keyed over one subject set: each observation holds each
dimension exactly once (IC-11, IC-12), so the join kernel's key
directory never has to sort.  These tests pin the other case, the one
the kernel must fall back on: one observation *lacks* its citizenship
triple (an absent key: the row drops out of the roll-up) and another
carries it *twice* (a repeated key: the row is counted once per value)
— which also makes it a duplicate of the observation that holds the
second value alone.  The SPARQL integrity suite flags both, and the
translated roll-up answers exactly what the row-at-a-time join step
(``tests/sparql/reference_join.py``) answers, whichever storage tier
the triples sit in.
"""

import pytest

from repro.data import small_demo
from repro.data.namespaces import DATA, PROPERTY, QB_GRAPH, REFERENCE_GRAPH
from repro.demo import enrich
from repro.ql import QLEngine
from repro.qb.constraints import STATIC_CONSTRAINTS, check_constraint
from repro.qb.normalize import normalize_graph
from repro.rdf import Dataset
from repro.rdf import graph as graph_module
from repro.rdf.namespace import QB, SDMX_MEASURE, SKOS
from repro.sparql import LocalEndpoint
from repro.sparql.evaluator_steps import JoinSteps, _base_pattern

from tests.sparql.reference_join import ReferenceJoin

#: applications per continent of citizenship, every other dimension
#: sliced away: one star step per remaining dimension, one member hop
PROGRAM = """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := SLICE ($C4, schema:timeDim);
$C6 := ROLLUP ($C5, schema:citizenshipDim, schema:continent);
"""
CHECKS = {check.ic: check for check in STATIC_CONSTRAINTS}


def constraints(graph):
    """Whether ``graph`` (normalized first) violates IC-11 / IC-12."""
    probe = graph.copy()
    normalize_graph(probe)
    return tuple(check_constraint(probe, CHECKS[ic])
                 for ic in ("IC-11", "IC-12"))


def totals(table):
    """``{continent: total}`` of the roll-up's result table."""
    return {continent: int(total.lexical) for continent, total in table.rows}


@pytest.fixture(scope="module")
def cube():
    """The demo cube with three observations edited: ``lacking`` lost
    its citizenship, ``doubled`` gained a second one on another
    continent, ``twin`` is a new copy of ``doubled`` holding the second
    value only.  Returns the edited demo and the answer the edits must
    leave: the clean one, less ``lacking`` and plus ``doubled`` and its
    twin under the second value's continent."""
    demo = enrich(small_demo(observations=150, seed=11))
    clean = totals(demo.engine.execute(PROGRAM).table)
    graph = demo.endpoint.graph(QB_GRAPH)
    assert constraints(graph) == (False, False)
    union = demo.endpoint.dataset.union()

    def continent(observation):
        country = graph.value(observation, PROPERTY.citizen)
        return union.value(country, SKOS.broader)

    def measure(observation):
        return int(graph.value(observation, SDMX_MEASURE.obsValue).lexical)

    observations = sorted(graph.subjects(QB.dataSet, None), key=str)
    lacking, doubled = observations[3], observations[7]
    donor = next(other for other in observations
                 if continent(other) != continent(doubled))
    second = graph.value(donor, PROPERTY.citizen)
    twin = DATA["migr_asyappctzm/OBS_twin"]
    expected = dict(clean)
    expected[continent(lacking)] -= measure(lacking)
    expected[continent(donor)] += 2 * measure(doubled)
    for _s, predicate, value in list(graph.triples((doubled, None, None))):
        graph.add(twin, predicate,
                  second if predicate == PROPERTY.citizen else value)
    graph.add(doubled, PROPERTY.citizen, second)
    graph.remove((lacking, PROPERTY.citizen,
                  graph.value(lacking, PROPERTY.citizen)))
    assert expected != clean
    return demo, expected


def test_the_integrity_suite_flags_both(cube):
    demo, _expected = cube
    assert constraints(demo.endpoint.graph(QB_GRAPH)) == (True, True)


def row_at_a_time(self, pattern, source, table):
    """``JoinSteps._step_triple`` through the oracle, with the strategy
    the kernel would have chosen."""
    spec, _names, _dead = self._compile_positions(pattern.positions(), table)
    return ReferenceJoin(
        self._dict, self._prefer_hash(source, _base_pattern(spec), len(table))
    )._step_triple(pattern, source, table)


def layouts(demo, monkeypatch):
    """The cube's triples as ``(name, dataset)``: one compacted graph,
    one graph that is all overlay, and the observations (compacted)
    beside everything else (overlay) behind a two-member union."""
    dataset = demo.endpoint.dataset
    everything = list(dataset.union())
    compacted = Dataset()
    compacted.default.add_all(everything)
    compacted.default.compact()
    assert compacted.default.tier_sizes()[1:] == (0, 0)
    yield "compacted", compacted
    overlay = Dataset()
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "COMPACT_WRITE_THRESHOLD", 1 << 30)
        overlay.default.add_all(everything)
    assert overlay.default.tier_sizes()[0] == 0
    yield "overlay", overlay
    union = Dataset()
    union.default.add_all(dataset.graph(QB_GRAPH))
    union.default.compact()
    union.graph(REFERENCE_GRAPH).add_all(
        triple for triple in everything if triple not in union.default)
    assert len(union.union().members()) == 2
    yield "union", union


@pytest.mark.parametrize("variant", ["direct", "optimized"])
def test_the_roll_up_answers_as_the_row_at_a_time_join(cube, monkeypatch,
                                                       variant):
    demo, expected = cube
    for name, dataset in layouts(demo, monkeypatch):
        engine = QLEngine(LocalEndpoint(dataset), demo.schema)
        ours = engine.execute(PROGRAM, variant=variant).table
        with monkeypatch.context() as patch:
            patch.setattr(JoinSteps, "_step_triple", row_at_a_time)
            theirs = engine.execute(PROGRAM, variant=variant).table
        assert (ours.vars, ours.rows) == (theirs.vars, theirs.rows), name
        # the row that lacks the dimension dropped out; the one that
        # holds it twice (and its twin) counted under the second value
        assert totals(ours) == expected, name
