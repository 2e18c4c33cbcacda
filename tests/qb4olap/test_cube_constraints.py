"""The QB4OLAP rows of the constraint table agree with the Python
walker they replaced (``reference_validator.py``), verdict for verdict
and rate for rate, on the same triples.

The oracle is ``validate_schema(read_cube_schema(graph, ...))`` plus
``validate_instances(graph, ...)``.  Both reach a cube's dimensions
through its DSD's levels, and both read a blank-node hierarchy as they
read an IRI one.
"""

import pytest

from repro.demo import prepare_enriched_demo
from repro.enrichment import EnrichmentConfig
from repro.qb import step_error_rates
from repro.qb import vocabulary as qb
from repro.qb4olap import member_triples, read_cube_schema, schema_triples
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
)
from repro.rdf import BNode, Graph, Namespace
from repro.rdf.namespace import RDF, SKOS

from tests.qb4olap.cube_rows import cube_graph, cube_report
from tests.qb4olap.reference_validator import (
    validate_instances,
    validate_schema,
)

EX = Namespace("http://example.org/")


def clean_schema():
    s = CubeSchema(dsd=EX.dsd, dataset=EX.ds)
    s.dimensions = [Dimension(EX.timeDim, [Hierarchy(
        EX.timeHier, EX.timeDim,
        levels=[EX.month, EX.year],
        steps=[HierarchyStep(EX.month, EX.year, qb4o.MANY_TO_ONE)])])]
    s.dimension_levels[EX.timeDim] = EX.month
    s.measures = [Measure(EX.amount, qb4o.SUM)]
    return s


def clean_triples():
    """The clean cube's schema plus four months rolling up to two
    years."""
    triples = schema_triples(clean_schema())
    for i in range(4):
        triples += member_triples(EX[f"m{i}"], EX.month,
                                  parent=(EX.y2013, EX.y2014)[i % 2])
    triples += member_triples(EX.y2013, EX.year)
    triples += member_triples(EX.y2014, EX.year)
    return triples


def without(predicate, obj=None, subject=None):
    return lambda triples: [t for t in triples if not (
        t[1] == predicate and obj in (None, t[2])
        and subject in (None, t[0]))]


def replacing(predicate, obj):
    return lambda triples: [(s, p, obj if p == predicate else o)
                            for s, p, o in triples]


def adding(*extra):
    return lambda triples: triples + list(extra)


def step(child, parent):
    node = BNode()
    return [(node, RDF.type, qb4o.HierarchyStep),
            (node, qb4o.inHierarchy, EX.timeHier),
            (node, qb4o.childLevel, child),
            (node, qb4o.parentLevel, parent),
            (node, qb4o.pcCardinality, qb4o.MANY_TO_ONE)]


def degenerate_level():
    node = BNode()
    return [(EX.dsd, qb.component, node), (node, qb4o.level, EX.sex),
            *member_triples(EX.female, EX.sex)]


def blank_hierarchy(triples):
    """The clean cube with its hierarchy named by a blank node."""
    node = BNode("timeHier")
    return [tuple(node if term == EX.timeHier else term for term in triple)
            for triple in triples]


def no_dimension(triples):
    return without(qb4o.inDimension)(without(qb4o.level)(triples))


#: name → (edit of the clean triples, tolerance, codes both report)
CASES = {
    "clean": (list, 0.0, set()),
    "no measure": (without(qb.measure), 0.0, {"Q4-MEASURE"}),
    "unknown aggregate": (
        replacing(qb4o.aggregateFunction, EX.bogus), 0.0, {"Q4-AGG"}),
    "no dimension": (no_dimension, 0.0, {"Q4-DIM"}),
    "blank-node hierarchy": (blank_hierarchy, 0.0, set()),
    "hierarchy without levels": (
        adding((EX.timeHier2, RDF.type, qb4o.Hierarchy),
               (EX.timeHier2, qb4o.inDimension, EX.timeDim),
               (EX.timeDim, qb4o.hasHierarchy, EX.timeHier2)),
        0.0, {"Q4-LEVELS"}),
    "step outside its hierarchy": (
        adding(*step(EX.month, EX.alien)), 0.0, {"Q4-STEP", "Q4I-FUNC"}),
    "unknown cardinality": (
        replacing(qb4o.pcCardinality, EX.sometimes), 0.0, {"Q4-CARD"}),
    "self step": (
        adding(*step(EX.month, EX.month)), 0.0,
        {"Q4-SELF", "Q4-CYCLE", "Q4I-FUNC"}),
    "cycle": (
        adding(*step(EX.year, EX.month)), 0.0, {"Q4-CYCLE", "Q4I-FUNC"}),
    "empty level": (
        without(qb4o.memberOf, EX.year), 0.0, {"Q4I-EMPTY", "Q4I-FUNC"}),
    "missing parent": (
        without(SKOS.broader, subject=EX.m0), 0.0, {"Q4I-FUNC"}),
    "missing parent within tolerance": (
        without(SKOS.broader, subject=EX.m0), 0.3, set()),
    "second parent": (
        adding((EX.m0, SKOS.broader, EX.y2014)), 0.0, {"Q4I-FUNC"}),
    "parent outside the parent level": (
        adding((EX.m1, SKOS.broader, EX.m2)), 0.0, set()),
    # the reader repairs these, so no row states them
    "missing aggregate (read as SUM)": (
        without(qb4o.aggregateFunction), 0.0, set()),
    "missing cardinality (read as ManyToOne)": (
        without(qb4o.pcCardinality), 0.0, set()),
    "DSD level in no hierarchy (read as a degenerate dimension)": (
        adding(*degenerate_level()), 0.0, set()),
}


def graph_of(triples):
    graph = Graph()
    graph.add_all(triples)
    return graph


def rows_verdict(graph, dsd, tolerance):
    return (set(cube_report(graph, dsd, tolerance).violations),
            step_error_rates(graph, dsd))


def oracle_verdict(graph, dataset, dsd, tolerance):
    schema = read_cube_schema(graph, dataset, dsd)
    instances = validate_instances(graph, schema,
                                   functional_tolerance=tolerance)
    codes = {violation.code for violation
             in validate_schema(schema) + instances.violations}
    return codes, instances.step_error_rates


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_agree_with_the_oracle(case):
    edit, tolerance, expected = CASES[case]
    graph = graph_of(edit(clean_triples()))
    rows = rows_verdict(graph, EX.dsd, tolerance)
    assert rows == oracle_verdict(graph, EX.ds, EX.dsd, tolerance)
    assert rows[0] == expected


def test_a_blank_node_hierarchy_reads_like_an_iri_one():
    """The dimension keeps its hierarchy, so its DSD level can roll up."""
    schema = read_cube_schema(graph_of(blank_hierarchy(clean_triples())),
                              EX.ds)
    dimension = schema.require_dimension(EX.timeDim)
    [hierarchy] = dimension.hierarchies
    assert hierarchy.iri == BNode("timeHier")
    assert hierarchy.name == "_:timeHier"
    assert hierarchy.levels == [EX.month, EX.year]
    assert hierarchy.path_up(EX.month, EX.year) == [EX.month, EX.year]
    assert schema.dimension_levels == {EX.timeDim: EX.month}
    assert "Hierarchy _:timeHier" in schema.describe()


def test_step_rates_of_the_fixtures():
    clean = graph_of(clean_triples())
    assert step_error_rates(clean, EX.dsd) == {(EX.month, EX.year): 0.0}
    missing, _, _ = CASES["missing parent"]
    assert step_error_rates(graph_of(missing(clean_triples())), EX.dsd) \
        == {(EX.month, EX.year): 0.25}
    # with the parent level empty, every child member breaks the step
    empty, _, _ = CASES["empty level"]
    assert step_error_rates(graph_of(empty(clean_triples())), EX.dsd) \
        == {(EX.month, EX.year): 1.0}


def test_rows_read_only_their_own_dsd():
    """A second DSD in the graph (the plain-QB one the union holds)
    breaks none of this cube's rows, and its own rows see its own
    components."""
    plain = [(EX.plainDsd, RDF.type, qb.DataStructureDefinition),
             (EX.plainDsd, qb.component, EX.plainComponent),
             (EX.plainComponent, qb.dimension, EX.timeDim)]
    graph = graph_of(clean_triples() + plain)
    assert cube_report(graph, EX.dsd).violations == []
    assert set(cube_report(graph, EX.plainDsd).violations) \
        == {"Q4-MEASURE", "Q4-DIM"}


@pytest.mark.parametrize("noise, threshold, tolerance", [
    (0.0, 0.0, 0.0), (0.25, 0.3, 0.0), (0.25, 0.3, 0.3)])
def test_rows_agree_on_the_enriched_demo(noise, threshold, tolerance):
    demo = prepare_enriched_demo(
        2000, noise_rate=noise,
        config=EnrichmentConfig(quasi_fd_threshold=threshold))
    graph = cube_graph(demo.endpoint)
    rows = rows_verdict(graph, demo.schema.dsd, tolerance)
    assert rows == oracle_verdict(graph, demo.data.dataset,
                                  demo.schema.dsd, tolerance)
    codes, rates = rows
    assert len(rates) == 4
    worst = max(rates.values())
    assert (worst > 0) == bool(noise)
    assert codes == ({"Q4I-FUNC"} if worst > tolerance else set())
