"""Round-trip: CubeSchema → triples → CubeSchema."""

import pytest

from repro.rdf import Graph, IRI, Literal, Namespace
from repro.qb4olap import (
    member_triples,
    read_cube_schema,
    schema_triples,
    write_schema,
)
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
    SchemaError,
)
from repro.exploration.catalog import list_cubes
from repro.sparql import LocalEndpoint

EX = Namespace("http://example.org/")


def build_schema():
    s = CubeSchema(dsd=EX.dsdQB4O, dataset=EX.ds)
    time = Dimension(EX.timeDim, [Hierarchy(
        EX.timeHier, EX.timeDim,
        levels=[EX.month, EX.year],
        steps=[HierarchyStep(EX.month, EX.year, qb4o.MANY_TO_ONE)])])
    geo = Dimension(EX.geoDim, [Hierarchy(
        EX.geoHier, EX.geoDim, levels=[EX.country], steps=[])])
    s.dimensions = [geo, time]
    s.dimension_levels = {EX.timeDim: EX.month, EX.geoDim: EX.country}
    s.measures = [Measure(EX.amount, qb4o.SUM),
                  Measure(EX.rate, qb4o.AVG)]
    s.level_attributes[EX.country] = [EX.countryName]
    s.cardinalities[EX.month] = qb4o.MANY_TO_ONE
    return s


class TestWriter:
    def test_schema_triples_contain_structure(self):
        triples = schema_triples(build_schema())
        graph = Graph().add_all(triples)
        assert (EX.ds, None, None) in [(t.subject, None, None)
                                       for t in graph]
        assert (EX.timeDim, qb4o.hasHierarchy, EX.timeHier) in graph
        assert (EX.timeHier, qb4o.hasLevel, EX.month) in graph
        assert (EX.country, qb4o.hasAttribute, EX.countryName) in graph
        steps = list(graph.subjects(qb4o.childLevel, EX.month))
        assert len(steps) == 1

    def test_write_schema_counts(self):
        graph = Graph()
        added = write_schema(build_schema(), graph)
        assert added == len(graph) > 20

    def test_member_triples(self):
        triples = member_triples(
            EX.nigeria, EX.country, parent=EX.africa,
            attributes=[(EX.countryName, Literal("Nigeria"))])
        graph = Graph().add_all(triples)
        assert (EX.nigeria, qb4o.memberOf, EX.country) in graph
        assert (EX.nigeria, EX.countryName, Literal("Nigeria")) in graph
        assert len(graph) == 3


class TestReader:
    def test_roundtrip(self):
        original = build_schema()
        graph = Graph().add_all(schema_triples(original))
        restored = read_cube_schema(graph, EX.ds)
        assert restored.dsd == EX.dsdQB4O
        assert sorted(d.iri.value for d in restored.dimensions) == \
            sorted(d.iri.value for d in original.dimensions)
        time = restored.dimension(EX.timeDim)
        hierarchy = time.hierarchies[0]
        assert hierarchy.levels == [EX.month, EX.year]
        assert hierarchy.steps[0].child == EX.month
        assert hierarchy.steps[0].cardinality == qb4o.MANY_TO_ONE
        assert restored.bottom_level(EX.timeDim) == EX.month
        assert restored.attributes_of(EX.country) == [EX.countryName]
        aggregates = {m.iri: m.aggregate for m in restored.measures}
        assert aggregates == {EX.amount: qb4o.SUM, EX.rate: qb4o.AVG}

    def test_explicit_dsd_override(self):
        graph = Graph().add_all(schema_triples(build_schema()))
        restored = read_cube_schema(graph, EX.ds, dsd=EX.dsdQB4O)
        assert restored.dsd == EX.dsdQB4O

    def test_missing_structure_raises(self):
        with pytest.raises(SchemaError):
            read_cube_schema(Graph(), EX.ds)

    def test_degenerate_dimension_for_orphan_level(self):
        """A DSD level that no hierarchy mentions becomes a single-level
        dimension (how plain redefined cubes look before enrichment)."""
        schema = build_schema()
        graph = Graph().add_all(schema_triples(schema))
        # add an extra component with a level nobody declared
        from repro.rdf import BNode
        from repro.qb import vocabulary as qb
        node = BNode()
        graph.add(schema.dsd, qb.component, node)
        graph.add(node, qb4o.level, EX.sex)
        restored = read_cube_schema(graph, EX.ds)
        sex_dim = restored.dimension(EX.sex)
        assert sex_dim is not None
        assert restored.bottom_level(EX.sex) == EX.sex

    def test_list_cubes(self):
        endpoint = LocalEndpoint()
        endpoint.insert_triples(schema_triples(build_schema()))
        assert [info.dataset for info in list_cubes(endpoint)] == [EX.ds]
        assert list_cubes(LocalEndpoint()) == []
