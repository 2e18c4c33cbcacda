"""Tests for the W3C QB normalization algorithm (spec §10)."""

import pytest

from repro.qb import vocabulary as qb
from repro.qb.normalize import (
    ALL_UPDATES,
    PHASE1_UPDATES,
    PHASE2_UPDATES,
    is_normalized,
    normalize_endpoint,
    normalize_graph,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint

EX = Namespace("http://example.org/")

PREFIXES = """\
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix ex: <http://example.org/> .
"""


def graph_of(turtle: str) -> Graph:
    endpoint = LocalEndpoint()
    endpoint.load_trig(PREFIXES + turtle)
    return endpoint.dataset.default


class TestPhase1:
    def test_observation_type_from_dataset_link(self):
        graph = graph_of("ex:o1 qb:dataSet ex:ds .")
        added = normalize_graph(graph)
        assert (EX.o1, RDF.type, qb.Observation) in graph
        assert (EX.ds, RDF.type, qb.DataSet) in graph
        assert added == 2

    def test_observation_type_from_slice_observation(self):
        graph = graph_of("ex:s1 qb:observation ex:o1 .")
        normalize_graph(graph)
        assert (EX.o1, RDF.type, qb.Observation) in graph

    def test_slice_type_from_slice_link(self):
        graph = graph_of("ex:ds qb:slice ex:s1 .")
        normalize_graph(graph)
        assert (EX.s1, RDF.type, qb.SliceClass) in graph

    def test_dimension_closure(self):
        graph = graph_of("ex:c1 qb:dimension ex:dim .")
        normalize_graph(graph)
        assert (EX.c1, qb.componentProperty, EX.dim) in graph
        assert (EX.dim, RDF.type, qb.DimensionProperty) in graph

    def test_measure_closure(self):
        graph = graph_of("ex:c1 qb:measure ex:val .")
        normalize_graph(graph)
        assert (EX.c1, qb.componentProperty, EX.val) in graph
        assert (EX.val, RDF.type, qb.MeasureProperty) in graph

    def test_attribute_closure(self):
        graph = graph_of("ex:c1 qb:attribute ex:unit .")
        normalize_graph(graph)
        assert (EX.c1, qb.componentProperty, EX.unit) in graph
        assert (EX.unit, RDF.type, qb.AttributeProperty) in graph


class TestPhase2:
    def test_dataset_attachment_pushed_to_observations(self):
        graph = graph_of("""
            ex:dsd qb:component [ qb:attribute ex:unit ;
                                  qb:componentAttachment qb:DataSet ] .
            ex:ds qb:structure ex:dsd ; ex:unit ex:tonnes .
            ex:o1 qb:dataSet ex:ds .
            ex:o2 qb:dataSet ex:ds .
        """)
        normalize_graph(graph)
        assert (EX.o1, EX.unit, EX.tonnes) in graph
        assert (EX.o2, EX.unit, EX.tonnes) in graph

    def test_slice_attachment_pushed_to_slice_observations(self):
        graph = graph_of("""
            ex:dsd qb:component [ qb:attribute ex:status ;
                                  qb:componentAttachment qb:Slice ] .
            ex:ds qb:structure ex:dsd ; qb:slice ex:s1 .
            ex:s1 ex:status ex:final ; qb:observation ex:o1 .
        """)
        normalize_graph(graph)
        assert (EX.o1, EX.status, EX.final) in graph

    def test_slice_dimensions_pushed_down(self):
        """Dimensions fixed on a slice hold for its observations."""
        graph = graph_of("""
            ex:dsd qb:component [ qb:dimension ex:year ] .
            ex:ds qb:structure ex:dsd ; qb:slice ex:s1 .
            ex:s1 ex:year ex:y2013 ; qb:observation ex:o1 .
        """)
        normalize_graph(graph)
        assert (EX.o1, EX.year, EX.y2013) in graph

    def test_unattached_component_not_pushed(self):
        graph = graph_of("""
            ex:dsd qb:component [ qb:attribute ex:unit ] .
            ex:ds qb:structure ex:dsd ; ex:unit ex:tonnes .
            ex:o1 qb:dataSet ex:ds .
        """)
        normalize_graph(graph)
        assert (EX.o1, EX.unit, EX.tonnes) not in graph


class TestAlgorithm:
    def test_idempotent(self):
        graph = graph_of("""
            ex:dsd qb:component [ qb:dimension ex:dim ],
                                [ qb:measure ex:val ] .
            ex:ds qb:structure ex:dsd .
            ex:o1 qb:dataSet ex:ds ; ex:dim ex:a ; ex:val 3 .
        """)
        first = normalize_graph(graph)
        assert first > 0
        second = normalize_graph(graph)
        assert second == 0

    def test_is_normalized(self):
        graph = graph_of("ex:o1 qb:dataSet ex:ds .")
        assert not is_normalized(graph)
        normalize_graph(graph)
        assert is_normalized(graph)

    def test_is_normalized_does_not_mutate(self):
        graph = graph_of("ex:o1 qb:dataSet ex:ds .")
        before = len(graph)
        is_normalized(graph)
        assert len(graph) == before

    def test_endpoint_entry_point(self):
        endpoint = LocalEndpoint()
        endpoint.load_trig(PREFIXES + "ex:o1 qb:dataSet ex:ds .")
        added = normalize_endpoint(endpoint)
        assert added == 2
        assert endpoint.ask("""
            PREFIX qb: <http://purl.org/linked-data/cube#>
            ASK { <http://example.org/o1> a qb:Observation }
        """)

    def test_update_lists_are_disjoint_and_ordered(self):
        assert ALL_UPDATES == PHASE1_UPDATES + PHASE2_UPDATES
        assert len(set(ALL_UPDATES)) == len(ALL_UPDATES)

    def test_phase_selection(self):
        graph = graph_of("""
            ex:dsd qb:component [ qb:attribute ex:unit ;
                                  qb:componentAttachment qb:DataSet ] .
            ex:ds qb:structure ex:dsd ; ex:unit ex:tonnes .
            ex:o1 qb:dataSet ex:ds .
        """)
        from repro.rdf.graph import Dataset
        dataset = Dataset()
        dataset.default = graph
        endpoint = LocalEndpoint(dataset, default_as_union=False)
        normalize_endpoint(endpoint, phases=PHASE1_UPDATES)
        assert (EX.o1, EX.unit, EX.tonnes) not in graph  # phase 2 not run
        normalize_endpoint(endpoint, phases=PHASE2_UPDATES)
        assert (EX.o1, EX.unit, EX.tonnes) in graph
