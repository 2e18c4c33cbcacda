"""Tests for the asylum-decisions cube generator (second demo cube)."""

import pytest

from repro.qb import vocabulary as qb
from repro.qb import check_graph, normalize_graph
from repro.rdf.namespace import RDF, SDMX_DIMENSION
from repro.rdf.terms import IRI, Literal
from repro.data import eurostat
from repro.data.decisions import (
    DATASET_IRI,
    DECISION_CODES,
    DIC_DECISION,
    DIMENSION_PROPERTIES,
    DSD_IRI,
    DecisionsConfig,
    build_decisions_graph,
    member_iris,
)
from repro.data.namespaces import PROPERTY


@pytest.fixture(scope="module")
def graph():
    return build_decisions_graph(DecisionsConfig(observations=500))


class TestStructure:
    def test_dsd_declared(self, graph):
        assert (DSD_IRI, RDF.type, qb.DataStructureDefinition) in graph
        assert (DATASET_IRI, qb.structure, DSD_IRI) in graph

    def test_six_dimensions_one_measure(self, graph):
        components = list(graph.objects(DSD_IRI, qb.component))
        assert len(components) == 7
        dimensions = [
            value for component in components
            for value in graph.objects(component, qb.dimension)]
        assert len(dimensions) == 6
        assert PROPERTY.decision in dimensions

    def test_distinct_iris_from_applications_cube(self):
        assert DATASET_IRI != eurostat.DATASET_IRI
        assert DSD_IRI != eurostat.DSD_IRI

    def test_conformed_dimension_properties(self):
        shared = set(DIMENSION_PROPERTIES) & set(
            eurostat.DIMENSION_PROPERTIES)
        assert len(shared) == 5  # everything except decision/asyl_app

    def test_decision_members_labelled(self, graph):
        for code, _ in DECISION_CODES:
            labels = list(graph.objects(DIC_DECISION[code], None))
            assert labels, f"decision member {code} has no label"


class TestObservations:
    def test_observation_count(self, graph):
        observations = list(graph.subjects(qb.dataSet, DATASET_IRI))
        assert len(observations) == 500

    def test_every_observation_complete(self, graph):
        # IC-4 only: like the applications cube, no dimension declares
        # an rdfs:range
        working = graph.copy()
        normalize_graph(working)
        assert check_graph(working).violations == ["IC-4"]

    def test_deterministic(self):
        first = build_decisions_graph(DecisionsConfig(observations=200))
        second = build_decisions_graph(DecisionsConfig(observations=200))
        assert first == second

    def test_seed_changes_data(self):
        first = build_decisions_graph(
            DecisionsConfig(observations=200, seed=1))
        second = build_decisions_graph(
            DecisionsConfig(observations=200, seed=2))
        assert first != second

    def test_positive_share_tunes_outcomes(self):
        lopsided = build_decisions_graph(DecisionsConfig(
            observations=400, positive_share=0.95))
        rejected = sum(
            1 for _ in lopsided.subjects(
                PROPERTY.decision, DIC_DECISION["REJECTED"]))
        positive = sum(
            1 for code, _ in DECISION_CODES if code != "REJECTED"
            for _ in lopsided.subjects(PROPERTY.decision,
                                       DIC_DECISION[code]))
        assert positive > rejected * 3

    def test_member_iris_cover_all_dimensions(self):
        members = member_iris()
        assert set(members) == set(DIMENSION_PROPERTIES)
        assert len(members[PROPERTY.decision]) == len(DECISION_CODES)

    def test_members_shared_with_applications_cube(self):
        ours = member_iris()
        theirs = eurostat.member_iris()
        assert ours[PROPERTY.citizen] == theirs[PROPERTY.citizen]
        assert ours[SDMX_DIMENSION.refPeriod] \
            == theirs[SDMX_DIMENSION.refPeriod]
