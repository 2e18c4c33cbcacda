"""Synthetic data generator tests: determinism, structure, noise."""

import pytest

from repro.data import (
    DATASET_IRI,
    DIMENSION_PROPERTIES,
    GeneratorConfig,
    ReferenceConfig,
    build_demo_endpoint,
    build_qb_graph,
    build_reference_graph,
    small_demo,
)
from repro.data import geography as geo
from repro.data.eurostat import DSD_IRI
from repro.data.namespaces import (
    DIC_CITIZEN,
    PROPERTY,
    QB_GRAPH,
    REF_PROP,
    REFERENCE_GRAPH,
)
from repro.qb import check_graph, normalize_graph
from repro.qb import vocabulary as qb
from repro.rdf import IRI
from repro.rdf.ntriples import serialize_ntriples


class TestGeography:
    def test_tables_consistent(self):
        for country in geo.CITIZENSHIP_COUNTRIES + geo.DESTINATION_COUNTRIES:
            assert country.continent in geo.CONTINENTS
            assert country.government in geo.GOVERNMENT_KINDS
            assert country.population > 0

    def test_unique_codes(self):
        codes = [c.code for c in geo.CITIZENSHIP_COUNTRIES]
        assert len(codes) == len(set(codes))
        codes = [c.code for c in geo.DESTINATION_COUNTRIES]
        assert len(codes) == len(set(codes))

    def test_month_quarter_year_mapping(self):
        assert geo.month_to_quarter("2013M01") == "2013Q1"
        assert geo.month_to_quarter("2014M12") == "2014Q4"
        assert geo.quarter_to_year("2014Q3") == "2014"
        assert len(geo.MONTHS) == 24
        assert len(geo.QUARTERS) == 8
        assert geo.YEARS == ["2013", "2014"]

    def test_continent_diversity_of_citizenship(self):
        continents = {c.continent for c in geo.CITIZENSHIP_COUNTRIES}
        assert len(continents) == 6


class TestQBGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(observations=200, seed=5)
        g1 = build_qb_graph(config)
        g2 = build_qb_graph(GeneratorConfig(observations=200, seed=5))
        assert serialize_ntriples(g1) == serialize_ntriples(g2)

    def test_seed_changes_output(self):
        g1 = build_qb_graph(GeneratorConfig(observations=200, seed=1))
        g2 = build_qb_graph(GeneratorConfig(observations=200, seed=2))
        assert serialize_ntriples(g1) != serialize_ntriples(g2)

    def test_observation_count(self):
        graph = build_qb_graph(GeneratorConfig(observations=500, seed=1))
        assert len(list(graph.subjects(qb.dataSet, DATASET_IRI))) == 500

    def test_qb_well_formed(self):
        # IC-4 only: the dimensions declare no rdfs:range, as in the
        # real Eurostat dump
        graph = build_qb_graph(GeneratorConfig(observations=400, seed=9))
        normalize_graph(graph)
        assert check_graph(graph).violations == ["IC-4"]

    def test_six_dimensions_one_measure(self):
        graph = build_qb_graph(GeneratorConfig(observations=50, seed=1))
        components = list(graph.objects(DSD_IRI, qb.component))
        dimensions = sorted(
            (graph.value(node, qb.order, None).value, prop)
            for node in components
            for prop in graph.objects(node, qb.dimension))
        measures = [prop for node in components
                    for prop in graph.objects(node, qb.measure)]
        assert tuple(prop for _, prop in dimensions) == DIMENSION_PROPERTIES
        assert len(measures) == 1

    def test_skew_syria_dominates(self):
        graph = build_qb_graph(GeneratorConfig(observations=3000, seed=4))
        counts = {}
        for _, _, member in graph.triples((None, PROPERTY.citizen, None)):
            counts[member] = counts.get(member, 0) + 1
        top = max(counts, key=counts.get)
        assert top == DIC_CITIZEN.SY


class TestReferenceGraph:
    def test_clean_reference_is_functional(self):
        graph = build_reference_graph(ReferenceConfig(noise_rate=0.0))
        for country in geo.CITIZENSHIP_COUNTRIES:
            member = DIC_CITIZEN[country.code]
            continents = list(graph.objects(member, REF_PROP.continent))
            assert len(continents) == 1

    def test_noise_rate_degrades_links(self):
        noisy = build_reference_graph(ReferenceConfig(noise_rate=0.3))
        bad = 0
        for country in geo.CITIZENSHIP_COUNTRIES:
            member = DIC_CITIZEN[country.code]
            links = list(noisy.objects(member, REF_PROP.continent))
            if len(links) != 1:
                bad += 1
        expected = int(round(0.3 * len(geo.CITIZENSHIP_COUNTRIES)))
        assert bad == expected

    def test_noise_deterministic(self):
        a = build_reference_graph(ReferenceConfig(noise_rate=0.2, seed=3))
        b = build_reference_graph(ReferenceConfig(noise_rate=0.2, seed=3))
        assert serialize_ntriples(a) == serialize_ntriples(b)

    def test_time_chain_complete(self):
        graph = build_reference_graph()
        from repro.data.namespaces import DIC_TIME
        from repro.data.reference import quarter_iri, year_iri
        month = DIC_TIME["2013M05"]
        quarter = graph.value(month, REF_PROP.quarter, None)
        assert quarter == quarter_iri("2013Q2")
        year = graph.value(quarter, REF_PROP.year, None)
        assert year == year_iri("2013")

    def test_destination_political_links(self):
        graph = build_reference_graph()
        from repro.data.namespaces import DIC_GEO
        de = DIC_GEO.DE
        assert graph.value(de, REF_PROP.politicalOrganization, None) is not None
        assert graph.value(de, REF_PROP.euMembership, None) is not None


class TestLoaders:
    def test_build_demo_endpoint(self):
        demo = build_demo_endpoint(observations=300, seed=2)
        sizes = demo.endpoint.graph_sizes()
        assert sizes[QB_GRAPH.value] > 300 * 8
        assert sizes[REFERENCE_GRAPH.value] > 100
        assert demo.observations == 300

    def test_small_demo_strata(self):
        demo = small_demo(observations=200)
        graph = demo.endpoint.graph(QB_GRAPH)
        members = {member for _, _, member
                   in graph.triples((None, PROPERTY.citizen, None))}
        continents = set()
        by_code = {c.code: c.continent for c in geo.CITIZENSHIP_COUNTRIES}
        for member in members:
            continents.add(by_code[member.local_name()])
        assert len(continents) >= 4  # stratified subset stays diverse

    def test_without_reference(self):
        demo = build_demo_endpoint(observations=100, include_reference=False)
        assert REFERENCE_GRAPH.value not in demo.endpoint.graph_sizes()
