"""External linked-data source tests (DBpedia stand-in path)."""

import pytest

from repro.rdf import Graph, IRI, Literal, Namespace
from repro.sparql import EndpointError, LocalEndpoint
from repro.data import small_demo
from repro.data.namespaces import PROPERTY, REF_PROP, REFERENCE_GRAPH
from repro.demo import PAPER_DIMENSION_NAMES
from repro.enrichment import (
    EnrichmentSession,
    ExternalSource,
    LEVEL,
    import_member_triples,
)

EX = Namespace("http://example.org/")


def external_source():
    """A fake DBpedia asserting currencies for two citizenship members."""
    from repro.data.namespaces import DIC_CITIZEN

    graph = Graph()
    dbo = Namespace("http://dbpedia.example.org/ontology/")
    graph.add(DIC_CITIZEN.SY, dbo.currency, EX.syp)
    graph.add(DIC_CITIZEN.NG, dbo.currency, EX.ngn)
    graph.add(EX.syp, dbo.currencyName, Literal("Syrian pound"))
    graph.add(EX.ngn, dbo.currencyName, Literal("Naira"))
    return ExternalSource.from_graph("dbpedia", graph)


class TestExternalSource:
    def test_describe_member(self):
        source = external_source()
        from repro.data.namespaces import DIC_CITIZEN
        triples = source.describe_member(DIC_CITIZEN.SY)
        assert len(triples) == 1
        assert triples[0].object == EX.syp

    def test_describe_literal_member_is_empty(self):
        assert external_source().describe_member(Literal("x")) == []

    def test_source_failure_is_a_typed_endpoint_error(self):
        from repro.data.namespaces import DIC_CITIZEN
        from repro.testing import faults
        source = external_source()
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(EndpointError) as info:
                source.describe_member(DIC_CITIZEN.SY)
        assert info.value.code == "internal_error"

    def test_failure_carries_the_source_query(self):
        from repro.data.namespaces import DIC_CITIZEN
        from repro.testing import faults
        source = external_source()
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(EndpointError) as info:
                source.describe_member(DIC_CITIZEN.SY)
        assert f"<{DIC_CITIZEN.SY.value}>" in info.value.query
        assert source.endpoint.statistics.internal_errors == 1

    def test_source_answers_after_a_failure(self):
        from repro.data.namespaces import DIC_CITIZEN
        from repro.testing import faults
        source = external_source()
        expected = source.describe_member(DIC_CITIZEN.SY)
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(EndpointError):
                source.describe_member(DIC_CITIZEN.SY)
        assert source.describe_member(DIC_CITIZEN.SY) == expected


class TestImport:
    def test_import_copies_and_follows_objects(self):
        source = external_source()
        local = LocalEndpoint()
        from repro.data.namespaces import DIC_CITIZEN
        count = import_member_triples(
            local, source, [DIC_CITIZEN.SY], target_graph=REFERENCE_GRAPH)
        graph = local.graph(REFERENCE_GRAPH)
        # the country triple plus the currency's own description
        assert count == 2
        assert (EX.syp, IRI("http://dbpedia.example.org/ontology/currencyName"),
                Literal("Syrian pound")) in graph

    def test_import_without_following(self):
        source = external_source()
        local = LocalEndpoint()
        from repro.data.namespaces import DIC_CITIZEN
        count = import_member_triples(
            local, source, [DIC_CITIZEN.SY], follow_objects=False)
        assert count == 1

    def test_failed_import_writes_nothing(self):
        """Every description is fetched before the one local insert, so
        a source failure on the second hop leaves the local endpoint
        untouched."""
        from repro.data.namespaces import DIC_CITIZEN
        from repro.testing import faults
        source = external_source()
        local = LocalEndpoint()
        with faults.failpoint("evaluator.step", raises=KeyError,
                              skip_first=1):
            with pytest.raises(EndpointError):
                import_member_triples(local, source, [DIC_CITIZEN.SY],
                                      target_graph=REFERENCE_GRAPH)
        assert len(local.dataset) == 0
        assert local.statistics.triples_inserted == 0
        assert local.statistics.internal_errors == 0


class TestSessionWithExternal:
    def test_external_candidates_appear_in_suggestions(self):
        demo = small_demo(observations=400)
        session = EnrichmentSession(
            demo.endpoint, demo.dataset, demo.dsd,
            dimension_names=PAPER_DIMENSION_NAMES)
        session.redefine()
        baseline_props = {c.prop for c in session.suggestions(PROPERTY.citizen)}

        # a second source asserts a (functional) legal-system property
        graph = Graph()
        law = Namespace("http://law.example.org/")
        for member in session.levels[PROPERTY.citizen].members:
            graph.add(member, law.legalSystem,
                      law[f"system{hash(member.value) % 2}"])
        session.attach_external(ExternalSource.from_graph("law", graph).endpoint)

        enriched_props = {c.prop: c for c in
                          session.suggestions(PROPERTY.citizen, refresh=True)}
        new_prop = IRI("http://law.example.org/legalSystem")
        assert new_prop not in baseline_props
        assert new_prop in enriched_props
        assert enriched_props[new_prop].kind == LEVEL
