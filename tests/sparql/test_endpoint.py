"""Endpoint behaviour: updates, statistics, limits, logs."""

import dataclasses

import pytest

from repro.rdf import IRI, Literal, Namespace, Triple
from repro.sparql import (
    EndpointError,
    EndpointLimits,
    EndpointStatistics,
    LocalEndpoint,
)

EX = Namespace("http://example.org/")


@pytest.fixture
def endpoint():
    return LocalEndpoint()


class TestUpdates:
    def test_insert_data_counts(self, endpoint):
        n = endpoint.update(
            "PREFIX ex: <http://example.org/> "
            "INSERT DATA { ex:a ex:p 1 . ex:a ex:q 2 }")
        assert n == 2
        assert endpoint.statistics.triples_inserted == 2

    def test_insert_duplicate_not_counted(self, endpoint):
        endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p 1 }")
        n = endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p 1 }")
        assert n == 0

    def test_delete_data(self, endpoint):
        endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p 1 }")
        n = endpoint.update(
            "PREFIX ex: <http://example.org/> DELETE DATA { ex:a ex:p 1 }")
        assert n == 1
        assert len(endpoint.dataset) == 0

    def test_modify_with_where(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:age 30 . ex:b ex:age 10 }
        """)
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?x ex:adult true } WHERE { ?x ex:age ?a FILTER(?a >= 18) }
        """)
        assert n == 1
        assert endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ex:a ex:adult true }")

    def test_delete_insert_rename(self, endpoint):
        endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:old 1 }")
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        DELETE { ?x ex:old ?v } INSERT { ?x ex:new ?v }
        WHERE { ?x ex:old ?v }
        """)
        assert not endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ?x ex:old ?v }")
        assert endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ex:a ex:new 1 }")

    def test_delete_where_shortcut(self, endpoint):
        endpoint.update(
            "PREFIX ex: <http://example.org/> "
            "INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 }")
        endpoint.update("DELETE WHERE { ?x <http://example.org/p> ?v }")
        assert len(endpoint.dataset) == 0

    def test_clear_graph(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { GRAPH ex:g { ex:a ex:p 1 } ex:b ex:q 2 }
        """)
        endpoint.update("CLEAR GRAPH <http://example.org/g>")
        assert len(endpoint.graph(IRI("http://example.org/g"))) == 0
        assert len(endpoint.dataset.default) == 1

    def test_clear_all(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { GRAPH ex:g { ex:a ex:p 1 } ex:b ex:q 2 }
        """)
        endpoint.update("CLEAR ALL")
        assert len(endpoint.dataset) == 0

    def test_with_graph_scopes_modify(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { GRAPH ex:g { ex:a ex:p 1 } }
        """)
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        WITH ex:g INSERT { ?s ex:copied true } WHERE { ?s ex:p ?v }
        """)
        g = endpoint.graph(IRI("http://example.org/g"))
        assert (EX.a, EX.copied, Literal(True)) in g

    def test_insert_template_with_bnode(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 }
        """)
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?x ex:wrapped _:w . _:w ex:value ?v }
        WHERE { ?x ex:p ?v }
        """)
        # each solution must get its own fresh blank node
        wrappers = set(endpoint.dataset.default.objects(None, EX.wrapped))
        assert len(wrappers) == 2


class TestEndpointInterface:
    def test_select_rejects_ask(self, endpoint):
        with pytest.raises(EndpointError):
            endpoint.select("ASK { ?s ?p ?o }")

    def test_ask_rejects_select(self, endpoint):
        with pytest.raises(EndpointError):
            endpoint.ask("SELECT * WHERE { ?s ?p ?o }")

    def test_statistics_accumulate(self, endpoint):
        endpoint.select("SELECT * WHERE { ?s ?p ?o }")
        endpoint.ask("ASK { ?s ?p ?o }")
        endpoint.update(
            "INSERT DATA { <http://e/a> <http://e/p> 1 }")
        stats = endpoint.statistics
        assert (stats.selects, stats.asks, stats.updates) == (1, 1, 1)
        endpoint.reset_statistics()
        assert endpoint.statistics.selects == 0

    def test_statistics_reset_in_place(self, endpoint):
        """``reset`` puts every field back to its default in place, so
        whoever holds the statistics object sees the reset too."""
        endpoint.select("SELECT * WHERE { ?s ?p ?o }")
        held = endpoint.statistics
        assert held.selects == 1
        for counter in dataclasses.fields(held):
            setattr(held, counter.name, 7)
        endpoint.reset_statistics()
        assert endpoint.statistics is held
        assert held == EndpointStatistics()
        assert (held.selects, held.internal_errors) == (0, 0)

    def test_query_log(self):
        ep = LocalEndpoint(keep_query_log=True)
        ep.select("SELECT * WHERE { ?s ?p ?o }")
        assert len(ep.query_log) == 1
        assert ep.query_log[0].kind == "select"

    def test_insert_triples_bulk(self, endpoint):
        n = endpoint.insert_triples(
            [Triple(EX.a, EX.p, Literal(i)) for i in range(5)],
            graph="http://example.org/bulk")
        assert n == 5
        assert endpoint.graph_sizes()["http://example.org/bulk"] == 5

    def test_max_result_rows_limit(self):
        ep = LocalEndpoint(limits=EndpointLimits(max_result_rows=2))
        ep.update(
            "PREFIX ex: <http://example.org/> "
            "INSERT DATA { ex:a ex:p 1, 2, 3 }")
        with pytest.raises(EndpointError):
            ep.select(
                "PREFIX ex: <http://example.org/> "
                "SELECT ?v WHERE { ex:a ex:p ?v }")

    def test_every_read_form_takes_the_one_read_path(self):
        """Each read method and ``query()`` parse once, count under
        their form's counter (CONSTRUCT / DESCRIBE as selects) and log
        their kind."""
        ep = LocalEndpoint(keep_query_log=True)
        ep.update("PREFIX ex: <http://example.org/> "
                  "INSERT DATA { ex:a ex:p 1 }")
        texts = {
            "select": "SELECT ?s WHERE { ?s ?p ?o }",
            "ask": "ASK { ?s ?p ?o }",
            "construct": "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",
            "describe": "DESCRIBE <http://example.org/a>",
        }
        for kind, text in texts.items():
            getattr(ep, kind)(text)
            ep.query(text)
            with pytest.raises(EndpointError):
                (ep.ask if kind == "select" else ep.select)(text)
        stats = ep.statistics
        assert (stats.parse_cache_misses, stats.parse_cache_hits) == (4, 8)
        assert (stats.selects, stats.asks) == (6, 2)
        assert [entry.kind for entry in ep.query_log[1:]] == [
            kind for kind in texts for _twice in range(2)]

    def test_forbid_having_limit(self):
        ep = LocalEndpoint(limits=EndpointLimits(forbid_having=True))
        with pytest.raises(EndpointError):
            ep.select("""
            SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }
            GROUP BY ?s HAVING(COUNT(?o) > 1)
            """)
        with pytest.raises(EndpointError):
            ep.query("""
            SELECT ?s WHERE { { SELECT ?s WHERE { ?s ?p ?o }
                                GROUP BY ?s HAVING(COUNT(?o) > 1) } }
            """)
        # plain queries still work, a "having" literal included
        assert len(ep.select("SELECT * WHERE { ?s ?p ?o }")) == 0
        assert len(ep.select(
            'SELECT ?x WHERE { ?x <http://ex/p> "having" }')) == 0
