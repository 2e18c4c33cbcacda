"""Additional update-path edge cases."""

import pytest

from repro.rdf import BNode, IRI, Literal, Namespace
from repro.sparql import LocalEndpoint, QuerySyntaxError, UpdateError

EX = Namespace("http://example.org/")


@pytest.fixture
def endpoint():
    return LocalEndpoint()


class TestUpdateSequences:
    def test_multiple_operations_one_request(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p 1 } ;
        INSERT DATA { ex:a ex:q 2 } ;
        DELETE DATA { ex:a ex:p 1 }
        """)
        assert not endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ex:a ex:p 1 }")
        assert endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ex:a ex:q 2 }")

    def test_prefixes_shared_across_operations(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p 1 } ;
        INSERT DATA { ex:b ex:p 2 }
        """)
        assert len(endpoint.dataset) == 2

    def test_delete_nonexistent_is_noop(self, endpoint):
        n = endpoint.update(
            "DELETE DATA { <http://e/x> <http://e/p> 1 }")
        assert n == 0

    def test_modify_where_no_solutions(self, endpoint):
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?x ex:flag true } WHERE { ?x a ex:Ghost }
        """)
        assert n == 0

    def test_modify_unbound_template_var_skipped(self, endpoint):
        endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:p 1 }")
        # ?missing never binds: the quad is skipped, not an error
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?x ex:copy ?missing } WHERE { ?x ex:p ?v }
        """)
        assert n == 0

    def test_modify_skips_ill_formed_instantiation(self, endpoint):
        # SPARQL 1.1 Update §3.1.3: an instantiated triple with a literal
        # subject is left out; the rest of the template still goes in
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p "x" . ex:b ex:p ex:c }
        """)
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { ?v a ex:Thing . ?x ex:q ?v } WHERE { ?x ex:p ?v }
        """)
        assert n == 3  # ex:c a ex:Thing; ex:a ex:q "x"; ex:b ex:q ex:c
        assert endpoint.ask(
            "PREFIX ex: <http://example.org/> ASK { ex:c a ex:Thing }")

    def test_modify_skips_literal_predicate(self, endpoint):
        # a predicate bound to a literal is no RDF triple either, in an
        # INSERT template as in a DELETE one
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p "x" }
        """)
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        DELETE { ?x ?v ex:b } INSERT { ?x ?v ex:b } WHERE { ?x ex:p ?v }
        """)
        assert n == 0
        assert len(endpoint.dataset) == 1

    def test_insert_across_named_graphs(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { GRAPH ex:g { ex:a ex:p 1 } }
        """)
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT { GRAPH ex:h { ?s ex:copied ?v } }
        WHERE { GRAPH ex:g { ?s ex:p ?v } }
        """)
        h = endpoint.graph(IRI("http://example.org/h"))
        assert (EX.a, EX.copied, Literal(1)) in h

    def test_delete_from_all_graphs_when_unscoped(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA {
          ex:a ex:p 1
          GRAPH ex:g { ex:a ex:p 1 }
        }
        """)
        n = endpoint.update("""
        PREFIX ex: <http://example.org/>
        DELETE { ?s ex:p ?v } WHERE { ?s ex:p ?v }
        """)
        assert n == 2
        assert len(endpoint.dataset) == 0

    def test_create_then_clear_empty_graph(self, endpoint):
        endpoint.update("CREATE GRAPH <http://e/g>")
        assert endpoint.update("CLEAR GRAPH <http://e/g>") == 0


class TestDataBlocks:
    def test_base_resolves_relative_iris(self, endpoint):
        endpoint.update("BASE <http://e/> INSERT DATA { <s> <p> <o> }")
        assert (IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o")) \
            in endpoint.dataset.default

    def test_insert_data_takes_blank_nodes(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { _:b ex:p 1 . _:b ex:q [ ex:r 2 ] }
        """)
        graph = endpoint.dataset.default
        assert len(graph) == 3
        (node,) = set(graph.subjects(EX.p, Literal(1)))
        (inner,) = set(graph.objects(node, EX.q))
        assert isinstance(node, BNode) and isinstance(inner, BNode)
        assert (inner, EX.r, Literal(2)) in graph

    def test_one_label_is_one_node_per_request(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { _:b ex:p 1 } ;
        INSERT DATA { _:b ex:p 2 }
        """)
        endpoint.update(
            "PREFIX ex: <http://example.org/> INSERT DATA { _:b ex:p 3 }")
        graph = endpoint.dataset.default
        assert len(set(graph.subjects(EX.p, Literal(1)))
                   | set(graph.subjects(EX.p, Literal(2)))) == 1
        assert len(set(graph.subjects())) == 2

    def test_anonymous_node_is_not_a_label(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { _:anon1 ex:p 1 . _:1 ex:p 2 . ex:a ex:q [ ex:r 3 ] }
        """)
        assert len(set(endpoint.dataset.default.subjects())) == 4

    @pytest.mark.parametrize("data", [
        "_:b <http://e/p> 1", "[ <http://e/p> 1 ] <http://e/q> 2",
        "<http://e/a> <http://e/p> [ <http://e/q> 1 ]"])
    def test_delete_data_rejects_blank_nodes(self, endpoint, data):
        with pytest.raises(QuerySyntaxError, match="blank nodes"):
            endpoint.update(f"DELETE DATA {{ {data} }}")

    def test_collection_matches_inserted_list(self, endpoint):
        endpoint.update("""
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:list (1 2) . ex:b ex:list (1 3) .
                      ex:c ex:list () }
        """)
        assert len(endpoint.dataset.default) == 2 * (1 + 2 * 2) + 1
        rows = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { ?s ex:list (1 2) }
        """).rows
        assert rows == [(EX.a,)]
        rows = endpoint.select("""
        PREFIX ex: <http://example.org/>
        SELECT ?s WHERE { ?s ex:list () }
        """).rows
        assert rows == [(EX.c,)]

    def test_bad_escape_is_a_syntax_error(self, endpoint):
        with pytest.raises(QuerySyntaxError, match=r"unknown escape: \\q"):
            endpoint.select('SELECT ?s WHERE { ?s ?p "\\q" }')
        with pytest.raises(QuerySyntaxError):
            endpoint.update('INSERT DATA { <http://e/a> <http://e/p> "\\q" }')
        assert endpoint.statistics.internal_errors == 0

    @pytest.mark.parametrize("request_text", [
        "INSERT DATA { <http://e/a> <http://e/p>/<http://e/q> 1 }",
        "INSERT { ?s ^<http://e/p> 1 } WHERE { ?s ?p ?o }",
        "DELETE WHERE { ?s <http://e/p>* ?o }"])
    def test_templates_take_no_property_paths(self, endpoint, request_text):
        with pytest.raises(QuerySyntaxError, match="property paths"):
            endpoint.update(request_text)
