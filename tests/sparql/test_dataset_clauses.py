"""FROM / FROM NAMED dataset-clause semantics (W3C §13)."""

import pytest

from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.evaluator import evaluate_query
from repro.sparql.parser import parse_query

EX = "http://example.org/"
G1 = IRI(EX + "g1")
G2 = IRI(EX + "g2")


@pytest.fixture()
def endpoint() -> LocalEndpoint:
    endpoint = LocalEndpoint()
    endpoint.dataset.default.add(
        IRI(EX + "d"), IRI(EX + "p"), Literal("default"))
    endpoint.dataset.graph(G1).add(
        IRI(EX + "a"), IRI(EX + "p"), Literal("one"))
    endpoint.dataset.graph(G2).add(
        IRI(EX + "b"), IRI(EX + "p"), Literal("two"))
    return endpoint


class TestFrom:
    def test_from_restricts_default_graph(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v FROM <{G1.value}> WHERE {{ ?s <{EX}p> ?v }}
        """)
        assert [row["v"].lexical for row in table] == ["one"]

    def test_multiple_from_merge(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v FROM <{G1.value}> FROM <{G2.value}>
            WHERE {{ ?s <{EX}p> ?v }}
        """)
        assert {row["v"].lexical for row in table} == {"one", "two"}

    def test_no_clause_sees_union(self, endpoint):
        table = endpoint.select(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v }}")
        assert len(table) == 3


class TestFromNamed:
    def test_graph_patterns_scoped_to_from_named(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?g ?v FROM NAMED <{G1.value}>
            WHERE {{ GRAPH ?g {{ ?s <{EX}p> ?v }} }}
        """)
        assert [(row["g"], row["v"].lexical) for row in table] \
            == [(G1, "one")]

    def test_only_from_named_makes_default_empty(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v FROM NAMED <{G1.value}>
            WHERE {{ ?s <{EX}p> ?v }}
        """)
        assert len(table) == 0

    def test_from_without_named_hides_graph_patterns(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v FROM <{G1.value}>
            WHERE {{ GRAPH ?g {{ ?s <{EX}p> ?v }} }}
        """)
        assert len(table) == 0

    def test_explicit_graph_outside_from_named_empty(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v FROM NAMED <{G1.value}>
            WHERE {{ GRAPH <{G2.value}> {{ ?s <{EX}p> ?v }} }}
        """)
        assert len(table) == 0

    def test_combined_from_and_from_named(self, endpoint):
        table = endpoint.select(f"""
            SELECT ?v ?w FROM <{G1.value}> FROM NAMED <{G2.value}>
            WHERE {{
                ?s <{EX}p> ?v .
                GRAPH <{G2.value}> {{ ?t <{EX}p> ?w }}
            }}
        """)
        assert [(row["v"].lexical, row["w"].lexical)
                for row in table] == [("one", "two")]


class TestOtherQueryForms:
    def test_ask_with_from(self, endpoint):
        assert endpoint.ask(f"""
            ASK FROM <{G1.value}> {{ ?s <{EX}p> "one" }}
        """) is True
        assert endpoint.ask(f"""
            ASK FROM <{G1.value}> {{ ?s <{EX}p> "two" }}
        """) is False

    def test_ask_with_where_keyword(self, endpoint):
        assert endpoint.ask(f"""
            ASK FROM <{G2.value}> WHERE {{ ?s <{EX}p> "two" }}
        """) is True

    def test_construct_with_from(self, endpoint):
        graph = endpoint.construct(f"""
            CONSTRUCT {{ ?s a <{EX}Found> }}
            FROM <{G1.value}> WHERE {{ ?s <{EX}p> ?v }}
        """)
        assert len(graph) == 1

    def test_describe_with_from(self, endpoint):
        graph = endpoint.describe(f"""
            DESCRIBE <{EX}a> FROM <{G2.value}>
        """)
        assert len(graph) == 0  # a's triples live in g1 only


class TestReadsCreateNothing:
    """A graph IRI the dataset lacks reads as empty: a query naming it
    in FROM, FROM NAMED or GRAPH adds no graph and dirties nothing."""

    NOPE = "http://example.org/nope"

    @pytest.mark.parametrize("query,rows", [
        (f"SELECT * FROM <{NOPE}> WHERE {{ ?s ?p ?o }}", 0),
        (f"SELECT * FROM <{G1.value}> FROM <{NOPE}> WHERE {{ ?s ?p ?o }}", 1),
        (f"SELECT * FROM NAMED <{NOPE}> WHERE {{ GRAPH ?g {{ ?s ?p ?o }} }}",
         0),
        (f"SELECT * WHERE {{ GRAPH <{NOPE}> {{ ?s ?p ?o }} }}", 0),
        (f"SELECT ?g FROM NAMED <{NOPE}> WHERE {{ GRAPH ?g {{ }} }}", 1),
    ])
    def test_live_dataset_is_unchanged(self, endpoint, query, rows):
        dataset = endpoint.dataset
        pinned = dataset.snapshot()
        before = ([graph.identifier for graph in dataset.graphs()],
                  len(dataset), pinned.epoch)
        table = evaluate_query(parse_query(query), dataset)
        assert len(table) == rows
        assert IRI(self.NOPE) not in dataset
        assert ([graph.identifier for graph in dataset.graphs()],
                len(dataset), dataset.snapshot().epoch) == before
        assert dataset.snapshot() is pinned  # the dirty flag stayed down
