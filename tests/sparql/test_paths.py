"""Property-path parsing and evaluation tests."""

import pytest

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql.algebra import collect_path_patterns, collect_triple_patterns
from repro.sparql.errors import QuerySyntaxError
from repro.sparql.evaluator import evaluate_query
from repro.sparql.parser import parse_query
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    evaluate_path,
)

EX = "http://example.org/"


def iri(local: str) -> IRI:
    return IRI(EX + local)


@pytest.fixture()
def family() -> Dataset:
    """A small parent/knows graph with a 3-level chain and a cycle."""
    dataset = Dataset()
    g = dataset.default
    g.add(iri("alice"), iri("parent"), iri("bob"))
    g.add(iri("bob"), iri("parent"), iri("carol"))
    g.add(iri("carol"), iri("parent"), iri("dave"))
    g.add(iri("alice"), iri("knows"), iri("eve"))
    g.add(iri("eve"), iri("knows"), iri("alice"))  # cycle
    g.add(iri("alice"), iri("name"), Literal("Alice"))
    return dataset


def run(dataset: Dataset, query: str):
    return evaluate_query(parse_query(query), dataset)


class TestPathParsing:
    def test_plain_iri_is_not_a_path(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o }")
        assert collect_path_patterns(query.pattern) == []
        assert len(collect_triple_patterns(query.pattern)) == 1

    def test_sequence_decomposes_to_triples(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://e/p1>/<http://e/p2> ?o }")
        assert collect_path_patterns(query.pattern) == []
        triples = collect_triple_patterns(query.pattern)
        assert len(triples) == 2
        # chained through one fresh variable
        assert triples[0].object == triples[1].subject

    def test_inverse_of_link_swaps_endpoints(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s ^<http://e/p> ?o }")
        triples = collect_triple_patterns(query.pattern)
        assert len(triples) == 1
        assert triples[0].subject.name == "o"
        assert triples[0].object.name == "s"

    def test_one_or_more_becomes_path_node(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://e/p>+ ?o }")
        paths = collect_path_patterns(query.pattern)
        assert len(paths) == 1
        assert isinstance(paths[0].path, OneOrMorePath)

    def test_alternative_becomes_path_node(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://e/p>|<http://e/q> ?o }")
        paths = collect_path_patterns(query.pattern)
        assert len(paths) == 1
        assert isinstance(paths[0].path, AlternativePath)

    def test_negated_property_set(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s !(<http://e/p>|^<http://e/q>) ?o }")
        paths = collect_path_patterns(query.pattern)
        assert len(paths) == 1
        path = paths[0].path
        assert isinstance(path, NegatedPropertySet)
        assert path.forward == [IRI("http://e/p")]
        assert path.inverse == [IRI("http://e/q")]

    def test_a_keyword_with_modifier(self):
        query = parse_query("SELECT ?s WHERE { ?s a? ?o }")
        paths = collect_path_patterns(query.pattern)
        assert len(paths) == 1
        assert isinstance(paths[0].path, ZeroOrOnePath)

    def test_grouped_path_with_closure(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s (<http://e/p>/<http://e/q>)* ?o }")
        paths = collect_path_patterns(query.pattern)
        assert len(paths) == 1
        closure = paths[0].path
        assert isinstance(closure, ZeroOrMorePath)
        assert isinstance(closure.child, SequencePath)

    def test_path_forbidden_in_insert_template(self):
        from repro.sparql.parser import parse_update
        with pytest.raises(QuerySyntaxError):
            parse_update(
                "INSERT { ?s <http://e/p>+ ?o } WHERE { ?s <http://e/p> ?o }")

    def test_paths_round_trip_to_sparql_text(self):
        path = ZeroOrMorePath(AlternativePath(
            [LinkPath(IRI("http://e/p")),
             InversePath(LinkPath(IRI("http://e/q")))]))
        text = path.to_sparql()
        assert "p" in text and "^" in text and "*" in text


class TestPathEvaluation:
    def test_sequence_two_hops(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}parent>/<{EX}parent> ?x }}
        """)
        assert [row["x"] for row in table] == [iri("carol")]

    def test_one_or_more_forward(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}parent>+ ?x }}
        """)
        values = {row["x"] for row in table}
        assert values == {iri("bob"), iri("carol"), iri("dave")}

    def test_zero_or_more_includes_start(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}parent>* ?x }}
        """)
        values = {row["x"] for row in table}
        assert iri("alice") in values
        assert values == {iri("alice"), iri("bob"), iri("carol"),
                          iri("dave")}

    def test_zero_or_one(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}parent>? ?x }}
        """)
        values = {row["x"] for row in table}
        assert values == {iri("alice"), iri("bob")}

    def test_closure_terminates_on_cycle(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}knows>+ ?x }}
        """)
        values = {row["x"] for row in table}
        assert values == {iri("eve"), iri("alice")}

    def test_closure_backward_seeding(self, family):
        """Bound object: the BFS must run in reverse."""
        table = run(family, f"""
            SELECT ?x WHERE {{ ?x <{EX}parent>+ <{EX}dave> }}
        """)
        values = {row["x"] for row in table}
        assert values == {iri("alice"), iri("bob"), iri("carol")}

    def test_inverse_path(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}bob> ^<{EX}parent> ?x }}
        """)
        assert [row["x"] for row in table] == [iri("alice")]

    def test_alternative(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> <{EX}parent>|<{EX}knows> ?x }}
        """)
        values = {row["x"] for row in table}
        assert values == {iri("bob"), iri("eve")}

    def test_negated_property_set(self, family):
        table = run(family, f"""
            SELECT ?x WHERE {{ <{EX}alice> !<{EX}parent> ?x }}
        """)
        values = {row["x"] for row in table}
        assert iri("bob") not in values
        assert iri("eve") in values
        assert Literal("Alice") in values

    def test_path_join_with_plain_patterns(self, family):
        """Path endpoints bind variables shared with plain patterns."""
        table = run(family, f"""
            SELECT ?name WHERE {{
                ?person <{EX}parent>+ <{EX}dave> .
                ?person <{EX}name> ?name .
            }}
        """)
        assert [row["name"] for row in table] == [Literal("Alice")]

    def test_both_endpoints_unbound_closure(self, family):
        table = run(family, f"""
            SELECT ?a ?b WHERE {{ ?a <{EX}parent>+ ?b }}
        """)
        pairs = {(row["a"], row["b"]) for row in table}
        assert (iri("alice"), iri("dave")) in pairs
        assert (iri("carol"), iri("dave")) in pairs
        assert len(pairs) == 6

    def test_filter_not_exists_with_path(self, family):
        """The IC-20 shape: FILTER NOT EXISTS over a closure path."""
        table = run(family, f"""
            SELECT ?x WHERE {{
                ?x <{EX}parent> ?y .
                FILTER NOT EXISTS {{ <{EX}alice> <{EX}parent>* ?x }}
            }}
        """)
        assert [row for row in table] == []

    def test_direct_evaluate_path_api(self, family):
        source_graph = family.default

        class Source:
            def match(self, pattern):
                return source_graph.triples(pattern)

        pairs = set(evaluate_path(
            Source(), OneOrMorePath(LinkPath(iri("parent"))),
            iri("alice"), None))
        assert pairs == {(iri("alice"), iri("bob")),
                         (iri("alice"), iri("carol")),
                         (iri("alice"), iri("dave"))}
