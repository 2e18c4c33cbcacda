"""N-Triples serialization, and N-Triples read back through
``LocalEndpoint.load_trig``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BNode,
    Graph,
    IRI,
    Literal,
    Namespace,
    serialize_ntriples,
)
from repro.sparql import LocalEndpoint, QuerySyntaxError

EX = Namespace("http://example.org/")


def parse_ntriples(text: str) -> Graph:
    """The default graph an endpoint holds after loading ``text``."""
    endpoint = LocalEndpoint()
    endpoint.load_trig(text)
    return endpoint.dataset.default


class TestSerialize:
    def test_sorted_and_terminated(self):
        g = Graph()
        g.add(EX.b, EX.p, EX.c)
        g.add(EX.a, EX.p, EX.c)
        text = serialize_ntriples(g)
        lines = text.strip().splitlines()
        assert lines[0].startswith("<http://example.org/a>")
        assert all(line.endswith(" .") for line in lines)

    def test_empty_graph(self):
        assert serialize_ntriples(Graph()) == ""


class TestParse:
    def test_basic(self):
        g = parse_ntriples(
            "<http://e/s> <http://e/p> <http://e/o> .\n"
            '<http://e/s> <http://e/q> "text" .\n')
        assert len(g) == 2
        assert (IRI("http://e/s"), IRI("http://e/q"), Literal("text")) in g

    def test_typed_and_lang_literals(self):
        g = parse_ntriples(
            '<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://e/s> <http://e/q> "hej"@da .\n')
        values = dict(
            (t.predicate, t.object) for t in g)
        assert values[IRI("http://e/p")].value == 5
        assert values[IRI("http://e/q")].language == "da"

    def test_bnodes(self):
        g = parse_ntriples("_:x <http://e/p> _:y .\n_:y <http://e/p> _:x .\n")
        triple = next(iter(g))
        assert isinstance(triple.subject, BNode)
        assert isinstance(triple.object, BNode)
        assert triple.subject != triple.object
        assert (triple.object, triple.predicate, triple.subject) in g

    def test_comments_and_blank_lines(self):
        g = parse_ntriples("# comment\n\n<http://e/s> <http://e/p> <http://e/o> .")
        assert len(g) == 1

    def test_escapes(self):
        g = parse_ntriples('<http://e/s> <http://e/p> "a\\nb\\t\\"c\\"" .')
        literal = next(iter(g)).object
        assert literal.lexical == 'a\nb\t"c"'

    def test_unicode_escapes(self):
        g = parse_ntriples('<http://e/s> <http://e/p> "\\u00e9" .')
        assert next(iter(g)).object.lexical == "é"

    def test_bad_escape(self):
        with pytest.raises(QuerySyntaxError, match=r"unknown escape: \\q"):
            parse_ntriples('<http://e/s> <http://e/p> "\\q" .')

    def test_errors(self):
        with pytest.raises(QuerySyntaxError):
            parse_ntriples("<http://e/s> <http://e/p> <http://e/o>")  # no dot
        with pytest.raises(QuerySyntaxError):
            parse_ntriples('"literal" <http://e/p> <http://e/o> .')
        with pytest.raises(QuerySyntaxError):
            parse_ntriples("<http://e/s> _:b <http://e/o> .")
        with pytest.raises(QuerySyntaxError):
            parse_ntriples("garbage")

    def test_error_reports_line(self):
        with pytest.raises(QuerySyntaxError) as info:
            parse_ntriples("<http://e/s> <http://e/p> <http://e/o> .\nbroken")
        assert "line 2" in str(info.value)


# -- property-based round trip ------------------------------------------------

safe_local = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1, max_size=10)
iris = safe_local.map(lambda s: IRI("http://example.org/" + s))
literal_values = st.one_of(
    st.text(max_size=30),
    st.integers(-1000, 1000),
    st.booleans(),
)
objects = st.one_of(iris, literal_values.map(Literal))
triple_entries = st.tuples(iris, iris, objects)


@settings(max_examples=50)
@given(st.lists(triple_entries, max_size=25))
def test_ntriples_roundtrip(entries):
    g = Graph()
    for s, p, o in entries:
        g.add(s, p, o)
    text = serialize_ntriples(g)
    g2 = parse_ntriples(text)
    assert g2 == g
    # serialization is deterministic
    assert serialize_ntriples(g2) == text
