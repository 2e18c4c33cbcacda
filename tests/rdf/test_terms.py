"""Unit tests for RDF terms."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.rdf import IRI, BNode, Literal, TermError, Triple, make_triple
from repro.rdf.terms import (
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    term_sort_key,
    triple_sort_key,
)


class TestIRI:
    def test_basic(self):
        iri = IRI("http://example.org/a")
        assert iri.value == "http://example.org/a"
        assert iri.n3() == "<http://example.org/a>"
        assert str(iri) == "http://example.org/a"

    def test_copy_constructor(self):
        iri = IRI(IRI("http://example.org/a"))
        assert iri == IRI("http://example.org/a")

    def test_equality_and_hash(self):
        assert IRI("http://e/a") == IRI("http://e/a")
        assert IRI("http://e/a") != IRI("http://e/b")
        assert hash(IRI("http://e/a")) == hash(IRI("http://e/a"))
        assert len({IRI("http://e/a"), IRI("http://e/a")}) == 1

    def test_rejects_empty(self):
        with pytest.raises(TermError):
            IRI("")

    def test_rejects_illegal_characters(self):
        for bad in ("http://e/a b", "http://e/<a>", 'http://e/"x"',
                    "http://e/{y}", "http://e/\n"):
            with pytest.raises(TermError):
                IRI(bad)

    def test_every_illegal_character_wherever_it_stands(self):
        """``<>"{}|^``, the backtick and every code point up to the
        space, at the start, in the middle and at the end — and nothing
        else: the rest of ASCII and non-ASCII text are accepted."""
        illegal = set('<>"{}|^`') | {chr(code) for code in range(0x21)}
        for bad in sorted(illegal):
            for value in (bad + "http://e/a", "http://e/" + bad + "a",
                          "http://e/a" + bad):
                with pytest.raises(TermError, match="illegal"):
                    IRI(value)
        for code in range(0x21, 0x80):
            if chr(code) not in illegal:
                assert IRI("http://e/a" + chr(code)).value[-1] == chr(code)
        for text in ("http://e/é", "http://例え.jp/ネコ", "http://e/\x7f",
                     "http://e/\x85\xa0\u2028", "http://e/\U0001f600"):
            assert IRI(text).value == text

    def test_pickle_round_trip(self):
        import pickle

        for term in (IRI("http://e/é#x"), Literal(5),
                     Literal("5", datatype=IRI("http://e/dt")),
                     Literal("hola", language="es")):
            copy = pickle.loads(pickle.dumps(term))
            assert copy == term and hash(copy) == hash(term)
            assert type(copy) is type(term)

    def test_rejects_non_string(self):
        with pytest.raises(TermError):
            IRI(42)

    def test_immutability(self):
        iri = IRI("http://e/a")
        with pytest.raises(TermError):
            iri.value = "http://e/b"

    def test_local_name(self):
        assert IRI("http://e/path#frag").local_name() == "frag"
        assert IRI("http://e/path/leaf").local_name() == "leaf"
        assert IRI("urn:x:y").local_name() == "y"

    def test_namespace(self):
        assert IRI("http://e/p#frag").namespace() == "http://e/p#"

    def test_is_absolute(self):
        assert IRI("http://e/a").is_absolute
        assert IRI("urn:isbn:123").is_absolute
        assert not IRI("relative/path").is_absolute

    def test_ordering(self):
        assert IRI("http://e/a") < IRI("http://e/b")

    def test_not_equal_to_literal_with_same_text(self):
        assert IRI("http://e/a") != Literal("http://e/a")


class TestBNode:
    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_explicit_label(self):
        assert BNode("x") == BNode("x")
        assert BNode("x").n3() == "_:x"

    def test_rejects_empty_label(self):
        with pytest.raises(TermError):
            BNode("")

    def test_immutability(self):
        node = BNode("x")
        with pytest.raises(TermError):
            node.label = "y"


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.datatype.value == XSD_STRING
        assert lit.language is None
        assert lit.value == "hello"
        assert lit.n3() == '"hello"'

    def test_language_tagged(self):
        lit = Literal("hola", language="ES")
        assert lit.language == "es"  # normalized
        assert lit.datatype.value == RDF_LANGSTRING
        assert lit.n3() == '"hola"@es'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_malformed_language(self):
        with pytest.raises(TermError):
            Literal("x", language="not a tag!")

    def test_inferred_and_named_datatypes_are_the_same_term(self):
        assert Literal(5).datatype == IRI(XSD_INTEGER)
        assert hash(Literal(5).datatype) == hash(IRI(XSD_INTEGER))
        for other in (Literal("5", datatype=XSD_INTEGER),
                      Literal("5", datatype=IRI(XSD_INTEGER))):
            assert Literal(5) == other and hash(Literal(5)) == hash(other)
        # a datatype handed in as an IRI is kept, any other is validated
        custom = IRI("http://e/dt")
        assert Literal("x", datatype=custom).datatype is custom
        assert Literal("x", datatype="http://e/dt") \
            == Literal("x", datatype=custom)
        with pytest.raises(TermError):
            Literal("x", datatype="http://e/d t")

    def test_integer_inference(self):
        lit = Literal(42)
        assert lit.datatype.value == XSD_INTEGER
        assert lit.value == 42
        assert lit.is_numeric

    def test_boolean_inference(self):
        assert Literal(True).lexical == "true"
        assert Literal(True).datatype.value == XSD_BOOLEAN
        assert Literal(False).value is False

    def test_float_inference(self):
        lit = Literal(3.25)
        assert lit.datatype.value == XSD_DOUBLE
        assert lit.value == 3.25

    def test_decimal_inference(self):
        lit = Literal(Decimal("1.50"))
        assert lit.datatype.value == XSD_DECIMAL
        assert lit.value == Decimal("1.50")

    def test_datetime_inference(self):
        when = datetime.datetime(2014, 1, 15, 12, 30)
        lit = Literal(when)
        assert lit.datatype.value == XSD_DATETIME
        assert lit.value == when

    def test_date_inference(self):
        day = datetime.date(2013, 6, 1)
        lit = Literal(day)
        assert lit.datatype.value == XSD_DATE
        assert lit.value == day

    def test_unknown_python_type_rejected(self):
        with pytest.raises(TermError):
            Literal(object())

    def test_term_equality_is_lexical(self):
        # "01" and "1" are value-equal but not term-equal
        assert Literal("01", datatype=XSD_INTEGER) \
            != Literal("1", datatype=XSD_INTEGER)
        assert Literal("1", datatype=XSD_INTEGER) \
            != Literal("1", datatype=XSD_DECIMAL)

    def test_ill_typed_value_falls_back_to_lexical(self):
        lit = Literal("not-a-number", datatype=XSD_INTEGER)
        assert lit.value == "not-a-number"

    def test_escaping_in_n3(self):
        lit = Literal('say "hi"\nplease\t!')
        assert lit.n3() == '"say \\"hi\\"\\nplease\\t!"'

    def test_typed_n3(self):
        lit = Literal("5", datatype=XSD_INTEGER)
        assert lit.n3() == \
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_datetime_with_timezone_z(self):
        lit = Literal("2014-01-01T00:00:00Z", datatype=XSD_DATETIME)
        assert lit.value.tzinfo is not None


class TestTriple:
    def test_make_triple_validates_positions(self):
        s = IRI("http://e/s")
        p = IRI("http://e/p")
        o = Literal("x")
        triple = make_triple(s, p, o)
        assert triple == Triple(s, p, o)
        with pytest.raises(TermError):
            make_triple(Literal("bad"), p, o)
        with pytest.raises(TermError):
            make_triple(s, Literal("bad"), o)
        with pytest.raises(TermError):
            make_triple(s, BNode(), o)
        with pytest.raises(TermError):
            make_triple(s, p, "not-a-term")

    def test_n3(self):
        triple = make_triple(IRI("http://e/s"), IRI("http://e/p"),
                             Literal(1))
        assert triple.n3().endswith(" .")

    def test_sort_keys_order_categories(self):
        iri_key = term_sort_key(IRI("http://e/a"))
        bnode_key = term_sort_key(BNode("b"))
        literal_key = term_sort_key(Literal("a"))
        assert iri_key < bnode_key < literal_key

    def test_triple_sort_key_is_total(self):
        t1 = make_triple(IRI("http://e/a"), IRI("http://e/p"), Literal(1))
        t2 = make_triple(IRI("http://e/b"), IRI("http://e/p"), Literal(1))
        assert triple_sort_key(t1) < triple_sort_key(t2)


# -- property-based ----------------------------------------------------------

iri_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters="/#.-_~"),
    min_size=1, max_size=30).map(lambda s: "http://example.org/" + s)

literal_text = st.text(max_size=50)


@given(iri_text)
def test_iri_roundtrips_via_n3_text(text):
    iri = IRI(text)
    assert iri.n3() == f"<{text}>"
    assert IRI(iri.value) == iri


@given(literal_text)
def test_plain_literal_value_is_lexical(text):
    assert Literal(text).value == text


@given(st.integers(min_value=-10**18, max_value=10**18))
def test_integer_literal_roundtrip(number):
    assert Literal(number).value == number


@given(literal_text, literal_text)
def test_literal_equality_is_an_equivalence(a, b):
    la, lb = Literal(a), Literal(b)
    assert (la == lb) == (a == b)
    if la == lb:
        assert hash(la) == hash(lb)
