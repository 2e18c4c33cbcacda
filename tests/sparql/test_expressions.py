"""SPARQL expression semantics: EBV, comparison, arithmetic, builtins."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.rdf import IRI, BNode, Literal
from repro.rdf.terms import XSD_DATE, XSD_DATETIME, XSD_DECIMAL, \
    XSD_DOUBLE, XSD_FLOAT, XSD_INTEGER
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    Aggregate,
    ArithmeticExpression,
    BooleanExpression,
    ComparisonExpression,
    EvalContext,
    ExistsExpression,
    FunctionExpression,
    InExpression,
    NotExpression,
    TermExpression,
    VariableExpression,
    arithmetic,
    boolean,
    compare_terms,
    effective_boolean_value,
    order_key,
)

CTX = EvalContext()


def lit(value, **kw):
    return Literal(value, **kw)


def fn(name, *values):
    return FunctionExpression(
        name, [TermExpression(v) for v in values]).evaluate({}, CTX)


class TestEffectiveBooleanValue:
    def test_booleans(self):
        assert effective_boolean_value(lit(True)) is True
        assert effective_boolean_value(lit(False)) is False

    def test_strings(self):
        assert effective_boolean_value(lit("x")) is True
        assert effective_boolean_value(lit("")) is False

    def test_numbers(self):
        assert effective_boolean_value(lit(3)) is True
        assert effective_boolean_value(lit(0)) is False
        assert effective_boolean_value(lit(0.0)) is False
        assert effective_boolean_value(lit(float("nan"))) is False

    def test_iri_has_no_ebv(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("http://e/a"))


class TestCompareTerms:
    def test_numeric_promotion(self):
        assert compare_terms(lit("01", datatype=XSD_INTEGER), lit(1), "=")
        assert compare_terms(lit(1), lit("1.0", datatype=XSD_DECIMAL), "=")
        assert compare_terms(lit(2), lit(1.5), ">")

    def test_string_comparison(self):
        assert compare_terms(lit("a"), lit("b"), "<")
        assert compare_terms(lit("a"), lit("a"), "=")

    def test_lang_strings_compare_with_language(self):
        assert not compare_terms(lit("a", language="en"),
                                 lit("a", language="fr"), "=")
        assert compare_terms(lit("a", language="en"),
                             lit("a", language="en"), "=")

    def test_datetime_comparison(self):
        early = lit("2013-01-01T00:00:00", datatype=XSD_DATETIME)
        late = lit("2014-01-01T00:00:00", datatype=XSD_DATETIME)
        assert compare_terms(early, late, "<")

    def test_date_vs_datetime(self):
        day = lit("2013-06-01", datatype=XSD_DATE)
        moment = lit("2013-06-01T10:00:00", datatype=XSD_DATETIME)
        assert compare_terms(day, moment, "<")

    def test_iri_equality(self):
        assert compare_terms(IRI("http://e/a"), IRI("http://e/a"), "=")
        assert compare_terms(IRI("http://e/a"), IRI("http://e/b"), "!=")

    def test_iri_ordering_errors(self):
        with pytest.raises(ExpressionError):
            compare_terms(IRI("http://e/a"), IRI("http://e/b"), "<")

    def test_cross_category_equality_is_false(self):
        assert not compare_terms(lit("1"), lit(1), "=")
        assert compare_terms(lit("1"), lit(1), "!=")

    def test_cross_category_ordering_errors(self):
        with pytest.raises(ExpressionError):
            compare_terms(lit("a"), lit(1), "<")

    def test_unknown_datatype_same_term_equal(self):
        custom = lit("x", datatype="http://e/dt")
        assert compare_terms(custom, lit("x", datatype="http://e/dt"), "=")
        with pytest.raises(ExpressionError):
            compare_terms(custom, lit("y", datatype="http://e/dt"), "=")


class TestArithmetic:
    def test_integer_ops(self):
        assert arithmetic(lit(2), lit(3), "+").value == 5
        assert arithmetic(lit(2), lit(3), "*").value == 6
        assert arithmetic(lit(2), lit(3), "-").value == -1

    def test_integer_division_yields_decimal(self):
        result = arithmetic(lit(7), lit(2), "/")
        assert result.datatype.value == XSD_DECIMAL
        assert float(result.value) == 3.5

    def test_division_by_zero_errors(self):
        with pytest.raises(ExpressionError):
            arithmetic(lit(1), lit(0), "/")

    def test_float_promotion(self):
        assert arithmetic(lit(1), lit(0.5), "+").value == 1.5

    def test_non_numeric_errors(self):
        with pytest.raises(ExpressionError):
            arithmetic(lit("x"), lit(1), "+")
        with pytest.raises(ExpressionError):
            arithmetic(IRI("http://e/a"), lit(1), "+")


class TestBooleanLogic:
    def test_and_or(self):
        t = TermExpression(lit(True))
        f = TermExpression(lit(False))
        assert BooleanExpression("&&", t, t).evaluate({}, CTX).value is True
        assert BooleanExpression("&&", t, f).evaluate({}, CTX).value is False
        assert BooleanExpression("||", f, t).evaluate({}, CTX).value is True

    def test_error_recovery_three_valued(self):
        err = VariableExpression("unbound")
        t = TermExpression(lit(True))
        f = TermExpression(lit(False))
        # error && false = false ; error || true = true
        assert BooleanExpression("&&", err, f).evaluate({}, CTX).value is False
        assert BooleanExpression("||", err, t).evaluate({}, CTX).value is True
        with pytest.raises(ExpressionError):
            BooleanExpression("&&", err, t).evaluate({}, CTX)
        with pytest.raises(ExpressionError):
            BooleanExpression("||", err, f).evaluate({}, CTX)

    def test_not(self):
        assert NotExpression(
            TermExpression(lit(False))).evaluate({}, CTX).value is True


class TestInExpression:
    def test_membership(self):
        expr = InExpression(
            TermExpression(lit(2)),
            [TermExpression(lit(1)), TermExpression(lit(2))])
        assert expr.evaluate({}, CTX).value is True

    def test_negated(self):
        expr = InExpression(
            TermExpression(lit(5)),
            [TermExpression(lit(1))], negated=True)
        assert expr.evaluate({}, CTX).value is True


class TestBuiltins:
    def test_str_lang_datatype(self):
        assert fn("STR", IRI("http://e/a")).lexical == "http://e/a"
        assert fn("LANG", lit("x", language="en")).lexical == "en"
        assert fn("LANG", lit("x")).lexical == ""
        assert fn("DATATYPE", lit(5)).value.endswith("integer")

    def test_iri_cast(self):
        assert fn("IRI", lit("http://e/a")) == IRI("http://e/a")

    def test_type_tests(self):
        assert fn("ISIRI", IRI("http://e/a")).value is True
        assert fn("ISLITERAL", lit("x")).value is True
        assert fn("ISBLANK", BNode("b")).value is True
        assert fn("ISNUMERIC", lit(1)).value is True
        assert fn("ISNUMERIC", lit("x")).value is False

    def test_string_functions(self):
        assert fn("STRLEN", lit("héllo")).value == 5
        assert fn("UCASE", lit("abc")).lexical == "ABC"
        assert fn("LCASE", lit("ABC")).lexical == "abc"
        assert fn("CONTAINS", lit("Africa"), lit("fri")).value is True
        assert fn("STRSTARTS", lit("Africa"), lit("Af")).value is True
        assert fn("STRENDS", lit("Africa"), lit("ca")).value is True
        assert fn("STRBEFORE", lit("a-b"), lit("-")).lexical == "a"
        assert fn("STRAFTER", lit("a-b"), lit("-")).lexical == "b"
        assert fn("CONCAT", lit("a"), lit("b"), lit("c")).lexical == "abc"

    def test_substr_one_based(self):
        assert fn("SUBSTR", lit("abcde"), lit(2), lit(3)).lexical == "bcd"
        assert fn("SUBSTR", lit("abcde"), lit(3)).lexical == "cde"

    def test_language_preserved_by_string_functions(self):
        result = fn("UCASE", lit("abc", language="en"))
        assert result.language == "en"

    def test_regex(self):
        assert fn("REGEX", lit("Africa"), lit("^Af")).value is True
        assert fn("REGEX", lit("africa"), lit("^AF"), lit("i")).value is True
        with pytest.raises(ExpressionError):
            fn("REGEX", lit("x"), lit("("))

    def test_replace(self):
        assert fn("REPLACE", lit("aaa"), lit("a"), lit("b")).lexical == "bbb"

    def test_numeric_functions(self):
        assert fn("ABS", lit(-5)).value == 5
        assert fn("CEIL", lit("2.2", datatype=XSD_DECIMAL)).value == 3
        assert fn("FLOOR", lit("2.8", datatype=XSD_DECIMAL)).value == 2
        assert fn("ROUND", lit("2.5", datatype=XSD_DECIMAL)).value == 2 or \
            fn("ROUND", lit("2.5", datatype=XSD_DECIMAL)).value == 3

    def test_date_accessors(self):
        stamp = lit("2014-03-15T10:30:45", datatype=XSD_DATETIME)
        assert fn("YEAR", stamp).value == 2014
        assert fn("MONTH", stamp).value == 3
        assert fn("DAY", stamp).value == 15
        assert fn("HOURS", stamp).value == 10
        assert fn("MINUTES", stamp).value == 30
        assert fn("SECONDS", stamp).value == 45

    def test_coalesce(self):
        expr = FunctionExpression("COALESCE", [
            VariableExpression("unbound"), TermExpression(lit(7))])
        assert expr.evaluate({}, CTX).value == 7

    def test_if(self):
        expr = FunctionExpression("IF", [
            TermExpression(lit(True)), TermExpression(lit("yes")),
            TermExpression(lit("no"))])
        assert expr.evaluate({}, CTX).lexical == "yes"

    def test_xsd_casts(self):
        assert fn("XSD:INTEGER", lit("42")).value == 42
        assert fn("XSD:STRING", lit(5)).lexical == "5"
        assert fn("XSD:BOOLEAN", lit("true")).value is True
        with pytest.raises(ExpressionError):
            fn("XSD:INTEGER", lit("not-a-number"))

    def test_xsd_float_cast(self):
        result = fn("XSD:FLOAT", lit("2.5"))
        assert result.datatype.value == XSD_FLOAT
        assert result.value == 2.5
        with pytest.raises(ExpressionError):
            fn("XSD:FLOAT", lit("not-a-number"))

    @pytest.mark.parametrize("name,args,expected", [
        ("STRDT", (lit("12"), IRI(XSD_INTEGER)),
         Literal("12", datatype=XSD_INTEGER)),
        ("STRLANG", (lit("chat"), lit("fr")), Literal("chat", language="fr")),
        ("LANGMATCHES", (lit("en-GB"), lit("en")), lit(True)),
        ("LANGMATCHES", (lit("en"), lit("*")), lit(True)),
        ("LANGMATCHES", (lit(""), lit("*")), lit(False)),
        ("LANGMATCHES", (lit("fr"), lit("en")), lit(False)),
    ])
    def test_simple_literal_builtins(self, name, args, expected):
        assert fn(name, *args) == expected

    @pytest.mark.parametrize("name,args", [
        # the spec's signatures take simple literals: a language tag on
        # any string argument is a type error
        ("STRLANG", (lit("chat", language="en"), lit("fr"))),
        ("STRLANG", (lit("chat"), lit("fr", language="en"))),
        ("STRDT", (lit("12", language="en"), IRI(XSD_INTEGER))),
        ("LANGMATCHES", (lit("en", language="fr"), lit("en"))),
        ("LANGMATCHES", (lit("en"), lit("en", language="fr"))),
        ("STRDT", (lit("12"), lit("not an IRI"))),
        ("STRLANG", (IRI("http://e/a"), lit("fr"))),
    ])
    def test_simple_literal_builtins_reject(self, name, args):
        with pytest.raises(ExpressionError):
            fn(name, *args)

    def test_bound(self):
        expr = FunctionExpression("BOUND", [VariableExpression("x")])
        assert expr.evaluate({"x": lit(1)}, CTX).value is True
        assert expr.evaluate({}, CTX).value is False

    def test_sameterm(self):
        assert fn("SAMETERM", lit(1), lit(1)).value is True
        assert fn("SAMETERM", lit("01", datatype=XSD_INTEGER),
                  lit(1)).value is False  # value-equal but not same term

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            fn("FROBNICATE", lit(1))


class TestAggregates:
    GROUP = [{"x": lit(1)}, {"x": lit(2)}, {"x": lit(2)}, {"y": lit(9)}]

    def test_count_star(self):
        agg = Aggregate("COUNT", None)
        assert agg.apply(self.GROUP, CTX).value == 4

    def test_count_var_skips_unbound(self):
        agg = Aggregate("COUNT", VariableExpression("x"))
        assert agg.apply(self.GROUP, CTX).value == 3

    def test_count_distinct(self):
        agg = Aggregate("COUNT", VariableExpression("x"), distinct=True)
        assert agg.apply(self.GROUP, CTX).value == 2

    def test_sum_avg_min_max(self):
        x = VariableExpression("x")
        assert Aggregate("SUM", x).apply(self.GROUP, CTX).value == 5
        assert float(Aggregate("AVG", x).apply(self.GROUP, CTX).value) \
            == pytest.approx(5 / 3)
        assert Aggregate("MIN", x).apply(self.GROUP, CTX).value == 1
        assert Aggregate("MAX", x).apply(self.GROUP, CTX).value == 2

    def test_sum_empty_group_is_zero(self):
        assert Aggregate("SUM", VariableExpression("x")).apply([], CTX).value == 0

    def test_min_empty_group_errors(self):
        with pytest.raises(ExpressionError):
            Aggregate("MIN", VariableExpression("x")).apply([], CTX)

    def test_group_concat(self):
        agg = Aggregate("GROUP_CONCAT", VariableExpression("x"),
                        separator="|")
        assert agg.apply(self.GROUP, CTX).lexical == "1|2|2"

    def test_sample(self):
        agg = Aggregate("SAMPLE", VariableExpression("x"))
        assert agg.apply(self.GROUP, CTX).value in (1, 2)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExpressionError):
            Aggregate("MEDIAN", VariableExpression("x"))


class TestDecimalDoublePromotion:
    """xsd:decimal ⊕ xsd:double promotes the decimal to a double (XPath
    numeric type promotion); Python's ``Decimal + float`` refuses."""

    DEC = lit("1.5", datatype=XSD_DECIMAL)
    DBL = lit(2.5)

    @pytest.mark.parametrize("op,expected,mirrored", [
        ("+", 4.0, 4.0), ("-", -1.0, 1.0), ("*", 3.75, 3.75),
        ("/", 0.6, 2.5 / 1.5)])
    def test_arithmetic_either_way_round(self, op, expected, mirrored):
        for left, right, value in ((self.DEC, self.DBL, expected),
                                   (self.DBL, self.DEC, mirrored)):
            result = arithmetic(left, right, op)
            assert result.datatype.value == XSD_DOUBLE
            assert result.value == pytest.approx(value)

    def test_integer_with_double_keeps_its_answer(self):
        assert arithmetic(lit(2), self.DBL, "+") == lit(4.5)
        assert arithmetic(self.DBL, lit(2), "/") == lit(1.25)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_sum_and_avg(self, order):
        values = [self.DEC, self.DBL]
        group = [{"x": values[index]} for index in order]
        x = VariableExpression("x")
        assert Aggregate("SUM", x).apply(group, CTX) == lit(4.0)
        assert Aggregate("AVG", x).apply(group, CTX) == lit(2.0)

    def test_through_the_endpoint(self):
        from repro.sparql import LocalEndpoint
        endpoint = LocalEndpoint()
        assert endpoint.select(
            "SELECT (1.5 + 2.5E0 AS ?x) WHERE {}").rows == [(lit(4.0),)]
        assert endpoint.select(
            "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) "
            "WHERE { VALUES ?v { 1.5 2.5E0 } }").rows == [
                (lit(4.0), lit(2.0))]


# -- property-based -----------------------------------------------------------

small_ints = st.integers(-10**6, 10**6)


@given(small_ints, small_ints)
def test_comparison_matches_python(a, b):
    assert compare_terms(lit(a), lit(b), "<") == (a < b)
    assert compare_terms(lit(a), lit(b), "=") == (a == b)
    assert compare_terms(lit(a), lit(b), ">=") == (a >= b)


@given(small_ints, small_ints)
def test_arithmetic_matches_python(a, b):
    assert arithmetic(lit(a), lit(b), "+").value == a + b
    assert arithmetic(lit(a), lit(b), "*").value == a * b
    assert arithmetic(lit(a), lit(b), "-").value == a - b


@given(st.lists(small_ints, min_size=1, max_size=30))
def test_aggregates_match_python(values):
    group = [{"x": lit(v)} for v in values]
    x = VariableExpression("x")
    assert Aggregate("SUM", x).apply(group, CTX).value == sum(values)
    assert Aggregate("MIN", x).apply(group, CTX).value == min(values)
    assert Aggregate("MAX", x).apply(group, CTX).value == max(values)
    assert Aggregate("COUNT", None).apply(group, CTX).value == len(values)


@given(st.lists(st.one_of(small_ints.map(lit),
                          st.text(max_size=5).map(lit)),
                min_size=2, max_size=20))
def test_order_key_total_order(terms):
    keys = [order_key(t) for t in terms]
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # no TypeError


class TestExists:
    def test_variables_are_the_patterns(self):
        """EXISTS reads the outer row through its pattern's variables;
        an expression that claims to read nothing could not be guarded
        by a decode-only-what-is-read projection."""
        from repro.sparql.parser import parse_query

        query = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 1 && NOT EXISTS "
            "{ ?s <http://example.org/q> ?r OPTIONAL { ?r ?p ?t } }) }")
        condition = query.pattern.condition
        exists = condition.right.operand if isinstance(
            condition.right, NotExpression) else condition.right
        assert isinstance(exists, ExistsExpression)
        assert exists.variables() == {"s", "r", "p", "t"}
        assert condition.variables() == {"o", "s", "r", "p", "t"}
