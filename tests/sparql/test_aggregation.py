"""SPARQL grouped aggregation's partial → merge → finalize algebra.

The serial evaluator, the parallel push-down and the general parallel
path all run ``repro.sparql.aggregation``, so their agreement no longer
checks it; these tests do, against an oracle that lives here: merging
the partials of *any* contiguous split of an id table equals the
partials of the whole, and both equal a row-at-a-time reference
(``reference_aggregate``) — cell for cell, bound or unbound, groups in
first-occurrence order.

Decimals and doubles in the generated tables are small multiples of
1/4, so every sum is exact in binary floating point and results can be
compared with ``==`` however the additions associate.
"""

from hypothesis import example, given, settings, strategies as st

from repro.rdf import IRI, Literal
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from repro.sparql.aggregation import Plan, finalize, merge, partials
from repro.sparql.algebra import Empty, ProjectionItem, SelectQuery
from repro.sparql.bindings import BindingTable
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    AGGREGATE_NAMES,
    Aggregate,
    EvalContext,
    VariableExpression,
)
from repro.sparql.parser import parse_query

from tests.sparql.reference_aggregate import reference_apply

CTX = EvalContext()

#: measure cells: integers, decimals and doubles that tie under the
#: ORDER BY order (1, 1.0, 1.0E0, "01"), a non-numeric literal, a date
#: and an IRI; ``None`` is an unbound cell
MEASURES = [
    Literal(1), Literal("01", datatype=XSD_INTEGER), Literal(2),
    Literal(-3), Literal("1.0", datatype=XSD_DECIMAL),
    Literal("2.5", datatype=XSD_DECIMAL),
    Literal("-0.25", datatype=XSD_DECIMAL), Literal(1.0), Literal(2.5),
    Literal(-0.75), Literal("n/a"), Literal("2014-03-01", datatype=XSD_DATE),
    IRI("http://example.org/v"), None]
GROUPS = [IRI("http://example.org/g0"), IRI("http://example.org/g1"),
          Literal("g2"), None]

#: every aggregate, plain and DISTINCT, over ?v — plus COUNT(*)
CALLS = [Aggregate(name, VariableExpression("v"), distinct=distinct,
                   separator="|")
         for name in sorted(AGGREGATE_NAMES) for distinct in (False, True)] \
    + [Aggregate("COUNT", None)]


def query_over(calls, grouped):
    """``SELECT ?g (call AS ?a0) … [GROUP BY ?g]`` as a parsed query."""
    projection = [ProjectionItem(expression=call, alias=f"a{index}")
                  for index, call in enumerate(calls)]
    if grouped:
        projection.insert(0, ProjectionItem(variable="g"))
    return SelectQuery(projection, Empty(), group_by=[
        VariableExpression("g")] if grouped else [])


def table_of(names, rows):
    """An id table over ``names`` (plus its dictionary) from term rows."""
    dictionary = TermDictionary()
    return dictionary, BindingTable(names, [
        tuple(None if term is None else dictionary.encode(term)
              for term in row) for row in rows])


def aggregated(query, dictionary, table, cuts=()):
    """The query's bindings, its table cut into pieces at ``cuts``."""
    plan = Plan(query)
    edges = [0, *cuts, len(table.rows)]
    pieces = [BindingTable(table.names, table.rows[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    return finalize(plan, merge(plan, [
        partials(plan, piece, dictionary.decode, CTX)
        for piece in pieces]), dictionary.decode, CTX)


def reference(calls, grouped, rows):
    """The same bindings, one row at a time."""
    groups = {}
    for group, measure in rows:
        members = groups.setdefault(group if grouped else None, [])
        members.append({} if measure is None else {"v": measure})
    if not grouped:
        groups.setdefault(None, [])
    results = []
    for key, members in groups.items():
        binding = {"g": key} if grouped and key is not None else {}
        for index, call in enumerate(calls):
            try:
                binding[f"a{index}"] = reference_apply(call, members, CTX)
            except ExpressionError:
                pass
        results.append(binding)
    return results


class TestSplitInvariance:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(GROUPS),
                              st.sampled_from(MEASURES)), max_size=24),
           st.booleans(), st.data())
    @example([(GROUPS[0], MEASURES[4]), (GROUPS[0], MEASURES[0]),
              (GROUPS[0], MEASURES[1])], True, None)
    def test_any_split_equals_the_whole_equals_the_reference(
            self, rows, grouped, data):
        cuts = [] if data is None else sorted(data.draw(
            st.lists(st.integers(0, len(rows)), max_size=5)))
        dictionary, table = table_of(("g", "v"), rows)
        query = query_over(CALLS, grouped)
        whole = aggregated(query, dictionary, table)
        assert whole == reference(CALLS, grouped, rows)
        assert aggregated(query, dictionary, table, cuts) == whole
        # each row its own partial: everything happens in merge
        assert aggregated(query, dictionary, table,
                          range(1, len(rows))) == whole


def select(text, names, rows, cuts=()):
    """``text``'s grouped tail over an id table of ``rows``, checked to
    be the same whole and cut at ``cuts`` (and at every row)."""
    dictionary, table = table_of(names, rows)
    query = parse_query(text)
    whole = aggregated(query, dictionary, table)
    for split in (cuts, range(1, len(rows))):
        assert aggregated(query, dictionary, table, split) == whole
    return whole


EVERY = ("SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) "
         "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE {}")


class TestFixedCases:
    def test_implicit_group_over_no_rows(self):
        assert select(EVERY, ("v",), []) == [
            {"n": Literal(0), "sum": Literal(0)}]
        assert select(EVERY + " GROUP BY ?g", ("g", "v"), []) == []

    def test_all_unbound_argument(self):
        assert select(EVERY, ("v",), [(None,), (None,)], [1]) == [
            {"n": Literal(0), "sum": Literal(0)}]

    def test_non_numeric_is_sticky_for_sum_and_avg_only(self):
        rows = [(Literal(4),), (Literal("n/a"),), (Literal(2),)]
        for cuts in ([], [1], [2]):
            assert select(EVERY, ("v",), rows, cuts) == [{
                "n": Literal(3), "lo": Literal(2), "hi": Literal("n/a")}]

    def test_having_mixes_a_group_key_and_an_aggregate(self):
        # busy_continent_year's shape: a dice on a level and a measure
        text = ("SELECT ?c ?y (SUM(?m) AS ?total) WHERE {} GROUP BY ?c ?y "
                "HAVING (?c != 'Europe' && SUM(?m) > 10)")
        rows = [(Literal(c), Literal(y), Literal(m)) for c, y, m in [
            ("Asia", 2013, 7), ("Europe", 2013, 50), ("Asia", 2014, 3),
            ("Asia", 2013, 5), ("Africa", 2014, 11), ("Asia", 2014, 7)]]
        assert select(text, ("c", "y", "m"), rows, [2, 4]) == [
            {"c": Literal("Asia"), "y": Literal(2013), "total": Literal(12)},
            {"c": Literal("Africa"), "y": Literal(2014),
             "total": Literal(11)}]

    def test_expression_key(self):
        text = ("SELECT ?y (COUNT(*) AS ?n) WHERE {} "
                "GROUP BY (YEAR(?d) AS ?y)")
        dates = ["2014-03-01", "2013-01-01", "2014-12-31"]
        rows = [(Literal(d, datatype=XSD_DATE),) for d in dates] \
            + [(Literal("not a date"),)]
        assert select(text, ("d",), rows, [1, 3]) == [
            {"y": Literal(2014), "n": Literal(2)},
            {"y": Literal(2013), "n": Literal(1)},
            {"n": Literal(1)}]  # the key is an error: unbound, one group

    def test_expression_argument(self):
        text = "SELECT (SUM(?a * ?b) AS ?s) (COUNT(?a * ?b) AS ?n) WHERE {}"
        rows = [(Literal(2), Literal(3)), (Literal(4), None),
                (Literal(5), Literal(1))]
        assert select(text, ("a", "b"), rows, [1]) == [
            {"s": Literal(11), "n": Literal(2)}]

    def test_groups_come_in_first_occurrence_order(self):
        text = "SELECT ?g (COUNT(*) AS ?n) WHERE {} GROUP BY ?g"
        order = ["b", "c", "a", "c", "b", "d"]
        result = select(text, ("g",), [(Literal(g),) for g in order], [3])
        assert [row["g"].lexical for row in result] == ["b", "c", "a", "d"]
