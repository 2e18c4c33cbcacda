"""SPARQL grouped aggregation: partials → finalize.

Every grouped SELECT runs ``repro.sparql.aggregation``; these tests
check it against a row-at-a-time oracle (``reference_aggregate``) —
cell for cell, bound or unbound, groups in first-occurrence order.

Decimals and doubles in the generated tables are small multiples of
1/4, so every sum is exact in binary floating point and results can be
compared with ``==``.
"""

import math
import struct
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf import IRI, Literal
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from repro.sparql.aggregation import Plan, finalize, partials
from repro.sparql.algebra import Empty, ProjectionItem, SelectQuery
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    AGGREGATE_NAMES,
    Aggregate,
    EvalContext,
    VariableExpression,
    numeric_value,
)
from repro.sparql.parser import parse_query

from tests.sparql.reference_aggregate import reference_apply
from tests.sparql.tables import id_table

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
    return dictionary, id_table(names, [
        tuple(None if term is None else dictionary.encode(term)
              for term in row) for row in rows])


def aggregated(query, dictionary, table):
    """The query's bindings over ``table``."""
    plan = Plan(query)
    bindings, _order_terms = finalize(
        plan, partials(plan, table, dictionary.decode, CTX),
        dictionary.decode, CTX)
    return bindings


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


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(GROUPS),
                              st.sampled_from(MEASURES)), max_size=24),
           st.booleans())
    @example([(GROUPS[0], MEASURES[4]), (GROUPS[0], MEASURES[0]),
              (GROUPS[0], MEASURES[1])], True)
    def test_the_whole_table_equals_the_reference(self, rows, grouped):
        dictionary, table = table_of(("g", "v"), rows)
        query = query_over(CALLS, grouped)
        assert aggregated(query, dictionary, table) \
            == reference(CALLS, grouped, rows)


def select(text, names, rows):
    """``text``'s grouped tail over an id table of ``rows``."""
    dictionary, table = table_of(names, rows)
    return aggregated(parse_query(text), dictionary, table)


EVERY = ("SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) "
         "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE {}")


class TestFixedCases:
    def test_implicit_group_over_no_rows(self):
        assert select(EVERY, ("v",), []) == [
            {"n": Literal(0), "sum": Literal(0)}]
        assert select(EVERY + " GROUP BY ?g", ("g", "v"), []) == []

    def test_all_unbound_argument(self):
        assert select(EVERY, ("v",), [(None,), (None,)]) == [
            {"n": Literal(0), "sum": Literal(0)}]

    def test_non_numeric_is_sticky_for_sum_and_avg_only(self):
        rows = [(Literal(4),), (Literal("n/a"),), (Literal(2),)]
        assert select(EVERY, ("v",), rows) == [{
            "n": Literal(3), "lo": Literal(2), "hi": Literal("n/a")}]

    def test_having_mixes_a_group_key_and_an_aggregate(self):
        # busy_continent_year's shape: a dice on a level and a measure
        text = ("SELECT ?c ?y (SUM(?m) AS ?total) WHERE {} GROUP BY ?c ?y "
                "HAVING (?c != 'Europe' && SUM(?m) > 10)")
        rows = [(Literal(c), Literal(y), Literal(m)) for c, y, m in [
            ("Asia", 2013, 7), ("Europe", 2013, 50), ("Asia", 2014, 3),
            ("Asia", 2013, 5), ("Africa", 2014, 11), ("Asia", 2014, 7)]]
        assert select(text, ("c", "y", "m"), rows) == [
            {"c": Literal("Asia"), "y": Literal(2013), "total": Literal(12)},
            {"c": Literal("Africa"), "y": Literal(2014),
             "total": Literal(11)}]

    def test_expression_key(self):
        text = ("SELECT ?y (COUNT(*) AS ?n) WHERE {} "
                "GROUP BY (YEAR(?d) AS ?y)")
        dates = ["2014-03-01", "2013-01-01", "2014-12-31"]
        rows = [(Literal(d, datatype=XSD_DATE),) for d in dates] \
            + [(Literal("not a date"),)]
        assert select(text, ("d",), rows) == [
            {"y": Literal(2014), "n": Literal(2)},
            {"y": Literal(2013), "n": Literal(1)},
            {"n": Literal(1)}]  # the key is an error: unbound, one group

    def test_expression_argument(self):
        text = "SELECT (SUM(?a * ?b) AS ?s) (COUNT(?a * ?b) AS ?n) WHERE {}"
        rows = [(Literal(2), Literal(3)), (Literal(4), None),
                (Literal(5), Literal(1))]
        assert select(text, ("a", "b"), rows) == [
            {"s": Literal(11), "n": Literal(2)}]

    def test_groups_come_in_first_occurrence_order(self):
        text = "SELECT ?g (COUNT(*) AS ?n) WHERE {} GROUP BY ?g"
        order = ["b", "c", "a", "c", "b", "d"]
        result = select(text, ("g",), [(Literal(g),) for g in order])
        assert [row["g"].lexical for row in result] == ["b", "c", "a", "d"]


#: SUM, AVG and both COUNTs: the aggregates with a column-at-a-time fold
ARRAY_CALLS = [Aggregate("SUM", VariableExpression("v")),
               Aggregate("AVG", VariableExpression("v")),
               Aggregate("COUNT", VariableExpression("v")),
               Aggregate("COUNT", None)]


def bits(number):
    """A number, told apart to the bit (``-0.0`` from ``0.0``, one NaN
    from another) and by class (``1`` from ``1.0``)."""
    if isinstance(number, float):
        return ("double", struct.pack("<d", number))
    return (type(number).__name__, number)


class TestArrayFoldEdges:
    """Where the array fold of SUM / AVG / COUNT must hand over to the
    row-at-a-time ``step`` — or must not differ from it by a bit."""

    def check(self, measures, groups=None):
        """``ARRAY_CALLS`` over ``measures`` (grouped when ``groups``
        names each row's group): the whole table and the reference
        agree; the partial's states are builtin values equal to a
        left-to-right Python sum to the bit.  Returns the bindings."""
        grouped = groups is not None
        rows = list(zip(groups if grouped else [None] * len(measures),
                        measures))
        dictionary, table = table_of(("g", "v"), rows)
        query = query_over(ARRAY_CALLS, grouped)
        whole = aggregated(query, dictionary, table)
        assert whole == reference(ARRAY_CALLS, grouped, rows)
        plan = Plan(query)
        part = partials(plan, table, dictionary.decode, CTX)
        members = {}
        for group, measure in rows:
            members.setdefault(group if grouped else None, []).append(
                measure)
        for (key, states), values in zip(part.items(), members.values()):
            assert all(type(cell) is int for cell in key)
            total, count, failed = 0, 0, False
            for term in values:
                try:
                    number = numeric_value(term)
                except ExpressionError:
                    failed = failed or term is not None
                    continue
                if isinstance(total, Decimal) and isinstance(number, float):
                    total = float(total)
                elif isinstance(total, float) \
                        and isinstance(number, Decimal):
                    number = float(number)
                total, count = total + number, count + 1
            for state in states[:2]:  # SUM and AVG
                assert type(state) is tuple
                assert (bits(state[0]), state[1:]) \
                    == (bits(total), (count, failed))
            bound = sum(term is not None for term in values)
            assert states[2:] == [bound, len(values)]
            assert type(states[2]) is int and type(states[3]) is int
        return whole

    def test_integers_past_double_precision_stay_exact(self):
        [row] = self.check([Literal(2**53), Literal(1), Literal(1)])
        assert row["a0"] == Literal(2**53 + 2)

    @pytest.mark.parametrize("measures, total", [
        ([2**63 - 1], 2**63 - 1),           # the last sum int64 holds
        ([2**62, 2**62], 2**63),            # the first it does not
        ([-2**63], -2**63),
        ([2**63 - 1, 1, -2**63, -5], -5),   # overflows on the way only
        ([2**64, 1], 2**64 + 1),            # a value int64 cannot hold
    ])
    def test_integers_at_the_int64_edge_stay_exact(self, measures, total):
        [row] = self.check([Literal(value) for value in measures])
        assert row["a0"] == Literal(total)

    def test_doubles_agree_with_a_python_sum_to_the_bit(self):
        special = [-0.0, math.inf, -math.inf, math.nan, 0.1, 0.2, 1e16,
                   1.0, -1e16]
        self.check([Literal(-0.0)])
        self.check([Literal(-0.0), Literal(-0.0)])
        self.check([Literal(math.inf), Literal(-math.inf), Literal(1.0)])
        self.check([Literal(value) for value in special],
                   [GROUPS[index % 2] for index in range(len(special))])
        # cancellation: any other order of additions gives another sum
        [row] = self.check([Literal(value) for value in
                            (1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3)])
        assert row["a0"] == Literal(((((((1e16 + 1.0) + -1e16) + 1.0)
                                       + 0.1) + 0.2) + 0.3))

    def test_mixed_numeric_classes_take_the_general_fold(self):
        decimal = Literal("2.5", datatype=XSD_DECIMAL)
        [row] = self.check([Literal(2**53), Literal(1), Literal(1.0)])
        assert row["a0"] == Literal(float(2**53 + 1) + 1.0)
        [row] = self.check([Literal(1), decimal, Literal(3)])
        assert row["a0"] == Literal("6.5", datatype=XSD_DECIMAL)
        [row] = self.check([decimal, Literal(0.5), Literal(1)])
        assert row["a0"] == Literal(4.0)
        # one group all integers, one all doubles, one mixed
        self.check([Literal(1), Literal(0.5), Literal(2), Literal(1.5),
                    decimal, Literal(7)],
                   [GROUPS[0], GROUPS[1], GROUPS[0], GROUPS[1], GROUPS[2],
                    GROUPS[2]])

    def test_one_non_numeric_value_fails_its_group_only(self):
        rows = self.check(
            [Literal(1), Literal("n/a"), Literal(2), Literal(4)],
            [GROUPS[0], GROUPS[1], GROUPS[0], GROUPS[1]])
        assert rows == [
            {"g": GROUPS[0], "a0": Literal(3),
             "a1": Literal("1.5", datatype=XSD_DECIMAL), "a2": Literal(2),
             "a3": Literal(2)},
            {"g": GROUPS[1], "a2": Literal(2), "a3": Literal(2)}]

    def test_a_group_no_bound_value_reaches(self):
        """SUM stays the integer 0 — not 0.0 — beside groups of
        doubles; AVG is unbound; COUNT(?v) and COUNT(*) part ways."""
        rows = self.check(
            [Literal(1.5), None, Literal(2.5), None],
            [GROUPS[0], GROUPS[1], GROUPS[0], GROUPS[1]])
        assert rows == [
            {"g": GROUPS[0], "a0": Literal(4.0), "a1": Literal(2.0),
             "a2": Literal(2), "a3": Literal(2)},
            {"g": GROUPS[1], "a0": Literal(0), "a2": Literal(0),
             "a3": Literal(2)}]
        assert self.check([None, None]) == [
            {"a0": Literal(0), "a2": Literal(0), "a3": Literal(2)}]

    def test_no_group_by_over_zero_rows(self):
        assert self.check([]) == [
            {"a0": Literal(0), "a2": Literal(0), "a3": Literal(0)}]
        assert self.check([], []) == []


class TestSharedFolds:
    """Calls that compute the same thing — the translator projects
    ``SUM(?m)`` *and* tests it in HAVING for a measure dice after a
    roll-up — are one fold and one state."""

    ROWS = [(GROUPS[0], Literal(5)), (GROUPS[1], Literal(1)),
            (GROUPS[0], Literal(5)), (GROUPS[2], Literal(30)),
            (GROUPS[0], Literal(7)), (GROUPS[1], Literal(1))]

    def counted(self, monkeypatch, text):
        """``text``'s bindings over ``ROWS`` and what computing them
        cost: ``(bindings, folds per partial, finishes per group)``."""
        from repro.sparql import aggregation

        folds, finishes = [], []

        def counting(original, log):
            def wrapper(*args):
                log.append(args[0])
                return original(*args)
            return wrapper

        monkeypatch.setattr(aggregation, "_states",
                            counting(aggregation._states, folds))
        for accumulator in (aggregation._Sum, aggregation._Values):
            monkeypatch.setattr(accumulator, "finish",
                                counting(accumulator.finish, finishes))
        result = select(text, ("g", "v"), self.ROWS)
        groups = 3
        assert len(finishes) % groups == 0
        return result, len(folds), len(finishes) // groups

    def expected(self, having=lambda total: True):
        """What the row-at-a-time oracle says of SUM(?v) and
        SUM(DISTINCT ?v) per group."""
        calls = [Aggregate("SUM", VariableExpression("v")),
                 Aggregate("SUM", VariableExpression("v"), distinct=True)]
        return [row for row in reference(calls, True, self.ROWS)
                if having(row["a0"].value)]

    def test_projection_and_having_share_one_fold(self, monkeypatch):
        text = ("SELECT ?g (SUM(?v) AS ?total) (SUM(?v) + 1 AS ?more) "
                "WHERE {} GROUP BY ?g HAVING (SUM(?v) > 2 && SUM(?v) < 20)")
        result, folds, finishes = self.counted(monkeypatch, text)
        assert result == [
            {"g": row["g"], "total": row["a0"],
             "more": Literal(row["a0"].value + 1)}
            for row in self.expected(lambda total: 2 < total < 20)]
        assert [row["total"] for row in result] == [Literal(17)]
        assert (folds, finishes) == (1, 1)

    def test_the_shared_value_orders_the_groups_it_keeps(
            self, monkeypatch):
        """Through the endpoint, where ORDER BY runs: the one folded
        value is projected, passes two groups through HAVING and sorts
        them, read through the alias."""
        from repro.sparql import LocalEndpoint, aggregation

        endpoint = LocalEndpoint()
        endpoint.update("PREFIX : <http://example.org/> INSERT DATA { "
                        ":a :g :g0 ; :v 5 . :b :g :g1 ; :v 1 . "
                        ":c :g :g0 ; :v 7 . :d :g :g2 ; :v 30 . "
                        ":e :g :g1 ; :v 1 . }")
        folds = []
        original = aggregation._states
        monkeypatch.setattr(
            aggregation, "_states",
            lambda *args: folds.append(args[0]) or original(*args))
        for direction, totals in (("DESC", [30, 12]), ("ASC", [12, 30])):
            del folds[:]
            result = endpoint.select(
                "PREFIX : <http://example.org/> "
                "SELECT ?g (SUM(?v) AS ?total) WHERE { ?s :g ?g ; :v ?v } "
                "GROUP BY ?g HAVING (SUM(?v) > 2 && SUM(?v) < 40) "
                f"ORDER BY {direction}(?total)")
            assert [row[1] for row in result.rows] == [
                Literal(total) for total in totals]
            assert len(folds) == 1

    def test_arguments_that_see_every_row_are_never_shared(self):
        """A pattern's repr is a summary (``BGP(1 patterns)``), so two
        EXISTS that differ only inside their patterns *print* alike;
        and ``BNODE()`` mints per call.  Neither shares a fold."""
        from repro.sparql import LocalEndpoint

        endpoint = LocalEndpoint()
        endpoint.update("PREFIX : <http://example.org/> INSERT DATA { "
                        ":a :g :g0 ; :p 1 . :b :g :g0 ; :p 1 ; :q 1 . "
                        ":c :g :g0 . :d :g :g1 ; :q 1 . }")
        text = ("PREFIX : <http://example.org/> "
                "SELECT ?g (SUM(IF(EXISTS { ?s :p ?o }, 1, 0)) AS ?p) "
                "(SUM(IF(EXISTS { ?s :q ?o }, 1, 0)) AS ?q) "
                "(SAMPLE(BNODE()) AS ?one) (SAMPLE(BNODE()) AS ?other) "
                "WHERE { ?s :g ?g } GROUP BY ?g "
                "HAVING (SUM(IF(EXISTS { ?s :q ?o }, 1, 0)) > 0) "
                "ORDER BY ?g")
        plan = Plan(parse_query(text))
        having, by_p, by_q, _one, _other = plan.aggregates
        assert repr(by_p) == repr(by_q) == repr(having)  # the trap
        assert len(plan.folds) == 5
        rows = endpoint.select(text).rows
        assert [row[1:3] for row in rows] == [
            (Literal(2), Literal(1)), (Literal(0), Literal(1))]
        nodes = [node for row in rows for node in row[3:]]
        assert len(set(nodes)) == 4

    def test_distinct_and_separators_are_kept_apart(self, monkeypatch):
        text = ("SELECT ?g (SUM(?v) AS ?all) (SUM(DISTINCT ?v) AS ?once) "
                "(GROUP_CONCAT(?v; SEPARATOR='|') AS ?bar) "
                "(GROUP_CONCAT(?v; SEPARATOR=',') AS ?comma) "
                "(GROUP_CONCAT(?v; SEPARATOR='|') AS ?again) "
                "WHERE {} GROUP BY ?g HAVING (SUM(DISTINCT ?v) > 0)")
        result, folds, finishes = self.counted(monkeypatch, text)
        assert [(row["g"], row["all"], row["once"]) for row in result] == [
            (row["g"], row["a0"], row["a1"]) for row in self.expected()]
        assert [row["once"] for row in result] == [
            Literal(12), Literal(1), Literal(30)]
        assert [(row["bar"], row["comma"], row["again"])
                for row in result][0] == (
            Literal("5|5|7"), Literal("5,5,7"), Literal("5|5|7"))
        # SUM(DISTINCT) finishes as a plain SUM of its distinct values
        assert (folds, finishes) == (4, 4 + 1)

    def test_one_fold_serves_every_reader(self):
        query = parse_query(
            "SELECT (SUM(?v) AS ?s) WHERE {} GROUP BY ?g "
            "HAVING (SUM(?v) > 2) ORDER BY DESC(SUM(?v))")
        plan = Plan(query)
        assert len(plan.aggregates) == len(plan.folds) == 1
        [readers] = plan.readers
        assert len(readers) == 3 and readers[0] is plan.aggregates[0]
        dictionary, table = table_of(("g", "v"), self.ROWS)
        assert aggregated(query, dictionary, table) == [
            {"g": GROUPS[0], "s": Literal(17)},
            {"g": GROUPS[2], "s": Literal(30)}]


class TestOrderByAnAggregate:
    """``ORDER BY DESC(SUM(?v))`` sorts as ``ORDER BY DESC(?s)`` over
    ``(SUM(?v) AS ?s)`` does: the call reads its group's fold.  Through
    the endpoint, where ORDER BY runs."""

    #: group a: sum 2, count 3, min 0; b: 50, 1, 50; c: 24, 4, 6 —
    #: every order below differs from the others and from a, b, c
    DATA = ("PREFIX : <http://example.org/> INSERT DATA { "
            ":a1 :g :a ; :v 0 . :a2 :g :a ; :v 1 . :a3 :g :a ; :v 1 . "
            ":b1 :g :b ; :v 50 . "
            ":c1 :g :c ; :v 6 . :c2 :g :c ; :v 6 . :c3 :g :c ; :v 6 . "
            ":c4 :g :c ; :v 6 . }")
    HEAD = "PREFIX : <http://example.org/> SELECT ?g "
    BODY = " WHERE { ?s :g ?g ; :v ?v } GROUP BY ?g "

    @pytest.fixture(scope="class")
    def endpoint(self):
        from repro.sparql import LocalEndpoint

        endpoint = LocalEndpoint()
        endpoint.update(self.DATA)
        return endpoint

    def groups(self, endpoint, projection, order):
        result = endpoint.select(self.HEAD + projection + self.BODY
                                 + "ORDER BY " + order)
        return [row[0].local_name() for row in result.rows]

    @pytest.mark.parametrize("call, direction, expected", [
        ("SUM(?v)", "DESC", ["b", "c", "a"]),
        ("SUM(?v)", "ASC", ["a", "c", "b"]),
        ("COUNT(?v)", "DESC", ["c", "a", "b"]),
        ("MIN(?v)", "ASC", ["a", "c", "b"]),
    ])
    def test_the_call_sorts_as_its_alias(self, endpoint, call, direction,
                                         expected):
        alias = self.groups(endpoint, f"({call} AS ?x)",
                            f"{direction}(?x)")
        assert alias == expected
        # projected beside it, and not projected at all
        assert self.groups(endpoint, f"({call} AS ?x)",
                           f"{direction}({call})") == expected
        assert self.groups(endpoint, "", f"{direction}({call})") == expected

    def test_an_expression_over_aggregates(self, endpoint):
        """The mean, never projected: a 2/3, b 50, c 6."""
        assert self.groups(endpoint, "",
                           "DESC(SUM(?v) / COUNT(?v)) ?g") == ["b", "c", "a"]
        assert self.groups(endpoint, "(AVG(?v) AS ?m)",
                           "DESC(?m)") == ["b", "c", "a"]

    def test_the_sort_key_shares_the_projected_fold(self):
        plan = Plan(parse_query(
            self.HEAD + "(SUM(?v) AS ?s)" + self.BODY
            + "ORDER BY DESC(SUM(?v)) ASC(COUNT(?v))"))
        assert [call.name for call in plan.aggregates] == ["SUM", "COUNT"]
        assert [len(readers) for readers in plan.readers] == [2, 1]


class TestDistinctIdsOfTheArgument:
    def test_dense_ids_are_counted_not_sorted(self, monkeypatch):
        """SUM over a plain variable lifts its distinct ids: counted
        while they are dense, ``np.unique`` once past the bound."""
        from tests.olap.test_grouping import unique_calls

        query = parse_query("SELECT (SUM(?v) AS ?s) WHERE {}")
        plan = Plan(query)
        for fillers, sorts in ((0, 0), (40, 1)):
            dictionary = TermDictionary()
            ids = [dictionary.encode(Literal(3))]
            for filler in range(fillers):
                dictionary.encode(Literal(f"filler {filler}"))
            ids.append(dictionary.encode(Literal(4)))
            table = id_table(("v",), [(ids[index % 2],)
                                          for index in range(6)])
            part = {}
            assert unique_calls(monkeypatch, lambda: part.update(partials(
                plan, table, dictionary.decode, CTX))) == sorts
            assert finalize(plan, part, dictionary.decode, CTX)[0] == [
                {"s": Literal(21)}]
