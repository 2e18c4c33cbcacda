"""One evaluation per distinct key ≡ one evaluation per row.

``repro.sparql.bindings.expression_column`` is the only place the id
pipeline evaluates an expression (a FILTER conjunct, BIND, aggregate
arguments, computed group keys), and it evaluates once per *distinct
key* of the columns the expression reads; ``filter_mask`` splits a
FILTER's top-level ``&&`` chain so that every conjunct keys on its own
columns.  Every query route runs them, so their agreement no longer
checks them; these tests do, against the oracle that lives here: the
row-at-a-time loops the evaluator had before, which decode the whole
row for every row and evaluate the condition whole.

Generated tables repeat ids heavily (so the memo is hit), leave cells
unbound, and hold ill-typed numerics, dates, IRIs and literals that are
value-equal without being term-equal (``1``, ``"01"^^xsd:integer``,
``1.0``) — distinct ids the memo must keep apart.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf import Dataset, IRI, Literal
from repro.rdf.terms import BNode, XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from repro.sparql import LocalEndpoint
from repro.sparql.algebra import Empty, Extend, Filter
from repro.sparql.bindings import expression_column, filter_mask
from repro.sparql.errors import EvaluationError, ExpressionError
from repro.sparql.evaluator import DatasetContext, PatternEvaluator
from repro.sparql.expressions import (
    ArithmeticExpression,
    BooleanExpression,
    ComparisonExpression,
    Expression,
    FunctionExpression,
    InExpression,
    NotExpression,
    TermExpression,
    UnaryMinusExpression,
    VariableExpression,
    effective_boolean_value,
)
from repro.sparql.parser import parse_query

from tests.sparql.tables import id_table

EX ="http://example.org/"

#: cells: value-equal numerics of four lexical forms, an ill-typed
#: numeric, strings that differ in case / language, dates, IRIs, a
#: boolean; ``None`` is an unbound cell
CELLS = [
    Literal(1), Literal("01", datatype=XSD_INTEGER), Literal(1.0),
    Literal("1.0", datatype=XSD_DECIMAL), Literal(2), Literal(-3), Literal(0),
    Literal("abc", datatype=XSD_INTEGER), Literal("Asia"), Literal("asia"),
    Literal("Asia", language="en"), Literal("2014-03-01", datatype=XSD_DATE),
    Literal("2015-01-01", datatype=XSD_DATE), IRI(EX + "a"), IRI(EX + "b"),
    Literal(True), None]
#: ``?w`` never has a column; ``#mark`` is internal and never decoded
NAMES = ("x", "y", "#mark", "z")
VARIABLES = ["x", "y", "z", "w"]

terms = st.sampled_from([cell for cell in CELLS if cell is not None])
#: a row pool of at most four distinct rows, so ids repeat heavily
tables = st.lists(
    st.tuples(*[st.sampled_from(CELLS)] * len(NAMES)),
    min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=30))


def function(name, *args):
    return FunctionExpression(name, list(args))


def compound(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda op, pair: ComparisonExpression(op, *pair),
                  st.sampled_from(["=", "!=", "<", ">", "<=", ">="]), pairs),
        st.builds(lambda op, pair: BooleanExpression(op, *pair),
                  st.sampled_from(["&&", "||"]), pairs),
        st.builds(lambda op, pair: ArithmeticExpression(op, *pair),
                  st.sampled_from(["+", "-", "*", "/"]), pairs),
        st.builds(NotExpression, children),
        st.builds(UnaryMinusExpression, children),
        st.builds(InExpression, children,
                  st.lists(children, min_size=1, max_size=3), st.booleans()),
        st.builds(lambda name: function("BOUND", VariableExpression(name)),
                  st.sampled_from(VARIABLES)),
        st.builds(lambda args: function("COALESCE", *args),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda args: function("IF", *args),
                  st.tuples(children, children, children)),
        st.builds(lambda arg: function("STR", arg), children),
        st.builds(lambda arg, pattern: function(
            "REGEX", function("STR", arg), TermExpression(Literal(pattern))),
            children, st.sampled_from(["^A", "a$", "1"])))


expressions = st.recursive(
    st.one_of(st.builds(VariableExpression, st.sampled_from(VARIABLES)),
              st.builds(TermExpression, terms)),
    compound, max_leaves=8)


class Harness:
    """An evaluator over an empty dataset and an id table of its
    dictionary, plus the row-at-a-time reference loops."""

    def __init__(self, rows, names=NAMES, triples=()):
        dataset = Dataset()
        dataset.default.add_all(triples)
        context = DatasetContext(dataset)
        self.evaluator = PatternEvaluator(context)
        self.source = context.default_source()
        self.encode = self.evaluator._dict.encode
        self.decode = self.evaluator._dict.decode
        self.context = self.evaluator._context_for(self.source)
        self.table = id_table(names, [
            tuple(None if term is None else self.encode(term)
                  for term in row) for row in rows])

    def whole(self, row):
        """The row decoded in full, as every boundary used to."""
        return {name: self.decode(cell)
                for name, cell in zip(self.table.names, row)
                if cell is not None and not name.startswith("#")}

    def reference_filter(self, condition):
        kept = []
        for row in self.table.rows:
            try:
                if effective_boolean_value(
                        condition.evaluate(self.whole(row), self.context)):
                    kept.append(row)
            except ExpressionError:
                continue
        return kept

    def reference_extend(self, name, expression):
        table = self.table
        slot = table.slots.get(name)
        out = []
        for row in table.rows:
            if slot is not None and row[slot] is not None:
                raise EvaluationError(f"would rebind ?{name}")
            try:
                value = self.encode(
                    expression.evaluate(self.whole(row), self.context))
            except ExpressionError:
                value = None
            if slot is not None:
                cells = list(row)
                cells[slot] = value
                out.append(tuple(cells))
            else:
                out.append(row + (value,))
        return (table.names if slot is not None
                else table.names + (name,)), out

    def reference_values(self, expression):
        values = []
        for row in self.table.rows:
            try:
                values.append(
                    expression.evaluate(self.whole(row), self.context))
            except ExpressionError:
                values.append(None)
        return values

    def filter(self, condition):
        return self.evaluator._filter_table(
            self.table, condition, self.source)

    def extend(self, name, expression):
        return self.evaluator._extend_table(
            Extend(Empty(), name, expression), self.table, self.source)

    def mask(self, condition):
        """The rows at the indices ``filter_mask`` answers."""
        kept = filter_mask(
            condition, self.table, self.decode,
            self.evaluator._context_for(self.source, self.table))
        assert kept.tolist() == sorted(set(kept.tolist()))
        return [self.table.rows[index] for index in kept.tolist()]

    def values(self, expression):
        values, codes = expression_column(
            expression, self.table, self.decode, self.context)
        return [values[code] for code in codes.tolist()]


class TestMemoisedEqualsRowAtATime:
    @settings(max_examples=400, deadline=None)
    @given(tables, expressions)
    def test_filter_keeps_the_same_rows_in_order(self, rows, condition):
        harness = Harness(rows)
        result = harness.filter(condition)
        assert result.names == NAMES
        assert result.rows == harness.reference_filter(condition)

    @settings(max_examples=400, deadline=None)
    @given(tables, expressions, st.sampled_from(["b", "z"]))
    def test_bind_encodes_the_same_values_or_refuses_alike(
            self, rows, expression, name):
        harness = Harness(rows)
        try:
            expected = harness.reference_extend(name, expression)
        except EvaluationError:
            with pytest.raises(EvaluationError, match="rebind"):
                harness.extend(name, expression)
            return
        result = harness.extend(name, expression)
        assert (result.names, result.rows) == expected

    @settings(max_examples=400, deadline=None)
    @given(tables, expressions)
    def test_group_key_terms_are_the_same(self, rows, expression):
        harness = Harness(rows)
        assert harness.values(expression) == harness.reference_values(
            expression)


class Counting(Expression):
    """``operand``, counting its evaluations (an attribute name
    ``subexpressions`` descends into, so what it wraps is still seen)."""

    def __init__(self, operand):
        self.operand = operand
        self.calls = 0

    def evaluate(self, binding, context):
        self.calls += 1
        return self.operand.evaluate(binding, context)

    def variables(self):
        return self.operand.variables()


def condition_of(text):
    """The FILTER condition of ``SELECT * WHERE { FILTER(text) }``."""
    node = parse_query(f"SELECT * WHERE {{ FILTER({text}) }}").pattern
    assert isinstance(node, Filter)
    return node.condition


def bind_of(text):
    node = parse_query(f"SELECT * WHERE {{ BIND({text} AS ?b) }}").pattern
    assert isinstance(node, Extend)
    return node.expression


ILL = Literal("abc", datatype=XSD_INTEGER)


#: what the EXISTS conjuncts look at: ``:a :p 1``
FACTS = [(IRI(EX + "a"), IRI(EX + "p"), Literal(1))]

#: conjuncts ``expressions`` cannot draw: EXISTS — true for the rows
#: whose ``?x`` is ``:a``, and through an inner FILTER for those whose
#: ``?y`` equals 1, a variable ``variables()`` does not list — and
#: ``BNODE()``, both of which see every row; constants (true, false, an
#: error); a variable without a column, an error on every row
special = st.sampled_from([
    f"EXISTS {{ ?x <{EX}p> ?o }}",
    f"NOT EXISTS {{ ?s <{EX}p> ?o FILTER(?o = ?y) }}",
    f"?z = 2 || EXISTS {{ ?x <{EX}p> 1 }}",
    "ISBLANK(BNODE())", "BOUND(?y) && ISIRI(BNODE())",
    "true", "false", "'abc'^^<http://www.w3.org/2001/XMLSchema#integer>",
    "?w = 1", "?w = 1 || ?x = 1"]).map(lambda text: condition_of(text))


def both(pair):
    return BooleanExpression("&&", *pair)


#: ``&&`` chains nested either way, two to five conjuncts
chains = st.recursive(
    st.one_of(expressions, special),
    lambda children: st.tuples(children, children).map(both),
    max_leaves=5).filter(lambda node: isinstance(node, BooleanExpression))
#: the same chains where they must not be split: under ``!`` and ``||``
conditions = st.one_of(
    chains, chains, st.builds(NotExpression, chains),
    st.builds(BooleanExpression, st.just("||"), chains, chains))


class TestMaskEqualsRowAtATime:
    @settings(max_examples=600, deadline=None)
    @given(tables, conditions)
    @example([], both((condition_of("?x = 1"), condition_of("true"))))
    @example([], both((condition_of("?x = 1"), condition_of("?y = ?z"))))
    def test_mask_keeps_the_same_rows_in_order(self, rows, condition):
        harness = Harness(rows, triples=FACTS)
        expected = harness.reference_filter(condition)
        assert harness.mask(condition) == expected
        assert harness.filter(condition).rows == expected

    def test_each_conjunct_runs_once_per_key_of_its_own_columns(self):
        rows = [(Literal(x), Literal(y)) for x in (1, 2, 3)
                for y in (1, 2, 3, 4)] * 2
        harness = Harness(rows, names=("x", "y"))

        def counted():
            return (Counting(condition_of("?x < 3")),
                    Counting(condition_of("?y < 4 && ?x > 0")))

        one, other = counted()
        expected = harness.reference_filter(both((one, other)))
        assert len(expected) == 12
        one, other = counted()
        assert harness.mask(both((one, other))) == expected
        assert (one.calls, other.calls) == (3, 12)
        # under ``!`` and ``||`` the chain is one condition, run once
        # per distinct (?x, ?y)
        for whole in (NotExpression(NotExpression(both(counted()))),
                      BooleanExpression("||", both(counted()),
                                        condition_of("false"))):
            assert harness.mask(whole) == expected
            chain = whole.operand.operand if isinstance(
                whole, NotExpression) else whole.left
            assert (chain.left.calls, chain.right.calls) == (12, 12)

    def test_an_erroring_conjunct_drops_the_rows_holding_its_key(self):
        rows = [(Literal(1), Literal("a")), (ILL, Literal("a")),
                (Literal(1), Literal("b")), (ILL, Literal("b")),
                (None, Literal("a")), (Literal(1), None),
                (Literal(1), Literal("a"))]
        harness = Harness(rows, names=("x", "y"))
        numeric = Counting(condition_of("?x < 2"))
        tagged = Counting(condition_of("?y = 'a' || ?y = 1"))
        assert harness.mask(both((numeric, tagged))) == [
            harness.table.rows[0], harness.table.rows[6]]
        # 1, the ill-typed literal, unbound; "a", "b", unbound
        assert (numeric.calls, tagged.calls) == (3, 3)

    def test_a_row_at_a_time_conjunct_does_not_drag_the_others(self):
        rows = [(IRI(EX + name), Literal(value))
                for name in "ab" for value in (1, 2, 3)] * 3
        harness = Harness(rows, names=("x", "y"), triples=FACTS)
        plain = Counting(condition_of("?y < 3"))
        exists = Counting(condition_of(f"EXISTS {{ ?x <{EX}p> ?o }}"))
        minted = Counting(condition_of("ISBLANK(BNODE())"))
        kept = harness.mask(both((both((plain, exists)), minted)))
        assert kept == [row for row in harness.table.rows
                        if harness.decode(row[0]) == IRI(EX + "a")
                        and harness.decode(row[1]).value < 3]
        assert len(kept) == 6
        assert (plain.calls, exists.calls, minted.calls) == (3, 18, 18)

    def test_dense_ids_are_counted_not_sorted_or_hashed(self, monkeypatch):
        """One column of dense ids: no ``np.unique``, no ``np.lexsort``;
        an unbound cell beside overlay ids is past the counting bound
        and sorts once.  Two dense columns are counted as one key; a
        second column too wide for the directory (an unbound cell
        beside overlay ids) makes the key sort once."""
        from tests.olap.test_grouping import unique_calls

        bound = [(Literal(value % 5), Literal("a")) for value in range(40)]
        for rows, text, sorts in (
                (bound, "?x < 3", 0), (bound, "?x < 3 && ?y = 'a'", 0),
                (bound + [(None, None)], "?x < 3", 1),
                (bound, "?x < 3 || ?y = 'a'", 0),
                (bound + [(Literal(1), None)], "?x < 3 || ?y = 'a'", 1)):
            harness = Harness(rows, names=("x", "y"))
            condition = condition_of(text)
            expected = harness.reference_filter(condition)
            assert unique_calls(
                monkeypatch, lambda: harness.mask(condition)) == sorts
            assert harness.mask(condition) == expected


class TestFixedCases:
    def test_bnode_mints_a_node_per_row(self):
        harness = Harness([(Literal(1),)] * 50, names=("x",))
        result = harness.extend("b", bind_of("BNODE()"))
        nodes = [harness.decode(row[1]) for row in result.rows]
        assert all(isinstance(node, BNode) for node in nodes)
        assert len(set(nodes)) == 50
        # nested in a deterministic function, it still does
        result = harness.extend("b", bind_of("COALESCE(?w, BNODE())"))
        assert len({row[1] for row in result.rows}) == 50

    def test_now_is_one_value_on_every_row(self):
        harness = Harness([(Literal(value),) for value in range(20)],
                          names=("x",))
        result = harness.extend("b", bind_of("NOW()"))
        assert len({row[1] for row in result.rows}) == 1

    def test_an_error_drops_exactly_the_rows_holding_that_tuple(self):
        rows = [(Literal(1),), (ILL,), (Literal(1),), (ILL,), (Literal(5),),
                (None,), (ILL,)]
        harness = Harness(rows, names=("x",))
        counted = Counting(condition_of("?x < 2"))
        assert harness.filter(counted).rows == [
            harness.table.rows[0], harness.table.rows[2]]
        # 1, the ill-typed literal, 5 and the unbound cell: four tuples
        assert counted.calls == 4
        bound = harness.extend("b", bind_of("?x + 1"))
        assert [None if row[1] is None else harness.decode(row[1])
                for row in bound.rows] == [
            Literal(2), None, Literal(2), None, Literal(6), None, None]

    def test_value_equal_terms_are_evaluated_apart(self):
        rows = [(Literal(1),), (Literal("01", datatype=XSD_INTEGER),),
                (Literal(1.0),), (Literal(1),)]
        harness = Harness(rows, names=("x",))
        counted = Counting(function("STR", VariableExpression("x")))
        assert harness.values(counted) == [
            Literal("1"), Literal("01"), Literal("1.0"), Literal("1")]
        assert counted.calls == 3

    def test_a_variable_without_a_column_is_unbound_everywhere(self):
        rows = [(Literal(1),), (Literal(2),), (Literal(1),)]
        harness = Harness(rows, names=("x",))
        assert harness.filter(condition_of("?w = 1")).rows == []
        assert harness.filter(
            condition_of("!BOUND(?w)")).rows == harness.table.rows
        assert harness.values(VariableExpression("w")) == [None] * 3
        counted = Counting(bind_of("COALESCE(?w, ?x)"))
        assert harness.values(counted) == [Literal(1), Literal(2), Literal(1)]
        assert counted.calls == 2
        constant = Counting(condition_of("?w = 1 || true"))
        assert harness.filter(constant).rows == harness.table.rows
        assert constant.calls == 1  # it reads no column at all

    @pytest.fixture()
    def endpoint(self):
        endpoint = LocalEndpoint()
        endpoint.update(f"""PREFIX : <{EX}> INSERT DATA {{
            :r1 :val 1 ; :tag "a" . :r2 :val 1 ; :tag "b" .
            :r3 :val 1 ; :tag "a" . :r4 :val 2 ; :tag "c" .
            :r5 :val 1 ; :tag "b" .
            :k :bad "a" . :k :worse 2 . }}""")
        return endpoint

    def test_exists_beside_a_guard_agrees_with_the_join_rewrite(
            self, endpoint):
        """Rows that share the id of every variable the condition
        *lists* still differ where the EXISTS pattern's inner filter
        reads ``?y``: such a condition sees every row."""
        def subjects(where):
            return sorted(row[0].value for row in endpoint.select(
                f"PREFIX : <{EX}> SELECT ?r WHERE {{ {where} }}").rows)

        rows = "?r :val ?x . ?r :tag ?y"
        assert subjects(
            rows + " FILTER(?x = 1 && NOT EXISTS "
                   "{ ?s :bad ?o FILTER(?o = ?y) })"
        ) == subjects(
            rows + " FILTER(?x = 1) MINUS { ?s :bad ?y }"
        ) == [EX + "r2", EX + "r5"]
        assert subjects(
            "?r :val ?x FILTER(?x = 1 && NOT EXISTS { ?s :worse ?x })"
        ) == subjects(
            "?r :val ?x FILTER(?x = 1) MINUS { ?s :worse ?x }"
        ) == [EX + f"r{n}" for n in (1, 2, 3, 5)]
        assert subjects(
            "?r :val ?x FILTER(?x = 2 && EXISTS { ?s :worse ?x })"
        ) == [EX + "r4"]

    def test_exists_in_bind_and_in_an_aggregate_argument(self, endpoint):
        result = endpoint.select(f"""PREFIX : <{EX}>
            SELECT ?x (SUM(IF(EXISTS {{ ?s :bad ?y }}, 1, 0)) AS ?bad)
                   (COUNT(?flag) AS ?n)
            WHERE {{ ?r :val ?x . ?r :tag ?y
                     BIND(EXISTS {{ ?s :bad ?y }} AS ?flag) }}
            GROUP BY ?x ORDER BY ?x""")
        assert result.rows == [
            (Literal(1), Literal(2), Literal(4)),
            (Literal(2), Literal(0), Literal(1))]


class TestOncePerDistinctKey:
    """The benchmark's three-way dice reads three attribute columns:
    each conjunct runs once per distinct id of *its* attribute, not
    once per distinct triple of them."""

    def test_three_way_and_is_evaluated_once_per_attribute_value(
            self, monkeypatch):
        from benchmarks.perf.workloads import DICE_PROGRAMS
        from repro.data import small_demo
        from repro.demo import enrich

        # the cube of tests/integration/test_union_traffic.py
        session = enrich(small_demo(observations=1200, seed=33))
        text = session.engine.execute(
            DICE_PROGRAMS["three_way_and"], variant="direct"
        ).translation.direct
        filtered = []
        original = PatternEvaluator._filter_table

        def counted_chain(condition, conjuncts):
            if isinstance(condition, BooleanExpression) \
                    and condition.op == "&&":
                return both((counted_chain(condition.left, conjuncts),
                             counted_chain(condition.right, conjuncts)))
            conjuncts.append(Counting(condition))
            return conjuncts[-1]

        def counting(self, child, condition, source):
            conjuncts = []
            filtered.append((child, conjuncts))
            return original(
                self, child, counted_chain(condition, conjuncts), source)

        monkeypatch.setattr(PatternEvaluator, "_filter_table", counting)
        expected = session.endpoint.select(text)
        monkeypatch.undo()
        assert session.endpoint.select(text).rows == expected.rows
        (child, conjuncts), = filtered
        assert len(child) > 1000
        assert [conjunct.variables() for conjunct in conjuncts] == [
            {"att0"}, {"att1"}, {"att2"}]
        values = [len(np.unique(child.columns[child.slots[name]]))
                  for name in ("att0", "att1", "att2")]
        assert [conjunct.calls for conjunct in conjuncts] == values
        slots = [child.slots[name] for name in ("att0", "att1", "att2")]
        tuples = {tuple(row[slot] for slot in slots) for row in child.rows}
        assert sum(values) < len(tuples) < len(child) // 4
