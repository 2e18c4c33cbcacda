"""Solving a pattern never leaves the id columns.

Every ``rollup_20k`` / ``dice_20k`` program is a star join from the
observations up the hierarchies, an optional FILTER, and a grouped SUM.
From the first join step to the aggregate partials that whole pipeline
works on ``BindingTable.columns``.  So do the operators that pair two
tables — OPTIONAL, MINUS, VALUES, ``GRAPH ?g``, a sub-SELECT — with
unbound cells on either side: the derived ``.rows`` view is for result
decoding, and inside a solve only EXISTS (answered per row) reads it.
The tests poison the view for those stretches, so an operator that
quietly falls back to row tuples fails here rather than in the
benchmark's numbers.
"""

import sys

import pytest

from benchmarks.perf.workloads import PROGRAMS, VARIANTS
from repro.data import small_demo
from repro.demo import enrich
from repro.enrichment.redefinition import read_qb_components
from repro.qb.constraints import STATIC_CONSTRAINTS
from repro.sparql import aggregation, evaluator_walker
from repro.sparql.algebra import SubSelectNode
from repro.sparql.bindings import BindingTable
from repro.sparql.evaluator import (
    DatasetContext,
    PatternEvaluator,
    evaluate_select,
)
from repro.sparql.parser import parse_query


@pytest.fixture(scope="module")
def fresh():
    return enrich(small_demo(observations=1200, seed=33))


def poisoned(_table):
    raise AssertionError("BindingTable.rows read between the first join "
                         "step and the GROUP BY partials")


def grouped_select(query):
    """The grouped SELECT of a translated text: the query itself
    (direct), or the sub-SELECT the optimized text wraps — under a
    FILTER when a measure dice follows the roll-up."""
    node = query.pattern
    while not isinstance(node, SubSelectNode):
        node = getattr(node, "child", None)
        if node is None:
            return query
    return node.query


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_view_is_not_read_before_group_by(fresh, monkeypatch, name,
                                               variant):
    executed = fresh.engine.execute(PROGRAMS[name], variant=variant)
    query = grouped_select(
        parse_query(getattr(executed.translation, variant)))
    assert query.is_aggregate_query
    context = DatasetContext(fresh.endpoint.dataset)
    source = context.default_source()
    evaluator = PatternEvaluator(context)
    plan = aggregation.Plan(query)
    decode = evaluator._dict.decode
    eval_context = evaluator._context_for(source)
    with monkeypatch.context() as patch:
        patch.setattr(BindingTable, "rows", property(poisoned))
        table = evaluator.solve(query.pattern, source)
        parts = aggregation.partials(plan, table, decode, eval_context)
    groups, _order_terms = aggregation.finalize(plan, parts, decode,
                                                eval_context)
    # the same groups the un-poisoned evaluator answers
    expected = evaluate_select(query, context)
    assert sorted(
        tuple(str(group.get(name)) for name in expected.vars)
        for group in groups) == sorted(
        tuple(str(cell) for cell in row) for row in expected.rows)


class _Recorder:
    """An endpoint that records the query it is asked and answers no
    rows: how a production query text is captured as it stands."""

    def __init__(self):
        self.queries = []

    def select(self, query):
        self.queries.append(query)
        return []


def component_query(fresh):
    recorder = _Recorder()
    read_qb_components(recorder, fresh.data.dsd)
    (query,) = recorder.queries
    return query


def paired_queries(fresh):
    """``{case: (query text, the operator it must reach)}``, each with
    unbound cells where the operator pairs rows."""
    qb = "PREFIX qb: <http://purl.org/linked-data/cube#>\n"
    dimensions, _measures = read_qb_components(fresh.endpoint,
                                               fresh.data.dsd)
    first, second = (f"<{prop.value}>" for prop in dimensions[:2])
    one, other = (fresh.endpoint.select(
        f"SELECT ?v WHERE {{ ?obs {prop} ?v }} LIMIT 1").rows[0][0]
        for prop in (first, second))
    return {
        "optional": (component_query(fresh), "_left_outer"),
        "minus": (qb + """SELECT ?c ?dim WHERE {
            ?dsd qb:component ?c . OPTIONAL { ?c qb:dimension ?dim }
            MINUS { ?c qb:measure ?m . OPTIONAL { ?c qb:dimension ?dim } }
        }""", "paired"),
        "values": (f"""SELECT * WHERE {{
            ?obs {first} ?a ; {second} ?b .
            VALUES (?a ?b) {{ (<{one.value}> UNDEF) (UNDEF <{other.value}>)
                              (<{one.value}> <{other.value}>) }}
        }}""", "paired"),
        "graph": (qb + """SELECT ?g ?dsd WHERE {
            GRAPH ?g { ?dsd qb:component ?c }
        }""", "paired"),
        "subselect": (f"""SELECT * WHERE {{
            ?obs {first} ?a .
            {{ SELECT ?a (COUNT(?o) AS ?n) WHERE {{ ?o {first} ?a }}
              GROUP BY ?a }}
        }}""", "paired"),
    }


def test_paired_operators_do_not_read_the_rows_view(fresh, monkeypatch):
    """OPTIONAL, MINUS, VALUES with ``UNDEF``, ``GRAPH ?g`` and a
    sub-SELECT pair rows through the kernel: no row view is read while
    one is solved, and each reaches the operator it is about."""
    context = DatasetContext(fresh.endpoint.dataset)
    source = context.default_source()
    for case, (text, operator) in paired_queries(fresh).items():
        calls = []
        original = getattr(evaluator_walker, operator)

        def counted(*args, original=original, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        query = parse_query(text)
        evaluator = PatternEvaluator(context)
        with monkeypatch.context() as patch:
            patch.setattr(BindingTable, "rows", property(poisoned))
            patch.setattr(evaluator_walker, operator, counted)
            table = evaluator.solve(query.pattern, source)
        assert calls, case
        assert len(table) > 0, case
        expected = evaluate_select(query, context)
        assert len(table) == len(expected), case


def test_an_ic_ask_reads_rows_only_to_answer_exists(fresh, monkeypatch):
    """An IC-suite ``FILTER NOT EXISTS`` ASK: its joins and its seeded
    EXISTS walk stay on the columns; the one reader of the row view is
    ``expression_column``'s per-row branch, where the EXISTS verdicts
    are read at each row's cursor."""
    check = next(check for check in STATIC_CONSTRAINTS
                 if check.ic == "IC-1")
    readers = []
    view = BindingTable.rows

    def recorded(table):
        readers.append(sys._getframe(1).f_code.co_name)
        return view.fget(table)

    context = DatasetContext(fresh.endpoint.dataset)
    source = context.default_source()
    for text in check.queries:
        query = parse_query(text)
        with monkeypatch.context() as patch:
            patch.setattr(BindingTable, "rows", property(recorded))
            table = PatternEvaluator(context).solve(query.pattern, source)
        assert len(table) == 0  # the generated cube is well-formed
    assert readers and set(readers) == {"expression_column"}
