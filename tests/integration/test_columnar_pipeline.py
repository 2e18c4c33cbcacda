"""The benchmark's queries never leave the id columns before GROUP BY.

Every ``rollup_20k`` / ``dice_20k`` program is a star join from the
observations up the hierarchies, an optional FILTER, and a grouped SUM.
From the first join step to the aggregate partials that whole pipeline
works on ``BindingTable.columns``; the derived ``.rows`` view is for the
row-at-a-time operators, none of which these queries use.  The test
poisons the view for that stretch, so a step that quietly falls back to
row tuples fails here rather than in the benchmark's numbers.
"""

import pytest

from benchmarks.perf.workloads import PROGRAMS, VARIANTS
from repro.data import small_demo
from repro.demo import enrich
from repro.sparql import aggregation
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
