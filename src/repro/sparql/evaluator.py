"""SPARQL query evaluation over in-memory graphs: the query forms.

SELECT, ASK, CONSTRUCT and DESCRIBE each solve their pattern with the
one algebra walker
(:class:`~repro.sparql.evaluator_walker.PatternEvaluator`) and apply
their own tail; this module holds those entry points, the one SELECT
tail (projection — grouped queries through
:mod:`repro.sparql.aggregation` — ORDER BY, DISTINCT / REDUCED,
OFFSET / LIMIT) and re-exports the rest of the evaluator family, which
is split along its seams:

* :mod:`repro.sparql.evaluator_source` — the storage adapter
  (:class:`GraphSource`), dataset scoping (:class:`DatasetContext`) and
  the probe counter;
* :mod:`repro.sparql.evaluator_steps` — the BGP join steps;
* :mod:`repro.sparql.evaluator_walker` — the walker and its operators.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.grouping import group
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Term
from repro.sparql import aggregation
from repro.sparql.algebra import (
    AskQuery,
    Query,
    SelectQuery,
    Var,
)
from repro.sparql.bindings import BindingTable
from repro.sparql.errors import EvaluationError
from repro.sparql.evaluator_source import (  # noqa: F401  (re-exports)
    PROBE_COUNTER,
    Binding,
    DatasetContext,
    GraphSource,
    IdPattern,
    IdTriple,
    ProbeCounter,
)
from repro.sparql.evaluator_walker import (  # noqa: F401  (re-exports)
    PatternEvaluator,
    StepTrace,
    read_variables,
)
from repro.sparql.expressions import EvalContext, order_key
from repro.sparql.results import ResultTable


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


#: Distinct-from-everything marker for the REDUCED adjacent-dedup state.
_NO_ROW = object()


def evaluate_select(query: SelectQuery, context: DatasetContext,
                    source: Optional[GraphSource] = None,
                    trace: Optional[List[StepTrace]] = None) -> ResultTable:
    """Evaluate a SELECT query and return its result table.

    ``trace`` (EXPLAIN analyze) installs a step-trace list on the
    evaluator; sub-SELECTs inherit it, so nested plans show in the
    analyzed output.
    """
    scoped = context.scoped(query.from_graphs,
                            getattr(query, "from_named", None))
    if scoped is not context:
        context = scoped
        source = context.default_source()
    elif source is None:
        source = context.default_source()
    evaluator = PatternEvaluator(context)
    evaluator.trace = trace
    eval_context = evaluator._context_for(source)
    # the one tail: id rows → the grouped or the plain projection →
    # _finalize_select
    table = evaluator.solve(query.pattern, source)
    if query.is_aggregate_query:
        plan = aggregation.Plan(query)
        decode = evaluator._dict.decode
        result_bindings, order_terms = aggregation.finalize(
            plan, aggregation.partials(plan, table, decode, eval_context),
            decode, eval_context)
        return _finalize_select(query, result_bindings, eval_context,
                                order_terms)
    names = query.output_names()
    plain = all(item.expression is None for item in query.projection or ())
    windowed = not query.order_by and (
        plain or not (query.distinct or query.reduced))
    if windowed:
        # no sort needs every row: dedup plain variables on ids and cut
        # OFFSET / LIMIT before a row is decoded or projected
        if query.distinct or query.reduced:
            table = _deduplicated(table, names, adjacent=not query.distinct)
        stop = len(table) if query.limit is None \
            else min(len(table), query.offset + query.limit)
        table = table.take(np.arange(min(query.offset, stop), stop))
    result_bindings = evaluator.decoded(_read_columns(query, table))
    for row in result_bindings:
        aggregation.apply_projection(query.projection, row, eval_context)
    if windowed:
        return ResultTable(names, [tuple(row.get(name) for name in names)
                                   for row in result_bindings])
    return _finalize_select(query, result_bindings, eval_context)


def _read_columns(query: SelectQuery, table: BindingTable) -> BindingTable:
    """``table`` cut to the columns the plain SELECT tail reads — the
    projected variables and those its projection and ORDER BY
    expressions read — so that no other column is decoded."""
    names = set(query.output_names())
    for item in query.projection or ():
        if item.expression is not None:
            names |= read_variables(item.expression)
    for expression, _ascending in query.order_by:
        names |= read_variables(expression)
    kept = [name for name in table.names if name in names]
    if len(kept) == len(table.names):
        return table
    return BindingTable.of(kept, [table.columns[table.slots[name]]
                                  for name in kept], len(table))


def _deduplicated(table: BindingTable, names: List[str],
                  adjacent: bool) -> BindingTable:
    """``table`` cut down to the output ``names`` it has, without the
    rows DISTINCT drops (with ``adjacent``, REDUCED's adjacent dedup:
    a row equal to the one before it), in order.  Within one evaluator
    ids and terms are one-to-one (overlay ids included), so these are
    the rows the dedup keeps after decoding — a deduplicated SELECT of
    plain variables decodes its answer, not its input."""
    kept = [name for name in names if name in table.slots]
    columns = [table.columns[table.slots[name]] for name in kept]
    if not columns:
        return BindingTable.of((), (), min(len(table), 1))
    if adjacent:
        changed = np.zeros(len(table), dtype=bool)
        changed[:1] = True
        for column in columns:
            changed[1:] |= column[1:] != column[:-1]
        first = np.flatnonzero(changed)
    else:
        first, _inverse = group(columns, len(table), by_first_row=True)
    return BindingTable.of(kept, [column[first] for column in columns],
                           len(first))


def _finalize_select(query: SelectQuery, result_bindings: List[Binding],
                     eval_context: EvalContext,
                     order_terms: Optional[List[Tuple[Optional[Term], ...]]]
                     = None) -> ResultTable:
    """The SELECT tail of terms: ORDER BY, projection to named rows,
    DISTINCT/REDUCED, OFFSET and LIMIT.

    A SELECT ends here unless :func:`evaluate_select` could dedup and
    cut its rows on ids.  ``order_terms`` holds each
    binding's ORDER BY terms when they had to be evaluated beside it —
    a grouped query's, whose aggregates have values only while
    :func:`aggregation.finalize` works on the group.
    """
    if query.order_by:
        if order_terms is None:
            order_terms = [
                aggregation.order_terms(query.order_by, row, eval_context)
                for row in result_bindings]
        directions = [ascending for _expression, ascending in query.order_by]

        def sort_key(position: int):
            # encode descending by wrapping in a reversor
            return tuple(
                order_key(term) if ascending
                else _Reversed(order_key(term))
                for term, ascending in zip(order_terms[position], directions))
        ranked = sorted(range(len(result_bindings)), key=sort_key)
        result_bindings = [result_bindings[position] for position in ranked]

    names = query.output_names()
    rows: List[Tuple[Optional[Term], ...]] = []
    for row in result_bindings:
        rows.append(tuple(row.get(name) for name in names))

    if query.distinct:
        deduped: List[Tuple[Optional[Term], ...]] = []
        seen: set = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    elif query.reduced:
        # adjacent dedup, exactly like _deduplicated on ids: REDUCED
        # permits any duplicate count between DISTINCT's and the raw
        # multiset's, so both agree row-for-row
        deduped = []
        last: object = _NO_ROW
        for row in rows:
            if row == last:
                continue
            last = row
            deduped.append(row)
        rows = deduped

    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultTable(names, rows)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def evaluate_ask(query: AskQuery, context: DatasetContext) -> bool:
    """Evaluate an ASK query: whether its pattern has a solution."""
    context = context.scoped(getattr(query, "from_graphs", None),
                             getattr(query, "from_named", None))
    return bool(PatternEvaluator(context).solve(
        query.pattern, context.default_source()))


def evaluate_construct(query, context: DatasetContext) -> Graph:
    """Evaluate a CONSTRUCT query into a new graph.

    Template instantiation follows the recommendation: blank nodes in
    the template are freshly minted per solution, rows leaving template
    variables unbound (or producing ill-formed triples, e.g. a literal
    subject) contribute nothing, and the output graph is a set.
    """
    from repro.rdf.errors import TermError
    from repro.rdf.terms import BNode

    context = context.scoped(query.from_graphs,
                             getattr(query, "from_named", None))
    source = context.default_source()
    evaluator = PatternEvaluator(context)
    solutions = evaluator.solutions(query.pattern, source)
    if query.offset:
        solutions = solutions[query.offset:]
    if query.limit is not None:
        solutions = solutions[: query.limit]

    result = Graph()
    for prefix, base in query.prefixes.items():
        result.namespace_manager.bind(prefix, base)
    for binding in solutions:
        bnode_map: Dict[str, BNode] = {}
        for pattern in query.template:
            terms: List[Optional[Term]] = []
            for position in pattern.positions():
                if isinstance(position, Var):
                    if position.name.startswith("_:"):
                        label = position.name[2:]
                        if label not in bnode_map:
                            bnode_map[label] = BNode()
                        terms.append(bnode_map[label])
                    else:
                        terms.append(binding.get(position.name))
                else:
                    terms.append(position)
            if any(term is None for term in terms):
                continue
            try:
                result.add(terms[0], terms[1], terms[2])
            except TermError:
                continue  # ill-formed triple: skipped, not an error
    return result


def evaluate_describe(query, context: DatasetContext) -> Graph:
    """Evaluate a DESCRIBE query as a concise bounded description (CBD).

    For every described resource the output contains its outgoing
    triples, recursing through blank-node objects (the common CBD
    reading the recommendation leaves implementation-defined).
    """
    from repro.rdf.terms import BNode

    context = context.scoped(query.from_graphs,
                             getattr(query, "from_named", None))
    source = context.default_source()
    evaluator = PatternEvaluator(context)

    resources: List[Term] = list(query.resources)
    if query.pattern is not None:
        names = query.variables
        for binding in evaluator.solutions(query.pattern, source):
            if query.star:
                wanted = list(binding.values())
            else:
                wanted = [binding[name] for name in names if name in binding]
            for value in wanted:
                if not isinstance(value, Literal) and value not in resources:
                    resources.append(value)

    result = Graph()
    described: set = set()
    queue: List[Term] = list(resources)
    while queue:
        node = queue.pop()
        if node in described:
            continue
        described.add(node)
        # a bounded description copies stored triples, terms and all:
        # the one term-level scan of the evaluator family
        # repro: allow[single-algebra-walker]
        for triple in source.match((node, None, None)):
            result.add(triple)
            if isinstance(triple.object, BNode) \
                    and triple.object not in described:
                queue.append(triple.object)
    return result


def evaluate_query(query: Query, dataset: Dataset,
                   default_as_union: bool = True):
    """Evaluate a parsed query against a dataset."""
    from repro.sparql.algebra import ConstructQuery, DescribeQuery
    context = DatasetContext(dataset, default_as_union=default_as_union)
    if isinstance(query, SelectQuery):
        return evaluate_select(query, context)
    if isinstance(query, AskQuery):
        return evaluate_ask(query, context)
    if isinstance(query, ConstructQuery):
        return evaluate_construct(query, context)
    if isinstance(query, DescribeQuery):
        return evaluate_describe(query, context)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")
