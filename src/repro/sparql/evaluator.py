"""SPARQL query evaluation over in-memory graphs: the query forms.

SELECT, ASK, CONSTRUCT and DESCRIBE each drain the one algebra walker
(:class:`~repro.sparql.evaluator_walker.PatternEvaluator`) their own
way and apply their own tail; this module holds those entry points, the
SELECT tail (projection — grouped queries through
:mod:`repro.sparql.aggregation` — ORDER BY, DISTINCT / REDUCED,
OFFSET / LIMIT — streamed and materialized) and re-exports the rest of
the evaluator family, which is split along its seams:

* :mod:`repro.sparql.evaluator_source` — the storage adapter
  (:class:`GraphSource`), dataset scoping (:class:`DatasetContext`,
  which carries the request's stream tally) and the probe counter;
* :mod:`repro.sparql.evaluator_steps` — the BGP join steps;
* :mod:`repro.sparql.evaluator_walker` — the walker and its operators.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

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
)
from repro.sparql.expressions import EvalContext, order_key
from repro.sparql.optimizer import get_plan, leading_bgp, stream_shape
from repro.sparql.results import ResultTable


def would_stream(query: SelectQuery,
                 source: Optional[GraphSource] = None) -> bool:
    """Whether :func:`evaluate_select` takes the streaming path.

    Ignores trace installation — this is the query's *eligibility*: a
    LIMIT, no ORDER BY (a total sort needs every row), no aggregation
    (a group needs every member), and a streamable pattern shape.
    DISTINCT / REDUCED queries stream through the incremental dedup
    operator.

    With a ``source``, the leading BGP's (cached) plan is consulted
    too: a path-first plan cannot scan incrementally, so such a query
    is *not* streamed — and must not be counted or rendered as if it
    were.  Without a source the answer is shape-only.
    """
    if (query.limit is None or query.order_by
            or query.is_aggregate_query
            or not stream_shape(query.pattern)):
        return False
    if source is not None:
        bgp = leading_bgp(query.pattern)
        if bgp is not None and bgp.patterns:
            return get_plan(bgp, frozenset(), source).streamable
    return True


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


#: Distinct-from-everything marker for the REDUCED adjacent-dedup state.
_NO_ROW = object()


def _stream_select(query: SelectQuery, evaluator: PatternEvaluator,
                   source: GraphSource,
                   eval_context: EvalContext) -> ResultTable:
    """The streaming SELECT tail: projection, dedup, OFFSET/LIMIT.

    Solutions are pulled batch-by-batch and pushed through projection
    and — for ``DISTINCT`` / ``REDUCED`` — an *incremental dedup
    operator*; pulling stops once ``OFFSET + LIMIT`` output rows exist.
    ``DISTINCT`` keeps a seen-set of projected rows, bounded by that
    row budget (only emitted rows enter it).  ``REDUCED`` only compares
    against the previous projected row: adjacent dedup needs no
    seen-set, fully dedups grouped input, and is conformant because
    REDUCED permits any duplicate count between DISTINCT's and the
    unmodified multiset's.

    Queries whose projection is plain variables dedup and truncate on
    **term ids** and decode only the emitted rows (the dictionary maps
    terms to ids bijectively, so id-tuple equality is term-tuple
    equality); projection expressions force the decoded-term path.
    """
    names = query.output_names()
    needed = query.offset + (query.limit or 0)
    if needed <= 0:
        return ResultTable(names, [])
    distinct = query.distinct
    reduced = query.reduced and not distinct
    rows: List[tuple] = []
    batch = max(64, min(512, needed))
    has_expressions = any(item.expression is not None
                          for item in query.projection or [])

    def projected() -> Iterator[tuple]:
        """Projected rows in pipeline order: of terms when the
        projection computes expressions, of term ids otherwise."""
        for table in evaluator.stream_tables(query.pattern, source, batch):
            if not has_expressions:
                picks = [table.slots.get(name) for name in names]
                for row in table.rows:
                    yield tuple(None if pick is None else row[pick]
                                for pick in picks)
            else:
                for binding in evaluator.decoded(table):
                    aggregation.apply_projection(
                        query.projection, binding, eval_context)
                    yield tuple(binding.get(name) for name in names)

    seen: set = set()
    last: object = _NO_ROW
    for row in projected():
        if distinct:
            if row in seen:
                continue
            seen.add(row)
        elif reduced:
            if row == last:
                continue
            last = row
        rows.append(row)
        if len(rows) >= needed:
            break
    rows = rows[query.offset:]
    if not has_expressions:
        decode = evaluator._dict.decode
        rows = [tuple(None if cell is None else decode(cell)
                      for cell in row) for row in rows]
    return ResultTable(names, rows)


def evaluate_select(query: SelectQuery, context: DatasetContext,
                    source: Optional[GraphSource] = None,
                    trace: Optional[List[StepTrace]] = None) -> ResultTable:
    """Evaluate a SELECT query and return its result table.

    ``trace`` (EXPLAIN analyze) installs a step-trace list on the
    evaluator; sub-SELECTs inherit it, so nested plans show in the
    analyzed output.  Tracing forces the materialized path — the trace
    should show the full join cardinalities, not a truncated stream.
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
    if trace is None and would_stream(query, source):
        # LIMIT pushdown: pull join batches only until enough output
        # rows exist, instead of materializing the full binding table
        context.streamed.selects += 1
        return _stream_select(query, evaluator, source, eval_context)
    # the one materialized tail: id rows → the grouped or the plain
    # projection → _finalize_select
    table = evaluator.solve(query.pattern, source)
    if query.is_aggregate_query:
        plan = aggregation.Plan(query)
        decode = evaluator._dict.decode
        result_bindings, order_terms = aggregation.finalize(
            plan, aggregation.partials(plan, table, decode, eval_context),
            decode, eval_context)
        return _finalize_select(query, result_bindings, eval_context,
                                order_terms)
    if query.distinct and not query.order_by and all(
            item.expression is None for item in query.projection or ()):
        # only the distinct output rows are worth decoding
        table = _distinct_table(table, query.output_names())
    result_bindings = evaluator.decoded(table)
    for row in result_bindings:
        aggregation.apply_projection(query.projection, row, eval_context)
    return _finalize_select(query, result_bindings, eval_context)


def _distinct_table(table: BindingTable, names: List[str]) -> BindingTable:
    """``table`` cut down to the output ``names`` it has, the first
    occurrence of each distinct row kept, in order.  Within one
    evaluator ids and terms are one-to-one (overlay ids included), so
    these are the rows DISTINCT keeps after decoding — a SELECT
    DISTINCT of plain variables decodes its answer, not its input."""
    kept = [name for name in names if name in table.slots]
    columns = [table.columns[table.slots[name]] for name in kept]
    if not columns:
        return BindingTable.of((), (), min(len(table), 1))
    first, _inverse = group(columns, len(table), by_first_row=True)
    return BindingTable.of(kept, [column[first] for column in columns],
                           len(first))


def _finalize_select(query: SelectQuery, result_bindings: List[Binding],
                     eval_context: EvalContext,
                     order_terms: Optional[List[Tuple[Optional[Term], ...]]]
                     = None) -> ResultTable:
    """The materialized SELECT tail: ORDER BY, projection to named
    rows, DISTINCT/REDUCED, OFFSET and LIMIT.

    Every materialized SELECT ends here.  ``order_terms`` holds each
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
        # adjacent dedup, exactly like the streaming path: REDUCED
        # permits any duplicate count between DISTINCT's and the raw
        # multiset's, so both paths agree row-for-row
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
    """Evaluate an ASK query (stops at the first non-empty chunk)."""
    context = context.scoped(getattr(query, "from_graphs", None),
                             getattr(query, "from_named", None))
    return PatternEvaluator(context).exists(
        query.pattern, context.default_source())


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
