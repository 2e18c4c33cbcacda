"""Query-plan explanation.

Renders a parsed query's algebra tree as an indented text plan.  When a
dataset is supplied, each BGP is shown as the **physical plan** the
cost-based optimizer would execute: join steps in order, each with its
chosen strategy (``hash`` / ``probe`` / ``scan`` / ``path``) and the
cardinality estimate that justified it — ``(est. 480)`` — plus the
plan's total cost (Σ of estimated intermediate rows).  A step's
constants are counted exactly (see :mod:`repro.rdf.stats`); where the
estimate departs from the data, it is through the averages that price
the variables earlier steps bound.  With ``analyze=True`` the query's
pattern is actually executed and every step line gains the *actual*
row count and strategy — ``(est. 480, actual 480)`` — so those errors
are directly visible (a ``hash`` step whose range lined up with the
table row for row runs as ``append``).  This is the debugging surface
the paper's users get from ``EXPLAIN`` on a production endpoint
(Virtuoso prints a similar operator tree).

>>> from repro.rdf.graph import Dataset
>>> from repro.sparql.explain import explain
>>> print(explain("SELECT ?s WHERE { ?s ?p ?o }", Dataset()))
SELECT [?s]
`-- BGP (1 patterns) [cost 0]
    `-- [0] ?s ?p ?o  (est. 0) [scan]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.rdf.concurrency import CONCURRENCY
from repro.rdf.graph import Dataset, DatasetSnapshot
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    ConstructQuery,
    DescribeQuery,
    Empty,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    PathPatternNode,
    PatternNode,
    Query,
    SelectQuery,
    SubSelectNode,
    TriplePatternNode,
    Union as UnionNode,
    ValuesNode,
    Var,
)
from repro.sparql.evaluator import (
    DatasetContext,
    GraphSource,
    PatternEvaluator,
    StepTrace,
)
from repro.sparql.optimizer import PLAN_CACHE, estimate_pattern, get_plan
from repro.sparql.parser import parse_query


def _term_text(position) -> str:
    if isinstance(position, Var):
        return f"?{position.name}"
    return position.n3()


def _pattern_text(pattern: Union[TriplePatternNode, PathPatternNode]) -> str:
    if isinstance(pattern, PathPatternNode):
        return (f"{_term_text(pattern.subject)} "
                f"{pattern.path.to_sparql()} "
                f"{_term_text(pattern.object)}")
    return " ".join(_term_text(p) for p in pattern.positions())


#: per BGP identity: step position -> (executed PlanStep, Σ rows_in,
#: Σ rows_out, strategy actually used)
_TraceIndex = Dict[int, Dict[int, list]]


def _index_traces(traces: List[StepTrace]) -> _TraceIndex:
    """Group actual step executions by BGP, summing row counts per
    position (a BGP under ``GRAPH ?g`` or OPTIONAL may run several
    times).  The executed :class:`PlanStep` is kept so the printer
    renders the plan the evaluator *ran* — which may differ from an
    unseeded replan when the BGP executed under bound variables."""
    index: _TraceIndex = {}
    for record in traces:
        per_node = index.setdefault(id(record.node), {})
        entry = per_node.get(record.position)
        if entry is None:
            per_node[record.position] = [record.step, record.rows_in,
                                         record.rows_out, record.strategy]
        else:
            entry[1] += record.rows_in
            entry[2] += record.rows_out
    return index


class _PlanPrinter:
    def __init__(self, source: Optional[GraphSource],
                 traces: Optional[_TraceIndex] = None) -> None:
        self.source = source
        self.traces = traces
        self.lines: List[str] = []

    def emit(self, text: str, depth: int) -> None:
        indent = "    " * (depth - 1) + "`-- " if depth else ""
        self.lines.append(indent + text)

    def _emit_bgp(self, node: BGP, depth: int) -> None:
        if self.source is None or not node.patterns:
            self.emit(f"BGP ({len(node.patterns)} patterns)", depth)
            for position, pattern in enumerate(node.patterns):
                self.emit(f"[{position}] {_pattern_text(pattern)}"
                          + ("  (path)" if isinstance(pattern,
                                                      PathPatternNode)
                             else ""), depth + 1)
            return
        node_traces = None
        if self.traces is not None:
            node_traces = self.traces.get(id(node))
        if node_traces:
            # render the plan the evaluator actually executed: its
            # step order (planned under the real bound variables) can
            # differ from an unseeded replan
            self.emit(f"BGP ({len(node.patterns)} patterns) [analyzed]",
                      depth)
            executed = set()
            for position in sorted(node_traces):
                step, _rows_in, rows_out, strategy = node_traces[position]
                executed.add(step.index)
                pattern = node.patterns[step.index]
                text = _pattern_text(pattern)
                if isinstance(pattern, PathPatternNode):
                    text += "  (path)"
                self.emit(f"[{position}] {text}  "
                          f"(est. {step.est_out:.0f}, "
                          f"actual {rows_out}) [{strategy}]", depth + 1)
            for index, pattern in enumerate(node.patterns):
                if index not in executed:
                    self.emit(f"[-] {_pattern_text(pattern)}  "
                              f"(not executed)", depth + 1)
            return
        plan = get_plan(node, frozenset(), self.source)
        self.emit(f"BGP ({len(node.patterns)} patterns) "
                  f"[cost {plan.cost:.0f}]", depth)
        for position, step in enumerate(plan.steps):
            pattern = node.patterns[step.index]
            text = _pattern_text(pattern)
            if isinstance(pattern, PathPatternNode):
                text += "  (path)"
            self.emit(f"[{position}] {text}  "
                      f"(est. {step.est_out:.0f}) [{step.strategy}]",
                      depth + 1)

    def walk(self, node: PatternNode, depth: int) -> None:
        if isinstance(node, BGP):
            self._emit_bgp(node, depth)
        elif isinstance(node, Join):
            self.emit("Join", depth)
            self.walk(node.left, depth + 1)
            self.walk(node.right, depth + 1)
        elif isinstance(node, LeftJoin):
            suffix = " (with condition)" if node.condition is not None else ""
            if self.source is not None:
                # cost the optional side under the required side's
                # bound variables — the shape it actually executes in
                left_rows, _ = estimate_pattern(node.left, self.source)
                per_row, opt_cost = estimate_pattern(
                    node.right, self.source,
                    frozenset(node.left.variables()))
                suffix += (f" [est. {max(left_rows, left_rows * per_row):.0f}"
                           f" rows, optional side cost "
                           f"{opt_cost * max(1.0, left_rows):.0f}]")
            self.emit(f"LeftJoin / OPTIONAL{suffix}", depth)
            self.walk(node.left, depth + 1)
            self.walk(node.right, depth + 1)
        elif isinstance(node, UnionNode):
            self.emit("Union", depth)
            self.walk(node.left, depth + 1)
            self.walk(node.right, depth + 1)
        elif isinstance(node, Minus):
            self.emit("Minus", depth)
            self.walk(node.left, depth + 1)
            self.walk(node.right, depth + 1)
        elif isinstance(node, Filter):
            self.emit(f"Filter {node.condition!r}", depth)
            self.walk(node.child, depth + 1)
        elif isinstance(node, Extend):
            self.emit(f"Extend ?{node.var}", depth)
            self.walk(node.child, depth + 1)
        elif isinstance(node, ValuesNode):
            self.emit(f"Values {node.vars} ({len(node.rows)} rows)", depth)
        elif isinstance(node, GraphNode):
            name = (f"?{node.name.name}" if isinstance(node.name, Var)
                    else node.name.n3())
            self.emit(f"Graph {name}", depth)
            self.walk(node.child, depth + 1)
        elif isinstance(node, SubSelectNode):
            self.emit("SubSelect", depth)
            self._describe_select(node.query, depth + 1)
        elif isinstance(node, Empty):
            self.emit("Empty", depth)
        else:
            self.emit(f"<{type(node).__name__}>", depth)

    def _describe_select(self, query: SelectQuery, depth: int) -> None:
        names = ", ".join(f"?{n}" for n in query.output_names())
        modifiers = []
        if query.distinct:
            modifiers.append("DISTINCT")
        elif query.reduced:
            modifiers.append("REDUCED")
        if query.group_by:
            modifiers.append(f"GROUP BY ({len(query.group_by)})")
        if query.having:
            modifiers.append("HAVING")
        if query.order_by:
            modifiers.append(f"ORDER BY ({len(query.order_by)})")
        if query.limit is not None:
            modifiers.append(f"LIMIT {query.limit}")
        if query.offset:
            modifiers.append(f"OFFSET {query.offset}")
        suffix = ("  [" + ", ".join(modifiers) + "]") if modifiers else ""
        self.emit(f"SELECT [{names}]{suffix}"
                  if depth else f"SELECT [{names}]{suffix}", depth)
        self.walk(query.pattern, depth + 1)


def plan_cache_statistics() -> dict:
    """Hit/miss/size counters of the shared BGP plan cache."""
    return PLAN_CACHE.statistics()


def _cache_stats_lines() -> List[str]:
    stats = PLAN_CACHE.statistics()
    concurrency = CONCURRENCY.snapshot()
    return [
        f"plan cache: entries={stats['entries']} hits={stats['hits']} "
        f"misses={stats['misses']} evictions={stats['evictions']}",
        f"concurrency: active_readers={concurrency['active_readers']} "
        f"peak={concurrency['peak_readers']} "
        f"snapshot_pins={concurrency['snapshot_pins']} "
        f"(builds={concurrency['snapshot_builds']}, "
        f"reuses={concurrency['snapshot_reuses']}, "
        f"stale={concurrency['stale_serves']}) "
        f"cow_copies={concurrency['cow_copies']} "
        f"writer_waits={concurrency['writer_waits']}",
    ]


def _collect_traces(query: Query, context: DatasetContext
                    ) -> Optional[_TraceIndex]:
    """Execute the query's pattern with step tracing (EXPLAIN analyze):
    every query form solves its whole pattern, ASK included."""
    pattern = getattr(query, "pattern", None)
    if pattern is None:
        return None
    evaluator = PatternEvaluator(context)
    evaluator.trace = []
    evaluator.solve(pattern, context.default_source())
    return _index_traces(evaluator.trace)


def explain_query(query: Query,
                  dataset: Optional[Union[Dataset, DatasetSnapshot]] = None,
                  cache_stats: bool = False,
                  analyze: bool = False) -> str:
    """Render a parsed query's physical plan.

    Estimates appear when a dataset (or a pinned
    :class:`~repro.rdf.graph.DatasetSnapshot`) is supplied;
    ``analyze=True`` additionally *executes* the query's pattern and
    annotates each join step with its actual row count and strategy;
    ``cache_stats`` appends the shared plan cache's hit/miss counters
    and the snapshot-concurrency counters.
    """
    source: Optional[GraphSource] = None
    traces: Optional[_TraceIndex] = None
    if dataset is not None:
        context = DatasetContext(dataset)
        source = context.default_source()
        if analyze:
            traces = _collect_traces(query, context)
    printer = _PlanPrinter(source, traces)
    if isinstance(query, SelectQuery):
        printer._describe_select(query, 0)
    elif isinstance(query, AskQuery):
        printer.emit("ASK", 0)
        printer.walk(query.pattern, 1)
    elif isinstance(query, ConstructQuery):
        printer.emit(
            f"CONSTRUCT ({len(query.template)} template triples)", 0)
        printer.walk(query.pattern, 1)
    elif isinstance(query, DescribeQuery):
        targets = ([iri.n3() for iri in query.resources]
                   + [f"?{name}" for name in query.variables])
        printer.emit(f"DESCRIBE [{', '.join(targets) or '*'}]", 0)
        if query.pattern is not None:
            printer.walk(query.pattern, 1)
    else:
        raise TypeError(f"cannot explain {type(query).__name__}")
    lines = printer.lines
    if cache_stats:
        lines = lines + _cache_stats_lines()
    return "\n".join(lines)


def explain(query_text: str,
            dataset: Optional[Union[Dataset, DatasetSnapshot]] = None,
            cache_stats: bool = False,
            analyze: bool = False) -> str:
    """Parse ``query_text`` and render its plan."""
    return explain_query(parse_query(query_text), dataset,
                         cache_stats=cache_stats, analyze=analyze)
