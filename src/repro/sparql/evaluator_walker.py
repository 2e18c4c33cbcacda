"""The algebra walker of the SPARQL evaluator.

The evaluator interprets :mod:`repro.sparql.algebra` trees with **one
walker over id-level tables**: solutions flow between operators as
:class:`~repro.sparql.bindings.BindingTable`\\ s of interned term ids,
basic graph patterns execute as a sequence of join steps planned *once
per bound-variable signature* (through the LRU plan cache in
:mod:`repro.sparql.optimizer`), and each step is one vectorized
sort-and-search join over id columns
(:func:`~repro.sparql.evaluator_steps.join_table`), its matches read
off a single index scan or off one read of its distinct join keys
— never a fresh plan or a Python object per input row; two tables
(VALUES, sub-SELECT, ``GRAPH ?g``, MINUS) pair through the same kernel
(:func:`~repro.sparql.evaluator_steps.paired`).  Terms are only
decoded where an expression reads them
(:func:`~repro.sparql.bindings.expression_column`: a FILTER conjunct,
BIND and aggregate arguments, once per distinct key of the columns
read) and at final projection; GROUP BY folds the id table itself
(:mod:`repro.sparql.aggregation`).

The walker (:meth:`PatternEvaluator._walk`) answers one table per
node, and every query form drains it the same way
(:meth:`PatternEvaluator.solve`): SELECT, CONSTRUCT, DESCRIBE, update
``WHERE`` clauses, and ASK, which asks whether the table is non-empty.
``EXISTS`` is one walk seeded with each distinct row of the filtered
table's columns its pattern can read, plus a row marker, the way
OPTIONAL seeds its right side.
All of them run BGPs through the same :meth:`PatternEvaluator._walk_bgp`,
so its ``evaluator.step`` failpoint and the step trace apply to every
form alike.

Computed terms (BIND results, VALUES literals, seed bindings) intern
into a per-query :class:`~repro.rdf.dictionary.DictionaryOverlay`
discarded with the evaluator, so a long-lived endpoint's term
dictionary only grows with *stored* data.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grouping import group
from repro.testing import faults as _faults
from repro.sparql.algebra import (
    BGP,
    Empty,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    PathPatternNode,
    PatternNode,
    SubSelectNode,
    TriplePatternNode,
    Union as UnionNode,
    ValuesNode,
    Var,
    pattern_nodes,
)
from repro.sparql.bindings import (
    UNBOUND,
    BindingTable,
    concat as table_concat,
    expression_column,
    filter_mask,
    id_column,
    row_decoder,
)
from repro.sparql.errors import EvaluationError
from repro.sparql.evaluator_source import (
    Binding,
    DatasetContext,
    GraphSource,
)
from repro.sparql.evaluator_steps import JoinSteps, paired
from repro.sparql.expressions import EvalContext, ExistsExpression, \
    Expression, subexpressions
from repro.sparql.optimizer import get_plan


class StepTrace:
    """One executed join step, for EXPLAIN's estimated-vs-actual view."""

    __slots__ = ("node", "position", "step", "rows_in", "rows_out",
                 "strategy")

    def __init__(self, node, position: int, step, rows_in: int,
                 rows_out: int, strategy: str) -> None:
        self.node = node
        self.position = position
        self.step = step
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.strategy = strategy


class PatternEvaluator(JoinSteps):
    """Evaluates pattern nodes against a dataset context.

    :meth:`_walk` interprets the algebra and :meth:`solve` drains it
    (see the module docstring).
    """

    def __init__(self, context: DatasetContext) -> None:
        self.context = context
        # per-query overlay: computed BIND/VALUES terms intern into a
        # discardable overflow id range, never into the base dictionary
        super().__init__(context.dataset.dictionary.overlay())
        self._subselect_tables: Dict[tuple, BindingTable] = {}
        self._marker_count = 0
        #: when set to a list, every executed join step appends a
        #: :class:`StepTrace` (EXPLAIN's estimated-vs-actual view)
        self.trace: Optional[List[StepTrace]] = None

    # ==================================================================
    # Draining the walker
    # ==================================================================

    def solve(self, node: PatternNode, source: GraphSource,
              table: Optional[BindingTable] = None) -> BindingTable:
        """Evaluate ``node`` over every row of ``table`` at once."""
        if table is None:
            table = BindingTable.unit()
        return self._walk(node, source, table)

    def _marked(self, table: BindingTable) -> Tuple[str, BindingTable]:
        """``table`` plus a fresh internal column numbering its rows, so
        solutions seeded from it can be traced back to their row."""
        self._marker_count += 1
        marker = f"#mark{self._marker_count}"
        return marker, BindingTable.of(
            table.names + (marker,),
            [*table.columns, np.arange(len(table), dtype=np.int64)],
            len(table))

    def _exists_rows(self, node: PatternNode, source: GraphSource,
                     table: BindingTable) -> Set[int]:
        """Indexes of the rows of ``table`` over which ``node`` has a
        solution (EXISTS for a whole table at once): one walk seeded
        with each distinct row of the columns ``node`` can read, so a
        pattern sharing no variable with ``table`` runs once, not once
        per row."""
        if not table:
            return set()
        mentioned = _mentioned(node)
        shared = [name for name in table.names if name in mentioned]
        columns = [table.columns[table.slots[name]] for name in shared]
        first, codes = group(columns, len(table))
        marker, seeded = self._marked(BindingTable.of(
            shared, [column[first] for column in columns], len(first)))
        solved = self.solve(node, source, seeded)
        hit = np.zeros(len(first), dtype=bool)
        hit[solved.columns[solved.slots[marker]]] = True
        return set(np.flatnonzero(hit[codes]).tolist())

    def _interned(self, names: Sequence[str], term_rows: Iterable[Sequence]
                  ) -> BindingTable:
        """Rows of terms over ``names`` (``None`` unbound) as an id
        table, interned row by row."""
        encode = self._dict.encode
        ids = [[UNBOUND if term is None else encode(term) for term in row]
               for row in term_rows]
        grid = np.array(ids, dtype=np.int64).reshape(len(ids), len(names))
        return BindingTable.of(names, list(grid.T.copy()), len(ids))

    def decoded(self, table: BindingTable) -> List[Binding]:
        """The rows of ``table`` as {var: term} dict bindings."""
        return list(map(row_decoder(table.names, self._dict.decode),
                        table.rows))

    def solutions(self, node: PatternNode, source: GraphSource
                  ) -> List[Binding]:
        """Batch-evaluate and decode into {var: term} dict bindings."""
        return self.decoded(self.solve(node, source))

    # ==================================================================
    # The algebra walker
    # ==================================================================

    def _walk(self, node: PatternNode, source: GraphSource,
              table: BindingTable) -> BindingTable:
        """``node`` evaluated over every row of ``table``."""
        if isinstance(node, BGP):
            return self._walk_bgp(node, source, table)
        if isinstance(node, Join):
            return self._walk(node.right, source,
                              self._walk(node.left, source, table))
        if isinstance(node, LeftJoin):
            # left-outer probe: the optional side runs seeded with every
            # required-side row, each extended or None-padded in place
            left = self._walk(node.left, source, table)
            return self._left_outer_extend(node, source, left) \
                if left else left
        if isinstance(node, UnionNode):
            return table_concat([self._walk(node.left, source, table),
                                 self._walk(node.right, source, table)])
        if isinstance(node, Minus):
            # the right side is NOT correlated with the left in SPARQL
            # MINUS: it is solved once, and only for a non-empty left
            left = self._walk(node.left, source, table)
            return self._minus_table(left, self.solve(node.right, source)) \
                if left else left
        if isinstance(node, Filter):
            return self._filter_table(self._walk(node.child, source, table),
                                      node.condition, source)
        if isinstance(node, Extend):
            return self._extend_table(
                node, self._walk(node.child, source, table), source)
        if isinstance(node, ValuesNode):
            # the algebra's inline terms, not a table's row view
            # repro: allow[columnar-join-step]
            return _join_relation(table, self._interned(node.vars, node.rows))
        if isinstance(node, GraphNode):
            return self._walk_graph(node, source, table)
        if isinstance(node, SubSelectNode):
            return _join_relation(table, self._subselect(node, source))
        if isinstance(node, Empty):
            return table
        raise EvaluationError(f"unknown pattern node {node!r}")

    def _bgp_dead(self, patterns) -> bool:
        """True when a triple pattern holds a never-interned constant.

        Such a pattern can match nothing, so the whole conjunction is
        empty — checked up front (a dict probe per constant) so the
        plan's earlier steps never run for a doomed BGP.  Path patterns
        are exempt: a zero-length path can match an unknown term.
        """
        lookup = self._dict.lookup
        for pattern in patterns:
            if isinstance(pattern, TriplePatternNode):
                for position in pattern.positions():
                    if not isinstance(position, Var) \
                            and lookup(position) is None:
                        return True
        return False

    def _walk_bgp(self, node: BGP, source: GraphSource,
                  table: BindingTable) -> BindingTable:
        patterns = node.patterns
        if not patterns:
            return table
        if _faults.ACTIVE:
            _faults.fire("evaluator.step")
        if self._bgp_dead(patterns):
            return BindingTable.empty(table.names)
        bound = frozenset(
            name for name in table.names if not name.startswith("#"))
        trace = self.trace
        current = table
        for position, step in enumerate(get_plan(node, bound, source).steps):
            if not current:
                break
            pattern = patterns[step.index]
            rows_in = len(current)
            if isinstance(pattern, PathPatternNode):
                current = self._step_path(pattern, source, current)
            else:
                current = self._step_triple(pattern, source, current)
            if trace is not None:
                trace.append(StepTrace(node, position, step, rows_in,
                                       len(current), self._last_strategy))
        return current

    # -- operators -----------------------------------------------------------

    def _left_outer_extend(self, node: LeftJoin, source: GraphSource,
                           left: BindingTable) -> BindingTable:
        """Extend solved required-side rows with the optional side, run
        seeded with every row and a marker column numbering them."""
        marker, seeded = self._marked(left)
        right = self.solve(node.right, source, seeded)
        if node.condition is not None and right:
            right = self._filter_table(right, node.condition, source)
        return _left_outer(left, right, marker)

    def _minus_table(self, left: BindingTable,
                     removals: BindingTable) -> BindingTable:
        """``left`` without the rows a compatible, overlapping row of
        ``removals`` excludes: those :func:`paired` pairs with one."""
        shared = [name for name in left.names
                  if name in removals.slots and not name.startswith("#")]
        if not removals or not shared:
            return left
        # distinct keys suffice: a bound row then pairs once per partition
        first, _codes = group(
            [removals.columns[removals.slots[name]] for name in shared],
            len(removals))
        rows, _picked = paired(left, removals.take(first), shared,
                               overlapping=True)
        return left.take(np.bincount(rows, minlength=len(left)) == 0)

    def _filter_table(self, child: BindingTable, condition,
                      source: GraphSource) -> BindingTable:
        return child.take(filter_mask(
            condition, child, self._dict.decode,
            self._context_for(source, child)))

    def _extend_table(self, node: Extend, child: BindingTable,
                      source: GraphSource) -> BindingTable:
        name = node.var
        slot = child.slots.get(name)
        if slot is None:
            slot = len(child.names)
        elif (child.columns[slot] >= 0).any():
            raise EvaluationError(
                f"BIND would rebind already-bound variable ?{name}")
        # an error leaves the variable unbound per SPARQL error semantics
        values, codes = expression_column(
            node.expression, child, self._dict.decode,
            self._context_for(source), self._dict.encode)
        return BindingTable.of(
            child.names[:slot] + (name,) + child.names[slot + 1:],
            child.columns[:slot] + [id_column(values)[codes]]
            + child.columns[slot + 1:], len(child))

    def _walk_graph(self, node: GraphNode, source: GraphSource,
                    table: BindingTable) -> BindingTable:
        if not isinstance(node.name, Var):
            return self._walk(node.child,
                              self.context.named_source(node.name), table)
        name = node.name.name
        tables = []
        for iri, graph in self.context.named_graphs():
            # ?g is this graph: rows that bind it otherwise drop out
            seeded = _join_relation(table, self._interned((name,), [(iri,)]))
            tables.append(self._walk(node.child, GraphSource(graph), seeded))
        return table_concat(tables) if tables else BindingTable.empty(
            table.names + (() if name in table.slots else (name,)))

    def _subselect(self, node: SubSelectNode, source: GraphSource
                   ) -> BindingTable:
        """The sub-SELECT's result as an id table, evaluated once per
        evaluator and source."""
        # keyed by node *and* source: under GRAPH ?g the same subselect
        # evaluates once per named graph, not once globally
        cache_key = (id(node), source.cache_key())
        cached = self._subselect_tables.get(cache_key)
        if cached is None:
            from repro.sparql.evaluator import evaluate_select

            # the outer trace rides along so EXPLAIN analyze renders
            # nested plans with their actual cardinalities
            result = evaluate_select(node.query, self.context, source=source,
                                     trace=self.trace)
            # a result table's rows of terms, not a table's row view
            # repro: allow[columnar-join-step]
            cached = self._interned(result.vars, result.rows)
            self._subselect_tables[cache_key] = cached
        return cached

    def _context_for(self, source: GraphSource,
                     table: Optional[BindingTable] = None) -> EvalContext:
        """The expression context for patterns matched against
        ``source``.

        A caller evaluating one expression over every row of a
        ``table`` passes it: EXISTS is then answered for the whole table
        by one seeded walk, on first use, and read at the context's
        ``row`` cursor.  Otherwise (HAVING, projection, ORDER BY, BIND)
        the binding is a table of one row.

        The trade-off of the whole-table answer: the pattern also runs
        for rows whose ``&&`` / ``||`` operands would short-circuit
        before reaching the EXISTS, so a cheap selective guard in the
        same FILTER (``?o = x && NOT EXISTS {…}``) does not shrink the
        seeded walk.  The IC suite has no such
        guard; a query that does can put the guard in a FILTER of its
        own ahead of the EXISTS one (filters of a group apply in
        textual order).
        """
        found: Dict[int, Set[int]] = {}

        # the row cursor is passed in, not read off the context: a
        # closure over the context it is stored on would be a reference
        # cycle holding ``table`` until the cyclic collector runs
        def exists_evaluator(pattern: PatternNode, binding: Binding,
                             row: int) -> bool:
            if table is None:
                return bool(self._exists_rows(pattern, source, self._interned(
                    tuple(binding), [tuple(binding.values())])))
            hits = found.get(id(pattern))
            if hits is None:
                hits = found[id(pattern)] = self._exists_rows(
                    pattern, source, table)
            return row in hits

        return EvalContext(exists_evaluator=exists_evaluator)


def _mentioned(node: PatternNode) -> Set[str]:
    """Every variable ``node`` can read from a seed row: those its
    patterns use and those its expressions mention, nested EXISTS
    patterns included.  A superset is safe — it only keeps a column."""
    names: Set[str] = set()
    for current in pattern_nodes(node):
        names |= current.variables()
        for expression in (getattr(current, "condition", None),
                           getattr(current, "expression", None)):
            if expression is not None:
                names |= read_variables(expression)
    return names


def read_variables(expression: Expression) -> Set[str]:
    """Every variable ``expression`` can read from a row: those it
    names and, for an EXISTS inside it, those its pattern can read."""
    names: Set[str] = set()
    for part in subexpressions(expression):
        names |= part.variables()
        if isinstance(part, ExistsExpression):
            names |= _mentioned(part.pattern)
    return names


def _left_outer(left: BindingTable, right: BindingTable, marker: str
                ) -> BindingTable:
    """``right`` — solutions whose ``marker`` column names the ``left``
    row each extends — with one pad of unbound cells for every left row
    none names, each row's solutions (or its pad) at the row's place:
    a stable sort by marker."""
    marks = right.columns[right.slots[marker]]
    missed = np.flatnonzero(np.bincount(marks, minlength=len(left)) == 0)
    order = np.argsort(np.concatenate((marks, missed)), kind="stable")
    padded = table_concat([right, left.take(missed)])
    names = tuple(name for name in right.names if name != marker)
    return BindingTable.of(names, [padded.columns[padded.slots[name]][order]
                                   for name in names], len(order))


def _join_relation(table: BindingTable, relation: BindingTable
                   ) -> BindingTable:
    """Join ``table`` with a constant relation (VALUES data, a cached
    sub-SELECT result, a graph name).  An unbound cell on either side
    constrains nothing: a bound cell of ``table`` stays, an unbound one
    takes the relation's."""
    shared = [name for name in relation.names if name in table.slots]
    new = tuple(name for name in relation.names if name not in table.slots)
    if not table or not relation:
        return BindingTable.empty(table.names + new)
    rows, picked = paired(table, relation, shared)
    columns = [column[rows] for column in table.columns]
    for name in shared:
        ours = columns[table.slots[name]]
        columns[table.slots[name]] = np.where(
            ours < 0, relation.columns[relation.slots[name]][picked], ours)
    columns.extend(relation.columns[relation.slots[name]][picked]
                   for name in new)
    return BindingTable.of(table.names + new, columns, len(rows))
