"""SPARQL grouped aggregation: one partial → merge → finalize.

The only home of GROUP BY / aggregate / HAVING semantics under
``repro.sparql``.  A grouped SELECT folds the **id-level**
:class:`~repro.sparql.bindings.BindingTable` its pattern solved into
per-group accumulator states (:func:`partials`), the states of
consecutive tables combine (:func:`merge`), and each group's states
become one result binding (:func:`finalize`).  The serial evaluator
runs one partial over its whole table; the parallel executor's workers
run the same function over a morsel each — the distributive /
algebraic split of OLAP aggregates (COUNT, SUM, MIN, MAX merge as
themselves, AVG as SUM and COUNT).

Terms are touched late: plain-variable group keys group on id tuples
(the dictionary is a bijection) and decode once per group, and any
other key or argument is a column of
:func:`~repro.sparql.bindings.expression_column` — evaluated and lifted
once per *distinct* id tuple of the variables it reads.  Worker-safe:
the dictionary arrives as a ``decode`` function, nothing here touches
an endpoint, a graph or a module cache.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

from repro.rdf.terms import Literal, Term, XSD_STRING
from repro.sparql.algebra import ProjectionItem, SelectQuery
from repro.sparql.bindings import BindingTable, expression_column
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    Aggregate,
    Binding,
    EvalContext,
    Expression,
    VariableExpression,
    _numeric_literal,
    effective_boolean_value,
    numeric_value,
    order_key,
    promoted,
    string_value,
    subexpressions,
)

#: Group key (a term id per plain-variable key, a term per computed
#: one, ``None`` where unbound) → one state per aggregate of the plan;
#: groups in first-occurrence order.
Partials = Dict[Tuple[Any, ...], List[Any]]


class _Accumulator:
    """One aggregate as ``start()`` / ``step(state, value)`` /
    ``merge(left, right)`` / ``finish(state)`` over picklable states.

    ``merge`` takes ``left`` from the earlier rows, so "first
    encountered wins" holds across partials as within one; ``finish``
    raises :class:`ExpressionError` where the aggregate has no value.
    """

    #: term → the value ``step`` folds, computed once per distinct
    #: term; ``None`` when ``step`` only needs the argument to be bound
    lift: Optional[Callable[[Term], Any]] = None

    def over(self, terms: Iterable[Term]) -> Term:
        """The aggregate of ``terms``, one at a time."""
        state = self.start()
        for term in terms:
            state = self.step(state, term if self.lift is None
                              else self.lift(term))
        return self.finish(state)


class _Count(_Accumulator):
    """COUNT: the rows whose argument is bound (all, for ``*``)."""

    def start(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        return state + 1

    def merge(self, left: int, right: int) -> int:
        return left + right

    def finish(self, state: int) -> Term:
        return Literal(state)


#: What a value SUM / AVG cannot add lifts to.
_NOT_NUMERIC = object()


class _Sum(_Accumulator):
    """SUM and AVG over ``(total, count, failed)``: the total follows
    Python's numeric tower plus SPARQL's decimal → double promotion
    (integers stay integers, decimals exact), and one non-numeric value
    makes the aggregate an error for the group, whatever else it holds.
    """

    def __init__(self, mean: bool) -> None:
        self.mean = mean

    @staticmethod
    def lift(term: Term) -> Any:
        try:
            return numeric_value(term)
        except ExpressionError:
            return _NOT_NUMERIC

    def start(self) -> tuple:
        return (0, 0, False)

    def step(self, state: tuple, value: Any) -> tuple:
        total, count, failed = state
        if value is _NOT_NUMERIC:
            return (total, count, True)
        try:  # once per row: ask forgiveness, not promoted(), each time
            return (total + value, count + 1, failed)
        except TypeError:  # decimal ⊕ double, the pair Python refuses
            total, value = promoted(total, value)
            return (total + value, count + 1, failed)

    def merge(self, left: tuple, right: tuple) -> tuple:
        total, other = promoted(left[0], right[0])
        return (total + other, left[1] + right[1], left[2] or right[2])

    def finish(self, state: tuple) -> Term:
        total, count, failed = state
        if failed:
            raise ExpressionError("non-numeric value in SUM / AVG")
        if not self.mean:
            return _numeric_literal(total)  # over no values: 0
        if not count:
            raise ExpressionError("AVG over empty group")
        if isinstance(total, int):
            return _numeric_literal(Decimal(total) / Decimal(count))
        return _numeric_literal(total / count)


class _Extremum(_Accumulator):
    """MIN and MAX under the ORDER BY total order, over ``(order key,
    term)`` of the best value so far (``None`` before the first).

    Among values the order cannot tell apart (``1``, ``1.0``,
    ``"01"^^xsd:integer``) the first encountered wins, MIN and MAX alike.
    """

    lift = staticmethod(lambda term: (order_key(term), term))

    def __init__(self, better: Callable[[tuple, tuple], bool]) -> None:
        self.better = better  # strictly: a tie keeps the earlier value

    def start(self) -> None:
        return None

    def step(self, state: Optional[tuple], value: tuple) -> tuple:
        if state is None or self.better(value[0], state[0]):
            return value
        return state

    def merge(self, left: Optional[tuple], right: Optional[tuple]
              ) -> Optional[tuple]:
        return left if right is None else self.step(left, right)

    def finish(self, state: Optional[tuple]) -> Term:
        if state is None:
            raise ExpressionError("MIN / MAX over empty group")
        return state[1]


class _Values(_Accumulator):
    """DISTINCT aggregates, SAMPLE and GROUP_CONCAT: the argument's
    values in encounter order, made something of in ``finish``."""

    lift = staticmethod(lambda term: term)

    def __init__(self, call: Aggregate) -> None:
        self.call = call

    def start(self) -> List[Term]:
        return []

    def step(self, state: List[Term], value: Term) -> List[Term]:
        state.append(value)
        return state

    def merge(self, left: List[Term], right: List[Term]) -> List[Term]:
        return left + right

    def finish(self, state: List[Term]) -> Term:
        call = self.call
        values = list(dict.fromkeys(state)) if call.distinct else state
        if call.name == "SAMPLE":
            if not values:
                raise ExpressionError("SAMPLE over empty group")
            return values[0]
        if call.name == "GROUP_CONCAT":
            return Literal(call.separator.join(map(string_value, values)),
                           datatype=XSD_STRING)
        return _plain(call.name).over(values)


def _plain(name: str) -> _Accumulator:
    if name == "COUNT":
        return _Count()
    if name in ("SUM", "AVG"):
        return _Sum(mean=name == "AVG")
    return _Extremum(operator.gt if name == "MAX" else operator.lt)  # MIN


def accumulator(call: Aggregate) -> _Accumulator:
    """The accumulator computing ``call``."""
    if call.expression is None:
        return _Count()  # COUNT(*) counts rows, DISTINCT or not
    if call.distinct or call.name in ("SAMPLE", "GROUP_CONCAT"):
        return _Values(call)
    return _plain(call.name)


class Plan:
    """What one grouped SELECT computes — picklable, so a worker runs
    :func:`partials` from the object the parent finalizes with.

    ``keys`` pairs each GROUP BY expression with the name it binds in
    the result (its ``AS`` alias, else the variable itself, else
    ``None``); ``aggregates`` are the aggregate calls of HAVING and the
    projection and ``folds`` their accumulators, which the states of
    :data:`Partials` line up with.
    """

    __slots__ = ("keys", "having", "projection", "aggregates", "folds")

    def __init__(self, query: SelectQuery) -> None:
        self.keys: List[Tuple[Expression, Optional[str]]] = []
        for position, expression in enumerate(query.group_by):
            name = query.group_aliases.get(position)
            if name is None and isinstance(expression, VariableExpression):
                name = expression.name
            self.keys.append((expression, name))
        self.having: List[Expression] = query.having
        self.projection: List[ProjectionItem] = [
            item for item in query.projection or []
            if item.expression is not None]
        self.aggregates: List[Aggregate] = [
            node for expression in self.having
            + [item.expression for item in self.projection]
            for node in subexpressions(expression)
            if isinstance(node, Aggregate)]
        self.folds = [accumulator(call) for call in self.aggregates]

    def fixed_size(self) -> bool:
        """Whether every state stays O(1) however many rows fed it —
        what makes shipping partials cheaper than shipping rows."""
        return not any(isinstance(fold, _Values) for fold in self.folds)


def partials(plan: Plan, table: BindingTable,
             decode: Callable[[int], Term], context: EvalContext
             ) -> Partials:
    """Group ``table`` and fold every aggregate's argument into its
    group's state, a column at a time."""
    if not table:
        return {}
    key_columns = [expression_column(expression, table, decode, context)
                   for expression, _name in plan.keys]
    keys = list(zip(*key_columns)) if key_columns \
        else [()] * len(table)
    groups: Dict[Tuple[Any, ...], int] = {}
    member = [groups.setdefault(key, len(groups)) for key in keys]
    states: List[List[Any]] = []
    for call, fold in zip(plan.aggregates, plan.folds):
        column = [fold.start() for _ in groups]
        step = fold.step
        # COUNT(*) has no argument, which is bound on every row
        values = keys if call.expression is None \
            else expression_column(call.expression, table, decode,
                                   context, fold.lift)
        for group, value in zip(member, values):
            if value is not None:
                column[group] = step(column[group], value)
        states.append(column)
    return {key: [column[group] for column in states]
            for key, group in groups.items()}


def merge(plan: Plan, parts: Sequence[Partials]) -> Partials:
    """The partials of consecutive tables, in order, as the partials
    of their concatenation."""
    merged: Partials = {}
    for part in parts:
        for key, states in part.items():
            into = merged.get(key)
            merged[key] = states if into is None else [
                fold.merge(left, right)
                for fold, left, right in zip(plan.folds, into, states)]
    return merged


def apply_projection(projection: Optional[Sequence[ProjectionItem]],
                     binding: Binding, context: EvalContext) -> None:
    """Evaluate the ``(expr AS ?alias)`` items into ``binding``, in
    projection order, each seeing the aliases bound before it; a failing
    expression leaves its alias unbound per SPARQL error semantics."""
    for item in projection or ():
        if item.expression is not None:
            try:
                binding[item.name] = item.expression.evaluate(
                    binding, context)
            except ExpressionError:
                pass


def finalize(plan: Plan, groups: Partials, decode: Callable[[int], Term],
             context: EvalContext) -> List[Binding]:
    """One binding per group that passes HAVING: its keys, decoded
    once, then the projection expressions.

    While a group is evaluated ``context.aggregates`` holds its
    finished aggregate values for :meth:`Aggregate.evaluate` to read.
    Without GROUP BY there is exactly one group, even over no rows.
    """
    if not plan.keys and not groups:
        groups = {(): [fold.start() for fold in plan.folds]}
    results: List[Binding] = []
    finished: Dict[Aggregate, Term] = {}
    context.aggregates = finished
    try:
        for key, states in groups.items():
            binding: Binding = {}
            for (expression, name), cell in zip(plan.keys, key):
                if name is not None and cell is not None:
                    binding[name] = decode(cell) if isinstance(
                        expression, VariableExpression) else cell
            finished.clear()
            for call, fold, state in zip(plan.aggregates, plan.folds,
                                         states):
                try:
                    finished[call] = fold.finish(state)
                except ExpressionError:
                    pass  # an error wherever the group reads it
            try:
                keep = all(effective_boolean_value(condition.evaluate(
                    binding, context)) for condition in plan.having)
            except ExpressionError:
                keep = False
            if keep:
                apply_projection(plan.projection, binding, context)
                results.append(binding)
    finally:
        context.aggregates = None
    return results
