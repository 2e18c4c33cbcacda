"""SPARQL grouped aggregation: partials → finalize.

The only home of GROUP BY / aggregate / HAVING semantics under
``repro.sparql``.  A grouped SELECT folds the **id-level**
:class:`~repro.sparql.bindings.BindingTable` its pattern solved into
per-group accumulator states (:func:`partials`), and each group's
states become one result binding and its ORDER BY terms
(:func:`finalize`).

Terms are touched late: plain-variable group keys group on id tuples
(the dictionary is a bijection) and decode once per group, and any
other key or argument is a column of
:func:`~repro.sparql.bindings.expression_column` — evaluated and lifted
once per *distinct* key of the variables it reads.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

import numpy as np

from repro import grouping
from repro.rdf.terms import Literal, Term, XSD_STRING
from repro.sparql.algebra import ProjectionItem, SelectQuery
from repro.sparql.bindings import (
    BindingTable,
    _row_at_a_time,
    column_cells,
    expression_column,
)
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
    ``finish(state)``; ``finish`` raises :class:`ExpressionError` where
    the aggregate has no value.
    """

    #: term → the value ``step`` folds, computed once per distinct
    #: term; ``None`` when ``step`` only needs the argument to be bound
    lift: Optional[Callable[[Term], Any]] = None

    def columns(self, inverse: np.ndarray, groups: int,
                lifted: Optional[List[Any]], codes: Optional[np.ndarray]
                ) -> Optional[List[Any]]:
        """The states of ``groups`` groups after the rows whose argument
        is bound — row ``i`` belongs to group ``inverse[i]`` and holds
        the value ``lifted[codes[i]]`` (both ``None`` when ``lift`` is)
        — folded as whole columns; or ``None`` when only ``step`` can
        fold these values.  The states are what ``step`` would have
        left: builtin numbers, never numpy scalars."""
        return None

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

    def columns(self, inverse: np.ndarray, groups: int,
                lifted: None, codes: None) -> List[int]:
        return np.bincount(inverse, minlength=groups).tolist()

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

    def columns(self, inverse: np.ndarray, groups: int,
                lifted: List[Any], codes: np.ndarray
                ) -> Optional[List[tuple]]:
        """Integers that cannot leave ``int64`` however they add up, or
        doubles: ``grouping.fold`` adds a group's values in row order,
        so the totals are those of ``step`` to the bit."""
        kinds = set(map(type, lifted))
        if kinds == {int} \
                and max(map(abs, lifted)) * len(codes) < 1 << 63:
            values = np.array(lifted, dtype=np.int64)
        elif kinds == {float}:
            values = np.array(lifted, dtype=np.float64)
        else:
            return None
        # like Python's, these sums overflow to inf and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            totals = grouping.fold("sum", inverse, values[codes],
                                   groups).tolist()
        counts = np.bincount(inverse, minlength=groups).tolist()
        # a group no value reached keeps the start state's integer 0
        return [(total if count else 0, count, False)
                for total, count in zip(totals, counts)]

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
    """What one grouped SELECT computes.

    ``keys`` pairs each GROUP BY expression with the name it binds in
    the result (its ``AS`` alias, else the variable itself, else
    ``None``).  ``readers`` holds, per distinct aggregate of HAVING,
    the projection and ORDER BY, every node of the query that reads its
    value, and ``folds`` their accumulators, which the states of
    :data:`Partials` line up with: calls that compute the same thing —
    ``SUM(?m)`` projected *and* tested in HAVING, which is what a
    measure dice after a roll-up translates to, or projected *and*
    sorted on — are one entry, one fold, one state.
    """

    __slots__ = ("keys", "having", "projection", "order_by", "readers",
                 "folds")

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
        self.order_by = query.order_by
        # an expression's repr is what it computes, never where it
        # lives — but an EXISTS pattern prints as a summary (``BGP(1
        # patterns)``) and BNODE() mints per call: those share nothing
        same: Dict[Any, List[Aggregate]] = {}
        for expression in self.having + [
                item.expression for item in self.projection] + [
                expression for expression, _ascending in self.order_by]:
            for node in subexpressions(expression):
                if isinstance(node, Aggregate):
                    apart = node.expression is not None \
                        and _row_at_a_time(node.expression)
                    same.setdefault(id(node) if apart else repr(node),
                                    []).append(node)
        self.readers: List[List[Aggregate]] = list(same.values())
        self.folds = [accumulator(call) for call in self.aggregates]

    @property
    def aggregates(self) -> List[Aggregate]:
        """The distinct aggregate calls, one per fold."""
        return [nodes[0] for nodes in self.readers]


def _key_column(expression: Expression, table: BindingTable,
                decode: Callable[[int], Term], context: EvalContext
                ) -> Tuple[np.ndarray, Optional[List[Any]]]:
    """One GROUP BY key as an integer column to group on: a plain
    variable's ids as they are (``None`` beside them), any other key's
    values numbered — equal terms are one key whatever ids they were
    computed from — beside the distinct values the numbers index."""
    if isinstance(expression, VariableExpression) \
            and expression.name in table.slots:
        return table.columns[table.slots[expression.name]], None
    values, codes = expression_column(expression, table, decode, context)
    number: Dict[Any, int] = {}
    numbers = np.array([number.setdefault(value, len(number))
                        for value in values], dtype=np.int64)
    return numbers[codes], list(number)


def _states(call: Aggregate, fold: _Accumulator, table: BindingTable,
            inverse: np.ndarray, groups: int,
            decode: Callable[[int], Term], context: EvalContext
            ) -> List[Any]:
    """``call``'s state in each of ``groups`` groups, ``inverse`` giving
    the group of every row of ``table``.

    The column decides how: a plain-variable argument lifts its
    distinct ids once and folds as arrays where the accumulator can
    (:meth:`_Accumulator.columns`); whatever that declines, and every
    computed argument, goes through ``step`` a row at a time."""
    expression = call.expression
    if expression is None:  # COUNT(*): no argument, bound on every row
        return fold.columns(inverse, groups, None, None)
    slot = table.slots.get(expression.name) \
        if isinstance(expression, VariableExpression) else None
    if slot is None:
        lifted, codes = expression_column(
            expression, table, decode, context, fold.lift)
    else:
        column = table.columns[slot]
        bound = column >= 0
        if not bound.all():
            column, inverse = column[bound], inverse[bound]
        lifted = codes = None
        if fold.lift is not None:
            ids, codes = grouping.distinct(column)
            lifted = [fold.lift(decode(cell)) for cell in ids.tolist()]
        states = fold.columns(inverse, groups, lifted, codes)
        if states is not None:
            return states
    values = map(lifted.__getitem__, codes.tolist())
    states = [fold.start() for _ in range(groups)]
    step = fold.step
    # the general fold: what no array dtype holds (decimals, mixed
    # numeric classes, order keys, value lists) steps a row at a time
    # repro: allow[columnar-join-step]
    for group_of_row, value in zip(inverse.tolist(), values):
        if value is not None:
            states[group_of_row] = step(states[group_of_row], value)
    return states


def partials(plan: Plan, table: BindingTable,
             decode: Callable[[int], Term], context: EvalContext
             ) -> Partials:
    """Group ``table`` and fold every aggregate's argument into its
    group's state, a column at a time."""
    if not table:
        return {}
    keys = [_key_column(expression, table, decode, context)
            for expression, _name in plan.keys]
    first, inverse = grouping.group(
        [column for column, _values in keys], len(table), by_first_row=True)
    states = [_states(call, fold, table, inverse, len(first), decode, context)
              for call, fold in zip(plan.aggregates, plan.folds)]
    # a group's key: the cells of its first row (a term id per
    # plain-variable key, a term per computed one, ``None`` unbound)
    cells = [column_cells(column[first]) if values is None
             else [values[number] for number in column[first].tolist()]
             for column, values in keys]
    return {key: [column[number] for column in states]
            for number, key in enumerate(zip(*cells) if cells else [()])}


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


def order_terms(order_by: Sequence[Tuple[Expression, bool]],
                binding: Binding, context: EvalContext
                ) -> Tuple[Optional[Term], ...]:
    """``binding``'s ORDER BY terms, ``None`` where one is an error."""
    terms: List[Optional[Term]] = []
    for expression, _ascending in order_by:
        try:
            terms.append(expression.evaluate(binding, context))
        except ExpressionError:
            terms.append(None)
    return tuple(terms)


def finalize(plan: Plan, groups: Partials, decode: Callable[[int], Term],
             context: EvalContext
             ) -> Tuple[List[Binding], List[Tuple[Optional[Term], ...]]]:
    """One binding per group that passes HAVING — its keys, decoded
    once, then the projection expressions — and beside each its ORDER
    BY terms.

    While a group is evaluated ``context.aggregates`` holds its
    finished aggregate values for :meth:`Aggregate.evaluate` to read,
    which is why the ORDER BY terms are computed here: an aggregate
    there (``ORDER BY DESC(SUM(?m))``) has no value after the group.
    Without GROUP BY there is exactly one group, even over no rows.
    """
    if not plan.keys and not groups:
        groups = {(): [fold.start() for fold in plan.folds]}
    results: List[Binding] = []
    terms: List[Tuple[Optional[Term], ...]] = []
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
            for nodes, fold, state in zip(plan.readers, plan.folds, states):
                try:
                    value = fold.finish(state)
                except ExpressionError:
                    continue  # an error wherever the group reads it
                for node in nodes:
                    finished[node] = value
            try:
                keep = all(effective_boolean_value(condition.evaluate(
                    binding, context)) for condition in plan.having)
            except ExpressionError:
                keep = False
            if keep:
                apply_projection(plan.projection, binding, context)
                results.append(binding)
                terms.append(order_terms(plan.order_by, binding, context))
    finally:
        context.aggregates = None
    return results, terms
