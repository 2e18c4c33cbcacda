"""Columnar solution tables for the batch SPARQL pipeline.

A :class:`BindingTable` is the unit of data flow inside the evaluator:
a shared variable→slot map (the schema) plus **one ``int64`` numpy
column per variable** whose cells are interned term ids (see
:mod:`repro.rdf.dictionary`), ``-1`` (:data:`UNBOUND`) where the
variable is unbound, and an explicit row count (the zero-column unit
table still has one row).  Every operator on the query's critical path
— the join kernel of :mod:`repro.sparql.evaluator_steps`, FILTER, BIND,
GROUP BY — reads and writes those columns whole: a join step is a
scatter into a key directory and a gather, never a Python object per
solution; where terms have to be looked at, :func:`expression_column`
looks once per distinct key of the columns read.

Columns are **immutable once a table holds them**: an operator that
keeps every row hands the input's column objects on to its output, so
nothing may write into one in place.

Tables are built around columns (:meth:`BindingTable.of`) only.
:attr:`BindingTable.rows` is a derived view — the same solutions as
tuples, ``None`` for unbound, built on first use and cached — for what
reads whole solutions: result decoding and the EXISTS / ``BNODE()``
branch of :func:`expression_column`.

Column names beginning with ``#`` are internal bookkeeping (e.g. the
left-row provenance marker OPTIONAL evaluation threads through its
right side) and are never decoded into user-visible bindings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Tuple

import numpy as np

from repro import grouping
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    BooleanExpression,
    EvalContext,
    ExistsExpression,
    Expression,
    FunctionExpression,
    effective_boolean_value,
    subexpressions,
)

IdRow = Tuple[Optional[int], ...]

__all__ = ["BindingTable", "UNBOUND"]

#: The cell of an unbound variable (term ids are never negative).
UNBOUND = -1


def id_column(cells: Iterable[Optional[int]]) -> np.ndarray:
    """A column from term ids with ``None`` for unbound."""
    return np.array([UNBOUND if cell is None else cell for cell in cells],
                    dtype=np.int64)


def column_cells(column: np.ndarray) -> List[Optional[int]]:
    """A column as a list of term ids with ``None`` for unbound."""
    unbound = column < 0
    if not unbound.any():
        return column.tolist()
    cells = column.astype(object)
    cells[unbound] = None
    return cells.tolist()


class BindingTable:
    """An ordered bag of solution rows over a fixed variable schema."""

    __slots__ = ("names", "slots", "columns", "_count", "_rows")

    @classmethod
    def of(cls, names: Sequence[str], columns: Sequence[np.ndarray],
           count: int) -> "BindingTable":
        """A table of ``count`` rows around ``int64`` id ``columns``
        (one per name, not copied) — the one way to build a table."""
        table = cls.__new__(cls)
        table.names = tuple(names)
        table.slots = {name: index for index, name in enumerate(table.names)}
        table.columns = list(columns)
        table._count = count
        table._rows = None
        return table

    @classmethod
    def unit(cls) -> "BindingTable":
        """The join identity: no columns, one empty row."""
        return cls.of((), (), 1)

    @classmethod
    def empty(cls, names: Sequence[str] = ()) -> "BindingTable":
        """No rows at all (the annihilator)."""
        return cls.of(names, [np.empty(0, dtype=np.int64) for _ in names], 0)

    @property
    def rows(self) -> List[IdRow]:
        """The solutions as tuples, ``None`` for unbound (derived from
        the columns on first use, then cached)."""
        if self._rows is None:
            self._rows = list(zip(*map(column_cells, self.columns))) \
                if self.columns else [()] * self._count
        return self._rows

    def take(self, index: np.ndarray) -> "BindingTable":
        """The rows a boolean mask keeps / an index array picks, in
        that order."""
        columns = [column[index] for column in self.columns]
        count = int(np.count_nonzero(index)) if index.dtype == bool \
            else len(index)
        return BindingTable.of(self.names, columns, count)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __repr__(self) -> str:
        return f"<BindingTable {list(self.names)} ({self._count} rows)>"


def row_decoder(names: Sequence[str], decode: Callable[[int], Any]
                ) -> Callable[[IdRow], Dict[str, Any]]:
    """The function turning an id row over ``names`` into a ``{name:
    term}`` binding of its bound, user-visible (non-``#``) cells.

    The single definition of "decode a row": the final projection and
    the row-at-a-time branch of :func:`expression_column` share it.
    """
    visible = [(slot, name) for slot, name in enumerate(names)
               if not name.startswith("#")]

    def decode_row(row: IdRow) -> Dict[str, Any]:
        return {name: decode(row[slot]) for slot, name in visible
                if row[slot] is not None}

    return decode_row


def _row_at_a_time(expression: Expression) -> bool:
    """Whether equal bindings of ``expression.variables()`` can still
    give different values: an EXISTS reads whatever its pattern's inner
    filters mention (which ``variables()`` does not list) and is
    answered through the row cursor, and ``BNODE`` mints a node per
    call — the only non-deterministic builtin (``NOW`` is fixed per
    :class:`EvalContext`)."""
    return any(
        isinstance(node, ExistsExpression)
        or isinstance(node, FunctionExpression) and node.name == "BNODE"
        for node in subexpressions(expression))


def expression_column(expression: Expression, table: BindingTable,
                      decode: Callable[[int], Any], context: EvalContext,
                      lift: Optional[Callable[[Any], Any]] = None
                      ) -> Tuple[List[Any], np.ndarray]:
    """``expression`` over every row of ``table`` as ``(values,
    codes)``: row ``i`` holds ``values[codes[i]]`` — the lifted value,
    ``None`` where it is unbound or an :class:`ExpressionError`.

    The single term-level boundary of the id pipeline — a FILTER
    conjunct (:func:`filter_mask`), BIND (``lift`` is ``encode``), an
    aggregate's argument (its accumulator's ``lift``) and a computed
    group key (nothing) all evaluate here.  The expression is evaluated
    and lifted **once per distinct key** of the columns it reads,
    decoding only the cells that key holds: the dictionary is a
    bijection, so equal id tuples are equal bindings (``1``, ``1.0`` and
    ``"01"^^xsd:integer`` are distinct ids, evaluated separately); the
    keys are :func:`repro.grouping.distinct`'s of one column,
    :func:`repro.grouping.group`'s of several.  Only an expression
    :func:`_row_at_a_time` names sees every row, whole, with
    ``context.row`` at the row's index.
    """
    def value_of(binding: Dict[str, Any]) -> Any:
        try:
            value = expression.evaluate(binding, context)
            return value if lift is None else lift(value)
        except ExpressionError:
            return None

    if _row_at_a_time(expression):
        decode_row = row_decoder(table.names, decode)
        values = []
        # whole rows, one at a time, is what these two kinds need: the
        # row view's one reader here, not a column read
        # repro: allow[columnar-join-step]
        for index, row in enumerate(table.rows):
            context.row = index
            values.append(value_of(decode_row(row)))
        return values, np.arange(len(table))
    variables = expression.variables()
    reads = [name for name in table.names if name in variables]
    columns = [table.columns[table.slots[name]] for name in reads]
    if len(columns) == 1:
        ids, codes = grouping.distinct(columns[0])
        keys: Iterable[Tuple[int, ...]] = zip(ids.tolist())
    else:  # reading no column at all is one key, evaluated once
        first, codes = grouping.group(columns, len(table))
        keys = zip(*(column[first].tolist() for column in columns)) \
            if columns else [()]
    return [value_of({name: decode(cell) for name, cell in zip(reads, key)
                      if cell >= 0}) for key in keys], codes


def _conjuncts(condition: Expression) -> Iterator[Expression]:
    """The operands of ``condition``'s top-level ``&&`` chain."""
    if isinstance(condition, BooleanExpression) and condition.op == "&&":
        yield from _conjuncts(condition.left)
        yield from _conjuncts(condition.right)
    else:
        yield condition


def filter_mask(condition: Expression, table: BindingTable,
                decode: Callable[[int], Any], context: EvalContext
                ) -> np.ndarray:
    """The indices of the rows ``FILTER(condition)`` keeps, ascending.

    FILTER keeps a row iff the effective boolean value is true, and ``A
    && B`` is true iff both are — an error or a false on either side
    drops the row either way (SPARQL 17.2) — so each conjunct of the
    top-level ``&&`` chain is evaluated over *its own* columns and the
    verdicts are ANDed as arrays: ``?a = 1 && ?b = 2`` costs |a| + |b|
    evaluations, not |pairs|.  ``||`` and ``!`` are not split."""
    keep = np.ones(len(table), dtype=bool)
    for conjunct in _conjuncts(condition):
        verdicts, codes = expression_column(
            conjunct, table, decode, context, effective_boolean_value)
        keep &= np.array(verdicts, dtype=bool)[codes]  # None: not true
    return np.flatnonzero(keep)


def concat(tables: Iterable[BindingTable]) -> BindingTable:
    """Append tables, unioning schemas (missing cells are unbound)."""
    tables = [table for table in tables]
    if not tables:
        return BindingTable.empty()
    if len(tables) == 1:
        return tables[0]
    names = list(dict.fromkeys(
        name for table in tables for name in table.names))
    columns = [
        np.concatenate([
            table.columns[table.slots[name]] if name in table.slots
            else np.full(len(table), UNBOUND, dtype=np.int64)
            for table in tables])
        for name in names]
    return BindingTable.of(names, columns, sum(map(len, tables)))
