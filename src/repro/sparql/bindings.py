"""Columnar solution tables for the batch SPARQL pipeline.

A :class:`BindingTable` is the unit of data flow inside the evaluator:
a shared variable→slot map (the schema) plus a list of row tuples whose
cells are **interned term ids** (see :mod:`repro.rdf.dictionary`) or
``None`` for unbound.  Keeping solutions columnar and integer-typed is
what lets basic graph patterns execute as batch joins — hash joins and
memoized index probes on machine integers — instead of materializing a
Python dict per solution per operator.

Column names beginning with ``#`` are internal bookkeeping (e.g. the
left-row provenance marker OPTIONAL evaluation threads through its
right side) and are never decoded into user-visible bindings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Tuple

from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    EvalContext,
    ExistsExpression,
    Expression,
    FunctionExpression,
    VariableExpression,
    subexpressions,
)

IdRow = Tuple[Optional[int], ...]

__all__ = ["BindingTable"]


class BindingTable:
    """An ordered bag of solution rows over a fixed variable schema."""

    __slots__ = ("names", "slots", "rows")

    def __init__(self, names: Sequence[str] = (),
                 rows: Optional[List[IdRow]] = None) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        self.slots: Dict[str, int] = {
            name: index for index, name in enumerate(self.names)}
        self.rows: List[IdRow] = rows if rows is not None else []

    @classmethod
    def unit(cls) -> "BindingTable":
        """The join identity: no columns, one empty row."""
        return cls((), [()])

    @classmethod
    def empty(cls, names: Sequence[str] = ()) -> "BindingTable":
        """No rows at all (the annihilator)."""
        return cls(names, [])

    def project_onto(self, names: Sequence[str]) -> List[IdRow]:
        """Rows re-ordered/padded onto a target schema."""
        return list(self.iter_onto(names))

    def iter_onto(self, names: Sequence[str]) -> Iterator[IdRow]:
        """Lazily project rows onto a target schema.

        The generator form of :meth:`project_onto` for incremental
        consumers (the streaming dedup operator) that may stop before
        draining the batch.
        """
        slots = self.slots
        picks = [slots.get(name) for name in names]
        for row in self.rows:
            yield tuple(
                None if pick is None else row[pick] for pick in picks)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return f"<BindingTable {list(self.names)} ({len(self.rows)} rows)>"


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
                      ) -> List[Any]:
    """``expression`` over every row of ``table``: the lifted value per
    row, ``None`` where it is unbound or an :class:`ExpressionError`.

    The single term-level boundary of the id pipeline — FILTER (``lift``
    is the effective boolean value), BIND (``encode``), an aggregate's
    argument (its accumulator's ``lift``) and a computed group key
    (nothing) all evaluate here.  The expression is evaluated and lifted
    **once per distinct id tuple** of the columns it reads, decoding
    only the cells that tuple holds: the dictionary is a bijection, so
    equal id tuples are equal bindings (``1``, ``1.0`` and
    ``"01"^^xsd:integer`` are distinct ids, evaluated separately).  A
    plain variable nothing lifts stays the column of its ids.  Only an
    expression :func:`_row_at_a_time` names sees every row, whole, with
    ``context.row`` at the row's index.
    """
    rows = table.rows
    slots = table.slots
    if lift is None and isinstance(expression, VariableExpression):
        slot = slots.get(expression.name)
        return [None] * len(rows) if slot is None \
            else [row[slot] for row in rows]

    def value_of(binding: Dict[str, Any]) -> Any:
        try:
            value = expression.evaluate(binding, context)
            return value if lift is None else lift(value)
        except ExpressionError:
            return None

    if _row_at_a_time(expression):
        decode_row = row_decoder(table.names, decode)
        values = []
        for index, row in enumerate(rows):
            context.row = index
            values.append(value_of(decode_row(row)))
        return values
    variables = expression.variables()
    reads = [name for name in table.names if name in variables]
    if not reads:
        return [value_of({})] * len(rows)
    columns = [[row[slots[name]] for row in rows] for name in reads]
    # one column keys on its ids as they are: no tuple per row
    single = len(columns) == 1
    keys = columns[0] if single else list(zip(*columns))
    memo = dict.fromkeys(keys)  # first-occurrence order, like the rows
    for key in memo:
        memo[key] = value_of({name: decode(cell) for name, cell
                              in zip(reads, (key,) if single else key)
                              if cell is not None})
    return list(map(memo.__getitem__, keys))


def concat(tables: Iterable[BindingTable]) -> BindingTable:
    """Append tables, unioning schemas (missing cells become ``None``)."""
    tables = [table for table in tables]
    if not tables:
        return BindingTable.empty()
    names: List[str] = []
    seen = set()
    for table in tables:
        for name in table.names:
            if name not in seen:
                seen.add(name)
                names.append(name)
    rows: List[IdRow] = []
    for table in tables:
        if table.names == tuple(names):
            rows.extend(table.rows)
        else:
            rows.extend(table.project_onto(names))
    return BindingTable(names, rows)
