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

from typing import Any, Callable, Collection, Dict, Iterable, Iterator, \
    List, Optional, Sequence, Tuple

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

    def extended(self, extra_names: Sequence[str]) -> "BindingTable":
        """Schema-widened copy: new columns filled with ``None``."""
        if not extra_names:
            return self
        pad: IdRow = (None,) * len(extra_names)
        return BindingTable(self.names + tuple(extra_names),
                            [row + pad for row in self.rows])

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


def row_decoder(names: Sequence[str], decode: Callable[[int], Any],
                variables: Optional[Collection[str]] = None
                ) -> Callable[[IdRow], Dict[str, Any]]:
    """The function turning an id row over ``names`` into a ``{name:
    term}`` binding of its bound, user-visible (non-``#``) cells — of
    ``variables`` only, when given.

    The single definition of "decode a row" every term-level boundary
    (FILTER, BIND, expression arguments, final projection) shares.
    """
    visible = [(slot, name) for slot, name in enumerate(names)
               if not name.startswith("#")
               and (variables is None or name in variables)]

    def decode_row(row: IdRow) -> Dict[str, Any]:
        return {name: decode(row[slot]) for slot, name in visible
                if row[slot] is not None}

    return decode_row


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
