"""SPARQL result representations.

:class:`ResultTable` is the SELECT result: ordered column names plus rows
of optional terms (``None`` marks an unbound cell).  It offers dict-style
row iteration, column extraction, Python-value conversion, and a plain
text rendering used by the examples and the exploration module.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import IRI, Literal, Term

Row = Tuple[Optional[Term], ...]


class ResultTable:
    """An immutable SELECT result.

    ``snapshot_epoch`` is filled in by the endpoint's snapshot-isolated
    read path: the dataset epoch the query was pinned to (``None`` for
    tables produced outside an endpoint).  Concurrency tests use it to
    assert that every row of a result is consistent with exactly one
    snapshot.
    """

    #: dataset snapshot epoch this result was evaluated against
    snapshot_epoch: Optional[int] = None

    def __init__(self, variables: Sequence[str],
                 rows: Sequence[Sequence[Optional[Term]]]) -> None:
        self.vars: List[str] = list(variables)
        self.rows: List[Row] = [tuple(row) for row in rows]
        self._index = {name: position for position, name in enumerate(self.vars)}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Term]]:
        """Iterate rows as {var: term} dicts (unbound cells omitted)."""
        for row in self.rows:
            yield {
                name: value
                for name, value in zip(self.vars, row)
                if value is not None
            }

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, name: str) -> List[Optional[Term]]:
        position = self._index[name]
        return [row[position] for row in self.rows]

    def cell(self, row: int, name: str) -> Optional[Term]:
        return self.rows[row][self._index[name]]

    def to_python(self) -> List[Dict[str, Any]]:
        """Rows as dicts of Python values (IRIs become strings)."""
        converted: List[Dict[str, Any]] = []
        for row in self.rows:
            item: Dict[str, Any] = {}
            for name, value in zip(self.vars, row):
                if value is None:
                    item[name] = None
                elif isinstance(value, Literal):
                    item[name] = value.value
                elif isinstance(value, IRI):
                    item[name] = value.value
                else:
                    item[name] = str(value)
            converted.append(item)
        return converted

    def to_text(self, max_rows: Optional[int] = None,
                max_width: int = 40) -> str:
        """Fixed-width table rendering for terminal display."""
        def cell_text(value: Optional[Term]) -> str:
            if value is None:
                return ""
            if isinstance(value, Literal):
                text = value.lexical
            elif isinstance(value, IRI):
                text = value.value
                for separator in ("#", "/"):
                    if separator in text:
                        tail = text.rsplit(separator, 1)[1]
                        if tail:
                            text = tail
                            break
            else:
                text = str(value)
            if len(text) > max_width:
                text = text[: max_width - 1] + "…"
            return text

        shown = self.rows if max_rows is None else self.rows[:max_rows]
        grid = [[cell_text(v) for v in row] for row in shown]
        widths = [len(name) for name in self.vars]
        for row in grid:
            for position, text in enumerate(row):
                widths[position] = max(widths[position], len(text))
        lines = [
            " | ".join(name.ljust(widths[i])
                       for i, name in enumerate(self.vars)),
            "-+-".join("-" * width for width in widths),
        ]
        for row in grid:
            lines.append(" | ".join(
                text.ljust(widths[i]) for i, text in enumerate(row)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ResultTable {self.vars} ({len(self.rows)} rows)>"
