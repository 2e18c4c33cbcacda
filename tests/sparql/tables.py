"""Id tables from row tuples, for tests.

The evaluator builds every :class:`~repro.sparql.bindings.BindingTable`
around columns (``BindingTable.of``); tests think in rows, so they
build through :func:`id_table`.
"""

import numpy as np

from repro.sparql.bindings import UNBOUND, BindingTable


def id_table(names, rows) -> BindingTable:
    """The table over ``names`` holding ``rows``: tuples of term ids,
    ``None`` for unbound."""
    names = tuple(names)
    rows = list(rows)
    grid = np.array(
        [[UNBOUND if cell is None else cell for cell in row] for row in rows],
        dtype=np.int64).reshape(len(rows), len(names))
    return BindingTable.of(names, list(grid.T.copy()), len(rows))
