"""Composite-key grouping: count dense keys, sort only wide ones.

The one place under ``src/`` that groups rows by several key columns.
The star kernel (:mod:`repro.olap.kernel`: level codes → groups, and
the merge of morsel partials), SPARQL ``GROUP BY``
(:mod:`repro.sparql.aggregation`), the join kernel's composite keys
(:mod:`repro.sparql.evaluator_steps`), SELECT DISTINCT before decode
(:mod:`repro.sparql.evaluator`), MINUS and the storage tier's triple
dedup (:mod:`repro.rdf.graph`) all call it; the ``single-grouping-kernel``
lint rule keeps it that way.  Its one-column sibling :func:`distinct`
serves whatever ``repro.sparql`` evaluates once per distinct id
(:func:`repro.sparql.bindings.expression_column`, aggregate arguments).

Keys are parallel integer columns of any width (``int8`` codes next to
``int64`` term ids).  Interned ids are dense, so a key is numbered
mixed-radix by its columns' spans and counted in a directory; only keys
too wide for one are sorted, column by column — never packed into one
word (``a << 32 | b`` overflows on overlay ids, which start at
``1 << 40``) and never viewed as one void-dtype row, which is what
``np.unique(axis=0)`` sorts and why it is an order of magnitude slower.
``-1`` (an unbound cell) is a key value like any other.

Numpy only and stateless, so worker processes run it as it stands (the
``parallel-safety`` lint rule treats the module as worker-side code).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Sequence, Tuple

import numpy as np


#: Interned ids are array offsets while they are dense: keys that span
#: at most this many slots per row of input — :func:`distinct`'s column,
#: :func:`group`'s code, the join kernel's build entries and probe rows
#: (:func:`repro.sparql.evaluator_steps.grouped`) — are indexed by
#: ``key - min``, so the directory (8 B a slot) stays a per-call
#: transient of the order of its input.  Measured
#: on the contract host, 20 000 rows against 20 000 entries: a slot
#: costs ≈ 0.4 ns to fill, a binary search 46–110 ns a needle (52 to
#: 20 000 sorted keys) beside the 1.8 ms sort in front of it — directory
#: and look-up 0.12 ms at one slot per entry, 0.19 ms at eight, sort and
#: search 4.0 ms.  The directory would win far past 4; the constant
#: bounds the memory, not the break-even.
DIRECTORY_FILL = 4


def distinct(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, codes)`` of one integer column: its distinct values,
    ascending, and every row's index into them (``ids[codes]`` is the
    column) — what ``np.unique(column, return_inverse=True)`` answers.

    Dense ids are **counted**, not sorted or hashed: while they span at
    most :data:`DIRECTORY_FILL` slots a row, one scatter marks the ids
    present, ``flatnonzero`` lists them, a second scatter numbers them
    and one gather reads every row's number (0.05–0.19 ms on 20 000
    rows where ``np.unique`` takes 0.28–0.43).  Sparse ids (base ids
    next to overlay ones) go to ``np.unique``; their span is never
    allocated."""
    count = len(column)
    low = int(column.min()) if count else 0
    span = int(column.max()) - low + 1 if count else 0
    if span > DIRECTORY_FILL * count:
        return np.unique(column, return_inverse=True)
    offsets = np.subtract(column, low, dtype=np.int64)  # int8: 127 - -1
    number = np.zeros(span, dtype=np.int64)
    number[offsets] = 1
    ids = np.flatnonzero(number)
    number[ids] = np.arange(len(ids))
    return ids + low, number[offsets]


def sorted_runs(columns: Sequence[np.ndarray], count: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)`` of ``count`` rows keyed by ``columns`` (at
    least one): the stable permutation that sorts the rows
    lexicographically, first column most significant, and a mask over
    the *sorted* positions that is set where a run of equal keys
    begins.  Stable, so ``order[starts]`` is each distinct key's first
    row."""
    order = np.lexsort(columns[::-1])  # most significant key last
    starts = np.zeros(count, dtype=bool)
    starts[:1] = True
    for column in columns:
        column = column[order]
        starts[1:] |= column[1:] != column[:-1]
    return order, starts


def group(columns: Sequence[np.ndarray], count: int,
          by_first_row: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``count`` rows by their key ``columns``: ``(first,
    inverse)`` — the index of each group's first row, and every row's
    group number (``columns[i][first]`` are the distinct keys).

    Groups are numbered in sorted key order, or with ``by_first_row``
    in the order their first rows come.  No columns at all is ONE group
    however many rows there are — none included, where its first row
    ``0`` does not exist: GROUP BY nothing over nothing still answers.

    Keys are **counted**: ``code * span + column - low`` per column, in
    a directory while the spans multiply to at most
    :data:`DIRECTORY_FILL` slots a row; wider keys are sorted.
    """
    if not columns:
        return (np.zeros(1, dtype=np.int64),
                np.zeros(count, dtype=np.int64))
    lows = [int(column.min()) if count else 0 for column in columns]
    spans = [int(column.max()) - low + 1 if count else 0
             for column, low in zip(columns, lows)]
    if math.prod(spans) > DIRECTORY_FILL * count:
        order, starts = sorted_runs(columns, count)
        number = order[starts]  # each key's first row, in key order
        code = np.empty(count, dtype=np.int64)
        code[order] = np.cumsum(starts) - 1
    else:
        code = np.zeros(count, dtype=np.int64)
        for column, low, span in zip(columns, lows, spans):
            code *= span  # in place, in int64: ``column - low`` may wrap
            code -= low
            code += column
        # each code's first row by ``minimum``: a scatter's write order
        # is open
        number = np.full(math.prod(spans), count, dtype=np.int64)
        np.minimum.at(number, code, np.arange(count))
    present = np.flatnonzero(number < count)
    first = number[present]
    if by_first_row:
        present = present[np.argsort(first)]
        first = number[present]
    number[present] = np.arange(len(present))
    return first, number[code]


#: accumulator → (the ufunc that folds values in and merges partials,
#: its identity — what a group nothing contributed to holds)
_FOLDS: Dict[str, Tuple[np.ufunc, float]] = {
    "sum": (np.add, 0), "count": (np.add, 0),
    "min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


def fold(name: str, inverse: np.ndarray, values: Any, groups: int
         ) -> np.ndarray:
    """Accumulate ``values`` (one per row, or one scalar for all) into
    ``groups`` slots by group number, **in row order** — ``ufunc.at``
    is unbuffered, so a slot sees exactly the left-to-right fold of its
    rows.  The result takes the dtype of ``values`` (``int64`` sums
    stay integers) widened by the identity where it has to be (an
    integer minimum starts at ``inf``)."""
    ufunc, identity = _FOLDS[name]
    out = np.full(groups, identity, dtype=np.result_type(values, identity))
    ufunc.at(out, inverse, values)
    return out
