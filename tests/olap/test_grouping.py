"""``repro.grouping`` against the ``np.unique(axis=0)`` grouping it
replaced (``reference_group``) and against a Python dict.

Keys cover what the callers feed it: no key column at all, narrowed
``int8`` / ``int16`` / ``int32`` level codes beside ``int64`` term ids,
``-1`` unbound cells, overlay ids at ``1 << 40`` and up (where packing
two keys into one word would overflow), duplicate-heavy and
all-distinct columns, zero / one / many rows.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.grouping import fold, group, sorted_runs

from tests.olap.reference_group import reference_group

OVERLAY = 1 << 40

#: (dtype, cell strategy) of one key column
COLUMN_KINDS = [
    (np.int8, st.integers(-1, 3)),
    (np.int16, st.integers(-1, 300)),
    (np.int32, st.integers(-1, 70_000)),
    (np.int64, st.integers(-1, 5)),
    (np.int64, st.one_of(st.just(-1), st.integers(0, 3),
                         st.integers(OVERLAY, OVERLAY + 3))),
    # all-distinct more often than not
    (np.int64, st.integers(-1, 2**62)),
]


@st.composite
def key_columns(draw):
    """``(columns, count)``: 0–4 parallel key columns of mixed widths
    over 0–40 rows."""
    count = draw(st.sampled_from([0, 1, 2, 7, 40]))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        dtype, cells = draw(st.sampled_from(COLUMN_KINDS))
        columns.append(np.array(
            draw(st.lists(cells, min_size=count, max_size=count)),
            dtype=dtype))
    return columns, count


def distinct_rows(columns, first):
    """The keys of the groups whose first rows are ``first``."""
    return [tuple(int(column[row]) for column in columns) for row in first]


class TestGroup:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(key_columns())
    @example(([np.array([OVERLAY + 1, 1, OVERLAY + 1]),
               np.array([0, OVERLAY, 0])], 3))
    def test_sorted_order_is_np_unique(self, keyed):
        columns, count = keyed
        first, inverse = group(columns, count)
        matrix = np.stack([column.astype(np.int64) for column in columns],
                          axis=1) if columns \
            else np.empty((count, 0), dtype=np.int64)
        distinct, expected = reference_group(matrix)
        assert inverse.dtype == np.int64 and first.dtype == np.int64
        assert inverse.tolist() == expected.tolist()
        assert len(first) == len(distinct)
        if columns:
            assert distinct_rows(columns, first) \
                == [tuple(row) for row in distinct.tolist()]
            # each group's first row is the first row holding its key
            assert first.tolist() == [
                inverse.tolist().index(number)
                for number in range(len(first))]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(key_columns())
    def test_first_occurrence_order_is_a_dict(self, keyed):
        columns, count = keyed
        first, inverse = group(columns, count, by_first_row=True)
        rows = list(zip(*(column.tolist() for column in columns))) \
            if columns else [()] * count
        numbers = {key: number for number, key
                   in enumerate(dict.fromkeys(rows))}
        if not columns:
            numbers[()] = 0  # one group even over no rows
        assert inverse.tolist() == [numbers[row] for row in rows]
        assert len(first) == len(numbers)
        if columns:
            assert distinct_rows(columns, first) == list(numbers)
            assert first.tolist() == sorted(first.tolist())

    def test_both_orders_hold_the_same_groups(self):
        columns = [np.array([3, 1, 3, 2, 1], dtype=np.int16),
                   np.array([9, 9, 9, -1, 9])]
        ordered, _ = group(columns, 5)
        arrival, inverse = group(columns, 5, by_first_row=True)
        assert ordered.tolist() == [1, 3, 0]
        assert arrival.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]

    def test_sorted_runs_is_stable(self):
        keys = np.array([2, 1, 2, 1, 1])
        order, starts = sorted_runs([keys], 5)
        assert order.tolist() == [1, 3, 4, 0, 2]
        assert starts.tolist() == [True, False, False, True, False]
        order, starts = sorted_runs([keys[:0]], 0)
        assert order.tolist() == [] and starts.tolist() == []


class TestFold:
    def test_result_follows_the_values_dtype(self):
        inverse = np.array([0, 1, 0, 2])
        integers = fold("sum", inverse, np.array([2**53, 1, 1, 7]), 4)
        assert integers.dtype == np.int64
        assert integers.tolist() == [2**53 + 1, 1, 7, 0]
        doubles = fold("sum", inverse, np.array([0.5, 1.0, 0.25, 7.0]), 4)
        assert doubles.dtype == np.float64
        assert doubles.tolist() == [0.75, 1.0, 7.0, 0.0]
        assert fold("count", inverse, 1.0, 4).tolist() == [2, 1, 1, 0]

    def test_extrema_start_at_their_identity(self):
        inverse = np.array([0, 0, 2])
        values = np.array([4, -3, 5])
        assert fold("min", inverse, values, 3).tolist() \
            == [-3.0, np.inf, 5.0]
        assert fold("max", inverse, values, 3).tolist() \
            == [4.0, -np.inf, 5.0]

    def test_sums_add_in_row_order(self):
        """Unbuffered, so a slot is the left-to-right Python sum of its
        rows to the bit — with cancellation the order shows."""
        values = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3]
        inverse = np.array([0, 0, 0, 0, 1, 1])
        expected = [((1e16 + 1.0) + -1e16) + 1.0, 3.0 + 1e-3]
        assert expected[0] != sum(sorted(values[:4]))
        assert fold("sum", inverse, np.array(values), 2).tolist() == expected

    @pytest.mark.parametrize("name", ["sum", "count", "min", "max"])
    def test_no_rows_no_groups(self, name):
        empty = np.empty(0, dtype=np.int64)
        assert fold(name, empty, np.empty(0), 0).tolist() == []


def test_the_module_is_worker_side():
    """Spawned workers import it and call it with what a task pickles."""
    import repro.grouping as module

    assert {name for name in vars(module) if not name.startswith("__")} \
        >= {"group", "fold", "sorted_runs"}
    assert pickle.loads(pickle.dumps(group)) is group
