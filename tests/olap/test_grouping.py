"""``repro.grouping`` against the ``np.unique(axis=0)`` grouping it
replaced (``reference_group``) and against a Python dict; its
one-column ``distinct`` against ``np.unique(return_inverse=True)``.

Keys cover what the callers feed it: no key column at all, narrowed
``int8`` / ``int16`` / ``int32`` level codes beside ``int64`` term ids,
``-1`` unbound cells, overlay ids at ``1 << 40`` and up (where packing
two keys into one word would overflow), duplicate-heavy and
all-distinct columns, zero / one / many rows — and spans whose product
sits just under or just over the directory bound, so both of
``group``'s paths (counted, sorted) are reached and checked.
"""

import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.grouping import DIRECTORY_FILL, distinct, fold, group, sorted_runs

from tests.olap.reference_group import reference_group

OVERLAY = 1 << 40

#: (dtype, cell strategy) of one key column
COLUMN_KINDS = [
    (np.int8, st.integers(-1, 3)),
    (np.int16, st.integers(-1, 300)),
    (np.int32, st.integers(-1, 70_000)),
    (np.int64, st.integers(-1, 5)),
    # around the directory bound of 40 rows (160 slots), and where
    # ``column - low`` wraps in the column's own dtype
    (np.int16, st.integers(-1, 159)),
    (np.int8, st.sampled_from([-1, 0, 126, 127])),
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


def check_sorted_order(columns, count):
    """``group`` in sorted key order is ``reference_group``."""
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
            inverse.tolist().index(number) for number in range(len(first))]


def check_arrival_order(columns, count):
    """``group`` by first row is a dict of the key tuples."""
    first, inverse = group(columns, count, by_first_row=True)
    rows = list(zip(*(column.tolist() for column in columns))) \
        if columns else [()] * count
    numbers = {key: number for number, key
               in enumerate(dict.fromkeys(rows))}
    if not columns:
        numbers[()] = 0  # one group even over no rows
    assert inverse.dtype == np.int64 and first.dtype == np.int64
    assert inverse.tolist() == [numbers[row] for row in rows]
    assert len(first) == len(numbers)
    if columns:
        assert distinct_rows(columns, first) == list(numbers)
        assert first.tolist() == sorted(first.tolist())


#: narrow codes spanning their whole dtype from ``-1``, with rows enough
#: for the counting path: ``column - low`` wraps unless widened first.
WRAPPING = [np.array([-1, 127, 5] * 50, dtype=np.int8),
            np.array([-1, 32767, 300] * 2731, dtype=np.int16)]


def cells(values, count, dtype=np.int64):
    """A key column of ``count`` rows holding every one of ``values``
    (while the rows last), in a fixed shuffled order."""
    column = np.resize(np.array(list(values), dtype=dtype), count)
    return np.random.default_rng(count).permutation(column)


def alone(column):
    return [column], len(column)


class TestGroup:
    @settings(max_examples=400, deadline=None)
    @given(key_columns())
    @example(([np.array([OVERLAY + 1, 1, OVERLAY + 1]),
               np.array([0, OVERLAY, 0])], 3))
    @example(alone(WRAPPING[0]))
    @example(alone(WRAPPING[1]))
    def test_sorted_order_is_np_unique(self, keyed):
        check_sorted_order(*keyed)

    @settings(max_examples=400, deadline=None)
    @given(key_columns())
    @example(alone(WRAPPING[0]))
    @example(alone(WRAPPING[1]))
    def test_first_occurrence_order_is_a_dict(self, keyed):
        check_arrival_order(*keyed)

    def test_both_orders_hold_the_same_groups(self):
        columns = [np.array([3, 1, 3, 2, 1], dtype=np.int16),
                   np.array([9, 9, 9, -1, 9])]
        ordered, _ = group(columns, 5)
        arrival, inverse = group(columns, 5, by_first_row=True)
        assert ordered.tolist() == [1, 3, 0]
        assert arrival.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]

    @pytest.mark.parametrize("columns, count, made", [
        # counted: spans multiplying to 159 / 160 slots
        ([cells(range(53), 40), cells([-1, 1], 40, np.int8)], 40, {}),
        ([cells(range(16), 40, np.int16), cells(range(-1, 9), 40)], 40, {}),
        ([cells(range(-1, 4), 40, np.int8), cells(range(5), 40),
          cells(range(5, 10), 40, np.int16)], 40, {}),  # 125 slots
        ([cells([0, 1], 40, np.int8)] * 3 + [cells(range(-1, 19), 40)], 40,
         {}),  # four columns, 160 slots
        ([cells([5], 0), cells([OVERLAY], 0)], 0, {}),
        # sorted: 161 slots
        ([cells(range(0, 23, 2), 40), cells(range(7), 40, np.int8)], 40,
         {"lexsort": 1}),
        # overlay ids beside base ids
        ([cells(range(-1, 4), 40, np.int8),
          cells([3, OVERLAY + 2, OVERLAY], 40)], 40, {"lexsort": 1}),
        # five columns of three ids: 243 slots
        ([cells([0, 1, 2], 7, np.int8)] * 5, 7, {"lexsort": 1}),
        # all-distinct wide ids
        ([cells([2**62, 7, -1, OVERLAY + 3, OVERLAY], 40),
          cells(range(-1, 2**62, 2**56), 40)], 40, {"lexsort": 1}),
    ])
    def test_each_path_is_reached(self, monkeypatch, columns, count, made):
        """Keys are counted in a directory of ``DIRECTORY_FILL`` slots a
        row while their spans multiply to fit it, and sorted by one
        ``lexsort`` otherwise."""
        assert calls_made(monkeypatch, lambda: group(columns, count)) \
            == Counter(made)
        check_sorted_order(columns, count)
        check_arrival_order(columns, count)

    def test_counted_keys_stay_within_the_fill_bound(self, monkeypatch):
        rows = 5000
        row = np.random.default_rng(0).permutation(rows)
        # every key distinct, spans 100 × 200: at the bound
        columns = [row % 100,
                   (row // 100 * 4 + row % 4 - 1).astype(np.int16)]
        assert [int(np.ptp(column)) + 1 for column in columns] == [100, 200]
        assert 100 * 200 == DIRECTORY_FILL * rows
        assert calls_made(
            monkeypatch, lambda: group(columns, rows, True)) == Counter()
        tracemalloc.start()
        try:
            group(columns, rows, by_first_row=True)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the directory's slots plus a handful of row-sized arrays
        assert peak < (DIRECTORY_FILL + 6) * 8 * rows
        check_arrival_order(columns, rows)

    def test_sorted_runs_is_stable(self):
        keys = np.array([2, 1, 2, 1, 1])
        order, starts = sorted_runs([keys], 5)
        assert order.tolist() == [1, 3, 4, 0, 2]
        assert starts.tolist() == [True, False, False, True, False]
        order, starts = sorted_runs([keys[:0]], 0)
        assert order.tolist() == [] and starts.tolist() == []


@st.composite
def id_columns(draw):
    """One id column: dense ids (some unbound), ids spread to the
    counting bound and past it, base ids beside overlay ones; ``int32``
    where the ids fit, as the storage tier narrows them."""
    count = draw(st.sampled_from([0, 1, 2, 7, 40]))
    low = draw(st.sampled_from([-1, 0, 5, 70_000, OVERLAY]))
    width = draw(st.sampled_from([
        1, 3, count, DIRECTORY_FILL * count, DIRECTORY_FILL * count + 1,
        100 * count + 1, OVERLAY]))
    cells = draw(st.lists(
        st.one_of(st.just(-1), st.integers(low, low + width - 1),
                  st.sampled_from([low, low + width - 1])),
        min_size=count, max_size=count))
    narrow = max(cells, default=0) < 2**31 and draw(st.booleans())
    return np.array(cells, dtype=np.int32 if narrow else np.int64)


def calls_made(monkeypatch, call):
    """What ``call()`` sorts or hashes: a ``Counter`` of its
    ``np.unique`` and ``np.lexsort`` calls."""
    counts = Counter()

    def counting(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("unique", "lexsort"):
            patch.setattr(np, name, counting(name))
        call()
    return counts


def unique_calls(monkeypatch, call):
    """How often ``call()`` sorts or hashes: ``np.unique`` +
    ``np.lexsort`` calls."""
    return sum(calls_made(monkeypatch, call).values())


class TestDistinct:
    @settings(max_examples=600, deadline=None)
    @given(id_columns())
    @example(np.array([-1, -1, -1]))
    @example(np.array([OVERLAY + 4, 3, -1, OVERLAY + 4, 3]))
    @example(np.array([2**31 - 1, -1, 2**31 - 2, 2**31 - 1],
                      dtype=np.int32))
    @example(WRAPPING[0])
    @example(WRAPPING[1])
    def test_ids_and_codes_are_np_unique(self, column):
        ids, codes = distinct(column)
        expected, inverse = np.unique(column, return_inverse=True)
        assert ids.tolist() == expected.tolist()
        assert codes.tolist() == inverse.tolist()
        assert ids[codes].tolist() == column.tolist()

    def test_the_bound_is_where_counting_stops(self, monkeypatch):
        """Ten rows: ids spanning 40 slots are counted, 41 sorted."""
        for last, sorted_once in ((139, 0), (140, 1)):
            column = np.array([100, 103, 100, 110, last, 111, 103, 100,
                               last, 104])
            assert unique_calls(
                monkeypatch, lambda: distinct(column)) == sorted_once

    def test_sparse_ids_never_allocate_their_span(self):
        column = np.array([7, OVERLAY + 4, 3, OVERLAY, 7, -1] * 50)
        tracemalloc.start()
        try:
            ids, codes = distinct(column)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.tolist() == [-1, 3, 7, OVERLAY, OVERLAY + 4]
        assert peak < 64 * 1024  # O(rows): 300 rows, 8 B cells

    def test_dense_ids_stay_within_the_fill_bound(self):
        column = np.arange(0, 4 * 5000, 4)  # 5000 rows at the bound
        tracemalloc.start()
        try:
            distinct(column)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the numbering's slots plus a handful of row-sized arrays
        assert peak < (DIRECTORY_FILL + 6) * 8 * len(column)


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
        >= {"group", "fold", "sorted_runs", "distinct"}
    assert pickle.loads(pickle.dumps(group)) is group
