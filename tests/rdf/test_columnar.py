"""Unit tests for the columnar triple tier (:mod:`repro.rdf.columnar`).

Every pattern shape is checked against a brute-force reference scan,
so the staged binary-search routing cannot silently serve the wrong
order; the merge (delta + tombstones) and dtype/ceiling edges get the
same treatment.
"""

import random

import numpy as np
import pytest

from repro.rdf.columnar import TripleColumns, concat_arrays
from repro.rdf.dictionary import OVERLAY_BASE

from tests.rdf.reference_merged import id_arrays
from tests.rdf.rows import rows


def reference_scan(triples, pattern):
    s, p, o = pattern
    return sorted(t for t in triples
                  if (s is None or t[0] == s)
                  and (p is None or t[1] == p)
                  and (o is None or t[2] == o))


def all_patterns(triples):
    """Every shape over a handful of present and absent ids."""
    present = random.Random(7).sample(sorted(triples), min(5, len(triples)))
    probes = [(s, p, o) for s, p, o in present] + [(9999, 9999, 9999)]
    shapes = []
    for s, p, o in probes:
        shapes += [
            (None, None, None), (s, None, None), (None, p, None),
            (None, None, o), (s, p, None), (s, None, o), (None, p, o),
            (s, p, o),
        ]
    return shapes


@pytest.fixture(scope="module")
def triples():
    rng = random.Random(42)
    return {(rng.randrange(40), rng.randrange(8), rng.randrange(60))
            for _ in range(600)}


@pytest.fixture(scope="module")
def columns(triples):
    return TripleColumns.build(triples)


class TestPatternRouting:
    def test_every_shape_matches_reference(self, columns, triples):
        for pattern in all_patterns(triples):
            expected = reference_scan(triples, pattern)
            assert sorted(rows(columns.arrays(pattern))) == expected, pattern
            assert columns.count(pattern) == len(expected), pattern

    def test_contains(self, columns, triples):
        some = next(iter(triples))
        assert columns.contains(*some)
        assert not columns.contains(10**6, 1, 1)

    def test_distinct_counts(self, columns, triples):
        assert columns.n_subjects == len({t[0] for t in triples})
        assert columns.n_predicates == len({t[1] for t in triples})
        assert columns.n_objects == len({t[2] for t in triples})

    def test_len_and_repr(self, columns, triples):
        assert len(columns) == len(triples)
        assert "TripleColumns" in repr(columns)


class TestMerge:
    # merge ≡ rebuild, array for array, is tests/rdf/test_merge_compaction.py
    def test_delta_and_tombstones_fold(self, triples):
        base = TripleColumns.build(triples)
        victims = set(random.Random(1).sample(sorted(triples), 25))
        added = {(1000 + i, i % 4, 2000 + i) for i in range(50)}
        merged = base.merged(id_arrays(added), id_arrays(victims))
        expected = (triples - victims) | added
        assert sorted(rows(merged.arrays((None, None, None)))) \
            == sorted(expected)
        # the receiver is untouched (pinned snapshots keep reading it)
        assert len(base) == len(triples)

    def test_merge_empty_delta_drops_only_tombstones(self, triples):
        base = TripleColumns.build(triples)
        victim = next(iter(triples))
        merged = base.merged(id_arrays(()), id_arrays({victim}))
        assert len(merged) == len(triples) - 1
        assert not merged.contains(*victim)

    def test_tombstone_for_absent_triple_is_ignored(self, triples):
        base = TripleColumns.build(triples)
        merged = base.merged(id_arrays(()), id_arrays({(987654, 1, 2)}))
        assert len(merged) == len(base)


class TestDtypeAndCeiling:
    def test_small_ids_pack_into_int32(self, columns):
        assert columns.arrays((None, None, None))[0].dtype == np.int32

    def test_huge_ids_need_int64(self):
        big = 1 << 40
        cols = TripleColumns.build([(big, 1, 2)])
        assert cols.arrays((None, None, None))[0].dtype == np.int64
        assert cols.contains(big, 1, 2)

    def test_overlay_ids_probe_empty_without_overflow(self, columns):
        # per-query overlay ids live at 1 << 40: far outside any stored
        # int32 id, they must short-circuit, not wrap through a cast
        probe = OVERLAY_BASE + 17
        assert columns.count((probe, None, None)) == 0
        assert columns.count((None, probe, None)) == 0
        assert columns.count((None, None, probe)) == 0
        assert not columns.contains(probe, probe, probe)

    def test_negative_ids_probe_empty(self, columns):
        assert columns.count((-5, None, None)) == 0

    def test_probe_never_copies_the_column(self):
        """Regression: ``searchsorted(int32 column, <Python int>)``
        promoted — and copied — the whole first-stage column to int64
        on every probe (4 MiB+ at this size, O(n) where the docstring
        says O(log n)).  Measured by allocation, not by a clock."""
        import tracemalloc

        n = 1_000_000
        rows = np.arange(n, dtype=np.int64)
        cols = TripleColumns(rows % 5000, rows % 7, rows % 90001)
        assert cols.arrays((None, None, None))[0].dtype == np.int32
        s, p, o = 4242, 3, 4242 + 5000 * 9
        shapes = [(None, None, None), (s, None, None), (None, p, None),
                  (None, None, o), (s, p, None), (s, None, o),
                  (None, p, o), (s, p, o)]
        for shape in shapes:
            cols.count(shape)  # warm any lazy numpy state
        for shape in shapes:
            tracemalloc.start()
            try:
                cols.count(shape)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (shape, peak)

    def test_arrays_mask_dead_rows_in_place(self, columns, triples):
        """``arrays(pattern, dead)`` leaves out exactly the named
        stored triples and keeps the survivors' sorted order."""
        for pattern in all_patterns(triples):
            matches = rows(columns.arrays(pattern))
            dead = matches[::3]
            kept = rows(columns.arrays(pattern, id_arrays(dead)))
            assert kept == [m for m in matches if m not in set(dead)]


class TestEmptyAndHelpers:
    def test_empty_columns(self):
        empty = TripleColumns.build([])
        assert len(empty) == 0
        assert empty.count((None, None, None)) == 0
        assert rows(empty.arrays((1, 2, 3))) == []
        assert empty.n_subjects == 0

    def test_predicate_counts(self, columns, triples):
        for pid in {t[1] for t in triples}:
            rows = [t for t in triples if t[1] == pid]
            assert columns.predicate_counts(pid) == (
                len(rows), len({t[0] for t in rows}),
                len({t[2] for t in rows}))
        assert columns.predicate_counts(424242) == (0, 0, 0)

    def test_has_value_probes(self, columns, triples):
        some = next(iter(triples))
        assert columns.has_subject(some[0])
        assert columns.has_predicate(some[1])
        assert columns.has_object(some[2])
        assert not columns.has_subject(876543)

    def test_concat_arrays(self, columns):
        part = columns.arrays((None, 1, None))
        merged = concat_arrays([part, part])
        assert len(merged[0]) == 2 * len(part[0])
        single = concat_arrays([part])
        assert single[0] is part[0]
