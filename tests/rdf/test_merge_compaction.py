"""The incremental ``TripleColumns.merged`` against the rebuild it
replaced (``reference_merged.reference_merged``, the oracle).

A fold must build exactly the generation ``TripleColumns(s, p, o)`` of
the same content builds: all nine order arrays byte for byte, their
dtype, ``size``, ``_ceiling`` and the three distinct counts — whatever
the delta and the tombstones are, and without touching the generation
it folds from (a pinned snapshot still reads it).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, IRI
from repro.rdf.columnar import TripleColumns

from tests.rdf.reference_merged import id_arrays, reference_merged
from tests.rdf.rows import id_rows, rows

#: ids at and beyond the int32 ceiling need the wide dtype
WIDE = int(np.iinfo(np.int32).max)

ids = st.integers(0, 6)
triples = st.tuples(ids, ids, ids)


def generation(columns):
    """A generation as comparable bytes: per order and column, dtype
    and content, then the metadata."""
    orders, ceiling, distinct = columns.sorted_generation()
    return ({name: [(column.dtype.str, column.tobytes())
                    for column in order]
             for name, order in orders.items()},
            columns.size, ceiling, distinct)


def assert_same_fold(stored, delta, dead):
    base = TripleColumns.build(stored)
    before = generation(base)
    delta, dead = id_arrays(delta), id_arrays(dead)
    merged = base.merged(delta, dead)
    assert generation(merged) == generation(
        reference_merged(base, delta, dead))
    assert generation(base) == before  # the receiver is left alone
    return merged


class TestAgainstTheRebuild:
    @settings(max_examples=600, deadline=None)
    @given(stored=st.sets(triples, max_size=30),
           added=st.sets(triples, max_size=12),
           removed=st.sets(triples, max_size=12),
           shuffle=st.randoms(use_true_random=False))
    def test_same_generation_either_way(self, stored, added, removed,
                                        shuffle):
        # as the graph hands them over: the delta holds no stored
        # triple, the tombstones mostly do (one that does not is
        # ignored), and neither arrives in any particular order
        delta = sorted(added - stored)
        dead = sorted(removed)
        shuffle.shuffle(delta)
        shuffle.shuffle(dead)
        merged = assert_same_fold(stored, delta, dead)
        assert set(rows(merged.arrays((None, None, None)))) \
            == (stored - removed) | set(delta)

    @settings(max_examples=200, deadline=None)
    @given(stored=st.sets(st.tuples(st.sampled_from([0, 3, WIDE - 1, WIDE,
                                                     WIDE + 5]),
                                    ids, ids), max_size=12),
           added=st.sets(st.tuples(ids, ids, st.sampled_from(
               [1, WIDE - 1, WIDE, 1 << 40])), max_size=6),
           kept=st.integers(0, 3))
    def test_dtype_follows_the_content(self, stored, added, kept):
        dead = sorted(stored)[kept:]
        assert_same_fold(stored, sorted(added - stored), dead)


class TestPinnedCases:
    STORED = [(2, 1, 5), (2, 1, 7), (2, 3, 5), (4, 1, 5), (4, 1, 6),
              (6, 3, 9)]

    def test_empty_base(self):
        merged = assert_same_fold([], [(3, 1, 2), (1, 1, 2)], [])
        assert rows(merged.arrays((None, None, None))) \
            == [(1, 1, 2), (3, 1, 2)]

    def test_empty_base_and_nothing_to_fold(self):
        merged = assert_same_fold([], [], [(1, 1, 1)])
        assert merged.size == 0 and merged._ceiling == -1

    def test_delta_only(self):
        merged = assert_same_fold(self.STORED, [(3, 1, 5), (5, 2, 2)], [])
        assert merged.size == len(self.STORED) + 2

    def test_tombstones_only(self):
        merged = assert_same_fold(self.STORED, [], self.STORED[1:4])
        assert merged.size == len(self.STORED) - 3

    def test_every_row_dead(self):
        merged = assert_same_fold(self.STORED, [], self.STORED)
        assert merged.size == 0 and merged._ceiling == -1
        assert merged.arrays((None, None, None))[0].dtype == np.int32

    def test_every_row_dead_but_the_delta(self):
        merged = assert_same_fold(self.STORED, [(1, 1, 1)], self.STORED)
        assert rows(merged.arrays((None, None, None))) == [(1, 1, 1)]

    def test_delta_before_the_first_row(self):
        merged = assert_same_fold(self.STORED, [(0, 0, 0), (1, 9, 9)], [])
        assert rows(merged.arrays((None, None, None)))[0] == (0, 0, 0)

    def test_delta_after_the_last_row(self):
        merged = assert_same_fold(self.STORED, [(9, 9, 9), (6, 3, 10)], [])
        assert rows(merged.arrays((None, None, None)))[-1] == (9, 9, 9)

    def test_delta_inside_a_run(self):
        # between two rows that share subject and predicate, and next
        # to a dead row of the same run
        merged = assert_same_fold(self.STORED, [(2, 1, 6), (4, 1, 4)],
                                  [(2, 1, 7)])
        assert rows(merged.arrays((2, 1, None))) == [(2, 1, 5), (2, 1, 6)]

    def test_a_delta_id_past_the_int32_ceiling_widens(self):
        merged = assert_same_fold(self.STORED, [(2, 1, WIDE)], [])
        assert merged.arrays((None, None, None))[0].dtype == np.int64
        assert merged._ceiling == WIDE

    def test_folding_away_the_only_wide_id_narrows(self):
        stored = self.STORED + [(2, 1, 1 << 40)]
        assert TripleColumns.build(stored).arrays(
            (None, None, None))[0].dtype == np.int64
        merged = assert_same_fold(stored, [(5, 5, 5)], [(2, 1, 1 << 40)])
        assert merged.arrays((None, None, None))[0].dtype == np.int32
        assert merged._ceiling == 9

    def test_a_wide_generation_stays_wide_under_a_narrow_delta(self):
        stored = self.STORED + [(2, 1, 1 << 40)]
        merged = assert_same_fold(stored, [(5, 5, 5)], [(2, 1, 5)])
        assert merged.arrays((None, None, None))[0].dtype == np.int64

    def test_a_tombstone_named_twice_counts_once(self):
        merged = assert_same_fold(self.STORED, [],
                                  [self.STORED[0], self.STORED[0]])
        assert merged.size == len(self.STORED) - 1


class TestThroughTheGraph:
    @pytest.fixture
    def graph(self):
        graph = Graph()
        for index in range(40):
            graph.add(IRI(f"http://e/s{index % 10}"),
                      IRI(f"http://e/p{index % 3}"),
                      IRI(f"http://e/o{index}"))
        return graph.compact()

    def test_a_pinned_snapshot_still_reads_its_generation(self, graph):
        pinned = graph.snapshot()
        before = (id_rows(pinned),
                  generation(pinned.folded_columns()))
        graph.remove((IRI("http://e/s3"), None, None))
        graph.add(IRI("http://e/s3"), IRI("http://e/p9"), IRI("http://e/o1"))
        assert graph.tier_sizes() == (40, 1, 4)
        graph.compact()
        assert graph.tier_sizes() == (37, 0, 0)
        assert (id_rows(pinned),
                generation(pinned.folded_columns())) == before
        assert pinned.tier_sizes() == (40, 0, 0)

    def test_folded_columns_is_the_installed_fold(self, graph):
        graph.remove((None, IRI("http://e/p1"), None))
        graph.add(IRI("http://e/new"), IRI("http://e/p1"), IRI("http://e/o0"))
        folded = generation(graph.folded_columns())
        content = set(id_rows(graph))
        graph.compact()
        assert generation(graph.folded_columns()) == folded
        assert set(id_rows(graph)) == content
        assert generation(TripleColumns.build(content)) == folded
