"""The fourth column order, PSO: a predicate's whole range in subject
order (then object).

A ``(?, p, ?)`` read is the one shape PSO answers, and the join step's
append relies on its order (``JoinSteps._aligned``): two arms of one
observation star read the same subjects in the same order.  Checked
here against a lexsort of the predicate's triples after a build, after
a merge with delta and dead rows, and on a pinned snapshot; the
overlay tier's ``(?, p, ?)`` / ``(?, p, o)`` reads come out in the
same order.  ``predicate_counts`` counts subjects in PSO and objects
in POS, where each is sorted.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Graph
from repro.rdf import graph as graph_module
from repro.rdf.columnar import TripleColumns

from tests.rdf.reference_merged import id_arrays
from tests.rdf.rows import rows

ids = st.integers(0, 9)
triples = st.tuples(ids, st.integers(0, 3), ids)
EX = "http://example.org/"


def subject_ordered(triples, predicate):
    """``predicate``'s triples, lexsorted by ``(s, o)``."""
    return sorted((s, p, o) for s, p, o in set(triples) if p == predicate)


def assert_pso(columns, triples):
    orders = columns.sorted_generation()[0]
    assert orders["pso"][1] is orders["pos"][1]  # one shared P column
    for predicate in range(5):
        assert rows(columns.arrays((None, predicate, None))) \
            == subject_ordered(triples, predicate)
        cardinality, subjects, objects = columns.predicate_counts(predicate)
        held = subject_ordered(triples, predicate)
        assert (cardinality, subjects, objects) == (
            len(held), len({s for s, _, _ in held}),
            len({o for _, _, o in held}))


class TestColumnOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(triples, max_size=40, unique=True))
    def test_a_build_holds_each_range_in_subject_order(self, stored):
        assert_pso(TripleColumns.build(stored), stored)

    @settings(max_examples=300, deadline=None)
    @given(stored=st.sets(triples, max_size=30),
           added=st.sets(triples, max_size=12),
           removed=st.sets(triples, max_size=12))
    def test_a_merge_with_delta_and_dead_rows_keeps_it(self, stored, added,
                                                       removed):
        dead = sorted(removed & stored)
        delta = sorted(added - stored)
        merged = TripleColumns.build(sorted(stored)).merged(
            id_arrays(delta), id_arrays(dead))
        assert_pso(merged, (stored - set(dead)) | set(delta))

    def test_a_merge_that_narrows_the_dtype_shares_p_again(self):
        wide = int(np.iinfo(np.int32).max) + 5
        base = TripleColumns.build([(0, 1, 2), (3, 1, wide)])
        merged = base.merged(id_arrays([]), id_arrays([(3, 1, wide)]))
        assert merged.sorted_generation()[0]["pso"][0].dtype == np.int32
        assert_pso(merged, [(0, 1, 2)])

    def test_predicate_counts_count_objects_out_of_range_order(self):
        """In PSO the predicate's objects read 5, 3, 5: three runs, two
        distinct objects — a run count there would answer 3."""
        columns = TripleColumns.build([(0, 1, 5), (1, 1, 3), (2, 1, 5),
                                       (2, 2, 9)])
        assert columns.arrays((None, 1, None))[2].tolist() == [5, 3, 5]
        assert columns.predicate_counts(1) == (3, 3, 2)
        assert columns.predicate_counts(2) == (1, 1, 1)


def node(index):
    return IRI(f"{EX}n{index}")


def predicate(index):
    return IRI(f"{EX}p{index}")


def ordered(graph, pattern):
    """``(S, O)`` of a read, as lists, and whether the read is sorted
    by ``(s, o)`` — the order checked."""
    s, _p, o = graph.match_arrays(pattern)
    pairs = list(zip(s.tolist(), o.tolist()))
    return pairs, pairs == sorted(pairs)


class TestGraphTiers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ids, st.integers(0, 2), ids), min_size=1,
                    max_size=30))
    def test_overlay_reads_come_subject_ordered(self, added):
        graph = Graph()
        for s, p, o in added:  # no compaction: all overlay
            graph.add(node(s), predicate(p), node(o))
        assert graph.tier_sizes()[0] == 0
        lookup = graph.dictionary.lookup
        for p in {p for _, p, _ in added}:
            pid = lookup(predicate(p))
            pairs, in_order = ordered(graph, (None, pid, None))
            assert in_order and len(pairs) == len(
                {(s, o) for s, q, o in added if q == p})
            for o in {o for _, q, o in added if q == p}:
                pairs, in_order = ordered(graph, (None, pid, lookup(node(o))))
                assert in_order and pairs

    def test_a_pinned_snapshot_keeps_its_order(self, monkeypatch):
        monkeypatch.setattr(graph_module, "COMPACT_PUBLISH_THRESHOLD", 1)
        graph = Graph()
        for index in range(12):
            graph.add(node((index * 5) % 12), predicate(0), node(11 - index))
        graph.compact()
        pinned = graph.snapshot()
        pid = graph.dictionary.lookup(predicate(0))
        before, in_order = ordered(pinned, (None, pid, None))
        assert in_order and len(before) == 12
        # writes past the pin, folded into a new generation: the pinned
        # one reads as it did
        for index in range(12, 20):
            graph.add(node(index % 7), predicate(0), node(index))
        graph.remove((node(0), None, None))
        graph.compact()
        assert ordered(pinned, (None, pid, None)) == (before, True)
        after, in_order = ordered(graph, (None, pid, None))
        assert in_order and after != before
