"""Incremental graph statistics: the planner's O(1) summaries."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.rdf import Dataset, Graph, Literal, Namespace
from repro.rdf.dictionary import OVERLAY_BASE
from repro.rdf.stats import (
    HISTOGRAM_BUCKETS,
    MCV_SIZE,
    PredicateSummary,
    StatisticsView,
    build_predicate_summary,
)

from tests.rdf.reference_stats import reference_summary

EX = Namespace("http://example.org/")


def build_graph():
    g = Graph()
    for i in range(10):
        g.add(EX[f"obs{i}"], EX.value, Literal(i))
        g.add(EX[f"obs{i}"], EX.inGroup, EX[f"g{i % 3}"])
    return g


class TestIncrementalMaintenance:
    def test_cardinality_per_predicate(self):
        g = build_graph()
        stats = g.statistics()
        assert stats.predicate_cardinality(EX.value) == 10
        assert stats.predicate_cardinality(EX.inGroup) == 10
        assert stats.predicate_cardinality(EX.unknown) == 0

    def test_distinct_subject_and_object_counts(self):
        g = build_graph()
        stats = g.statistics()
        assert stats.predicate_subjects(EX.inGroup) == 10
        assert stats.predicate_objects(EX.inGroup) == 3
        assert stats.predicate_objects(EX.value) == 10

    def test_duplicate_add_does_not_double_count(self):
        g = build_graph()
        g.add(EX.obs0, EX.inGroup, EX.g0)  # already present
        assert g.statistics().predicate_cardinality(EX.inGroup) == 10

    def test_remove_updates_counters(self):
        g = build_graph()
        g.remove((EX.obs0, EX.inGroup, None))
        stats = g.statistics()
        assert stats.predicate_cardinality(EX.inGroup) == 9
        assert stats.predicate_subjects(EX.inGroup) == 9
        # g0 still referenced by obs3, obs6, obs9
        assert stats.predicate_objects(EX.inGroup) == 3

    def test_remove_last_occurrence_drops_distinct_object(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.x)
        g.add(EX.b, EX.p, EX.y)
        g.remove((EX.a, EX.p, EX.x))
        stats = g.statistics()
        assert stats.predicate_objects(EX.p) == 1
        assert stats.predicate_subjects(EX.p) == 1
        g.remove((None, EX.p, None))
        assert g.statistics().predicate_cardinality(EX.p) == 0

    def test_clear_resets(self):
        g = build_graph()
        g.clear()
        stats = g.statistics()
        assert stats.triple_count() == 0
        assert stats.predicate_cardinality(EX.value) == 0

    def test_copy_carries_statistics(self):
        g = build_graph()
        clone = g.copy()
        assert clone.statistics().predicate_cardinality(EX.value) == 10
        # and the clone's statistics evolve independently
        clone.remove((None, EX.value, None))
        assert clone.statistics().predicate_cardinality(EX.value) == 0
        assert g.statistics().predicate_cardinality(EX.value) == 10


class TestSelectivitySummaries:
    def test_fanout_and_fanin(self):
        g = build_graph()
        stats = g.statistics()
        assert stats.subject_fanout(EX.inGroup) == 1.0     # 10 / 10
        assert stats.object_fanin(EX.inGroup) == 10 / 3    # 10 / 3
        assert stats.object_fanin(EX.unknown) == 0.0

    def test_totals_from_index_sizes(self):
        g = build_graph()
        stats = g.statistics()
        assert stats.triple_count() == 20
        assert stats.subject_count() == 10
        assert stats.predicate_count() == 2


def build_skewed_graph():
    """60 triples on one hot object + 40 spread over 40 cold objects."""
    g = Graph()
    for i in range(60):
        g.add(EX[f"s{i}"], EX.p, EX.hot)
    for i in range(40):
        g.add(EX[f"s{i}"], EX.p, EX[f"cold{i}"])
    return g


class TestValueAwareSummaries:
    def test_mcv_estimates_hot_object_exactly(self):
        stats = build_skewed_graph().statistics()
        estimate, kind = stats.object_constant_estimate(EX.p, EX.hot)
        assert estimate == 60.0
        assert kind == "mcv"
        # the predicate-wide average would have hidden the skew
        assert stats.object_fanin(EX.p) < 3

    def test_histogram_estimates_cold_objects(self):
        stats = build_skewed_graph().statistics()
        estimate, kind = stats.object_constant_estimate(EX.p, EX.cold20)
        assert kind in ("mcv", "hist")  # cold20 may make the MCV cut
        assert 0 < estimate <= 3

    def test_subject_direction(self):
        g = Graph()
        for i in range(30):
            g.add(EX.hub, EX.p, EX[f"o{i}"])
        g.add(EX.leaf, EX.p, EX.o0)
        estimate, kind = g.statistics().subject_constant_estimate(
            EX.p, EX.hub)
        assert estimate == 30.0
        assert kind == "mcv"

    def test_unknown_term_estimates_zero(self):
        stats = build_skewed_graph().statistics()
        estimate, _ = stats.object_constant_estimate(EX.p, EX.never_seen)
        assert estimate == 0.0

    def test_unknown_predicate_estimates_zero(self):
        stats = build_skewed_graph().statistics()
        estimate, _ = stats.object_constant_estimate(EX.q, EX.hot)
        assert estimate == 0.0

    def test_small_predicates_stay_exact_via_mcv(self):
        g = build_graph()  # 3 distinct groups, all within MCV_SIZE
        assert 3 <= MCV_SIZE
        estimate, kind = g.statistics().object_constant_estimate(
            EX.inGroup, EX.g0)
        assert kind == "mcv"
        assert estimate == 4.0  # obs0, obs3, obs6, obs9


class TestSummaryEpochConsistency:
    def test_summary_cached_while_epoch_unchanged(self):
        g = build_skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        first = g.predicate_summary(pid)
        assert g.predicate_summary(pid) is first

    def test_remove_invalidates_and_rebuilds(self):
        g = build_skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        stale = g.predicate_summary(pid)
        g.remove((None, EX.p, EX.hot))
        rebuilt = g.predicate_summary(pid)
        assert rebuilt is not stale
        assert rebuilt.epoch == g.epoch
        estimate, _ = g.statistics().object_constant_estimate(EX.p, EX.hot)
        assert estimate <= 2  # the 60-row spike is gone

    def test_unrelated_mutation_revalidates_in_place(self):
        # a write touching a *different* predicate must not force an
        # O(cardinality) rebuild of this predicate's summary
        g = build_skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        summary = g.predicate_summary(pid)
        g.add(EX.a, EX.other, EX.b)
        revalidated = g.predicate_summary(pid)
        assert revalidated is summary  # restamped, not rebuilt
        assert revalidated.epoch == g.epoch

    def test_absent_id_outside_histogram_range_is_zero(self):
        # graphs share one dictionary: an id interned for another
        # graph's data must not be charged a phantom bucket here
        g = build_skewed_graph()
        late = Graph(dictionary=g.dictionary)
        late.add(EX.x, EX.p, EX.only_elsewhere)  # interns a high id
        estimate, _ = g.statistics().object_constant_estimate(
            EX.p, EX.only_elsewhere)
        assert estimate == 0.0

    def test_clear_drops_summaries(self):
        g = build_skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        g.predicate_summary(pid)
        g.clear()
        assert g.stats.summaries == {}
        estimate, _ = g.statistics().object_constant_estimate(EX.p, EX.hot)
        assert estimate == 0.0

    def test_build_is_deterministic(self):
        g = build_skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        a = build_predicate_summary(g, pid)
        b = build_predicate_summary(g, pid)
        assert a.object_mcv == b.object_mcv
        assert a.subject_mcv == b.subject_mcv
        assert isinstance(a, PredicateSummary)


class TestAggregatedViews:
    def test_union_view_sums_member_graphs(self):
        ds = Dataset()
        ds.default.add(EX.a, EX.p, EX.x)
        ds.graph(EX.g1).add(EX.b, EX.p, EX.y)
        stats = ds.union().statistics()
        assert stats.predicate_cardinality(EX.p) == 2
        assert stats.triple_count() == 2

    def test_every_plannable_view_has_statistics(self):
        g = build_graph()
        ds = Dataset()
        for view in (g, g.snapshot(), ds.union()):
            assert isinstance(view.statistics(), StatisticsView)

    def test_union_view_sums_constant_estimates(self):
        ds = Dataset()
        for i in range(20):
            ds.default.add(EX[f"a{i}"], EX.p, EX.hot)
        for i in range(15):
            ds.graph(EX.g1).add(EX[f"b{i}"], EX.p, EX.hot)
        estimate, kind = ds.union().statistics().object_constant_estimate(
            EX.p, EX.hot)
        assert estimate == 35.0
        assert kind == "mcv"

    def test_union_aggregation_tracks_member_epochs(self):
        ds = Dataset()
        for i in range(20):
            ds.default.add(EX[f"a{i}"], EX.p, EX.hot)
        for i in range(15):
            ds.graph(EX.g1).add(EX[f"b{i}"], EX.p, EX.hot)
        view = ds.union().statistics()
        view.object_constant_estimate(EX.p, EX.hot)  # prime both summaries
        # mutate one member graph only: its epoch moves, its summary
        # rebuilds, and the aggregate reflects the change immediately
        ds.graph(EX.g1).remove((None, EX.p, EX.hot))
        estimate, _ = view.object_constant_estimate(EX.p, EX.hot)
        assert estimate == 20.0


def summary_fields(summary):
    """Every field of a summary, histograms as their four fields."""
    def histogram(h):
        return None if h is None else (h.low, h.bounds, h.rows, h.distinct)
    return (summary.epoch, summary.cardinality, summary.distinct_subjects,
            summary.distinct_objects, summary.subject_mcv,
            summary.object_mcv, histogram(summary.subject_histogram),
            histogram(summary.object_histogram))


def pairs_of(subjects, objects):
    """Subject and object id lists as one predicate's ``(s, o)`` pairs."""
    return list(zip(subjects, objects, strict=True))


def tallied(counts, start=0):
    """Ids ``start, start + 1, ...`` occurring ``counts[i]`` times each."""
    return [start + at for at, count in enumerate(counts)
            for _ in range(count)]


#: ids the base dictionary hands out next to query-local overlay ids
ids = st.one_of(st.integers(0, 40),
                st.integers(OVERLAY_BASE, OVERLAY_BASE + 8))


class TestArrayBuildMatchesTheOracle:
    """``build_predicate_summary`` (one ``np.unique``, a stable sort,
    one ``searchsorted`` a bucket) answers the summary the dict-and-sort
    builder of ``tests/rdf/reference_stats.py`` answers, field for
    field — so no estimate and no plan moves."""

    @staticmethod
    def both(pairs):
        subjects = np.array([s for s, _ in pairs], dtype=np.int64)
        objects = np.array([o for _, o in pairs], dtype=np.int64)
        graph = SimpleNamespace(
            epoch=7, match_arrays=lambda pattern: (
                subjects, np.full(len(pairs), pattern[1]), objects))
        return (build_predicate_summary(graph, 3),
                reference_summary(graph, 3))

    @given(pairs=st.lists(st.tuples(ids, ids), max_size=300))
    @settings(max_examples=300)
    @example(pairs=[])  # empty
    @example(pairs=pairs_of([3, 3, 5, 7], [1, 1, 1, 2]))  # complete MCV
    @example(pairs=pairs_of(tallied([2] + [1] * MCV_SIZE),
                            tallied([1] * MCV_SIZE + [2])))  # MCV_SIZE + 1
    @example(pairs=pairs_of(tallied([2] * 30), tallied([1] * 60)))  # tied
    @example(pairs=pairs_of([5] * 60 + list(range(10, 50)),
                            tallied([1] * 100)))  # one hot key
    @example(pairs=pairs_of(  # fewer rest ids than buckets
        tallied([4] * MCV_SIZE + [1, 2, 1, 3, 1]),
        tallied([1] * (4 * MCV_SIZE + 8))))
    @example(pairs=pairs_of(  # 37 rest rows over 16 buckets: 2.3125 deep
        tallied([9] * MCV_SIZE + [3] * 5 + [2] * 11),
        tallied([1] * (9 * MCV_SIZE + 37))))
    @example(pairs=pairs_of(  # overlay-range ids beside base ids
        tallied([3] * 12) + tallied([2] * 12, OVERLAY_BASE),
        tallied([1] * 60, OVERLAY_BASE - 30)))
    def test_every_field_matches(self, pairs):
        new, old = self.both(pairs)
        assert summary_fields(new) == summary_fields(old)
        for histogram in (new.subject_histogram, new.object_histogram):
            if histogram is not None:
                assert all(type(value) is int for value in [
                    histogram.low, *histogram.bounds, *histogram.rows,
                    *histogram.distinct])

    def test_the_pinned_cases_reach_their_shapes(self):
        """Each ``@example`` above is the case its comment names."""
        new, _ = self.both(pairs_of(tallied([2] * 30), tallied([1] * 60)))
        assert sorted(new.subject_mcv) == list(range(MCV_SIZE))  # ids win
        assert sorted(new.object_mcv) == list(range(MCV_SIZE))
        new, _ = self.both(pairs_of(
            tallied([4] * MCV_SIZE + [1, 2, 1, 3, 1]),
            tallied([1] * (4 * MCV_SIZE + 8))))
        assert 1 < len(new.subject_histogram) < HISTOGRAM_BUCKETS
        new, _ = self.both(pairs_of(
            tallied([9] * MCV_SIZE + [3] * 5 + [2] * 11),
            tallied([1] * (9 * MCV_SIZE + 37))))
        assert sum(new.subject_histogram.rows) == 37
        assert new.subject_histogram.rows[-1] < 37 / HISTOGRAM_BUCKETS
        new, _ = self.both(pairs_of(
            tallied([3] * 12) + tallied([2] * 12, OVERLAY_BASE),
            tallied([1] * 60, OVERLAY_BASE - 30)))
        assert new.subject_histogram.bounds[-1] >= OVERLAY_BASE

    @given(stored=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 2),
                                     st.integers(0, 12)),
                           min_size=1, max_size=120),
           gone=st.lists(st.integers(0, 12), min_size=1, max_size=4),
           added=st.lists(st.tuples(st.integers(20, 50), st.integers(0, 2),
                                    st.integers(5, 20)),
                          min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_a_graph_with_tombstones_and_overlay_triples(
            self, stored, gone, added):
        graph = Graph()
        graph.add_all((EX[f"s{s}"], EX[f"p{p}"], EX[f"o{o}"])
                      for s, p, o in stored)
        graph.compact()
        for o in gone:
            graph.remove((None, None, EX[f"o{o}"]))
        graph.add_all((EX[f"s{s}"], EX[f"p{p}"], EX[f"o{o}"])
                      for s, p, o in added)
        for pid in graph.stats.cardinality:
            assert summary_fields(build_predicate_summary(graph, pid)) \
                == summary_fields(reference_summary(graph, pid))

    def test_the_graph_case_reaches_every_tier(self):
        graph = Graph()
        graph.add_all((EX[f"s{i}"], EX.p, EX[f"o{i % 13}"])
                      for i in range(60))
        graph.compact()
        graph.remove((None, EX.p, EX.o0))
        graph.add_all((EX[f"t{i}"], EX.p, EX[f"o{i % 5}"]) for i in range(9))
        column_rows, overlay, tombstones = graph.tier_sizes()
        assert column_rows and overlay and tombstones
        pid = graph.dictionary.lookup(EX.p)
        assert summary_fields(build_predicate_summary(graph, pid)) \
            == summary_fields(reference_summary(graph, pid))
