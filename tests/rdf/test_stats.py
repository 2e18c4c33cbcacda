"""Incremental graph statistics: the planner's O(1) counters and its
exact pattern counts."""

from repro.rdf import Dataset, Graph, Literal, Namespace
from repro.rdf.stats import StatisticsView
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.optimizer import _compile_cost

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
        # a bound subject divides the scan by the distinct subjects (the
        # fan-out is 10 / 10), a bound object by the distinct objects
        # (the fan-in is 10 / 3)
        stats = build_graph().statistics()
        cost = _compile_cost(
            TriplePatternNode(Var("s"), EX.inGroup, Var("o")), stats)
        assert (cost.base, cost.s_sel, cost.o_sel) == (10.0, 1 / 10, 1 / 3)
        cost = _compile_cost(
            TriplePatternNode(Var("s"), EX.unknown, Var("o")), stats)
        assert (cost.base, cost.s_sel, cost.o_sel) == (0.0, 1.0, 1.0)

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


class TestExactConstantCounts:
    """``StatisticsView.count``: what the planner prices a pattern's
    constants with, in every storage tier."""

    def test_hot_object_is_counted_exactly(self):
        stats = build_skewed_graph().statistics()
        assert stats.count((None, EX.p, EX.hot)) == 60
        # the predicate-wide average fan-in is blind to the skew
        assert stats.predicate_cardinality(EX.p) \
            / stats.predicate_objects(EX.p) < 3

    def test_cold_object_is_counted_exactly(self):
        stats = build_skewed_graph().statistics()
        assert stats.count((None, EX.p, EX.cold20)) == 1

    def test_subject_direction(self):
        g = Graph()
        for i in range(30):
            g.add(EX.hub, EX.p, EX[f"o{i}"])
        g.add(EX.leaf, EX.p, EX.o0)
        stats = g.statistics()
        assert stats.count((EX.hub, EX.p, None)) == 30
        assert stats.count((EX.leaf, EX.p, None)) == 1

    def test_unknown_term_counts_zero(self):
        stats = build_skewed_graph().statistics()
        assert stats.count((None, EX.p, EX.never_seen)) == 0

    def test_unknown_predicate_counts_zero(self):
        stats = build_skewed_graph().statistics()
        assert stats.count((None, EX.q, EX.hot)) == 0

    def test_term_interned_by_another_graph_counts_zero(self):
        # graphs share one dictionary: a term interned for another
        # graph's data resolves to an id here, and matches nothing
        g = build_skewed_graph()
        late = Graph(dictionary=g.dictionary)
        late.add(EX.x, EX.p, EX.only_elsewhere)
        assert g.statistics().count((None, EX.p, EX.only_elsewhere)) == 0

    def test_both_constants_under_a_variable_predicate(self):
        g = build_graph()
        g.add(EX.obs1, EX.other, EX.g1)
        stats = g.statistics()
        assert stats.count((EX.obs1, None, EX.g1)) == 2
        assert stats.count((EX.obs1, EX.inGroup, EX.g1)) == 1
        assert stats.count((EX.obs1, EX.inGroup, EX.g2)) == 0

    def test_wildcard_pattern_counts_every_triple(self):
        stats = build_graph().statistics()
        assert stats.count((None, None, None)) == stats.triple_count() == 20

    def test_count_follows_a_remove_of_compacted_triples(self):
        g = build_skewed_graph()
        g.compact()
        g.remove((EX.s0, EX.p, EX.hot))  # a pending tombstone
        assert g.tier_sizes()[2] == 1
        assert g.statistics().count((None, EX.p, EX.hot)) == 59
        g.remove((None, EX.p, EX.hot))
        assert g.statistics().count((None, EX.p, EX.hot)) == 0

    def test_count_follows_an_add_to_the_overlay(self):
        g = build_skewed_graph()
        g.compact()
        g.add(EX.late, EX.p, EX.hot)
        assert g.tier_sizes()[1] == 1
        assert g.statistics().count((None, EX.p, EX.hot)) == 61

    def test_clear_counts_zero(self):
        g = build_skewed_graph()
        g.clear()
        assert g.statistics().count((None, EX.p, EX.hot)) == 0

    def test_snapshot_counts_its_frozen_state(self):
        g = build_skewed_graph()
        snap = g.snapshot()
        g.remove((None, EX.p, EX.hot))
        assert snap.statistics().count((None, EX.p, EX.hot)) == 60
        assert g.statistics().count((None, EX.p, EX.hot)) == 0


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
        ds.graph(EX.g1).add(EX.a0, EX.p, EX.hot)  # held by both graphs
        stats = ds.union().statistics()
        assert stats.count((None, EX.p, EX.hot)) == 36  # a0 counted twice
        assert stats.count((EX.a0, EX.p, None)) == 2
        assert stats.count((None, EX.p, EX.never_seen)) == 0
        assert stats.count((None, EX.q, EX.hot)) == 0

    def test_union_aggregation_tracks_member_epochs(self):
        ds = Dataset()
        for i in range(20):
            ds.default.add(EX[f"a{i}"], EX.p, EX.hot)
        for i in range(15):
            ds.graph(EX.g1).add(EX[f"b{i}"], EX.p, EX.hot)
        view = ds.union().statistics()
        assert view.count((None, EX.p, EX.hot)) == 35
        # mutate one member graph only: the view reads the live
        # graphs, so the count reflects the change immediately
        ds.graph(EX.g1).remove((None, EX.p, EX.hot))
        assert view.count((None, EX.p, EX.hot)) == 20
