"""The batch write path against the per-triple loop it replaced
(``reference_add_all.reference_add_all``, the oracle).

Three identically built worlds — a dataset, the graph under test in
whatever physical state the example drew, and a sibling graph — take
the same batch through ``Graph.add_all``, through the oracle and
through ``Graph.bulk_load_ids``, with the write threshold patched so
that both placements of a batch (fold into the columns, land in the
overlay) run.  They must agree on

* the content (``match_arrays``, ``len``) and its one sorted form
  (``folded_columns()``: all three orders byte for byte, dtype
  included);
* the per-predicate statistics;

and each on its own must move ``epoch`` / raise the dataset's dirty
flag exactly when the batch held something new, leave a snapshot pinned
before the batch alone, and — when an element is malformed or the
``graph.add_all.step`` failpoint fires — change nothing at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rdf.graph as graph_module
from repro.rdf import BNode, CONCURRENCY, Dataset, IRI, Literal, Triple
from repro.rdf.errors import TermError
from repro.testing import faults

from tests.rdf.reference_add_all import reference_add_all
from tests.rdf.rows import id_rows

EX = "http://example.org/"
SUBJECTS = [IRI(f"{EX}s{index}") for index in range(5)] + [BNode("b0")]
PREDICATES = [IRI(f"{EX}p{index}") for index in range(3)]
OBJECTS = SUBJECTS[:3] + [Literal(1), Literal("one"), Literal(1.5)]
SIBLING = IRI(f"{EX}sibling")

triples = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
                    st.sampled_from(OBJECTS))
#: an element of a batch: the validated named tuple or a plain 3-tuple
elements = st.one_of(triples, triples.map(lambda spo: Triple(*spo)))
STATES = ["empty", "columns", "overlay", "mixed", "pinned"]


class World:
    """A dataset, its default graph brought to ``state`` out of
    ``stored`` (single adds, so every world interns the same terms in
    the same order), and a sibling graph holding ``beside``.

    ``columns`` / ``overlay`` hold everything in that tier; ``mixed``
    is half and half with tombstones over some compacted triples;
    ``pinned`` is half and half with a snapshot sharing the overlay."""

    def __init__(self, state, stored, beside):
        self.dataset = Dataset()
        self.graph = graph = self.dataset.default
        if state == "empty":
            stored = []
        compacted = {"columns": len(stored),
                     "overlay": 0}.get(state, len(stored) // 2)
        for triple in stored[:compacted]:
            graph.add(triple)
        graph.compact()
        for triple in stored[compacted:]:
            graph.add(triple)
        if state == "mixed":
            for triple in stored[:compacted:2]:
                graph.remove(triple)  # compacted: leaves a tombstone
        for triple in beside:
            self.dataset.graph(SIBLING).add(triple)
        self.pinned = graph.snapshot() if state == "pinned" else None
        self.dataset.snapshot()  # publish: the dirty flag starts down

    def observed(self):
        """What a failed or empty batch must leave exactly as it was."""
        graph = self.graph
        return (set(id_rows(graph)), len(graph), graph.epoch,
                graph.tier_sizes(), statistics(graph), self.dataset._dirty)


def statistics(graph):
    stats = graph.stats
    return dict(stats.cardinality), dict(stats.subjects), dict(stats.objects)


def generation(graph):
    """``folded_columns()`` as comparable bytes: per order and column,
    dtype and content."""
    orders, ceiling, distinct = graph.folded_columns().sorted_generation()
    return ({name: [(column.dtype.str, column.tobytes())
                    for column in columns]
             for name, columns in orders.items()}, ceiling, distinct)


def agree(left: World, right: World) -> None:
    assert set(id_rows(left.graph)) == set(id_rows(right.graph))
    assert len(left.graph) == len(right.graph)
    assert generation(left.graph) == generation(right.graph)
    assert statistics(left.graph) == statistics(right.graph)


@pytest.fixture
def threshold(monkeypatch):
    def patch(value):
        monkeypatch.setattr(graph_module, "COMPACT_WRITE_THRESHOLD", value)
    return patch


class TestAgainstThePerTripleLoop:
    @settings(max_examples=400, deadline=None)
    @given(state=st.sampled_from(STATES),
           stored=st.lists(triples, max_size=14),
           beside=st.lists(triples, max_size=3),
           batch=st.lists(elements, max_size=14),
           write_threshold=st.sampled_from([1, 6, 65536]),
           lazily=st.booleans())
    def test_same_graph_either_way(self, state, stored, beside, batch,
                                   write_threshold, lazily):
        worlds = [World(state, stored, beside) for _ in range(3)]
        batched, oracle, bulk = worlds
        before = [world.observed() for world in worlds]
        frozen = batched.pinned and (set(id_rows(batched.pinned)),
                                     len(batched.pinned),
                                     generation(batched.pinned))
        compactions = CONCURRENCY.compactions
        previous = graph_module.COMPACT_WRITE_THRESHOLD
        graph_module.COMPACT_WRITE_THRESHOLD = write_threshold
        try:
            batched.graph.add_all(iter(batch) if lazily else batch)
            compactions = CONCURRENCY.compactions - compactions
            reference_add_all(oracle.graph, batch)
            encode = bulk.graph.dictionary.encode
            ids = [[encode(term) for term in triple] for triple in batch]
            bulk.graph.bulk_load_ids(*np.asarray(ids, dtype=np.int64)
                                     .reshape(-1, 3).T)
        finally:
            graph_module.COMPACT_WRITE_THRESHOLD = previous
        agree(batched, oracle)
        agree(bulk, oracle)
        grew = len(oracle.graph) != before[1][1]
        for world, was in zip(worlds, before):
            assert (world.graph.epoch != was[2]) == grew
            assert world.dataset._dirty == grew
        if not grew:
            assert batched.observed() == before[0]
            assert bulk.observed() == before[2]
            assert compactions == 0
        if frozen:
            pinned = batched.pinned
            assert (set(id_rows(pinned)), len(pinned),
                    generation(pinned)) == frozen

    @settings(max_examples=60, deadline=None)
    @given(stored=st.lists(triples, min_size=1, max_size=10),
           state=st.sampled_from(STATES[1:]))
    def test_adding_a_graph_to_itself_changes_nothing(self, stored, state):
        world = World(state, stored, [])
        before = world.observed()
        world.graph.add_all(world.graph)
        assert world.observed() == before
        world.graph += world.graph
        assert world.observed() == before


class TestPlacement:
    def test_a_batch_past_the_threshold_never_enters_the_overlay(
            self, threshold):
        threshold(4)
        world = World("empty", [], [])
        world.graph.add_all((SUBJECTS[i], PREDICATES[0], OBJECTS[i])
                            for i in range(4))
        assert world.graph.tier_sizes() == (4, 0, 0)
        assert world.graph.epoch == 1

    def test_a_batch_under_the_threshold_stays_in_the_overlay(
            self, threshold):
        threshold(4)
        world = World("empty", [], [])
        world.graph.add_all((SUBJECTS[i], PREDICATES[0], OBJECTS[i])
                            for i in range(3))
        assert world.graph.tier_sizes() == (0, 3, 0)
        assert world.graph.epoch == 1

    def test_the_rule_scales_with_the_column_tier(self, threshold):
        threshold(2)
        stored = [(s, p, OBJECTS[0]) for s in SUBJECTS for p in PREDICATES]
        world = World("columns", stored, [])
        assert world.graph.tier_sizes() == (18, 0, 0)
        world.graph.add_all((SUBJECTS[i], PREDICATES[0], OBJECTS[1])
                            for i in range(5))  # under 18 >> 1
        assert world.graph.tier_sizes() == (18, 5, 0)
        world.graph.add_all((SUBJECTS[i], PREDICATES[1], OBJECTS[1])
                            for i in range(4))  # 5 + 4 reaches it
        assert world.graph.tier_sizes() == (27, 0, 0)

    def test_a_snapshot_rejects_the_id_level_entry_too(self):
        world = World("pinned", GOOD[:4], [])
        before = set(id_rows(world.pinned))
        with pytest.raises(TermError):
            world.pinned.bulk_load_ids([0], [1], [2])
        assert set(id_rows(world.pinned)) == before


GOOD = [(SUBJECTS[i % 5], PREDICATES[i % 3], OBJECTS[i % 6])
        for i in range(12)]


class TestAllOrNothing:
    """A batch that cannot go in whole goes in not at all — whichever
    placement it would have taken."""

    @pytest.mark.parametrize("write_threshold", [1, 65536])
    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("bad", [
        (SUBJECTS[0], PREDICATES[0], "not a term"),
        (Literal("a literal subject"), PREDICATES[0], OBJECTS[0]),
        (SUBJECTS[0], BNode("p"), OBJECTS[0]),
        (SUBJECTS[0], PREDICATES[0]),
        "spo"])
    def test_a_malformed_element(self, threshold, state, write_threshold,
                                 bad):
        world = World(state, GOOD[:6], [GOOD[7]])
        before = world.observed()
        threshold(write_threshold)
        with pytest.raises(TermError):
            world.graph.add_all(GOOD[4:10] + [bad] + GOOD[10:])
        assert world.observed() == before

    @pytest.mark.parametrize("write_threshold", [1, 65536])
    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("element", [0, 5, 7])
    def test_the_failpoint_at_element_k(self, threshold, state,
                                        write_threshold, element):
        world = World(state, GOOD[:6], [GOOD[7]])
        before = world.observed()
        threshold(write_threshold)
        with faults.failpoint("graph.add_all.step", raises=True,
                              skip_first=element):
            with pytest.raises(faults.FaultInjected):
                world.graph.add_all(GOOD[4:])
        assert world.observed() == before
        world.graph.add_all(GOOD[4:])  # and the graph is still usable
        assert len(world.graph) > before[1]
