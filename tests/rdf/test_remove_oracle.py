"""``Graph.remove`` against the per-victim loop it replaced
(``reference_remove.reference_remove``, the oracle).

Two identically built worlds — a dataset, its default graph and a
sibling graph — take the same random interleaving of single adds, small
and folding batches, removes over all eight pattern shapes, re-adds of
tombstoned triples, snapshot pins and compactions; one removes through
``Graph.remove``, the other through the oracle.  After every step they
must agree on the step's return value, ``len``, ``epoch``,
``tier_sizes()``, the exact per-predicate statistics, and
``match_arrays`` of every pattern shape (checked against the per-tier
tuple walk) — and every snapshot pinned along the way must go on
answering as of its epoch (the tombstone index is copied on write).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.rdf.graph as graph_module
from repro.rdf import CONCURRENCY, Dataset, IRI, Literal
from repro.rdf.errors import TermError

import pytest

from tests.rdf.reference_reads import reference_ids
from tests.rdf.reference_remove import reference_remove
from tests.rdf.rows import id_rows

EX = "http://example.org/"
SUBJECTS = [IRI(f"{EX}s{index}") for index in range(4)]
PREDICATES = [IRI(f"{EX}p{index}") for index in range(3)]
OBJECTS = SUBJECTS[:2] + [Literal(1), Literal("one")]
SIBLING = IRI(f"{EX}sibling")

triples = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
                    st.sampled_from(OBJECTS))
patterns = st.tuples(st.none() | st.sampled_from(SUBJECTS),
                     st.none() | st.sampled_from(PREDICATES),
                     st.none() | st.sampled_from(OBJECTS))
operations = st.one_of(
    st.tuples(st.just("add"), triples),
    st.tuples(st.just("batch"), st.lists(triples, max_size=5)),
    st.tuples(st.just("fold"), st.lists(triples, max_size=5)),
    st.tuples(st.just("remove"), patterns),
    st.tuples(st.just("remove"), patterns),
    st.tuples(st.just("readd"), st.integers(0, 7)),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("compact"), st.none()))


def shapes(triple):
    """All eight pattern shapes over one triple."""
    s, p, o = triple
    return [(s if mask & 4 else None, p if mask & 2 else None,
             o if mask & 1 else None) for mask in range(8)]


def statistics(graph):
    stats = graph.stats
    return dict(stats.cardinality), dict(stats.subjects), dict(stats.objects)


def reads(graph, probes):
    """What every pattern shape over ``probes`` answers, both ways of
    asking, in the graph's own order."""
    answers = []
    for probe in probes:
        for pattern in shapes(probe):
            ids = graph._encode_pattern(pattern)
            if ids is None:  # a term never interned matches nothing
                answers.append([])
                continue
            rows = id_rows(graph, ids)
            assert rows == list(reference_ids(graph, ids))
            assert graph.count_ids(ids) == len(rows)
            assert all(graph.contains_id(*row) for row in rows)
            answers.append(rows)
    return answers


class World:
    def __init__(self, remove, stored, beside):
        self.dataset = Dataset()
        self.graph = self.dataset.default
        self.remove = remove
        for triple in beside:
            self.dataset.graph(SIBLING).add(triple)
        for triple in stored:
            self.graph.add(triple)
        self.graph.compact()
        #: (snapshot, what it answered when it was pinned)
        self.pinned = []

    def frozen(self, snapshot):
        return (snapshot.epoch, len(snapshot), snapshot.tier_sizes(),
                statistics(snapshot),
                reads(snapshot, [(SUBJECTS[0], PREDICATES[0], OBJECTS[0])]))

    def step(self, operation, argument):
        graph = self.graph
        if operation == "add":
            return len(graph.add(argument))
        if operation in ("batch", "fold"):
            previous = graph_module.COMPACT_WRITE_THRESHOLD
            graph_module.COMPACT_WRITE_THRESHOLD = \
                1 if operation == "fold" else previous
            try:
                return len(graph.add_all(argument))
            finally:
                graph_module.COMPACT_WRITE_THRESHOLD = previous
        if operation == "remove":
            return self.remove(graph, argument)
        if operation == "readd":
            dead = sorted(graph._tombstones.ids())
            if not dead:
                return None
            decode = graph.dictionary.decode
            return len(graph.add(*map(decode, dead[argument % len(dead)])))
        if operation == "snapshot":
            snapshot = graph.snapshot()
            self.pinned.append((snapshot, self.frozen(snapshot)))
            return snapshot.epoch
        return graph.compact().epoch

    def observed(self, probes):
        graph = self.graph
        return (len(graph), graph.epoch, graph.tier_sizes(),
                statistics(graph), reads(graph, probes))


class TestAgainstThePerVictimLoop:
    @settings(max_examples=500, deadline=None)
    @given(stored=st.lists(triples, max_size=16),
           beside=st.lists(triples, max_size=2),
           steps=st.lists(operations, max_size=12),
           tombstone_threshold=st.sampled_from([2, 5, 1024]))
    def test_same_graph_either_way(self, stored, beside, steps,
                                   tombstone_threshold):
        previous = graph_module.TOMBSTONE_THRESHOLD
        graph_module.TOMBSTONE_THRESHOLD = tombstone_threshold
        try:
            batched = World(lambda graph, pattern: graph.remove(pattern),
                            stored, beside)
            oracle = World(reference_remove, stored, beside)
            fixed = (SUBJECTS[1], PREDICATES[1], OBJECTS[1])
            for operation, argument in steps:
                epoch = batched.graph.epoch
                size = len(batched.graph)
                answered = batched.step(operation, argument)
                assert answered == oracle.step(operation, argument)
                probes = [fixed]
                if operation in ("add", "remove"):
                    probes.append(tuple(
                        term if term is not None else default
                        for term, default in zip(argument, fixed)))
                assert batched.observed(probes) == oracle.observed(probes)
                if operation == "remove":
                    # one epoch per removing call, none for a miss
                    assert batched.graph.epoch - epoch == (answered > 0)
                    assert size - len(batched.graph) == answered
                for world in (batched, oracle):
                    for snapshot, frozen in world.pinned:
                        assert world.frozen(snapshot) == frozen
        finally:
            graph_module.TOMBSTONE_THRESHOLD = previous


class TestStatisticsStayExact:
    """``remove`` takes ``lost_subject`` / ``lost_object`` as implied
    by an unbound position and asks the index otherwise: the counters
    must equal a recount after every shape."""

    @settings(max_examples=300, deadline=None)
    @given(stored=st.lists(triples, min_size=1, max_size=20),
           late=st.lists(triples, max_size=6),
           removals=st.lists(patterns, min_size=1, max_size=4))
    def test_counters_equal_a_recount(self, stored, late, removals):
        graph = Dataset().default
        graph.add_all(stored)
        graph.compact()
        for triple in late:
            graph.add(triple)
        for pattern in removals:
            graph.remove(pattern)
            content = id_rows(graph)
            predicates = {p for _, p, _ in content}
            assert statistics(graph) == (
                {p: sum(1 for t in content if t[1] == p)
                 for p in predicates},
                {p: len({t[0] for t in content if t[1] == p})
                 for p in predicates},
                {p: len({t[2] for t in content if t[1] == p})
                 for p in predicates})


class TestInlineCompaction:
    def test_reaching_the_threshold_folds_within_the_call(self, monkeypatch):
        monkeypatch.setattr(graph_module, "TOMBSTONE_THRESHOLD", 3)
        graph = Dataset().default
        graph.add_all((SUBJECTS[i % 4], PREDICATES[i % 3], Literal(i))
                      for i in range(12))
        graph.compact()
        compactions = CONCURRENCY.compactions
        assert graph.remove((SUBJECTS[0], PREDICATES[0], None)) == 1
        assert graph.tier_sizes() == (12, 0, 1)
        assert graph.remove((SUBJECTS[1], None, None)) == 3
        assert graph.tier_sizes() == (8, 0, 0)
        assert CONCURRENCY.compactions - compactions == 1

    def test_a_snapshot_cannot_be_removed_from(self):
        graph = Dataset().default
        graph.add(SUBJECTS[0], PREDICATES[0], OBJECTS[0])
        with pytest.raises(TermError):
            graph.snapshot().remove((None, None, None))
        assert len(graph) == 1
