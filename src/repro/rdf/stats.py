"""Incrementally maintained graph statistics for the cost-based planner.

Production query optimizers never scan data to cost a plan: they keep
small counters — per-predicate cardinalities and distinct counts —
that are cheap to maintain on the write path and O(1) to read on the
planning path.  This module gives the in-memory engine the same layer:

* :class:`GraphStats` lives on every :class:`repro.rdf.graph.Graph` and
  is updated by ``add`` / ``remove`` / ``clear`` with a handful of dict
  probes per triple (the write path already touches the same index
  buckets, so the marginal cost is a few integer increments);
* :class:`StatisticsView` aggregates one or more graphs behind the
  term-level API the SPARQL planner consumes, summing the per-graph
  counters at read time so union sources need no merged copy;
* :func:`holding` routes a union read: a pattern whose predicate is a
  constant id asks only the member graphs whose ``cardinality``
  counter has an entry for it.  The counter is exact (every write,
  fold and snapshot pin keeps it so), so a skipped member holds no
  match.  ``UnionView.match_arrays`` / ``count_ids``,
  ``GraphSource.estimate_ids`` and :meth:`StatisticsView.count` all
  route through it.

The statistics are *epoch-consistent by construction*: they are updated
in the same call that bumps ``Graph.epoch``, so any plan cached under a
graph's epoch was costed from the statistics of exactly that epoch.

A pattern's constants are priced by :meth:`StatisticsView.count`: the
exact number of matches each member graph answers from its id-keyed
storage (staged binary search over the columns plus the overlay and
tombstone counts), summed.  The counters price the positions an
earlier join step binds (variables, whose values are not known at
planning time), through two averages:

* ``cardinality(p) / distinct_subjects(p)`` — the average fan-out of
  one subject through ``p`` (matches of ``(s, p, ?o)`` for a typical
  bound ``s``);
* ``cardinality(p) / distinct_objects(p)`` — the average fan-in of one
  object (matches of ``(?s, p, o)`` for a typical bound ``o``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.rdf.terms import Term

__all__ = [
    "GraphStats",
    "StatisticsView",
    "holding",
]


def holding(graphs: List,
            predicate: Union[None, int, np.integer, np.ndarray]) -> List:
    """The graphs a read whose predicate cell is ``predicate`` must
    ask: with a constant id, those whose exact ``cardinality`` counter
    holds it; with a variable (``None``) or an array cell, all."""
    if isinstance(predicate, (int, np.integer)):
        return [g for g in graphs if predicate in g.stats.cardinality]
    return graphs


class GraphStats:
    """Per-predicate counters for one graph, keyed on interned ids.

    ``cardinality[p]`` — triples whose predicate is ``p``;
    ``subjects[p]`` — distinct subjects appearing with ``p``;
    ``objects[p]`` — distinct objects appearing with ``p``.

    Maintained by :class:`~repro.rdf.graph.Graph` mutations; reads are
    single dict lookups.
    """

    __slots__ = ("cardinality", "subjects", "objects")

    def __init__(self) -> None:
        self.cardinality: Dict[int, int] = {}
        self.subjects: Dict[int, int] = {}
        self.objects: Dict[int, int] = {}

    def record_add(self, predicate_id: int,
                   new_subject: bool, new_object: bool) -> None:
        """One new triple with predicate ``predicate_id`` was stored.

        ``new_subject`` / ``new_object`` say whether the triple's
        subject / object had never appeared with this predicate before
        (the graph knows from the index buckets it just touched).
        """
        self.cardinality[predicate_id] = \
            self.cardinality.get(predicate_id, 0) + 1
        if new_subject:
            self.subjects[predicate_id] = \
                self.subjects.get(predicate_id, 0) + 1
        if new_object:
            self.objects[predicate_id] = \
                self.objects.get(predicate_id, 0) + 1

    def record_remove(self, predicate_id: int, triples: int,
                      lost_subjects: int, lost_objects: int) -> None:
        """``triples`` triples with predicate ``predicate_id`` were
        removed, and with them the last of ``lost_subjects`` of its
        subjects and of ``lost_objects`` of its objects."""
        for counter, lost in ((self.cardinality, triples),
                              (self.subjects, lost_subjects),
                              (self.objects, lost_objects)):
            remaining = counter.get(predicate_id, 0) - lost
            if remaining > 0:
                counter[predicate_id] = remaining
            else:
                counter.pop(predicate_id, None)

    def clear(self) -> None:
        self.cardinality.clear()
        self.subjects.clear()
        self.objects.clear()

    def __repr__(self) -> str:
        return (f"<GraphStats {len(self.cardinality)} predicates, "
                f"{sum(self.cardinality.values())} triples>")


class StatisticsView:
    """The planner's read API over one or more graphs' statistics.

    Every method asks each member graph once and sums the answers: a
    dictionary lookup for a counter, a staged binary search for
    :meth:`count`.  Nothing is copied or merged — the view reads the
    live graphs, so it is always current.  The graphs share one term
    dictionary (members of one dataset, or a single graph).
    """

    __slots__ = ("graphs",)

    def __init__(self, graphs: Iterable) -> None:
        self.graphs: List = [g for g in graphs]

    # -- totals (answered from top-level index sizes) ------------------------

    def triple_count(self) -> int:
        return sum(g._size for g in self.graphs)

    def subject_count(self) -> int:
        """Distinct subjects (summed across graphs; an upper bound)."""
        return sum(g.distinct_subject_count() for g in self.graphs)

    def object_count(self) -> int:
        return sum(g.distinct_object_count() for g in self.graphs)

    def predicate_count(self) -> int:
        return sum(g.distinct_predicate_count() for g in self.graphs)

    # -- exact pattern counts ------------------------------------------------

    def count(self, pattern: Tuple[Optional[Term], Optional[Term],
                                   Optional[Term]]) -> int:
        """Matches of the term pattern ``pattern`` (``None`` a wildcard),
        exact per member graph and summed — a triple held by two
        graphs counts twice, as in the per-predicate counters.  A
        constant predicate asks only the graphs :func:`holding` it."""
        graphs = self.graphs
        if pattern[1] is not None and graphs:
            graphs = holding(graphs, graphs[0].dictionary.lookup(pattern[1]))
        return sum(g.count(pattern) for g in graphs)

    # -- per-predicate counters ----------------------------------------------

    def predicate_cardinality(self, predicate: Term) -> int:
        total = 0
        for g in self.graphs:
            pid = g.dictionary.lookup(predicate)
            if pid is not None:
                total += g.stats.cardinality.get(pid, 0)
        return total

    def predicate_subjects(self, predicate: Term) -> int:
        total = 0
        for g in self.graphs:
            pid = g.dictionary.lookup(predicate)
            if pid is not None:
                total += g.stats.subjects.get(pid, 0)
        return total

    def predicate_objects(self, predicate: Term) -> int:
        total = 0
        for g in self.graphs:
            pid = g.dictionary.lookup(predicate)
            if pid is not None:
                total += g.stats.objects.get(pid, 0)
        return total

    def __repr__(self) -> str:
        return (f"<StatisticsView {len(self.graphs)} graphs, "
                f"{self.triple_count()} triples>")
