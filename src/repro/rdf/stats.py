"""Incrementally maintained graph statistics for the cost-based planner.

Production query optimizers never scan data to cost a plan: they keep
small summaries — per-predicate cardinalities and distinct counts —
that are cheap to maintain on the write path and O(1) to read on the
planning path.  This module gives the in-memory engine the same layer:

* :class:`GraphStats` lives on every :class:`repro.rdf.graph.Graph` and
  is updated by ``add`` / ``remove`` / ``clear`` with a handful of dict
  probes per triple (the write path already touches the same index
  buckets, so the marginal cost is a few integer increments);
* :class:`StatisticsView` aggregates one or more graphs behind the
  term-level API the SPARQL planner consumes, summing the per-graph
  counters at read time so union sources need no merged copy.

The statistics are *epoch-consistent by construction*: they are updated
in the same call that bumps ``Graph.epoch``, so any plan cached under a
graph's epoch was costed from the statistics of exactly that epoch.

Selectivity summaries derive from the three per-predicate counters:

* ``cardinality(p) / distinct_subjects(p)`` — the average fan-out of
  one subject through ``p`` (matches of ``(s, p, ?o)`` for a typical
  bound ``s``);
* ``cardinality(p) / distinct_objects(p)`` — the average fan-in of one
  object (matches of ``(?s, p, o)`` for a typical bound ``o``).

These averages cost a pattern whose position is bound by an earlier
join step (a variable: its value is not known at planning time).

Statistics **v2** adds value-aware summaries on top of the counters,
because averages hide skew (one hot continent holding 60% of the
observations costs the same as a cold one holding 0.1%):

* :class:`PredicateSummary` — per predicate, a most-common-value (MCV)
  list plus an equi-depth histogram over the subject ids and over the
  object ids.  A bound constant's expected matches come from its exact
  MCV count when it is hot, from its histogram bucket's rows/distinct
  ratio otherwise, and from the v1 average only as the last resort.
* Summaries are **epoch-stamped and rebuilt on read**: mutations only
  bump ``Graph.epoch`` (no write-path cost beyond the v1 counters); the
  first planner read after a mutation rebuilds the touched predicate's
  summary from its index bucket in O(cardinality of that predicate).
* :class:`StatisticsView` aggregates constant estimates across member
  graphs exactly like the v1 counters — per-graph summaries are summed
  at read time, so :class:`~repro.rdf.graph.UnionView` sources need no
  merged summary and stay epoch-consistent per member graph.

The point lookups *could* be answered exactly from the id-keyed
indexes on this engine, but the planner deliberately reads only the
bounded-size summaries: they are the interface a remote or compressed
backend would expose.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, TYPE_CHECKING, Tuple

from repro.rdf.columnar import value_counts
from repro.rdf.terms import Term

if TYPE_CHECKING:  # import cycle: graph.py imports this module
    from repro.rdf.graph import Graph

__all__ = [
    "GraphStats",
    "Histogram",
    "MCV_SIZE",
    "HISTOGRAM_BUCKETS",
    "PredicateSummary",
    "StatisticsView",
    "build_predicate_summary",
]

#: how many most-common values each direction of a summary keeps
MCV_SIZE = 8

#: maximum equi-depth buckets per histogram
HISTOGRAM_BUCKETS = 16


class Histogram:
    """An equi-depth histogram over interned term ids.

    ``bounds[i]`` is the largest term id of bucket ``i``; each bucket
    holds roughly the same number of *rows* (triples), so a bucket that
    spans few distinct ids is exactly a region of hot keys.  A point
    estimate for one id is its bucket's ``rows / distinct`` ratio — the
    average fan-out *within the bucket*, which tracks skew far better
    than the predicate-wide average.
    """

    __slots__ = ("low", "bounds", "rows", "distinct")

    def __init__(self, low: int, bounds: List[int], rows: List[int],
                 distinct: List[int]) -> None:
        self.low = low
        self.bounds = bounds
        self.rows = rows
        self.distinct = distinct

    def estimate(self, term_id: int) -> float:
        """Expected rows for ``term_id`` from its bucket's depth.

        Ids outside ``[low, bounds[-1]]`` did not occur under this
        predicate at build time, so absence is exact knowledge — they
        estimate to zero rather than a bucket average.  (This matters
        for multi-graph views: member graphs share one dictionary, so
        a constant living only in graph A still resolves to an id in
        graph B, and B must not charge it a phantom bucket.)
        """
        if not self.bounds:
            return 0.0
        if term_id < self.low or term_id > self.bounds[-1]:
            return 0.0
        index = bisect_left(self.bounds, term_id)
        return self.rows[index] / max(1, self.distinct[index])

    def __len__(self) -> int:
        return len(self.bounds)

    def __repr__(self) -> str:
        return (f"<Histogram {len(self.bounds)} buckets, "
                f"{sum(self.rows)} rows>")


def _build_histogram(items: List[Tuple[int, int]]) -> Optional[Histogram]:
    """Equi-depth histogram from ``(term_id, count)`` pairs.

    ``items`` must not include the MCV entries (those are estimated
    exactly); buckets close once they hold ``total/buckets`` rows, so
    depth — not width — is equalized.
    """
    if not items:
        return None
    items = sorted(items)
    total = sum(count for _, count in items)
    buckets = min(HISTOGRAM_BUCKETS, len(items))
    target = total / buckets
    bounds: List[int] = []
    rows: List[int] = []
    distinct: List[int] = []
    acc_rows = 0
    acc_distinct = 0
    for term_id, count in items:
        acc_rows += count
        acc_distinct += 1
        if acc_rows >= target:
            bounds.append(term_id)
            rows.append(acc_rows)
            distinct.append(acc_distinct)
            acc_rows = 0
            acc_distinct = 0
    if acc_distinct:
        bounds.append(items[-1][0])
        rows.append(acc_rows)
        distinct.append(acc_distinct)
    return Histogram(items[0][0], bounds, rows, distinct)


class PredicateSummary:
    """Value-aware selectivity summary for one predicate of one graph.

    Built lazily from the predicate's POS index bucket and stamped with
    the graph epoch it was built at; a summary whose epoch no longer
    matches the graph's is stale and gets rebuilt on the next read
    (:meth:`repro.rdf.graph.Graph.predicate_summary`).

    Estimates are classified by the estimator that produced them:
    ``"mcv"`` (exact count of a most-common value — including an exact
    *zero* when the MCV list covers every key and the id is absent) or
    ``"hist"`` (histogram bucket depth; ids outside the histogram's id
    range estimate to zero, since absence at build time is knowledge,
    not a guess).

    ``distinct_subjects`` / ``distinct_objects`` snapshot the v1
    counters at build time: when only *other* predicates (or other
    graphs) mutate, the counters still match and the summary is
    revalidated in O(1) instead of rebuilt — see
    :meth:`repro.rdf.graph.Graph.predicate_summary`.
    """

    __slots__ = ("epoch", "cardinality",
                 "distinct_subjects", "distinct_objects",
                 "subject_mcv", "object_mcv",
                 "subject_histogram", "object_histogram")

    def __init__(self, epoch: int, cardinality: int,
                 distinct_subjects: int, distinct_objects: int,
                 subject_mcv: Dict[int, int], object_mcv: Dict[int, int],
                 subject_histogram: Optional[Histogram],
                 object_histogram: Optional[Histogram]) -> None:
        self.epoch = epoch
        self.cardinality = cardinality
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects
        self.subject_mcv = subject_mcv
        self.object_mcv = object_mcv
        self.subject_histogram = subject_histogram
        self.object_histogram = object_histogram

    def subject_estimate(self, subject_id: int) -> Tuple[float, str]:
        """``(expected matches of (s, p, ?o), estimator used)``."""
        count = self.subject_mcv.get(subject_id)
        if count is not None:
            return float(count), "mcv"
        if self.subject_histogram is not None:
            return self.subject_histogram.estimate(subject_id), "hist"
        return 0.0, "mcv"  # complete MCV list: absence is exact

    def object_estimate(self, object_id: int) -> Tuple[float, str]:
        """``(expected matches of (?s, p, o), estimator used)``."""
        count = self.object_mcv.get(object_id)
        if count is not None:
            return float(count), "mcv"
        if self.object_histogram is not None:
            return self.object_histogram.estimate(object_id), "hist"
        return 0.0, "mcv"  # complete MCV list: absence is exact

    def __repr__(self) -> str:
        return (f"<PredicateSummary epoch {self.epoch}, "
                f"{self.cardinality} rows, "
                f"{len(self.subject_mcv)}+{len(self.object_mcv)} MCVs>")


def _split_mcv(counts: Dict[int, int]
               ) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
    """Split per-key counts into (MCV dict, remaining items).

    Ties break on term id so two builds of the same graph state produce
    identical summaries (and so identical plans).
    """
    if len(counts) <= MCV_SIZE:
        return dict(counts), []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mcv = dict(ranked[:MCV_SIZE])
    return mcv, ranked[MCV_SIZE:]


def build_predicate_summary(graph: "Graph",
                            predicate_id: int) -> PredicateSummary:
    """Build the value-aware summary for one predicate of ``graph``.

    One ``(?, p, ?)`` read of the graph (which composes its own
    storage tiers) and a vectorized group-count per side — O(cardinality
    of the predicate), touching no other index.
    """
    subjects, _, objects = graph.match_arrays((None, predicate_id, None))
    subject_counts = value_counts(subjects)
    object_counts = value_counts(objects)
    subject_mcv, subject_rest = _split_mcv(subject_counts)
    object_mcv, object_rest = _split_mcv(object_counts)
    return PredicateSummary(
        epoch=graph.epoch,
        cardinality=len(subjects),
        distinct_subjects=len(subject_counts),
        distinct_objects=len(object_counts),
        subject_mcv=subject_mcv,
        object_mcv=object_mcv,
        subject_histogram=_build_histogram(subject_rest),
        object_histogram=_build_histogram(object_rest))


class GraphStats:
    """Per-predicate counters for one graph, keyed on interned ids.

    ``cardinality[p]`` — triples whose predicate is ``p``;
    ``subjects[p]`` — distinct subjects appearing with ``p``;
    ``objects[p]`` — distinct objects appearing with ``p``.

    Maintained by :class:`~repro.rdf.graph.Graph` mutations; reads are
    single dict lookups.

    ``summaries`` caches the per-predicate :class:`PredicateSummary`
    objects (statistics v2).  Mutations never touch it — each summary
    carries the epoch it was built at, and
    :meth:`~repro.rdf.graph.Graph.predicate_summary` rebuilds a summary
    whose epoch fell behind the graph's, so staleness is impossible by
    construction.
    """

    __slots__ = ("cardinality", "subjects", "objects", "summaries")

    def __init__(self) -> None:
        self.cardinality: Dict[int, int] = {}
        self.subjects: Dict[int, int] = {}
        self.objects: Dict[int, int] = {}
        #: per-predicate value-aware summaries, epoch-stamped and
        #: rebuilt on read (never eagerly maintained on the write path)
        self.summaries: Dict[int, PredicateSummary] = {}

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
        self.summaries.clear()

    def __repr__(self) -> str:
        return (f"<GraphStats {len(self.cardinality)} predicates, "
                f"{sum(self.cardinality.values())} triples>")


class StatisticsView:
    """The planner's read API over one or more graphs' statistics.

    Every method is O(number of member graphs): a dictionary lookup per
    graph, summed.  Nothing is copied or merged — the view reads the
    live per-graph counters, so it is always current.
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

    # -- constant-aware estimates (statistics v2) ----------------------------

    #: estimator labels ordered from least to most value-aware;
    #: aggregation across graphs reports the most specific one used
    _ESTIMATOR_RANK = {"avg": 0, "hist": 1, "mcv": 2}

    def subject_constant_estimate(self, predicate: Term,
                                  subject: Term) -> Tuple[float, str]:
        """``(expected matches of (s, p, ?o), estimator used)``.

        Unlike :meth:`subject_fanout`, this looks at the *value* of the
        bound subject: its exact MCV count when it is hot, its
        histogram bucket's depth otherwise.  A subject the dictionary
        never interned contributes zero.  Summaries rebuild lazily per
        graph epoch, so the estimate is always current.
        """
        total = 0.0
        kind = "avg"
        rank = self._ESTIMATOR_RANK
        for g in self.graphs:
            pid = g.dictionary.lookup(predicate)
            if pid is None or pid not in g.stats.cardinality:
                continue
            sid = g.dictionary.lookup(subject)
            if sid is None:
                continue
            estimate, used = g.predicate_summary(pid).subject_estimate(sid)
            total += estimate
            if rank[used] > rank[kind]:
                kind = used
        return total, kind

    def object_constant_estimate(self, predicate: Term,
                                 obj: Term) -> Tuple[float, str]:
        """``(expected matches of (?s, p, o), estimator used)``."""
        total = 0.0
        kind = "avg"
        rank = self._ESTIMATOR_RANK
        for g in self.graphs:
            pid = g.dictionary.lookup(predicate)
            if pid is None or pid not in g.stats.cardinality:
                continue
            oid = g.dictionary.lookup(obj)
            if oid is None:
                continue
            estimate, used = g.predicate_summary(pid).object_estimate(oid)
            total += estimate
            if rank[used] > rank[kind]:
                kind = used
        return total, kind

    # -- selectivity summaries ----------------------------------------------

    def subject_fanout(self, predicate: Term) -> float:
        """Average matches of ``(s, p, ?o)`` for a typical bound ``s``."""
        subjects = self.predicate_subjects(predicate)
        if not subjects:
            return 0.0
        return self.predicate_cardinality(predicate) / subjects

    def object_fanin(self, predicate: Term) -> float:
        """Average matches of ``(?s, p, o)`` for a typical bound ``o``."""
        objects = self.predicate_objects(predicate)
        if not objects:
            return 0.0
        return self.predicate_cardinality(predicate) / objects

    def __repr__(self) -> str:
        return (f"<StatisticsView {len(self.graphs)} graphs, "
                f"{self.triple_count()} triples>")
