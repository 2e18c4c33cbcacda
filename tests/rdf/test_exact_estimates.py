"""The planner's numbers are exact in every storage state.

Random ``add`` / ``add_all`` / ``remove`` / ``compact`` / ``snapshot``
sequences run on a dataset with two named graphs, with the write,
publish and tombstone thresholds lowered so that overlay rows,
tombstones and folds all occur.  After every step, for each live
graph, each graph of the last pinned snapshot and both unions (live
and pinned):

* every per-predicate counter (``cardinality`` / ``subjects`` /
  ``objects``) equals a recount from ``match_arrays``;
* the cost model's ``base`` for ``(s, p, ?)``, ``(?, p, o)``,
  ``(s, ?, o)`` and ``(?, p, ?)`` equals the matches the member graphs
  hold, recounted from ``match_arrays`` and summed (a triple held by
  both graphs counts twice, as in the counters).
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rdf.graph as graph_module
from repro.rdf import Dataset, IRI, Literal
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.evaluator import DatasetContext
from repro.sparql.optimizer import _compile_cost

EX = "http://example.org/"
SUBJECTS = [IRI(f"{EX}s{index}") for index in range(4)]
PREDICATES = [IRI(f"{EX}p{index}") for index in range(2)]
OBJECTS = SUBJECTS[:2] + [Literal(1), Literal("one")]
NAMES = [IRI(f"{EX}g{index}") for index in range(2)]
S, P, O = Var("s"), Var("p"), Var("o")

#: the four shapes whose constants the planner prices
PATTERNS = ([(s, p, O) for s in SUBJECTS for p in PREDICATES]
            + [(S, p, o) for p in PREDICATES for o in OBJECTS]
            + [(s, P, o) for s in SUBJECTS for o in OBJECTS]
            + [(S, p, O) for p in PREDICATES])

triples = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
                    st.sampled_from(OBJECTS))
wildcards = st.tuples(st.none() | st.sampled_from(SUBJECTS),
                      st.none() | st.sampled_from(PREDICATES),
                      st.none() | st.sampled_from(OBJECTS))
names = st.sampled_from(NAMES)
steps = st.one_of(
    st.tuples(st.just("add"), names, triples),
    st.tuples(st.just("add_all"), names, st.lists(triples, max_size=8)),
    st.tuples(st.just("remove"), names, wildcards),
    st.tuples(st.just("compact"), names, st.none()),
    st.tuples(st.just("snapshot"), st.none(), st.none()),
)


@contextmanager
def low_thresholds():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "COMPACT_WRITE_THRESHOLD", 12)
        patch.setattr(graph_module, "COMPACT_PUBLISH_THRESHOLD", 4)
        patch.setattr(graph_module, "TOMBSTONE_THRESHOLD", 4)
        yield


def replay(dataset, sequence):
    """Run ``sequence`` on ``dataset``; yield after each step with the
    last pinned snapshot (``None`` before the first)."""
    pinned = None
    for kind, name, argument in sequence:
        if kind == "snapshot":
            pinned = dataset.snapshot()
        else:
            graph = dataset.graph(name)
            if kind == "add":
                graph.add(*argument)
            elif kind == "add_all":
                graph.add_all(argument)
            elif kind == "remove":
                graph.remove(argument)
            else:
                graph.compact()
        yield pinned


def recounted_counters(graph):
    """``(cardinality, subjects, objects)`` per predicate id, from the
    graph's matches."""
    s, p, o = graph.match_arrays((None, None, None))
    counters = ({}, {}, {})
    for predicate in np.unique(p).tolist():
        rows = p == predicate
        counters[0][predicate] = int(rows.sum())
        counters[1][predicate] = len(np.unique(s[rows]))
        counters[2][predicate] = len(np.unique(o[rows]))
    return counters


def recounted_matches(graphs, pattern, dictionary):
    """Matches of the term ``pattern`` (variables as wildcards), from
    each graph's ``match_arrays``, summed."""
    ids = []
    for position in pattern:
        if isinstance(position, Var):
            ids.append(None)
        else:
            ids.append(dictionary.lookup(position))
            if ids[-1] is None:
                return 0
    return sum(len(graph.match_arrays(tuple(ids))[0]) for graph in graphs)


def check_exact(dataset, pinned):
    graphs = [dataset.graph(name) for name in NAMES]
    sources = [[graph] for graph in graphs]
    sources.append([dataset.default, *graphs])
    views = [graph.statistics() for graph in graphs]
    views.append(DatasetContext(dataset).default_source().statistics())
    if pinned is not None:
        pinned_graphs = [pinned.graph(name) for name in NAMES]
        graphs += pinned_graphs
        sources += [[graph] for graph in pinned_graphs]
        sources.append([pinned.default, *pinned_graphs])
        views += [graph.statistics() for graph in pinned_graphs]
        views.append(DatasetContext(pinned).default_source().statistics())
    for graph in graphs:
        stats = graph.stats
        assert (stats.cardinality, stats.subjects, stats.objects) \
            == recounted_counters(graph), graph
    for members, view in zip(sources, views, strict=True):
        for pattern in PATTERNS:
            base = _compile_cost(TriplePatternNode(*pattern), view).base
            assert base == recounted_matches(
                members, pattern, dataset.dictionary), pattern


class TestEstimatesAreExact:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sequence=st.lists(steps, min_size=1, max_size=10))
    def test_counters_and_constant_costs_match_a_recount(self, sequence):
        dataset = Dataset()
        with low_thresholds():
            for pinned in replay(dataset, sequence):
                check_exact(dataset, pinned)

    def test_the_sequence_reaches_every_tier(self):
        """Overlay rows, tombstones and columns at once in the live
        graph, and a pinned snapshot holding overlay rows."""
        stored = [(s, p, o) for s in SUBJECTS for p in PREDICATES
                  for o in OBJECTS[:2]]
        sequence = [("add_all", NAMES[0], stored),
                    ("add", NAMES[0], (SUBJECTS[0], PREDICATES[0],
                                       OBJECTS[2])),
                    ("snapshot", None, None),
                    ("remove", NAMES[0], (SUBJECTS[1], PREDICATES[1], None)),
                    ("add_all", NAMES[1], stored[:5])]
        dataset = Dataset()
        with low_thresholds():
            for pinned in replay(dataset, sequence):
                check_exact(dataset, pinned)
        assert all(dataset.graph(NAMES[0]).tier_sizes())
        assert pinned.graph(NAMES[0]).tier_sizes()[1]
