"""``match_arrays`` is total: in every physical state of a graph, and
over a union of graphs, it answers with exactly the triples — in
exactly the order — that ``triples_ids`` yields.

The states a graph moves through are built explicitly (overlay only;
columns only; columns + overlay; columns + tombstones; a tombstoned
triple re-added; after ``compact()``), because the array read composes
a different mix of tiers in each.  The union cases check the dedup
rule: first occurrence kept, member order preserved, ``count`` /
``len`` exact.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Graph, IRI
from repro.rdf.graph import UnionView

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

#: a small id universe so subjects, predicates and objects collide
ids = st.integers(min_value=0, max_value=5)
id_triples = st.lists(st.tuples(ids, ids, ids), max_size=24)

STATES = ["overlay", "columns", "columns+overlay", "columns+tombstones",
          "resurrected", "compacted"]


def term(index: int) -> IRI:
    return IRI(f"http://example.org/t{index}")


def add(graph: Graph, triples) -> None:
    for s, p, o in triples:
        graph.add(term(s), term(p), term(o))


def drop(graph: Graph, triples) -> None:
    for s, p, o in triples:
        graph.remove((term(s), term(p), term(o)))


def in_state(graph: Graph, state: str, first, second) -> Graph:
    """Drive ``graph`` into ``state`` using two triple batches."""
    if state == "overlay":
        add(graph, first + second)
    elif state == "columns":
        add(graph, first + second)
        graph.compact()
    elif state == "columns+overlay":
        add(graph, first)
        graph.compact()
        add(graph, second)
    elif state == "columns+tombstones":
        add(graph, first + second)
        graph.compact()
        drop(graph, second)
    elif state == "resurrected":
        add(graph, first + second)
        graph.compact()
        drop(graph, second)
        add(graph, second[:1])
    elif state == "compacted":
        add(graph, first)
        graph.compact()
        add(graph, second)
        drop(graph, first[:2])
        graph.compact()
    return graph


def patterns_over(graph) -> list:
    """All eight shapes, bound positions drawn from stored triples
    (plus an id no triple uses)."""
    lookup = graph.dictionary.lookup
    probes = [tuple(lookup(term(i)) for i in triple)
              for triple in [(0, 1, 2), (1, 1, 1), (5, 0, 3)]]
    probes = [probe for probe in probes if None not in probe]
    probes.extend(list(graph.triples_ids())[:3])
    out = [(None, None, None)]
    for s, p, o in probes:
        for mask in range(1, 8):
            out.append((s if mask & 4 else None, p if mask & 2 else None,
                        o if mask & 1 else None))
    return out


def assert_same_reads(view) -> None:
    for pattern in patterns_over(view):
        expected = list(view.triples_ids(pattern))
        s, p, o = view.match_arrays(pattern)
        assert list(zip(s.tolist(), p.tolist(), o.tolist())) == expected, \
            pattern
        assert view.count_ids(pattern) == len(expected), pattern


@SETTINGS
@given(first=id_triples, second=id_triples, state=st.sampled_from(STATES))
def test_graph_arrays_equal_ids_in_every_state(first, second, state):
    graph = in_state(Graph(), state, first, second)
    assert_same_reads(graph)
    assert_same_reads(graph.snapshot())


def test_every_state_is_actually_reached():
    first, second = [(0, 1, 2), (0, 1, 3), (4, 1, 2)], [(1, 2, 3), (0, 2, 2)]
    sizes = {state: in_state(Graph(), state, first, second).tier_sizes()
             for state in STATES}
    assert sizes["overlay"] == (0, 5, 0)
    assert sizes["columns"] == (5, 0, 0)
    assert sizes["columns+overlay"] == (3, 2, 0)
    assert sizes["columns+tombstones"] == (5, 0, 2)
    assert sizes["resurrected"] == (5, 0, 1)
    assert sizes["compacted"] == (3, 0, 0)


def test_empty_graph_answers_with_empty_arrays():
    for view in (Graph(), Graph().snapshot(), Dataset().union()):
        arrays = view.match_arrays((None, None, None))
        assert [len(column) for column in arrays] == [0, 0, 0]


@SETTINGS
@given(members=st.lists(st.tuples(id_triples, id_triples,
                                  st.sampled_from(STATES)),
                        min_size=2, max_size=4),
       overlapping=st.booleans())
def test_union_arrays_equal_ids(members, overlapping):
    """Disjoint members concatenate; overlapping members keep each
    triple's first occurrence, in member order."""
    dataset = Dataset()
    graphs = [dataset.default] + [dataset.graph(f"http://example.org/g{i}")
                                  for i in range(1, len(members))]
    for index, (graph, (first, second, state)) in enumerate(
            zip(graphs, members)):
        if not overlapping:
            # predicate ids 10+ keep each member's triples its own
            first = [(s, 10 + index, o) for s, _, o in first]
            second = [(s, 10 + index, o) for s, _, o in second]
        in_state(graph, state, first, second)
    if not overlapping:
        assert dataset.graphs_disjoint
    for view in (dataset.union(), UnionView(dataset.snapshot()),
                 UnionView(dataset, graphs[1:])):
        assert_same_reads(view)
        distinct = {ids for graph in view.members()
                    for ids in graph.triples_ids()}
        everything = list(view.triples_ids())
        assert len(everything) == len(distinct) == len(view)
        # first occurrence, member order: the union reads as the
        # members read one after another, minus what was already seen
        seen, expected = set(), []
        for graph in view.members():
            for ids in graph.triples_ids():
                if ids not in seen:
                    seen.add(ids)
                    expected.append(ids)
        assert everything == expected
