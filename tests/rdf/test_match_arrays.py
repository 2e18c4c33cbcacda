"""``match_arrays`` is total: in every physical state of a graph, and
over a union of graphs, it answers with exactly the triples — in
exactly the order — that the per-tier tuple walk yields
(``reference_reads.reference_ids``, the oracle).

The states a graph moves through are built explicitly (overlay only;
columns only; columns + overlay; columns + tombstones; a tombstoned
triple re-added; after ``compact()``), because the array read composes
a different mix of tiers in each.  The union cases check the dedup
rule — a read deduplicates when two or more members matched: first
occurrence kept, member order preserved, ``count`` / ``len`` exact,
over overlapping and over disjoint members.  The term-level reads
(``triples``, ``count``, ``in``) decode the same rows.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Graph, IRI, Triple
from repro.rdf.graph import UnionView

from tests.rdf.reference_reads import reference_ids
from tests.rdf.rows import id_rows

SETTINGS = settings(max_examples=60, deadline=None)

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
    probes.extend(id_rows(graph)[:3])
    out = [(None, None, None)]
    for s, p, o in probes:
        for mask in range(1, 8):
            out.append((s if mask & 4 else None, p if mask & 2 else None,
                        o if mask & 1 else None))
    return out


def assert_same_reads(view) -> None:
    for pattern in patterns_over(view):
        expected = list(reference_ids(view, pattern))
        assert id_rows(view, pattern) == expected, pattern
        assert view.count_ids(pattern) == len(expected), pattern


def assert_same_terms(view) -> None:
    """``triples()`` is ``match_arrays`` decoded, for every shape; so
    are ``count`` and membership."""
    decode = view.dictionary.decode
    for pattern in patterns_over(view):
        terms = tuple(None if cell is None else decode(cell)
                      for cell in pattern)
        expected = [Triple(*map(decode, ids))
                    for ids in id_rows(view, pattern)]
        assert list(view.triples(terms)) == expected, pattern
        assert view.count(terms) == len(expected), pattern
        assert (terms in view) == bool(expected), pattern


@SETTINGS
@given(first=id_triples, second=id_triples, state=st.sampled_from(STATES))
def test_graph_arrays_equal_ids_in_every_state(first, second, state):
    graph = in_state(Graph(), state, first, second)
    assert_same_reads(graph)
    assert_same_reads(graph.snapshot())
    assert_same_terms(graph)
    assert_same_terms(graph.snapshot())


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
    for view in (dataset.union(), UnionView(dataset.snapshot()),
                 UnionView(dataset, graphs[1:])):
        assert_same_reads(view)
        assert_same_terms(view)
        assert_first_occurrences(view)


def assert_first_occurrences(view) -> None:
    """The union reads as its members read one after another, minus
    what was already seen; ``len`` and ``count`` are exact."""
    seen, expected = set(), []
    for graph in view.members():
        for ids in id_rows(graph):
            if ids not in seen:
                seen.add(ids)
                expected.append(ids)
    assert id_rows(view) == expected
    assert len(view) == view.count() == len(expected)


def test_disjoint_members_matching_together_concatenate():
    """Members that share no triple but all match the pattern: the
    read deduplicates (two or more matched), finds nothing to drop and
    answers the members' rows in member order."""
    dataset = Dataset()
    graphs = [dataset.default, dataset.graph("http://example.org/g1"),
              dataset.graph("http://example.org/g2")]
    add(graphs[0], [(0, 1, 2), (3, 1, 4)])
    graphs[0].compact()
    add(graphs[1], [(5, 1, 2), (0, 1, 4)])
    add(graphs[2], [(3, 1, 2), (0, 2, 2)])
    graphs[2].compact()
    add(graphs[2], [(4, 1, 1)])
    p1 = dataset.dictionary.lookup(term(1))
    for view in (dataset.union(), UnionView(dataset.snapshot()),
                 UnionView(dataset, graphs[::-1])):
        assert sum(graph.count_ids((None, p1, None)) > 0
                   for graph in view.members()) == 3
        member_rows = [ids for graph in view.members()
                       for ids in id_rows(graph, (None, p1, None))]
        assert id_rows(view, (None, p1, None)) == member_rows
        assert view.count_ids((None, p1, None)) == len(member_rows) == 6
        assert view.count((None, term(1), None)) == 6
        assert len(view) == 7
        assert_first_occurrences(view)
        assert_same_reads(view)
        assert_same_terms(view)
