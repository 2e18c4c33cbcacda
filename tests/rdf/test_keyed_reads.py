"""A pattern with **array cells** — a join step's distinct keys — is one
storage read that answers exactly what one read per key answered,
concatenated key by key, **in the same order**: at every level that
takes such a pattern (``TripleColumns.arrays`` of an ``int32`` and an
``int64`` generation, ``Graph.match_arrays`` over each mix of tiers,
``UnionView.match_arrays`` over overlapping and disjoint members).  The
oracle is ``reference_keyed_matches``, the per-key loop the probe step
ran before.

Patterns take every shape with one or two key positions (the rest a
wildcard or a constant); keys are stored ids, ids absent from the
position, ids below everything stored and overlay ids (``>= 1 << 40``),
distinct and ascending as the join step hands them over.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Graph
from repro.rdf.columnar import TripleColumns
from repro.rdf.dictionary import OVERLAY_BASE
from repro.rdf.graph import UnionView

from tests.rdf.test_match_arrays import add, drop, term
from tests.sparql.reference_join import reference_keyed_matches

SETTINGS = settings(max_examples=80, deadline=None)

#: small ids collide across positions; the pattern draws its keys from
#: these offsets into the stored range
small = st.integers(min_value=0, max_value=5)
offset_triples = st.lists(st.tuples(small, small, small), max_size=30)

#: a pattern cell's role: wildcard, constant or key
shapes = st.tuples(*[st.sampled_from(["wild", "const", "key"])] * 3).filter(
    lambda shape: 1 <= shape.count("key") <= 2)


def pattern_of(draw, shape, pool):
    """A pattern of ``shape`` over the id ``pool`` (ids stored, absent,
    below the range, overlay): constants drawn from it, keys a sorted
    list of distinct tuples, zipped into array cells."""
    keyed = [position for position, role in enumerate(shape)
             if role == "key"]
    keys = sorted(set(draw(st.lists(
        st.tuples(*[st.sampled_from(pool)] * len(keyed)),
        min_size=1, max_size=8))))
    cells = []
    for position, role in enumerate(shape):
        if role == "wild":
            cells.append(None)
        elif role == "const":
            cells.append(draw(st.sampled_from(pool)))
        else:
            cells.append(np.array([key[keyed.index(position)]
                                   for key in keys], dtype=np.int64))
    return tuple(cells)


def same(got, expected):
    assert [column.tolist() for column in got] \
        == [column.tolist() for column in expected]


@SETTINGS
@given(rows=offset_triples, wide=st.booleans(), shape=shapes,
       data=st.data())
def test_columns_answer_every_key_in_one_read(rows, wide, shape, data):
    """``int32`` ids from 100, or ``int64`` ones past the ``int32``
    ceiling; a key below 100 (or the ceiling) is below everything."""
    base = 2 ** 31 + 100 if wide else 100
    columns = TripleColumns.build(
        [(base + s, base + p, base + o) for s, p, o in rows])
    if rows:
        assert columns.sorted_generation()[0]["spo"][0].dtype \
            == (np.int64 if wide else np.int32)
    pool = [base + index for index in range(8)] \
        + [0, base - 1, OVERLAY_BASE, OVERLAY_BASE + 3]
    pattern = pattern_of(data.draw, shape, pool)
    same(columns.arrays(pattern),
         reference_keyed_matches(columns.arrays, pattern))


def graph_pool(graph):
    """Ids of the test's terms (stored or not), the fillers interned
    before them (below everything stored) and overlay ids."""
    encode = graph.dictionary.encode
    return [encode(term(index)) for index in range(8)] \
        + [0, 1, OVERLAY_BASE, OVERLAY_BASE + 5]


def filled(graph):
    """``graph`` with two filler terms interned first, so that stored
    ids start above them."""
    graph.dictionary.encode(term(100))
    graph.dictionary.encode(term(101))
    return graph


def in_tiers(graph, tiers, first, second, third):
    """``graph`` with its triples in the named ``tiers``."""
    if tiers == "delta":
        add(graph, first + second + third)
        return graph
    add(graph, first + second)
    graph.compact()
    if tiers == "columns+tombstones+delta":
        drop(graph, second)
        add(graph, third)
    return graph


TIERS = ["columns", "delta", "columns+tombstones+delta"]


@SETTINGS
@given(first=offset_triples, second=offset_triples, third=offset_triples,
       shape=shapes, data=st.data())
def test_graph_answers_every_key_in_one_read(first, second, third, shape,
                                             data):
    pattern = pattern_of(data.draw, shape, graph_pool(filled(Graph())))
    for tiers in TIERS:
        graph = in_tiers(filled(Graph()), tiers, first, second, third)
        for view in (graph, graph.snapshot()):
            same(view.match_arrays(pattern),
                 reference_keyed_matches(view.match_arrays, pattern))


def test_every_mix_of_tiers_is_reached():
    first, second, third = [(0, 1, 2), (0, 1, 3)], [(4, 1, 2)], [(1, 2, 3)]
    assert {tiers: in_tiers(Graph(), tiers, first, second, third)
            .tier_sizes() for tiers in TIERS} == {
        "columns": (3, 0, 0), "delta": (0, 4, 0),
        "columns+tombstones+delta": (3, 1, 1)}


@SETTINGS
@given(members=st.lists(st.tuples(offset_triples, offset_triples,
                                  offset_triples, st.sampled_from(TIERS)),
                        min_size=2, max_size=4),
       overlapping=st.booleans(), shape=shapes, data=st.data())
def test_union_answers_every_key_in_one_read(members, overlapping, shape,
                                             data):
    """Overlapping members repeat triples (the first occurrence of each
    is kept, per key); disjoint ones hold a predicate each."""
    dataset = Dataset()
    filled(dataset.default)
    graphs = [dataset.default] + [dataset.graph(f"http://example.org/g{i}")
                                  for i in range(1, len(members))]
    for index, (graph, (first, second, third, tiers)) in enumerate(
            zip(graphs, members)):
        if not overlapping:
            first, second, third = ([(s, 10 + index, o) for s, _, o in part]
                                    for part in (first, second, third))
        in_tiers(graph, tiers, first, second, third)
    if not overlapping:  # no triple is stored twice
        assert sum(map(len, graphs)) == len(dataset.union())
    pattern = pattern_of(data.draw, shape, graph_pool(dataset.default)
                         + [dataset.dictionary.encode(term(10 + index))
                            for index in range(len(members))])
    for view in (dataset.union(), UnionView(dataset.snapshot()),
                 UnionView(dataset, graphs[1:])):
        same(view.match_arrays(pattern),
             reference_keyed_matches(view.match_arrays, pattern))
