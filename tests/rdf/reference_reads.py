"""The per-tier tuple walk, kept as the oracle of ``match_arrays``.

This is the read ``Graph.triples_ids`` / ``UnionView.triples_ids`` made
until ``match_arrays`` became the only one, moved here whole: a graph
yields its column matches in index order, skipping the pending
tombstones one membership test at a time, then its overlay's matches
off the hash indexes; a union walks its members in order and keeps the
first occurrence of each triple in a seen-set.  It defines what
``match_arrays`` must answer — the same triples in the same order — and
``tests/rdf/test_match_arrays.py`` and ``tests/sparql/reference_join.py``
read through it.  A source that is neither (a test's raw id arrays)
answers through its own ``match_arrays``.
"""

from typing import Iterator

from repro.rdf.graph import Graph, IdPattern, IdTriple, UnionView

WILD: IdPattern = (None, None, None)


def reference_ids(view, pattern: IdPattern = WILD) -> Iterator[IdTriple]:
    """``view``'s matches of ``pattern`` as ``(s, p, o)`` int tuples."""
    if isinstance(view, UnionView):
        seen = set()
        for graph in view.members():
            for ids in reference_ids(graph, pattern):
                if ids not in seen:
                    seen.add(ids)
                    yield ids
        return
    if not isinstance(view, Graph):  # a test's own array source
        s, p, o = view.match_arrays(pattern)
        yield from zip(s.tolist(), p.tolist(), o.tolist())
        return
    if view._columns is not None:
        dead = view._tombstones.has
        s, p, o = view._columns.arrays(pattern)
        for ids in zip(s.tolist(), p.tolist(), o.tolist()):
            if not dead(*ids):
                yield ids
    yield from view._delta.ids(pattern)
