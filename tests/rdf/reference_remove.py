"""The per-victim ``Graph.remove``, kept as the oracle of the batched
one.

This is the loop ``remove`` ran until the tombstones were indexed,
moved here whole: the victims collected as tuples, then for each one
the tier it lives in updated, and ``lost_subject`` / ``lost_object``
asked of the graph afresh — ``_has_sp`` / ``_has_po``, whose stored
count subtracted ``_dead(pattern)``, a linear scan of every pending
tombstone, twice per removed triple.  It defines what a remove must
leave behind: the same return value, content, ``len``, tier sizes and
exact per-predicate statistics, one epoch on per removing call, and
the same inline compaction once the tombstones reach the threshold.
``tests/rdf/test_remove_oracle.py`` drives both.
"""

from typing import List

import repro.rdf.graph as graph_module
from repro.rdf import Graph
from repro.rdf.graph import IdPattern, IdTriple, TriplePattern

from tests.rdf.reference_reads import reference_ids


def _dead(graph: Graph, pattern: IdPattern) -> List[IdTriple]:
    s, p, o = pattern
    return [dead for dead in graph._tombstones.ids()
            if (s is None or dead[0] == s) and (p is None or dead[1] == p)
            and (o is None or dead[2] == o)]


def _stored_count(graph: Graph, pattern: IdPattern) -> int:
    if graph._columns is None:
        return 0
    stored = graph._columns.count(pattern)
    if stored and graph._tombstones:
        stored -= len(_dead(graph, pattern))
    return stored


def _has_sp(graph: Graph, si: int, pi: int) -> bool:
    return pi in graph._delta.spo.get(si, ()) \
        or _stored_count(graph, (si, pi, None)) > 0


def _has_po(graph: Graph, pi: int, oi: int) -> bool:
    return oi in graph._delta.pos.get(pi, ()) \
        or _stored_count(graph, (None, pi, oi)) > 0


def reference_remove(graph: Graph, pattern: TriplePattern) -> int:
    with graph.locked():
        ids = graph._encode_pattern(pattern)
        if ids is None:
            return 0
        victims = list(reference_ids(graph, ids))
        if not victims:
            return 0
        if graph._shared:
            graph._unshare()
        for si, pi, oi in victims:
            if not graph._delta.discard(si, pi, oi):
                # the triple lives in the compacted columns: mark it
                # dead; the next compaction folds it away
                graph._tombstones.add(si, pi, oi)
            graph.stats.record_remove(
                pi, 1,
                lost_subjects=not _has_sp(graph, si, pi),
                lost_objects=not _has_po(graph, pi, oi))
        graph._size -= len(victims)
        graph._mutated()
        if len(graph._tombstones) >= graph_module.TOMBSTONE_THRESHOLD:
            graph._compact()
        return len(victims)
