"""The per-triple ``Graph.add_all``, kept as the oracle of the batch
write path.

This is the loop the two-phase ``add_all`` replaced, moved here whole:
one ``Graph.add`` per element under the write lock — each one
validating, interning, probing both tiers, updating the statistics a
triple at a time and compacting inline when the overlay outgrows the
write threshold — and, when an element fails, the reverse ``remove`` of
everything added so far plus the epoch restore.  It defines what a
batch must leave behind: the same content, the same statistics.
(It moves the epoch once per new triple where the batch path moves it
once per batch; both move it exactly when something new was added.)
``tests/rdf/test_batch_write.py`` drives both.
"""

from typing import Iterable, List, Tuple, Union

from repro.rdf import Graph, Triple, make_triple
from repro.testing import faults


def reference_add_all(graph: Graph,
                      triples: Iterable[Union[Triple, Tuple]]) -> Graph:
    with graph.locked():
        epoch_before = graph.epoch
        added: List[Triple] = []
        try:
            for triple in triples:
                if faults.ACTIVE:
                    faults.fire("graph.add_all.step")
                if isinstance(triple, tuple) and len(triple) == 3:
                    triple = make_triple(*triple)
                size_before = len(graph)
                graph.add(triple)
                if len(graph) != size_before:
                    added.append(triple)
        except BaseException:
            for triple in reversed(added):
                graph.remove(triple)
            graph.epoch = epoch_before
            raise
    return graph
