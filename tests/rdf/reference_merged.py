"""The re-sorting ``TripleColumns.merged``, kept as the oracle of the
incremental merge.

This is the compaction the merge replaced, moved here whole: every
tombstone located by its own staged binary search (a Python loop over
``_range``) and masked out of the SPO order, the delta rows appended,
and the result handed to ``TripleColumns(s, p, o)`` — which re-sorts
all three orders of the whole generation from scratch.  It defines what
a fold must build: the same nine order arrays byte for byte, the same
dtype, ``size``, ``_ceiling`` and distinct counts.
``tests/rdf/test_merge_compaction.py`` drives both.
"""

import numpy as np

from repro.rdf.columnar import IdArrays, TripleColumns


def id_arrays(rows) -> IdArrays:
    """Id triples, in the order given, as the ``(S, P, O)`` arrays
    ``merged`` takes."""
    data = np.asarray(list(rows), dtype=np.int64).reshape(-1, 3)
    return data[:, 0], data[:, 1], data[:, 2]


def reference_merged(columns: TripleColumns, delta: IdArrays,
                     dead: IdArrays) -> TripleColumns:
    s, p, o = columns.arrays((None, None, None))
    keep = np.ones(len(s), dtype=bool)
    for triple in zip(*(column.tolist() for column in dead)):
        at, end = columns._range("spo", triple)
        if at < end:
            keep[at] = False
    s, p, o = s[keep], p[keep], o[keep]
    if len(delta[0]):
        s = np.concatenate([s.astype(np.int64, copy=False), delta[0]])
        p = np.concatenate([p.astype(np.int64, copy=False), delta[1]])
        o = np.concatenate([o.astype(np.int64, copy=False), delta[2]])
    return TripleColumns(s, p, o)
