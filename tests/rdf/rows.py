"""Id rows for assertions: what storage answers, as plain tuples."""

from typing import List

from repro.rdf.graph import IdArrays, IdPattern, IdTriple


def rows(arrays: IdArrays) -> List[IdTriple]:
    """``(S, P, O)`` id arrays as a list of ``(s, p, o)`` int tuples."""
    s, p, o = arrays
    return list(zip(s.tolist(), p.tolist(), o.tolist()))


def id_rows(view, pattern: IdPattern = (None, None, None)) -> List[IdTriple]:
    """``view.match_arrays(pattern)`` as ``(s, p, o)`` int tuples."""
    return rows(view.match_arrays(pattern))
