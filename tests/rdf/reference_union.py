"""The oracle of predicate routing: union reads and plan-time counts
that ask every member graph, whatever the pattern's predicate — the
bodies ``UnionView.match_arrays`` / ``count_ids``,
``GraphSource.estimate_ids`` and ``StatisticsView.count`` had before a
read skipped the members whose counter lacks its predicate."""

import numpy as np

from repro.rdf.columnar import concat_arrays
from repro.grouping import sorted_runs


def unrouted_match_arrays(members, pattern):
    """Member arrays in member order, deduplicated (first occurrence
    wins) when two or more members matched."""
    parts = [part for part in (graph.match_arrays(pattern)
                               for graph in members) if len(part[0])]
    s, p, o = concat_arrays(parts, pattern)
    if len(parts) < 2:
        return s, p, o
    order, starts = sorted_runs((s, p, o), len(s))
    keep = np.zeros(len(s), dtype=bool)
    keep[order[starts]] = True
    return s[keep], p[keep], o[keep]


def unrouted_count_ids(members, pattern):
    """Distinct matching triples over every member."""
    return len(unrouted_match_arrays(members, pattern)[0])


def unrouted_estimate_ids(members, pattern):
    """Member counts summed over every member."""
    return sum(graph.count_ids(pattern) for graph in members)


def unrouted_count(members, pattern):
    """Term-pattern counts summed over every member."""
    return sum(graph.count(pattern) for graph in members)
