"""The dict-and-sort summary builder, kept as the oracle of the array one.

This is how ``repro.rdf.stats.build_predicate_summary`` built a
:class:`~repro.rdf.stats.PredicateSummary` until it worked in arrays,
moved here whole: each side's ``{id: count}`` dict from one
``np.unique``, the MCV list from a Python sort of every item on
``(-count, id)``, and the equi-depth histogram from a second sort of the
rest and a greedy walk that closes a bucket once it holds
``total / buckets`` rows.  ``tests/rdf/test_stats.py`` asserts that
both builders answer the same summary, field for field.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rdf.stats import (
    HISTOGRAM_BUCKETS,
    MCV_SIZE,
    Histogram,
    PredicateSummary,
)


def value_counts(ids: np.ndarray) -> Dict[int, int]:
    """``{id: occurrences}`` of an id array (one ``np.unique``)."""
    values, tallies = np.unique(ids, return_counts=True)
    return dict(zip(values.tolist(), tallies.tolist()))


def split_mcv(counts: Dict[int, int]
              ) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
    """Split per-key counts into (MCV dict, remaining items); ties break
    on term id."""
    if len(counts) <= MCV_SIZE:
        return dict(counts), []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mcv = dict(ranked[:MCV_SIZE])
    return mcv, ranked[MCV_SIZE:]


def build_histogram(items: List[Tuple[int, int]]) -> Optional[Histogram]:
    """Equi-depth histogram from ``(term_id, count)`` pairs: buckets
    close once they hold ``total/buckets`` rows."""
    if not items:
        return None
    items = sorted(items)
    total = sum(count for _, count in items)
    buckets = min(HISTOGRAM_BUCKETS, len(items))
    target = total / buckets
    bounds: List[int] = []
    rows: List[int] = []
    distinct: List[int] = []
    acc_rows = 0
    acc_distinct = 0
    for term_id, count in items:
        acc_rows += count
        acc_distinct += 1
        if acc_rows >= target:
            bounds.append(term_id)
            rows.append(acc_rows)
            distinct.append(acc_distinct)
            acc_rows = 0
            acc_distinct = 0
    if acc_distinct:
        bounds.append(items[-1][0])
        rows.append(acc_rows)
        distinct.append(acc_distinct)
    return Histogram(items[0][0], bounds, rows, distinct)


def reference_side(ids: np.ndarray
                   ) -> Tuple[int, Dict[int, int], Optional[Histogram]]:
    """One side of a summary: ``(distinct ids, MCV dict, histogram)``."""
    counts = value_counts(ids)
    mcv, rest = split_mcv(counts)
    return len(counts), mcv, build_histogram(rest)


def reference_summary(graph, predicate_id: int) -> PredicateSummary:
    """The summary of one predicate of ``graph``, built the old way."""
    subjects, _, objects = graph.match_arrays((None, predicate_id, None))
    subject_distinct, subject_mcv, subject_histogram = \
        reference_side(subjects)
    object_distinct, object_mcv, object_histogram = reference_side(objects)
    return PredicateSummary(
        epoch=graph.epoch,
        cardinality=len(subjects),
        distinct_subjects=subject_distinct,
        distinct_objects=object_distinct,
        subject_mcv=subject_mcv,
        object_mcv=object_mcv,
        subject_histogram=subject_histogram,
        object_histogram=object_histogram)
