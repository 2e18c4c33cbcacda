"""The array-only kernel of the star-query pipeline.

A QL program over the star schema runs as one pipeline, whoever calls
it::

    compile  →  partials  →  merge  →  finalize  →  cells

``compile`` (:func:`repro.olap.engine.compile_query`) is the only
stage that sees the star schema and RDF terms; it emits a :class:`Plan`
of plain arrays and strings.  Everything after it lives here and
touches only fact arrays and the plan, so it runs unchanged in the
parent over the live fact table (the serial engine: one morsel) and in
spawned workers over shared-memory views (the parallel aggregator:
many) — the ``parallel-safety`` lint rule treats every function of
this module as worker-side code.

Aggregates follow the split of Kuijpers & Vaisman's OLAP algebra:
``SUM``/``COUNT``/``MIN``/``MAX`` are distributive (partials merge by
the aggregate's own operator), ``AVG`` is algebraic (it ships ``sum``
and ``count`` and divides once, in :func:`finalize`).  Two edge rules
mirror SPARQL and are stated here once:

* **empty group** — a group no value contributed to keeps ``SUM`` and
  ``COUNT`` bound at 0 but leaves ``AVG``/``MIN``/``MAX`` *undefined*:
  :func:`finalize` returns ``(values, valid)`` and the cell omits the
  measure, never reporting ``0.0`` or ``±inf``;
* **scalar over zero facts** — a query with no axes has exactly one
  group even when every fact was filtered out
  (:func:`repro.grouping.group`).

Grouping and the per-group folds are :mod:`repro.grouping`'s, shared
with SPARQL ``GROUP BY``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.grouping import fold, group
from repro.olap.errors import OLAPEngineError

#: A compiled dice condition, as nested tuples of plain values:
#: ``("member", axis, member_ok)`` — attribute comparison precomputed
#: into one boolean per member of the axis' level;
#: ``("measure", index, op, target)`` — numeric comparison of the
#: plan's ``index``-th aggregated measure;
#: ``("NOT", dice)``, ``("AND", [dice, ...])``, ``("OR", [dice, ...])``.
Dice = Tuple[Any, ...]

#: Groups of one morsel (or of the merged whole): the distinct key rows
#: ``(groups, axes)`` and, per plan measure, its accumulators by name.
Partial = Tuple[np.ndarray, List[Dict[str, np.ndarray]]]

#: The accumulators each aggregate keyword ships (``count`` rides with
#: the extrema so an empty group is told apart from a real ``±inf``).
ACCUMULATORS: Dict[str, Tuple[str, ...]] = {
    "SUM": ("sum",), "COUNT": ("count",), "AVG": ("sum", "count"),
    "MIN": ("min", "count"), "MAX": ("max", "count")}

_COMPARISONS: Dict[str, np.ufunc] = {
    "=": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


@dataclass(frozen=True)
class Plan:
    """One compiled star query: what crosses the process boundary."""

    #: kept axes: (coordinate column, bottom code → code at the axis'
    #: level, ``-1`` where the member has no ancestor there)
    axes: Tuple[Tuple[str, np.ndarray], ...]
    #: queried measures: (measure column, aggregate keyword)
    measures: Tuple[Tuple[str, str], ...]
    #: attribute-only dices — filter facts before aggregation
    pre: Tuple[Dice, ...] = ()
    #: measure-bearing dices — filter groups after aggregation
    post: Tuple[Dice, ...] = ()


def _take(table: np.ndarray, codes: np.ndarray, missing: Any) -> np.ndarray:
    """``table[codes]``, reading ``missing`` through the ``-1`` sentinel."""
    out = np.full(len(codes), missing, dtype=table.dtype)
    present = codes >= 0
    out[present] = table[codes[present]]
    return out


def _grouped_keys(columns: Sequence[np.ndarray], count: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows ``(groups, axes)`` of ``count`` rows of key
    ``columns``, in sorted order, and the group index of every row."""
    first, inverse = group(columns, count)
    keys = np.stack([column[first] for column in columns], axis=1) \
        if columns else np.zeros((1, 0), dtype=np.int64)
    return keys, inverse


def dice_mask(dice: Dice, codes: Sequence[np.ndarray],
              aggregated: Sequence[Tuple[np.ndarray, np.ndarray]]
              ) -> np.ndarray:
    """Evaluate a compiled dice over rows whose axis codes are
    ``codes[axis]`` — per-fact level codes before aggregation, per-group
    key columns after it (``aggregated`` is then :func:`merge`'s)."""
    op = dice[0]
    if op == "member":
        _, axis, member_ok = dice
        return _take(member_ok, codes[axis], False)
    if op == "measure":
        _, index, comparison, target = dice
        values, valid = aggregated[index]
        # a dice over an unbound aggregate is an errored FILTER on the
        # SPARQL side: the group drops
        return valid & _COMPARISONS[comparison](values, target)
    if op == "NOT":
        return ~dice_mask(dice[1], codes, aggregated)
    if op in ("AND", "OR"):
        combine = np.logical_and if op == "AND" else np.logical_or
        return combine.reduce([dice_mask(operand, codes, aggregated)
                               for operand in dice[1]])
    raise OLAPEngineError(f"unknown dice node {op!r}")


def partials(views: Mapping[str, np.ndarray], lo: int, hi: int,
             plan: Plan) -> Partial:
    """Roll fact rows ``[lo, hi)`` up to the plan's levels, filter them,
    group them and accumulate what each measure's aggregate needs."""
    level_codes = [_take(ancestor, views[column][lo:hi], -1)
                   for column, ancestor in plan.axes]
    columns = [views[column][lo:hi] for column, _ in plan.measures]
    keep = np.ones(hi - lo, dtype=bool)
    for codes in level_codes:
        keep &= codes >= 0  # SPARQL joins drop unmapped members
    # a fact missing any queried measure (NaN sentinel) is a row the
    # SPARQL BGP's measure patterns would never join
    for values in columns:
        keep &= ~np.isnan(values)
    for dice in plan.pre:
        keep &= dice_mask(dice, level_codes, ())
    rows = np.flatnonzero(keep)
    keys, inverse = _grouped_keys([codes[rows] for codes in level_codes],
                                  len(rows))
    accumulators = [
        {name: fold(name, inverse,
                    1.0 if name == "count" else values[rows], len(keys))
         for name in ACCUMULATORS.get(keyword, ())}
        for values, (_, keyword) in zip(columns, plan.measures)]
    return keys, accumulators


def finalize(keyword: str, accumulators: Mapping[str, np.ndarray]
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group aggregate values plus a per-group *defined* mask — the
    empty-group rule of the module docstring."""
    if keyword in ("SUM", "COUNT"):
        values = accumulators[keyword.lower()]
        return values, np.ones(len(values), dtype=bool)
    if keyword not in ACCUMULATORS:
        raise OLAPEngineError(f"unknown aggregate {keyword!r}")
    defined = accumulators["count"] > 0
    if keyword == "AVG":
        values = np.full(len(defined), np.nan)
        np.divide(accumulators["sum"], accumulators["count"], out=values,
                  where=defined)
        return values, defined
    return np.where(defined, accumulators[keyword.lower()], np.nan), defined


def merge(payloads: Sequence[Partial], plan: Plan
          ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Fold morsel partials into the final groups: their key rows and
    one finalized ``(values, valid)`` pair per plan measure."""
    # the empty leading parts keep concatenation defined over no morsels
    stacked = np.concatenate(
        [np.empty((0, len(plan.axes)), dtype=np.int64),
         *(keys for keys, _ in payloads)])
    keys, inverse = _grouped_keys(list(stacked.T), len(stacked))
    aggregated = []
    for index, (_, keyword) in enumerate(plan.measures):
        merged = {
            name: fold(name, inverse, np.concatenate(
                [np.empty(0), *(accumulators[index][name]
                                for _, accumulators in payloads)]), len(keys))
            for name in ACCUMULATORS.get(keyword, ())}
        aggregated.append(finalize(keyword, merged))
    return keys, aggregated


def cells(payloads: Sequence[Partial], plan: Plan,
          members: Sequence[Sequence[Any]], names: Sequence[Any]
          ) -> Dict[Tuple[Any, ...], Dict[Any, float]]:
    """Merge ``payloads``, apply the post-aggregation dices and label
    what survives: ``members[axis][code]`` keys each cell, ``names``
    (parallel to ``plan.measures``) key its values.  A measure whose
    aggregate is undefined for a group stays out of that cell — the
    SPARQL path leaves that projection unbound."""
    keys, aggregated = merge(payloads, plan)
    mask = np.ones(len(keys), dtype=bool)
    for dice in plan.post:
        mask &= dice_mask(dice, keys.T, aggregated)
    return {
        tuple(members[axis][int(code)]
              for axis, code in enumerate(keys[group])):
        {name: float(values[group])
         for name, (values, valid) in zip(names, aggregated)
         if valid[group]}
        for group in np.flatnonzero(mask)}
