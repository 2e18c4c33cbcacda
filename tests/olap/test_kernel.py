"""The star-query kernel's partial → merge → finalize algebra.

Serial and parallel evaluation now share this code, so their agreement
no longer checks it; these properties do: merging the partials of *any*
split of the rows equals the partials of the whole, row order does not
matter, and both equal a row-at-a-time pure-Python reference.

Measure values are small integers (or NaN), so float sums are exact
and results can be compared with ``==`` whatever the fold order.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.olap.kernel import ACCUMULATORS, Plan, merge, partials

KEYWORDS = sorted(ACCUMULATORS)


@st.composite
def star_queries(draw):
    """(views, plan, rows, cuts): fact arrays with ``-1`` codes and NaN
    measures, a plan over them, and a split of the rows into morsels
    (repeated cut points make empty morsels)."""
    rows = draw(st.integers(0, 24))
    views, axes = {}, []
    for axis in range(draw(st.integers(0, 2))):
        bottom = draw(st.integers(1, 4))
        # roll-up map: several bottom members share a level member,
        # some have no ancestor at the level
        ancestor = draw(st.lists(st.integers(-1, 2), min_size=bottom,
                                 max_size=bottom))
        codes = draw(st.lists(st.integers(-1, bottom - 1), min_size=rows,
                              max_size=rows))
        views[f"c:{axis}"] = np.array(codes, dtype=np.int8)
        axes.append((f"c:{axis}", np.array(ancestor, dtype=np.int64)))
    measures = []
    for index in range(draw(st.integers(1, 2))):
        values = draw(st.lists(
            st.one_of(st.integers(-5, 5).map(float), st.just(math.nan)),
            min_size=rows, max_size=rows))
        views[f"m:{index}"] = np.array(values, dtype=np.float64)
        measures.append((f"m:{index}", draw(st.sampled_from(KEYWORDS))))
    pre = ()
    if axes and draw(st.booleans()):
        member_ok = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        pre = (("NOT", ("member", 0, np.array(member_ok))),)
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=5)))
    return views, Plan(tuple(axes), tuple(measures), pre), rows, cuts


def reference(views, plan, rows):
    """The semantics, one fact at a time: group key → per measure the
    aggregate, or ``None`` where SPARQL leaves it unbound."""
    groups = {}
    for row in range(rows):
        key = tuple(int(ancestor[views[column][row]])
                    if views[column][row] >= 0 else -1
                    for column, ancestor in plan.axes)
        values = [float(views[column][row]) for column, _ in plan.measures]
        if -1 in key or any(math.isnan(value) for value in values):
            continue
        if any(not _reference_dice(dice, key) for dice in plan.pre):
            continue
        groups.setdefault(key, []).append(values)
    if not plan.axes:
        groups.setdefault((), [])  # a scalar query always has its group
    fold = {"SUM": sum, "COUNT": len, "MIN": min, "MAX": max,
            "AVG": lambda column: sum(column) / len(column)}
    return {
        key: [fold[keyword]([values[index] for values in members])
              if members or keyword in ("SUM", "COUNT") else None
              for index, (_, keyword) in enumerate(plan.measures)]
        for key, members in groups.items()}


def _reference_dice(dice, key):
    if dice[0] == "NOT":
        return not _reference_dice(dice[1], key)
    _, axis, member_ok = dice
    return bool(member_ok[key[axis]])


def as_mapping(merged):
    keys, aggregated = merged
    return {
        tuple(int(code) for code in keys[group]):
        [float(values[group]) if valid[group] else None
         for values, valid in aggregated]
        for group in range(len(keys))}


def split_partials(views, plan, rows, cuts):
    bounds = [0, *cuts, rows]
    return [partials(views, lo, hi, plan)
            for lo, hi in zip(bounds, bounds[1:])]


ZERO_ROWS = ({"m:0": np.empty(0)}, Plan((), (("m:0", "AVG"),)), 0, [0, 0])
ALL_DROPPED = ({"c:0": np.array([-1, 0], dtype=np.int8),
                "m:0": np.array([1.0, math.nan])},
               Plan((("c:0", np.array([0])),), (("m:0", "MIN"),)), 2, [1])


class TestPartialMergeAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(star_queries())
    @example(ZERO_ROWS)      # scalar over zero facts: one group
    @example(ALL_DROPPED)    # axes but zero kept rows: no group
    def test_any_split_merges_to_the_whole(self, query):
        views, plan, rows, cuts = query
        whole = as_mapping(merge([partials(views, 0, rows, plan)], plan))
        assert whole == reference(views, plan, rows)
        assert as_mapping(
            merge(split_partials(views, plan, rows, cuts), plan)) == whole
        assert as_mapping(merge([], plan)) == \
            reference(views, plan, 0)  # no morsels at all: no facts

    @settings(max_examples=150, deadline=None)
    @given(star_queries(), st.randoms(use_true_random=False))
    def test_row_permutation_invariance(self, query, rng):
        views, plan, rows, cuts = query
        order = list(range(rows))
        rng.shuffle(order)
        shuffled = {column: values[order]
                    for column, values in views.items()}
        assert as_mapping(
            merge(split_partials(shuffled, plan, rows, cuts), plan)) == \
            as_mapping(merge([partials(views, 0, rows, plan)], plan))


class TestPartialShape:
    def test_only_the_needed_accumulators_ship(self):
        views = {"m:v": np.array([1.0, 2.0])}
        for keyword, names in ACCUMULATORS.items():
            _, [accumulators] = partials(
                views, 0, 2, Plan((), (("m:v", keyword),)))
            assert tuple(accumulators) == names

    def test_partial_keys_are_distinct_and_sorted(self):
        views = {"c:d": np.array([2, 0, 2, 1, 0]),
                 "m:v": np.ones(5)}
        plan = Plan((("c:d", np.arange(3)),), (("m:v", "COUNT"),))
        keys, [accumulators] = partials(views, 0, 5, plan)
        assert keys.tolist() == [[0], [1], [2]]
        assert accumulators["count"].tolist() == [2.0, 1.0, 2.0]
