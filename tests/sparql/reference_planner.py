"""The Selinger subset DP the planner used to run, kept as an oracle.

``reference_dp_order`` is the old ``optimizer._dp_order``, verbatim
apart from its name: an exact left-deep dynamic program over pattern
subsets, minimizing Σ of estimated intermediate rows over the same
cost model as the greedy walk that replaced it.  ``reference_order``
is the old dispatch — the DP up to :data:`DP_PATTERN_LIMIT` patterns,
the greedy walk above — so patching it over
``optimizer._greedy_cost_order`` replays the old planner exactly
(``tests/sparql/test_planner.py``, ``TestGreedyMatchesTheDP``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sparql.optimizer import (
    _PatternCost,
    _connected,
    _estimate,
    _greedy_cost_order,
)

#: BGPs up to this size were planned with the exact subset DP
DP_PATTERN_LIMIT = 12


def reference_dp_order(costs: List[_PatternCost], bound0: frozenset, n: int
                       ) -> Tuple[float, float, Tuple[int, ...]]:
    """Exact left-deep DP over pattern subsets (Selinger-style).

    ``dp[mask]`` holds the cheapest way to have joined exactly the
    patterns in ``mask``: (Σ intermediate rows, current rows, order,
    bound vars).  Disconnected extensions are only considered when no
    connected pattern remains, mirroring the executor's aversion to
    Cartesian products.
    """
    full = (1 << n) - 1
    dp: Dict[int, Tuple[float, float, Tuple[int, ...], frozenset]] = {
        0: (0.0, 1.0, (), bound0)}
    for mask in range(full):
        entry = dp.get(mask)
        if entry is None:
            continue
        total, rows, order, bound = entry
        remaining = [i for i in range(n) if not mask >> i & 1]
        connected = [i for i in remaining if _connected(costs[i], bound)]
        for i in (connected or remaining):
            out_rows = rows * _estimate(costs[i], bound)
            new_total = total + out_rows
            new_mask = mask | (1 << i)
            old = dp.get(new_mask)
            if old is None or new_total < old[0]:
                dp[new_mask] = (new_total, out_rows, order + (i,),
                                bound | frozenset(costs[i].vars))
    total, rows, order, _ = dp[full]
    return total, rows, order


def reference_order(costs: List[_PatternCost], bound0: frozenset, n: int
                    ) -> Tuple[float, float, Tuple[int, ...]]:
    """The old planner's choice: the DP where it ran, greedy above."""
    if n <= DP_PATTERN_LIMIT:
        return reference_dp_order(costs, bound0, n)
    return _greedy_cost_order(costs, bound0, n)
