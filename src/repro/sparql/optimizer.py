"""Cost-based join planning and plan caching for BGPs.

The engine evaluates a BGP as a pipeline of batch join steps (see
:mod:`repro.sparql.evaluator`).  This module decides the pipeline:

* **Cost model** — fed by the statistics layer
  (:mod:`repro.rdf.stats`): a pattern's scan size is the exact number
  of triples matching its constants (each variable position a
  wildcard), which the member graphs answer from their id-keyed
  storage; each position an earlier step binds (a *variable*) then
  divides it by the predicate's average subject fan-out / object
  fan-in.  A hot constant and a cold one of the same predicate are
  therefore priced apart and can get different join orders — the E3
  "busy destinations" fix.
* **Join ordering** — one greedy walk over that cost model
  (:func:`_greedy_cost_order`): each step joins the cheapest pattern
  still connected to the variables bound so far, and a pattern that
  shares none joins only when nothing connected remains.  A BGP
  planned with nothing bound that holds an observation star starts
  there instead (:func:`_star_first`): the star's constant-object arm
  with the fewest matches, then its other arms as written — each read
  of a predicate's range is in subject order, so those arms line up
  with the table row for row — and the greedy walk does the rest.  The
  result is an explicit :class:`PhysicalPlan`: ordered
  :class:`PlanStep`\\ s carrying the chosen join strategy (hash join /
  keyed index probe / scan) and the cardinality estimates that
  justified them.
* **Plan cache** — plans are keyed on the BGP as written (its patterns
  with their constants), the variables already bound when it runs and
  the source graphs' identity + mutation epochs (:data:`PLAN_CACHE`).
  A repeated query text re-uses its plan; a new constant is planned
  from its own count; an update retires plans costed from stale
  statistics.

A stale or mis-estimated plan can never produce wrong results
(execution always applies the *actual* patterns); the worst case is a
suboptimal order, which ``EXPLAIN ... analyze`` makes visible as an
estimated-vs-actual gap (:mod:`repro.sparql.explain`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.stats import StatisticsView
from repro.sparql.algebra import (
    BGP,
    Empty,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    PathPatternNode,
    PatternNode,
    SubSelectNode,
    Union as UnionNode,
    ValuesNode,
    Var,
)

#: The hash-build rule: a step with a bound join variable scans its
#: pattern's whole range once when the binding table has at least
#: ``HASH_MIN_ROWS`` rows and the range is at most ``HASH_SCAN_FACTOR``
#: times the table; otherwise it probes per key.
HASH_MIN_ROWS = 64
HASH_SCAN_FACTOR = 4

#: Static path-pattern pricing by number of known endpoints (paths are
#: deliberately priced above plain patterns of the same boundness so
#: the planner binds their endpoints first when it can).
_PATH_ESTIMATES = {2: 64.0, 1: 4096.0, 0: float(1 << 41)}


# ---------------------------------------------------------------------------
# Cost model (constants counted exactly; bound variables averaged)
# ---------------------------------------------------------------------------


class _PatternCost:
    """Pre-resolved costing facts for one pattern.

    ``base`` is the scan size with only the pattern's constants
    applied: the exact match count of the pattern with every variable
    position a wildcard.  ``s_sel`` / ``o_sel`` / ``p_sel`` are the
    multipliers applied when the respective *variable* position is
    already bound; a ``None`` name marks a constant position.
    """

    __slots__ = ("base", "s_name", "s_sel", "o_name", "o_sel",
                 "p_name", "p_sel", "is_path", "vars", "endpoint_names")

    def __init__(self) -> None:
        self.base = 0.0
        self.s_name: Optional[str] = None
        self.s_sel = 1.0
        self.o_name: Optional[str] = None
        self.o_sel = 1.0
        self.p_name: Optional[str] = None
        self.p_sel = 1.0
        self.is_path = False
        self.vars: Set[str] = set()
        self.endpoint_names: Tuple[Optional[str], ...] = ()


def _compile_cost(pattern, stats: StatisticsView) -> _PatternCost:
    cost = _PatternCost()
    cost.vars = set(pattern.variables())
    if isinstance(pattern, PathPatternNode):
        cost.is_path = True
        cost.endpoint_names = tuple(
            position.name if isinstance(position, Var) else None
            for position in pattern.endpoints())
        known = sum(1 for name in cost.endpoint_names if name is None)
        cost.base = _PATH_ESTIMATES[known]
        return cost
    subject, predicate, obj = pattern.positions()
    if isinstance(predicate, Var):
        s_sel = 1.0 / max(1, stats.subject_count())
        o_sel = 1.0 / max(1, stats.object_count())
        cost.p_name = predicate.name
        cost.p_sel = 1.0 / max(1, stats.predicate_count())
    else:
        s_sel = 1.0 / max(1, stats.predicate_subjects(predicate))
        o_sel = 1.0 / max(1, stats.predicate_objects(predicate))
    if isinstance(subject, Var):
        cost.s_name = subject.name
        cost.s_sel = s_sel
    if isinstance(obj, Var):
        cost.o_name = obj.name
        cost.o_sel = o_sel
    cost.base = float(stats.count(tuple(
        None if isinstance(position, Var) else position
        for position in (subject, predicate, obj))))
    return cost


def _estimate(cost: _PatternCost, bound) -> float:
    """Expected matches per input row when ``bound`` vars are bound."""
    if cost.is_path:
        known = sum(1 for name in cost.endpoint_names
                    if name is None or name in bound)
        return _PATH_ESTIMATES[known]
    estimate = cost.base
    if cost.s_name is not None and cost.s_name in bound:
        estimate *= cost.s_sel
    if cost.o_name is not None and cost.o_name in bound:
        estimate *= cost.o_sel
    if cost.p_name is not None and cost.p_name in bound:
        estimate *= cost.p_sel
    return estimate


def _connected(cost: _PatternCost, bound) -> bool:
    """Joining this pattern now would not be a Cartesian product."""
    return not cost.vars or not bound or bool(cost.vars & bound)


# ---------------------------------------------------------------------------
# Physical plans
# ---------------------------------------------------------------------------


class PlanStep:
    """One join step of a physical plan.

    ``strategy`` is the planner's estimate-based choice — ``"hash"``
    (bucket one index scan by the join key), ``"probe"`` (one read of
    the distinct join keys), ``"scan"`` (no shared variables:
    one scan cross-applied) or ``"path"``.  The evaluator re-validates
    hash-vs-probe against the *actual* table size at execution time, so
    a mis-estimate degrades to the safe choice rather than a blowup, and
    runs a ``hash`` step whose range lines up with the table row for
    row as an append (reported ``"append"``; never planned).
    """

    __slots__ = ("index", "strategy", "est_in", "est_out", "est_scan")

    def __init__(self, index: int, strategy: str, est_in: float,
                 est_out: float, est_scan: float) -> None:
        self.index = index
        self.strategy = strategy
        self.est_in = est_in
        self.est_out = est_out
        self.est_scan = est_scan

    def __repr__(self) -> str:
        return (f"<PlanStep [{self.index}] {self.strategy} "
                f"est {self.est_in:.0f}->{self.est_out:.0f}>")


class PhysicalPlan:
    """An ordered, costed join pipeline for one BGP.

    Iterating the plan yields the pattern indices in join order (which
    keeps it drop-in for code that only needs the ordering); ``steps``
    carries the full per-step metadata for execution and EXPLAIN.
    """

    __slots__ = ("order", "steps", "est_rows", "cost")

    def __init__(self, order: List[int], steps: List[PlanStep],
                 est_rows: float, cost: float) -> None:
        self.order = order
        self.steps = steps
        self.est_rows = est_rows
        self.cost = cost

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> int:
        return self.order[index]

    def __repr__(self) -> str:
        return (f"<PhysicalPlan {self.order} cost {self.cost:.0f} "
                f"est {self.est_rows:.0f} rows>")


def _star_first(patterns: Sequence, costs: List[_PatternCost]
                ) -> Tuple[int, ...]:
    """The star a BGP planned with nothing bound starts with, as
    pattern indices; empty when it holds none.

    A star is a subject variable ``?v`` with a constant-object arm
    ``?v p C`` and at least two arms ``?v p ?x`` (constant predicate,
    variable object).  Its order: the constant-object arm with the
    fewest matches, then ``?v``'s other constant-predicate arms as
    written.  Of several stars, the one whose first arm has the fewest
    matches (the first written on a tie).
    """
    arms: Dict[str, List[int]] = {}
    for index, pattern in enumerate(patterns):
        if isinstance(pattern, PathPatternNode):
            continue
        subject, predicate, _obj = pattern.positions()
        if isinstance(subject, Var) and not isinstance(predicate, Var):
            arms.setdefault(subject.name, []).append(index)
    best: Tuple[int, ...] = ()
    for indices in arms.values():
        seeds = [index for index in indices
                 if not isinstance(patterns[index].positions()[2], Var)]
        if not seeds or len(indices) - len(seeds) < 2:
            continue
        first = min(seeds, key=lambda index: costs[index].base)
        if not best or costs[first].base < costs[best[0]].base:
            best = (first, *(index for index in indices if index != first))
    return best


def _greedy_cost_order(costs: List[_PatternCost], bound0: frozenset, n: int,
                       prefix: Sequence[int] = ()
                       ) -> Tuple[float, float, Tuple[int, ...]]:
    """The join order: a greedy walk over the cost model.

    Each step takes the pattern with the fewest expected matches per
    input row among those sharing a variable with what is bound so far
    (a Cartesian product only when no connected pattern remains), and
    ``total`` sums the estimated intermediate rows — the plan's cost.
    The ``prefix`` patterns (a star, :func:`_star_first`) are taken
    first, in their order; the walk goes on from what they bind.
    """
    bound: Set[str] = set(bound0)
    remaining = list(range(n))
    order: List[int] = []
    rows = 1.0
    total = 0.0
    while remaining:
        if len(order) < len(prefix):
            best = prefix[len(order)]
        else:
            connected = [i for i in remaining
                         if _connected(costs[i], bound)]
            best = min(connected or remaining,
                       key=lambda i: _estimate(costs[i], bound))
        rows *= _estimate(costs[best], bound)
        total += rows
        order.append(best)
        remaining.remove(best)
        bound |= costs[best].vars
    return total, rows, tuple(order)


def _build_steps(order: Sequence[int], costs: List[_PatternCost],
                 bound0: frozenset) -> List[PlanStep]:
    bound: Set[str] = set(bound0)
    steps: List[PlanStep] = []
    rows = 1.0
    for index in order:
        cost = costs[index]
        est = _estimate(cost, bound)
        out_rows = rows * est
        scan = _estimate(cost, frozenset())
        if cost.is_path:
            strategy = "path"
        elif not (cost.vars & bound):
            strategy = "scan"
        elif rows >= HASH_MIN_ROWS and scan <= HASH_SCAN_FACTOR * rows:
            strategy = "hash"
        else:
            strategy = "probe"
        steps.append(PlanStep(index, strategy, rows, out_rows, scan))
        rows = out_rows
        bound |= cost.vars
    return steps


def plan_physical(patterns: Sequence, source,
                  bound_vars: Optional[frozenset] = None) -> PhysicalPlan:
    """Cost-based physical plan for ``patterns`` over ``source``.

    ``bound_vars`` are variables already bound by the surrounding
    pipeline (the seed table's columns).
    """
    bound0 = frozenset(bound_vars or ())
    n = len(patterns)
    if n == 0:
        return PhysicalPlan([], [], 1.0, 0.0)
    stats = source.statistics()
    costs = [_compile_cost(pattern, stats) for pattern in patterns]
    star = () if bound0 else _star_first(patterns, costs)
    total, rows, order = _greedy_cost_order(costs, bound0, n, star)
    return PhysicalPlan(list(order), _build_steps(order, costs, bound0),
                        est_rows=rows, cost=total)


# ---------------------------------------------------------------------------
# Whole-pattern-tree costing
# ---------------------------------------------------------------------------


def estimate_pattern(node: PatternNode, source,
                     bound: frozenset = frozenset()
                     ) -> Tuple[float, float]:
    """``(est_rows, est_cost)`` for an arbitrary pattern tree.

    Extends the BGP cost model upward through the non-BGP operators so
    EXPLAIN can annotate them — most importantly the *optional* side
    of a LeftJoin, which is costed under the required side's bound
    variables (it executes seeded by required-side rows, so its
    per-row estimate multiplies by the required side's cardinality).
    Estimates are per one input row of the surrounding pipeline, like
    :attr:`PhysicalPlan.est_rows`.
    """
    if isinstance(node, BGP):
        plan = plan_physical(node.patterns, source, bound)
        return plan.est_rows, plan.cost
    if isinstance(node, Join):
        left_rows, left_cost = estimate_pattern(node.left, source, bound)
        right_rows, right_cost = estimate_pattern(
            node.right, source, bound | frozenset(node.left.variables()))
        return (left_rows * right_rows,
                left_cost + right_cost * max(1.0, left_rows))
    if isinstance(node, LeftJoin):
        left_rows, left_cost = estimate_pattern(node.left, source, bound)
        right_rows, right_cost = estimate_pattern(
            node.right, source, bound | frozenset(node.left.variables()))
        # left-outer: every required-side row survives; matches extend
        return (max(left_rows, left_rows * right_rows),
                left_cost + right_cost * max(1.0, left_rows))
    if isinstance(node, UnionNode):
        left_rows, left_cost = estimate_pattern(node.left, source, bound)
        right_rows, right_cost = estimate_pattern(node.right, source, bound)
        return left_rows + right_rows, left_cost + right_cost
    if isinstance(node, Minus):
        left_rows, left_cost = estimate_pattern(node.left, source, bound)
        _, right_cost = estimate_pattern(node.right, source, frozenset())
        return left_rows, left_cost + right_cost
    if isinstance(node, (Filter, Extend, GraphNode)):
        return estimate_pattern(node.child, source, bound)
    if isinstance(node, ValuesNode):
        return float(len(node.rows)), 0.0
    if isinstance(node, SubSelectNode):
        rows, cost = estimate_pattern(node.query.pattern, source, frozenset())
        if node.query.limit is not None:
            rows = min(rows, float(node.query.limit))
        return rows, cost
    if isinstance(node, Empty):
        return 1.0, 0.0
    return 1.0, 0.0


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """A process-wide LRU cache of BGP physical plans.

    Keys combine the BGP's signature (its patterns as written,
    constants included), the bound-variable set it is planned under,
    and the source graphs' identity + mutation epochs, so a plan is
    only ever re-used for the query it was costed for.

    A stale plan can never produce wrong results (execution always
    applies the *actual* patterns); caching merely skips re-running the
    planner.

    The cache is **thread-safe**: every lookup/insert takes a small
    internal mutex (the LRU's ``OrderedDict`` reordering is not safe
    under concurrent readers, and the snapshot-isolated endpoint runs
    SELECTs in parallel).  Two threads missing on the same key may both
    plan and both insert — the second insert wins, both plans are
    valid, and no lock is held while planning.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses", "evictions",
                 "_lock")

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, PhysicalPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[PhysicalPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: tuple, plan: PhysicalPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                # no plan is shared across constants; kept at 0 for
                # benchmarks/perf/harness.py, which reads it
                "hits_parameterized": 0,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (f"<PlanCache {len(self._entries)}/{self.maxsize} entries, "
                f"{self.hits} hits, {self.misses} misses>")


#: The shared plan cache used by the evaluator.
PLAN_CACHE = PlanCache()


def bgp_signature(node: BGP) -> tuple:
    """The plan-cache key of a BGP's patterns, constants included.

    Predicates and path expressions key as written and subject /
    object positions as their :class:`Var` or RDF term, so ``"5"``,
    ``5`` and ``<5>`` never share a plan.  Memoized on the node, so
    two executions of one parsed query (the endpoint's parse cache)
    build it once.
    """
    cached = getattr(node, "_plan_signature", None)
    if cached is None:
        cached = node._plan_signature = tuple(
            (pattern.subject, pattern.path.to_sparql(), pattern.object)
            if isinstance(pattern, PathPatternNode)
            else pattern.positions()
            for pattern in node.patterns)
    return cached


def get_plan(node: BGP, bound_names: frozenset, source) -> PhysicalPlan:
    """The cached (or freshly computed) physical plan for ``node`` when
    the variables in ``bound_names`` are already bound."""
    relevant = frozenset(bound_names & node.variables())
    source_key = getattr(source, "cache_key", None)
    if callable(source_key):
        source_key = source_key()
    else:
        source_key = (id(source), getattr(source, "epoch", None))
    key = (bgp_signature(node), relevant, source_key)
    plan = PLAN_CACHE.get(key)
    if plan is None:
        plan = plan_physical(node.patterns, source, relevant)
        PLAN_CACHE.put(key, plan)
    return plan
