"""Cost-based join planning and parameterized plan caching for BGPs.

The engine evaluates a BGP as a pipeline of batch join steps (see
:mod:`repro.sparql.evaluator`).  This module decides the pipeline:

* **Cost model** — fed by the O(1) per-predicate statistics layer
  (:mod:`repro.rdf.stats`): a pattern's expected matches per input row
  come from its predicate's cardinality divided by the average subject
  fan-out / object fan-in for each bound *variable* position.  A bound
  **constant**, however, is costed from its value (statistics v2): its
  exact most-common-value count when it is hot, its equi-depth
  histogram bucket's depth otherwise, falling back to the average only
  when no summary applies.  Skewed constants therefore get different
  join orders than cold ones — the E3 "busy destinations" fix.
* **Selectivity bands and brackets** — constant-aware plans are cached
  per *selectivity band*: every constant-bearing pattern's estimated
  cardinality is bucketed into a logarithmic band
  (:func:`selectivity_band`, base :data:`SELECTIVITY_BAND_BASE`), and
  the band vector joins the cache key.  A cached plan carries, per
  step, the cardinality *bracket* (band bounds) it was costed under;
  when a later execution binds a constant whose estimate falls outside
  the bracket, the lookup misses that entry and triggers a
  constant-specialized replan — one cache entry per shape × bracket,
  counted by :attr:`PlanCache.bracket_replans`.
* **Join ordering** — BGPs of up to :data:`DP_PATTERN_LIMIT` patterns
  are planned with a Selinger-style dynamic program over pattern
  subsets (left-deep, connected-first, minimizing the classic
  Σ-of-intermediate-results cost); larger BGPs fall back to a greedy
  walk driven by the same cost model — the fallback is logged and
  recorded on :attr:`PhysicalPlan.fallback` so ``EXPLAIN`` can show
  it.  The result is an explicit
  :class:`PhysicalPlan`: ordered :class:`PlanStep`\\ s carrying the
  chosen join strategy (hash join / memoized index probe / scan) and
  the cardinality estimates that justified them.
* **Parameterized plan cache** — BGPs are canonicalized into a
  *constant-lifted signature*: subject/object constants become numbered
  parameter slots (predicates stay concrete, since statistics hang off
  them).  Structurally identical BGPs that differ only in those
  constants — e.g. the one-query-per-member-IRI workload of cube
  materialization — share a single :class:`PLAN_CACHE` entry; the
  actual constants are supplied by the evaluator at execution time.
  Cache keys still include the source graphs' mutation epochs, so an
  update naturally retires plans costed from stale statistics.

A stale or mis-estimated plan can never produce wrong results
(execution always applies the *actual* patterns); the worst case is a
suboptimal order, which ``EXPLAIN ... analyze`` makes visible as an
estimated-vs-actual gap (:mod:`repro.sparql.explain`).
"""

from __future__ import annotations

import logging
import math
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.stats import StatisticsView
from repro.rdf.terms import IRI, Literal, Term
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
    TriplePatternNode,
    Union as UnionNode,
    ValuesNode,
    Var,
)

_LOG = logging.getLogger(__name__)

#: BGPs up to this size are planned with the exact subset DP; larger
#: ones use the greedy walk over the same cost model.
DP_PATTERN_LIMIT = 12

#: Kill switch for value-aware (MCV/histogram) constant costing.
#: When False, constants are costed from averages exactly as before
#: statistics v2 — benchmarks flip this to measure what the
#: constant-aware planner is worth (``check_plans.py --skew``).
CONSTANT_AWARE = True

#: Base of the logarithmic selectivity bands: constants whose
#: estimated cardinalities fall within the same power-of-8 range share
#: one cached plan, so the cache grows per *order of magnitude* of
#: skew, not per constant.
SELECTIVITY_BAND_BASE = 8

#: Debug flag: verify every freshly planned :class:`PhysicalPlan`
#: against the IR well-formedness conditions before it enters the plan
#: cache (:mod:`repro.sparql.plan_verifier`).  Off by default — CI
#: exercises the same checks offline over a generated corpus; set the
#: ``REPRO_VERIFY_PLANS`` environment variable (any non-empty value
#: other than ``0``) to pay one verification per cache insert.
VERIFY_PLANS = os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")


def selectivity_band(estimate: float) -> int:
    """The logarithmic band of an estimated cardinality.

    Band 0 covers [0, 8), band 1 [8, 64), band 2 [64, 512) … — wide
    enough that uniform data lands in one band (plans keep being
    shared across every member IRI of a level), narrow enough that a
    hot key an order of magnitude off the average lands in another.
    """
    if estimate < SELECTIVITY_BAND_BASE:
        return 0
    return int(math.log(estimate, SELECTIVITY_BAND_BASE))


def band_bracket(band: int) -> Tuple[float, float]:
    """The ``[low, high)`` cardinality range covered by ``band``."""
    low = 0.0 if band == 0 else float(SELECTIVITY_BAND_BASE ** band)
    return low, float(SELECTIVITY_BAND_BASE ** (band + 1))

#: Static path-pattern pricing by number of known endpoints (paths are
#: deliberately priced above plain patterns of the same boundness so
#: the planner binds their endpoints first when it can).
_PATH_ESTIMATES = {2: 64.0, 1: 4096.0, 0: float(1 << 41)}


# ---------------------------------------------------------------------------
# Cost model (statistics-driven, constant-independent)
# ---------------------------------------------------------------------------


class _PatternCost:
    """Pre-resolved costing facts for one pattern.

    ``base`` is the expected scan size with only the pattern's
    constants applied.  With statistics v2 the constants are folded in
    *by value* — a constant subject/object under a concrete predicate
    is estimated from its MCV count or histogram bucket
    (``est_source`` records which estimator won); ``base_avg`` keeps
    the v1 constant-independent figure alongside so EXPLAIN can render
    the skew the averages would have hidden.  ``s_sel`` / ``o_sel`` /
    ``p_sel`` are the multipliers applied when the respective
    *variable* position is already bound; ``None`` marks a constant
    position.  ``bracket`` is the cardinality band the constant
    estimate fell into (``None`` when the pattern has no value-aware
    constant) — the validity range of any plan built from this cost.
    """

    __slots__ = ("base", "base_avg", "est_source", "bracket",
                 "s_name", "s_sel", "o_name", "o_sel",
                 "p_name", "p_sel", "is_path", "vars", "endpoint_names")

    def __init__(self) -> None:
        self.base = 0.0
        self.base_avg = 0.0
        self.est_source = "avg"
        self.bracket: Optional[Tuple[float, float]] = None
        self.s_name: Optional[str] = None
        self.s_sel = 1.0
        self.o_name: Optional[str] = None
        self.o_sel = 1.0
        self.p_name: Optional[str] = None
        self.p_sel = 1.0
        self.is_path = False
        self.vars: Set[str] = set()
        self.endpoint_names: Tuple[Optional[str], ...] = ()


_ESTIMATOR_RANK = {"avg": 0, "hist": 1, "mcv": 2}


def _constant_base(pattern: TriplePatternNode, stats: StatisticsView
                   ) -> Optional[Tuple[float, float, str]]:
    """Value-aware ``(base, base_avg, estimator)`` for a pattern whose
    subject and/or object is a constant under a concrete predicate.

    Returns ``None`` when the pattern has no value-aware constant (all
    positions variable, or a variable predicate — per-predicate
    summaries cannot apply).  Both the value-aware and the average
    figure fold multiple constants in under the usual independence
    assumption, so they stay comparable.
    """
    subject, predicate, obj = pattern.positions()
    if isinstance(predicate, Var):
        return None
    if isinstance(subject, Var) and isinstance(obj, Var):
        return None
    cardinality = float(stats.predicate_cardinality(predicate))
    s_sel = 1.0 / max(1, stats.predicate_subjects(predicate))
    o_sel = 1.0 / max(1, stats.predicate_objects(predicate))
    base = cardinality
    base_avg = cardinality
    kind = "avg"
    if not isinstance(subject, Var):
        base_avg *= s_sel
        estimate, used = stats.subject_constant_estimate(predicate, subject)
        base = base * (estimate / cardinality) if cardinality else 0.0
        if _ESTIMATOR_RANK[used] > _ESTIMATOR_RANK[kind]:
            kind = used
    if not isinstance(obj, Var):
        base_avg *= o_sel
        estimate, used = stats.object_constant_estimate(predicate, obj)
        base = base * (estimate / cardinality) if cardinality else 0.0
        if _ESTIMATOR_RANK[used] > _ESTIMATOR_RANK[kind]:
            kind = used
    return base, base_avg, kind


def _compile_cost(pattern, stats: StatisticsView) -> _PatternCost:
    cost = _PatternCost()
    cost.vars = set(pattern.variables())
    if isinstance(pattern, PathPatternNode):
        cost.is_path = True
        cost.endpoint_names = tuple(
            position.name if isinstance(position, Var) else None
            for position in pattern.endpoints())
        known = sum(1 for name in cost.endpoint_names if name is None)
        cost.base = cost.base_avg = _PATH_ESTIMATES[known]
        return cost
    subject, predicate, obj = pattern.positions()
    if isinstance(predicate, Var):
        base = float(stats.triple_count())
        s_sel = 1.0 / max(1, stats.subject_count())
        o_sel = 1.0 / max(1, stats.object_count())
        cost.p_name = predicate.name
        cost.p_sel = 1.0 / max(1, stats.predicate_count())
    else:
        base = float(stats.predicate_cardinality(predicate))
        s_sel = 1.0 / max(1, stats.predicate_subjects(predicate))
        o_sel = 1.0 / max(1, stats.predicate_objects(predicate))
    if isinstance(subject, Var):
        cost.s_name = subject.name
        cost.s_sel = s_sel
    else:
        base *= s_sel
    if isinstance(obj, Var):
        cost.o_name = obj.name
        cost.o_sel = o_sel
    else:
        base *= o_sel
    cost.base = cost.base_avg = base
    if CONSTANT_AWARE:
        aware = _constant_base(pattern, stats)
        if aware is not None:
            cost.base, cost.base_avg, cost.est_source = aware
            if cost.est_source != "avg":
                cost.bracket = band_bracket(selectivity_band(cost.base))
    return cost


def _estimate(cost: _PatternCost, bound, avg: bool = False) -> float:
    """Expected matches per input row when ``bound`` vars are bound.

    ``avg=True`` prices from the constant-independent v1 base — the
    figure the pre-v2 planner would have used — for EXPLAIN's
    ``est(avg)`` column.
    """
    if cost.is_path:
        known = sum(1 for name in cost.endpoint_names
                    if name is None or name in bound)
        return _PATH_ESTIMATES[known]
    estimate = cost.base_avg if avg else cost.base
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
    (bucket one index scan by the join key), ``"probe"`` (memoized
    per-distinct-key index probes), ``"scan"`` (no shared variables:
    one scan cross-applied) or ``"path"``.  The evaluator re-validates
    hash-vs-probe against the *actual* table size at execution time, so
    a mis-estimate degrades to the safe choice rather than a blowup.

    ``stream_safe`` marks steps the streaming pipeline may execute
    incrementally.  Every step is row-local once it has input rows; the
    only constraint is the *leading* step, whose index scan becomes the
    batch source — a property-path closure cannot be pulled in batches,
    so a path-first plan is marked not stream-safe at position 0.

    Statistics-v2 fields: ``est_source`` names the estimator that
    produced ``est_out`` (``"avg"`` / ``"hist"`` / ``"mcv"``);
    ``est_avg`` prices *this* step with the constant-independent v1
    per-row estimate while keeping the value-aware ``est_in`` of the
    steps before it — it isolates the per-step skew the averages hid,
    not a full replay of the pre-v2 planner (which might also have
    chosen a different order); ``bracket`` is the
    ``[low, high)`` cardinality band of the step's constant estimate —
    the range of constants this plan stays valid for.  A bound
    constant outside the bracket re-keys the plan-cache lookup and
    triggers a constant-specialized replan (:func:`get_plan`).
    """

    __slots__ = ("index", "strategy", "est_in", "est_out", "est_scan",
                 "stream_safe", "est_avg", "est_source", "bracket")

    def __init__(self, index: int, strategy: str, est_in: float,
                 est_out: float, est_scan: float,
                 stream_safe: bool = True,
                 est_avg: Optional[float] = None,
                 est_source: str = "avg",
                 bracket: Optional[Tuple[float, float]] = None) -> None:
        self.index = index
        self.strategy = strategy
        self.est_in = est_in
        self.est_out = est_out
        self.est_scan = est_scan
        self.stream_safe = stream_safe
        self.est_avg = est_out if est_avg is None else est_avg
        self.est_source = est_source
        self.bracket = bracket

    def __repr__(self) -> str:
        return (f"<PlanStep [{self.index}] {self.strategy} "
                f"est {self.est_in:.0f}->{self.est_out:.0f} "
                f"({self.est_source})>")


class PhysicalPlan:
    """An ordered, costed join pipeline for one BGP.

    Iterating the plan yields the pattern indices in join order (which
    keeps it drop-in for code that only needs the ordering); ``steps``
    carries the full per-step metadata for execution and EXPLAIN.

    ``bands`` is the selectivity-band vector of the constants the plan
    was costed under (set by :func:`get_plan`; ``()`` when the BGP has
    no value-aware constants) — together with the per-step
    :attr:`PlanStep.bracket` it describes when this plan may be reused
    for other constants.  ``fallback`` records a non-exhaustive
    ordering decision (the greedy walk above :data:`DP_PATTERN_LIMIT`)
    so EXPLAIN can surface what used to be a silent fallback.
    """

    __slots__ = ("order", "steps", "est_rows", "cost", "bands", "fallback")

    def __init__(self, order: List[int], steps: List[PlanStep],
                 est_rows: float, cost: float,
                 bands: tuple = (),
                 fallback: Optional[str] = None) -> None:
        self.order = order
        self.steps = steps
        self.est_rows = est_rows
        self.cost = cost
        self.bands = bands
        self.fallback = fallback

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> int:
        return self.order[index]

    @property
    def streamable(self) -> bool:
        """Whether the leading step can feed the pipeline in batches.

        This is the plan-IR flag the evaluator's streaming path
        consults (instead of re-deriving streamability from the
        patterns): the first step must be an incremental index scan,
        and every later step is row-local by construction.
        """
        return bool(self.steps) and self.steps[0].stream_safe

    def __repr__(self) -> str:
        return (f"<PhysicalPlan {self.order} cost {self.cost:.0f} "
                f"est {self.est_rows:.0f} rows>")


def _dp_order(costs: List[_PatternCost], bound0: frozenset, n: int
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


def _greedy_cost_order(costs: List[_PatternCost], bound0: frozenset, n: int
                       ) -> Tuple[float, float, Tuple[int, ...]]:
    """Greedy fallback for large BGPs, driven by the same cost model."""
    bound: Set[str] = set(bound0)
    remaining = list(range(n))
    order: List[int] = []
    rows = 1.0
    total = 0.0
    while remaining:
        connected = [i for i in remaining if _connected(costs[i], bound)]
        pool = connected or remaining
        best = min(pool, key=lambda i: _estimate(costs[i], bound))
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
        elif rows >= 64 and scan <= 4 * rows:
            strategy = "hash"
        else:
            strategy = "probe"
        steps.append(PlanStep(index, strategy, rows, out_rows, scan,
                              stream_safe=bool(steps) or not cost.is_path,
                              est_avg=rows * _estimate(cost, bound, avg=True),
                              est_source=cost.est_source,
                              bracket=cost.bracket))
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
    fallback = None
    if n <= DP_PATTERN_LIMIT:
        total, rows, order = _dp_order(costs, bound0, n)
    else:
        total, rows, order = _greedy_cost_order(costs, bound0, n)
        fallback = (f"greedy ordering: {n} patterns exceed the DP limit "
                    f"of {DP_PATTERN_LIMIT}")
        _LOG.info(
            "BGP with %d patterns exceeds DP_PATTERN_LIMIT=%d; "
            "falling back to greedy join ordering", n, DP_PATTERN_LIMIT)
    return PhysicalPlan(list(order), _build_steps(order, costs, bound0),
                        est_rows=rows, cost=total, fallback=fallback)


def plan_order(patterns: Sequence, source,
               bound_vars: Optional[set] = None) -> List[int]:
    """A full cost-based join ordering, as pattern indices."""
    return plan_physical(patterns, source,
                         frozenset(bound_vars or ())).order


def static_order(patterns: Sequence[TriplePatternNode], source,
                 bound_vars: Optional[set] = None) -> List[TriplePatternNode]:
    """A full ordering computed once (used for tooling and tests)."""
    return [patterns[index]
            for index in plan_order(patterns, source, bound_vars)]


# ---------------------------------------------------------------------------
# Whole-pattern-tree planning surface (streamability + costing)
# ---------------------------------------------------------------------------


def leading_bgp(node: PatternNode) -> Optional[BGP]:
    """The BGP whose leading index scan would feed a stream of
    ``node``, or ``None`` when the shape of ``node`` admits none.

    A streamable tree has a BGP at its left-most leaf under operators
    that consume input rows locally: FILTER, BIND, joins fed from the
    left, and — via the left-outer probe — OPTIONAL whose required side
    is itself streamable.
    """
    while isinstance(node, (Filter, Extend, Join, LeftJoin)):
        node = node.child if isinstance(node, (Filter, Extend)) \
            else node.left
    return node if isinstance(node, BGP) else None


def stream_shape(node: PatternNode) -> bool:
    """Whether the algebra *shape* of ``node`` admits batch streaming
    (see :func:`leading_bgp`).

    Whether the *plan* for that leading BGP can actually scan
    incrementally (its first step might be a property path) is recorded
    on the :class:`PhysicalPlan` IR as :attr:`PhysicalPlan.streamable`,
    so the shape test here and the plan flag together replace any
    ad-hoc re-derivation in the evaluator.
    """
    return leading_bgp(node) is not None


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
# Parameterized plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """A process-wide LRU cache of BGP physical plans.

    Keys combine the BGP's *constant-lifted* structural signature, the
    bound-variable signature it is planned under, and the source
    graphs' identity + mutation epochs.  Entries remember the constant
    parameters present when the plan was built, so hits are classified
    as **exact** (same constants — e.g. the same query text re-run) or
    **parameterized** (same shape, different constants — e.g. the next
    member IRI of a cube level reusing the plan of the previous one).

    A stale plan can never produce wrong results (execution always
    applies the *actual* patterns); caching merely skips re-running the
    planner.  Set :attr:`parameterized` to ``False`` to key plans on
    their exact constants again (used by benchmarks to measure what the
    sharing is worth).

    The cache is **thread-safe**: every lookup/insert takes a small
    internal mutex (the LRU's ``OrderedDict`` reordering is not safe
    under concurrent readers, and the snapshot-isolated endpoint runs
    SELECTs in parallel).  Two threads missing on the same key may both
    plan and both insert — the second insert wins, both plans are
    valid, and no lock is held while planning.
    """

    __slots__ = ("maxsize", "_entries", "hits_exact", "hits_parameterized",
                 "misses", "evictions", "parameterized",
                 "bracket_replans", "_shape_bands", "_lock")

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, Tuple[PhysicalPlan, tuple]]" = \
            OrderedDict()
        self.hits_exact = 0
        self.hits_parameterized = 0
        self.misses = 0
        self.evictions = 0
        #: when False, plans are keyed on their exact constants (no
        #: sharing across parameter values); diagnostic use only.
        self.parameterized = True
        #: misses caused by a bound constant whose selectivity band
        #: differs from every plan cached for the same shape — i.e.
        #: bracket-triggered constant-specialized replans.
        self.bracket_replans = 0
        #: shape key -> set of band vectors already planned (bounded;
        #: diagnostic backing for ``bracket_replans``).
        self._shape_bands: Dict[tuple, set] = {}
        self._lock = threading.Lock()

    def note_bands(self, shape_key: tuple, bands: tuple) -> None:
        """Record that ``shape_key`` is being (re)planned under
        ``bands``; counts a bracket replan when the same shape was
        already planned under a different band vector."""
        with self._lock:
            if len(self._shape_bands) > 4 * self.maxsize:
                self._shape_bands.clear()
            seen = self._shape_bands.get(shape_key)
            if seen is None:
                self._shape_bands[shape_key] = {bands}
            elif bands not in seen:
                seen.add(bands)
                self.bracket_replans += 1

    @property
    def hits(self) -> int:
        return self.hits_exact + self.hits_parameterized

    def get(self, key: tuple, params: tuple = ()) -> Optional[PhysicalPlan]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            plan, build_params = entry
            if params == build_params:
                self.hits_exact += 1
            else:
                self.hits_parameterized += 1
            return plan

    def put(self, key: tuple, plan: PhysicalPlan,
            params: tuple = ()) -> None:
        with self._lock:
            self._entries[key] = (plan, params)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits_exact = 0
            self.hits_parameterized = 0
            self.misses = 0
            self.evictions = 0
            self.bracket_replans = 0
            self._shape_bands.clear()

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "hits_exact": self.hits_exact,
                "hits_parameterized": self.hits_parameterized,
                "misses": self.misses,
                "evictions": self.evictions,
                "bracket_replans": self.bracket_replans,
            }

    def __repr__(self) -> str:
        return (f"<PlanCache {len(self._entries)}/{self.maxsize} entries, "
                f"{self.hits} hits ({self.hits_parameterized} parameterized), "
                f"{self.misses} misses>")


#: The shared plan cache used by the evaluator.
PLAN_CACHE = PlanCache()


def _term_kind(term: Term) -> tuple:
    """The plan-relevant kind of a lifted constant.

    Parameter slots must not conflate terms of different kinds: a
    literal constant can never match a subject position, a plain
    ``"5"`` and an integer ``5`` are different RDF terms with different
    index neighbourhoods, and future value-aware statistics (per-
    datatype histograms) will hang off exactly this distinction.  Two
    queries whose constants differ only in *value* still share a slot
    kind — and therefore a plan.
    """
    if isinstance(term, Literal):
        return ("lit", term.datatype.value, term.language or "")
    if isinstance(term, IRI):
        return ("iri",)
    return ("bnode",)


def _signature_and_params(node: BGP) -> Tuple[tuple, tuple]:
    """The constant-lifted structural key of a BGP plus its parameters.

    Subject/object constants (and path endpoints) are replaced by
    numbered ``("$", slot, kind)`` parameter markers — the same
    constant repeating maps to the same slot, so equality constraints
    between positions stay visible in the signature, and the marker
    carries the constant's term kind (IRI / bnode / literal datatype +
    language) so e.g. ``"5"``, ``5`` and ``<5>`` never collide on one
    cached plan.  Predicate constants stay concrete: the cost model's
    statistics hang off them, so two BGPs with different predicates
    genuinely need different plans.
    """
    cached = getattr(node, "_plan_signature", None)
    if cached is not None:
        return cached
    parts: List[tuple] = []
    params: List[Term] = []
    slot_of: Dict[Term, int] = {}

    def lift(term: Term) -> tuple:
        slot = slot_of.get(term)
        if slot is None:
            slot = len(params)
            slot_of[term] = slot
            params.append(term)
        return ("$", slot, _term_kind(term))

    def position_key(position) -> tuple:
        if isinstance(position, Var):
            return ("v", position.name)
        return lift(position)

    for pattern in node.patterns:
        if isinstance(pattern, PathPatternNode):
            parts.append(("p", position_key(pattern.subject),
                          pattern.path.to_sparql(),
                          position_key(pattern.object)))
        else:
            predicate = pattern.predicate
            predicate_key = (("v", predicate.name)
                             if isinstance(predicate, Var)
                             else ("c", predicate.n3()))
            parts.append(("t", position_key(pattern.subject), predicate_key,
                          position_key(pattern.object)))
    result = (tuple(parts), tuple(params))
    node._plan_signature = result
    return result


def bgp_signature(node: BGP) -> tuple:
    """The constant-lifted structural key for a BGP.

    Two parses of the same query text share plans through this key —
    and so do parses of *different* texts that differ only in
    subject/object constants (the parameterized-plan property).
    """
    return _signature_and_params(node)[0]


def bgp_parameters(node: BGP) -> tuple:
    """The lifted constants of a BGP, in first-occurrence order."""
    return _signature_and_params(node)[1]


def constant_bands(node: BGP, stats: StatisticsView) -> tuple:
    """The selectivity-band vector of a BGP's value-aware constants.

    One band per pattern that has a constant subject/object under a
    concrete predicate, in pattern order — the coordinates the plan
    cache distinguishes brackets by.  ``()`` when value-aware costing
    is off or no pattern qualifies, so band-free shapes keep exactly
    the pre-v2 cache behaviour.
    """
    if not CONSTANT_AWARE:
        return ()
    bands: List[int] = []
    for pattern in node.patterns:
        if isinstance(pattern, PathPatternNode):
            continue
        aware = _constant_base(pattern, stats)
        if aware is not None and aware[2] != "avg":
            bands.append(selectivity_band(aware[0]))
    return tuple(bands)


def get_plan(node: BGP, bound_names: frozenset, source) -> PhysicalPlan:
    """The cached (or freshly computed) physical plan for ``node`` when
    the variables in ``bound_names`` are already bound.

    The cache key joins the constant-lifted shape with the *selectivity
    bands* of the actual constants: binding a constant whose estimated
    cardinality falls outside the brackets of every cached plan for
    this shape misses and replans with the constant's real statistics —
    one entry per shape × bracket, so hot and cold members of the same
    level can hold different join orders side by side while everything
    in one band keeps sharing.
    """
    signature, params = _signature_and_params(node)
    relevant = frozenset(bound_names & node.variables())
    source_key = getattr(source, "cache_key", None)
    if callable(source_key):
        source_key = source_key()
    else:
        source_key = (id(source), getattr(source, "epoch", None))
    # per-node bands memo, keyed by source identity+epoch so a BGP
    # evaluated against several sources (GRAPH iteration) keeps every
    # source's bands hot; bounded because epochs retire old keys.
    # Parsed trees are shared across concurrent queries (endpoint parse
    # cache): the point reads/writes here are GIL-atomic, and two
    # threads racing to fill a key derive the same value.
    bands_cache = getattr(node, "_bands_cache", None)
    if bands_cache is None:
        bands_cache = node._bands_cache = {}
    bands_key = (source_key, CONSTANT_AWARE)
    bands = bands_cache.get(bands_key)
    if bands is None:
        bands = constant_bands(node, source.statistics())
        if len(bands_cache) >= 8:
            bands_cache.clear()
        bands_cache[bands_key] = bands
    if PLAN_CACHE.parameterized:
        shape_key = (signature, relevant, source_key)
    else:
        shape_key = (signature, params, relevant, source_key)
    key = shape_key + (bands,)
    plan = PLAN_CACHE.get(key, params)
    if plan is None:
        plan = plan_physical(node.patterns, source, relevant)
        plan.bands = bands
        if VERIFY_PLANS:
            # debug-flag hook: verify the IR before the plan becomes
            # reusable state (one check per cache insert, not per query)
            from repro.sparql.plan_verifier import verify_plan
            verify_plan(plan, node.patterns, relevant)
        PLAN_CACHE.note_bands(shape_key, bands)
        PLAN_CACHE.put(key, plan, params)
    return plan
