"""Static verifier for the :class:`PhysicalPlan` IR.

The optimizer's plan objects are a small intermediate representation
(ordered :class:`PlanStep`\\ s with strategies, chained estimates
and stream flags) that the evaluator *trusts*: a malformed plan does
not crash — it silently joins in a wrong order, joins on a key no
earlier step bound, or streams a non-streamable step.  This module
checks the IR's well-formedness conditions mechanically, in the spirit
of QB4OLAP's well-formedness rules over cube schemas, applied to our
own plan algebra:

* **shape** — ``order`` is a duplicate-free permutation of the pattern
  indices and ``steps`` mirrors it one-to-one;
* **def-before-use** — a ``probe``/``hash`` step must share at least
  one variable with the bindings produced by earlier steps (its join
  key must be *defined* before use), a ``scan`` step must share none
  (it is the explicit Cartesian choice), and a ``path`` step must sit
  on a path pattern;
* **estimate chaining** — ``est_in`` of step *k* equals ``est_out`` of
  step *k−1* (``1.0`` at the head), every estimate is finite and
  non-negative;
* **strategy↔estimate** — a ``hash`` step implies the planner's own
  build-side conditions (``est_in ≥ 64`` and
  ``est_scan ≤ 4·est_in``);
* **stream flags** — only the leading step may be stream-unsafe, and
  only when it is a path closure; ``plan.streamable`` must agree with
  the flags;
* **totals** — ``est_rows`` matches the final ``est_out`` and ``cost``
  is a finite non-negative number.

Violations raise :class:`PlanVerificationError` naming the offending
step.  The verifier runs in two places: offline in CI over a generated
plan corpus (``tools/analysis/plan_verifier.py``), and at plan-cache
insert time when the ``REPRO_VERIFY_PLANS`` environment variable is
set (the debug hook in :func:`repro.sparql.optimizer.get_plan`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set

from repro.sparql.algebra import PathPatternNode, Var
from repro.sparql.errors import SPARQLError

#: Relative tolerance for float comparisons between chained estimates.
REL_TOL = 1e-6

#: The planner's hash-build thresholds (mirrors ``_build_steps``).
HASH_MIN_ROWS = 64.0
HASH_SCAN_FACTOR = 4.0

VALID_STRATEGIES = ("hash", "probe", "scan", "path")


class PlanVerificationError(SPARQLError):
    """A physical plan violated an IR well-formedness condition.

    ``step`` is the 0-based position of the offending step in the plan
    (``None`` for plan-level violations such as a wrong total);
    ``check`` names the violated condition machine-readably.
    """

    def __init__(self, message: str, *, step: Optional[int] = None,
                 check: str = "plan") -> None:
        super().__init__(message)
        self.step = step
        self.check = check


def _close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=1e-9)


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def verify_plan(plan, patterns: Optional[Sequence] = None,
                bound_names: frozenset = frozenset()) -> None:
    """Raise :class:`PlanVerificationError` on the first violation.

    ``patterns`` enables the pattern-aware checks (def-before-use,
    strategy↔variable consistency); without it only the intrinsic IR
    invariants are checked.  ``bound_names`` are the variables already
    bound by the surrounding pipeline when the plan was built.
    """
    violations = collect_violations(plan, patterns, bound_names)
    if violations:
        first = violations[0]
        raise first


def collect_violations(plan, patterns: Optional[Sequence] = None,
                       bound_names: frozenset = frozenset()
                       ) -> List[PlanVerificationError]:
    """All violations of ``plan``, in check order (empty when valid)."""
    out: List[PlanVerificationError] = []

    def flag(message: str, step: Optional[int] = None,
             check: str = "plan") -> None:
        prefix = f"step {step}: " if step is not None else ""
        out.append(PlanVerificationError(
            f"invalid PhysicalPlan: {prefix}{message}",
            step=step, check=check))

    order = list(plan.order)
    steps = list(plan.steps)

    # -- shape ---------------------------------------------------------------
    if len(order) != len(steps):
        flag(f"order has {len(order)} entries but {len(steps)} steps",
             check="shape")
    if len(set(order)) != len(order):
        flag(f"order {order} repeats a pattern index", check="shape")
    if patterns is not None and sorted(order) != list(range(len(patterns))):
        flag(f"order {order} is not a permutation of the "
             f"{len(patterns)} pattern indices", check="shape")
    for position, step in enumerate(steps):
        if position < len(order) and step.index != order[position]:
            flag(f"step.index {step.index} disagrees with order entry "
                 f"{order[position]}", step=position, check="shape")
        if step.strategy not in VALID_STRATEGIES:
            flag(f"unknown strategy {step.strategy!r}", step=position,
                 check="strategy")

    # -- estimate chaining ---------------------------------------------------
    expected_in = 1.0
    for position, step in enumerate(steps):
        for field in ("est_in", "est_out", "est_scan", "est_avg"):
            value = getattr(step, field)
            if not _finite(value) or value < 0:
                flag(f"{field} is {value!r}, expected a finite "
                     f"non-negative number", step=position,
                     check="estimates")
        if _finite(step.est_in) and not _close(step.est_in, expected_in):
            flag(f"est_in {step.est_in!r} breaks the chain (previous "
                 f"est_out was {expected_in!r})", step=position,
                 check="estimates")
        expected_in = step.est_out

    # -- strategy <-> estimate invariants ------------------------------------
    for position, step in enumerate(steps):
        if step.strategy == "hash" and _finite(step.est_in) \
                and _finite(step.est_scan):
            if step.est_in < HASH_MIN_ROWS * (1 - REL_TOL):
                flag(f"hash build with est_in {step.est_in!r} below the "
                     f"planner threshold {HASH_MIN_ROWS}", step=position,
                     check="strategy-estimates")
            if step.est_scan > HASH_SCAN_FACTOR * step.est_in \
                    * (1 + REL_TOL):
                flag(f"hash build scans {step.est_scan!r} which exceeds "
                     f"{HASH_SCAN_FACTOR}x the input rows "
                     f"{step.est_in!r}", step=position,
                     check="strategy-estimates")

    # -- def-before-use / strategy-vs-pattern --------------------------------
    if patterns is not None and sorted(order) == list(range(len(patterns))):
        bound: Set[str] = set(bound_names)
        for position, step in enumerate(steps):
            pattern = patterns[step.index]
            names = set(pattern.variables())
            is_path = isinstance(pattern, PathPatternNode)
            if is_path and step.strategy != "path":
                flag(f"path pattern executed with strategy "
                     f"{step.strategy!r}", step=position,
                     check="def-before-use")
            if not is_path:
                shared = names & bound
                if step.strategy in ("probe", "hash") and not shared:
                    flag(f"{step.strategy} step uses no variable "
                         f"defined by earlier steps (undefined join "
                         f"key; bound here: {sorted(bound) or '{}'})",
                         step=position, check="def-before-use")
                if step.strategy == "scan" and shared:
                    flag(f"scan step silently re-joins already-bound "
                         f"variable(s) {sorted(shared)}",
                         step=position, check="def-before-use")
                if step.strategy == "path":
                    flag("triple pattern executed with strategy "
                         "'path'", step=position, check="def-before-use")
            bound |= names

    # -- stream flags --------------------------------------------------------
    for position, step in enumerate(steps):
        if position > 0 and not step.stream_safe:
            flag("only the leading step may be stream-unsafe",
                 step=position, check="stream-flags")
        if position == 0 and not step.stream_safe \
                and step.strategy != "path":
            flag(f"leading {step.strategy} step marked stream-unsafe "
                 f"(only path closures are)", step=position,
                 check="stream-flags")
    streamable = bool(steps) and bool(steps[0].stream_safe)
    if bool(plan.streamable) != streamable:
        flag(f"plan.streamable is {plan.streamable!r} but the step "
             f"flags imply {streamable!r}", check="stream-flags")

    # -- totals --------------------------------------------------------------
    if not _finite(plan.est_rows) or plan.est_rows < 0:
        flag(f"est_rows is {plan.est_rows!r}", check="totals")
    elif steps and _finite(steps[-1].est_out) \
            and not _close(plan.est_rows, steps[-1].est_out):
        flag(f"est_rows {plan.est_rows!r} disagrees with the final "
             f"step's est_out {steps[-1].est_out!r}", check="totals")
    if not _finite(plan.cost) or plan.cost < 0:
        flag(f"cost is {plan.cost!r}", check="totals")

    return out


__all__ = ["PlanVerificationError", "verify_plan", "collect_violations",
           "REL_TOL", "HASH_MIN_ROWS", "HASH_SCAN_FACTOR"]
