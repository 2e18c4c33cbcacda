"""Static verifier for the :class:`PhysicalPlan` IR, and its corpus run.

The optimizer's plan objects are a small intermediate representation
(ordered :class:`PlanStep`\\ s with strategies and chained estimates)
that the evaluator *trusts*: a malformed plan does not crash — it
silently joins in a wrong order or joins on a key no earlier step
bound.  This module checks the IR's well-formedness conditions
mechanically, in the spirit
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
  build-side conditions (``optimizer.HASH_MIN_ROWS`` and
  ``HASH_SCAN_FACTOR``);
* **totals** — ``est_rows`` matches the final ``est_out`` and ``cost``
  is a finite non-negative number.

Violations raise :class:`PlanVerificationError` naming the offending
step.  As a CLI the module runs the checks over the repository's
generated plan corpus: every E1–E11-shaped query from the columnar
differential suite plus the LIMIT / DISTINCT / REDUCED corpus runs
against a populated endpoint under :func:`verifying`, so each freshly
planned plan is checked before it enters the plan cache.  Exit status
0 when every plan verifies; 1 with the offending query and step
otherwise.

Usage::

    python tools/analysis/plan_verifier.py
"""

from __future__ import annotations

import math
import pathlib
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.sparql import optimizer  # noqa: E402
from repro.sparql.algebra import PathPatternNode  # noqa: E402
from repro.sparql.errors import SPARQLError  # noqa: E402
from repro.sparql.optimizer import (  # noqa: E402
    HASH_MIN_ROWS, HASH_SCAN_FACTOR, PhysicalPlan)

#: Relative tolerance for float comparisons between chained estimates.
REL_TOL = 1e-6

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
        for field in ("est_in", "est_out", "est_scan"):
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


@contextmanager
def verifying() -> Iterator[List[PhysicalPlan]]:
    """Verify every plan ``optimizer.plan_physical`` makes inside the
    block before anyone sees it; yields the list of verified plans."""
    planner = optimizer.plan_physical
    verified: List[PhysicalPlan] = []

    def checked(patterns: Sequence, source,
                bound_vars: Optional[frozenset] = None) -> PhysicalPlan:
        plan = planner(patterns, source, bound_vars)
        verify_plan(plan, patterns, frozenset(bound_vars or ()))
        verified.append(plan)
        return plan

    optimizer.plan_physical = checked
    try:
        yield verified
    finally:
        optimizer.plan_physical = planner


def corpus() -> List[str]:
    """The generated plan corpus: E1–E11 shapes + differential suite."""
    from tests.sparql.test_columnar_equivalence import CORPUS
    from tests.sparql.test_limit_window import DIFFERENTIAL_QUERIES
    queries: List[str] = []
    for query in list(CORPUS) + list(DIFFERENTIAL_QUERIES):
        if query not in queries:
            queries.append(query)
    return queries


def run_corpus() -> Tuple[int, int, List[str]]:
    """``(queries, plans_verified, failures)`` over the full corpus."""
    from repro.sparql import LocalEndpoint
    from tests.sparql.test_columnar_equivalence import populate

    endpoint = LocalEndpoint()
    populate(endpoint)
    failures: List[str] = []
    queries = corpus()
    with verifying() as verified:
        for query in queries:
            try:
                endpoint.query(query)
            except PlanVerificationError as error:
                failures.append(f"{error}\n  query: {' '.join(query.split())}")
    return len(queries), len(verified), failures


def main() -> int:
    queries, plans, failures = run_corpus()
    for failure in failures:
        print(f"plan-verifier FAILURE: {failure}")
    print(f"plan-verifier: {queries} corpus queries, {plans} plan(s) "
          f"verified, {len(failures)} failure(s)")
    if plans == 0:
        print("plan-verifier FAILURE: no plans were verified — the "
              "planner wrapper did not fire")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
