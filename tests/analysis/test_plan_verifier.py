"""Plan-verifier tests: valid plans pass, corrupted plans name the step.

A valid :class:`PhysicalPlan` is built by the real planner over a
small populated endpoint; each test then corrupts one IR invariant —
an undefined join variable, a path strategy on a triple pattern, an
unknown strategy, a broken estimate chain — and asserts the verifier
raises a typed :class:`PlanVerificationError` naming the offending
step and check.
"""

import copy
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

from repro.rdf import Literal, Namespace
from repro.sparql import LocalEndpoint
import repro.sparql.optimizer as optimizer
from repro.sparql.algebra import BGP, TriplePatternNode, Var
from repro.sparql.errors import SPARQLError
from repro.sparql.optimizer import PhysicalPlan, PlanStep, plan_physical
from analysis import plan_verifier
from analysis.plan_verifier import (
    PlanVerificationError,
    collect_violations,
    verify_plan,
    verifying,
)

EX = Namespace("http://example.org/")


@pytest.fixture(scope="module")
def endpoint():
    ep = LocalEndpoint()
    g = ep.dataset.default
    for i in range(200):
        obs = EX[f"obs{i}"]
        g.add(obs, EX.citizen, EX[f"m{i % 10}"])
        g.add(obs, EX.value, Literal(i % 50))
    for j in range(10):
        g.add(EX[f"m{j}"], EX.inLevel, EX[f"level{j % 3}"])
    return ep


@pytest.fixture(scope="module")
def patterns():
    return [
        TriplePatternNode(Var("obs"), EX.citizen, Var("m")),
        TriplePatternNode(Var("obs"), EX.value, Var("v")),
        TriplePatternNode(Var("m"), EX.inLevel, EX.level1),
    ]


@pytest.fixture()
def valid(endpoint, patterns):
    plan = plan_physical(patterns, endpoint.dataset.default)
    return copy.deepcopy(plan)


def clone(plan: PhysicalPlan) -> PhysicalPlan:
    return copy.deepcopy(plan)


def test_valid_plan_verifies(valid, patterns):
    verify_plan(valid, patterns)
    assert collect_violations(valid, patterns) == []


def test_error_is_typed(valid, patterns):
    valid.cost = float("nan")
    with pytest.raises(SPARQLError):
        verify_plan(valid, patterns)


def test_undefined_variable_names_the_step(valid, patterns):
    # make a probe/hash step join on nothing: swap its pattern for one
    # sharing no variables with what the earlier steps defined
    target = next(position for position, step in enumerate(valid.steps)
                  if step.strategy in ("probe", "hash"))
    broken_patterns = list(patterns)
    broken_patterns[valid.steps[target].index] = TriplePatternNode(
        Var("x"), EX.citizen, Var("y"))
    with pytest.raises(PlanVerificationError) as info:
        verify_plan(valid, broken_patterns)
    violations = collect_violations(valid, broken_patterns)
    undefined = [v for v in violations if v.check == "def-before-use"]
    assert undefined, violations
    assert undefined[0].step == target
    assert f"step {target}" in str(undefined[0])
    assert info.value.step is not None


def test_path_strategy_on_a_triple_pattern_names_the_step(valid, patterns):
    valid.steps[0].strategy = "path"
    with pytest.raises(PlanVerificationError) as info:
        verify_plan(valid, patterns)
    assert info.value.check == "def-before-use"
    assert info.value.step == 0
    assert "strategy 'path'" in str(info.value)


def test_plan_level_violation_names_no_step(valid, patterns):
    valid.cost = -1.0
    with pytest.raises(PlanVerificationError) as info:
        verify_plan(valid, patterns)
    assert info.value.check == "totals"
    assert info.value.step is None
    assert "cost is -1.0" in str(info.value)


def test_unknown_strategy_names_the_step(valid, patterns):
    valid.steps[1].strategy = "nested-loop"
    with pytest.raises(PlanVerificationError) as info:
        verify_plan(valid, patterns)
    assert info.value.check == "strategy"
    assert info.value.step == 1


def test_broken_estimate_chain(valid, patterns):
    valid.steps[1].est_in = valid.steps[0].est_out + 123.0
    with pytest.raises(PlanVerificationError) as info:
        verify_plan(valid, patterns)
    assert info.value.check == "estimates"
    assert info.value.step == 1


def test_negative_estimate(valid, patterns):
    valid.steps[0].est_out = -1.0
    violations = collect_violations(valid, patterns)
    assert any(v.check == "estimates" and v.step == 0 for v in violations)


def test_hash_step_below_build_threshold(valid, patterns):
    step = valid.steps[1]
    step.strategy = "hash"
    step.est_in = 2.0
    valid.steps[0].est_out = 2.0
    valid.steps[2].est_in = step.est_out
    violations = collect_violations(valid, patterns)
    assert any(v.check == "strategy-estimates" and v.step == 1
               for v in violations)


def test_order_not_a_permutation(valid, patterns):
    valid.order[0] = valid.order[1]
    violations = collect_violations(valid, patterns)
    assert any(v.check == "shape" for v in violations)


def test_est_rows_total_must_match(valid, patterns):
    valid.est_rows = valid.est_rows + 1e6
    violations = collect_violations(valid, patterns)
    assert any(v.check == "totals" for v in violations)


def test_empty_plan_is_valid():
    verify_plan(PhysicalPlan([], [], 1.0, 0.0), [])


def test_runtime_hook_fires(endpoint, patterns):
    optimizer.PLAN_CACHE.clear()
    with verifying() as verified:
        plan = optimizer.get_plan(BGP(patterns), frozenset(),
                                  endpoint.dataset.default)
    assert verified == [plan], "the planner wrapper did not verify it"
    assert optimizer.plan_physical is plan_physical  # unwrapped again


def test_corpus_runs_each_query_as_its_own_form(monkeypatch):
    """An ASK naming ``<http://ex/selected>`` and a CONSTRUCT around a
    sub-SELECT both spell "SELECT"; neither is sent to ``select``."""
    monkeypatch.setattr(plan_verifier, "corpus", lambda: [
        "ASK { <http://ex/selected> ?p ?o }",
        "CONSTRUCT { ?s ?p ?o } WHERE "
        "{ { SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 1 } }"])
    queries, plans, failures = plan_verifier.run_corpus()
    assert (queries, failures) == (2, []) and plans >= 1
