"""Plan-cache correctness: signatures, epoch invalidation, statistics."""

import pytest

from repro.rdf import Dataset, IRI, Literal, Namespace
from repro.sparql import LocalEndpoint
from repro.sparql.optimizer import (
    PLAN_CACHE,
    bgp_signature,
    get_plan,
    plan_physical,
)
from repro.sparql.parser import parse_query

EX = Namespace("http://example.org/")


@pytest.fixture(autouse=True)
def clean_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


def build_endpoint(n=50):
    ep = LocalEndpoint()
    g = ep.dataset.default
    for i in range(n):
        g.add(EX[f"obs{i}"], EX.value, Literal(i))
        g.add(EX[f"obs{i}"], EX.inGroup, EX[f"g{i % 3}"])
    for j in range(3):
        g.add(EX[f"g{j}"], EX.name, Literal(f"group {j}"))
    return ep


QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?o ?n WHERE { ?o ex:inGroup ?g . ?g ex:name ?n . ?o ex:value ?v }
"""


class TestPlanReuse:
    def test_repeated_query_hits_the_cache(self):
        ep = build_endpoint()
        first = ep.select(QUERY)
        hits_before = PLAN_CACHE.hits
        second = ep.select(QUERY)
        assert sorted(map(str, first.rows)) == sorted(map(str, second.rows))
        assert PLAN_CACHE.hits > hits_before

    def test_same_text_different_parse_shares_plans(self):
        # two distinct parse trees of the same text produce one entry
        ep = build_endpoint()
        ep.select(QUERY)
        entries_before = len(PLAN_CACHE)
        q1, q2 = parse_query(QUERY), parse_query(QUERY)
        assert bgp_signature(q1.pattern) == bgp_signature(q2.pattern)
        ep.select(QUERY)
        assert len(PLAN_CACHE) == entries_before

    def test_parse_cache_hit_counted(self):
        ep = build_endpoint()
        ep.select(QUERY)
        ep.select(QUERY)
        assert ep.statistics.parse_cache_hits >= 1
        assert ep.statistics.parse_cache_misses >= 1


class TestEpochInvalidation:
    def test_mutation_changes_cache_key(self):
        ep = build_endpoint()
        ep.select(QUERY)
        misses_after_first = PLAN_CACHE.misses
        # mutate the graph: the epoch moves, so the old plan key is stale
        ep.update(
            "PREFIX ex: <http://example.org/> "
            "INSERT DATA { ex:obs999 ex:inGroup ex:g0 . "
            "ex:obs999 ex:value 999 }")
        table = ep.select(QUERY)
        assert PLAN_CACHE.misses > misses_after_first
        # and the fresh plan still returns the updated answer
        assert any(str(row[0]).endswith("obs999") for row in table.rows)

    def test_results_correct_across_epochs(self):
        ep = build_endpoint(10)
        before = len(ep.select(QUERY))
        ep.update(
            "PREFIX ex: <http://example.org/> "
            "DELETE WHERE { ex:obs0 ex:inGroup ?g }")
        after = len(ep.select(QUERY))
        assert after == before - 1


class TestTwoGraphs:
    def test_same_query_over_two_datasets(self):
        ep_small = build_endpoint(5)
        ep_large = build_endpoint(40)
        small = ep_small.select(QUERY)
        large = ep_large.select(QUERY)
        assert len(small) == 5
        assert len(large) == 40
        # both sources planned and cached independently
        assert len(PLAN_CACHE) >= 2
        # re-running either still answers from its own data
        assert len(ep_small.select(QUERY)) == 5
        assert len(ep_large.select(QUERY)) == 40


class TestExplainStatistics:
    def test_explain_reports_plan_cache_hits(self):
        ep = build_endpoint()
        ep.select(QUERY)
        ep.select(QUERY)
        plan = ep.explain(QUERY)
        assert "plan cache:" in plan
        stats_line = next(line for line in plan.splitlines()
                          if line.startswith("plan cache:"))
        assert "hits=" in stats_line and "misses=" in stats_line
        hits = int(stats_line.split("hits=")[1].split()[0])
        assert hits >= 1

    def test_plain_explain_omits_stats_by_default(self):
        from repro.sparql.explain import explain
        assert "plan cache" not in explain(QUERY)


class TestPlanShape:
    def test_plan_covers_all_patterns_once(self):
        ep = build_endpoint()
        query = parse_query(QUERY)
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        order = get_plan(query.pattern, frozenset(), source)
        assert sorted(order) == [0, 1, 2]

    def test_connected_patterns_preferred(self):
        # after the selective (?g ex:name ?n) start, the disconnected
        # (?x ex:value ?v) pattern must wait for the connected one
        ep = build_endpoint()
        from repro.sparql.algebra import TriplePatternNode, Var
        patterns = [
            TriplePatternNode(Var("o"), EX.value, Var("v")),
            TriplePatternNode(Var("g"), EX.name, Var("n")),
            TriplePatternNode(Var("o"), EX.inGroup, Var("g")),
        ]
        order = plan_physical(patterns, ep.dataset.default).order
        assert order[0] == 1           # most selective first
        assert order[1] == 2           # connected via ?g
        assert order[2] == 0           # joins through ?o, never a product

    def test_bound_signature_distinguishes_plans(self):
        ep = build_endpoint()
        query = parse_query(QUERY)
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        get_plan(query.pattern, frozenset(), source)
        size_after_first = len(PLAN_CACHE)
        get_plan(query.pattern, frozenset({"o"}), source)
        assert len(PLAN_CACHE) == size_after_first + 1
