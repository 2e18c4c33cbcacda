"""Differential tests: forced join strategies vs the cost-based choice.

A join step that shares a variable with the rows bound so far finds its
matches one of two ways: one scan of the pattern's whole index range
("hash") or one index probe per distinct key ("probe").
``JoinSteps._prefer_hash`` chooses between them by cost.
``tests/sparql/test_join_kernel.py`` checks single steps against a
reference join; these tests check whole queries through the endpoint:
forcing every keyed step to scan, forcing every one to probe, or
flipping a seeded coin per step must return exactly the rows the
cost-based choice returns.

Coverage layers:

* the E1–E11-shaped columnar corpus (joins, OPTIONAL, FILTER, BIND,
  UNION, MINUS, VALUES, DISTINCT, grouped aggregation, ORDER BY);
* the LIMIT window corpus (LIMIT/OFFSET/DISTINCT/REDUCED edges);
* multi-pattern joins, each shown to take both forced strategies;
* grouped and scalar aggregates, including ORDER BY ties in MIN/MAX;
* ``explain(analyze=True)``'s strategy annotations.

Every query runs on one compacted dataset, and both strategies gather
a step's matches in table-row order, so results compare row for row,
not just as multisets.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.rdf import Literal
from repro.rdf.terms import XSD_DECIMAL, XSD_INTEGER
from repro.sparql import LocalEndpoint
from repro.sparql.evaluator_steps import JoinSteps

from tests.sparql.test_columnar_equivalence import CORPUS, EX, populate
from tests.sparql.test_limit_window import DIFFERENTIAL_QUERIES

#: queries whose result order is pinned by the query itself
ORDERED = [q for q in CORPUS if "ORDER BY" in q]

CITIZEN = "<http://example.org/citizen>"
VALUE = "<http://example.org/value>"
LEVEL = "<http://example.org/inLevel>"
LABEL = "<http://example.org/label>"
RANK = "<http://example.org/rank>"

#: multi-pattern shapes with at least one keyed join step each
JOINED = [
    f"SELECT ?o ?m ?v WHERE {{ ?o {CITIZEN} ?m . ?o {VALUE} ?v }}",
    f"SELECT ?o ?m ?l WHERE {{ ?o {CITIZEN} ?m . ?m {LEVEL} ?l }}",
    f"SELECT DISTINCT ?l WHERE {{ ?o {CITIZEN} ?m . ?m {LEVEL} ?l }}",
    f"SELECT ?m (SUM(?v) AS ?total) WHERE {{ ?o {CITIZEN} ?m . "
    f"?o {VALUE} ?v }} GROUP BY ?m",
    f"SELECT ?l (COUNT(?o) AS ?n) (AVG(?v) AS ?mean) WHERE {{ "
    f"?o {CITIZEN} ?m . ?o {VALUE} ?v . ?m {LEVEL} ?l }} GROUP BY ?l",
    f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o {CITIZEN} ?m . ?o {VALUE} ?v }}",
    f"SELECT ?o ?v WHERE {{ ?o {CITIZEN} ?m . ?o {VALUE} ?v }} "
    f"ORDER BY DESC(?v) ?o LIMIT 37",
    f"SELECT ?o ?lbl WHERE {{ ?o {CITIZEN} ?m . "
    f"OPTIONAL {{ ?m {LABEL} ?lbl }} }}",
    f"SELECT ?o ?m WHERE {{ ?o {CITIZEN} ?m . ?o {VALUE} ?v . "
    f"FILTER(?v < 5) }}",
    f"SELECT ?m ?r ?l WHERE {{ ?m {RANK} ?r . ?m {LEVEL} ?l }}",
    f"SELECT ?o ?v WHERE {{ VALUES ?m {{ <http://example.org/m2> "
    f"<http://example.org/m9> }} ?o {CITIZEN} ?m . ?o {VALUE} ?v }}",
]

#: grouped and scalar aggregate shapes over a keyed join
AGGREGATES = [
    f"SELECT ?m (SUM(?v) AS ?total) WHERE {{ ?o {CITIZEN} ?m . "
    f"?o {VALUE} ?v }} GROUP BY ?m",
    f"SELECT ?m (AVG(?v) AS ?mean) WHERE {{ ?o {CITIZEN} ?m . "
    f"?o {VALUE} ?v }} GROUP BY ?m",
    f"SELECT ?m (MIN(?v) AS ?low) (MAX(?v) AS ?high) WHERE {{ "
    f"?o {CITIZEN} ?m . ?o {VALUE} ?v }} GROUP BY ?m",
    f"SELECT ?l (COUNT(?o) AS ?n) (SUM(?v) AS ?total) (AVG(?v) AS ?mean) "
    f"(MIN(?v) AS ?low) (MAX(?v) AS ?high) WHERE {{ ?o {CITIZEN} ?m . "
    f"?o {VALUE} ?v . ?m {LEVEL} ?l }} GROUP BY ?l",
    f"SELECT (SUM(?v) AS ?total) (MAX(?v) AS ?high) WHERE {{ "
    f"?o {CITIZEN} ?m . ?o {VALUE} ?v }}",
]

COST_BASED = JoinSteps._prefer_hash


@contextmanager
def forced(choose):
    """Every keyed join step asks ``choose()`` instead of the cost model
    (True scans the range, False probes per key); yields the list of
    answers it gave, one per keyed step run."""
    answers = []

    def prefer_hash(self, source, base, rows):
        answers.append(choose())
        return answers[-1]

    with mock.patch.object(JoinSteps, "_prefer_hash", prefer_hash):
        yield answers


def three_ways(endpoint, query):
    """``query`` under the cost model, every keyed step scanning and
    every keyed step probing: ``(tables, answers of the two forced
    runs)``."""
    tables = [endpoint.select(query)]
    answers = []
    for scan in (True, False):
        with forced(lambda: scan) as given:
            tables.append(endpoint.select(query))
        answers.append(given)
    return tables, answers


def assert_identical(tables):
    cost, *others = tables
    for other in others:
        assert other.vars == cost.vars
        assert other.rows == cost.rows


@pytest.fixture(scope="module")
def endpoint():
    """The columnar-corpus content, every graph compacted."""
    endpoint = LocalEndpoint()
    populate(endpoint)
    for graph in (endpoint.dataset.default,
                  endpoint.dataset.graph(EX.extra)):
        graph.compact()
    yield endpoint
    endpoint.close()


class TestCorpusEquivalence:
    @pytest.mark.parametrize("query", CORPUS)
    def test_columnar_corpus_same_solutions(self, endpoint, query):
        tables, _answers = three_ways(endpoint, query)
        assert_identical(tables)

    @pytest.mark.parametrize("query", ORDERED)
    def test_ordered_rows_identical(self, endpoint, query):
        expected = endpoint.select(query).rows
        rng = random.Random(query)
        for _round in range(4):
            with forced(lambda: rng.random() < 0.5):
                assert endpoint.select(query).rows == expected

    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_limit_corpus_same_solutions(self, endpoint, query):
        tables, _answers = three_ways(endpoint, query)
        assert_identical(tables)

    def test_ask_agrees(self, endpoint):
        for query in (f"ASK {{ ?o {CITIZEN} ?m . ?m {LABEL} ?lbl }}",
                      f"ASK {{ ?o {CITIZEN} ?m . ?m {RANK} ?o }}"):
            expected = endpoint.ask(query)
            for scan in (True, False):
                with forced(lambda: scan):
                    assert endpoint.ask(query) == expected


class TestKeyedJoinsTakeEitherStrategy:
    @pytest.mark.parametrize("query", JOINED)
    def test_rows_identical_under_both(self, endpoint, query):
        tables, answers = three_ways(endpoint, query)
        assert_identical(tables)
        assert tables[0].rows
        scanned, probed = answers
        assert scanned and all(scanned), "no keyed step scanned"
        assert probed and not any(probed), "no keyed step probed"

    def test_empty_first_step_asks_no_strategy(self, endpoint):
        # a constant that is interned but matches nothing: the join
        # stops at the empty first step, whatever the strategy
        query = (f"SELECT ?o WHERE {{ ?o {CITIZEN} "
                 f"<http://example.org/level0> . ?o {VALUE} ?v }}")
        tables, answers = three_ways(endpoint, query)
        assert [table.rows for table in tables] == [[], [], []]
        assert answers == [[], []]

    def test_distinct_over_every_key(self, endpoint):
        # every member is a join key of many rows; DISTINCT keeps one
        query = (f"SELECT DISTINCT ?m WHERE {{ ?o {CITIZEN} ?m . "
                 f"?o {VALUE} ?v }}")
        tables, _answers = three_ways(endpoint, query)
        assert_identical(tables)
        assert len(tables[0]) == 20

    def test_aggregate_without_groups_on_empty_match(self, endpoint):
        # COUNT over an empty join yields the implicit single group
        query = (f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o {CITIZEN} "
                 f"<http://example.org/nobody> . ?o {VALUE} ?v }}")
        tables, _answers = three_ways(endpoint, query)
        assert_identical(tables)
        assert tables[0].rows == [(Literal(0),)]


class TestAggregates:
    @pytest.mark.parametrize("query", AGGREGATES)
    def test_rows_identical_under_both(self, endpoint, query):
        tables, answers = three_ways(endpoint, query)
        assert_identical(tables)
        assert all(answers)

    def test_distinct_aggregate(self, endpoint):
        query = (f"SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{ "
                 f"?o {CITIZEN} ?m . ?o {VALUE} ?v }}")
        tables, _answers = three_ways(endpoint, query)
        assert_identical(tables)
        assert tables[0].rows == [(Literal(20),)]

    def test_order_key_ties_keep_the_first_encountered(self):
        # 1, 1.0 and "01"^^xsd:integer are one point of the ORDER BY
        # order: MIN and MAX both answer the first of them in solution
        # order, whether the fold runs on the plain aggregate, behind a
        # HAVING or inside a sub-SELECT
        endpoint = LocalEndpoint()
        ties = [Literal(1), Literal("1.0", datatype=XSD_DECIMAL),
                Literal("01", datatype=XSD_INTEGER)]
        endpoint.dataset.default.add_all(
            (EX[f"t{i}"], EX.tie, tie) for i, tie in enumerate(ties))
        endpoint.dataset.default.compact()
        where = "WHERE { ?s <http://example.org/tie> ?v }"
        extrema = "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi)"
        try:
            first = endpoint.select(f"SELECT ?v {where}").rows[0][0]
            assert first in ties
            expected = [(first, first)]
            plain = f"SELECT {extrema} {where}"
            assert endpoint.select(plain).rows == expected
            assert endpoint.select(
                f"{plain} HAVING (COUNT(?s) > 0)").rows == expected
            assert endpoint.select(
                f"SELECT ?lo ?hi WHERE {{ {{ {plain} }} }}").rows == expected
        finally:
            endpoint.close()


class TestStrategyFuzz:
    def test_a_coin_per_step_never_changes_results(self, endpoint):
        rng = random.Random(20260808)
        queries = [JOINED[1], JOINED[4], JOINED[7], AGGREGATES[1],
                   AGGREGATES[3]]
        expected = [endpoint.select(query).rows for query in queries]
        flips = []
        for _round in range(6):
            with forced(lambda: rng.random() < 0.5) as given:
                for query, rows in zip(queries, expected):
                    assert endpoint.select(query).rows == rows
            flips.extend(given)
        assert True in flips and False in flips


class TestExplainIntegration:
    @staticmethod
    def strategies(text):
        """The ``[strategy]`` tags of an analyzed plan's join steps."""
        return [line.rsplit("[", 1)[1].rstrip("]")
                for line in text.splitlines()
                if "actual" in line and line.rstrip().endswith("]")]

    def test_explain_names_the_forced_strategy(self, endpoint):
        query = JOINED[4]
        for scan, name in ((True, "hash"), (False, "probe")):
            with forced(lambda: scan):
                tags = self.strategies(endpoint.explain(query, analyze=True))
            assert tags[0] == "scan"
            assert tags[1:] == [name] * (len(tags) - 1) and len(tags) == 3

    def test_explain_names_the_cost_based_choice(self, endpoint):
        query = JOINED[4]
        chosen = []

        def recording(self, source, base, rows):
            chosen.append(COST_BASED(self, source, base, rows))
            return chosen[-1]

        with mock.patch.object(JoinSteps, "_prefer_hash", recording):
            tags = self.strategies(endpoint.explain(query, analyze=True))
        assert tags[1:] == ["hash" if scan else "probe" for scan in chosen]
