"""Differential tests: morsel-parallel execution vs the serial path.

One dataset, two endpoints: a plain serial one and one with the
morsel-driven parallel executor enabled (tiny morsels and a threshold
of 1, so even this fixture-sized graph fans out).  Every query must
return the same solutions from both — parallel-eligible queries
exercise the SHM export / worker / merge pipeline, ineligible ones
prove the decline path falls back to byte-identical serial behaviour.

Coverage layers:

* the E1–E11-shaped columnar corpus (joins, OPTIONAL, FILTER, BIND,
  UNION, MINUS, VALUES, DISTINCT, grouped aggregation, ORDER BY);
* the PR 3 streamed corpus (LIMIT/OFFSET/DISTINCT/REDUCED edges);
* targeted edge cases: DISTINCT over morsel-duplicated rows, ORDER BY
  + LIMIT exactness, grouped COUNT (the id-level fast path), SUM/AVG
  aggregation (the general merge path), and the empty-match BGP;
* seeded fuzz over the morsel size, which moves every morsel boundary
  and must never change a result.

All comparisons run on one pinned, *compacted* snapshot, where the
parallel concatenation in morsel submission order reproduces the
serial row order exactly — so unordered BGP queries are compared
row-for-row here, not just as multisets.
"""

import pytest

import random

from repro.rdf import Literal
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.rdf.terms import XSD_DECIMAL, XSD_INTEGER
from repro.sparql import LocalEndpoint

from tests.sparql.test_columnar_equivalence import CORPUS, EX, populate
from tests.sparql.test_streaming_equivalence import DIFFERENTIAL_QUERIES

#: queries whose result order is pinned by the query itself
ORDERED = [q for q in CORPUS if "ORDER BY" in q]

CITIZEN = "<http://example.org/citizen>"
VALUE = "<http://example.org/value>"
LEVEL = "<http://example.org/inLevel>"

#: plain-BGP shapes that are parallel-eligible on this fixture
ELIGIBLE = [
    f"SELECT ?o ?m WHERE {{ ?o {CITIZEN} ?m }}",
    f"SELECT ?o ?m ?v WHERE {{ ?o {CITIZEN} ?m . ?o {VALUE} ?v }}",
    f"SELECT DISTINCT ?m WHERE {{ ?o {CITIZEN} ?m }}",
    f"SELECT ?m (COUNT(?o) AS ?n) WHERE {{ ?o {CITIZEN} ?m }} "
    f"GROUP BY ?m",
    f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o {CITIZEN} ?m }}",
    f"SELECT ?m (SUM(?v) AS ?total) WHERE {{ ?o {CITIZEN} ?m . "
    f"?o {VALUE} ?v }} GROUP BY ?m",
    f"SELECT ?l (COUNT(?o) AS ?n) (AVG(?v) AS ?mean) WHERE {{ "
    f"?o {CITIZEN} ?m . ?o {VALUE} ?v . ?m {LEVEL} ?l }} GROUP BY ?l",
    f"SELECT ?o ?m WHERE {{ ?o {CITIZEN} ?m }} ORDER BY ?o ?m LIMIT 37",
    f"SELECT ?m (COUNT(?o) AS ?n) WHERE {{ ?o {CITIZEN} ?m }} "
    f"GROUP BY ?m ORDER BY DESC(?n) ?m LIMIT 5",
]

#: grouped/scalar aggregate shapes exercising the partial-aggregate
#: pushdown (SUM/AVG/MIN/MAX partials merged exactly in the parent)
AGGREGATE_PUSHDOWN = [
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


@pytest.fixture(scope="module")
def endpoints():
    """(serial, parallel) endpoints over one shared, compacted dataset."""
    serial = LocalEndpoint()
    populate(serial)
    for graph in (serial.dataset.default, serial.dataset.graph(EX.extra)):
        graph.compact()
    parallel = LocalEndpoint(serial.dataset, parallel=2,
                             parallel_threshold=1)
    parallel.parallel_executor.morsel_rows = 97
    yield serial, parallel
    parallel.close()
    serial.close()
    assert SHM_SEGMENTS.empty


def multiset(table):
    return sorted(repr(row) for row in table.rows)


class TestCorpusEquivalence:
    @pytest.mark.parametrize("query", CORPUS)
    def test_columnar_corpus_same_solutions(self, endpoints, query):
        serial, parallel = endpoints
        left, right = serial.select(query), parallel.select(query)
        assert left.vars == right.vars
        assert multiset(left) == multiset(right)

    @pytest.mark.parametrize("query", ORDERED)
    def test_ordered_rows_identical(self, endpoints, query):
        serial, parallel = endpoints
        assert serial.select(query).rows == parallel.select(query).rows

    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_streamed_corpus_same_solutions(self, endpoints, query):
        serial, parallel = endpoints
        left, right = serial.select(query), parallel.select(query)
        assert left.vars == right.vars
        if "LIMIT" in query and "DISTINCT" not in query \
                and "REDUCED" not in query:
            # limited multisets are only comparable when both paths
            # enumerate in the same order — which they do here (one
            # compacted snapshot, submission-ordered merge)
            assert left.rows == right.rows
        else:
            assert multiset(left) == multiset(right)


class TestEligibleQueriesGoParallel:
    @pytest.mark.parametrize("query", ELIGIBLE)
    def test_rows_identical_and_parallel(self, endpoints, query):
        serial, parallel = endpoints
        executor = parallel.parallel_executor
        before = executor.telemetry["queries"]
        left, right = serial.select(query), parallel.select(query)
        assert left.vars == right.vars
        assert left.rows == right.rows
        assert executor.telemetry["queries"] == before + 1, \
            f"expected parallel execution, declined: {executor.last_decline}"

    def test_ineligible_shapes_decline_cleanly(self, endpoints):
        _serial, parallel = endpoints
        executor = parallel.parallel_executor
        before = executor.telemetry["queries"]
        declined = executor.telemetry["declined"]
        table = parallel.select(
            "SELECT ?m ?lbl WHERE { ?m <http://example.org/inLevel> ?l . "
            "OPTIONAL { ?m <http://example.org/label> ?lbl } }")
        assert len(table)
        assert executor.telemetry["queries"] == before
        assert executor.telemetry["declined"] > declined
        assert "BGP" in executor.last_decline

    def test_empty_match_declines_on_cardinality(self, endpoints):
        # a constant that exists in the dictionary but matches nothing:
        # the zero-row estimate keeps it serial, and both paths agree
        serial, parallel = endpoints
        query = (f"SELECT ?o WHERE {{ ?o {CITIZEN} "
                 f"<http://example.org/level0> . ?o {VALUE} ?v }}")
        assert serial.select(query).rows == parallel.select(query).rows == []
        assert "below the threshold" in parallel.parallel_executor.last_decline

    def test_distinct_spanning_morsels(self, endpoints):
        # every member recurs in many morsels; DISTINCT must still
        # dedup across the whole merged result, not per morsel
        serial, parallel = endpoints
        query = f"SELECT DISTINCT ?m WHERE {{ ?o {CITIZEN} ?m }}"
        left, right = serial.select(query), parallel.select(query)
        assert left.rows == right.rows
        assert len(right) == 20

    def test_aggregate_without_groups_on_empty_match(self, endpoints):
        # COUNT over an empty BGP yields the implicit single group on
        # both paths (this shape declines on cardinality, so it also
        # pins the decline reason)
        serial, parallel = endpoints
        query = ("SELECT (COUNT(?o) AS ?n) WHERE { "
                 "?o <http://example.org/citizen> "
                 "<http://example.org/nobody> }")
        left, right = serial.select(query), parallel.select(query)
        assert left.rows == right.rows
        assert len(right) == 1


class TestAggregatePushdown:
    """SUM/AVG/MIN/MAX partials are computed id-level in the workers
    and merged exactly in the parent — results must be byte-identical
    to the serial evaluator, and the pushdown path must actually run."""

    @pytest.mark.parametrize("query", AGGREGATE_PUSHDOWN)
    def test_rows_identical_and_pushed_down(self, endpoints, query):
        serial, parallel = endpoints
        executor = parallel.parallel_executor
        before = executor.telemetry["agg_pushdown"]
        left, right = serial.select(query), parallel.select(query)
        assert left.vars == right.vars
        assert left.rows == right.rows
        assert executor.telemetry["agg_pushdown"] == before + 1, \
            "aggregate shape fell back to full-row merge"

    def test_pushdown_survives_tiny_morsels(self, endpoints):
        # every group straddles many morsel boundaries; the merged
        # partials must still be exact (Decimal/int arithmetic, not a
        # float re-sum per morsel)
        serial, parallel = endpoints
        executor = parallel.parallel_executor
        saved = executor.morsel_rows
        try:
            executor.morsel_rows = 3
            for query in AGGREGATE_PUSHDOWN:
                assert parallel.select(query).rows \
                    == serial.select(query).rows
        finally:
            executor.morsel_rows = saved

    def test_explain_names_aggregate_spec(self, endpoints):
        _serial, parallel = endpoints
        text = parallel.explain(AGGREGATE_PUSHDOWN[2])
        line = [l for l in text.splitlines() if l.startswith("parallel:")]
        assert len(line) == 1
        assert "agg=MIN(v),MAX(v) by m" in line[0]

    def test_explain_scalar_aggregate_spec_has_no_by(self, endpoints):
        _serial, parallel = endpoints
        text = parallel.explain(AGGREGATE_PUSHDOWN[4])
        line = [l for l in text.splitlines()
                if l.startswith("parallel:")][0]
        assert "agg=SUM(v),MAX(v)" in line
        assert " by " not in line

    def test_distinct_aggregate_uses_row_merge(self, endpoints):
        # COUNT(DISTINCT ?m) cannot be merged from per-morsel partials;
        # it must fall back to the full-row merge and still agree
        serial, parallel = endpoints
        executor = parallel.parallel_executor
        before = executor.telemetry["agg_pushdown"]
        query = (f"SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{ "
                 f"?o {CITIZEN} ?m }}")
        assert serial.select(query).rows == parallel.select(query).rows
        assert executor.telemetry["agg_pushdown"] == before


    def test_order_key_ties_keep_the_first_encountered(self):
        # 1, 1.0 and "01"^^xsd:integer are one point of the ORDER BY
        # order: MIN and MAX both answer the first of them in solution
        # order, on every route — one partial (serial), one partial per
        # morsel merged in order (push-down), concatenated rows (HAVING
        # takes the general path), and inside a sub-SELECT
        serial = LocalEndpoint()
        ties = [Literal(1), Literal("1.0", datatype=XSD_DECIMAL),
                Literal("01", datatype=XSD_INTEGER)]
        serial.dataset.default.add_all(
            (EX[f"t{i}"], EX.tie, tie) for i, tie in enumerate(ties))
        serial.dataset.default.compact()
        parallel = LocalEndpoint(serial.dataset, parallel=2,
                                 parallel_threshold=1)
        executor = parallel.parallel_executor
        executor.morsel_rows = 1
        where = "WHERE { ?s <http://example.org/tie> ?v }"
        extrema = "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi)"
        try:
            first = serial.select(f"SELECT ?v {where}").rows[0][0]
            assert first in ties
            expected = [(first, first)]
            pushed = f"SELECT {extrema} {where}"
            general = f"{pushed} HAVING (COUNT(?s) > 0)"
            assert serial.select(pushed).rows == expected
            assert serial.select(general).rows == expected
            assert serial.select(
                f"SELECT ?lo ?hi WHERE {{ {{ {pushed} }} }}").rows == expected
            assert parallel.select(pushed).rows == expected
            assert executor.telemetry["agg_pushdown"] == 1
            assert parallel.select(general).rows == expected
            assert executor.telemetry["agg_pushdown"] == 1
            assert executor.telemetry["queries"] == 2
            assert executor.telemetry["morsels"] == 2 * len(ties)
        finally:
            parallel.close()
            serial.close()


class TestMorselSizeFuzz:
    def test_morsel_boundaries_never_change_results(self, endpoints):
        serial, parallel = endpoints
        executor = parallel.parallel_executor
        rng = random.Random(20260808)
        queries = [ELIGIBLE[1], ELIGIBLE[3], ELIGIBLE[5],
                   AGGREGATE_PUSHDOWN[1], AGGREGATE_PUSHDOWN[3]]
        expected = [serial.select(query).rows for query in queries]
        saved = executor.morsel_rows
        try:
            for _round in range(6):
                executor.morsel_rows = rng.choice(
                    [1 + rng.randrange(7), 13, 61, 97, 256, 1009, 1 << 20])
                for query, rows in zip(queries, expected):
                    assert parallel.select(query).rows == rows, \
                        f"morsel_rows={executor.morsel_rows}"
        finally:
            executor.morsel_rows = saved


class TestExplainIntegration:
    def test_explain_shows_fanout_for_eligible_query(self, endpoints):
        _serial, parallel = endpoints
        text = parallel.explain(ELIGIBLE[1])
        line = [l for l in text.splitlines() if l.startswith("parallel:")]
        assert len(line) == 1
        assert "workers=2" in line[0] and "morsels=" in line[0] \
            and "skew=" in line[0]

    def test_explain_shows_decline_reason(self, endpoints):
        _serial, parallel = endpoints
        text = parallel.explain(
            "SELECT ?m WHERE { ?m <http://example.org/inLevel> ?l . "
            "OPTIONAL { ?m <http://example.org/label> ?lbl } }")
        line = [l for l in text.splitlines() if l.startswith("parallel:")]
        assert len(line) == 1 and "off" in line[0]
