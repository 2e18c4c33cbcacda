"""Differential tests: streamed vs materialized SELECT execution.

The streaming pipeline (incremental dedup for DISTINCT/REDUCED, the
left-outer probe for OPTIONAL, OFFSET/LIMIT truncation) must be
observationally equivalent to full materialization.  These tests run
the same query down both paths — :func:`materialized` makes every query
ineligible for streaming — and compare results, over a fixture graph
shaped like the translated E3/E6 workload: observations pointing at
dimension members, members carrying (sometimes missing) labels, a level
hierarchy above them.

The probe-counter assertions then check streaming is not equivalence
by accident: the streamed run must touch strictly fewer index entries,
and on the demo cube exactly as many as pinned.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.data import small_demo
from repro.rdf import Literal, Namespace
from repro.sparql import LocalEndpoint
import repro.sparql.evaluator as evaluator_module
from repro.sparql.evaluator import PROBE_COUNTER

EX = Namespace("http://example.org/")

OBSERVATIONS = 400
MEMBERS = 20
LABELLED = 14  # members 14..19 have no label: OPTIONAL must pad None


@pytest.fixture(scope="module")
def endpoint() -> LocalEndpoint:
    """A dimension-walk fixture: obs → member → (label?, level)."""
    ep = LocalEndpoint()
    g = ep.dataset.default
    for i in range(OBSERVATIONS):
        obs = EX[f"obs{i}"]
        g.add(obs, EX.citizen, EX[f"m{i % MEMBERS}"])
        g.add(obs, EX.value, Literal(i % 50))
    for j in range(MEMBERS):
        member = EX[f"m{j}"]
        if j < LABELLED:
            g.add(member, EX.label, Literal(f"member {j}", language="en"))
        g.add(member, EX.inLevel, EX[f"level{j % 3}"])
    return ep


@contextmanager
def materialized():
    """Every SELECT inside runs materialized: no query is eligible for
    streaming (EXPLAIN imports its own ``would_stream`` and is
    unaffected)."""
    with mock.patch.object(evaluator_module, "would_stream",
                           lambda query, source=None: False):
        yield


def run_both(endpoint: LocalEndpoint, query: str):
    """(streamed, materialized) result tables for one query text."""
    streamed = endpoint.select(query)
    with materialized():
        return streamed, endpoint.select(query)


DIFFERENTIAL_QUERIES = [
    # plain LIMIT / OFFSET over a join chain
    "SELECT ?o ?m WHERE { ?o <http://example.org/citizen> ?m } LIMIT 10",
    "SELECT ?o ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 10 OFFSET 25",
    "SELECT ?o WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 17 OFFSET 3",
    # DISTINCT dimension walks (the translated E3 shape)
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 5",
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 8 OFFSET 6",
    "SELECT DISTINCT ?l WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 3",
    "SELECT DISTINCT ?m ?l WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 50",
    # OPTIONAL lookups (the translated E6/E8 shape), incl. missing labels
    "SELECT ?o ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 30",
    "SELECT ?o ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 12 OFFSET 7",
    "SELECT DISTINCT ?m ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 25",
    # OPTIONAL above a two-step required side, FILTER in the mix
    "SELECT ?o ?v ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "?o <http://example.org/value> ?v . FILTER(?v >= 10) "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 20",
    # BIND / projection expressions above the stream
    "SELECT ?o ?twice WHERE { ?o <http://example.org/value> ?v . "
    "BIND(?v * 2 AS ?twice) } LIMIT 15 OFFSET 2",
    "SELECT DISTINCT ?tag WHERE { ?o <http://example.org/citizen> ?m . "
    "BIND(STR(?m) AS ?tag) } LIMIT 9",
    "SELECT (STR(?m) AS ?tag) WHERE { "
    "?o <http://example.org/citizen> ?m } LIMIT 11",
    # DISTINCT with an expression in the projection
    "SELECT DISTINCT (STR(?m) AS ?tag) WHERE { "
    "?o <http://example.org/citizen> ?m } LIMIT 6 OFFSET 2",
    # LIMIT larger than the result: must drain without hanging
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 5000",
    "SELECT ?o ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 100000",
    # LIMIT 0 and offset beyond the result
    "SELECT ?o WHERE { ?o <http://example.org/citizen> ?m } LIMIT 0",
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 10 OFFSET 1000",
    # REDUCED: both paths use adjacent dedup, so rows agree exactly
    "SELECT REDUCED ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 12",
    "SELECT REDUCED ?l WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 6 OFFSET 2",
]


class TestStreamedMaterializedEquivalence:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_rows_identical(self, endpoint, query):
        streamed, materialized = run_both(endpoint, query)
        assert streamed.vars == materialized.vars
        assert streamed.rows == materialized.rows

    def test_multiset_equivalence_across_limits(self, endpoint):
        """Property-style sweep: every prefix length agrees."""
        base = ("SELECT DISTINCT ?m ?lbl WHERE {{ "
                "?o <http://example.org/citizen> ?m . "
                "OPTIONAL {{ ?m <http://example.org/label> ?lbl }} }} "
                "LIMIT {limit} OFFSET {offset}")
        for limit in (1, 2, 3, 5, 8, 13, 21, 34):
            for offset in (0, 1, 7):
                query = base.format(limit=limit, offset=offset)
                streamed, materialized = run_both(endpoint, query)
                assert streamed.rows == materialized.rows, query

    def test_reduced_stays_within_semantics(self, endpoint):
        """REDUCED streams with adjacent dedup: any duplicate count
        between DISTINCT's and the full multiset's is conformant."""
        where = ("WHERE { ?o <http://example.org/citizen> ?m . "
                 "?m <http://example.org/inLevel> ?l } ")
        reduced = endpoint.select(
            "SELECT REDUCED ?l " + where + "LIMIT 9")
        with materialized():
            distinct_rows = endpoint.select("SELECT DISTINCT ?l " + where)
            full = endpoint.select("SELECT ?l " + where)
        # REDUCED may eliminate any number of duplicates: between the
        # DISTINCT cardinality (3 levels) and the LIMIT
        assert len(distinct_rows) <= len(reduced) <= 9
        assert set(reduced.rows) <= set(full.rows)
        assert len(set(reduced.rows)) <= len(distinct_rows)

    def test_reduced_fully_dedups_grouped_input(self, endpoint):
        """Adjacent dedup removes *all* duplicates when the input is
        already grouped — here one subject's rows arrive together."""
        streamed = endpoint.select(
            "SELECT REDUCED ?m WHERE { <http://example.org/obs0> "
            "<http://example.org/citizen> ?m } LIMIT 10")
        assert len(streamed) == 1


def entries_both(endpoint: LocalEndpoint, query: str):
    """``(entries, table)`` of the streamed and the materialized run."""
    with PROBE_COUNTER as counter:
        streamed = endpoint.select(query)
    streamed_entries = counter.entries
    with materialized(), PROBE_COUNTER as counter:
        full = endpoint.select(query)
    return (streamed_entries, streamed), (counter.entries, full)


class TestStreamingDoesLessWork:
    @pytest.mark.parametrize("query", [
        "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
        "LIMIT 3",
        "SELECT ?o ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
        "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 10",
        "SELECT REDUCED ?m WHERE { ?o <http://example.org/citizen> ?m } "
        "LIMIT 4",
        "SELECT ?o ?v WHERE { ?o <http://example.org/citizen> ?m . "
        "?o <http://example.org/value> ?v } LIMIT 5",
    ])
    def test_streaming_touches_strictly_fewer_entries(self, endpoint, query):
        (streamed_entries, streamed), (full_entries, full) = \
            entries_both(endpoint, query)
        assert streamed.rows == full.rows
        assert streamed_entries < full_entries

    def test_path_first_query_is_not_counted_as_streamed(self, endpoint):
        """A path-first plan cannot scan incrementally: the query must
        fall back to materialization *and* not report itself streamed."""
        before = endpoint.statistics.streamed_selects
        table = endpoint.select(
            "SELECT ?a ?b WHERE { ?a <http://example.org/citizen>+ ?b } "
            "LIMIT 5")
        assert len(table) == 5
        assert endpoint.statistics.streamed_selects == before

    def test_streamed_telemetry_reported(self, endpoint):
        endpoint.reset_statistics()
        table = endpoint.select(
            "SELECT DISTINCT ?m WHERE { "
            "?o <http://example.org/citizen> ?m } LIMIT 4")
        assert len(table) == 4
        assert endpoint.statistics.streamed_selects == 1
        assert endpoint.statistics.streamed_batches >= 1
        # early termination: far fewer solutions pulled than the 400
        # observations the full walk would materialize
        assert 0 < endpoint.statistics.streamed_rows < OBSERVATIONS

    def test_offset_pulls_offset_plus_limit_rows(self, endpoint):
        """Regression: the streamed prefix must cover OFFSET + LIMIT
        rows *before* slicing — a short pull would return rows from
        the wrong window."""
        query = ("SELECT ?o ?m WHERE { "
                 "?o <http://example.org/citizen> ?m } LIMIT 5 OFFSET 90")
        streamed, materialized = run_both(endpoint, query)
        assert len(streamed) == 5
        assert streamed.rows == materialized.rows


#: The two algebra shapes the translated E3 / E6 / E8 queries lean on —
#: a DISTINCT dimension walk and an OPTIONAL label lookup, both under
#: LIMIT — with what each reads on the 2 000-observation demo cube:
#: ``(streamed entries, materialized entries, streamed rows pulled)``.
#: A change to the join strategy rule or the streaming batch size moves
#: them on purpose.
DEMO_STREAM_QUERIES = {
    "distinct_limit": ("""
        SELECT DISTINCT ?c WHERE {
            ?obs <http://eurostat.linked-statistics.org/property#citizen> ?c
        } LIMIT 10""", (1600, 2000, 1600)),
    "optional_limit": ("""
        SELECT ?obs ?label WHERE {
            ?obs <http://eurostat.linked-statistics.org/property#citizen> ?c
            OPTIONAL {
                ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label
            }
        } LIMIT 50""", (150, 2086, 64)),
}


@pytest.fixture(scope="module")
def demo_endpoint() -> LocalEndpoint:
    return small_demo(observations=2000).endpoint


@pytest.mark.parametrize("name", sorted(DEMO_STREAM_QUERIES))
def test_demo_stream_reads_pinned_entries(demo_endpoint, name):
    """The demo-scale stream: one streamed SELECT, the materialized
    rows, and exactly the pinned entries and rows pulled."""
    query, pinned = DEMO_STREAM_QUERIES[name]
    demo_endpoint.reset_statistics()
    (streamed_entries, streamed), (full_entries, full) = \
        entries_both(demo_endpoint, query)
    statistics = demo_endpoint.statistics
    assert statistics.streamed_selects == 1
    assert streamed.rows == full.rows
    assert (streamed_entries, full_entries,
            statistics.streamed_rows) == pinned
