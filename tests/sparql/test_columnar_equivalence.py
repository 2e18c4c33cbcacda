"""Differential tests: columnar backend vs the legacy dict backend.

Identical content is loaded into two endpoints — one whose graphs are
pinned to the legacy dict-of-dict-of-set tier (compaction thresholds
pushed out of reach), one folded into the columnar tier — and every
query must return the same solutions from both.  Row *order* is
backend-defined (insertion order vs sorted column order), so
unordered queries compare as multisets; ORDER BY queries compare
exactly.

Three layers of coverage:

* an E1–E11-shaped SPARQL corpus (joins, OPTIONAL, FILTER, BIND,
  UNION, MINUS, VALUES, DISTINCT, grouped aggregation, ORDER BY);
* the LIMIT window suite re-run on the columnar backend (and
  cross-checked against the dict backend's answers as multisets);
* randomized triple-pattern fuzzing straight against the storage API
  (``match_arrays`` / ``count_ids``, against the per-tier tuple walk
  of ``tests/rdf/reference_reads.py``), including a
  post-compaction write burst so the delta overlay and tombstones sit
  on top of live columns on one side only.
"""

import random

import pytest

from repro.rdf import Literal, Namespace
import repro.rdf.graph as graph_module
from repro.sparql import LocalEndpoint

from tests.rdf.reference_reads import reference_ids
from tests.rdf.rows import id_rows
from tests.sparql.test_limit_window import DIFFERENTIAL_QUERIES, run_both

EX = Namespace("http://example.org/")

OBSERVATIONS = 400
MEMBERS = 20
LABELLED = 14
REMOVED = 12  # every 33rd observation is retracted again: tombstones


def populate(endpoint: LocalEndpoint) -> None:
    """The LIMIT window suite's fixture shape plus a named graph and some
    retractions, applied in one deterministic encode order so both
    backends assign identical term ids."""
    g = endpoint.dataset.default
    for i in range(OBSERVATIONS):
        obs = EX[f"obs{i}"]
        g.add(obs, EX.citizen, EX[f"m{i % MEMBERS}"])
        g.add(obs, EX.value, Literal(i % 50))
    for j in range(MEMBERS):
        member = EX[f"m{j}"]
        if j < LABELLED:
            g.add(member, EX.label, Literal(f"member {j}", language="en"))
        g.add(member, EX.inLevel, EX[f"level{j % 3}"])
    named = endpoint.dataset.graph(EX.extra)
    for j in range(MEMBERS):
        named.add(EX[f"m{j}"], EX.rank, Literal(j * 7 % 13))
    for i in range(0, OBSERVATIONS, 33):
        g.remove((EX[f"obs{i}"], EX.value, Literal(i % 50)))


@pytest.fixture(scope="module")
def backends():
    """(dict_endpoint, columnar_endpoint) over identical content."""
    never = 1 << 60
    saved = (graph_module.COMPACT_WRITE_THRESHOLD,
             graph_module.COMPACT_PUBLISH_THRESHOLD,
             graph_module.TOMBSTONE_THRESHOLD)
    graph_module.COMPACT_WRITE_THRESHOLD = never
    graph_module.COMPACT_PUBLISH_THRESHOLD = never
    graph_module.TOMBSTONE_THRESHOLD = never
    try:
        legacy = LocalEndpoint()
        populate(legacy)
        columnar = LocalEndpoint()
        populate(columnar)
        for graph in (columnar.dataset.default,
                      columnar.dataset.graph(EX.extra)):
            graph.compact()
            assert graph._columns is not None
        for graph in (legacy.dataset.default,
                      legacy.dataset.graph(EX.extra)):
            assert graph._columns is None, "legacy backend compacted"
        yield legacy, columnar
    finally:
        (graph_module.COMPACT_WRITE_THRESHOLD,
         graph_module.COMPACT_PUBLISH_THRESHOLD,
         graph_module.TOMBSTONE_THRESHOLD) = saved


CORPUS = [
    # E1/E2: single-pattern and star lookups
    "SELECT ?m WHERE { <http://example.org/obs7> "
    "<http://example.org/citizen> ?m }",
    "SELECT ?o ?v WHERE { ?o <http://example.org/value> ?v . "
    "?o <http://example.org/citizen> <http://example.org/m3> }",
    # E3: grouped aggregation over the observation fact shape
    "SELECT ?m (SUM(?v) AS ?total) (COUNT(?o) AS ?n) WHERE { "
    "?o <http://example.org/citizen> ?m . "
    "?o <http://example.org/value> ?v } GROUP BY ?m",
    "SELECT ?l (AVG(?v) AS ?mean) WHERE { "
    "?o <http://example.org/citizen> ?m . "
    "?o <http://example.org/value> ?v . "
    "?m <http://example.org/inLevel> ?l } GROUP BY ?l "
    "HAVING (COUNT(?o) > 10)",
    # E4/E5: dimension walk with FILTER
    "SELECT ?o ?m WHERE { ?o <http://example.org/citizen> ?m . "
    "?o <http://example.org/value> ?v . FILTER(?v >= 40) }",
    "SELECT DISTINCT ?l WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l }",
    # E6: OPTIONAL label lookup, missing labels padded
    "SELECT ?m ?lbl WHERE { ?m <http://example.org/inLevel> ?l . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } }",
    # E7: UNION across predicates
    "SELECT ?s WHERE { { ?s <http://example.org/label> ?x } UNION "
    "{ ?s <http://example.org/inLevel> <http://example.org/level1> } }",
    # E8: MINUS (members without labels)
    "SELECT ?m WHERE { ?m <http://example.org/inLevel> ?l . "
    "MINUS { ?m <http://example.org/label> ?lbl } }",
    # E9: VALUES-driven selective join
    "SELECT ?o ?m WHERE { VALUES ?m { <http://example.org/m1> "
    "<http://example.org/m15> } ?o <http://example.org/citizen> ?m }",
    # E10: BIND expression above the scan
    "SELECT ?o ?twice WHERE { ?o <http://example.org/value> ?v . "
    "BIND(?v * 2 AS ?twice) FILTER(?twice < 20) }",
    # E11: named graph + default-graph join (union default)
    "SELECT ?m ?r WHERE { ?m <http://example.org/rank> ?r . "
    "?m <http://example.org/inLevel> <http://example.org/level0> }",
    # ordered results must agree *exactly*, row for row
    "SELECT ?m ?lbl WHERE { ?m <http://example.org/label> ?lbl } "
    "ORDER BY ?m",
    "SELECT ?m (COUNT(?o) AS ?n) WHERE { "
    "?o <http://example.org/citizen> ?m } GROUP BY ?m "
    "ORDER BY DESC(?n) ?m LIMIT 8",
]

ORDERED = [q for q in CORPUS if "ORDER BY" in q]


def multiset(table):
    return sorted(repr(row) for row in table.rows)


class TestQueryCorpus:
    @pytest.mark.parametrize("query", CORPUS)
    def test_same_solutions(self, backends, query):
        legacy, columnar = backends
        left, right = legacy.select(query), columnar.select(query)
        assert left.vars == right.vars
        assert multiset(left) == multiset(right)

    @pytest.mark.parametrize("query", ORDERED)
    def test_ordered_rows_identical(self, backends, query):
        legacy, columnar = backends
        assert legacy.select(query).rows == columnar.select(query).rows

    def test_ask_agrees(self, backends):
        legacy, columnar = backends
        for query in (
                "ASK { ?m <http://example.org/label> ?lbl }",
                "ASK { <http://example.org/obs0> "
                "<http://example.org/value> ?v }"):
            assert legacy.ask(query) == columnar.ask(query)


class TestLimitSuiteOnColumnar:
    """The LIMIT window corpus — each answer the slice of its
    un-limited one — re-run against the columnar backend, and its
    answers cross-checked against the dict backend where LIMIT doesn't
    make order matter."""

    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_limit_is_a_slice_of_the_full_answer(self, backends, query):
        _, columnar = backends
        answer, oracle = run_both(columnar, query)
        assert answer.rows == oracle

    def test_unlimited_answers_match_dict_backend(self, backends):
        legacy, columnar = backends
        for query in DIFFERENTIAL_QUERIES:
            if "LIMIT" in query:
                continue
            assert multiset(legacy.select(query)) == \
                multiset(columnar.select(query))


class TestPatternFuzzing:
    """Randomized id-pattern agreement straight at the storage API."""

    def ids(self, graph):
        spo = id_rows(graph)
        subjects = sorted({t[0] for t in spo})
        predicates = sorted({t[1] for t in spo})
        objects = sorted({t[2] for t in spo})
        return subjects, predicates, objects

    def random_patterns(self, graph, rng, count):
        subjects, predicates, objects = self.ids(graph)
        pools = (subjects, predicates, objects)
        patterns = []
        for _ in range(count):
            pattern = []
            for pool in pools:
                roll = rng.random()
                if roll < 0.5:
                    pattern.append(None)
                elif roll < 0.9:
                    pattern.append(rng.choice(pool))
                else:
                    pattern.append(10**9 + rng.randrange(100))  # absent
            patterns.append(tuple(pattern))
        return patterns

    def assert_agree(self, legacy_graph, columnar_graph, patterns):
        for pattern in patterns:
            expected = sorted(reference_ids(legacy_graph, pattern))
            assert sorted(id_rows(legacy_graph, pattern)) == expected, \
                pattern
            assert sorted(id_rows(columnar_graph, pattern)) == expected, \
                pattern
            assert columnar_graph.count_ids(pattern) == len(expected)
            assert legacy_graph.count_ids(pattern) == len(expected)

    def test_compacted_graph_agrees(self, backends):
        legacy, columnar = backends
        rng = random.Random(20260808)
        patterns = self.random_patterns(legacy.dataset.default, rng, 120)
        self.assert_agree(legacy.dataset.default,
                          columnar.dataset.default, patterns)

    def test_delta_overlay_and_tombstones_agree(self, backends):
        """Post-compaction writes put one side on columns + overlay +
        tombstones while the other stays pure dict — they must still
        answer every pattern identically."""
        legacy, columnar = backends
        lg, cg = legacy.dataset.default, columnar.dataset.default
        rng = random.Random(97)
        for i in range(60):  # fresh adds land in the overlay
            triple = (EX[f"late{i}"], EX.value, Literal(i))
            lg.add(*triple)
            cg.add(*triple)
        victims = [(EX[f"obs{i}"], EX.citizen, EX[f"m{i % MEMBERS}"])
                   for i in rng.sample(range(OBSERVATIONS), 25)]
        for triple in victims:  # column hits become tombstones
            lg.remove(triple)
            cg.remove(triple)
        assert cg._tombstones, "expected tombstoned column entries"
        patterns = self.random_patterns(lg, rng, 120)
        self.assert_agree(lg, cg, patterns)
        assert len(lg) == len(cg)
        cg.compact()  # folding must change nothing observable
        self.assert_agree(lg, cg, patterns)
