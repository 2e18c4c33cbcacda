"""LIMIT / OFFSET / DISTINCT / REDUCED against their un-limited answers.

A SELECT without ORDER BY dedups plain variables on term ids and cuts
its ``OFFSET + LIMIT`` window from the id table before any row is
decoded or any projection expression evaluated.  These tests hold that
tail to an oracle built from the plain query: :func:`run_both` answers
the query and the same slice of its un-limited, un-deduplicated answer,
deduplicated in Python — DISTINCT keeps each row's first occurrence,
REDUCED drops a row equal to the one before it.  The fixture graph is
shaped like the translated E3/E6 workload: observations pointing at
dimension members, members carrying (sometimes missing) labels, a
level hierarchy above them.

The decode-counting tests then check that the window is cut before
decoding: a LIMIT decodes only the rows it returns.
"""

import re

import pytest

from repro.data import small_demo
from repro.rdf import Literal, Namespace
from repro.rdf.dictionary import DictionaryOverlay
from repro.sparql import LocalEndpoint

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


_MODIFIER = re.compile(r"\s(LIMIT|OFFSET)\s+(\d+)")
_DEDUP = re.compile(r"SELECT\s+(DISTINCT|REDUCED)\s")


def oracle_rows(endpoint: LocalEndpoint, query: str) -> list:
    """The rows ``query`` owes, from its plain un-limited form: the
    dedup it names applied in Python, then its OFFSET / LIMIT slice."""
    window = {name: int(value) for name, value in _MODIFIER.findall(query)}
    dedup = _DEDUP.search(query)
    plain = _DEDUP.sub("SELECT ", _MODIFIER.sub("", query))
    rows = endpoint.select(plain).rows
    if dedup and dedup.group(1) == "DISTINCT":
        rows = list(dict.fromkeys(rows))
    elif dedup:
        rows = [row for index, row in enumerate(rows)
                if index == 0 or row != rows[index - 1]]
    offset = window.get("OFFSET", 0)
    limit = window.get("LIMIT")
    return rows[offset:None if limit is None else offset + limit]


def run_both(endpoint: LocalEndpoint, query: str):
    """``(answer, oracle rows)`` for one query text."""
    return endpoint.select(query), oracle_rows(endpoint, query)


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
    # BIND / projection expressions above the window
    "SELECT ?o ?twice WHERE { ?o <http://example.org/value> ?v . "
    "BIND(?v * 2 AS ?twice) } LIMIT 15 OFFSET 2",
    "SELECT DISTINCT ?tag WHERE { ?o <http://example.org/citizen> ?m . "
    "BIND(STR(?m) AS ?tag) } LIMIT 9",
    "SELECT (STR(?m) AS ?tag) WHERE { "
    "?o <http://example.org/citizen> ?m } LIMIT 11",
    # DISTINCT with an expression in the projection
    "SELECT DISTINCT (STR(?m) AS ?tag) WHERE { "
    "?o <http://example.org/citizen> ?m } LIMIT 6 OFFSET 2",
    # LIMIT larger than the result
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 5000",
    "SELECT ?o ?lbl WHERE { ?o <http://example.org/citizen> ?m . "
    "OPTIONAL { ?m <http://example.org/label> ?lbl } } LIMIT 100000",
    # LIMIT 0 and offset beyond the result
    "SELECT ?o WHERE { ?o <http://example.org/citizen> ?m } LIMIT 0",
    "SELECT DISTINCT ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 10 OFFSET 1000",
    # REDUCED: adjacent dedup, on ids for plain variables
    "SELECT REDUCED ?m WHERE { ?o <http://example.org/citizen> ?m } "
    "LIMIT 12",
    "SELECT REDUCED ?l WHERE { ?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 6 OFFSET 2",
    # REDUCED over a projection expression: dedup on decoded terms
    "SELECT REDUCED (STR(?l) AS ?tag) WHERE { "
    "?o <http://example.org/citizen> ?m . "
    "?m <http://example.org/inLevel> ?l } LIMIT 7 OFFSET 1",
    # UNION and MINUS under a window
    "SELECT ?s ?o WHERE { { ?s <http://example.org/label> ?o } UNION "
    "{ ?s <http://example.org/inLevel> ?o } } LIMIT 9 OFFSET 10",
    "SELECT ?o WHERE { ?o <http://example.org/citizen> ?m "
    "MINUS { ?m <http://example.org/label> ?lbl } } LIMIT 8 OFFSET 4",
]


class TestLimitIsASliceOfTheFullAnswer:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_rows_identical(self, endpoint, query):
        answer, oracle = run_both(endpoint, query)
        assert answer.rows == oracle

    def test_every_window_of_a_distinct_optional(self, endpoint):
        """Property-style sweep: every prefix length agrees."""
        base = ("SELECT DISTINCT ?m ?lbl WHERE {{ "
                "?o <http://example.org/citizen> ?m . "
                "OPTIONAL {{ ?m <http://example.org/label> ?lbl }} }} "
                "LIMIT {limit} OFFSET {offset}")
        for limit in (1, 2, 3, 5, 8, 13, 21, 34):
            for offset in (0, 1, 7):
                query = base.format(limit=limit, offset=offset)
                answer, oracle = run_both(endpoint, query)
                assert answer.rows == oracle, query

    def test_reduced_stays_within_semantics(self, endpoint):
        """REDUCED may keep any duplicate count between DISTINCT's and
        the full multiset's."""
        where = ("WHERE { ?o <http://example.org/citizen> ?m . "
                 "?m <http://example.org/inLevel> ?l } ")
        reduced = endpoint.select("SELECT REDUCED ?l " + where + "LIMIT 9")
        distinct_rows = endpoint.select("SELECT DISTINCT ?l " + where)
        full = endpoint.select("SELECT ?l " + where)
        # between the DISTINCT cardinality (3 levels) and the LIMIT
        assert len(distinct_rows) <= len(reduced) <= 9
        assert set(reduced.rows) <= set(full.rows)
        assert len(set(reduced.rows)) <= len(distinct_rows)

    def test_reduced_fully_dedups_grouped_input(self, endpoint):
        """Adjacent dedup removes *all* duplicates when the input is
        already grouped — here one subject's rows arrive together."""
        answer = endpoint.select(
            "SELECT REDUCED ?m WHERE { <http://example.org/obs0> "
            "<http://example.org/citizen> ?m } LIMIT 10")
        assert len(answer) == 1

    def test_offset_slices_after_offset_plus_limit_rows(self, endpoint):
        """The window covers OFFSET + LIMIT rows before slicing: a
        short cut would return rows from the wrong window."""
        query = ("SELECT ?o ?m WHERE { "
                 "?o <http://example.org/citizen> ?m } LIMIT 5 OFFSET 90")
        answer, oracle = run_both(endpoint, query)
        assert len(answer) == 5
        assert answer.rows == oracle


@pytest.fixture()
def decoded_cells(monkeypatch) -> list:
    """Every term id the evaluator's dictionary decodes, in order."""
    calls: list = []
    decode = DictionaryOverlay.decode

    def counting(self, term_id):
        calls.append(term_id)
        return decode(self, term_id)

    monkeypatch.setattr(DictionaryOverlay, "decode", counting)
    return calls


@pytest.fixture(scope="module")
def demo_endpoint() -> LocalEndpoint:
    return small_demo(observations=2000).endpoint


PROPERTY = "http://eurostat.linked-statistics.org/property#"
QB = "http://purl.org/linked-data/cube#"

#: shapes over the demo cube whose full answers run to thousands of
#: rows, each with a window of at most ten; every cell is bound
DEMO_WINDOWS = {
    "union": f"""
        SELECT ?obs ?member WHERE {{
            {{ ?obs <{PROPERTY}citizen> ?member }}
            UNION {{ ?obs <{PROPERTY}geo> ?member }}
        }} LIMIT 10""",
    "star": f"""
        SELECT ?obs ?c ?g ?ds WHERE {{
            ?obs <{QB}dataSet> ?ds ; <{PROPERTY}citizen> ?c ;
                 <{PROPERTY}geo> ?g
        }} LIMIT 10 OFFSET 5""",
    "distinct": f"""
        SELECT DISTINCT ?c ?g WHERE {{
            ?obs <{PROPERTY}citizen> ?c ; <{PROPERTY}geo> ?g
        }} LIMIT 10""",
    "reduced": f"""
        SELECT REDUCED ?c WHERE {{ ?obs <{PROPERTY}citizen> ?c }}
        LIMIT 10 OFFSET 3""",
}


@pytest.mark.parametrize("name", sorted(DEMO_WINDOWS))
def test_limit_decodes_only_the_rows_it_returns(demo_endpoint,
                                                decoded_cells, name):
    query = DEMO_WINDOWS[name]
    answer = demo_endpoint.select(query)
    assert len(answer) == 10
    assert len(decoded_cells) == 10 * len(answer.vars)
    assert len(oracle_rows(demo_endpoint, query)) == 10
    assert len(decoded_cells) > 1000  # the oracle decoded its full answer


def test_projection_runs_only_on_the_window(demo_endpoint, decoded_cells):
    """A projection expression is evaluated for the returned rows
    only: the four rows' ``?c`` cells are all that is decoded — the
    unread ``?obs`` column stays ids."""
    answer = demo_endpoint.select(f"""
        SELECT (STR(?c) AS ?name) WHERE {{ ?obs <{PROPERTY}citizen> ?c }}
        LIMIT 4 OFFSET 2""")
    assert len(answer) == 4
    assert len(decoded_cells) == 4


def test_unprojected_columns_are_not_decoded(demo_endpoint, decoded_cells):
    """A plain SELECT decodes the columns it projects, not every
    variable its pattern binds: ``?p`` and ``?o`` stay ids."""
    answer = demo_endpoint.select("SELECT ?s WHERE { ?s ?p ?o } LIMIT 4")
    assert len(answer) == 4
    assert len(decoded_cells) == 4


def test_order_by_decodes_the_column_it_sorts_on(demo_endpoint,
                                                 decoded_cells):
    """Without a window every row is decoded before the sort — but
    only the projected ``?obs`` and the sort key ``?c``, not ``?g``."""
    answer = demo_endpoint.select(f"""
        SELECT ?obs WHERE {{
            ?obs <{PROPERTY}citizen> ?c ; <{PROPERTY}geo> ?g
        }} ORDER BY ?c ?obs LIMIT 3""")
    assert len(answer) == 3
    assert len(decoded_cells) == 2 * 2000


def test_exists_in_the_projection_reads_its_unprojected_variables(endpoint):
    """``?m`` is not projected, but the EXISTS reads it from the row."""
    answer = endpoint.select("""
        SELECT ?o (EXISTS { ?m <http://example.org/label> ?l } AS ?named)
        WHERE { ?o <http://example.org/citizen> ?m }""")
    assert len(answer) == OBSERVATIONS
    named = {row[0].value: row[1].value for row in answer.rows}
    assert named == {f"http://example.org/obs{i}": i % MEMBERS < LABELLED
                     for i in range(OBSERVATIONS)}
