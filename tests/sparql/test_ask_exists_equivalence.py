"""ASK and EXISTS run on the same walker as SELECT: differential tests.

One walker interprets the algebra; ASK asks whether its pattern's
table is non-empty and EXISTS runs it seeded with the distinct rows
being filtered.
For a corpus that covers every pattern-node type the three ways of
asking "is there a solution" must agree::

    ASK {P}  ==  bool(SELECT * {P} LIMIT 1)  ==  bool(SELECT * {P})

and ``FILTER EXISTS {Q}`` must keep exactly the rows the join-based
rewrite keeps.  The work each does is stated in index entries touched
(the probe counter), not in time.  The 21 W3C integrity constraints — the
one heavy ASK / NOT EXISTS user under ``src/`` — anchor the semantics.
"""

import re

import pytest

from repro.data.eurostat import GeneratorConfig, build_qb_graph
from repro.qb.constraints import all_constraint_checks
from repro.qb.normalize import normalize_graph
from repro.rdf.terms import IRI, Literal
from repro.sparql import PROBE_COUNTER, LocalEndpoint
from repro.sparql.evaluator import PatternEvaluator
from repro.sparql.errors import SPARQLError
from tests.qb.test_constraints import WELL_FORMED, normalized_graph

EX = "http://example.org/"
G1 = EX + "g1"
G2 = EX + "g2"
PREFIX = f"PREFIX : <{EX}>\n"


@pytest.fixture(scope="module")
def endpoint() -> LocalEndpoint:
    endpoint = LocalEndpoint()

    def add(graph, subject, predicate, obj):
        graph.add(IRI(EX + subject), IRI(EX + predicate),
                  obj if isinstance(obj, Literal) else IRI(EX + obj))

    default = endpoint.dataset.default
    for subject, predicate, obj in [
            ("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d"),
            ("a", "q", "c"), ("d", "q", "a"),
            ("a", "v", Literal(1)), ("b", "v", Literal(2)),
            ("c", "v", Literal(3))]:
        add(default, subject, predicate, obj)
    add(endpoint.dataset.graph(IRI(G1)), "x", "p", "y")
    add(endpoint.dataset.graph(IRI(G1)), "x", "v", Literal(7))
    add(endpoint.dataset.graph(IRI(G2)), "y", "p", "z")
    return endpoint


#: ``(dataset clauses, group graph pattern)`` — every pattern-node type,
#: each with a satisfiable and an unsatisfiable instance
PATTERNS = [
    # BGP, and a BGP whose plan leads with a property path
    ("", "?s :p ?o . ?o :p ?z"),
    ("", "?s :p ?o . ?o :q ?s . ?s :v 3"),
    ("", "?s :p+ ?o"),
    ("", ":d :p+ ?o"),
    # Join of two groups
    ("", "{ ?s :p ?o } { ?o :q ?z }"),
    ("", "{ ?s :q ?o } { ?o :v 1 }"),
    # OPTIONAL without and with a condition
    ("", "?s :p ?o OPTIONAL { ?s :q ?r }"),
    ("", "?s :v ?n OPTIONAL { ?s :p ?o FILTER(?n > 1) } "
         "FILTER(BOUND(?o) && ?n = 1)"),
    ("", "?s :v ?n OPTIONAL { ?s :p ?o FILTER(?n > 1) } FILTER(BOUND(?o))"),
    ("", "?s :p ?o OPTIONAL { ?s :q ?r FILTER(EXISTS { ?s :p ?o }) } "
         "FILTER(BOUND(?r))"),
    # UNION
    ("", "{ ?s :nope ?o } UNION { ?s :q ?o }"),
    ("", "{ ?s :nope ?o } UNION { ?s :q :nothing }"),
    # MINUS: disjoint variables remove nothing; shared ones may be
    # unbound on either side
    ("", "?s :q ?o MINUS { ?x :p ?y }"),
    ("", "?s :q ?o MINUS { ?s :q ?y }"),
    ("", "?s :p ?o OPTIONAL { ?s :q ?r } MINUS { ?s :v ?n . ?s :q ?r }"),
    ("", "?s :q ?o OPTIONAL { ?o :nope ?r } "
         "MINUS { ?s :q ?o OPTIONAL { ?o :p ?r } }"),
    # FILTER
    ("", "?s :v ?n FILTER(?n > 2)"),
    ("", "?s :v ?n FILTER(?n > 3)"),
    # NOT EXISTS nested two deep
    ("", "?s :p ?o FILTER NOT EXISTS "
         "{ ?o :p ?z FILTER NOT EXISTS { ?z :p ?w } }"),
    ("", "?s :p ?o FILTER NOT EXISTS "
         "{ ?s :v ?n FILTER NOT EXISTS { ?s :nope ?w } }"
         "FILTER NOT EXISTS { ?o :p ?z FILTER NOT EXISTS { ?z :q ?w } }"),
    # BIND
    ("", "?s :v ?n BIND(?n + 1 AS ?m) FILTER(?m > 3)"),
    ("", "?s :v ?n BIND(?n + 1 AS ?m) FILTER(?m > 4)"),
    ("", "?s :v ?n BIND(?n / 0 AS ?m) FILTER(BOUND(?m))"),
    # VALUES with UNDEF
    ("", "VALUES (?s ?o) { (:a UNDEF) (UNDEF :nothing) } ?s :p ?o"),
    ("", "VALUES (?s ?o) { (:d UNDEF) (UNDEF :a) } ?s :p ?o"),
    # GRAPH ?g unbound, bound by VALUES, and GRAPH <iri>
    ("", "GRAPH ?g { ?s :p ?o }"),
    ("", "GRAPH ?g { ?s :q ?o }"),
    ("", f"VALUES ?g {{ <{G2}> }} GRAPH ?g {{ ?s :p :z }}"),
    ("", f"VALUES ?g {{ <{G1}> }} GRAPH ?g {{ ?s :p :z }}"),
    ("", f"GRAPH <{G1}> {{ ?s :v 7 }}"),
    ("", f"GRAPH <{G2}> {{ ?s :v 7 }}"),
    # sub-SELECT with an aggregate
    ("", "{ SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s } "
         "FILTER(?c > 2)"),
    ("", "{ SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s } "
         "FILTER(?c > 3)"),
    # dataset clauses
    (f"FROM <{G1}>", "?s :p :y"),
    (f"FROM <{G2}>", "?s :p :y"),
    (f"FROM NAMED <{G1}>", "GRAPH ?g { ?s :p ?o }"),
    (f"FROM NAMED <{G1}>", "?s :p ?o"),
    # a constant the dictionary never interned
    ("", "?s :never ?o"),
    ("", "?s :p ?o . ?o :p :never"),
    ("", "?s :p ?o FILTER NOT EXISTS { ?o :never ?z }"),
]


@pytest.mark.parametrize("clauses,pattern", PATTERNS)
def test_ask_agrees_with_select(endpoint, clauses, pattern):
    ask = endpoint.ask(f"{PREFIX}ASK {clauses} {{ {pattern} }}")
    first = endpoint.select(
        f"{PREFIX}SELECT * {clauses} WHERE {{ {pattern} }} LIMIT 1")
    everything = endpoint.select(
        f"{PREFIX}SELECT * {clauses} WHERE {{ {pattern} }}")
    assert ask == bool(first.rows) == bool(everything.rows)


def test_corpus_exercises_both_verdicts(endpoint):
    verdicts = [endpoint.ask(f"{PREFIX}ASK {clauses} {{ {pattern} }}")
                for clauses, pattern in PATTERNS]
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15


def test_rebinding_bind_fails_the_same_way(endpoint):
    pattern = "?s :v ?n BIND(1 AS ?n)"
    errors = []
    for query in (f"ASK {{ {pattern} }}",
                  f"SELECT * WHERE {{ {pattern} }} LIMIT 1",
                  f"SELECT * WHERE {{ {pattern} }}"):
        with pytest.raises(SPARQLError) as info:
            endpoint.query(PREFIX + query)
        errors.append(type(info.value))
    assert len(set(errors)) == 1


#: EXISTS bodies, evaluated under the outer rows of ``?s :p ?o``
EXISTS_BODIES = [
    "?o :p ?z",
    "?o :p ?z OPTIONAL { ?z :p ?w }",
    "{ ?o :q ?z } UNION { ?s :q ?z }",
    "?o :v ?n FILTER(?n > 2)",
    "?o :p ?z MINUS { ?z :q ?w }",
    "?o :p ?z FILTER NOT EXISTS { ?z :p ?w }",
    "VALUES ?o { :b :d }",
    "?o :v ?n BIND(?n * 2 AS ?m) FILTER(?m = 4)",
    "{ SELECT ?o (COUNT(?z) AS ?c) WHERE { ?o ?p ?z } GROUP BY ?o } "
    "FILTER(?c > 1)",
    "GRAPH ?g { ?x :p ?y }",       # uncorrelated, satisfiable
    "?x :nope ?y",                 # uncorrelated, unsatisfiable
    "?o :never ?z",
]


@pytest.mark.parametrize("body", EXISTS_BODIES)
def test_exists_agrees_with_join_rewrite(endpoint, body):
    def rows(query):
        return sorted((row["s"], row["o"])
                      for row in endpoint.select(PREFIX + query))

    outer = rows("SELECT ?s ?o WHERE { ?s :p ?o }")
    joined = rows(f"SELECT DISTINCT ?s ?o WHERE {{ ?s :p ?o {{ {body} }} }}")
    kept = rows(f"SELECT ?s ?o WHERE {{ ?s :p ?o FILTER EXISTS {{ {body} }} }}")
    dropped = rows(
        f"SELECT ?s ?o WHERE {{ ?s :p ?o FILTER NOT EXISTS {{ {body} }} }}")
    assert kept == joined
    assert sorted(kept + dropped) == outer


#: EXISTS bodies that read the outer ?s / ?o only in an expression —
#: an inner FILTER, a nested EXISTS, a BIND — so the join rewrite does
#: not apply; each row is checked against an ASK with its terms
#: substituted in
CORRELATED_IN_EXPRESSIONS = [
    "?x :p ?y FILTER(?y = ?o)",
    "?x :p ?y FILTER(?x != ?s)",
    "?x :q ?w FILTER EXISTS { ?w :p ?z FILTER(?z = ?o) }",
    "?x :p ?y BIND(?o AS ?copy) FILTER(?copy = ?y)",
]


@pytest.mark.parametrize("body", CORRELATED_IN_EXPRESSIONS)
def test_exists_sees_outer_variables_in_expressions(endpoint, body):
    outer = endpoint.select(PREFIX + "SELECT ?s ?o WHERE { ?s :p ?o }")
    expected = sorted(
        (row["s"], row["o"]) for row in outer
        if endpoint.ask(PREFIX + "ASK { " + re.sub(
            r"\?([so])\b", lambda match: row[match.group(1)].n3(), body)
            + " }"))
    kept = sorted((row["s"], row["o"]) for row in endpoint.select(
        PREFIX + f"SELECT ?s ?o WHERE {{ ?s :p ?o FILTER EXISTS {{ {body} }} }}"))
    # a dropped ?s / ?o column would leave the expression unbound, an
    # error that keeps no row
    assert kept == expected
    assert expected


def test_exists_outside_filter_is_one_row_at_a_time(endpoint):
    """BIND and HAVING reach EXISTS with a bare binding, not a table."""
    table = endpoint.select(PREFIX + """
        SELECT ?s ?leaf WHERE {
            ?s :p ?o BIND(NOT EXISTS { ?o :p ?z } AS ?leaf)
        }""")
    assert {(row["s"].value, row["leaf"].value) for row in table} == {
        (EX + "a", False), (EX + "b", False), (EX + "c", True),
        (EX + "x", False), (EX + "y", True)}  # the default graph is the union
    table = endpoint.select(PREFIX + """
        SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }
        GROUP BY ?s HAVING (EXISTS { ?s :q ?c })""")
    assert {row["s"].value for row in table} == {EX + "a", EX + "d"}


# ---------------------------------------------------------------------------
# work done, in probes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cube() -> LocalEndpoint:
    endpoint = LocalEndpoint()
    graph = build_qb_graph(GeneratorConfig(observations=2000, seed=42))
    endpoint.dataset.default.add_all(iter(graph))
    return endpoint


def test_ask_reads_its_pattern_once(cube):
    with PROBE_COUNTER:
        assert cube.ask("ASK { ?s ?p ?o }")
    assert PROBE_COUNTER.entries == len(cube.dataset.default)


def test_uncorrelated_exists_runs_once_per_outer_table(cube):
    qb = "http://purl.org/linked-data/cube#"
    outer = f"?obs <{qb}dataSet> ?ds"
    with PROBE_COUNTER:
        rows = len(cube.select(f"SELECT ?obs WHERE {{ {outer} }}"))
    outer_probes = PROBE_COUNTER.entries
    assert rows == 2000
    with PROBE_COUNTER:
        kept = cube.select(f"SELECT ?obs WHERE {{ {outer} "
                           f"FILTER EXISTS {{ ?a ?b ?c }} }}")
    assert len(kept) == rows
    # the inner pattern shares no variable with the outer rows: one
    # unseeded scan answers for all of them, not rows * |G| solutions
    assert PROBE_COUNTER.entries - outer_probes == len(cube.dataset.default)


def test_correlated_exists_seeds_each_distinct_key_once(cube, monkeypatch):
    """2 000 outer rows bind ?obs and ?c; the inner pattern reads only
    ?c, so its one walk is seeded with each citizenship once."""
    prop = "http://eurostat.linked-statistics.org/property#"
    outer = f"?obs <{prop}citizen> ?c"
    citizens = len(cube.select(f"SELECT DISTINCT ?c WHERE {{ {outer} }}"))
    seeds = []
    solve = PatternEvaluator.solve

    def recording(self, node, source, table=None):
        if table is not None:
            seeds.append((len(table), table.names))
        return solve(self, node, source, table)

    monkeypatch.setattr(PatternEvaluator, "solve", recording)
    kept = cube.select(f"SELECT ?obs WHERE {{ {outer} FILTER EXISTS "
                       f"{{ ?other <{prop}citizen> ?c }} }}")
    assert len(kept) == 2000
    assert 1 < citizens < 2000
    assert [(rows, names[0]) for rows, names in seeds] == [(citizens, "c")]


# ---------------------------------------------------------------------------
# semantic anchor: the W3C integrity constraints
# ---------------------------------------------------------------------------

BROKEN = {
    "IC-1": "ex:orphan a qb:Observation ; ex:dim ex:a3 .",
    "IC-2": "ex:ds2 a qb:DataSet .",
    "IC-11": "ex:o3 qb:dataSet ex:ds ; ex:val 5 .",
    "IC-14": "ex:o3 qb:dataSet ex:ds ; ex:dim ex:a3 .",
}


@pytest.mark.parametrize("broken", [None, *BROKEN])
def test_integrity_constraints_agree_with_select(broken):
    graph = normalized_graph(WELL_FORMED + (BROKEN[broken] if broken else ""))
    endpoint = LocalEndpoint()
    endpoint.dataset.default.add_all(iter(graph))
    violated = set()
    for check in all_constraint_checks(graph):
        for text in check.queries:
            ask = endpoint.ask(text)
            select = text.replace("\nASK {", "\nSELECT * WHERE {", 1)
            assert select != text
            assert ask == bool(endpoint.select(select + " LIMIT 1").rows) \
                == bool(endpoint.select(select).rows), check.ic
            if ask:
                violated.add(check.ic)
    assert violated == ({broken} if broken else set())


def test_demo_cube_verdicts_unchanged():
    """The 2 000-observation demo cube: only the known metadata gap
    (dimensions without ``rdfs:range``) is reported."""
    from repro.qb.constraints import check_graph

    graph = build_qb_graph(GeneratorConfig(observations=2000, seed=42))
    normalize_graph(graph)
    report = check_graph(graph, include_expensive=False)
    assert report.violations == ["IC-4"]
    assert report.skipped == ["IC-17"]  # IC-12 runs in linear time
