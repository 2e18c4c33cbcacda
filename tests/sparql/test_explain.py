"""Query-plan explanation tests."""

import re

import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.explain import explain

EX = "http://example.org/"


@pytest.fixture()
def dataset() -> Dataset:
    dataset = Dataset()
    g = dataset.default
    for i in range(50):
        g.add(IRI(f"{EX}obs{i}"), IRI(EX + "value"), Literal(i))
    g.add(IRI(EX + "obs0"), IRI(EX + "special"), Literal(True))
    return dataset


def test_select_plan_shape(dataset):
    plan = explain(
        f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }}", dataset)
    assert plan.startswith("SELECT [?s]")
    assert "BGP (1 patterns)" in plan
    assert "(est. 50)" in plan


def test_static_order_puts_selective_pattern_first(dataset):
    plan = explain(f"""
        SELECT ?s WHERE {{
            ?s <{EX}value> ?v .
            ?s <{EX}special> ?flag .
        }}
    """, dataset)
    lines = plan.splitlines()
    first_pattern = next(line for line in lines if "[0]" in line)
    assert "special" in first_pattern  # est. 1 beats est. 50


def test_modifiers_reported(dataset):
    plan = explain(f"""
        SELECT ?v (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}value> ?v }}
        GROUP BY ?v ORDER BY ?v LIMIT 5
    """, dataset)
    assert "GROUP BY (1)" in plan
    assert "LIMIT 5" in plan


def test_optional_and_filter_nodes(dataset):
    plan = explain(f"""
        SELECT ?s WHERE {{
            ?s <{EX}value> ?v .
            OPTIONAL {{ ?s <{EX}special> ?flag }}
            FILTER (?v > 10)
        }}
    """, dataset)
    assert "LeftJoin / OPTIONAL" in plan
    assert "Filter" in plan


def test_path_pattern_marked(dataset):
    plan = explain(f"SELECT ?s WHERE {{ ?s <{EX}value>+ ?v }}", dataset)
    assert "(path)" in plan


def test_ask_and_construct_plans(dataset):
    assert explain(f"ASK {{ ?s <{EX}value> ?v }}",
                   dataset).startswith("ASK")
    plan = explain(
        f"CONSTRUCT {{ ?s a <{EX}Thing> }} WHERE {{ ?s <{EX}value> ?v }}",
        dataset)
    assert plan.startswith("CONSTRUCT (1 template triples)")


def test_describe_plan():
    plan = explain(f"DESCRIBE <{EX}obs0>")
    assert plan.startswith("DESCRIBE [<http://example.org/obs0>]")


def test_value_aware_steps_labelled(dataset):
    g = dataset.default
    for i in range(80):
        g.add(IRI(f"{EX}obs{i}"), IRI(EX + "inGroup"), IRI(EX + "big"))
    g.add(IRI(EX + "obs0"), IRI(EX + "inGroup"), IRI(EX + "small"))
    plan = explain(
        f"SELECT ?s WHERE {{ ?s <{EX}inGroup> <{EX}big> . "
        f"?s <{EX}value> ?v }}", dataset)
    line = next(l for l in plan.splitlines() if "big" in l)
    assert "[mcv]" in line or "[hist]" in line
    assert "avg" in line        # the figure the v1 model would have used
    assert plan.splitlines()[1].endswith("]")  # a bare cost header


def test_average_steps_keep_plain_format(dataset):
    plan = explain(f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }}", dataset)
    assert "(est. 50)" in plan
    assert "[mcv]" not in plan


def test_large_bgp_gets_a_plain_header(dataset):
    text = "SELECT * WHERE { " + " . ".join(
        f"?s <{EX}p{i}> ?v{i}" for i in range(14)) + " }"
    header = explain(text, dataset).splitlines()[1]
    assert header == "`-- BGP (14 patterns) [cost 0]"


def test_cache_stats_line_counts_hits_and_misses():
    ep = LocalEndpoint()
    ep.dataset.default.add(
        IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))
    query = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"
    ep.select(query)
    ep.select(query)
    lines = ep.explain(query).splitlines()
    cache_line = next(line for line in lines
                      if line.startswith("plan cache:"))
    assert re.fullmatch(r"plan cache: entries=\d+ hits=[1-9]\d* "
                        r"misses=[1-9]\d* evictions=\d+", cache_line)


def test_cache_stats_include_concurrency_counters():
    ep = LocalEndpoint()
    ep.dataset.default.add(
        IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))
    lines = ep.explain(
        f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}").splitlines()
    concurrency_line = next(line for line in lines
                            if line.startswith("concurrency:"))
    assert "snapshot_pins=" in concurrency_line
    assert "writer_waits=" in concurrency_line
    assert "active_readers=0" in concurrency_line


def test_endpoint_explain_method(dataset):
    endpoint = LocalEndpoint(dataset)
    plan = endpoint.explain(f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }}")
    assert "est. 50" in plan


def test_plan_without_dataset_omits_estimates():
    plan = explain(f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }}")
    assert "est." not in plan


def test_union_and_subselect(dataset):
    plan = explain(f"""
        SELECT ?s WHERE {{
            {{ ?s <{EX}value> ?v }} UNION {{ ?s <{EX}special> ?v }}
            {{ SELECT ?s WHERE {{ ?s <{EX}value> ?w }} }}
        }}
    """, dataset)
    assert "Union" in plan
    assert "SubSelect" in plan


def test_streaming_marker_on_eligible_selects(dataset):
    streams = explain(
        f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }} LIMIT 5", dataset)
    assert "streams" in streams
    distinct = explain(
        f"SELECT DISTINCT ?v WHERE {{ ?s <{EX}value> ?v }} LIMIT 5",
        dataset)
    assert "DISTINCT" in distinct and "streams" in distinct
    ordered = explain(
        f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }} ORDER BY ?v LIMIT 5",
        dataset)
    assert "streams" not in ordered
    unlimited = explain(f"SELECT ?s WHERE {{ ?s <{EX}value> ?v }}", dataset)
    assert "streams" not in unlimited


def test_optional_side_is_costed(dataset):
    plan = explain(f"""
        SELECT ?s ?flag WHERE {{
            ?s <{EX}value> ?v .
            OPTIONAL {{ ?s <{EX}special> ?flag }}
        }}
    """, dataset)
    line = next(l for l in plan.splitlines() if "OPTIONAL" in l)
    assert "optional side cost" in line
    assert "est." in line


def test_analyze_traces_subselect_steps(dataset):
    """EXPLAIN analyze threads the step trace through nested SELECTs:
    the sub-SELECT's BGP shows estimated *and* actual row counts."""
    plan = explain(f"""
        SELECT ?s WHERE {{
            {{ SELECT ?s WHERE {{ ?s <{EX}value> ?v }} }}
            ?s <{EX}special> ?flag
        }}
    """, dataset, analyze=True)
    lines = plan.splitlines()
    subselect_at = next(i for i, l in enumerate(lines) if "SubSelect" in l)
    nested_bgp = next(l for l in lines[subselect_at:] if "value" in l)
    assert "actual" in nested_bgp
    assert "est. 50, actual 50" in nested_bgp


def test_analyze_traces_subselect_under_ask(dataset):
    """ASK drains the walker with early exit; its sub-SELECTs trace
    too."""
    plan = explain(f"""
        ASK {{
            {{ SELECT ?s WHERE {{ ?s <{EX}value> ?v }} }}
            ?s <{EX}special> ?flag
        }}
    """, dataset, analyze=True)
    assert "SubSelect" in plan


def test_analyze_of_ask_shows_the_steps_that_ran():
    """ASK stops at the first non-empty chunk of the leading scan, and
    EXPLAIN analyze reports that run — not a full materialization."""
    dataset = Dataset()
    for i in range(2000):
        dataset.default.add(IRI(f"{EX}obs{i}"), IRI(EX + "value"),
                            Literal(i))
    pattern = f"{{ ?s <{EX}value> ?v }}"
    asked = explain(f"ASK {pattern}", dataset, analyze=True)
    selected = explain(f"SELECT * WHERE {pattern}", dataset, analyze=True)
    assert "est. 2000, actual 512" in asked
    assert "est. 2000, actual 2000" in selected


def test_path_first_plan_not_marked_streaming(dataset):
    plan = explain(
        f"SELECT ?a ?b WHERE {{ ?a <{EX}value>+ ?b }} LIMIT 5", dataset)
    assert "streams" not in plan


def test_compound_filter_conditions_print_their_structure():
    """Every expression class prints what it computes, not where it
    lives: the plan of the benchmark's three-way dice names its three
    attributes and is the same text on every parse."""
    from benchmarks.perf.workloads import DICE_PROGRAMS
    from repro.data import small_demo
    from repro.demo import enrich

    session = enrich(small_demo(observations=200, seed=33))
    translation = session.engine.execute(
        DICE_PROGRAMS["three_way_and"], variant="direct").translation
    for text in (translation.direct, translation.optimized):
        plan = explain(text, session.endpoint.dataset)
        assert "0x" not in plan
        filter_line = next(line for line in plan.splitlines()
                           if "Filter " in line)
        for name in ("att0", "att1", "att2"):
            assert name in filter_line
        assert plan == explain(text, session.endpoint.dataset)


@pytest.mark.parametrize("condition", [
    "?v > 1 && ?v < 9 || !(?v = 5)",
    "-?v + 2 * ?v - 1 / ?v > 0",
    "?v IN (1, 2) || ?v NOT IN (3)",
    f"EXISTS {{ ?s <{EX}special> ?f }} && NOT EXISTS {{ ?v <{EX}p> ?s }}",
])
def test_no_expression_class_prints_an_address(dataset, condition):
    text = f"SELECT ?s WHERE {{ ?s <{EX}value> ?v FILTER({condition}) }}"
    plan = explain(text, dataset)
    assert "object at 0x" not in plan
    assert plan == explain(text, dataset)
