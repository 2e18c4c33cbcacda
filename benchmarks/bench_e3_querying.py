"""E3 — Fig. 3 (Querying workflow): per-phase costs of QL processing.

Regenerates the workflow stages for Mary's query plus a set of
predefined queries (the demo ships predefined queries the audience can
modify).  Shape to reproduce: parsing/simplification/translation are
sub-millisecond — *SPARQL execution dominates*, which is exactly why
the module optimizes the generated query rather than its own pipeline.
"""

import pytest

from repro.data.namespaces import SCHEMA
from repro.demo import MARY_QL, POLITICAL_QL

#: the predefined query library of the demo
PREDEFINED = {
    "mary": MARY_QL,
    "political": POLITICAL_QL,
    "continent_by_year": """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := ROLLUP ($C4, schema:citizenshipDim, schema:continent);
$C6 := ROLLUP ($C5, schema:timeDim, schema:year);
""",
    "quarterly_by_sex": """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:ageDim);
$C3 := SLICE ($C2, schema:citizenshipDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := ROLLUP ($C4, schema:timeDim, schema:quarter);
""",
    "busy_destinations": """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:citizenshipDim);
$C5 := SLICE ($C4, schema:timeDim);
$C6 := DICE ($C5, sdmx-measure:obsValue > 500);
""",
}


#: warm runs of Mary's query whose best phase times E3 reports
WARM_RUNS = 5


def test_e3_phase_breakdown(demo, benchmark, save_rows):
    """Each phase's best of several warm runs (the first, cold run fills
    the plan cache and is not counted): the front end — parse, simplify,
    translate — costs less than executing the SPARQL it produces."""
    def run():
        return demo.engine.execute(MARY_QL, variant="direct").report

    run()
    reports = [benchmark.pedantic(run, rounds=1, iterations=1)]
    reports += [run() for _ in range(WARM_RUNS - 1)]

    def best(phase):
        return min(getattr(report, f"{phase}_seconds") for report in reports)

    front = best("parse") + best("simplify") + best("translate")
    execute = best("execute")
    rows = [
        f"{'parse QL':22s} {best('parse') * 1000:9.2f} ms",
        f"{'simplify':22s} {best('simplify') * 1000:9.2f} ms",
        f"{'translate to SPARQL':22s} {best('translate') * 1000:9.2f} ms",
        f"{'execute on endpoint':22s} {execute * 1000:9.2f} ms",
        f"{'execute / front end':22s} {execute / front:9.1f} x",
        f"{'rows':22s} {reports[0].rows:9d}",
    ]
    save_rows("E3_phase_breakdown",
              f"Querying-module phase (best of {len(reports)} warm runs)"
              f"       time", rows)
    # shape: execution dominates the pipeline
    assert execute > front


@pytest.mark.parametrize("name", sorted(PREDEFINED))
def test_e3_predefined_queries(demo, benchmark, name, save_rows):
    text = PREDEFINED[name]

    def run():
        return demo.engine.execute(text, variant="optimized")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_rows(f"E3_query_{name}",
              "query                 rows   sparql-lines   exec",
              [f"{name:20s} {result.report.rows:6d} "
               f"{result.report.sparql_lines:12d} "
               f"{result.report.execute_seconds:8.3f}s"])
    assert result.report.rows >= 0
