"""CLI tests (small observation counts keep them fast)."""

import pytest

from repro.cli import main

ARGS = ["--observations", "400"]


class TestCLI:
    def test_enrich(self, capsys):
        assert main(["enrich", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "citizenshipDim" in out
        assert "generated:" in out
        assert "[redefine]" in out

    def test_explore(self, capsys):
        assert main(["explore", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "cube:" in out
        assert "clustered by" in out
        assert "Members per level" in out

    def test_query_default_mary(self, capsys):
        assert main(["query", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Cube [" in out
        assert "rows in" in out

    def test_query_show_sparql(self, capsys):
        assert main(["query", "--show-sparql", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "direct translation" in out
        assert "GROUP BY" in out

    def test_query_from_file(self, tmp_path, capsys):
        ql = tmp_path / "program.ql"
        ql.write_text("""
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := SLICE ($C4, schema:citizenshipDim);
$C6 := ROLLUP ($C5, schema:timeDim, schema:year);
""")
        assert main(["query", "--ql", str(ql), "--variant", "direct",
                     *ARGS]) == 0
        out = capsys.readouterr().out
        assert "timeDim@year" in out

    def test_sparql_subcommand(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("""
        PREFIX qb: <http://purl.org/linked-data/cube#>
        SELECT (COUNT(?o) AS ?n) WHERE { ?o a qb:Observation }
        """)
        assert main(["sparql", "--query", str(query), *ARGS]) == 0
        out = capsys.readouterr().out
        assert "400" in out

    def test_validate_clean(self, capsys):
        # the QB4OLAP rows pass; the W3C suite flags IC-4 (the raw
        # cube, like the real Eurostat dump, declares no rdfs:range)
        assert main(["validate", *ARGS]) == 1
        out = capsys.readouterr().out
        assert "QB4OLAP cube constraints: 0 violations" in out
        assert "Q4I-FUNC: ok" in out

    def test_validate_noisy_fails(self, capsys):
        # discovery accepts the quasi-FD (threshold 0.3) but strict
        # instance validation (tolerance 0) must flag the step
        code = main(["validate", "--observations", "400",
                     "--noise", "0.25", "--threshold", "0.3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "QB4OLAP cube constraints: 1 violations" in out
        assert "Q4I-FUNC: VIOLATED" in out

    def test_validate_noisy_passes_with_tolerance(self, capsys):
        # every QB4OLAP row passes; the exit is 1 for IC-4 alone
        code = main(["validate", "--observations", "400",
                     "--noise", "0.25", "--threshold", "0.3",
                     "--tolerance", "0.3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "QB integrity constraints: 1 violations" in out
        assert "IC-4: VIOLATED" in out
        assert "QB4OLAP cube constraints: 0 violations" in out
        assert "VIOLATED" not in out.split("QB4OLAP cube constraints")[1]

    def test_demo(self, capsys):
        assert main(["demo", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "Mary's query" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestNewSubcommands:
    def test_sparql_json_format(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("""
            PREFIX qb: <http://purl.org/linked-data/cube#>
            SELECT (COUNT(?o) AS ?n) WHERE { ?o a qb:Observation }
        """)
        assert main(["sparql", "--query", str(query),
                     "--format", "json", *ARGS]) == 0
        out = capsys.readouterr().out
        assert '"bindings"' in out
        assert '"400"' in out

    def test_sparql_csv_format(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("""
            PREFIX qb: <http://purl.org/linked-data/cube#>
            SELECT (COUNT(?o) AS ?n) WHERE { ?o a qb:Observation }
        """)
        assert main(["sparql", "--query", str(query),
                     "--format", "csv", *ARGS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n")

    def test_sparql_ask(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("""
            PREFIX qb: <http://purl.org/linked-data/cube#>
            ASK { ?o a qb:Observation }
        """)
        assert main(["sparql", "--query", str(query), *ARGS]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_sparql_construct_prints_turtle(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("""
            PREFIX qb: <http://purl.org/linked-data/cube#>
            CONSTRUCT { ?ds a qb:DataSet } WHERE { ?ds a qb:DataSet }
        """)
        assert main(["sparql", "--query", str(query), *ARGS]) == 0
        assert "qb:DataSet" in capsys.readouterr().out

    def test_sparql_explain(self, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("SELECT ?s WHERE { ?s ?p ?o }")
        assert main(["sparql", "--query", str(query),
                     "--explain", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "BGP" in out

    def test_validate_ic_suite_reports(self, capsys):
        # IC-4 fires: like the real Eurostat dump, the raw cube declares
        # no rdfs:range on dimension properties; the QB4OLAP rows
        # still run and print after the suite
        code = main(["validate", *ARGS])
        out = capsys.readouterr().out
        assert "QB integrity constraints: 1 violations" in out
        assert "IC-4: VIOLATED" in out
        assert "IC-12: ok" in out
        assert "IC-MEAS: ok" in out
        assert "QB4OLAP cube constraints: 0 violations" in out
        assert "Q4-CYCLE: ok" in out
        assert out.index("IC-4: VIOLATED") < out.index("QB4OLAP cube")
        assert code == 1

    def test_drillacross(self, capsys):
        assert main(["drillacross", "--observations", "400"]) == 0
        out = capsys.readouterr().out
        assert "First instance decisions" in out
        assert "Cube [" in out

    def test_render_schema_dot(self, capsys):
        assert main(["render", "--view", "schema", *ARGS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph schema {")

    def test_render_instances_dot(self, capsys):
        assert main(["render", "--view", "instances",
                     "--max-members", "3", *ARGS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph instances {")
        assert "cluster_0" in out


class TestMalformedInput:
    """A bad query, program or path ends in one line on stderr and
    exit code 2, never a traceback."""

    def fails(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err

    def test_malformed_sparql(self, tmp_path, capsys):
        query = tmp_path / "bad.rq"
        query.write_text("SELECT ?s WHERE { ?s ?p")
        err = self.fails(capsys, ["sparql", "--query", str(query), *ARGS])
        assert err.startswith("repro sparql: error: ")

    def test_malformed_ql(self, tmp_path, capsys):
        program = tmp_path / "bad.ql"
        program.write_text("QUERY\n$C1 := SLICE (")
        err = self.fails(capsys, ["query", "--ql", str(program), *ARGS])
        assert err.startswith("repro query: error: ")

    def test_ql_naming_no_dimension(self, tmp_path, capsys):
        program = tmp_path / "unknown.ql"
        program.write_text("""
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:noSuchDim);
""")
        err = self.fails(capsys, ["query", "--ql", str(program), *ARGS])
        assert "noSuchDim" in err

    def test_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.rq"
        err = self.fails(capsys, ["sparql", "--query", str(missing), *ARGS])
        assert err.startswith("repro sparql: error: ")
        assert "missing.rq" in err
