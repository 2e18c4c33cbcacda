"""Result-table representation tests."""

from repro.rdf import IRI, Literal

from repro.sparql.results import ResultTable
from repro.sparql.serializers import results_to_csv


def table():
    return ResultTable(
        ["x", "n"],
        [
            (IRI("http://e/a"), Literal(1)),
            (IRI("http://e/b"), Literal(2)),
            (IRI("http://e/c"), None),
        ],
    )


class TestResultTable:
    def test_len_and_bool(self):
        t = table()
        assert len(t) == 3
        assert t
        assert not ResultTable(["x"], [])

    def test_iter_dicts_skip_unbound(self):
        rows = list(table())
        assert "n" not in rows[2]
        assert rows[0]["n"] == Literal(1)

    def test_column_and_cell(self):
        t = table()
        assert t.column("n")[0] == Literal(1)
        assert t.cell(1, "x") == IRI("http://e/b")

    def test_to_python(self):
        rows = table().to_python()
        assert rows[0] == {"x": "http://e/a", "n": 1}
        assert rows[2]["n"] is None

    def test_to_csv(self):
        text = results_to_csv(table())
        lines = text.strip().splitlines()
        assert lines[0] == "x,n"
        assert lines[1] == "http://e/a,1"
        assert lines[3] == "http://e/c,"

    def test_to_text_contains_local_names(self):
        text = table().to_text()
        assert "a" in text and "|" in text

    def test_to_text_truncates(self):
        t = table()
        text = t.to_text(max_rows=1)
        assert "more rows" in text

    def test_long_values_ellipsized(self):
        t = ResultTable(["v"], [(Literal("x" * 100),)])
        assert "…" in t.to_text(max_width=10)
