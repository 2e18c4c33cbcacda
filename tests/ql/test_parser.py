"""QL surface-syntax parser tests, including the paper's demo query."""

import pytest

from repro.rdf import IRI, Literal
from repro.ql import (
    AttributePath,
    BooleanCondition,
    Comparison,
    Dice,
    DrillDown,
    MeasureRef,
    NotCondition,
    QLSyntaxError,
    RollUp,
    Slice,
    parse_ql,
)

PAPER_QUERY = """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
PREFIX property: <http://eurostat.linked-statistics.org/property#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);
$C3 := ROLLUP ($C2, schema:timeDim, schema:year);
$C4 := DICE ($C3, (schema:citizenshipDim|schema:continent|
    schema:continentName = "Africa"));
$C5 := DICE ($C4, schema:destinationDim|property:geo|
    schema:countryName = "France");
"""


class TestPaperQuery:
    def test_parses_five_statements(self):
        program = parse_ql(PAPER_QUERY)
        assert len(program) == 5
        kinds = [type(s.operation) for s in program.statements]
        assert kinds == [Slice, RollUp, RollUp, Dice, Dice]

    def test_cube_reference(self):
        program = parse_ql(PAPER_QUERY)
        assert program.cube == IRI(
            "http://eurostat.linked-statistics.org/data/migr_asyappctzm")

    def test_variable_chaining(self):
        program = parse_ql(PAPER_QUERY)
        pipeline = program.operations()
        assert len(pipeline) == 5

    def test_dice_condition_shape(self):
        program = parse_ql(PAPER_QUERY)
        dice = program.statements[3].operation
        condition = dice.condition
        assert isinstance(condition, Comparison)
        assert isinstance(condition.operand, AttributePath)
        assert condition.operand.attribute.local_name() == "continentName"
        assert condition.value == Literal("Africa")

    def test_prefixes_recorded(self):
        program = parse_ql(PAPER_QUERY)
        assert program.prefixes["schema"].endswith("migr_asyapp#")


class TestOperations:
    def test_drilldown(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := ROLLUP (ex:cube, ex:dim, ex:top);
        $C2 := DRILLDOWN ($C1, ex:dim, ex:mid);
        """)
        assert isinstance(program.statements[1].operation, DrillDown)

    def test_measure_dice(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := DICE (ex:cube, ex:obsValue > 100);
        """)
        condition = program.statements[0].operation.condition
        assert isinstance(condition.operand, MeasureRef)
        assert condition.op == ">"

    def test_boolean_conditions(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := DICE (ex:cube, ex:m > 1 AND (ex:m < 10 OR NOT ex:m = 5));
        """)
        condition = program.statements[0].operation.condition
        assert isinstance(condition, BooleanCondition)
        assert condition.op == "AND"
        inner = condition.operands[1]
        assert inner.op == "OR"
        assert isinstance(inner.operands[1], NotCondition)

    def test_value_types(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := DICE (ex:cube, ex:a = 5);
        $C2 := DICE ($C1, ex:b = 2.5);
        $C3 := DICE ($C2, ex:c = true);
        $C4 := DICE ($C3, ex:d = ex:value);
        """)
        values = [s.operation.condition.value for s in program.statements]
        assert values[0].value == 5
        assert float(values[1].value) == 2.5
        assert values[2].value is True
        assert values[3] == IRI("http://example.org/value")

    def test_query_keyword_optional(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        $C1 := SLICE (ex:cube, ex:dim);
        """)
        assert len(program) == 1

    def test_full_iris_accepted(self):
        program = parse_ql(
            "$C1 := SLICE (<http://e/cube>, <http://e/dim>);")
        assert program.cube == IRI("http://e/cube")


class TestErrors:
    def test_broken_chain(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := SLICE (ex:cube, ex:a);
        $C9 := SLICE ($C3, ex:b);
        """)
        with pytest.raises(QLSyntaxError):
            program.operations()

    def test_first_statement_must_use_cube(self):
        program = parse_ql("""
        PREFIX ex: <http://example.org/>
        QUERY
        $C1 := SLICE ($C0, ex:a);
        """)
        with pytest.raises(QLSyntaxError):
            program.operations()

    def test_syntax_errors(self):
        for bad in [
            "QUERY $C1 = SLICE (x:cube, x:dim);",       # wrong assign
            "QUERY $C1 := FROBNICATE (ex:c, ex:d);",     # unknown op
            "QUERY $C1 := SLICE ex:c, ex:d);",           # missing paren
            "QUERY $C1 := SLICE (nosuchprefix:c, nosuchprefix:d);",
            "",
        ]:
            with pytest.raises(QLSyntaxError):
                parse_ql(bad)

    def test_bad_string_escape(self):
        with pytest.raises(QLSyntaxError, match=r"unknown escape: \\q"):
            parse_ql("""
            PREFIX ex: <http://example.org/>
            QUERY
            $C1 := DICE (ex:cube, ex:a = "\\q");
            """)

    def test_unknown_comparison_operator(self):
        with pytest.raises(QLSyntaxError):
            parse_ql("""
            PREFIX ex: <http://example.org/>
            QUERY
            $C1 := DICE (ex:cube, ex:m ~ 5);
            """)

    def test_describe_output(self):
        program = parse_ql(PAPER_QUERY)
        text = program.describe()
        assert "$C1" in text and "SLICE" in text
