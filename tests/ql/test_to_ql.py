"""QL pretty-printer round-trip tests (program.to_ql())."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf.terms import IRI, Literal
from repro.ql.ast import (
    AttributePath,
    BooleanCondition,
    Comparison,
    Dice,
    DrillDown,
    MeasureRef,
    NotCondition,
    QLProgram,
    RollUp,
    Slice,
    Statement,
)
from repro.ql.parser import parse_ql

EX = "http://example.org/"


def iri(local: str) -> IRI:
    return IRI(EX + local)


def program_of(operations) -> QLProgram:
    program = QLProgram()
    source = iri("cube")
    for index, operation in enumerate(operations, start=1):
        input_ref = source if index == 1 else f"$C{index - 1}"
        program.statements.append(
            Statement(f"$C{index}", input_ref, operation))
    return program


def assert_round_trip(program: QLProgram) -> None:
    parsed = parse_ql(program.to_ql())
    assert len(parsed) == len(program)
    for ours, theirs in zip(program.statements, parsed.statements):
        assert theirs.variable == ours.variable
        assert theirs.input_ref == ours.input_ref
        assert theirs.operation == ours.operation


class TestRoundTrip:
    def test_slice_rollup(self):
        assert_round_trip(program_of([
            Slice(iri("sexDim")),
            RollUp(iri("citDim"), iri("continent")),
        ]))

    def test_drilldown(self):
        assert_round_trip(program_of([
            RollUp(iri("timeDim"), iri("year")),
            DrillDown(iri("timeDim"), iri("quarter")),
        ]))

    def test_dice_with_attribute_path(self):
        assert_round_trip(program_of([
            RollUp(iri("citDim"), iri("continent")),
            Dice(Comparison(
                AttributePath(iri("citDim"), iri("continent"),
                              iri("name")),
                "=", Literal("Africa"))),
        ]))

    def test_dice_with_measure_and_booleans(self):
        condition = BooleanCondition("OR", (
            Comparison(MeasureRef(iri("obsValue")), ">",
                       Literal("10", datatype=IRI(
                           "http://www.w3.org/2001/XMLSchema#integer"))),
            NotCondition(Comparison(
                MeasureRef(iri("obsValue")), "<=",
                Literal("5", datatype=IRI(
                    "http://www.w3.org/2001/XMLSchema#integer")))),
        ))
        assert_round_trip(program_of([
            Slice(iri("sexDim")),
            Dice(condition),
        ]))

    def test_string_with_quotes_and_backslashes(self):
        assert_round_trip(program_of([
            Slice(iri("sexDim")),
            Dice(Comparison(
                AttributePath(iri("d"), iri("l"), iri("a")),
                "=", Literal('say "hi" \\ bye'))),
        ]))

    def test_mary_query_round_trips(self):
        from repro.demo import MARY_QL
        program = parse_ql(MARY_QL)
        assert_round_trip(program)

    @given(st.lists(st.sampled_from(["slice", "rollup", "drilldown"]),
                    min_size=1, max_size=6),
           st.text(alphabet="abcdefgh", min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_random_pipelines_round_trip(self, kinds, name):
        operations = []
        for kind in kinds:
            if kind == "slice":
                operations.append(Slice(iri(name + "Dim")))
            elif kind == "rollup":
                operations.append(RollUp(iri(name + "Dim"),
                                         iri(name + "Level")))
            else:
                operations.append(DrillDown(iri(name + "Dim"),
                                            iri(name + "Bottom")))
        assert_round_trip(program_of(operations))

    @given(st.text(max_size=25))
    @example("”")  # the closing typographic quote
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_dice_strings_round_trip(self, value):
        try:
            literal = Literal(value)
        except Exception:
            return
        assert_round_trip(program_of([
            Slice(iri("sexDim")),
            Dice(Comparison(
                AttributePath(iri("d"), iri("l"), iri("a")),
                "=", literal)),
        ]))
