"""Abstract syntax of QL, the high-level OLAP language (paper §III-B).

A QL *program* is a sequence of assignments ``$Cn := OP(...)`` chaining
cube-to-cube operations, constrained to the shape
``(ROLLUP | SLICE | DRILLDOWN)* (DICE)*``:

* ``ROLLUP(cube, dimension, level)`` — aggregate up to ``level``;
* ``DRILLDOWN(cube, dimension, level)`` — move back down to a finer
  level (never below the cube's bottom granularity);
* ``SLICE(cube, dimension)`` — remove the dimension, aggregating its
  members away; ``SLICE(cube, measure)`` drops a measure column;
* ``DICE(cube, condition)`` — keep only cells satisfying a boolean
  condition over level attributes and/or (aggregated) measures.

Dice conditions reference attributes with the three-part path syntax
``dimension|level|attribute`` from the paper's demo query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.rdf.terms import IRI, Literal


class QLSyntaxError(Exception):
    """Raised for malformed QL programs."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Dice conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributePath:
    """``dimension|level|attribute`` — a coordinate attribute reference."""

    dimension: IRI
    level: IRI
    attribute: IRI

    def __str__(self) -> str:
        return (f"{self.dimension.local_name()}|{self.level.local_name()}|"
                f"{self.attribute.local_name()}")


@dataclass(frozen=True)
class MeasureRef:
    """A reference to a measure in a dice condition."""

    measure: IRI

    def __str__(self) -> str:
        return self.measure.local_name()


DiceOperand = Union[AttributePath, MeasureRef]

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class DiceCondition:
    """Base class of the dice-condition tree."""

    def measure_refs(self) -> List[MeasureRef]:
        return []

    def attribute_paths(self) -> List[AttributePath]:
        return []


@dataclass(frozen=True)
class Comparison(DiceCondition):
    operand: DiceOperand
    op: str
    value: Union[Literal, IRI]

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QLSyntaxError(f"unknown comparison operator {self.op!r}")

    def measure_refs(self) -> List[MeasureRef]:
        return [self.operand] if isinstance(self.operand, MeasureRef) else []

    def attribute_paths(self) -> List[AttributePath]:
        return [self.operand] if isinstance(self.operand, AttributePath) \
            else []

    def to_ql(self) -> str:
        if isinstance(self.operand, AttributePath):
            operand = (f"<{self.operand.dimension.value}>|"
                       f"<{self.operand.level.value}>|"
                       f"<{self.operand.attribute.value}>")
        else:
            operand = f"<{self.operand.measure.value}>"
        if isinstance(self.value, IRI):
            value = f"<{self.value.value}>"
        elif self.value.is_numeric or self.value.datatype.value.endswith(
                "boolean"):
            value = self.value.lexical
        else:
            # emit as a quoted plain string with N-Triples escaping —
            # the QL parser unescapes with the same rules.  QL's surface
            # syntax has no datatype/language annotations, so those are
            # not representable here (they do not occur in dice values).
            # A bare ``”`` would end the string early (the parser takes
            # ``"…”`` as the paper's typographic quotes), so it is escaped.
            value = Literal(self.value.lexical).n3().replace("”", "\\u201D")
        return f"{operand} {self.op} {value}"

    def __str__(self) -> str:
        value = self.value.n3() if hasattr(self.value, "n3") else str(self.value)
        return f"{self.operand} {self.op} {value}"


@dataclass(frozen=True)
class BooleanCondition(DiceCondition):
    op: str  # "AND" | "OR"
    operands: tuple

    def __post_init__(self) -> None:
        if self.op not in ("AND", "OR"):
            raise QLSyntaxError(f"unknown boolean operator {self.op!r}")

    def measure_refs(self) -> List[MeasureRef]:
        refs: List[MeasureRef] = []
        for operand in self.operands:
            refs.extend(operand.measure_refs())
        return refs

    def attribute_paths(self) -> List[AttributePath]:
        paths: List[AttributePath] = []
        for operand in self.operands:
            paths.extend(operand.attribute_paths())
        return paths

    def to_ql(self) -> str:
        joined = f" {self.op} ".join(
            operand.to_ql() for operand in self.operands)
        return f"({joined})"

    def __str__(self) -> str:
        joined = f" {self.op} ".join(str(o) for o in self.operands)
        return f"({joined})"


@dataclass(frozen=True)
class NotCondition(DiceCondition):
    operand: DiceCondition

    def measure_refs(self) -> List[MeasureRef]:
        return self.operand.measure_refs()

    def attribute_paths(self) -> List[AttributePath]:
        return self.operand.attribute_paths()

    def to_ql(self) -> str:
        inner = self.operand.to_ql()
        if not inner.startswith("("):
            inner = f"({inner})"
        return f"NOT {inner}"

    def __str__(self) -> str:
        return f"NOT {self.operand}"


# ---------------------------------------------------------------------------
# Operations and programs
# ---------------------------------------------------------------------------


class Operation:
    """Base class for QL operations."""

    name: str = "?"

    def arguments_ql(self) -> str:
        """The operation's arguments after the input cube, in QL text."""
        raise NotImplementedError


@dataclass(frozen=True)
class RollUp(Operation):
    dimension: IRI
    level: IRI
    name = "ROLLUP"

    def arguments_ql(self) -> str:
        return f"<{self.dimension.value}>, <{self.level.value}>"

    def __str__(self) -> str:
        return (f"ROLLUP({self.dimension.local_name()}, "
                f"{self.level.local_name()})")


@dataclass(frozen=True)
class DrillDown(Operation):
    dimension: IRI
    level: IRI
    name = "DRILLDOWN"

    def arguments_ql(self) -> str:
        return f"<{self.dimension.value}>, <{self.level.value}>"

    def __str__(self) -> str:
        return (f"DRILLDOWN({self.dimension.local_name()}, "
                f"{self.level.local_name()})")


@dataclass(frozen=True)
class Slice(Operation):
    target: IRI  # a dimension or a measure
    name = "SLICE"

    def arguments_ql(self) -> str:
        return f"<{self.target.value}>"

    def __str__(self) -> str:
        return f"SLICE({self.target.local_name()})"


@dataclass(frozen=True)
class Dice(Operation):
    condition: DiceCondition
    name = "DICE"

    def arguments_ql(self) -> str:
        return self.condition.to_ql()

    def __str__(self) -> str:
        return f"DICE({self.condition})"


@dataclass
class Statement:
    """``$var := OP(input, ...)``; input is a cube IRI or another var."""

    variable: str
    input_ref: Union[str, IRI]  # "$C1" or the cube's data set IRI
    operation: Operation

    def to_ql(self) -> str:
        source = self.input_ref if isinstance(self.input_ref, str) \
            else f"<{self.input_ref.value}>"
        return (f"{self.variable} := {self.operation.name} "
                f"({source}, {self.operation.arguments_ql()});")


@dataclass
class QLProgram:
    """A parsed QL program."""

    prefixes: Dict[str, str] = field(default_factory=dict)
    statements: List[Statement] = field(default_factory=list)

    @property
    def cube(self) -> IRI:
        """The data set IRI the pipeline starts from."""
        for statement in self.statements:
            if isinstance(statement.input_ref, IRI):
                return statement.input_ref
        raise QLSyntaxError("program never references a cube IRI")

    def operations(self) -> List[Operation]:
        """The operation pipeline, validating the variable chaining."""
        if not self.statements:
            raise QLSyntaxError("empty QL program")
        first = self.statements[0]
        if not isinstance(first.input_ref, IRI):
            raise QLSyntaxError(
                "the first statement must apply to a cube IRI")
        previous = first.variable
        pipeline = [first.operation]
        for statement in self.statements[1:]:
            if statement.input_ref != previous:
                raise QLSyntaxError(
                    f"statement {statement.variable} must consume "
                    f"{previous}, got {statement.input_ref}")
            pipeline.append(statement.operation)
            previous = statement.variable
        return pipeline

    def describe(self) -> str:
        lines = []
        for statement in self.statements:
            source = statement.input_ref if isinstance(statement.input_ref, str) \
                else statement.input_ref.local_name()
            lines.append(
                f"{statement.variable} := {statement.operation} <- {source}")
        return "\n".join(lines)

    def to_ql(self) -> str:
        """Round-trippable QL text (full-IRI form, no prefixes).

        ``parse_ql(program.to_ql())`` reconstructs an equal program —
        the serialization used to store or ship programs built with
        :class:`~repro.ql.builder.QLBuilder`.
        """
        lines = ["QUERY"]
        lines += [statement.to_ql() for statement in self.statements]
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.statements)
