"""The native OLAP engine over the star schema.

Evaluates the same canonical pipelines QL produces — roll-ups, slices
and dices — directly with numpy group-bys.  Two roles:

* the **baseline** of experiment E9 (traditional-DW approach: pay ETL
  once, then answer queries from arrays);
* the **correctness oracle**: for every QL query, the SPARQL path and
  this engine must produce identical cells
  (:mod:`repro.olap.compare`).

This module is the pipeline's parent-side half: :func:`compile_query`
turns a program into an array-only plan, and the shared kernel
(:mod:`repro.olap.kernel`) does everything after it — here over the
whole fact table as one morsel, in :mod:`repro.olap.parallel` over
many.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.rdf.terms import IRI, Literal, Term
from repro.ql.ast import (
    BooleanCondition,
    Comparison,
    DiceCondition,
    MeasureRef,
    NotCondition,
)
from repro.ql.simplifier import SimplifiedProgram
from repro.olap import kernel
from repro.olap.errors import DiceTypeError, OLAPEngineError, UnknownAxisError
from repro.olap.star import FactColumns, FactTable, StarSchema, narrowed


@dataclass
class NativeResult:
    """Cells produced by the native engine."""

    #: dimension IRI → level the axis sits at
    axis_levels: Dict[IRI, IRI]
    #: rows: coordinate tuple (terms, dimension order) → measure values
    cells: Dict[Tuple[Term, ...], Dict[IRI, float]]
    dimension_order: List[IRI]
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.cells)

    def value(self, measure: IRI, *coordinate: Term) -> Optional[float]:
        cell = self.cells.get(tuple(coordinate))
        return None if cell is None else cell.get(measure)

    def as_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for key, measures in self.cells.items():
            row: Dict[str, object] = {}
            for iri, member in zip(self.dimension_order, key):
                row[iri.value] = getattr(member, "value", str(member))
            for measure, value in measures.items():
                row[measure.value] = value
            rows.append(row)
        return rows


class NativeOLAPEngine:
    """Array-based evaluation of canonical QL pipelines."""

    def __init__(self, star: StarSchema) -> None:
        self.star = star

    def evaluate(self, program: SimplifiedProgram) -> NativeResult:
        """Evaluate a simplified QL program over the star schema: the
        whole fact table as the pipeline's single morsel."""
        started = time.perf_counter()
        query = compile_query(self.star, program)
        facts = self.star.facts
        partial = kernel.partials(fact_arrays(facts), 0, facts.size,
                                  query.plan)
        return query.result([partial], started)


def fact_arrays(facts: Union[FactTable, FactColumns]
                ) -> Dict[str, np.ndarray]:
    """The kernel's view of a fact table: one named array per column
    (``c:<dimension>`` codes, ``m:<measure>`` values), in a stable
    order so shared-memory exports lay out deterministically."""
    arrays = {f"c:{iri.value}": codes for iri, codes in sorted(
        facts.coordinates.items(), key=lambda kv: kv[0].value)}
    arrays.update((f"m:{iri.value}", values) for iri, values in sorted(
        facts.measures.items(), key=lambda kv: kv[0].value))
    return arrays


@dataclass(frozen=True)
class CompiledQuery:
    """A QL program compiled against one star schema: the array-only
    :class:`~repro.olap.kernel.Plan` that may cross into workers, plus
    the terms that label the kernel's output (parent side only)."""

    plan: kernel.Plan
    #: kept dimension → its level, in axis order
    axis_levels: Dict[IRI, IRI]
    #: per kept axis, the members of its level (position = code)
    members: List[List[Term]]
    measures: List[IRI]

    def result(self, payloads: Sequence[kernel.Partial],
               started: float) -> NativeResult:
        """Merge the morsel partials into the query's cells."""
        cells = kernel.cells(payloads, self.plan, self.members,
                             self.measures)
        return NativeResult(axis_levels=self.axis_levels, cells=cells,
                            dimension_order=list(self.axis_levels),
                            seconds=time.perf_counter() - started)


def compile_query(star: StarSchema,
                  program: SimplifiedProgram) -> CompiledQuery:
    """Turn ``program`` into a kernel plan: kept axes with their
    roll-up maps, measures with their aggregates, and every dice
    compiled once — attribute comparisons into per-member booleans,
    measure comparisons into numeric targets — split into
    pre-aggregation (attribute-only) and post-aggregation
    (measure-bearing) conditions."""
    if program.state is None:
        raise OLAPEngineError("program lacks a checked cube state")
    state = program.state
    kept = sorted(state.levels, key=lambda iri: iri.value)
    axis_levels = {iri: state.levels[iri] for iri in kept}
    measures = list(state.measures)

    def compile_dice(condition: DiceCondition) -> kernel.Dice:
        if isinstance(condition, Comparison):
            if isinstance(condition.operand, MeasureRef):
                return ("measure", measures.index(condition.operand.measure),
                        condition.op, _dice_target(condition.value))
            path = condition.operand
            axis = _require_axis(kept, path.dimension)
            table = star.dimension(path.dimension)
            level = axis_levels[path.dimension]
            values = table.attribute_values(level, path.attribute)
            member_ok = np.array(
                [_compare_terms(values.get(member), condition.op,
                                condition.value)
                 for member in table.members_at(level)], dtype=bool)
            return ("member", axis, member_ok)
        if isinstance(condition, BooleanCondition):
            return (condition.op, [compile_dice(operand)
                                   for operand in condition.operands])
        if isinstance(condition, NotCondition):
            return ("NOT", compile_dice(condition.operand))
        raise OLAPEngineError(f"unknown condition {condition!r}")

    plan = kernel.Plan(
        # narrow level codes group faster: numpy's stable sort is a
        # radix sort up to 16 bits
        axes=tuple((f"c:{iri.value}", narrowed(
            star.dimension(iri).map_to_level(axis_levels[iri])))
            for iri in kept),
        measures=tuple((f"m:{iri.value}",
                        star.measure_aggregates.get(iri, "SUM"))
                       for iri in measures),
        pre=tuple(compile_dice(condition) for condition in program.dices
                  if not condition.measure_refs()),
        post=tuple(compile_dice(condition) for condition in program.dices
                   if condition.measure_refs()))
    members = [star.dimension(iri).members_at(axis_levels[iri])
               for iri in kept]
    return CompiledQuery(plan, axis_levels, members, measures)


def _require_axis(kept: List[IRI], dimension: IRI) -> int:
    """Position of ``dimension`` among the kept axes, or a typed error."""
    try:
        return kept.index(dimension)
    except ValueError:
        raise UnknownAxisError(
            f"dice references dimension {dimension.value}, which is not "
            f"an axis of the cube at this point of the pipeline "
            f"(sliced away or never part of the cube)") from None


def _dice_target(value: Term) -> float:
    """The numeric RHS of a measure dice, or a typed error.

    Measure aggregates are numbers; comparing them against an IRI or a
    non-numeric lexical form is a query bug the engine must report, not
    silently coerce to ``0.0``.
    """
    if not isinstance(value, Literal):
        raise DiceTypeError(
            f"measure dice compares against non-literal {value!r}")
    try:
        return float(value.value)
    except (TypeError, ValueError):
        raise DiceTypeError(
            f"measure dice compares against non-numeric literal "
            f"{value.value!r}") from None


_TERM_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                     "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare_terms(value: Optional[Term], op: str, target: Term) -> bool:
    """Python-side comparison for attribute dices (mirrors SPARQL):
    literals compare by value — incomparable types never match — and
    any other pair of terms only for (in)equality."""
    compare = _TERM_COMPARISONS[op]
    if value is None:
        return False
    if isinstance(value, Literal) and isinstance(target, Literal):
        try:
            return bool(compare(value.value, target.value))
        except TypeError:
            return False
    return op in ("=", "!=") and bool(compare(value, target))
