"""The Querying module pipeline: parse → simplify → translate → execute.

Ties the phases of the paper's Fig. 3 together.  :class:`QLEngine`
holds the endpoint and cube schema; :meth:`QLEngine.execute` runs a QL
program (text or parsed) through simplification and translation, sends
the chosen SPARQL variant(s) to the endpoint, and materializes the
result cube.

When the endpoint rejects the direct translation (e.g. its HAVING
restriction), ``variant="auto"`` falls back to the alternative query —
the behaviour the two-translation design exists for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.errors import EndpointError, QueryExecutionError
from repro.sparql.results import ResultTable
from repro.qb4olap.model import CubeSchema
from repro.ql.ast import QLProgram
from repro.ql.cube import ResultCube
from repro.ql.parser import parse_ql
from repro.ql.simplifier import (
    SimplificationReport,
    SimplifiedProgram,
    simplify_with_report,
)
from repro.ql.translator import Translation, translate


@dataclass
class ExecutionReport:
    """Timings and sizes for one QL execution."""

    variant: str
    parse_seconds: float = 0.0
    simplify_seconds: float = 0.0
    translate_seconds: float = 0.0
    execute_seconds: float = 0.0
    rows: int = 0
    sparql_lines: int = 0
    simplification: Optional[SimplificationReport] = None
    #: the dataset snapshot epoch the (last) SPARQL execution was
    #: pinned to — the consistency boundary this result observed; a
    #: session can compare epochs across executions to tell whether
    #: enrichment wrote to the endpoint in between
    snapshot_epoch: Optional[int] = None

    @property
    def total_seconds(self) -> float:
        return (self.parse_seconds + self.simplify_seconds
                + self.translate_seconds + self.execute_seconds)


@dataclass
class QLResult:
    """Everything a QL execution produces."""

    cube: ResultCube
    table: ResultTable
    translation: Translation
    simplified: SimplifiedProgram
    report: ExecutionReport


class QLEngine:
    """Execute QL programs against an endpoint-resident QB4OLAP cube."""

    def __init__(self, endpoint: LocalEndpoint, schema: CubeSchema) -> None:
        self.endpoint = endpoint
        self.schema = schema

    # -- pipeline stages ----------------------------------------------------------

    def parse(self, text: str) -> QLProgram:
        return parse_ql(text)

    def prepare(self, program: Union[str, QLProgram]
                ) -> tuple[QLProgram, SimplifiedProgram,
                           SimplificationReport, Translation, ExecutionReport]:
        report = ExecutionReport(variant="?")
        started = time.perf_counter()
        if isinstance(program, str):
            program = self.parse(program)
        report.parse_seconds = time.perf_counter() - started

        started = time.perf_counter()
        simplified, simplification = simplify_with_report(
            program, self.schema)
        report.simplify_seconds = time.perf_counter() - started
        report.simplification = simplification

        started = time.perf_counter()
        translation = translate(self.schema, simplified)
        report.translate_seconds = time.perf_counter() - started
        return program, simplified, simplification, translation, report

    def execute(self, program: Union[str, QLProgram],
                variant: str = "auto") -> QLResult:
        """Run a QL program; ``variant`` ∈ direct/optimized/auto.

        ``auto`` falls back to the alternative translation when the
        endpoint rejects the direct one, but not on a
        :class:`~repro.sparql.errors.QueryExecutionError`: an engine
        failure is not a capability limit, and the alternative query
        would only reach it again.
        """
        if variant not in ("direct", "optimized", "auto"):
            raise ValueError(f"unknown variant {variant!r}")
        (_, simplified, _, translation, report) = self.prepare(program)

        started = time.perf_counter()
        try:
            if variant == "direct":
                table = self.endpoint.select(translation.direct)
                report.variant = "direct"
                report.sparql_lines = translation.direct_lines
            elif variant == "optimized":
                table = self.endpoint.select(translation.optimized)
                report.variant = "optimized"
                report.sparql_lines = translation.optimized_lines
            else:
                try:
                    table = self.endpoint.select(translation.direct)
                    report.variant = "direct"
                    report.sparql_lines = translation.direct_lines
                except QueryExecutionError:
                    raise  # an engine failure, not a workaround cue
                except EndpointError:
                    table = self.endpoint.select(translation.optimized)
                    report.variant = "optimized (fallback)"
                    report.sparql_lines = translation.optimized_lines
        finally:
            report.execute_seconds = time.perf_counter() - started
        report.rows = len(table)
        report.snapshot_epoch = table.snapshot_epoch

        cube = ResultCube(table, translation.metadata)
        return QLResult(cube=cube, table=table, translation=translation,
                        simplified=simplified, report=report)

    def execute_both(self, program: Union[str, QLProgram]
                     ) -> Dict[str, QLResult]:
        """Run both translations (the demo lets the user compare them)."""
        return {
            "direct": self.execute(program, variant="direct"),
            "optimized": self.execute(program, variant="optimized"),
        }
