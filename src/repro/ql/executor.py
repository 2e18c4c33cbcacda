"""The Querying module pipeline: parse → simplify → translate → execute.

Ties the phases of the paper's Fig. 3 together.  :class:`QLEngine`
holds the endpoint and cube schema; :meth:`QLEngine.execute` runs a QL
program (text or parsed) through simplification and translation, sends
the chosen SPARQL variant(s) to the endpoint, and materializes the
result cube.

When the endpoint rejects the direct translation (e.g. its HAVING
restriction), ``variant="auto"`` falls back to the alternative query —
the behaviour the two-translation design exists for.

The front half (parse, simplify, translate) depends only on the program
text and the cube schema, so an engine keeps each program text it has
prepared, up to :data:`PREPARED_PROGRAMS` of them.  A text is reused
only while the engine's schema still equals (deep dataclass equality)
a copy of the schema it was prepared against: enriching the schema in
place, or assigning ``engine.schema``, prepares it again.  A
:class:`~repro.ql.ast.QLProgram` object, and a program that fails, is
never kept.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

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
class PreparedProgram:
    """A program text's front half, as prepared against ``schema``."""

    simplified: SimplifiedProgram
    simplification: SimplificationReport
    translation: Translation
    #: a deep copy of the schema this entry was prepared against
    schema: CubeSchema


#: program texts an engine keeps prepared; past this the oldest goes
PREPARED_PROGRAMS = 256


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
        self._prepared: Dict[str, PreparedProgram] = {}
        self._prepared_lock = threading.Lock()
        # copied here, not on the first execution, so that one does not
        # pay for it; entries prepared against equal schemas share it
        self._schema_copy = copy.deepcopy(schema)

    # -- pipeline stages ----------------------------------------------------------

    def parse(self, text: str) -> QLProgram:
        return parse_ql(text)

    def prepare(self, program: Union[str, QLProgram]
                ) -> tuple[QLProgram, SimplifiedProgram,
                           SimplificationReport, Translation, ExecutionReport]:
        """Parse, simplify and translate ``program`` afresh, timing each
        phase; nothing is kept (``execute`` keeps what it prepares)."""
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

    def _schema_snapshot(self) -> CubeSchema:
        """A deep copy equal to the schema as it is now."""
        snapshot = self._schema_copy
        if snapshot != self.schema:
            snapshot = self._schema_copy = copy.deepcopy(self.schema)
        return snapshot

    def _entry(self, program: Union[str, QLProgram], variant: str
               ) -> Tuple[PreparedProgram, ExecutionReport]:
        """The kept entry for ``program`` if it is still valid, else a
        fresh preparation (kept when ``program`` is text).  A fresh
        report's translate time includes rendering the text ``variant``
        runs first; a kept entry's report reads zero for every phase."""
        if isinstance(program, str):
            with self._prepared_lock:
                entry = self._prepared.get(program)
            if entry is not None and entry.schema == self.schema:
                return entry, ExecutionReport(
                    variant="?", simplification=entry.simplification)
        # the snapshot comes first: a schema edited while this prepares
        # then fails the next hit test instead of passing it
        schema = self._schema_snapshot()
        (_, simplified, simplification, translation,
         report) = self.prepare(program)
        started = time.perf_counter()
        getattr(translation, "optimized" if variant == "optimized"
                else "direct")
        report.translate_seconds += time.perf_counter() - started
        entry = PreparedProgram(simplified, simplification, translation,
                                schema)
        if isinstance(program, str):
            with self._prepared_lock:
                self._prepared.pop(program, None)
                self._prepared[program] = entry
                if len(self._prepared) > PREPARED_PROGRAMS:
                    del self._prepared[next(iter(self._prepared))]
        return entry, report

    def execute(self, program: Union[str, QLProgram],
                variant: str = "auto") -> QLResult:
        """Run a QL program; ``variant`` ∈ direct/optimized/auto.

        ``auto`` falls back to the alternative translation when the
        endpoint rejects the direct one, but not on a
        :class:`~repro.sparql.errors.QueryExecutionError`: an engine
        failure is not a capability limit, and the alternative query
        would only reach it again.

        A program text this engine prepared before, against a schema
        equal to ``self.schema`` now, skips parse, simplify and
        translate: only its SPARQL runs, and the report reads zero for
        those three phases.
        """
        if variant not in ("direct", "optimized", "auto"):
            raise ValueError(f"unknown variant {variant!r}")
        entry, report = self._entry(program, variant)
        return self._run(entry, variant, report)

    def _run(self, entry: PreparedProgram, variant: str,
             report: ExecutionReport) -> QLResult:
        translation = entry.translation
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
                        simplified=entry.simplified, report=report)

    def execute_both(self, program: Union[str, QLProgram]
                     ) -> Dict[str, QLResult]:
        """Run both translations (the demo lets the user compare them),
        preparing the program once; the optimized run's report reads
        zero for the front-half phases."""
        entry, report = self._entry(program, "direct")
        return {
            "direct": self._run(entry, "direct", report),
            "optimized": self._run(entry, "optimized", ExecutionReport(
                variant="?", simplification=entry.simplification)),
        }
