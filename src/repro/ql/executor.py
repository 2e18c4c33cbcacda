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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.rdf.terms import IRI
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.errors import EndpointError, GovernedQueryError
from repro.sparql.governor import QueryLimits
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
    #: SPARQL plan-cache activity during execution: a repeated OLAP
    #: session should show hits, not misses
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: streaming-pipeline activity during execution: SELECT evaluations
    #: (incl. sub-SELECTs) served by the streaming LIMIT path and the
    #: batches / rows it pulled (early termination keeps
    #: ``streamed_rows`` far below a full evaluation)
    streamed_queries: int = 0
    streamed_batches: int = 0
    streamed_rows: int = 0
    #: the dataset snapshot epoch the (last) SPARQL execution was
    #: pinned to — the consistency boundary this result observed; a
    #: session can compare epochs across executions to tell whether
    #: enrichment wrote to the endpoint in between
    snapshot_epoch: Optional[int] = None
    #: ``True`` when the governor cut the execution short and the
    #: caller opted into partial results (``allow_partial``): the cube
    #: is built from an incomplete row set
    truncated: bool = False
    #: endpoint governor activity during this execution (deltas of the
    #: endpoint's ``governor_*`` statistics): admissions, sheds and
    #: governed verdicts attributable to this QL program's queries
    governor_admitted: int = 0
    governor_shed: int = 0
    governor_timeouts: int = 0
    governor_budget_kills: int = 0
    governor_truncated_serves: int = 0

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

    @staticmethod
    def _check_cancelled(limits: Optional[QueryLimits]) -> None:
        """Observe a caller-held cancellation token between stages."""
        if limits is not None and limits.token is not None \
                and limits.token.cancelled:
            from repro.sparql.errors import QueryCancelled
            raise QueryCancelled(
                f"QL execution cancelled: {limits.token.reason}")

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
                variant: str = "auto",
                limits: Optional[QueryLimits] = None) -> QLResult:
        """Run a QL program; ``variant`` ∈ direct/optimized/auto.

        ``limits`` govern the SPARQL execution (deadline, budgets,
        cancellation token — see
        :class:`~repro.sparql.governor.QueryLimits`).  Governed
        verdicts are **final**: a query killed by its deadline or
        budget is *not* retried through the alternative translation
        (the endpoint didn't reject the query's shape — the governor
        rejected its cost, and the alternative would pay it again).
        """
        if variant not in ("direct", "optimized", "auto"):
            raise ValueError(f"unknown variant {variant!r}")
        self._check_cancelled(limits)
        (_, simplified, _, translation, report) = self.prepare(program)
        self._check_cancelled(limits)  # before the expensive stage

        from repro.sparql.evaluator import STREAM_TELEMETRY
        from repro.sparql.optimizer import PLAN_CACHE
        cache_before = PLAN_CACHE.statistics()
        stream_before = STREAM_TELEMETRY.snapshot()
        stats = self.endpoint.statistics
        gov_before = (stats.governor_admitted, stats.governor_shed,
                      stats.governor_timeouts, stats.governor_budget_kills,
                      stats.governor_truncated_serves)
        started = time.perf_counter()
        try:
            if variant == "direct":
                table = self.endpoint.select(translation.direct,
                                             limits=limits)
                report.variant = "direct"
                report.sparql_lines = translation.direct_lines
            elif variant == "optimized":
                table = self.endpoint.select(translation.optimized,
                                             limits=limits)
                report.variant = "optimized"
                report.sparql_lines = translation.optimized_lines
            else:
                try:
                    table = self.endpoint.select(translation.direct,
                                                 limits=limits)
                    report.variant = "direct"
                    report.sparql_lines = translation.direct_lines
                except GovernedQueryError:
                    raise  # a governed verdict is final, not a workaround cue
                except EndpointError:
                    table = self.endpoint.select(translation.optimized,
                                                 limits=limits)
                    report.variant = "optimized (fallback)"
                    report.sparql_lines = translation.optimized_lines
        finally:
            report.execute_seconds = time.perf_counter() - started
            report.governor_admitted = (
                stats.governor_admitted - gov_before[0])
            report.governor_shed = stats.governor_shed - gov_before[1]
            report.governor_timeouts = (
                stats.governor_timeouts - gov_before[2])
            report.governor_budget_kills = (
                stats.governor_budget_kills - gov_before[3])
            report.governor_truncated_serves = (
                stats.governor_truncated_serves - gov_before[4])
        report.rows = len(table)
        report.snapshot_epoch = table.snapshot_epoch
        report.truncated = bool(getattr(table, "truncated", False))
        cache_after = PLAN_CACHE.statistics()
        report.plan_cache_hits = cache_after["hits"] - cache_before["hits"]
        report.plan_cache_misses = (
            cache_after["misses"] - cache_before["misses"])
        stream_after = STREAM_TELEMETRY.snapshot()
        report.streamed_queries = (
            stream_after["queries"] - stream_before["queries"])
        report.streamed_batches = (
            stream_after["batches"] - stream_before["batches"])
        report.streamed_rows = stream_after["rows"] - stream_before["rows"]

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


def execute_ql(endpoint: LocalEndpoint, schema: CubeSchema,
               text: str, variant: str = "auto",
               limits: Optional[QueryLimits] = None) -> QLResult:
    """One-call convenience used by examples."""
    return QLEngine(endpoint, schema).execute(text, variant=variant,
                                              limits=limits)
