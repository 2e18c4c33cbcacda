"""Parallel evaluation of QL pipelines over a shared fact snapshot.

The fan-out of the pipeline the serial engine runs
(:mod:`repro.olap.kernel`): the parent compiles the program once and
exports one compressed :class:`~repro.olap.star.FactColumns`
generation into shared memory (through the refcounted
:data:`~repro.rdf.concurrency.SHM_SEGMENTS` registry); workers map the
columns **zero-copy** and run ``kernel.partials`` over contiguous
fact-row morsels; the parent merges the partials into the same
:class:`~repro.olap.engine.NativeResult` the serial engine produces.

A task is small — the shm manifest, a row range and the compiled plan
(one roll-up entry and one dice boolean per *member*, not per fact).
Worker-side code (``_worker_*`` here, all of the kernel) is
shared-nothing, enforced by the ``parallel-safety`` lint rule.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.rdf import shm
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.ql.simplifier import SimplifiedProgram
from repro.olap import kernel
from repro.olap.engine import NativeResult, compile_query, fact_arrays
from repro.olap.errors import OLAPEngineError
from repro.olap.star import StarSchema

__all__ = ["ParallelStarAggregator"]

#: Per-worker attach cache: segment name -> (handle, mapped views).
#: Pruned to the current task's segment each run so stale fact
#: generations do not pin dead segments in long-lived workers.
_WORKER_FACTS: Dict[str, Tuple[object, Dict[str, np.ndarray]]] = {}


def _worker_star_partials(
        task: Tuple[shm.ArraysManifest, int, int, kernel.Plan]
        ) -> kernel.Partial:
    """One task — fact manifest, row range ``[lo, hi)``, compiled plan —
    through ``kernel.partials``, over mapped views."""
    manifest, lo, hi, plan = task
    for name in list(_WORKER_FACTS):
        if name != manifest.segment:
            del _WORKER_FACTS[name]
    cached = _WORKER_FACTS.get(manifest.segment)
    if cached is None:
        cached = _WORKER_FACTS[manifest.segment] = shm.attach_arrays(manifest)
    return kernel.partials(cached[1], lo, hi, plan)


class ParallelStarAggregator:
    """Evaluates simplified QL programs across a worker pool, reading
    facts from one pinned shared-memory :class:`FactColumns` snapshot.

    Semantics match :class:`~repro.olap.engine.NativeOLAPEngine`
    by construction — both run the same compile, kernel and cell
    assembly; only the fact scan is fanned out.
    """

    def __init__(self, star: StarSchema, workers: int = 4,
                 morsel_rows: int = shm.MORSEL_ROWS) -> None:
        self.star = star
        self.workers = max(1, int(workers))
        self.morsel_rows = max(1, int(morsel_rows))
        self._pool = shm.SpawnPool(self.workers)
        self._lock = threading.Lock()
        self._pinned: Optional[Tuple[object, ...]] = None
        self.telemetry: Dict[str, int] = {"queries": 0, "morsels": 0}

    def _pin_export(self) -> Tuple[Tuple[object, ...], shm.ArraysManifest,
                                   int]:
        """Pin (exporting on first sight) the fact snapshot; one
        segment per aggregator per star epoch, refcounted by the
        registry.  Returns the registry key, the manifest and the fact
        count.  Every pin is matched by an ``unpin`` when the query
        finishes; :meth:`close` retires the key afterwards."""
        key = ("facts", id(self), self.star.epoch)

        def build() -> Tuple[object, Sequence[object]]:
            columns = self.star.fact_columns()
            segment, manifest = shm.export_arrays(
                fact_arrays(columns), shm.segment_name("facts"),
                epoch=columns.epoch)
            return (manifest, columns.rows), (segment,)

        manifest, rows = SHM_SEGMENTS.pin_or_export(key, build)
        with self._lock:
            self._pinned = key
        return key, manifest, rows

    def close(self) -> None:
        """Shut the pool down and retire the fact segment.  Idempotent;
        afterwards no segment exported by this aggregator remains
        (provided no query is still running)."""
        self._pool.shutdown(wait=True)
        with self._lock:
            pinned, self._pinned = self._pinned, None
        if pinned is not None:
            SHM_SEGMENTS.retire(pinned)

    def evaluate(self, program: SimplifiedProgram) -> NativeResult:
        """Evaluate ``program`` across the pool; cell-identical to the
        serial engine (float associativity aside).  Any worker failure
        surfaces as an :class:`OLAPEngineError`."""
        started = time.perf_counter()
        query = compile_query(self.star, program)
        key, manifest, rows = self._pin_export()
        try:
            tasks = [
                (manifest, lo, min(lo + self.morsel_rows, rows), query.plan)
                for lo in range(0, rows, self.morsel_rows)]
            self.telemetry["queries"] += 1
            self.telemetry["morsels"] += len(tasks)
            payloads = list(self._pool.executor().map(
                _worker_star_partials, tasks))
        except BrokenProcessPool:
            self._pool.shutdown(wait=False)
            raise OLAPEngineError(
                "parallel OLAP worker died mid-morsel; the pool will be "
                "rebuilt for the next query") from None
        except Exception as error:
            # the taxonomy boundary: whatever a worker raised (a vanished
            # segment, a bad task) reaches callers typed, cause attached
            raise OLAPEngineError(
                f"parallel OLAP worker failed: {error!r}") from error
        finally:
            SHM_SEGMENTS.unpin(key)
        return query.result(payloads, started)

    def describe(self, program: SimplifiedProgram) -> str:
        """The EXPLAIN-style fan-out line for ``program``."""
        n = self.star.facts.size
        morsels = (n + self.morsel_rows - 1) // self.morsel_rows
        measures = sorted(
            (program.state.measures if program.state else []),
            key=lambda iri: iri.value)
        spec = ",".join(
            f"{self.star.measure_aggregates.get(iri, 'SUM')}"
            f"({iri.local_name()})" for iri in measures)
        return (f"parallel-olap: workers={self.workers} morsels={morsels} "
                f"facts={n} epoch={self.star.epoch} agg={spec}")

    def __repr__(self) -> str:
        return (f"<ParallelStarAggregator workers={self.workers} "
                f"morsel_rows={self.morsel_rows} "
                f"queries={self.telemetry['queries']}>")
