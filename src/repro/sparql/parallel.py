"""Morsel-driven parallel execution of BGP plans over shared memory.

A single SPARQL query in this engine runs on one core: the evaluator's
batch pipeline is vectorized but sequential, and the GIL prevents
thread-level CPU parallelism.  This module adds the standard
analytical-engine answer — **morsel-driven parallelism** (Leis et al.,
HyPer) — on top of the snapshot/columnar machinery the previous layers
already provide:

* the first join step of a parallel-safe :class:`PhysicalPlan` is a
  contiguous range of one sorted :class:`~repro.rdf.columnar.
  TripleColumns` order (located with the existing ``_route`` /
  ``_range`` staged binary searches); that range is split into
  **morsels** of ~``morsel_rows`` rows;
* each morsel is shipped to a persistent ``ProcessPoolExecutor``
  worker, which executes the *same* join pipeline
  (:meth:`PatternEvaluator._step_triple`, unchanged) against columns
  **re-mapped zero-copy from shared memory** — the parent exports each
  graph generation once per epoch (see :mod:`repro.rdf.shm` and the
  refcounted registry in :mod:`repro.rdf.concurrency`), and the term
  dictionary prefix ships once per epoch the same way;
* workers return **id-level** results — solution rows, or the
  per-group partials of :func:`repro.sparql.aggregation.partials`, the
  function the serial path runs once over its whole table — plus the
  per-step ``(rows, width)`` charge log; the parent replays the charges
  against the query's single governor budget (global across workers)
  and hands the rows (concatenated) or the partials, in morsel
  submission order, back to ``evaluate_select``, whose one tail merges,
  decodes and finishes them — so aggregate, DISTINCT / ORDER BY /
  LIMIT / OFFSET semantics are the serial ones by construction;
* deadline, budget and cancellation verdicts trip a one-byte shared
  **control flag** that workers poll at morsel boundaries; a worker
  death surfaces as a typed :class:`QueryExecutionError` and the pool
  is rebuilt lazily for the next query.

Worker-side code (the ``_worker*`` functions and ``_Worker*`` classes
below) obeys a shared-nothing contract enforced by the
``parallel-safety`` lint rule: it touches only the SHM-mapped columns,
the shipped dictionary and the shipped pattern list — never the live
endpoint, graphs, or module-level caches of the parent process.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, \
    wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.rdf import shm
from repro.rdf.columnar import IdPattern, TripleColumns, concat_arrays
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import DatasetSnapshot, GraphSnapshot
from repro.sparql import aggregation
from repro.sparql.algebra import BGP, SelectQuery, TriplePatternNode, Var
from repro.sparql.bindings import BindingTable, concat as table_concat
from repro.sparql.errors import QueryExecutionError
from repro.sparql.evaluator import (
    DatasetContext,
    PatternEvaluator,
    STREAMING_ENABLED,
    would_stream,
)
from repro.sparql.evaluator_steps import Build
from repro.sparql.expressions import (
    Aggregate,
    EvalContext,
    VariableExpression,
)
from repro.sparql.optimizer import get_plan
from repro.testing import faults as _faults

__all__ = ["AUTO_THRESHOLD", "DEFAULT_WORKERS", "ParallelExecutor"]

#: Auto-enable threshold: below this estimated first-step cardinality
#: a query stays serial (fan-out overhead would dominate).
AUTO_THRESHOLD = 8192

#: Default worker-pool width when ``parallel=True`` picks for you.
DEFAULT_WORKERS = 4

#: Parent-side poll interval while waiting on morsel futures — this is
#: the granularity at which deadlines/cancellation are enforced over a
#: running parallel query.
_POLL_SECONDS = 0.02


# ---------------------------------------------------------------------------
# worker side (shared-nothing: see the parallel-safety lint rule)
# ---------------------------------------------------------------------------

#: Per-worker attach caches: segment name -> mapped payload.  Pruned to
#: the current task's segments on every run, so stale epochs do not
#: accumulate in long-lived workers.
_WORKER_COLUMNS: Dict[str, Tuple[object, TripleColumns]] = {}
_WORKER_TERMS: Dict[str, TermDictionary] = {}

#: Join build sides (the match arrays of a pattern's whole range,
#: indexed by join key) keyed by (segment names, pattern, join spec):
#: the build side scans the *whole* mapped columns, so one build serves
#: every morsel of a step — and every later query against the same
#: epoch.  Entries die with their segments (pruned per task).
_WORKER_MEMOS: Dict[Tuple[Any, ...], Build] = {}


class _WorkerDataset:
    """The one dataset attribute :class:`PatternEvaluator` needs."""

    __slots__ = ("dictionary",)

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary


class _WorkerContext:
    """A minimal evaluation context for in-worker join steps: the
    rebuilt dictionary and no governor (budgets are parent-side)."""

    __slots__ = ("dataset", "governor")

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dataset = _WorkerDataset(dictionary)
        self.governor = None


class _WorkerMorselSource:
    """This task's assigned first-step range: a contiguous slice of
    one graph's chosen sort order, served zero-copy."""

    __slots__ = ("_generation", "_order", "_lo", "_hi")

    def __init__(self, columns: TripleColumns, order: str,
                 lo: int, hi: int) -> None:
        self._generation = columns
        self._order = order
        self._lo = lo
        self._hi = hi

    def match_arrays(self, pattern: IdPattern):
        s, p, o = self._generation._orders[self._order]
        return s[self._lo:self._hi], p[self._lo:self._hi], \
            o[self._lo:self._hi]

    def estimate_ids(self, pattern: IdPattern) -> int:
        return self._hi - self._lo


class _WorkerUnionSource:
    """All mapped columns of the snapshot, in the parent's source
    order — what the later (probe/hash) join steps run against.

    ``cache_token`` identifies the immutable column set (its segment
    names), so join builds over it are cacheable across morsels."""

    __slots__ = ("_members", "cache_token")

    def __init__(self, columns: Sequence[TripleColumns],
                 cache_token: Tuple[str, ...]) -> None:
        self._members = [member for member in columns if member.size]
        self.cache_token = cache_token

    def match_arrays(self, pattern: IdPattern):
        parts = [member.arrays(pattern) for member in self._members]
        return concat_arrays([part for part in parts if len(part[0])])

    def estimate_ids(self, pattern: IdPattern) -> int:
        return sum(member.count(pattern) for member in self._members)


def _worker_prune(task: Dict[str, Any]) -> None:
    """Drop cache entries for segments this task no longer references
    (stale epochs); dropping the handle unmaps the views."""
    live = {manifest.segment for manifest in task["graphs"]}
    for name in list(_WORKER_COLUMNS):
        if name not in live:
            del _WORKER_COLUMNS[name]
    for name in list(_WORKER_TERMS):
        if name != task["terms"].segment:
            del _WORKER_TERMS[name]
    for key in list(_WORKER_MEMOS):
        if any(name not in live for name in key[0]):
            del _WORKER_MEMOS[key]


def _worker_columns(manifest: shm.ColumnsManifest) -> TripleColumns:
    cached = _WORKER_COLUMNS.get(manifest.segment)
    if cached is None:
        cached = shm.attach_columns(manifest)
        _WORKER_COLUMNS[manifest.segment] = cached
    return cached[1]


def _worker_dictionary(manifest: shm.TermsManifest) -> TermDictionary:
    cached = _WORKER_TERMS.get(manifest.segment)
    if cached is None:
        cached = TermDictionary.from_terms(shm.attach_terms(manifest))
        _WORKER_TERMS[manifest.segment] = cached
    return cached


class _WorkerEvaluator(PatternEvaluator):
    """The serial join pipeline with morsel-aware strategy choices.

    A morsel's binding table is a small slice of a large scan, so the
    parent's ``estimate <= 4 * rows`` range-scan heuristic would send
    every morsel down the per-key index-probe path — quadratic across
    the fan-out.  Workers instead always build from the pattern's whole
    range in the full mapped columns and keep the indexed build in
    :data:`_WORKER_MEMOS`: the first morsel pays for the scan and the
    index once per worker, every later morsel (and every later query
    against the same epoch) only looks its keys up in it.  The kernel never
    writes to a build side, so sharing one across morsels cannot
    corrupt results.
    """

    def _prefer_hash(self, source, base, rows) -> bool:
        if isinstance(source, _WorkerUnionSource):
            return rows > 0
        return super()._prefer_hash(source, base, rows)

    def _hash_build(self, source, base, key_positions, checks,
                    rows) -> Build:
        token = getattr(source, "cache_token", None)
        if token is None:
            return super()._hash_build(
                source, base, key_positions, checks, rows)
        key = (token, base, tuple(key_positions), tuple(checks))
        build = _WORKER_MEMOS.get(key)
        if build is None:
            build = super()._hash_build(
                source, base, key_positions, checks, rows)
            _WORKER_MEMOS[key] = build
        return build


#: What a morsel that saw the control flag answers: the parent is
#: already raising, nobody reads it.
_ABORTED: Tuple[Any, List[Tuple[int, int]]] = (None, [])


def _worker_run(task: Dict[str, Any]) -> Tuple[Any, List[Tuple[int, int]]]:
    """Execute one morsel: the shipped join pipeline over the mapped
    columns, id-level in and id-level out (decode stays parent-side).
    Answers ``(solved table or its aggregate partials, charge log)``."""
    fault = task.get("fault")
    if fault is not None:
        kind, seconds = fault
        if kind == "kill":
            os._exit(17)
        elif kind == "raise":
            raise RuntimeError("injected worker fault (parallel.worker.raise)")
        elif kind == "delay":
            time.sleep(seconds)
    control = task["control"]
    if shm.control_is_set(control):
        return _ABORTED
    _worker_prune(task)
    columns = [_worker_columns(manifest) for manifest in task["graphs"]]
    dictionary = _worker_dictionary(task["terms"])
    evaluator = _WorkerEvaluator(_WorkerContext(dictionary))
    graph_index, order, lo, hi = task["morsel"]
    first_source = _WorkerMorselSource(columns[graph_index], order, lo, hi)
    rest_source = _WorkerUnionSource(
        columns, tuple(manifest.segment for manifest in task["graphs"]))
    patterns = task["patterns"]
    table = BindingTable.unit()
    charges: List[Tuple[int, int]] = []
    for position, index in enumerate(task["order"]):
        if position and shm.control_is_set(control):
            return _ABORTED
        source = first_source if position == 0 else rest_source
        table = evaluator._step_triple(patterns[index], source, table)
        charges.append((len(table), max(1, len(table.names))))
        if not table:
            break
    if task["agg"] is not None:
        return aggregation.partials(task["agg"], table, dictionary.decode,
                                    EvalContext()), charges
    return table, charges


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Probe:
    """Outcome of the eligibility check: either a ``reason`` to stay
    serial, or everything the export/dispatch stage needs."""

    __slots__ = ("reason", "graphs", "plan", "base", "counts",
                 "est", "aggregate")

    def __init__(self, reason: Optional[str] = None) -> None:
        self.reason = reason
        self.graphs: List[GraphSnapshot] = []
        self.plan = None
        self.base: IdPattern = (None, None, None)
        self.counts: List[int] = []
        self.est = 0
        #: ``None`` for the general path; the aggregation plan when the
        #: workers can compute its partials (:func:`_pushable`)
        self.aggregate: Optional[aggregation.Plan] = None


class _Job:
    """One exported, morselized parallel query (segments pinned)."""

    __slots__ = ("manifests", "terms", "patterns", "order", "tasks",
                 "aggregate", "pinned", "skew")

    def __init__(self) -> None:
        self.manifests: List[shm.ColumnsManifest] = []
        self.terms: Optional[shm.TermsManifest] = None
        self.patterns: List[TriplePatternNode] = []
        self.order: List[int] = []
        self.tasks: List[Tuple[int, str, int, int]] = []
        #: the plan whose partials the workers compute (or ``None``)
        self.aggregate: Optional[aggregation.Plan] = None
        self.pinned: List[Tuple[object, ...]] = []
        self.skew = 1.0


def _pushable(query: SelectQuery, plan: aggregation.Plan,
              available: frozenset) -> bool:
    """Whether the workers can compute ``plan``'s partials: no HAVING,
    variable-only GROUP BY keys (all bound by the BGP), and every
    projected expression a bare non-DISTINCT aggregate with a fixed-size
    state over a BGP variable (or ``COUNT(*)``).  Anything else takes
    the general path (parallel BGP, one partial over the concatenated
    rows)."""
    if query.having or query.projection is None or not plan.fixed_size():
        return False
    reads = [key for key, _name in plan.keys]
    for item in plan.projection:
        call = item.expression
        if not isinstance(call, Aggregate) or call.distinct:
            return False
        if call.expression is not None:  # COUNT(*) reads nothing
            reads.append(call.expression)
    return all(isinstance(expression, VariableExpression)
               and expression.name in available for expression in reads)


class ParallelExecutor:
    """Owns the worker pool, the exported-segment keys and the morsel
    dispatch loop for one endpoint.

    The executor is engaged from ``evaluate_select`` (via the
    ``parallel`` attribute of the :class:`DatasetContext`); it answers
    with id rows or aggregate partials for that function's tail to
    finish, or declines to fall back to the serial path — eligibility
    reasons land in :attr:`last_decline` and the ``telemetry`` counters.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 morsel_rows: int = shm.MORSEL_ROWS,
                 threshold: int = AUTO_THRESHOLD) -> None:
        self.workers = max(1, int(workers))
        self.morsel_rows = max(1, int(morsel_rows))
        self.threshold = max(0, int(threshold))
        self._lock = threading.Lock()
        self._pool = shm.SpawnPool(self.workers)
        #: logical prefix -> currently-live registry key, so superseded
        #: epochs are retired as soon as a newer one is exported
        self._current: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
        self.telemetry: Dict[str, int] = {
            "queries": 0, "declined": 0, "morsels": 0,
            "worker_deaths": 0, "aborts": 0, "agg_pushdown": 0}
        self.last_decline: Optional[str] = None

    def close(self) -> None:
        """Shut down the workers and retire every exported segment.

        Idempotent; after it returns, no shared-memory segment exported
        by this executor remains (provided no query is still running)."""
        self._pool.shutdown(wait=True)
        with self._lock:
            current, self._current = dict(self._current), {}
        for key in current.values():
            SHM_SEGMENTS.retire(key)

    # -- eligibility ---------------------------------------------------------

    def _probe(self, query: SelectQuery, context, source,
               evaluator: PatternEvaluator) -> _Probe:
        node = query.pattern
        if not isinstance(node, BGP) or not node.patterns:
            return _Probe("pattern is not a plain BGP")
        if any(not isinstance(pattern, TriplePatternNode)
               for pattern in node.patterns):
            return _Probe("BGP contains property paths")
        if not isinstance(context.dataset, DatasetSnapshot):
            return _Probe("not running against a pinned snapshot")
        graphs = list(source.graphs)
        if len(graphs) > 1 and not context.dataset.graphs_disjoint:
            # morsels are per-member ranges: nothing would dedup them
            return _Probe("union source is not disjoint")
        if any(not isinstance(graph, GraphSnapshot) for graph in graphs):
            return _Probe("source graphs are not pinned snapshots")
        if evaluator._bgp_dead(node.patterns):
            return _Probe("dead constant (serial fast path)")
        plan = get_plan(node, frozenset(), source)
        if not plan.parallel_safe:
            return _Probe("plan is not parallel-safe")
        first = node.patterns[plan.order[0]]
        lookup = evaluator._dict.lookup
        base: List[Optional[int]] = []
        for position in first.positions():
            if isinstance(position, Var):
                base.append(None)
            else:
                base.append(lookup(position))
        base_pattern = (base[0], base[1], base[2])
        counts = [graph.count_ids(base_pattern) for graph in graphs]
        est = sum(counts)
        if est < self.threshold:
            return _Probe(f"estimated first-step scan of {est} rows is "
                          f"below the threshold ({self.threshold})")
        probe = _Probe()
        probe.graphs = graphs
        probe.plan = plan
        probe.base = base_pattern
        probe.counts = counts
        probe.est = est
        if query.is_aggregate_query:
            plan = aggregation.Plan(query)
            if _pushable(query, plan, frozenset(node.variables())):
                probe.aggregate = plan
        return probe

    # -- export / morselization ----------------------------------------------

    def _graph_key(self, graph: GraphSnapshot) -> Tuple[object, ...]:
        identifier = graph.identifier
        ident = identifier.value if identifier is not None else ""
        return ("columns", id(self), ident, graph.epoch)

    def _supersede(self, prefix: Tuple[object, ...],
                   key: Tuple[object, ...]) -> None:
        """Track the live key under ``prefix``; retire the one it
        replaced (unlinked once its last pinned query drains)."""
        with self._lock:
            old = self._current.get(prefix)
            self._current[prefix] = key
        if old is not None and old != key:
            SHM_SEGMENTS.retire(old)

    def _export_job(self, query: SelectQuery, context,
                    probe: _Probe) -> _Job:
        job = _Job()
        node = query.pattern
        job.patterns = list(node.patterns)
        job.order = list(probe.plan.order)
        views: List[TripleColumns] = []
        for graph in probe.graphs:
            key = self._graph_key(graph)

            def build(graph: GraphSnapshot = graph
                      ) -> Tuple[object, Sequence[object]]:
                columns = graph.folded_columns()
                segment, manifest, view = shm.export_columns(
                    columns, shm.segment_name("col"))
                return (manifest, view), (segment,)

            manifest, view = SHM_SEGMENTS.pin_or_export(key, build)
            job.pinned.append(key)
            self._supersede(key[:3], key)
            job.manifests.append(manifest)
            views.append(view)
        dictionary = context.dataset.dictionary
        mark = context.dataset.dictionary_mark
        terms_key = ("terms", id(self), mark)

        def build_terms() -> Tuple[object, Sequence[object]]:
            segment, manifest = shm.export_terms(
                dictionary.terms_up_to(mark), shm.segment_name("dict"))
            return manifest, (segment,)

        job.terms = SHM_SEGMENTS.pin_or_export(terms_key, build_terms)
        job.pinned.append(terms_key)
        self._supersede(terms_key[:2], terms_key)

        sizes: List[int] = []
        for graph_index, view in enumerate(views):
            order, prefix = view._route(probe.base)
            lo, hi = view._range(order, prefix)
            start = lo
            while start < hi:
                stop = min(start + self.morsel_rows, hi)
                job.tasks.append((graph_index, order, start, stop))
                sizes.append(stop - start)
                start = stop
        if sizes:
            job.skew = max(sizes) / (sum(sizes) / len(sizes))
        job.aggregate = probe.aggregate
        return job

    # -- dispatch ------------------------------------------------------------

    def _fault_directive(self) -> Optional[Tuple[str, float]]:
        """Consult the ``parallel.worker.*`` failpoints and turn one
        firing into a directive shipped inside a single morsel task
        (the worker executes the effect; the parent never sleeps)."""
        if not _faults.ACTIVE:
            return None
        for kind in ("kill", "raise", "delay"):
            point = _faults.FAILPOINTS.get(f"parallel.worker.{kind}")
            if point is not None and point._should_fire():
                return (kind, float(point.delay))
        return None

    def _run(self, job: _Job, gov) -> List[Any]:
        pool = self._pool.executor()
        control = shm.ControlFlag(shm.segment_name("ctl"))
        futures: List[Future] = []
        try:
            for morsel in job.tasks:
                task = {
                    "control": control.name,
                    "graphs": job.manifests,
                    "terms": job.terms,
                    "patterns": job.patterns,
                    "order": job.order,
                    "morsel": morsel,
                    "agg": job.aggregate,
                    "fault": self._fault_directive(),
                }
                futures.append(pool.submit(_worker_run, task))
            self.telemetry["morsels"] += len(futures)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, timeout=_POLL_SECONDS,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    _result, charges = future.result()
                    if gov is not None:
                        gov.charge_batches(charges)
                if gov is not None and pending:
                    gov.check()
            return [future.result()[0] for future in futures]
        except BrokenProcessPool as error:
            control.set()
            self.telemetry["worker_deaths"] += 1
            self._pool.shutdown(wait=False)
            raise QueryExecutionError(
                "parallel worker died mid-morsel; the worker pool will be "
                "rebuilt for the next query",
                telemetry=gov.telemetry() if gov is not None else {},
            ) from error
        except BaseException:
            control.set()
            self.telemetry["aborts"] += 1
            for future in futures:
                future.cancel()
            raise
        finally:
            control.destroy()

    # -- entry points --------------------------------------------------------

    def try_select(self, query: SelectQuery, context, source,
                   evaluator: PatternEvaluator
                   ) -> Tuple[Optional[BindingTable],
                              Optional[List[aggregation.Partials]]]:
        """Run an eligible SELECT's pattern across the pool.

        Returns ``(table, None)`` — the morsels' id rows concatenated in
        submission order: the exact multiset (and, over compacted
        generations, the exact order) the serial pipeline solves — or
        ``(None, partials)``, one per morsel in the same order, when the
        workers also aggregated.  ``(None, None)`` declines (the caller
        falls through to the serial path)."""
        probe = self._probe(query, context, source, evaluator)
        if probe.reason is not None:
            self.last_decline = probe.reason
            self.telemetry["declined"] += 1
            return None, None
        self.telemetry["queries"] += 1
        gov = getattr(context, "governor", None)
        job = self._export_job(query, context, probe)
        try:
            results = self._run(job, gov)
        finally:
            for key in job.pinned:
                SHM_SEGMENTS.unpin(key)
        if job.aggregate is not None:
            self.telemetry["agg_pushdown"] += 1
            return None, results
        return table_concat(results), None

    def describe(self, query, dataset) -> str:
        """The EXPLAIN ``parallel:`` line for ``query`` — either the
        planned fan-out (workers, morsels, estimated rows, skew) or
        the reason the query would stay serial."""
        if not isinstance(query, SelectQuery):
            return "parallel: off (only SELECT queries parallelize)"
        if dataset is None:
            return "parallel: off (no dataset)"
        snapshot = dataset if isinstance(dataset, DatasetSnapshot) \
            else dataset.snapshot()
        context = DatasetContext(snapshot).scoped(
            query.from_graphs, query.from_named)
        source = context.default_source()
        if STREAMING_ENABLED and would_stream(query, source):
            return "parallel: off (query streams)"
        evaluator = PatternEvaluator(context)
        probe = self._probe(query, context, source, evaluator)
        if probe.reason is not None:
            return f"parallel: off ({probe.reason})"
        sizes: List[int] = []
        for count in probe.counts:
            remaining = count
            while remaining > 0:
                sizes.append(min(remaining, self.morsel_rows))
                remaining -= self.morsel_rows
        skew = max(sizes) / (sum(sizes) / len(sizes)) if sizes else 1.0
        line = (f"parallel: workers={self.workers} morsels={len(sizes)} "
                f"est_rows={probe.est} skew={skew:.2f}")
        if probe.aggregate is not None:
            spec = ",".join(
                f"{call.name}"
                f"({call.expression.name if call.expression else '*'})"
                for call in probe.aggregate.aggregates)
            if probe.aggregate.keys:
                spec += " by " + ",".join(
                    key.name for key, _name in probe.aggregate.keys)
            line += f" agg={spec}"
        return line

    def __repr__(self) -> str:
        return (f"<ParallelExecutor workers={self.workers} "
                f"morsel_rows={self.morsel_rows} "
                f"queries={self.telemetry['queries']}>")
