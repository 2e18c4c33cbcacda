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
* workers return **id-level** results (solution rows or per-group
  COUNT/SUM/AVG/MIN/MAX partials) plus the per-step ``(rows, width)``
  charge log;
  the parent replays the charges against the query's single governor
  budget (global across workers), merges in morsel submission order,
  decodes ids back into terms, and applies the ordinary SELECT tail —
  so DISTINCT / ORDER BY / LIMIT / OFFSET semantics are exactly the
  serial ones;
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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rdf import shm
from repro.rdf.columnar import IdPattern, TripleColumns, concat_arrays
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import DatasetSnapshot, GraphSnapshot
from repro.rdf.terms import Literal, Term
from repro.sparql.algebra import BGP, SelectQuery, TriplePatternNode, Var
from repro.sparql.bindings import BindingTable
from repro.sparql.errors import QueryExecutionError
from repro.sparql.evaluator import (
    DatasetContext,
    PatternEvaluator,
    STREAMING_ENABLED,
    would_stream,
)
from repro.sparql.expressions import (
    Aggregate,
    ExpressionError,
    VariableExpression,
    _numeric_literal,
    numeric_value,
    order_key,
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

#: Hash-join builds keyed by (segment names, pattern, join spec): the
#: build side scans the *whole* mapped columns, so one build serves
#: every morsel of a step — and every later query against the same
#: epoch.  Entries die with their segments (pruned per task).
_WORKER_MEMOS: Dict[Tuple[Any, ...], Dict] = {}


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

    def match_ids(self, pattern: IdPattern):
        s, p, o = self.match_arrays(pattern)
        return zip(s.tolist(), p.tolist(), o.tolist())

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

    def match_ids(self, pattern: IdPattern):
        for member in self._members:
            yield from member.scan(pattern)

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
    parent's ``estimate <= 4 * rows`` hash-join heuristic would send
    every morsel down the per-key index-probe path — quadratic across
    the fan-out.  Workers instead always build the hash side against
    the full mapped columns and memoize the build in
    :data:`_WORKER_MEMOS`: the first morsel pays for the scan once per
    worker, every later morsel (and every later query against the
    same epoch) probes it for free.  The memo is read-only on the
    probe side (missing keys mean *no matches* under ``use_hash``), so
    sharing it across morsels cannot corrupt results.
    """

    def _prefer_hash(self, source, base, rows) -> bool:
        if isinstance(source, _WorkerUnionSource):
            return rows > 0
        return super()._prefer_hash(source, base, rows)

    def _hash_memo(self, source, base, v_positions,
                   n_positions, d_checks, single) -> Dict:
        token = getattr(source, "cache_token", None)
        if token is None:
            return super()._hash_memo(source, base, v_positions,
                                      n_positions, d_checks, single)
        key = (token, base, tuple(v_positions), tuple(n_positions),
               tuple(d_checks), single)
        memo = _WORKER_MEMOS.get(key)
        if memo is None:
            memo = super()._hash_memo(source, base, v_positions,
                                      n_positions, d_checks, single)
            _WORKER_MEMOS[key] = memo
        return memo


_ABORTED: Dict[str, Any] = {"aborted": True, "names": (), "rows": [],
                            "partials": [], "charges": []}


def _worker_partials(spec: Dict[str, Any], table: BindingTable,
                     dictionary: TermDictionary) -> List[Tuple]:
    """Per-group aggregate partials over one morsel's id-level rows.

    Per aggregate item the partial state is chosen so the parent can
    merge *exactly* (see :meth:`ParallelExecutor._merge_aggregate`):

    * ``COUNT`` — the count of rows whose argument is bound;
    * ``SUM`` / ``AVG`` — ``(total, n, err)``: the Python-semantics
      running total (int stays int, Decimal stays Decimal — addition
      is associative for both, so partial sums merge losslessly), the
      contributing-value count, and a sticky error flag for values
      :func:`numeric_value` rejects (the serial path leaves the whole
      aggregate unbound in that case);
    * ``MIN`` / ``MAX`` — the id of the morsel's best term under
      :func:`order_key` (first-encountered among ties, like the serial
      stable sort); the parent re-compares one candidate per morsel.

    Only group keys and the handful of per-group extrema/total terms
    are ever decoded — the bulk of the morsel stays id-level.
    """
    if not table.rows:
        return []
    decode = dictionary.decode
    group_slots = [table.slots[name] for name in spec["group"]]
    items = spec["items"]
    item_slots = [table.slots[arg] if arg is not None else None
                  for _kind, arg in items]
    #: id → (numeric value | ExpressionError sentinel) and id → order
    #: key caches: each distinct term is decoded at most once per morsel
    numeric_cache: Dict[int, Any] = {}
    key_cache: Dict[int, Tuple] = {}
    groups: Dict[Tuple[Optional[int], ...], List[Any]] = {}
    for row in table.rows:
        key = tuple(row[slot] for slot in group_slots)
        states = groups.get(key)
        if states is None:
            states = []
            for kind, _arg in items:
                if kind == "COUNT":
                    states.append(0)
                elif kind in ("SUM", "AVG"):
                    states.append([0, 0, False])
                else:  # MIN / MAX
                    states.append(None)
            groups[key] = states
        for index, (kind, _arg) in enumerate(items):
            slot = item_slots[index]
            if kind == "COUNT":
                if slot is None or row[slot] is not None:
                    states[index] += 1
                continue
            value_id = row[slot]
            if value_id is None:
                continue  # unbound argument: the serial path skips it
            if kind in ("SUM", "AVG"):
                state = states[index]
                number = numeric_cache.get(value_id)
                if number is None:
                    try:
                        number = numeric_value(decode(value_id))
                    except ExpressionError:
                        number = ExpressionError
                    numeric_cache[value_id] = number
                if number is ExpressionError:
                    state[2] = True
                else:
                    state[0] = state[0] + number
                    state[1] += 1
            else:  # MIN / MAX
                best = states[index]
                if best is None:
                    states[index] = value_id
                    continue
                if best == value_id:
                    continue
                for vid in (best, value_id):
                    if vid not in key_cache:
                        key_cache[vid] = order_key(decode(vid))
                if kind == "MIN":
                    if key_cache[value_id] < key_cache[best]:
                        states[index] = value_id
                elif key_cache[value_id] > key_cache[best]:
                    states[index] = value_id
    return list(groups.items())


def _worker_run(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one morsel: the shipped join pipeline over the mapped
    columns, id-level in and id-level out (decode stays parent-side)."""
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
        charges.append((len(table.rows), max(1, len(table.names))))
        if not table.rows:
            break
    if task["agg"] is not None:
        partials = _worker_partials(task["agg"], table, dictionary)
        return {"aborted": False, "names": tuple(table.names), "rows": None,
                "partials": partials, "charges": charges}
    return {"aborted": False, "names": tuple(table.names),
            "rows": table.rows, "partials": None, "charges": charges}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Probe:
    """Outcome of the eligibility check: either a ``reason`` to stay
    serial, or everything the export/dispatch stage needs."""

    __slots__ = ("reason", "graphs", "plan", "base", "counts",
                 "est", "agg_spec")

    def __init__(self, reason: Optional[str] = None) -> None:
        self.reason = reason
        self.graphs: List[GraphSnapshot] = []
        self.plan = None
        self.base: IdPattern = (None, None, None)
        self.counts: List[int] = []
        self.est = 0
        #: ``None`` for the general path; for the in-worker aggregate
        #: path the ``(group keys, aggregate items)`` spec from
        #: :func:`_fast_aggregate_spec`.
        self.agg_spec: Optional[Tuple[List[Tuple[str, str]],
                                      List[Tuple[str, str, Optional[str]]]]] \
            = None


class _Job:
    """One exported, morselized parallel query (segments pinned)."""

    __slots__ = ("manifests", "terms", "patterns", "order", "tasks",
                 "agg_task", "agg_keys", "agg_items", "pinned", "skew")

    def __init__(self) -> None:
        self.manifests: List[shm.ColumnsManifest] = []
        self.terms: Optional[shm.TermsManifest] = None
        self.patterns: List[TriplePatternNode] = []
        self.order: List[int] = []
        self.tasks: List[Tuple[int, str, int, int]] = []
        #: worker-shippable form of the aggregate spec (or ``None``)
        self.agg_task: Optional[Dict[str, Any]] = None
        self.agg_keys: Optional[List[Tuple[str, str]]] = None
        self.agg_items: Optional[List[Tuple[str, str, Optional[str]]]] = None
        self.pinned: List[Tuple[object, ...]] = []
        self.skew = 1.0


#: Aggregates the workers can compute as mergeable per-group partials.
_PARTIAL_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def _fast_aggregate_spec(query: SelectQuery, available: frozenset
                         ) -> Optional[Tuple[
                             List[Tuple[str, str]],
                             List[Tuple[str, str, Optional[str]]]]]:
    """``(group keys, aggregate items)`` when the whole aggregation can
    run as in-worker per-group partials: no HAVING, variable-only GROUP
    BY keys (all bound by the BGP), and every projected expression a
    plain non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a BGP variable (or
    ``COUNT(*)``).  Anything else returns ``None`` and takes the
    general path (parallel BGP, serial aggregation over the merged
    solutions).

    Group keys are ``(pattern var, output name)`` pairs; items are
    ``(output name, aggregate kind, argument var or None)``.
    """
    if query.having or query.projection is None:
        return None
    keys: List[Tuple[str, str]] = []
    for position, expression in enumerate(query.group_by):
        if not isinstance(expression, VariableExpression) \
                or expression.name not in available:
            return None
        alias = query.group_aliases.get(position)
        keys.append((expression.name, alias or expression.name))
    items: List[Tuple[str, str, Optional[str]]] = []
    for item in query.projection:
        if item.expression is None:
            continue
        aggregate = item.expression
        if not isinstance(aggregate, Aggregate) or aggregate.distinct \
                or aggregate.name not in _PARTIAL_AGGREGATES:
            return None
        argument = aggregate.expression
        if argument is None:
            if aggregate.name != "COUNT":
                return None
            items.append((item.name, "COUNT", None))
            continue
        if not isinstance(argument, VariableExpression) \
                or argument.name not in available:
            return None
        items.append((item.name, aggregate.name, argument.name))
    return keys, items


class ParallelExecutor:
    """Owns the worker pool, the exported-segment keys and the morsel
    dispatch loop for one endpoint.

    The executor is engaged from ``evaluate_select`` (via the
    ``parallel`` attribute of the :class:`DatasetContext`); it either
    returns a finished :class:`ResultTable` or ``None`` to fall back
    to the serial path — eligibility reasons land in
    :attr:`last_decline` and the ``telemetry`` counters.
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
            available = frozenset().union(
                *[pattern.variables() for pattern in node.patterns])
            probe.agg_spec = _fast_aggregate_spec(query, available)
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
        if probe.agg_spec is not None:
            job.agg_keys, job.agg_items = probe.agg_spec
            job.agg_task = {
                "group": [variable for variable, _name in job.agg_keys],
                "items": [(kind, argument)
                          for _name, kind, argument in job.agg_items],
            }
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

    def _run(self, job: _Job, gov) -> List[Dict[str, Any]]:
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
                    "agg": job.agg_task,
                    "fault": self._fault_directive(),
                }
                futures.append(pool.submit(_worker_run, task))
            self.telemetry["morsels"] += len(futures)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, timeout=_POLL_SECONDS,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    payload = future.result()
                    if gov is not None:
                        gov.charge_batches(payload["charges"])
                if gov is not None and pending:
                    gov.check()
            return [future.result() for future in futures]
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

    # -- merge ---------------------------------------------------------------

    def _merge_solutions(self, payloads: List[Dict[str, Any]],
                         evaluator: PatternEvaluator) -> List[Dict[str, Term]]:
        """Concatenate worker rows in morsel submission order and
        decode — the exact multiset (and, over compacted generations,
        the exact order) the serial pipeline produces."""
        decode = evaluator._dict.decode
        solutions: List[Dict[str, Term]] = []
        for payload in payloads:
            rows = payload["rows"]
            if not rows:
                continue
            visible = [(slot, name)
                       for slot, name in enumerate(payload["names"])
                       if not name.startswith("#")]
            for row in rows:
                solutions.append({name: decode(row[slot])
                                  for slot, name in visible
                                  if row[slot] is not None})
        return solutions

    def _merge_aggregate(self, query: SelectQuery, job: _Job,
                         payloads: List[Dict[str, Any]],
                         evaluator: PatternEvaluator
                         ) -> List[Dict[str, Term]]:
        """Fold the workers' per-group aggregate partials exactly.

        Insertion order over submission-ordered payloads reproduces
        the serial grouping stage's first-occurrence group order; only
        group keys and per-morsel extremum candidates are ever decoded
        — the whole point of keeping aggregation id-level in the
        workers.  Each merge step replicates
        :meth:`~repro.sparql.expressions.Aggregate.apply`: COUNT adds
        counts, SUM/AVG add Python-semantics totals (exact for
        int/Decimal) with the empty-group and non-numeric cases
        producing the same bound/unbound outcomes, MIN/MAX re-compare
        one candidate id per morsel under :func:`order_key`.
        """
        from decimal import Decimal
        items = job.agg_items or []
        merged: Dict[Tuple[Optional[int], ...], List[Any]] = {}
        for payload in payloads:
            for key, states in payload["partials"]:
                into = merged.get(key)
                if into is None:
                    merged[key] = list(states)
                    continue
                for index, (_name, kind, _arg) in enumerate(items):
                    state = states[index]
                    if kind == "COUNT":
                        into[index] += state
                    elif kind in ("SUM", "AVG"):
                        into[index] = [into[index][0] + state[0],
                                       into[index][1] + state[1],
                                       into[index][2] or state[2]]
                    elif state is not None:
                        best = into[index]
                        if best is None:
                            into[index] = state
                        elif best != state:
                            decode = evaluator._dict.decode
                            left = order_key(decode(best))
                            right = order_key(decode(state))
                            if (kind == "MIN" and right < left) \
                                    or (kind == "MAX" and right > left):
                                into[index] = state
        if not query.group_by and not merged:
            # the implicit single group still yields one result row:
            # COUNT binds 0, SUM binds 0, AVG/MIN/MAX stay unbound
            merged[()] = [0 if kind == "COUNT"
                          else [0, 0, False] if kind in ("SUM", "AVG")
                          else None
                          for _name, kind, _arg in items]
        decode = evaluator._dict.decode
        results: List[Dict[str, Term]] = []
        for key, states in merged.items():
            binding: Dict[str, Term] = {}
            for cell, (_variable, out_name) in zip(key, job.agg_keys or []):
                if cell is not None:
                    binding[out_name] = decode(cell)
            for index, (name, kind, _arg) in enumerate(items):
                state = states[index]
                if kind == "COUNT":
                    binding[name] = Literal(state)
                    continue
                if kind in ("SUM", "AVG"):
                    total, count, err = state
                    if err:
                        continue  # serial path: projection stays unbound
                    if kind == "SUM":
                        binding[name] = Literal(0) if count == 0 \
                            else _numeric_literal(total)
                    elif count:
                        if isinstance(total, int):
                            binding[name] = _numeric_literal(
                                Decimal(total) / Decimal(count))
                        else:
                            binding[name] = _numeric_literal(total / count)
                    continue
                if state is not None:
                    binding[name] = decode(state)
            results.append(binding)
        return results

    # -- entry points --------------------------------------------------------

    def try_select(self, query: SelectQuery, context, source,
                   evaluator: PatternEvaluator, eval_context):
        """Run an eligible SELECT across the pool; ``None`` declines
        (the caller falls through to the serial path)."""
        from repro.sparql.evaluator import _aggregate_rows, \
            _apply_projection_expressions, _finalize_select
        probe = self._probe(query, context, source, evaluator)
        if probe.reason is not None:
            self.last_decline = probe.reason
            self.telemetry["declined"] += 1
            return None
        self.telemetry["queries"] += 1
        gov = getattr(context, "governor", None)
        job = self._export_job(query, context, probe)
        try:
            payloads = self._run(job, gov)
            if job.agg_task is not None:
                self.telemetry["agg_pushdown"] += 1
                result_bindings = self._merge_aggregate(
                    query, job, payloads, evaluator)
            else:
                solutions = self._merge_solutions(payloads, evaluator)
                if query.is_aggregate_query:
                    result_bindings = _aggregate_rows(
                        query, solutions, eval_context)
                else:
                    result_bindings = solutions
                    for row in result_bindings:
                        _apply_projection_expressions(
                            query, row, eval_context)
            return _finalize_select(query, result_bindings, eval_context)
        finally:
            for key in job.pinned:
                SHM_SEGMENTS.unpin(key)

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
        if probe.agg_spec is not None:
            keys, items = probe.agg_spec
            spec = ",".join(
                f"{kind}({argument if argument is not None else '*'})"
                for _name, kind, argument in items)
            if keys:
                spec += " by " + ",".join(var for var, _name in keys)
            line += f" agg={spec}"
        return line

    def __repr__(self) -> str:
        return (f"<ParallelExecutor workers={self.workers} "
                f"morsel_rows={self.morsel_rows} "
                f"queries={self.telemetry['queries']}>")
