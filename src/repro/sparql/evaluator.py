"""SPARQL query evaluation over in-memory graphs.

The evaluator interprets :mod:`repro.sparql.algebra` trees with **one
walker over id-level tables**: solutions flow between operators as
:class:`~repro.sparql.bindings.BindingTable`\\ s of interned term ids,
basic graph patterns execute as a sequence of join steps planned *once
per bound-variable signature* (through the LRU plan cache in
:mod:`repro.sparql.optimizer`), and each step joins via either a hash
join over a single index scan or memoized index probes keyed on the
distinct join values — never a fresh plan or a fresh Python dict per
input row.  Terms are only decoded at expression boundaries (FILTER,
BIND, aggregation) and at final projection.

The join pipeline for each BGP is a cached :class:`PhysicalPlan` from
the cost-based planner (:mod:`repro.sparql.optimizer`): the evaluator
executes the plan's steps in order, re-validating each step's
hash-vs-probe choice against the *actual* table size (estimates can
still be wrong, so mis-estimates must degrade safely), and — when a
trace list is installed — records per-step actual cardinalities for
``EXPLAIN ... analyze``.  Because every ``get_plan`` call passes the
BGP node with its *actual* constants, the band-keyed plan cache
transparently swaps in a constant-specialized plan when a bound
constant's value-aware estimate (MCV / histogram, statistics v2) falls
outside the brackets of the cached one — the evaluator itself never
needs to reason about skew, and each executed step's
:class:`~repro.sparql.optimizer.PlanStep` carries the estimator label
and average-only estimate that the trace threads to EXPLAIN.

The walker (:meth:`PatternEvaluator._walk`) yields tables, and the
query forms differ only in how they drain it:

* **un-chunked** (:meth:`PatternEvaluator.solve`) — one table per
  node; SELECT without LIMIT, CONSTRUCT, DESCRIBE and update ``WHERE``
  clauses.
* **chunked until enough rows exist** — queries with ``LIMIT`` but no
  ORDER BY / aggregation pull the first join step's index scan in
  windows and stop as soon as ``OFFSET + LIMIT`` output rows exist.
  ``DISTINCT`` streams through an incremental dedup operator (seen-set
  bounded by the row budget), ``REDUCED`` through adjacent dedup with
  no seen-set at all, and ``OPTIONAL`` as a left-outer probe fed
  piece-by-piece from its required side (see :func:`_stream_select`
  and :meth:`PatternEvaluator.stream_tables`).  Streamability is
  carried on the plan IR
  (:attr:`~repro.sparql.optimizer.PhysicalPlan.streamable`) rather
  than re-derived here.
* **chunked until the first non-empty table**
  (:meth:`PatternEvaluator.exists`) — ASK.  ``EXISTS`` is the same
  drain seeded with every row of the table being filtered plus a row
  marker, the way OPTIONAL seeds its right side, and stops once every
  row has been seen in a solution.

Every drain runs the same BGP step loop, so the ``evaluator.step``
failpoint, the governor's per-step row charge and the step trace apply
to all of them alike.

Computed terms (BIND results, VALUES literals, seed bindings) intern
into a per-query :class:`~repro.rdf.dictionary.DictionaryOverlay`
discarded with the evaluator, so a long-lived endpoint's term
dictionary only grows with *stored* data.

Dataset semantics follow Virtuoso's convenient default (and the paper's
setup): with no ``FROM`` clause the default graph is the *union* of the
dataset's default and named graphs; ``GRAPH <g>`` scopes matching to one
named graph.  The union itself — member order, duplicate suppression —
is :class:`repro.rdf.graph.UnionView`; this module only adapts it (or a
single graph) to the join pipeline through :class:`GraphSource`.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Set, Tuple, Union

import numpy as np

from repro.rdf.graph import Dataset, Graph, UnionView
from repro.rdf.stats import StatisticsView
from repro.rdf.terms import IRI, Literal, Term, Triple
from repro.testing import faults as _faults
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Empty,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    PathPatternNode,
    PatternNode,
    Query,
    SelectQuery,
    SubSelectNode,
    TriplePatternNode,
    Union as UnionNode,
    ValuesNode,
    Var,
)
from repro.sparql.bindings import (
    BindingTable,
    concat as table_concat,
    visible_slots as table_visible_slots,
)
from repro.sparql.errors import (
    EvaluationError,
    ExpressionError,
    QueryTimeout,
    ResourceExhausted,
)
from repro.sparql.expressions import (
    Aggregate,
    ArithmeticExpression,
    BooleanExpression,
    ComparisonExpression,
    EvalContext,
    ExistsExpression,
    Expression,
    FunctionExpression,
    InExpression,
    NotExpression,
    TermExpression,
    UnaryMinusExpression,
    VariableExpression,
    contains_aggregate,
    effective_boolean_value,
    order_key,
)
from repro.sparql.optimizer import get_plan, stream_shape
from repro.sparql.paths import evaluate_path
from repro.sparql.results import ResultTable

Binding = Dict[str, Term]

IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]
IdTriple = Tuple[int, int, int]


class ProbeCounter:
    """Counts index entries touched by the batch join steps.

    A test/benchmark hook: activate it around a query to measure how
    much of the index the evaluator actually pulled — the streaming
    LIMIT tests assert this is far below full materialization.
    """

    __slots__ = ("active", "entries")

    def __init__(self) -> None:
        self.active = False
        self.entries = 0

    def reset(self) -> None:
        self.entries = 0

    def __enter__(self) -> "ProbeCounter":
        self.active = True
        self.entries = 0
        return self

    def __exit__(self, *_exc) -> None:
        self.active = False


#: The shared probe-counter hook (off unless a test turns it on).
PROBE_COUNTER = ProbeCounter()


class StreamTelemetry:
    """Counters for the streaming pipeline (always on, O(1) per batch).

    ``queries`` counts SELECT evaluations that took the streaming path
    — including nested sub-SELECTs, so one request can contribute more
    than one — ``batches`` the solution batches pulled through it and
    ``rows`` the solutions those batches carried.  The endpoint and the
    QL execution report read deltas of these around each request, so
    callers can verify a workload streamed (and how much it pulled)
    without enabling the probe counter.

    Updates go through :meth:`record_query` / :meth:`record_batch`
    under a small mutex (one acquisition per *batch*, not per row):
    the snapshot-isolated endpoint streams several SELECTs in
    parallel, and unsynchronized ``+=`` would silently drop counts.
    """

    __slots__ = ("queries", "batches", "rows", "_lock")

    def __init__(self) -> None:
        self.queries = 0
        self.batches = 0
        self.rows = 0
        self._lock = threading.Lock()

    def record_query(self) -> None:
        with self._lock:
            self.queries += 1

    def record_batch(self, rows: int) -> None:
        with self._lock:
            self.batches += 1
            self.rows += rows

    def reset(self) -> None:
        with self._lock:
            self.queries = 0
            self.batches = 0
            self.rows = 0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"queries": self.queries, "batches": self.batches,
                    "rows": self.rows}


#: The shared streaming-telemetry counters.
STREAM_TELEMETRY = StreamTelemetry()

#: Index entries per window of a chunked leading scan.
_CHUNK = 512

#: Kill switch for the streaming SELECT path (differential tests flip
#: it off to compare streamed against fully materialized execution).
STREAMING_ENABLED = True


def _base_pattern(spec: Iterable[Tuple[str, Optional[int]]]) -> IdPattern:
    """The concrete ``(s, p, o)`` id pattern of a compiled position
    spec: constants keep their ids, every other position is a
    wildcard."""
    s, p, o = (value if kind == "c" else None for kind, value in spec)
    return (s, p, o)


# Telemetry shim: passes match_ids batches through unchanged, so the
# consumer that installed it stays responsible for governor charging.
def _counted(match_ids):  # repro: allow[governor-discipline]
    """Wrap a ``match_ids`` callable to count yielded index entries."""
    counter = PROBE_COUNTER

    def wrapped(pattern):  # repro: allow[governor-discipline]
        for ids in match_ids(pattern):
            counter.entries += 1
            yield ids

    return wrapped


class StepTrace:
    """One executed join step, for EXPLAIN's estimated-vs-actual view."""

    __slots__ = ("node", "position", "step", "rows_in", "rows_out",
                 "strategy")

    def __init__(self, node, position: int, step, rows_in: int,
                 rows_out: int, strategy: str) -> None:
        self.node = node
        self.position = position
        self.step = step
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.strategy = strategy


# ---------------------------------------------------------------------------
# Graph sources
# ---------------------------------------------------------------------------


class GraphSource:
    """The join pipeline's one view of storage: a single graph, or the
    :class:`~repro.rdf.graph.UnionView` over several.

    A thin adapter — storage semantics (tiers, tombstones, union dedup)
    all live in :mod:`repro.rdf.graph`.  It offers a term-level API
    (``match`` / ``estimate``, used by property paths and DESCRIBE),
    an id-level one (``match_arrays`` for scans
    and hash builds, ``match_ids`` for point probes with a bound key,
    ``estimate_ids``), and what the planner keys on (``cache_key``,
    ``statistics``).
    """

    __slots__ = ("view", "graphs")

    def __init__(self, view: Union[Graph, UnionView]) -> None:
        self.view = view
        #: the member graphs, in scan order
        self.graphs: List[Graph] = view.members() \
            if isinstance(view, UnionView) else [view]

    def match(self, pattern) -> Iterator[Triple]:
        return self.view.triples(pattern)

    def match_ids(self, pattern: IdPattern) -> Iterator[IdTriple]:
        return self.view.triples_ids(pattern)

    def match_arrays(self, pattern: IdPattern):
        """The matches as positional ``(S, P, O)`` numpy arrays."""
        return self.view.match_arrays(pattern)

    def estimate(self, pattern) -> int:
        return self.view.estimate(pattern)

    def estimate_ids(self, pattern: IdPattern) -> int:
        """Summed member counts (an upper bound on a union: exactness
        would cost the dedup the estimate exists to avoid)."""
        return sum(graph.count_ids(pattern) for graph in self.graphs)

    def cache_key(self) -> tuple:
        """Identity + mutation epochs, for the plan cache."""
        return tuple((id(graph), graph.epoch) for graph in self.graphs)

    def statistics(self) -> StatisticsView:
        """The cost-based planner's O(1) statistics view."""
        return StatisticsView(self.graphs)


class DatasetContext:
    """Resolves the active default view and named graphs for a query.

    When a query carries dataset clauses, ``from_graphs`` (``FROM``)
    and ``from_named`` (``FROM NAMED``) scope it per the W3C semantics:
    the default graph becomes the merge of the ``FROM`` graphs (empty
    if only ``FROM NAMED`` is given) and ``GRAPH`` patterns range over
    the ``FROM NAMED`` graphs only.

    ``dataset`` may be a live :class:`~repro.rdf.graph.Dataset` or a
    pinned :class:`~repro.rdf.graph.DatasetSnapshot` (the endpoint's
    snapshot-isolated read path passes the latter, so every source this
    context hands out reads one frozen epoch).

    ``governor`` is the optional per-request
    :class:`~repro.sparql.governor.GovernorContext`: when set, the
    evaluator checks it cooperatively at every batch boundary (and
    sub-queries inherit it through :meth:`scoped`), so one limits
    object governs the whole request tree.
    """

    def __init__(self, dataset: Dataset,
                 default_as_union: bool = True,
                 from_graphs: Optional[List[IRI]] = None,
                 from_named: Optional[List[IRI]] = None,
                 governor=None, parallel=None) -> None:
        self.dataset = dataset
        self.default_as_union = default_as_union
        self.from_graphs = list(from_graphs) if from_graphs else []
        self.from_named = list(from_named) if from_named else []
        self.governor = governor
        #: optional ParallelExecutor; when set, eligible SELECTs run
        #: morsel-parallel (see repro.sparql.parallel)
        self.parallel = parallel

    @property
    def has_dataset_clause(self) -> bool:
        return bool(self.from_graphs or self.from_named)

    def scoped(self, from_graphs: Optional[List[IRI]],
               from_named: Optional[List[IRI]]) -> "DatasetContext":
        """This context restricted by a query's dataset clauses."""
        if not from_graphs and not from_named:
            return self
        return DatasetContext(self.dataset, self.default_as_union,
                              from_graphs, from_named,
                              governor=self.governor,
                              parallel=self.parallel)

    def default_source(self, from_graphs: Optional[List[IRI]] = None
                       ) -> GraphSource:
        active = from_graphs or self.from_graphs
        if active:
            # FROM clauses merge a *set* of graphs: repeating an IRI
            # must not repeat its triples
            distinct: List[IRI] = []
            seen = set()
            for iri in active:
                if iri not in seen:
                    seen.add(iri)
                    distinct.append(iri)
            return GraphSource(UnionView(
                self.dataset,
                [self.dataset.graph(iri) for iri in distinct]))
        if self.from_named:
            # FROM NAMED without FROM: the default graph is empty
            return GraphSource(UnionView(self.dataset, []))
        if self.default_as_union:
            return GraphSource(UnionView(self.dataset))
        return GraphSource(self.dataset.default)

    def named_source(self, iri: IRI) -> GraphSource:
        if self.has_dataset_clause and iri not in self.from_named:
            return GraphSource(UnionView(self.dataset, []))
        return GraphSource(self.dataset.graph(iri))

    def named_graphs(self) -> List[Tuple[IRI, Graph]]:
        if self.has_dataset_clause:
            return [(iri, self.dataset.graph(iri))
                    for iri in self.from_named]
        return [(graph.identifier, graph)
                for graph in self.dataset.graphs()
                if graph.identifier is not None]


class JoinSteps:
    """The BGP join steps: one triple or path pattern at a time, joined
    into a :class:`BindingTable` of interned term ids.

    A step joins via a hash join over a single index scan or via
    memoized index probes keyed on the distinct join values; that
    choice (:meth:`_prefer_hash`) and the hash build
    (:meth:`_hash_memo`) are methods so the morsel workers of
    :mod:`repro.sparql.parallel` can override them.
    """

    def __init__(self, dictionary, governor) -> None:
        #: where pattern constants are looked up and computed terms
        #: interned
        self._dict = dictionary
        #: per-request governor (deadline/budget/cancellation checks at
        #: batch boundaries); ``None`` on ungoverned requests, so the
        #: fast path costs one ``is not None`` test per boundary
        self._gov = governor
        #: how the last :meth:`_step_triple` / :meth:`_step_path` joined
        self._last_strategy = "scan"

    @staticmethod
    def _emit(row, matches, spec, out_rows) -> None:
        """Apply pattern ``matches`` to one input ``row``.

        ``spec`` positions: ``("c", _)`` constants are pre-constrained;
        ``("v", slot)`` may capture into a still-``None`` cell;
        ``("n", _)`` appends a fresh column value; ``("d", first)``
        enforces repeated-variable equality against spec position
        ``first``.
        """
        for match in matches:
            updates = None
            ext = []
            ok = True
            for position, (kind, value) in enumerate(spec):
                if kind == "v":
                    if row[value] is None:
                        captured = match[position]
                        if updates is None:
                            updates = {value: captured}
                        else:
                            previous = updates.get(value)
                            if previous is None:
                                updates[value] = captured
                            elif previous != captured:
                                ok = False
                                break
                elif kind == "n":
                    ext.append(match[position])
                elif kind == "d":
                    if match[position] != match[value]:
                        ok = False
                        break
            if not ok:
                continue
            if updates:
                cells = list(row)
                for slot, captured in updates.items():
                    cells[slot] = captured
                out_rows.append(tuple(cells) + tuple(ext))
            else:
                out_rows.append(row + tuple(ext))

    def _compile_positions(self, positions, table: BindingTable):
        """Shared step compilation: classify each pattern position.

        Returns ``(spec, new_names, probe_slots, dead)``; ``dead`` is
        True when a constant term is not interned (no matches possible).
        """
        lookup = self._dict.lookup
        spec = []
        new_names: List[str] = []
        first_new: Dict[str, int] = {}
        probe_slots: List[int] = []
        dead = False
        for position in positions:
            if isinstance(position, Var):
                name = position.name
                slot = table.slots.get(name)
                if slot is not None:
                    spec.append(("v", slot))
                    probe_slots.append(slot)
                elif name in first_new:
                    spec.append(("d", first_new[name]))
                else:
                    first_new[name] = len(spec)
                    spec.append(("n", None))
                    new_names.append(name)
            else:
                term_id = lookup(position)
                if term_id is None:
                    dead = True
                    term_id = -1  # matches nothing; step short-circuits
                spec.append(("c", term_id))
        return spec, new_names, probe_slots, dead

    def _vector_matches(self, source: GraphSource, base: IdPattern):
        """The ``(S, P, O)`` match arrays for ``base``, accounted like
        the point probes: every matched index entry bumps the probe
        counter and the governor's scan meter."""
        arrays = source.match_arrays(base)
        entries = int(len(arrays[0]))
        if PROBE_COUNTER.active:
            PROBE_COUNTER.entries += entries
        if self._gov is not None:
            self._gov.charge_scan(entries)
        return arrays

    @staticmethod
    def _extension_tuples(arrays, n_positions, d_checks) -> List[tuple]:
        """One tuple of new-variable cells per match that passes the
        repeated-variable equality (``d`` spec entries), which is
        applied as one boolean mask."""
        mask = None
        for position, first in d_checks:
            eq = arrays[position] == arrays[first]
            mask = eq if mask is None else mask & eq
        cols = [arrays[position] for position in n_positions]
        if mask is not None:
            cols = [col[mask] for col in cols]
        if cols:
            return list(zip(*[col.tolist() for col in cols]))
        survivors = len(arrays[0]) if mask is None \
            else int(np.count_nonzero(mask))
        return [()] * survivors

    @staticmethod
    def _build_hash_memo(arrays, v_positions, n_positions, d_checks,
                         single, ext_memo) -> None:
        """Bucket extension tuples per distinct join key, vectorized.

        The matched range is sorted by its key columns (stable argsort /
        lexsort), so each distinct key becomes one contiguous run — the
        grouping a sorted-merge join consumes — and the runs are sliced
        straight into the memo without per-row Python dispatch.
        """
        mask = None
        for position, first in d_checks:
            eq = arrays[position] == arrays[first]
            mask = eq if mask is None else mask & eq
        key_cols = [arrays[position] for position in v_positions]
        ext_cols = [arrays[position] for position in n_positions]
        if mask is not None:
            key_cols = [col[mask] for col in key_cols]
            ext_cols = [col[mask] for col in ext_cols]
        total = int(len(key_cols[0]))
        if not total:
            return
        if len(key_cols) == 1:
            order = np.argsort(key_cols[0], kind="stable")
        else:
            order = np.lexsort(tuple(reversed(key_cols)))
        key_cols = [col[order] for col in key_cols]
        starts_run = np.zeros(total, dtype=bool)
        starts_run[0] = True
        for col in key_cols:
            starts_run[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(starts_run)
        heads = [col[starts].tolist() for col in key_cols]
        # all extension tuples in one C-level zip, then one list slice
        # per run: the paper's cubes have one triple per observation
        # per predicate, so runs are as many as rows and per-run
        # Python work is what a build costs
        exts = list(zip(*[col[order].tolist() for col in ext_cols])) \
            if ext_cols else [()] * total
        bounds = starts.tolist()
        bounds.append(total)
        ext_memo.update(zip(
            heads[0] if single else zip(*heads),
            [exts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]))

    def _prefer_hash(self, source: GraphSource, base: IdPattern,
                     rows: int) -> bool:
        """Join-strategy choice for one step: build the bucketed index
        scan (hash join) when the matched range is small enough
        relative to the binding table, probe per distinct key
        otherwise.  Overridden by the morsel workers, whose tables are
        small slices of a large scan and whose builds are cached."""
        return rows >= 64 and source.estimate_ids(base) <= 4 * rows

    def _hash_memo(self, source: GraphSource, base: IdPattern,
                   v_positions: List[int], n_positions: List[int],
                   d_checks: List[Tuple[int, int]], single: bool) -> Dict:
        """The build side of the hash join: extension tuples bucketed
        per distinct join key (sorted-run grouping), off one index
        scan.  Read-only to the probe side, so workers may reuse one
        build across morsels."""
        ext_memo: Dict = {}
        self._build_hash_memo(self._vector_matches(source, base),
                              v_positions, n_positions, d_checks, single,
                              ext_memo)
        return ext_memo

    def _step_triple(self, pattern: TriplePatternNode, source: GraphSource,
                     table: BindingTable) -> BindingTable:
        spec, new_names, probe_slots, dead = self._compile_positions(
            pattern.positions(), table)
        out_names = table.names + tuple(new_names)
        rows = table.rows
        if dead or not rows:
            return BindingTable(out_names, [])
        base = _base_pattern(spec)
        n_positions = [position for position, (kind, _) in enumerate(spec)
                       if kind == "n"]
        d_checks = [(position, value) for position, (kind, value)
                    in enumerate(spec) if kind == "d"]

        if not probe_slots:
            # no shared variables: one scan, applied to every row
            self._last_strategy = "scan"
            exts = self._extension_tuples(
                self._vector_matches(source, base), n_positions, d_checks)
            return BindingTable(
                out_names, [row + ext for row in rows for ext in exts])

        # shared-variable join.  Rows whose join-key cells are all bound
        # take the fast path: per distinct key, the matching *extension
        # tuples* (new-variable values) are computed once — either from
        # one bucketed index scan (hash join) or from a memoized index
        # probe — and appended to each row with no per-match rechecking.
        # Rows with an unbound (None) join cell fall back to the general
        # capture-aware application.
        v_positions = [position for position, (kind, _) in enumerate(spec)
                       if kind == "v"]
        single = len(probe_slots) == 1
        slot0 = probe_slots[0]
        v_pos0 = v_positions[0]
        n_count = len(n_positions)
        np0 = n_positions[0] if n_count > 0 else -1
        np1 = n_positions[1] if n_count > 1 else -1
        template = [value if kind == "c" else None for kind, value in spec]
        # index probes with a bound key read per-entry tuples
        match_ids = source.match_ids
        if PROBE_COUNTER.active:
            match_ids = _counted(match_ids)
        if self._gov is not None:
            match_ids = self._gov.metered(match_ids)

        def extensions(matches) -> list:
            exts = []
            for match in matches:
                if d_checks and any(match[a] != match[b]
                                    for a, b in d_checks):
                    continue
                if n_count == 1:
                    exts.append((match[np0],))
                elif n_count == 2:
                    exts.append((match[np0], match[np1]))
                elif n_count == 0:
                    exts.append(())
                else:
                    exts.append(tuple(match[position]
                                      for position in n_positions))
            return exts

        def concrete_for(key) -> IdPattern:
            pattern_ids = list(template)
            if single:
                pattern_ids[v_pos0] = key
            else:
                for position, cell in zip(v_positions, key):
                    pattern_ids[position] = cell
            return (pattern_ids[0], pattern_ids[1], pattern_ids[2])

        use_hash = self._prefer_hash(source, base, len(rows))
        self._last_strategy = "hash" if use_hash else "probe"
        if use_hash:
            ext_memo = self._hash_memo(source, base, v_positions,
                                       n_positions, d_checks, single)
        else:
            ext_memo = {}

        raw_memo: Dict = {}  # distinct key -> raw matches (capture rows)
        emit = self._emit
        out_rows: List[tuple] = []
        for row in rows:
            if single:
                key = row[slot0]
                unbound_key = key is None
            else:
                key = tuple(row[slot] for slot in probe_slots)
                unbound_key = None in key
            if not unbound_key:
                exts = ext_memo.get(key)
                if exts is None:
                    if use_hash:  # complete hash table: no matches
                        continue
                    exts = extensions(match_ids(concrete_for(key)))
                    ext_memo[key] = exts
                if exts:
                    for ext in exts:
                        out_rows.append(row + ext)
                continue
            got = raw_memo.get(key)
            if got is None:
                got = list(match_ids(concrete_for(key)))
                raw_memo[key] = got
            if got:
                emit(row, got, spec, out_rows)
        return BindingTable(out_names, out_rows)

    def _step_path(self, pattern: PathPatternNode, source: GraphSource,
                   table: BindingTable) -> BindingTable:
        self._last_strategy = "path"
        decode = self._dict.decode
        encode = self._dict.encode
        spec = []
        new_names: List[str] = []
        first_new: Dict[str, int] = {}
        probe_slots: List[int] = []
        for position in pattern.endpoints():
            if isinstance(position, Var):
                name = position.name
                slot = table.slots.get(name)
                if slot is not None:
                    spec.append(("v", slot))
                    probe_slots.append(slot)
                elif name in first_new:
                    spec.append(("d", first_new[name]))
                else:
                    first_new[name] = len(spec)
                    spec.append(("n", None))
                    new_names.append(name)
            else:
                spec.append(("c", position))  # paths match at term level
        out_names = table.names + tuple(new_names)
        rows = table.rows
        if not rows:
            return BindingTable(out_names, [])
        out_rows: List[tuple] = []
        memo: Dict[tuple, list] = {}
        emit = self._emit
        for row in rows:
            key = tuple(row[slot] for slot in probe_slots)
            got = memo.get(key)
            if got is None:
                endpoints = []
                cursor = 0
                for kind, value in spec:
                    if kind == "c":
                        endpoints.append(value)
                    elif kind == "v":
                        bound_id = key[cursor]
                        cursor += 1
                        endpoints.append(
                            None if bound_id is None else decode(bound_id))
                    else:
                        endpoints.append(None)
                got = [(encode(start), encode(end)) for start, end in
                       evaluate_path(source, pattern.path,
                                     endpoints[0], endpoints[1])]
                memo[key] = got
            if got:
                emit(row, got, spec, out_rows)
        return BindingTable(out_names, out_rows)

    def _scan_chunks(self, pattern: TriplePatternNode, source: GraphSource,
                     table: BindingTable, batch: int
                     ) -> Iterator[BindingTable]:
        """A leading join step that shares no variable with ``table``,
        as a sequence of bounded-size tables."""
        spec, new_names, _probe_slots, _dead = self._compile_positions(
            pattern.positions(), table)
        names = table.names + tuple(new_names)
        base = _base_pattern(spec)
        n_positions = [position for position, (kind, _) in enumerate(spec)
                       if kind == "n"]
        d_checks = [(position, value) for position, (kind, value)
                    in enumerate(spec) if kind == "d"]
        arrays = source.match_arrays(base)
        rows = table.rows
        # windowed so early termination (LIMIT, ASK) leaves the tail
        # undecoded and unaccounted: probes and governor charges land
        # per consumed window only
        counter = PROBE_COUNTER
        gov = self._gov
        total = int(len(arrays[0]))
        # each window multiplies with every seed row: keep a piece near
        # ``batch`` rows however many rows seed it
        batch = max(1, batch // len(rows))
        for start in range(0, total, batch):
            stop = min(start + batch, total)
            if counter.active:
                counter.entries += stop - start
            if gov is not None:
                gov.charge_scan(stop - start)
            chunk = self._extension_tuples(
                tuple(col[start:stop] for col in arrays),
                n_positions, d_checks)
            if chunk:
                yield BindingTable(
                    names, [row + ext for row in rows for ext in chunk])


class PatternEvaluator(JoinSteps):
    """Evaluates pattern nodes against a dataset context.

    One walker (:meth:`_walk`) interprets the algebra over id-level
    :class:`BindingTable`\\ s; every query form is a way of draining it:

    * :meth:`solve` — no chunking, one table out.  SELECT, CONSTRUCT,
      DESCRIBE and update ``WHERE`` clauses use it.
    * :meth:`stream_tables` — the leading scan in chunks, pulled only
      while the caller iterates (SELECT with LIMIT).
    * :meth:`exists` — chunked, stopped at the first non-empty table
      (ASK); EXISTS is the same drain seeded with the rows being
      filtered (:meth:`_exists_rows`).
    """

    def __init__(self, context: DatasetContext,
                 eval_context: Optional[EvalContext] = None) -> None:
        self.context = context
        self.eval_context = eval_context or EvalContext()
        governor = getattr(context, "governor", None)
        if governor is not None:
            # a dead-on-arrival request (cancelled token, expired
            # deadline) dies here, before any evaluation work — this
            # also covers early-exit paths (ASK) that may finish
            # without ever reaching a batch boundary
            governor.check()
        # per-query overlay: computed BIND/VALUES terms intern into a
        # discardable overflow id range, never into the base dictionary
        super().__init__(context.dataset.dictionary.overlay(), governor)
        self._subselect_tables: Dict[tuple, Tuple[Tuple[str, ...], list]] = {}
        self._visible_cache: Dict[Tuple[str, ...], list] = {}
        self._marker_count = 0
        #: when set to a list, every executed join step appends a
        #: :class:`StepTrace` (EXPLAIN's estimated-vs-actual view)
        self.trace: Optional[List[StepTrace]] = None

    # ==================================================================
    # Draining the walker
    # ==================================================================

    def solve(self, node: PatternNode, source: GraphSource,
              table: Optional[BindingTable] = None) -> BindingTable:
        """Evaluate ``node`` over every row of ``table`` at once."""
        if table is None:
            table = BindingTable.unit()
        # un-chunked, the walker yields exactly one table per node
        result, = self._walk(node, source, table, None)
        return result

    def exists(self, node: PatternNode, source: GraphSource) -> bool:
        """Whether ``node`` has a solution: pulls chunks and stops at
        the first non-empty one (ASK)."""
        return bool(self._exists_rows(node, source, BindingTable.unit()))

    def _marked(self, table: BindingTable) -> Tuple[str, BindingTable]:
        """``table`` plus a fresh internal column numbering its rows, so
        solutions seeded from it can be traced back to their row."""
        self._marker_count += 1
        marker = f"#mark{self._marker_count}"
        return marker, BindingTable(
            table.names + (marker,),
            [row + (index,) for index, row in enumerate(table.rows)])

    def _exists_rows(self, node: PatternNode, source: GraphSource,
                     table: BindingTable) -> Set[int]:
        """Indexes of the rows of ``table`` over which ``node`` has a
        solution (EXISTS for a whole table at once).

        The walker runs seeded with every row, in chunks, and stops as
        soon as each row has been seen in some solution.
        """
        marker, seeded = self._marked(table)
        found: Set[int] = set()
        for piece in self._walk(node, source, seeded, _CHUNK):
            slot = piece.slots[marker]
            found.update(row[slot] for row in piece.rows)
            if len(found) == len(table.rows):
                break
        return found

    def _seed_table(self, seed: Binding) -> BindingTable:
        """The one-row table binding ``seed``'s variables."""
        names = tuple(seed)
        encode = self._dict.encode
        return BindingTable(
            names, [tuple(encode(seed[name]) for name in names)])

    def solutions(self, node: PatternNode, source: GraphSource
                  ) -> List[Binding]:
        """Batch-evaluate and decode into {var: term} dict bindings."""
        result = self.solve(node, source)
        decode = self._dict.decode
        out: List[Binding] = []
        visible = result.visible_slots()
        for row in result.rows:
            out.append({name: decode(row[slot]) for slot, name in visible
                        if row[slot] is not None})
        return out

    # ==================================================================
    # The algebra walker
    # ==================================================================

    def _walk(self, node: PatternNode, source: GraphSource,
              table: BindingTable, chunk: Optional[int]
              ) -> Iterator[BindingTable]:
        """Tables whose concatenation is ``node`` evaluated over
        ``table``.

        With ``chunk`` set, the left-most BGP's leading index scan is
        pulled in windows of at most ``chunk`` entries and every
        operator above it that consumes its input row-locally maps over
        the pieces, so a consumer that stops iterating stops the scan.
        With ``chunk=None`` each node yields exactly one table.
        """
        if isinstance(node, BGP):
            yield from self._walk_bgp(node, source, table, chunk)
        elif isinstance(node, Join):
            for left in self._walk(node.left, source, table, chunk):
                yield from self._walk(node.right, source, left, None)
        elif isinstance(node, LeftJoin):
            # left-outer probe per required-side piece: each piece is
            # extended (or None-padded) against the optional side right
            # away, so neither side materializes fully when chunked
            for left in self._walk(node.left, source, table, chunk):
                yield self._left_outer_extend(node, source, left) \
                    if left.rows else left
        elif isinstance(node, UnionNode):
            yield from self._gathered(
                chain(self._walk(node.left, source, table, chunk),
                      self._walk(node.right, source, table, chunk)),
                chunk, table.names)
        elif isinstance(node, Minus):
            # the right side is NOT correlated with the left in SPARQL
            # MINUS: it is solved once, when the first left row shows up
            removals = None
            for left in self._walk(node.left, source, table, chunk):
                if left.rows:
                    if removals is None:
                        removals = self.solve(node.right, source)
                    left = self._minus_table(left, removals)
                yield left
        elif isinstance(node, Filter):
            for child in self._walk(node.child, source, table, chunk):
                yield self._filter_table(child, node.condition, source)
        elif isinstance(node, Extend):
            for child in self._walk(node.child, source, table, chunk):
                yield self._extend_table(node, child, source)
        elif isinstance(node, ValuesNode):
            encode = self._dict.encode
            yield _join_relation(table, node.vars, [
                tuple(None if value is None else encode(value)
                      for value in row)
                for row in node.rows])
        elif isinstance(node, GraphNode):
            yield from self._walk_graph(node, source, table, chunk)
        elif isinstance(node, SubSelectNode):
            yield _join_relation(table, *self._subselect(node, source))
        elif isinstance(node, Empty):
            yield table
        else:
            raise EvaluationError(f"unknown pattern node {node!r}")

    @staticmethod
    def _gathered(pieces: Iterator[BindingTable], chunk: Optional[int],
                  names: Tuple[str, ...]) -> Iterator[BindingTable]:
        """``pieces`` as they come when chunked, concatenated into the
        one table an un-chunked node owes otherwise."""
        if chunk is not None:
            yield from pieces
            return
        tables = list(pieces)
        yield table_concat(tables) if tables else BindingTable(names, [])

    def _bgp_dead(self, patterns) -> bool:
        """True when a triple pattern holds a never-interned constant.

        Such a pattern can match nothing, so the whole conjunction is
        empty — checked up front (a dict probe per constant) so the
        plan's earlier steps never run for a doomed BGP.  Path patterns
        are exempt: a zero-length path can match an unknown term.
        """
        lookup = self._dict.lookup
        for pattern in patterns:
            if isinstance(pattern, TriplePatternNode):
                for position in pattern.positions():
                    if not isinstance(position, Var) \
                            and lookup(position) is None:
                        return True
        return False

    def _walk_bgp(self, node: BGP, source: GraphSource,
                  table: BindingTable, chunk: Optional[int]
                  ) -> Iterator[BindingTable]:
        patterns = node.patterns
        if not patterns:
            yield table
            return
        if self._bgp_dead(patterns):
            table = BindingTable(table.names, [])
        bound = frozenset(
            name for name in table.names if not name.startswith("#"))
        plan = get_plan(node, bound, source)
        steps = plan.steps
        feeds: Iterable[Optional[BindingTable]] = (None,)
        if chunk is not None and plan.streamable and table.rows:
            first = patterns[steps[0].index]
            if not first.variables() & table.slots.keys():
                # an incremental scan can lead: each window of it is
                # one feed through the remaining steps
                feeds = self._scan_chunks(first, source, table, chunk)
        trace = self.trace
        gov = self._gov
        for feed in feeds:
            current = table
            for position, step in enumerate(steps):
                if _faults.ACTIVE:
                    _faults.fire("evaluator.step")
                if not current.rows:
                    break
                pattern = patterns[step.index]
                rows_in = len(current.rows)
                if feed is not None and position == 0:
                    current = feed
                    self._last_strategy = "scan"
                elif isinstance(pattern, PathPatternNode):
                    current = self._step_path(pattern, source, current)
                else:
                    current = self._step_triple(pattern, source, current)
                if gov is not None:
                    # batch-boundary governance: account the produced
                    # binding cells, then check deadline/cancellation
                    gov.charge_rows(len(current.rows),
                                    max(1, len(current.names)))
                if trace is not None:
                    trace.append(StepTrace(node, position, step, rows_in,
                                           len(current.rows),
                                           self._last_strategy))
            yield current

    # -- draining in chunks (SELECT with LIMIT) ------------------------------

    def iter_stream_solutions(self, node: PatternNode, source: GraphSource,
                              batch: int = _CHUNK) -> Iterator[Binding]:
        """Lazily decoded solutions, pulled batch-by-batch.

        The first join step of the leading BGP is pulled in batches of
        at most ``batch`` index entries; each batch flows through the
        remaining steps (and any row-local operators above the BGP),
        but only while the caller keeps iterating — consumers that
        cannot know up front how many raw solutions they need (the
        incremental DISTINCT operator) simply stop pulling.
        """
        decode = self._dict.decode
        for table in self.stream_tables(node, source, batch):
            visible = table.visible_slots()
            for row in table.rows:
                yield {name: decode(row[slot])
                       for slot, name in visible
                       if row[slot] is not None}

    def stream_tables(self, node: PatternNode, source: GraphSource,
                      batch: int = _CHUNK) -> Iterator[BindingTable]:
        """Solution batches for a streamable subtree, with telemetry."""
        telemetry = STREAM_TELEMETRY
        gov = self._gov
        for table in self._walk(node, source, BindingTable.unit(), batch):
            telemetry.record_batch(len(table.rows))
            if _faults.ACTIVE:
                _faults.fire("evaluator.batch")
            if gov is not None:
                gov.charge_rows(len(table.rows), max(1, len(table.names)))
            yield table

    # -- operators -----------------------------------------------------------

    def _left_outer_extend(self, node: LeftJoin, source: GraphSource,
                           left: BindingTable) -> BindingTable:
        """Extend solved required-side rows with the optional side.

        The left-outer probe is row-local (each left row either gains
        its matches or a ``None`` pad, independently of other rows), so
        the walker calls this once per required-side piece.
        """
        if self._gov is not None:
            self._gov.check()
        marker, seeded = self._marked(left)
        right = self.solve(node.right, source, seeded)
        right_rows = right.rows
        if node.condition is not None and right_rows:
            right_rows = self._filter_table(
                right, node.condition, source).rows
        marker_slot = right.slots[marker]
        matched: Dict[int, list] = {}
        for row in right_rows:
            matched.setdefault(row[marker_slot], []).append(row)
        out_names = tuple(name for name in right.names if name != marker)
        right_picks = [right.slots[name] for name in out_names]
        pad = (None,) * (len(out_names) - len(left.names))
        out_rows: List[tuple] = []
        for index, left_row in enumerate(left.rows):
            hits = matched.get(index)
            if hits:
                for row in hits:
                    out_rows.append(tuple(row[pick] for pick in right_picks))
            else:
                out_rows.append(left_row + pad)
        return BindingTable(out_names, out_rows)

    @staticmethod
    def _minus_table(left: BindingTable,
                     removals: BindingTable) -> BindingTable:
        """``left`` without the rows a compatible, overlapping row of
        ``removals`` excludes."""
        if not removals.rows:
            return left
        shared = [(left.slots[name], removals.slots[name])
                  for name in left.names
                  if name in removals.slots and not name.startswith("#")]
        if not shared:
            return left
        out_rows = []
        for left_row in left.rows:
            excluded = False
            for removal in removals.rows:
                overlap = False
                compatible = True
                for left_slot, removal_slot in shared:
                    left_value = left_row[left_slot]
                    removal_value = removal[removal_slot]
                    if left_value is None or removal_value is None:
                        continue
                    if left_value != removal_value:
                        compatible = False
                        break
                    overlap = True
                if compatible and overlap:
                    excluded = True
                    break
            if not excluded:
                out_rows.append(left_row)
        return BindingTable(left.names, out_rows)

    def _filter_table(self, child: BindingTable, condition,
                      source: GraphSource) -> BindingTable:
        eval_context = self._context_for(source, child)
        out_rows = []
        for index, row in enumerate(child.rows):
            binding = self._decode_row(child.names, row)
            binding["#row"] = index
            try:
                if effective_boolean_value(
                        condition.evaluate(binding, eval_context)):
                    out_rows.append(row)
            except ExpressionError:
                continue
        return BindingTable(child.names, out_rows)

    def _extend_table(self, node: Extend, child: BindingTable,
                      source: GraphSource) -> BindingTable:
        eval_context = self._context_for(source)
        encode = self._dict.encode
        name = node.var
        slot = child.slots.get(name)
        out_rows = []
        for row in child.rows:
            if slot is not None and row[slot] is not None:
                raise EvaluationError(
                    f"BIND would rebind already-bound variable ?{name}")
            binding = self._decode_row(child.names, row)
            try:
                value = encode(node.expression.evaluate(
                    binding, eval_context))
            except ExpressionError:
                value = None  # leave unbound per SPARQL error semantics
            if slot is not None:
                cells = list(row)
                cells[slot] = value
                out_rows.append(tuple(cells))
            else:
                out_rows.append(row + (value,))
        names = child.names if slot is not None else child.names + (name,)
        return BindingTable(names, out_rows)

    def _walk_graph(self, node: GraphNode, source: GraphSource,
                    table: BindingTable, chunk: Optional[int]
                    ) -> Iterator[BindingTable]:
        if not isinstance(node.name, Var):
            yield from self._walk(node.child,
                                  self.context.named_source(node.name),
                                  table, chunk)
            return
        name = node.name.name

        def per_graph() -> Iterator[BindingTable]:
            for iri, graph in self.context.named_graphs():
                # ?g is this graph: rows that bind it otherwise drop out
                seeded = _join_relation(
                    table, (name,), [(self._dict.encode(iri),)])
                yield from self._walk(node.child, GraphSource(graph),
                                      seeded, chunk)

        yield from self._gathered(
            per_graph(), chunk,
            table.names + (() if name in table.slots else (name,)))

    def _subselect(self, node: SubSelectNode, source: GraphSource
                   ) -> Tuple[Tuple[str, ...], List[tuple]]:
        """The sub-SELECT's result as ``(names, id rows)``, evaluated
        once per evaluator and source."""
        # keyed by node *and* source: under GRAPH ?g the same subselect
        # evaluates once per named graph, not once globally
        cache_key = (id(node), source.cache_key())
        cached = self._subselect_tables.get(cache_key)
        if cached is None:
            from repro.sparql.evaluator import evaluate_select

            # the outer trace rides along so EXPLAIN analyze renders
            # nested plans with their actual cardinalities
            result = evaluate_select(node.query, self.context, source=source,
                                     trace=self.trace)
            encode = self._dict.encode
            sub_rows = [
                tuple(None if value is None else encode(value)
                      for value in row)
                for row in result.rows]
            cached = (tuple(result.vars), sub_rows)
            self._subselect_tables[cache_key] = cached
        return cached

    def _decode_row(self, names, row) -> Binding:
        # the visible-column scan is memoized per schema: this runs once
        # per row on every FILTER/BIND/ORDER BY boundary
        visible = self._visible_cache.get(names)
        if visible is None:
            visible = table_visible_slots(names)
            self._visible_cache[names] = visible
        decode = self._dict.decode
        return {
            name: decode(row[slot])
            for slot, name in visible
            if row[slot] is not None
        }

    def _context_for(self, source: GraphSource,
                     table: Optional[BindingTable] = None) -> EvalContext:
        """The expression context for patterns matched against
        ``source``.

        A caller about to evaluate one expression over every row of a
        ``table`` passes it and tags each row's binding with its index
        under ``"#row"``: EXISTS is then answered for the whole table
        by one seeded walk, on first use.  An untagged binding (HAVING,
        projection, ORDER BY, BIND) is a table of one row.
        """
        found: Dict[int, Set[int]] = {}

        def exists_evaluator(pattern: PatternNode, binding: Binding) -> bool:
            index = None if table is None else binding.get("#row")
            if index is None:
                return bool(self._exists_rows(
                    pattern, source, self._seed_table(binding)))
            hits = found.get(id(pattern))
            if hits is None:
                hits = found[id(pattern)] = self._exists_rows(
                    pattern, source, table)
            return index in hits

        return EvalContext(exists_evaluator=exists_evaluator,
                           now=self.eval_context.now)


def _join_relation(table: BindingTable, names: Sequence[str],
                   relation: List[tuple]) -> BindingTable:
    """Join ``table`` with a constant relation (VALUES data, a cached
    sub-SELECT result) of id rows over ``names``.

    A ``None`` cell on either side constrains nothing (``UNDEF``, an
    unbound variable) and takes the other side's value.
    """
    shared = [(table.slots[name], index)
              for index, name in enumerate(names) if name in table.slots]
    new_indices = [index for index, name in enumerate(names)
                   if name not in table.slots]
    out_names = table.names + tuple(names[index] for index in new_indices)
    out_rows: List[tuple] = []
    clean = bool(shared) and all(
        row[index] is not None for _, index in shared
        for row in relation) and all(
        row[slot] is not None for slot, _ in shared
        for row in table.rows)
    if clean:
        # every join cell bound on both sides: bucket the relation once
        buckets: Dict[tuple, list] = {}
        for rel_row in relation:
            key = tuple(rel_row[index] for _, index in shared)
            buckets.setdefault(key, []).append(rel_row)
        for table_row in table.rows:
            for rel_row in buckets.get(
                    tuple(table_row[slot] for slot, _ in shared), ()):
                out_rows.append(table_row + tuple(
                    rel_row[index] for index in new_indices))
        return BindingTable(out_names, out_rows)
    for table_row in table.rows:
        for rel_row in relation:
            updates = None
            ok = True
            for slot, index in shared:
                value = rel_row[index]
                if value is None:
                    continue
                current = table_row[slot]
                if current is None:
                    if updates is None:
                        updates = {}
                    updates[slot] = value
                elif current != value:
                    ok = False
                    break
            if not ok:
                continue
            if updates:
                cells = list(table_row)
                for slot, value in updates.items():
                    cells[slot] = value
                base = tuple(cells)
            else:
                base = table_row
            out_rows.append(base + tuple(
                rel_row[index] for index in new_indices))
    return BindingTable(out_names, out_rows)


def streamable(node: PatternNode) -> bool:
    """Whether :meth:`PatternEvaluator.stream_tables` can drive
    ``node`` incrementally.

    The shape test lives in the planner (:func:`stream_shape`: a BGP at
    the left-most leaf under row-local operators — FILTER, BIND, joins
    fed from the left, OPTIONAL probed from its required side); whether
    the leading BGP's *plan* supports an incremental scan is the
    :attr:`~repro.sparql.optimizer.PhysicalPlan.streamable` IR flag the
    pipeline consults at execution time.
    """
    return stream_shape(node)


def _leading_bgp(node: PatternNode) -> Optional[BGP]:
    """The BGP whose scan would feed a stream of ``node``, if any."""
    while isinstance(node, (Filter, Extend, Join, LeftJoin)):
        node = node.child if isinstance(node, (Filter, Extend)) \
            else node.left
    return node if isinstance(node, BGP) else None


def would_stream(query: SelectQuery,
                 source: Optional[GraphSource] = None) -> bool:
    """Whether :func:`evaluate_select` takes the streaming path.

    Ignores the module kill switch and trace installation — this is
    the query's *eligibility*: a LIMIT, no ORDER BY (a total sort
    needs every row), no aggregation (a group needs every member), and
    a streamable pattern shape.  DISTINCT / REDUCED queries stream
    through the incremental dedup operator.

    With a ``source``, the leading BGP's (cached) plan is consulted
    too: a path-first plan cannot scan incrementally, so such a query
    is *not* streamed — and must not be counted or rendered as if it
    were.  Without a source the answer is shape-only.
    """
    if (query.limit is None or query.order_by
            or query.is_aggregate_query
            or not stream_shape(query.pattern)):
        return False
    if source is not None:
        bgp = _leading_bgp(query.pattern)
        if bgp is not None and bgp.patterns:
            return get_plan(bgp, frozenset(), source).streamable
    return True


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def _substitute_aggregates(expression: Expression, group: List[Binding],
                           context: EvalContext) -> Expression:
    """Replace Aggregate nodes with their computed constant values."""
    if isinstance(expression, Aggregate):
        try:
            value = expression.apply(group, context)
        except ExpressionError:
            return _ErrorExpression()
        return TermExpression(value)
    if isinstance(expression, (TermExpression, VariableExpression)):
        return expression
    if isinstance(expression, BooleanExpression):
        return BooleanExpression(
            expression.op,
            _substitute_aggregates(expression.left, group, context),
            _substitute_aggregates(expression.right, group, context))
    if isinstance(expression, NotExpression):
        return NotExpression(
            _substitute_aggregates(expression.operand, group, context))
    if isinstance(expression, ComparisonExpression):
        return ComparisonExpression(
            expression.op,
            _substitute_aggregates(expression.left, group, context),
            _substitute_aggregates(expression.right, group, context))
    if isinstance(expression, ArithmeticExpression):
        return ArithmeticExpression(
            expression.op,
            _substitute_aggregates(expression.left, group, context),
            _substitute_aggregates(expression.right, group, context))
    if isinstance(expression, UnaryMinusExpression):
        return UnaryMinusExpression(
            _substitute_aggregates(expression.operand, group, context))
    if isinstance(expression, InExpression):
        return InExpression(
            _substitute_aggregates(expression.operand, group, context),
            [_substitute_aggregates(choice, group, context)
             for choice in expression.choices],
            negated=expression.negated)
    if isinstance(expression, FunctionExpression):
        return FunctionExpression(
            expression.name,
            [_substitute_aggregates(arg, group, context)
             for arg in expression.args])
    if isinstance(expression, ExistsExpression):
        return expression
    return expression


class _ErrorExpression(Expression):
    """An expression that always errors (aggregate over empty group)."""

    def evaluate(self, binding: Binding, context: EvalContext) -> Term:
        raise ExpressionError("aggregate evaluation error")


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


def _apply_projection_expressions(query: SelectQuery, binding: Binding,
                                  eval_context: EvalContext) -> None:
    """Evaluate ``(expr AS ?alias)`` projection items into ``binding``.

    Items apply in projection order, each seeing the aliases bound by
    the ones before it; a failing expression leaves its alias unbound
    per SPARQL error semantics.  Shared by the materialized and the
    streaming SELECT paths so both produce identical rows.
    """
    for item in query.projection or []:
        if item.expression is None:
            continue
        try:
            binding[item.name] = item.expression.evaluate(
                binding, eval_context)
        except ExpressionError:
            pass


#: Distinct-from-everything marker for the REDUCED adjacent-dedup state.
_NO_ROW = object()


def _stream_select(query: SelectQuery, evaluator: PatternEvaluator,
                   source: GraphSource,
                   eval_context: EvalContext) -> ResultTable:
    """The streaming SELECT tail: projection, dedup, OFFSET/LIMIT.

    Solutions are pulled batch-by-batch and pushed through projection
    and — for ``DISTINCT`` / ``REDUCED`` — an *incremental dedup
    operator*; pulling stops once ``OFFSET + LIMIT`` output rows exist.
    ``DISTINCT`` keeps a seen-set of projected rows, bounded by that
    row budget (only emitted rows enter it).  ``REDUCED`` only compares
    against the previous projected row: adjacent dedup needs no
    seen-set, fully dedups grouped input, and is conformant because
    REDUCED permits any duplicate count between DISTINCT's and the
    unmodified multiset's.

    Queries whose projection is plain variables dedup and truncate on
    **term ids** and decode only the emitted rows (the dictionary maps
    terms to ids bijectively, so id-tuple equality is term-tuple
    equality); projection expressions force the decoded-term path.
    """
    names = query.output_names()
    needed = query.offset + (query.limit or 0)
    if needed <= 0:
        return ResultTable(names, [])
    distinct = query.distinct
    reduced = query.reduced and not distinct
    rows: List[Tuple[Optional[Term], ...]] = []
    batch = max(64, min(512, needed))
    has_expressions = any(item.expression is not None
                          for item in query.projection or [])
    gov = evaluator._gov
    allow_partial = gov is not None and gov.limits.allow_partial
    truncated = False
    try:
        if has_expressions:
            seen: set = set()
            last: object = _NO_ROW
            for binding in evaluator.iter_stream_solutions(
                    query.pattern, source, batch):
                _apply_projection_expressions(query, binding, eval_context)
                row = tuple(binding.get(name) for name in names)
                if distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                elif reduced:
                    if row == last:
                        continue
                    last = row
                rows.append(row)
                if len(rows) >= needed:
                    break
        else:
            decode = evaluator._dict.decode
            seen_ids: set = set()
            last_ids: object = _NO_ROW
            done = False
            for table in evaluator.stream_tables(query.pattern, source,
                                                 batch):
                for id_row in table.iter_onto(names):
                    if distinct:
                        if id_row in seen_ids:
                            continue
                        seen_ids.add(id_row)
                    elif reduced:
                        if id_row == last_ids:
                            continue
                        last_ids = id_row
                    rows.append(tuple(
                        None if cell is None else decode(cell)
                        for cell in id_row))
                    if len(rows) >= needed:
                        done = True
                        break
                if done:
                    break
    except (QueryTimeout, ResourceExhausted):
        # graceful degradation (opt-in, streamable queries only): the
        # rows gathered so far are each individually correct — serve
        # them flagged as truncated instead of discarding the work
        if not allow_partial:
            raise
        truncated = True
        gov.truncated = True
    result = ResultTable(names, rows[query.offset:])
    if truncated:
        result.truncated = True
    return result


def evaluate_select(query: SelectQuery, context: DatasetContext,
                    source: Optional[GraphSource] = None,
                    trace: Optional[List[StepTrace]] = None) -> ResultTable:
    """Evaluate a SELECT query and return its result table.

    ``trace`` (EXPLAIN analyze) installs a step-trace list on the
    evaluator; sub-SELECTs inherit it, so nested plans show in the
    analyzed output.  Tracing forces the materialized path — the trace
    should show the full join cardinalities, not a truncated stream.
    """
    scoped = context.scoped(query.from_graphs,
                            getattr(query, "from_named", None))
    if scoped is not context:
        context = scoped
        source = context.default_source()
    elif source is None:
        source = context.default_source()
    evaluator = PatternEvaluator(context)
    evaluator.trace = trace
    eval_context = evaluator._context_for(source)
    if STREAMING_ENABLED and trace is None and would_stream(query, source):
        # LIMIT pushdown: pull join batches only until enough output
        # rows exist, instead of materializing the full binding table
        STREAM_TELEMETRY.record_query()
        return _stream_select(query, evaluator, source, eval_context)
    parallel = getattr(context, "parallel", None)
    if parallel is not None and trace is None:
        # morsel-driven parallel path: the executor runs eligible
        # BGP-only plans across its worker pool and applies the same
        # SELECT tail (via _finalize_select); None means "stay serial"
        table = parallel.try_select(query, context, source, evaluator,
                                    eval_context)
        if table is not None:
            return table
    solutions = evaluator.solutions(query.pattern, source)

    if query.is_aggregate_query:
        result_bindings = _aggregate_rows(
            query, solutions, eval_context)
    else:
        result_bindings = solutions
        for row in result_bindings:
            _apply_projection_expressions(query, row, eval_context)

    return _finalize_select(query, result_bindings, eval_context)


def _finalize_select(query: SelectQuery, result_bindings: List[Binding],
                     eval_context: EvalContext) -> ResultTable:
    """The materialized SELECT tail: ORDER BY, projection to named
    rows, DISTINCT/REDUCED, OFFSET and LIMIT.

    Shared by the serial path above and the parallel executor's merge
    stage, so both produce byte-identical result tables from the same
    solution multiset.
    """
    if query.order_by:
        def sort_key(row: Binding):
            key = []
            for expression, ascending in query.order_by:
                try:
                    term = expression.evaluate(row, eval_context)
                except ExpressionError:
                    term = None
                key.append((order_key(term), ascending))
            # encode descending by wrapping in a reversor
            return tuple(_Reversed(k) if not asc else k for k, asc in key)
        result_bindings = sorted(result_bindings, key=sort_key)

    names = query.output_names()
    rows: List[Tuple[Optional[Term], ...]] = []
    for row in result_bindings:
        rows.append(tuple(row.get(name) for name in names))

    if query.distinct:
        deduped: List[Tuple[Optional[Term], ...]] = []
        seen: set = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    elif query.reduced:
        # adjacent dedup, exactly like the streaming path: REDUCED
        # permits any duplicate count between DISTINCT's and the raw
        # multiset's, so both paths agree row-for-row
        deduped = []
        last: object = _NO_ROW
        for row in rows:
            if row == last:
                continue
            last = row
            deduped.append(row)
        rows = deduped

    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultTable(names, rows)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _aggregate_rows(query: SelectQuery, solutions: List[Binding],
                    eval_context: EvalContext) -> List[Binding]:
    """GROUP BY + aggregate projection + HAVING.

    Contract relied on by the parallel executor's in-worker aggregate
    path (:meth:`~repro.sparql.parallel.ParallelExecutor.
    _merge_aggregate` replicates it partial-by-partial): groups appear
    in first-occurrence order of their key over the solution sequence,
    and each projection follows :meth:`~repro.sparql.expressions.
    Aggregate.apply` — including the empty-group cases (COUNT binds 0,
    SUM binds 0, AVG/MIN/MAX stay unbound via :class:`ExpressionError`)
    and the whole-aggregate unbinding when any value is non-numeric.
    Changes to these semantics must be mirrored there.
    """
    groups: Dict[Tuple, List[Binding]] = {}
    key_bindings: Dict[Tuple, Binding] = {}
    if query.group_by:
        for row in solutions:
            key_parts: List[Optional[Term]] = []
            key_binding: Binding = {}
            for position, expression in enumerate(query.group_by):
                try:
                    value = expression.evaluate(row, eval_context)
                except ExpressionError:
                    value = None
                key_parts.append(value)
                alias = query.group_aliases.get(position)
                if alias is not None and value is not None:
                    key_binding[alias] = value
                elif isinstance(expression, VariableExpression) \
                        and value is not None:
                    key_binding[expression.name] = value
            key = tuple(key_parts)
            groups.setdefault(key, []).append(row)
            key_bindings.setdefault(key, key_binding)
    else:
        # implicit single group: aggregates over the whole solution set,
        # producing exactly one row even when there are no solutions.
        groups[()] = solutions
        key_bindings[()] = {}

    results: List[Binding] = []
    for key, group in groups.items():
        binding = dict(key_bindings[key])
        # HAVING first: it may reject the whole group
        rejected = False
        for condition in query.having:
            concrete = _substitute_aggregates(condition, group, eval_context)
            try:
                if not effective_boolean_value(
                        concrete.evaluate(binding, eval_context)):
                    rejected = True
                    break
            except ExpressionError:
                rejected = True
                break
        if rejected:
            continue
        for item in query.projection or []:
            if item.expression is None:
                continue  # plain var: must be a group key, already bound
            concrete = _substitute_aggregates(
                item.expression, group, eval_context)
            try:
                binding[item.name] = concrete.evaluate(binding, eval_context)
            except ExpressionError:
                pass
        results.append(binding)
    return results


def evaluate_ask(query: AskQuery, context: DatasetContext) -> bool:
    """Evaluate an ASK query (stops at the first non-empty chunk)."""
    context = context.scoped(getattr(query, "from_graphs", None),
                             getattr(query, "from_named", None))
    return PatternEvaluator(context).exists(
        query.pattern, context.default_source())


def evaluate_construct(query, context: DatasetContext) -> Graph:
    """Evaluate a CONSTRUCT query into a new graph.

    Template instantiation follows the recommendation: blank nodes in
    the template are freshly minted per solution, rows leaving template
    variables unbound (or producing ill-formed triples, e.g. a literal
    subject) contribute nothing, and the output graph is a set.
    """
    from repro.rdf.errors import TermError
    from repro.rdf.terms import BNode

    context = context.scoped(query.from_graphs,
                             getattr(query, "from_named", None))
    source = context.default_source()
    evaluator = PatternEvaluator(context)
    solutions = evaluator.solutions(query.pattern, source)
    if query.offset:
        solutions = solutions[query.offset:]
    if query.limit is not None:
        solutions = solutions[: query.limit]

    result = Graph()
    for prefix, base in query.prefixes.items():
        result.namespace_manager.bind(prefix, base)
    for binding in solutions:
        bnode_map: Dict[str, BNode] = {}
        for pattern in query.template:
            terms: List[Optional[Term]] = []
            for position in pattern.positions():
                if isinstance(position, Var):
                    if position.name.startswith("_:"):
                        label = position.name[2:]
                        if label not in bnode_map:
                            bnode_map[label] = BNode()
                        terms.append(bnode_map[label])
                    else:
                        terms.append(binding.get(position.name))
                else:
                    terms.append(position)
            if any(term is None for term in terms):
                continue
            try:
                result.add(terms[0], terms[1], terms[2])
            except TermError:
                continue  # ill-formed triple: skipped, not an error
    return result


def evaluate_describe(query, context: DatasetContext) -> Graph:
    """Evaluate a DESCRIBE query as a concise bounded description (CBD).

    For every described resource the output contains its outgoing
    triples, recursing through blank-node objects (the common CBD
    reading the recommendation leaves implementation-defined).
    """
    from repro.rdf.terms import BNode

    context = context.scoped(query.from_graphs,
                             getattr(query, "from_named", None))
    source = context.default_source()
    evaluator = PatternEvaluator(context)

    resources: List[Term] = list(query.resources)
    if query.pattern is not None:
        names = query.variables
        for binding in evaluator.solutions(query.pattern, source):
            if query.star:
                wanted = list(binding.values())
            else:
                wanted = [binding[name] for name in names if name in binding]
            for value in wanted:
                if not isinstance(value, Literal) and value not in resources:
                    resources.append(value)

    result = Graph()
    described: set = set()
    queue: List[Term] = list(resources)
    while queue:
        node = queue.pop()
        if node in described:
            continue
        described.add(node)
        for triple in source.match((node, None, None)):
            result.add(triple)
            if isinstance(triple.object, BNode) \
                    and triple.object not in described:
                queue.append(triple.object)
    return result


def evaluate_query(query: Query, dataset: Dataset,
                   default_as_union: bool = True):
    """Evaluate a parsed query against a dataset."""
    from repro.sparql.algebra import ConstructQuery, DescribeQuery
    context = DatasetContext(dataset, default_as_union=default_as_union)
    if isinstance(query, SelectQuery):
        return evaluate_select(query, context)
    if isinstance(query, AskQuery):
        return evaluate_ask(query, context)
    if isinstance(query, ConstructQuery):
        return evaluate_construct(query, context)
    if isinstance(query, DescribeQuery):
        return evaluate_describe(query, context)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")
