"""A local SPARQL endpoint facade.

:class:`LocalEndpoint` plays the role of the Virtuoso 7 instance in the
paper's architecture (Fig. 1): the QB graph, the generated QB4OLAP
schema graph and the level-instance graph all live here, and every
module talks to the data exclusively through ``select`` / ``ask`` /
``update`` calls carrying SPARQL text.

The endpoint also reproduces two operational aspects the paper leans on:

* a **query log with timings** — the benchmarks read it to report how
  many SPARQL queries each enrichment phase issued;
* optional **result-size limits** (``EndpointLimits``) emulating the
  public-endpoint restrictions that motivate the Querying module's
  alternative translation.

Every failure reaches the caller typed: a raw engine exception escaping
a read or an update becomes a
:class:`~repro.sparql.errors.QueryExecutionError`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.rdf.concurrency import CONCURRENCY
from repro.rdf.errors import TermError
from repro.rdf.graph import Dataset, DatasetSnapshot, Graph
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple
from repro.sparql.algebra import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    Query,
    SelectQuery,
    SubSelectNode,
    Var,
    pattern_nodes,
)
from repro.sparql.errors import (
    EndpointError,
    QueryExecutionError,
    SPARQLError,
    UpdateError,
)
from repro.testing import faults as _faults
from repro.sparql.evaluator import (
    DatasetContext,
    PatternEvaluator,
    evaluate_ask,
    evaluate_construct,
    evaluate_describe,
    evaluate_select,
)
from repro.sparql.parser import (
    ClearOp,
    CreateOp,
    DeleteDataOp,
    DropOp,
    InsertDataOp,
    ModifyOp,
    Quad,
    UpdateOperation,
    parse_document,
    parse_query,
    parse_update,
)
from repro.sparql.results import ResultTable


@dataclass
class EndpointLimits:
    """Operational limits emulating public SPARQL endpoints.

    ``max_result_rows``: result sets longer than this raise
    :class:`EndpointError` (as Virtuoso's default 2^16 row cap and many
    public endpoints do).  ``None`` disables the check.

    ``forbid_having``: reject queries containing ``HAVING`` — several
    public endpoints of the era had missing or broken ``HAVING``
    support, which is one of the "typical limitations" the Querying
    module's alternative translation works around.
    """

    max_result_rows: Optional[int] = None
    forbid_having: bool = False


@dataclass
class QueryLogEntry:
    """One executed request, for statistics and benchmark reporting."""

    kind: str  # "select" | "ask" | "construct" | "describe" | "update"
    text: str
    seconds: float
    rows: int = 0


@dataclass
class EndpointStatistics:
    selects: int = 0
    asks: int = 0
    updates: int = 0
    triples_inserted: int = 0
    triples_deleted: int = 0
    total_seconds: float = 0.0
    parse_cache_hits: int = 0
    parse_cache_misses: int = 0
    #: the dataset snapshot epoch the most recent read query was
    #: pinned to (sum of member-graph epochs; ``None`` before the
    #: first query) — the QL execution report copies it out
    last_snapshot_epoch: Optional[int] = None
    #: raw engine exceptions mapped into ``QueryExecutionError``
    internal_errors: int = 0

    def reset(self) -> None:
        """Every field back to its default, in place: holders of this
        object keep reading the live counters."""
        for counter in fields(self):
            setattr(self, counter.name, counter.default)


#: per read form: the evaluator entry point, the statistics counter a
#: request bumps (CONSTRUCT and DESCRIBE count as selects) and the
#: query-log kind, which is also the name of its read method
_READS = {
    SelectQuery: (evaluate_select, "selects", "select"),
    AskQuery: (evaluate_ask, "asks", "ask"),
    ConstructQuery: (evaluate_construct, "selects", "construct"),
    DescribeQuery: (evaluate_describe, "selects", "describe"),
}


def _uses_having(query: Query) -> bool:
    """Whether ``query`` or any sub-SELECT in its pattern has HAVING."""
    if getattr(query, "having", None):
        return True
    pattern = getattr(query, "pattern", None)
    return pattern is not None and any(
        isinstance(node, SubSelectNode) and node.query.having
        for node in pattern_nodes(pattern))


class LocalEndpoint:
    """An in-process SPARQL 1.1 endpoint over a named-graph dataset.

    The read path (:meth:`select` / :meth:`ask` / :meth:`construct` /
    :meth:`describe` / :meth:`query`, all through :meth:`_read`) is
    **thread-safe and snapshot-isolated**: each request pins a
    :class:`~repro.rdf.graph.DatasetSnapshot` at its current epoch and
    evaluates entirely against that frozen view, so parallel SELECTs
    never block each other and a concurrent :meth:`update` /
    :meth:`insert_triples` can never tear a result — the next
    query simply pins the next epoch.  The pinned epoch is recorded on
    the returned :class:`ResultTable` (``snapshot_epoch``) and in
    :attr:`EndpointStatistics.last_snapshot_epoch`; process-wide
    reader/writer counters live in :data:`repro.rdf.concurrency.CONCURRENCY`
    and are rendered by :meth:`explain`.
    """

    def __init__(self, dataset: Optional[Dataset] = None,
                 limits: Optional[EndpointLimits] = None,
                 default_as_union: bool = True,
                 keep_query_log: bool = False) -> None:
        self.dataset = dataset or Dataset()
        self.limits = limits or EndpointLimits()
        self.default_as_union = default_as_union
        self.keep_query_log = keep_query_log
        self.query_log: List[QueryLogEntry] = []
        self.statistics = EndpointStatistics()
        self._fresh = itertools.count(1)
        #: per-query-text LRU of parsed queries; repeated query texts
        #: (the common OLAP workload) skip the parser entirely, and the
        #: parsed tree's BGP nodes keep their cached plan signatures.
        self._parse_cache: "OrderedDict[str, object]" = OrderedDict()
        self._parse_cache_size = 256
        #: guards the parse cache's LRU reordering and the statistics
        #: counters (both shared mutable state under parallel queries);
        #: never held while a query evaluates.
        self._stats_lock = threading.Lock()

    def _count(self, counter: str) -> None:
        """Bump one statistics counter."""
        with self._stats_lock:
            setattr(self.statistics, counter,
                    getattr(self.statistics, counter) + 1)

    def _parsed(self, query_text: str):
        """Parse ``query_text`` through the endpoint's LRU parse cache.

        Hit/miss statistics count once per request.  Parsing a miss
        happens outside the lock; two threads racing on the same new
        text both parse, and the second insert harmlessly wins.
        """
        with self._stats_lock:
            cached = self._parse_cache.get(query_text)
            if cached is not None:
                self._parse_cache.move_to_end(query_text)
                self.statistics.parse_cache_hits += 1
                return cached
        with self._mapped_errors(query_text):
            if _faults.ACTIVE:
                _faults.fire("endpoint.parse")
            query = parse_query(query_text)
        with self._stats_lock:
            self.statistics.parse_cache_misses += 1
            self._parse_cache[query_text] = query
            while len(self._parse_cache) > self._parse_cache_size:
                self._parse_cache.popitem(last=False)
        return query

    def _pin(self) -> DatasetSnapshot:
        """Pin the dataset snapshot one read request evaluates against."""
        snapshot = self.dataset.snapshot()
        with self._stats_lock:
            self.statistics.last_snapshot_epoch = snapshot.epoch
        return snapshot

    @contextmanager
    def _mapped_errors(self, request_text: str):
        """Map everything escaping one request into the typed taxonomy.

        Endpoint errors pass through with the request text attached;
        any *raw* engine exception — a ``KeyError`` from a malformed
        plan, a ``RecursionError`` from a pathological expression — is
        wrapped into :class:`QueryExecutionError` so callers always
        catch :class:`SPARQLError` subclasses, never bare internals.
        """
        try:
            yield
        except EndpointError as error:
            if error.query is None:
                error.query = request_text
            raise
        except SPARQLError:
            raise  # parse/expression/update errors are already typed
        # This handler IS the sanctioned taxonomy boundary: the one
        # place untyped engine failures become QueryExecutionError.
        except Exception as error:  # repro: allow[error-taxonomy]
            self._count("internal_errors")
            raise QueryExecutionError(
                f"internal error evaluating request: "
                f"{type(error).__name__}: {error}",
                query=request_text,
            ) from error

    # -- read path -------------------------------------------------------------

    def _read(self, query: Query, query_text: str,
              form: Optional[type] = None):
        """The one read path every read method runs.

        ``query`` (parsed from ``query_text``) must be of ``form``
        (``None`` takes any read form) and pass the endpoint's limits;
        it then pins a snapshot and evaluates against it as a counted
        reader.  Statistics and the query log are updated once it has
        answered.
        """
        if form is not None and not isinstance(query, form):
            name = _READS[form][2]
            raise EndpointError(
                f"{name}() requires the {name.upper()} query form")
        if self.limits.forbid_having and _uses_having(query):
            raise EndpointError(
                "this endpoint does not support HAVING clauses")
        evaluate, counter, kind = _READS[type(query)]
        started = time.perf_counter()
        snapshot = self._pin()
        context = DatasetContext(snapshot, self.default_as_union)
        CONCURRENCY.reader_enter()
        try:
            with self._mapped_errors(query_text):
                result = evaluate(query, context)
        finally:
            CONCURRENCY.reader_exit()
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            stats = self.statistics
            setattr(stats, counter, getattr(stats, counter) + 1)
            stats.total_seconds += elapsed
        self._log(kind, query_text, elapsed,
                  int(result) if isinstance(result, bool) else len(result))
        if isinstance(result, ResultTable):
            result.snapshot_epoch = snapshot.epoch
            if (self.limits.max_result_rows is not None
                    and len(result) > self.limits.max_result_rows):
                raise EndpointError(
                    f"result size {len(result)} exceeds endpoint limit "
                    f"{self.limits.max_result_rows}")
        return result

    def select(self, query_text: str) -> ResultTable:
        """Run a SELECT query and return its result table.

        The query is pinned to one dataset snapshot for its whole
        evaluation, runs without any lock, and the table it returns
        carries the pinned epoch as ``table.snapshot_epoch``.
        """
        return self._read(self._parsed(query_text), query_text,
                          SelectQuery)

    def ask(self, query_text: str) -> bool:
        """Run an ASK query (snapshot-pinned like :meth:`select`)."""
        return self._read(self._parsed(query_text), query_text, AskQuery)

    def construct(self, query_text: str) -> Graph:
        """Run a CONSTRUCT query and return the built graph."""
        return self._read(self._parsed(query_text), query_text,
                          ConstructQuery)

    def describe(self, query_text: str) -> Graph:
        """Run a DESCRIBE query and return the description graph."""
        return self._read(self._parsed(query_text), query_text,
                          DescribeQuery)

    def query(self, query_text: str):
        """Run any read query; dispatches on the parsed query form.

        Returns a :class:`ResultTable` for SELECT, ``bool`` for ASK and
        a :class:`Graph` for CONSTRUCT/DESCRIBE — mirroring what a
        protocol client gets back from a real endpoint.
        """
        return self._read(self._parsed(query_text), query_text)

    # -- write path --------------------------------------------------------------

    def update(self, update_text: str) -> int:
        """Run an update request; returns net triples touched.

        A raw engine exception raised while the operations run reaches
        the caller as :class:`QueryExecutionError`, as on the read
        path.
        """
        started = time.perf_counter()
        touched = 0
        with self._mapped_errors(update_text):
            for operation in parse_update(update_text):
                touched += self._apply(operation)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.statistics.updates += 1
            self.statistics.total_seconds += elapsed
        self._log("update", update_text, elapsed, touched)
        return touched

    def insert_triples(self, triples: Iterable[Triple],
                       graph: Optional[Union[IRI, str]] = None) -> int:
        """Directly load triples (bulk path used by data generators)."""
        target = self.dataset.graph(graph) if graph is not None \
            else self.dataset.default
        before = len(target)
        target.add_all(triples)  # one atomic batch w.r.t. snapshots
        added = len(target) - before
        with self._stats_lock:
            self.statistics.triples_inserted += added
        return added

    # -- update operations ---------------------------------------------------------

    def _apply(self, operation: UpdateOperation) -> int:
        if isinstance(operation, InsertDataOp):
            return self._insert_quads(operation.quads, {})
        if isinstance(operation, DeleteDataOp):
            return self._delete_quads(operation.quads, {})
        if isinstance(operation, ClearOp) or isinstance(operation, DropOp):
            return self._clear(operation.target)
        if isinstance(operation, CreateOp):
            self.dataset.graph(operation.graph)
            return 0
        if isinstance(operation, ModifyOp):
            return self._modify(operation)
        raise UpdateError(f"unsupported update operation {operation!r}")

    def _clear(self, target: Union[IRI, str]) -> int:
        if isinstance(target, IRI):
            graph = self.dataset.graph(target)
            removed = len(graph)
            graph.clear()
        elif target == "DEFAULT":
            removed = len(self.dataset.default)
            self.dataset.default.clear()
        elif target == "NAMED":
            removed = sum(len(g) for g in self.dataset.graphs())
            for graph in list(self.dataset.graphs()):
                graph.clear()
        else:  # ALL
            removed = len(self.dataset)
            self.dataset.default.clear()
            for graph in list(self.dataset.graphs()):
                graph.clear()
        with self._stats_lock:
            self.statistics.triples_deleted += removed
        return removed

    def _modify(self, operation: ModifyOp) -> int:
        context = DatasetContext(self.dataset, self.default_as_union)
        evaluator = PatternEvaluator(context)
        if operation.with_graph is not None:
            source = context.named_source(operation.with_graph)
        else:
            source = context.default_source()
        solutions = evaluator.solutions(operation.pattern, source)
        touched = 0
        for solution in solutions:
            touched += self._delete_quads(
                operation.delete_quads, solution,
                default_graph=operation.with_graph)
        for solution in solutions:
            touched += self._insert_quads(
                operation.insert_quads, solution,
                default_graph=operation.with_graph)
        return touched

    def _instantiate(self, quad: Quad, binding: Dict[str, Term],
                     bnode_map: Dict[str, BNode]) -> Optional[Tuple]:
        graph_iri, s, p, o = quad
        terms: List[Term] = []
        for index, position in enumerate((s, p, o)):
            if isinstance(position, Var):
                if position.name.startswith("_:"):
                    label = position.name[2:]
                    if label not in bnode_map:
                        bnode_map[label] = BNode()
                    terms.append(bnode_map[label])
                    continue
                value = binding.get(position.name)
                if value is None:
                    return None  # unbound var: skip this instantiation
                if (index == 0 and isinstance(value, Literal)) or \
                        (index == 1 and not isinstance(value, IRI)):
                    # no RDF triple: left out (SPARQL 1.1 Update §3.1.3)
                    return None
                terms.append(value)
            else:
                terms.append(position)
        return graph_iri, terms[0], terms[1], terms[2]

    def _insert_quads(self, quads: List[Quad], binding: Dict[str, Term],
                      default_graph: Optional[IRI] = None) -> int:
        added = 0
        bnode_map: Dict[str, BNode] = {}
        for quad in quads:
            concrete = self._instantiate(quad, binding, bnode_map)
            if concrete is None:
                continue
            graph_iri, s, p, o = concrete
            target_iri = graph_iri or default_graph
            target = self.dataset.graph(target_iri) if target_iri is not None \
                else self.dataset.default
            before = len(target)
            try:
                target.add(s, p, o)
            except (TermError, TypeError, ValueError) as error:
                raise UpdateError(f"cannot insert quad: {error}") from error
            added += len(target) - before
        with self._stats_lock:
            self.statistics.triples_inserted += added
        return added

    def _delete_quads(self, quads: List[Quad], binding: Dict[str, Term],
                      default_graph: Optional[IRI] = None) -> int:
        removed = 0
        bnode_map: Dict[str, BNode] = {}
        for quad in quads:
            concrete = self._instantiate(quad, binding, bnode_map)
            if concrete is None:
                continue
            graph_iri, s, p, o = concrete
            target_iri = graph_iri or default_graph
            if target_iri is not None:
                removed += self.dataset.graph(target_iri).remove((s, p, o))
            else:
                removed += self.dataset.default.remove((s, p, o))
                for graph in self.dataset.graphs():
                    removed += graph.remove((s, p, o))
        with self._stats_lock:
            self.statistics.triples_deleted += removed
        return removed

    # -- persistence -------------------------------------------------------------

    def dump_trig(self) -> str:
        """Snapshot the whole endpoint (all named graphs) as TriG."""
        from repro.rdf.trig import serialize_trig
        return serialize_trig(self.dataset)

    def load_trig(self, text: str) -> int:
        """Restore/merge a TriG snapshot (or any Turtle / N-Triples
        document) into this endpoint's dataset.

        The SPARQL parser reads it (:func:`parse_document`), its quads
        go in as INSERT DATA's do, blank nodes fresh, and its prefixes
        are bound in the dataset's namespace manager.  Returns the
        number of triples added.
        """
        with self._mapped_errors(text):
            quads, prefixes = parse_document(text)
            for prefix, namespace in prefixes.items():
                self.dataset.namespace_manager.bind(prefix, namespace)
            return self._insert_quads(quads, {})

    # -- introspection ---------------------------------------------------------

    def explain(self, query_text: str, analyze: bool = False) -> str:
        """Render the evaluation plan for ``query_text`` with estimates,
        the shared plan cache's hit/miss statistics and the concurrency
        counters (active readers, snapshot pins, writer waits).

        ``analyze=True`` executes the query's pattern and annotates
        every join step with its actual row count, so mis-estimates of
        the cost-based planner are visible next to its predictions.
        Planning and analysis run against a pinned snapshot, exactly
        like the query itself would.
        """
        from repro.sparql.explain import explain
        return explain(query_text, self.dataset.snapshot(),
                       cache_stats=True, analyze=analyze)

    def close(self) -> None:
        """A no-op: the endpoint holds no process, pool or shared
        segment.  Kept so callers can treat every engine alike (the
        star aggregator's ``close`` does release a pool), and for the
        context-manager protocol."""

    def __enter__(self) -> "LocalEndpoint":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def graph(self, identifier: Optional[Union[IRI, str]] = None) -> Graph:
        """Direct access to a stored graph (tests and tooling)."""
        return self.dataset.graph(identifier)

    def graph_sizes(self) -> Dict[str, int]:
        sizes = {"default": len(self.dataset.default)}
        for graph in self.dataset.graphs():
            if graph.identifier is not None:
                sizes[graph.identifier.value] = len(graph)
        return sizes

    def _log(self, kind: str, text: str, seconds: float, rows: int) -> None:
        if self.keep_query_log:
            self.query_log.append(QueryLogEntry(kind, text, seconds, rows))

    def reset_statistics(self) -> None:
        self.statistics.reset()
        self.query_log.clear()

    def __repr__(self) -> str:
        return (f"<LocalEndpoint {len(self.dataset)} triples, "
                f"{self.statistics.selects} selects>")
