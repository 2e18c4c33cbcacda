"""Storage adapter and dataset scoping for the SPARQL evaluator.

Dataset semantics follow Virtuoso's convenient default (and the paper's
setup): with no ``FROM`` clause the default graph is the *union* of the
dataset's default and named graphs; ``GRAPH <g>`` scopes matching to one
named graph.  The union itself — member order, duplicate suppression —
is :class:`repro.rdf.graph.UnionView`; this module only adapts it (or a
single graph) to the join pipeline through :class:`GraphSource`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.rdf.graph import Dataset, Graph, KeyedPattern, UnionView
from repro.rdf.stats import StatisticsView, holding
from repro.rdf.terms import IRI, Term, Triple

Binding = Dict[str, Term]

IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]
IdTriple = Tuple[int, int, int]



class ProbeCounter:
    """Counts index entries touched by the batch join steps.

    A test/benchmark hook: activate it around a query to measure how
    much of the index the evaluator actually pulled.
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


class GraphSource:
    """The join pipeline's one view of storage: a single graph, or the
    :class:`~repro.rdf.graph.UnionView` over several.

    A thin adapter — storage semantics (tiers, tombstones, union dedup)
    all live in :mod:`repro.rdf.graph`.  It offers a term-level API
    (``match``, used by property paths and DESCRIBE),
    an id-level one (``match_arrays`` — a pattern's matches as
    ``(S, P, O)`` arrays, whether the pattern is a whole range or a
    join step's keys as array cells — and ``estimate_ids``), and what
    the planner keys on (``cache_key``, ``statistics``).
    """

    __slots__ = ("view", "graphs")

    def __init__(self, view: Union[Graph, UnionView]) -> None:
        self.view = view
        #: the member graphs, in scan order
        self.graphs: List[Graph] = view.members() \
            if isinstance(view, UnionView) else [view]

    def match(self, pattern) -> Iterator[Triple]:
        return self.view.triples(pattern)

    def match_arrays(self, pattern: KeyedPattern):
        """The matches as positional ``(S, P, O)`` arrays, key by key."""
        return self.view.match_arrays(pattern)

    def estimate_ids(self, pattern: IdPattern) -> int:
        """Summed member counts (an upper bound on a union: exactness
        would cost the dedup the estimate exists to avoid), asking only
        the members :func:`~repro.rdf.stats.holding` the predicate."""
        return sum(graph.count_ids(pattern)
                   for graph in holding(self.graphs, pattern[1]))

    def cache_key(self) -> tuple:
        """Identity + mutation epochs, for the plan cache."""
        return tuple((id(graph), graph.epoch) for graph in self.graphs)

    def statistics(self) -> StatisticsView:
        """The cost-based planner's statistics view."""
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
    """

    def __init__(self, dataset: Dataset,
                 default_as_union: bool = True,
                 from_graphs: Optional[List[IRI]] = None,
                 from_named: Optional[List[IRI]] = None) -> None:
        self.dataset = dataset
        self.default_as_union = default_as_union
        self.from_graphs = list(from_graphs) if from_graphs else []
        self.from_named = list(from_named) if from_named else []

    @property
    def has_dataset_clause(self) -> bool:
        return bool(self.from_graphs or self.from_named)

    def scoped(self, from_graphs: Optional[List[IRI]],
               from_named: Optional[List[IRI]]) -> "DatasetContext":
        """This context restricted by a query's dataset clauses."""
        if not from_graphs and not from_named:
            return self
        return DatasetContext(self.dataset, self.default_as_union,
                              from_graphs, from_named)

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
                [self.dataset.graph(iri) for iri in distinct
                 if iri in self.dataset]))
        if self.from_named:
            # FROM NAMED without FROM: the default graph is empty
            return GraphSource(UnionView(self.dataset, []))
        if self.default_as_union:
            return GraphSource(UnionView(self.dataset))
        return GraphSource(self.dataset.default)

    def _named(self, iri: IRI) -> Union[Graph, UnionView]:
        """The graph named ``iri``, never created by the read: one the
        dataset lacks reads as an empty union."""
        if iri in self.dataset:
            return self.dataset.graph(iri)
        return UnionView(self.dataset, [])

    def named_source(self, iri: IRI) -> GraphSource:
        if self.has_dataset_clause and iri not in self.from_named:
            return GraphSource(UnionView(self.dataset, []))
        return GraphSource(self._named(iri))

    def named_graphs(self) -> List[Tuple[IRI, Union[Graph, UnionView]]]:
        if self.has_dataset_clause:
            return [(iri, self._named(iri)) for iri in self.from_named]
        return [(graph.identifier, graph)
                for graph in self.dataset.graphs()
                if graph.identifier is not None]


