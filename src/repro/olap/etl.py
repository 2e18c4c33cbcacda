"""ETL: extract a QB4OLAP cube from RDF into the star schema.

The "first approach" of the paper's introduction: "extracting MD data
from the Web, and loading them into traditional DWs for OLAP analysis"
(ref. [2]).  The extraction walks the same QB4OLAP metadata QL uses —
so the two engines answer from identical information — then
dictionary-encodes facts into numpy arrays.

The extraction stays in id space and touches neither observations nor
members one at a time: the dataset's observations are one POS read,
every bottom property, measure, ``skos:broader`` hop and level
attribute one ``match_arrays`` read of the union view.  Interned ids
are array offsets (the idiom of :mod:`repro.sparql.evaluator_steps`):
dense ids index a directory — one scatter, then one clipped gather
per property — and sparse ids are sorted and binary-searched, their
span never allocated.  This is what makes the E9 baseline's "pay ETL
once" price honest at scale.  (The per-observation extractor it
replaced is the test oracle now: ``tests/olap/reference_etl.py``.)

Extraction is **deterministic**: when an observation carries several
values for one dimension or measure property, the extractor keeps the
*minimum term by sorted key* (:func:`deterministic_key`) instead of
whatever a set yields first, and roll-up composition picks the
smallest eligible ``skos:broader`` target the same way — so two ETL
runs over the same data produce byte-identical fact tables.  Ties are
settled only where they exist: a cube that keeps IC-12 never sorts.

Missing values follow the SPARQL path's join semantics: a fact without
a usable value carries ``-1`` (dimension code) or ``NaN`` (measure),
and the engine drops such rows for any query touching that column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.grouping import DIRECTORY_FILL, distinct
from repro.rdf.graph import UnionView
from repro.rdf.namespace import SKOS
from repro.rdf.terms import IRI, Literal, Term
from repro.sparql.endpoint import LocalEndpoint
from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import CubeSchema
from repro.olap.star import DimensionTable, FactTable, StarSchema

#: term ids → the numbers their terms were given (``-1``: given none)
Locate = Callable[[np.ndarray], np.ndarray]


@dataclass
class ETLReport:
    """Cost accounting for the extraction (the price the baseline pays)."""

    seconds: float
    facts: int
    dimension_rows: int


def deterministic_key(term: Term) -> Tuple[str, str]:
    """Total order over terms used for multi-value tie-breaks.

    Hash-order-free: two runs (or two insertion orders) always pick
    the same winner.  The class name keeps IRIs, literals and blank
    nodes in separate bands; within a band the lexical value decides.
    """
    return (term.__class__.__name__, str(getattr(term, "value", term)))


def extract_star_schema(endpoint: LocalEndpoint, schema: CubeSchema
                        ) -> Tuple[StarSchema, ETLReport]:
    """Materialize the star schema for ``schema`` from ``endpoint``."""
    started = time.perf_counter()
    dataset = endpoint.dataset
    graph = dataset.union()
    # stamped as a DatasetSnapshot is: every write, to any graph, moves it
    star = StarSchema(dataset=schema.dataset, epoch=sum(
        member.epoch for member in (dataset.default, *dataset.graphs())))
    dimension_rows = 0

    for dimension in schema.dimensions:
        bottom = schema.bottom_level(dimension.iri)
        table = _extract_dimension(graph, schema, dimension.iri, bottom)
        star.dimensions[dimension.iri] = table
        dimension_rows += sum(
            len(members) for members in table.level_members.values())

    for measure in schema.measures:
        star.measure_aggregates[measure.iri] = measure.sparql_aggregate()

    _extract_facts(graph, schema, star)
    elapsed = time.perf_counter() - started
    return star, ETLReport(seconds=elapsed, facts=star.facts.size,
                           dimension_rows=dimension_rows)


# ---------------------------------------------------------------------------
# the columnar kernel: number terms by value, locate ids, settle ties
# ---------------------------------------------------------------------------


def _locator(ids: np.ndarray, numbers: np.ndarray) -> Locate:
    """From an id to the number its term was given: ``numbers[i]``
    for ``ids[i]`` (distinct), ``-1`` for any other id.  Dense ids — at
    most :data:`~repro.grouping.DIRECTORY_FILL` slots each — index a
    directory, an empty slot either side catching what the gather
    clips; sparse ones (observations interleaved with much else in the
    dictionary) are searched, their span never allocated."""
    count = len(ids)
    low = int(ids.min()) - 1 if count else 0
    span = int(ids.max()) - low if count else 0
    if span <= DIRECTORY_FILL * count:
        slots = np.full(span + 2, -1, dtype=np.int64)
        slots[np.subtract(ids, low, dtype=np.int64)] = numbers
        return lambda keys: slots.take(
            np.subtract(keys, low, dtype=np.int64), mode="clip")
    order = np.argsort(ids, kind="stable")
    # one past the end answers -1 too
    ordered, numbered = ids[order], np.append(numbers[order], -1)

    def search(keys: np.ndarray) -> np.ndarray:
        at = np.searchsorted(ordered, keys)
        at[ordered.take(at, mode="clip") != keys] = count
        return numbered[at]
    return search


def _by_value(graph: UnionView, predicate: IRI, obj: Term
              ) -> Tuple[np.ndarray, np.ndarray, Locate]:
    """The subjects of ``(?, predicate, obj)`` — a dataset's
    observations, a level's members — numbered **by term value**, so
    neither insertion nor id order shows in a fact table: ``(ids,
    order, locate)``, where ``ids[order[k]]`` is number ``k`` and
    ``locate`` finds the numbers by id.  The dictionary's value ranks
    order them; nothing is decoded."""
    lookup = graph.dictionary.lookup
    predicate_id, object_id = lookup(predicate), lookup(obj)
    if predicate_id is None or object_id is None:
        ids = np.empty(0, dtype=np.int64)
    else:
        ids = graph.match_arrays((None, predicate_id, object_id))[0]
    # a triple reaches the view once: distinct ids, so distinct ranks
    order = np.argsort(graph.dictionary.value_ranks(ids))
    numbers = np.empty(len(ids), dtype=np.int64)
    numbers[order] = np.arange(len(ids))
    return ids, order, _locator(ids, numbers)


def _assigned(rows: np.ndarray, codes: np.ndarray, count: int,
              terms: Sequence[Term]) -> np.ndarray:
    """One code for each of ``count`` rows out of ``(row, code)``
    pairs: ``-1`` for a row no pair names, and for a row several name
    the code of the minimum :func:`deterministic_key` term
    (``terms[code]``) — what the reference extractor picks.  Ties are
    settled only where they exist: every pair's position is scattered
    to its row and read back, and if each reads its own the rows are
    distinct — the codes are one more scatter, nothing is ranked."""
    out = np.full(count, -1, dtype=np.int64)
    at = np.arange(len(rows))
    out[rows] = at
    if not (out[rows] == at).all():
        keys = [deterministic_key(term) for term in terms]
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[sorted(range(len(keys)), key=keys.__getitem__)] = \
            np.arange(len(keys))
        # each row's minimum over a second key, not a grouping by both
        # repro: allow[single-grouping-kernel]
        order = np.lexsort((ranks[codes], rows))
        ordered = rows[order]
        heads = order[np.append(True, ordered[1:] != ordered[:-1])]
        rows, codes = rows[heads], codes[heads]
    out[rows] = codes
    return out


def _pairs(graph: UnionView, predicate: IRI, row_of: Locate
           ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, objects)`` of the ``predicate`` triples whose subject
    ``row_of`` locates: one read, one gather."""
    predicate_id = graph.dictionary.lookup(predicate)
    if predicate_id is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    subjects, _, objects = graph.match_arrays((None, predicate_id, None))
    rows = row_of(subjects)
    kept = rows >= 0
    # a property only these rows carry is taken as it stands, uncopied
    return (rows, objects) if kept.all() else (rows[kept], objects[kept])


def _member_codes(graph: UnionView, predicate: IRI, row_of: Locate,
                  count: int, code_of: Locate, members: Sequence[Term]
                  ) -> np.ndarray:
    """Per row the code of its ``predicate`` value among ``members``
    (``code_of`` locates them); a value that is no member counts for
    nothing."""
    rows, objects = _pairs(graph, predicate, row_of)
    codes = code_of(objects)
    kept = codes >= 0
    if not kept.all():
        rows, codes = rows[kept], codes[kept]
    return _assigned(rows, codes, count, members)


def _value_codes(graph: UnionView, predicate: IRI, row_of: Locate,
                 count: int) -> Tuple[List[Term], np.ndarray]:
    """``(terms, codes)``: the distinct ``predicate`` values of the
    located rows, decoded once each, and per row the index of its
    value among them."""
    rows, objects = _pairs(graph, predicate, row_of)
    ids, codes = distinct(objects)
    terms = list(map(graph.dictionary.decode, ids.tolist()))
    return terms, _assigned(rows, codes, count, terms)


def _level(graph: UnionView, level: IRI) -> Tuple[List[Term], Locate]:
    """The members of ``level`` in code order, and their ids' codes."""
    ids, order, code_of = _by_value(graph, qb4o.memberOf, level)
    return list(map(graph.dictionary.decode, ids[order].tolist())), code_of


def _extract_dimension(graph: UnionView, schema: CubeSchema,
                       dimension_iri: IRI, bottom: IRI) -> DimensionTable:
    bottom_members, bottom_code = _level(graph, bottom)
    table = DimensionTable(
        dimension=dimension_iri,
        bottom_level=bottom,
        bottom_members=bottom_members,
    )
    _attach_attributes(graph, schema, table, bottom, bottom_members,
                       bottom_code)

    dimension = schema.require_dimension(dimension_iri)
    for hierarchy in dimension.hierarchies:
        # walk every level reachable from the bottom, composing maps
        reachable = [level for level in hierarchy.levels if level != bottom]
        for level in reachable:
            path = hierarchy.path_up(bottom, level)
            if path is None:
                continue
            members, code_of, ancestor = _compose_rollups(
                graph, bottom_members, bottom_code, path)
            table.level_members[level] = members
            table.ancestor_maps[level] = ancestor
            _attach_attributes(graph, schema, table, level, members, code_of)
    return table


def _compose_rollups(graph: UnionView, members: List[Term], code_of: Locate,
                     path: List[IRI]
                     ) -> Tuple[List[Term], Locate, np.ndarray]:
    """Compose skos:broader hops along ``path`` into one bottom→top
    map; also the top level's members and their ids' codes."""
    current_map = np.arange(len(members), dtype=np.int64)
    for parent_level in path[1:]:
        parents, parent_code = _level(graph, parent_level)
        # a member with several eligible broader targets rolls up to
        # the smallest by deterministic_key — never hash order
        hop = _member_codes(graph, SKOS.broader, code_of, len(members),
                            parent_code, parents)
        # compose: bottom → current → parent (-1 reads the -1 appended)
        current_map = np.append(hop, -1)[current_map]
        members, code_of = parents, parent_code
    return members, code_of, current_map


def _attach_attributes(graph: UnionView, schema: CubeSchema,
                       table: DimensionTable, level: IRI,
                       members: List[Term], code_of: Locate) -> None:
    attributes = schema.attributes_of(level)
    if not attributes:
        return
    per_level = table.attributes.setdefault(level, {})
    for attribute in attributes:
        terms, codes = _value_codes(graph, attribute, code_of, len(members))
        held = np.flatnonzero(codes >= 0)
        per_level[attribute] = dict(zip(
            map(members.__getitem__, held.tolist()),
            map(terms.__getitem__, codes[held].tolist())))


def _measure_value(term: Term) -> float:
    """The float payload of a measure term; NaN when it has none."""
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, bool):
            return float(value)
        if not isinstance(value, str):
            try:
                return float(value)
            except (TypeError, ValueError):
                return float("nan")
    return float("nan")


def _extract_facts(graph: UnionView, schema: CubeSchema,
                   star: StarSchema) -> None:
    lookup = graph.dictionary.lookup
    # fact rows: this dataset's observations, ordered by term value
    observations, _, row_of = _by_value(graph, qb.dataSet, schema.dataset)
    n = len(observations)

    coordinate_arrays: Dict[IRI, np.ndarray] = {}
    for iri in sorted(star.dimensions, key=str):
        members = star.dimensions[iri].bottom_members
        code_of = _locator(
            np.asarray([lookup(member) for member in members],
                       dtype=np.int64), np.arange(len(members)))
        coordinate_arrays[iri] = _member_codes(
            graph, schema.bottom_level(iri), row_of, n, code_of, members)

    measure_arrays: Dict[IRI, np.ndarray] = {}
    for measure in schema.measures:
        terms, codes = _value_codes(graph, measure.iri, row_of, n)
        # one NaN past the payloads: where a row's -1 reads
        floats = np.asarray([_measure_value(term) for term in terms]
                            + [np.nan], dtype=np.float64)
        measure_arrays[measure.iri] = floats[codes]

    star.facts = FactTable(coordinates=coordinate_arrays,
                           measures=measure_arrays)
