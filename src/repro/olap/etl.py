"""ETL: extract a QB4OLAP cube from RDF into the star schema.

The "first approach" of the paper's introduction: "extracting MD data
from the Web, and loading them into traditional DWs for OLAP analysis"
(ref. [2]).  The extraction walks the same QB4OLAP metadata QL uses —
so the two engines answer from identical information — then
dictionary-encodes facts into numpy arrays.

The fact extractor never touches observations one at a time: each
bottom property / measure is one ``match_arrays`` read of the
dataset's union view, joined to fact rows and member codes with
``np.searchsorted`` over sorted id arrays.  This is the ETL analogue
of the evaluator's columnar scan path, and what makes the E9
baseline's "pay ETL once" price honest at scale.  (The
per-observation extractor it replaced is the test oracle now:
``tests/olap/reference_etl.py``.)

Extraction is **deterministic**: when an observation carries several
values for one dimension or measure property, the extractor keeps the
*minimum term by sorted key* (:func:`deterministic_key`) instead of
whatever a set yields first, and roll-up composition picks the
smallest eligible ``skos:broader`` target the same way — so two ETL
runs over the same data produce byte-identical fact tables.

Missing values follow the SPARQL path's join semantics: a fact without
a usable value carries ``-1`` (dimension code) or ``NaN`` (measure),
and the engine drops such rows for any query touching that column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.rdf.graph import UnionView
from repro.rdf.namespace import SKOS
from repro.rdf.terms import IRI, Literal, Term
from repro.sparql.endpoint import LocalEndpoint
from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import CubeSchema
from repro.olap.star import DimensionTable, FactTable, StarSchema


@dataclass
class ETLReport:
    """Cost accounting for the extraction (the price the baseline pays)."""

    seconds: float
    facts: int
    dimension_rows: int
    #: SPARQL plan-cache misses observed while materializing.  The
    #: member-at-a-time walks underneath share parameterized plans, so
    #: this should stay near the number of distinct query *shapes*, not
    #: the number of members (see docs/performance.md).
    plan_cache_misses: int = 0


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
    from repro.sparql.optimizer import PLAN_CACHE
    misses_before = PLAN_CACHE.misses
    started = time.perf_counter()
    graph = endpoint.dataset.union()
    star = StarSchema(dataset=schema.dataset,
                      epoch=max((g.epoch for g in endpoint.dataset.graphs()),
                                default=0))
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
                           dimension_rows=dimension_rows,
                           plan_cache_misses=PLAN_CACHE.misses
                           - misses_before)


def _extract_dimension(graph: UnionView, schema: CubeSchema,
                       dimension_iri: IRI, bottom: IRI) -> DimensionTable:
    bottom_members = sorted(
        graph.subjects(qb4o.memberOf, bottom),
        key=lambda t: getattr(t, "value", str(t)))
    table = DimensionTable(
        dimension=dimension_iri,
        bottom_level=bottom,
        bottom_members=list(bottom_members),
    )
    _attach_attributes(graph, schema, table, bottom, bottom_members)

    dimension = schema.require_dimension(dimension_iri)
    for hierarchy in dimension.hierarchies:
        # walk every level reachable from the bottom, composing maps
        reachable = [level for level in hierarchy.levels if level != bottom]
        for level in reachable:
            path = hierarchy.path_up(bottom, level)
            if path is None:
                continue
            members, ancestor = _compose_rollups(graph, table, path)
            table.level_members[level] = members
            table.ancestor_maps[level] = ancestor
            _attach_attributes(graph, schema, table, level, members)
    return table


def _compose_rollups(graph: UnionView, table: DimensionTable,
                     path: List[IRI]) -> Tuple[List[Term], np.ndarray]:
    """Compose skos:broader hops along ``path`` into one bottom→top map."""
    current_members = table.bottom_members
    current_map = np.arange(len(current_members), dtype=np.int64)
    for child_level, parent_level in zip(path, path[1:]):
        parent_members = sorted(
            graph.subjects(qb4o.memberOf, parent_level),
            key=lambda t: getattr(t, "value", str(t)))
        parent_index = {member: code for code, member
                        in enumerate(parent_members)}
        hop = np.full(len(current_members), -1, dtype=np.int64)
        for code, member in enumerate(current_members):
            # a member with several eligible broader targets rolls up
            # to the smallest by deterministic_key — never hash order
            targets = [target for target
                       in graph.objects(member, SKOS.broader)
                       if target in parent_index]
            if targets:
                hop[code] = parent_index[min(targets,
                                             key=deterministic_key)]
        # compose: bottom → current → parent
        composed = np.full_like(current_map, -1)
        valid = current_map >= 0
        composed[valid] = hop[current_map[valid]]
        current_map = composed
        current_members = parent_members
    return current_members, current_map


def _attach_attributes(graph: UnionView, schema: CubeSchema,
                       table: DimensionTable, level: IRI,
                       members: List[Term]) -> None:
    attributes = schema.attributes_of(level)
    if not attributes:
        return
    per_level = table.attributes.setdefault(level, {})
    for attribute in attributes:
        values: Dict[Term, Term] = {}
        for member in members:
            candidates = list(graph.objects(member, attribute))
            if candidates:
                values[member] = min(candidates, key=deterministic_key)
        per_level[attribute] = values


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


# ---------------------------------------------------------------------------
# columnar fact extractor
# ---------------------------------------------------------------------------


def _gather_pairs(graph: UnionView, predicate: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(subject, object)`` id pairs carrying ``predicate``."""
    subjects, _, objects = graph.match_arrays((None, predicate, None))
    return (subjects.astype(np.int64, copy=False),
            objects.astype(np.int64, copy=False))


def _rows_for(subjects: np.ndarray, obs_sorted: np.ndarray,
              obs_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Join subject ids to fact row numbers (searchsorted membership).

    Returns ``(keep_mask, rows)``: which gathered pairs belong to this
    dataset's observations, and the fact row of each kept pair.
    """
    positions = np.searchsorted(obs_sorted, subjects)
    positions_clipped = np.minimum(positions, len(obs_sorted) - 1)
    keep = obs_sorted[positions_clipped] == subjects
    return keep, obs_rows[positions_clipped[keep]]


def _first_per_row(rows: np.ndarray, rank: np.ndarray,
                   n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pick, per fact row, the candidate with the smallest ``rank``.

    The vectorized multi-value tie-break: sorting by ``(row, rank)``
    and keeping each row's first entry selects exactly the minimum
    deterministic-key term the reference extractor picks.
    """
    # each row's minimum over a second key, not a grouping by both
    # repro: allow[single-grouping-kernel]
    order = np.lexsort((rank, rows))
    sorted_rows = rows[order]
    firsts = np.ones(len(sorted_rows), dtype=bool)
    firsts[1:] = sorted_rows[1:] != sorted_rows[:-1]
    return sorted_rows[firsts], order[firsts]


def _extract_facts(graph: UnionView, schema: CubeSchema,
                   star: StarSchema) -> None:
    dictionary = graph.dictionary
    lookup = dictionary.lookup
    decode = dictionary.decode
    dimension_order = sorted(star.dimensions, key=lambda iri: iri.value)
    bottoms = {iri: schema.bottom_level(iri) for iri in dimension_order}

    # -- fact rows: observations of this dataset, sorted by term value
    dataset_id = lookup(schema.dataset)
    predicate_id = lookup(qb.dataSet)
    if dataset_id is None or predicate_id is None:
        obs_ids = np.empty(0, dtype=np.int64)
    else:
        pairs_s, pairs_o = _gather_pairs(graph, predicate_id)
        obs_ids = np.unique(pairs_s[pairs_o == dataset_id])
    observations = [decode(int(obs)) for obs in obs_ids]
    row_order = sorted(range(len(observations)),
                       key=lambda i: getattr(observations[i], "value",
                                             str(observations[i])))
    n = len(obs_ids)
    # obs_sorted is sorted by *id* for searchsorted joins; obs_rows maps
    # each sorted position back to the value-ordered fact row number
    obs_sorted = obs_ids  # np.unique output is already id-sorted
    rows_by_value = np.empty(n, dtype=np.int64)
    for row, index in enumerate(row_order):
        rows_by_value[index] = row
    obs_rows = rows_by_value

    coordinate_arrays: Dict[IRI, np.ndarray] = {}
    for iri in dimension_order:
        codes = np.full(n, -1, dtype=np.int64)
        bottom_prop = lookup(bottoms[iri])
        table = star.dimensions[iri]
        if bottom_prop is not None and n and table.bottom_members:
            subjects, objects = _gather_pairs(graph, bottom_prop)
            keep, rows = _rows_for(subjects, obs_sorted, obs_rows)
            objects = objects[keep]
            # member id → bottom code: members are value-sorted, so the
            # smallest code *is* the minimum deterministic-key member
            member_ids = np.asarray(
                [lookup(member) for member in table.bottom_members],
                dtype=np.int64)
            member_sort = np.argsort(member_ids, kind="stable")
            members_sorted = member_ids[member_sort]
            codes_sorted = np.arange(len(member_ids),
                                     dtype=np.int64)[member_sort]
            positions = np.searchsorted(members_sorted, objects)
            positions = np.minimum(positions, len(members_sorted) - 1)
            matched = members_sorted[positions] == objects
            rows, objects = rows[matched], objects[matched]
            member_codes = codes_sorted[positions[matched]]
            if len(rows):
                unique_rows, picks = _first_per_row(rows, member_codes, n)
                codes[unique_rows] = member_codes[picks]
        coordinate_arrays[iri] = codes

    measure_arrays: Dict[IRI, np.ndarray] = {}
    for measure in schema.measures:
        values = np.full(n, np.nan, dtype=np.float64)
        measure_prop = lookup(measure.iri)
        if measure_prop is not None and n:
            subjects, objects = _gather_pairs(graph, measure_prop)
            keep, rows = _rows_for(subjects, obs_sorted, obs_rows)
            objects = objects[keep]
            if len(rows):
                # decode each distinct literal once: its float payload
                # and its deterministic-key rank for multi-value picks
                unique_ids, inverse = np.unique(objects,
                                                return_inverse=True)
                terms = [decode(int(vid)) for vid in unique_ids]
                floats = np.asarray([_measure_value(term)
                                     for term in terms], dtype=np.float64)
                key_order = sorted(range(len(terms)),
                                   key=lambda i: deterministic_key(terms[i]))
                ranks = np.empty(len(terms), dtype=np.int64)
                for rank, index in enumerate(key_order):
                    ranks[index] = rank
                unique_rows, picks = _first_per_row(rows, ranks[inverse], n)
                values[unique_rows] = floats[inverse[picks]]
        measure_arrays[measure.iri] = values

    star.facts = FactTable(coordinates=coordinate_arrays,
                           measures=measure_arrays)
