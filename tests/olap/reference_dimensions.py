"""The per-member dimension walks: the oracle of the ETL's dimension
tables.

This is the member-at-a-time code ``repro.olap.etl`` shipped until the
dimension walks joined the columnar kernel: ``graph.subjects`` per
level, ``graph.objects(member, …)`` per member for ``skos:broader`` and
for every attribute, minimum :func:`~repro.olap.etl.deterministic_key`
among several.  ``tests/olap/test_etl_vectorized.py`` requires the
production tables to equal these.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.olap.etl import deterministic_key
from repro.olap.star import DimensionTable
from repro.qb4olap import vocabulary as qb4o
from repro.rdf.namespace import SKOS
from repro.rdf.terms import Term


def reference_dimension(graph, schema, dimension_iri, bottom
                        ) -> DimensionTable:
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


def _compose_rollups(graph, table, path) -> Tuple[List[Term], np.ndarray]:
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
            targets = [target for target
                       in graph.objects(member, SKOS.broader)
                       if target in parent_index]
            if targets:
                hop[code] = parent_index[min(targets,
                                             key=deterministic_key)]
        composed = np.full_like(current_map, -1)
        valid = current_map >= 0
        composed[valid] = hop[current_map[valid]]
        current_map = composed
        current_members = parent_members
    return current_members, current_map


def _attach_attributes(graph, schema, table, level, members) -> None:
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
