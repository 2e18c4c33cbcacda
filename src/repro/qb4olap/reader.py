"""Read a QB4OLAP graph into a :class:`~repro.qb4olap.model.CubeSchema`.

The reader inspects the enriched schema triples that the Enrichment
module generated (or that any QB4OLAP publisher asserted) and rebuilds
the in-memory cube model used by Exploration and Querying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, BNode, Term
from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
    SchemaError,
)


def _iri_objects(graph: Graph, subject: Term, predicate: IRI) -> List[IRI]:
    return sorted(
        (o for o in graph.objects(subject, predicate) if isinstance(o, IRI)),
        key=lambda iri: iri.value)


def _node_key(node: Term) -> Tuple[int, str]:
    """IRIs by value, then blank nodes by label."""
    return (0, node.value) if isinstance(node, IRI) else (1, node.label)


def read_cube_schema(graph: Graph, dataset: IRI,
                     dsd: Optional[IRI] = None) -> CubeSchema:
    """Build the cube schema for ``dataset`` from ``graph``.

    ``dsd`` may be passed explicitly when the dataset lacks a
    ``qb:structure`` link (e.g. while enrichment is still in flight).
    """
    if dsd is None:
        value = graph.value(dataset, qb.structure, None)
        if not isinstance(value, IRI):
            raise SchemaError(f"data set {dataset} has no qb:structure")
        dsd = value

    schema = CubeSchema(dsd=dsd, dataset=dataset)

    # -- components: levels (with cardinality) and measures ------------------
    dsd_levels: List[IRI] = []
    for component in graph.objects(dsd, qb.component):
        level = graph.value(component, qb4o.level, None)
        if isinstance(level, IRI):
            dsd_levels.append(level)
            cardinality = graph.value(component, qb4o.cardinality, None)
            if isinstance(cardinality, IRI):
                schema.cardinalities[level] = cardinality
            continue
        measure = graph.value(component, qb.measure, None)
        if isinstance(measure, IRI):
            aggregate = graph.value(component, qb4o.aggregateFunction, None)
            if not isinstance(aggregate, IRI):
                aggregate = qb4o.SUM
            schema.measures.append(Measure(measure, aggregate))

    # -- dimensions reachable from the DSD levels ------------------------------
    # a hierarchy (an IRI or a blank node) holding a DSD level reaches its
    # dimension; the hierarchies of other cubes' dimensions are not read
    anchored: List[Tuple[IRI, List[IRI]]] = []
    for hierarchy_node in graph.subjects(RDF.type, qb4o.Hierarchy):
        dimension = graph.value(hierarchy_node, qb4o.inDimension, None)
        if isinstance(dimension, IRI):
            anchored.append((dimension, _iri_objects(
                graph, hierarchy_node, qb4o.hasLevel)))
    reached = {dimension for dimension, levels in anchored
               if not set(levels).isdisjoint(dsd_levels)}
    level_to_dimension: Dict[IRI, IRI] = {}
    for dimension, levels in anchored:
        if dimension in reached:
            for level in levels:
                level_to_dimension.setdefault(level, dimension)

    for dimension_iri in sorted(reached, key=lambda iri: iri.value):
        dimension = Dimension(dimension_iri)
        # hierarchies named by qb4o:hasHierarchy or asserting only
        # qb4o:inDimension, IRIs and blank nodes alike
        hierarchy_nodes = {
            node for node in (
                *graph.objects(dimension_iri, qb4o.hasHierarchy),
                *graph.subjects(qb4o.inDimension, dimension_iri))
            if isinstance(node, (IRI, BNode))}
        for hierarchy_iri in sorted(hierarchy_nodes, key=_node_key):
            hierarchy = Hierarchy(hierarchy_iri, dimension_iri)
            hierarchy.levels = _iri_objects(graph, hierarchy_iri, qb4o.hasLevel)
            for step_node in graph.subjects(qb4o.inHierarchy, hierarchy_iri):
                child = graph.value(step_node, qb4o.childLevel, None)
                parent = graph.value(step_node, qb4o.parentLevel, None)
                cardinality = graph.value(step_node, qb4o.pcCardinality, None)
                if isinstance(child, IRI) and isinstance(parent, IRI):
                    hierarchy.steps.append(HierarchyStep(
                        child, parent,
                        cardinality if isinstance(cardinality, IRI)
                        else qb4o.MANY_TO_ONE))
            hierarchy.steps.sort(key=lambda s: (s.child.value, s.parent.value))
            dimension.hierarchies.append(hierarchy)
        schema.dimensions.append(dimension)

    # -- DSD level → owning dimension ------------------------------------------
    for level in dsd_levels:
        dimension_iri = level_to_dimension.get(level)
        if dimension_iri is not None:
            schema.dimension_levels[dimension_iri] = level
        else:
            # degenerate dimension: the level participates in no hierarchy;
            # expose it as a single-level dimension named after the level.
            dimension = Dimension(level)
            hierarchy = Hierarchy(
                IRI(level.value + "/implicitHier"), level, [level], [])
            dimension.hierarchies.append(hierarchy)
            schema.dimensions.append(dimension)
            schema.dimension_levels[level] = level

    # -- level attributes ----------------------------------------------------------
    for level in set(level_to_dimension) | set(dsd_levels):
        attributes = _iri_objects(graph, level, qb4o.hasAttribute)
        if attributes:
            schema.level_attributes[level] = attributes

    schema.dimensions.sort(key=lambda d: d.iri.value)
    return schema
