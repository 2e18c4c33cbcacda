"""The oracle of the QB4OLAP rows in ``repro.qb.constraints``: the
Python walker that validated cubes before those rows existed.

Two layers:

* :func:`validate_schema` — the cube model is internally consistent
  (hierarchies non-empty, steps stay inside their hierarchy, measures
  carry known aggregate functions, DSD levels exist, ...).
* :func:`validate_instances` — the member graph respects the schema:
  ManyToOne / OneToOne steps are functional (each child member has
  exactly one parent), with a per-step error rate checked against the
  quasi-FD tolerance, and every level has members.

Run it on ``read_cube_schema`` of the same triples the rows read
(``test_cube_constraints.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import SKOS
from repro.rdf.terms import IRI, Term
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import CubeSchema, HierarchyStep


@dataclass
class SchemaViolation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_schema(schema: CubeSchema) -> List[SchemaViolation]:
    """Run every schema-level QB4OLAP check; returns violations."""
    violations: List[SchemaViolation] = []
    if not schema.measures:
        violations.append(SchemaViolation(
            "Q4-MEASURE", "cube declares no measures"))
    for measure in schema.measures:
        if measure.aggregate not in qb4o.AGGREGATE_FUNCTIONS:
            violations.append(SchemaViolation(
                "Q4-AGG",
                f"measure {measure.iri} has unknown aggregate "
                f"{measure.aggregate}"))
    if not schema.dimensions:
        violations.append(SchemaViolation(
            "Q4-DIM", "cube declares no dimensions"))
    for dimension in schema.dimensions:
        if not dimension.hierarchies:
            violations.append(SchemaViolation(
                "Q4-HIER",
                f"dimension {dimension.iri} has no hierarchies"))
        for hierarchy in dimension.hierarchies:
            if not hierarchy.levels:
                violations.append(SchemaViolation(
                    "Q4-LEVELS",
                    f"hierarchy {hierarchy.iri} has no levels"))
            level_set = set(hierarchy.levels)
            for step in hierarchy.steps:
                if step.child not in level_set or step.parent not in level_set:
                    violations.append(SchemaViolation(
                        "Q4-STEP",
                        f"step {step} references levels outside "
                        f"hierarchy {hierarchy.iri}"))
                if step.cardinality not in qb4o.CARDINALITIES:
                    violations.append(SchemaViolation(
                        "Q4-CARD",
                        f"step {step} has unknown cardinality "
                        f"{step.cardinality}"))
                if step.child == step.parent:
                    violations.append(SchemaViolation(
                        "Q4-SELF", f"step {step} rolls a level to itself"))
            if _has_cycle(hierarchy.steps):
                violations.append(SchemaViolation(
                    "Q4-CYCLE",
                    f"hierarchy {hierarchy.iri} contains a roll-up cycle"))
    for dimension_iri, level in schema.dimension_levels.items():
        dimension = schema.dimension(dimension_iri)
        if dimension is not None and level not in dimension.levels():
            violations.append(SchemaViolation(
                "Q4-DSD-LEVEL",
                f"DSD attaches {dimension_iri} at level {level} which is "
                "not part of the dimension"))
    return violations


def _has_cycle(steps: List[HierarchyStep]) -> bool:
    graph: Dict[IRI, List[IRI]] = {}
    for step in steps:
        graph.setdefault(step.child, []).append(step.parent)
    visited: Set[IRI] = set()
    in_progress: Set[IRI] = set()

    def visit(node: IRI) -> bool:
        if node in in_progress:
            return True
        if node in visited:
            return False
        in_progress.add(node)
        for parent in graph.get(node, ()):
            if visit(parent):
                return True
        in_progress.discard(node)
        visited.add(node)
        return False

    return any(visit(node) for node in list(graph))


@dataclass
class InstanceReport:
    """Outcome of instance validation.

    ``step_error_rates`` maps (child level, parent level) → fraction of
    child members violating functionality (0 or >1 parents) — directly
    comparable to the quasi-FD threshold used during enrichment.
    """

    violations: List[SchemaViolation]
    members_per_level: Dict[IRI, int]
    step_error_rates: Dict[Tuple[IRI, IRI], float]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instances(graph: Graph, schema: CubeSchema,
                       functional_tolerance: float = 0.0) -> InstanceReport:
    """Check the level-member instance graph against ``schema``."""
    violations: List[SchemaViolation] = []
    members_per_level: Dict[IRI, int] = {}
    level_members: Dict[IRI, Set[Term]] = {}
    for level in schema.all_levels():
        members = set(graph.subjects(qb4o.memberOf, level))
        level_members[level] = members
        members_per_level[level] = len(members)
        if not members:
            violations.append(SchemaViolation(
                "Q4I-EMPTY", f"level {level} has no members"))

    step_error_rates: Dict[Tuple[IRI, IRI], float] = {}
    for dimension in schema.dimensions:
        for hierarchy in dimension.hierarchies:
            for step in hierarchy.steps:
                children = level_members.get(step.child, set())
                parents = level_members.get(step.parent, set())
                if not children:
                    continue
                bad = 0
                for child in children:
                    parent_links = [
                        o for o in graph.objects(child, SKOS.broader)
                        if o in parents]
                    if step.cardinality == qb4o.MANY_TO_ONE \
                            and len(parent_links) != 1:
                        bad += 1
                    elif step.cardinality == qb4o.ONE_TO_ONE \
                            and len(parent_links) != 1:
                        bad += 1
                rate = bad / len(children)
                step_error_rates[(step.child, step.parent)] = rate
                if rate > functional_tolerance:
                    violations.append(SchemaViolation(
                        "Q4I-FUNC",
                        f"step {step}: {bad}/{len(children)} members "
                        f"({rate:.1%}) violate {step.cardinality.local_name()}"))
    return InstanceReport(violations, members_per_level, step_error_rates)
