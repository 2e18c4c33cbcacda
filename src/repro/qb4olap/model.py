"""The QB4OLAP multidimensional schema model.

Python-side mirror of what a QB4OLAP graph asserts about a cube: the
dimension → hierarchy → level structure, hierarchy steps (roll-up
relationships with cardinalities), level attributes, and measures with
their aggregate functions.

The model is what the Exploration module navigates and what the QL
translator consults to turn ``ROLLUP(citizenshipDim → continent)`` into
SPARQL joins over ``skos:broader`` member links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.rdf.terms import BNode, IRI
from repro.qb4olap import vocabulary as qb4o


class SchemaError(Exception):
    """Raised for structurally impossible cube schemas."""


@dataclass(frozen=True)
class Level:
    """A dimension level (``qb4o:LevelProperty``)."""

    iri: IRI
    attributes: Tuple[IRI, ...] = ()

    def __str__(self) -> str:
        return self.iri.value


@dataclass(frozen=True)
class HierarchyStep:
    """A roll-up edge: child level → parent level with a cardinality."""

    child: IRI
    parent: IRI
    cardinality: IRI = qb4o.MANY_TO_ONE

    def __str__(self) -> str:
        return f"{self.child.local_name()} -> {self.parent.local_name()}"


@dataclass
class Hierarchy:
    """A hierarchy inside a dimension: levels plus roll-up steps.  A
    published hierarchy may be a blank node, read as its ``iri``."""

    iri: Union[IRI, BNode]
    dimension: IRI
    levels: List[IRI] = field(default_factory=list)
    steps: List[HierarchyStep] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The IRI's local name, or the blank node's ``_:label``."""
        if isinstance(self.iri, IRI):
            return self.iri.local_name()
        return self.iri.n3()

    def parents_of(self, level: IRI) -> List[IRI]:
        return [step.parent for step in self.steps if step.child == level]

    def children_of(self, level: IRI) -> List[IRI]:
        return [step.child for step in self.steps if step.parent == level]

    def bottom_levels(self) -> List[IRI]:
        """Levels that are nobody's parent within this hierarchy."""
        parents = {step.parent for step in self.steps}
        return [level for level in self.levels if level not in parents]

    def top_levels(self) -> List[IRI]:
        """Levels that are nobody's child within this hierarchy."""
        children = {step.child for step in self.steps}
        return [level for level in self.levels if level not in children]

    def levels_bottom_up(self) -> List[IRI]:
        """All levels ordered bottom → top (breadth-first over steps)."""
        bottoms = self.bottom_levels()
        if not bottoms:
            return list(self.levels)
        ordered: List[IRI] = []
        frontier = list(bottoms)
        seen: set = set()
        while frontier:
            level = frontier.pop(0)
            if level in seen:
                continue
            seen.add(level)
            ordered.append(level)
            frontier.extend(self.parents_of(level))
        return ordered

    def step_between(self, child: IRI, parent: IRI) -> Optional[HierarchyStep]:
        for step in self.steps:
            if step.child == child and step.parent == parent:
                return step
        return None

    def path_up(self, source: IRI, target: IRI) -> Optional[List[IRI]]:
        """The chain of levels from ``source`` up to ``target``.

        Returns ``[source, ..., target]`` following parent steps, or
        ``None`` when ``target`` is not an ancestor of ``source`` in
        this hierarchy.  BFS keeps the path shortest when a level has
        several parents.
        """
        if source == target:
            return [source]
        frontier: List[List[IRI]] = [[source]]
        visited: Set[IRI] = {source}
        while frontier:
            next_frontier: List[List[IRI]] = []
            for path in frontier:
                for parent in self.parents_of(path[-1]):
                    if parent in visited:
                        continue
                    candidate = path + [parent]
                    if parent == target:
                        return candidate
                    visited.add(parent)
                    next_frontier.append(candidate)
            frontier = next_frontier
        return None


@dataclass
class Dimension:
    """A dimension with its hierarchies."""

    iri: IRI
    hierarchies: List[Hierarchy] = field(default_factory=list)

    def levels(self) -> List[IRI]:
        seen: List[IRI] = []
        for hierarchy in self.hierarchies:
            for level in hierarchy.levels:
                if level not in seen:
                    seen.append(level)
        return seen

    def hierarchy(self, iri: IRI) -> Optional[Hierarchy]:
        for hierarchy in self.hierarchies:
            if hierarchy.iri == iri:
                return hierarchy
        return None

    def bottom_level(self) -> Optional[IRI]:
        """The dimension's finest level (shared bottom of hierarchies)."""
        candidates: List[IRI] = []
        for hierarchy in self.hierarchies:
            candidates.extend(hierarchy.bottom_levels())
        if not candidates:
            return None
        # all hierarchies of a QB4OLAP dimension share the bottom level
        return candidates[0]

    def find_path(self, source: IRI, target: IRI
                  ) -> Optional[Tuple[Hierarchy, List[IRI]]]:
        """The first hierarchy whose steps climb from source to target."""
        for hierarchy in self.hierarchies:
            path = hierarchy.path_up(source, target)
            if path is not None:
                return hierarchy, path
        return None


@dataclass(frozen=True)
class Measure:
    """A measure with its default aggregate function."""

    iri: IRI
    aggregate: IRI = qb4o.SUM

    def sparql_aggregate(self) -> str:
        keyword = qb4o.AGGREGATE_TO_SPARQL.get(self.aggregate)
        if keyword is None:
            raise SchemaError(
                f"measure {self.iri} has unknown aggregate {self.aggregate}")
        return keyword


@dataclass
class CubeSchema:
    """A full QB4OLAP cube: DSD + dimensions + measures.

    ``dimension_levels`` records which level of each dimension the DSD
    attaches observations to (the *bottom* level of each dimension).
    """

    dsd: IRI
    dataset: IRI
    dimensions: List[Dimension] = field(default_factory=list)
    measures: List[Measure] = field(default_factory=list)
    dimension_levels: Dict[IRI, IRI] = field(default_factory=dict)
    level_attributes: Dict[IRI, List[IRI]] = field(default_factory=dict)
    cardinalities: Dict[IRI, IRI] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------------

    def dimension(self, iri: IRI) -> Optional[Dimension]:
        for dimension in self.dimensions:
            if dimension.iri == iri:
                return dimension
        return None

    def require_dimension(self, iri: IRI) -> Dimension:
        dimension = self.dimension(iri)
        if dimension is None:
            raise SchemaError(f"unknown dimension {iri}")
        return dimension

    def measure(self, iri: IRI) -> Optional[Measure]:
        for measure in self.measures:
            if measure.iri == iri:
                return measure
        return None

    def dimension_of_level(self, level: IRI) -> Optional[Dimension]:
        for dimension in self.dimensions:
            if level in dimension.levels():
                return dimension
        return None

    def bottom_level(self, dimension_iri: IRI) -> IRI:
        level = self.dimension_levels.get(dimension_iri)
        if level is not None:
            return level
        dimension = self.require_dimension(dimension_iri)
        bottom = dimension.bottom_level()
        if bottom is None:
            raise SchemaError(f"dimension {dimension_iri} has no levels")
        return bottom

    def attributes_of(self, level: IRI) -> List[IRI]:
        return list(self.level_attributes.get(level, []))

    def all_levels(self) -> List[IRI]:
        seen: List[IRI] = []
        for dimension in self.dimensions:
            for level in dimension.levels():
                if level not in seen:
                    seen.append(level)
        return seen

    def rollup_path(self, dimension_iri: IRI, target_level: IRI
                    ) -> Tuple[Hierarchy, List[IRI]]:
        """Levels from the dimension's bottom level up to ``target_level``."""
        dimension = self.require_dimension(dimension_iri)
        bottom = self.bottom_level(dimension_iri)
        found = dimension.find_path(bottom, target_level)
        if found is None:
            raise SchemaError(
                f"no roll-up path from {bottom} to {target_level} "
                f"in dimension {dimension_iri}")
        return found

    def describe(self) -> str:
        """Multi-line human-readable summary (used by Exploration)."""
        lines = [f"Cube {self.dataset.value}", f"  DSD {self.dsd.value}"]
        for dimension in self.dimensions:
            lines.append(f"  Dimension {dimension.iri.local_name()}")
            for hierarchy in dimension.hierarchies:
                lines.append(f"    Hierarchy {hierarchy.name}")
                for step in hierarchy.steps:
                    lines.append(
                        f"      {step.child.local_name()} "
                        f"-> {step.parent.local_name()} "
                        f"[{step.cardinality.local_name()}]")
            for level in dimension.levels():
                attributes = self.attributes_of(level)
                if attributes:
                    names = ", ".join(a.local_name() for a in attributes)
                    lines.append(
                        f"    Level {level.local_name()} attrs: {names}")
        for measure in self.measures:
            lines.append(
                f"  Measure {measure.iri.local_name()} "
                f"[{measure.aggregate.local_name()}]")
        return "\n".join(lines)
