"""The interactive Enrichment workflow (paper Fig. 2).

:class:`EnrichmentSession` drives the three phases:

1. :meth:`redefine` — Redefinition Phase;
2. :meth:`suggestions` / :meth:`add_level` / :meth:`add_attribute` /
   :meth:`add_all_level` — the iterative Enrichment Phase ("the tasks
   are iteratively repeated until the user has added all desired levels
   and conformed the dimension hierarchies");
3. :meth:`generate` — Triple Generation Phase.

The "user" of the GUI is replaced by programmatic calls; the
:meth:`auto_enrich` convenience plays a scripted user that accepts the
top-ranked level candidate chain per dimension (used by examples,
benchmarks and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rdf.terms import IRI, Term
from repro.sparql.endpoint import LocalEndpoint
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import CubeSchema, HierarchyStep
from repro.data.namespaces import INSTANCE_GRAPH, SCHEMA_GRAPH
from repro.enrichment.config import EnrichmentConfig
from repro.enrichment.discovery import (
    ATTRIBUTE,
    Candidate,
    LEVEL,
    discover_candidates,
)
from repro.enrichment.generation import GenerationReport, generate
from repro.enrichment.hierarchy import (
    LevelState,
    StepState,
    attach_level,
    build_step_state,
    mint_level_iri,
)
from repro.enrichment.instances import (
    collect_bottom_members,
    collect_member_property_table,
)
from repro.enrichment.redefinition import redefine


class EnrichmentError(Exception):
    """Workflow misuse: wrong phase order, unknown levels, ..."""


@dataclass
class EnrichmentLogEntry:
    """One user-visible action taken during the session."""

    action: str
    detail: str


class EnrichmentSession:
    """Stateful enrichment of one QB data set."""

    def __init__(self, endpoint: LocalEndpoint, dataset: IRI, dsd: IRI,
                 config: Optional[EnrichmentConfig] = None,
                 dimension_names: Optional[Dict[IRI, str]] = None,
                 schema_graph: IRI = SCHEMA_GRAPH,
                 instance_graph: IRI = INSTANCE_GRAPH) -> None:
        self.endpoint = endpoint
        self.dataset = dataset
        self.dsd = dsd
        self.config = config or EnrichmentConfig()
        self.config.validate()
        self.dimension_names = dimension_names or {}
        self.schema_graph = schema_graph
        self.instance_graph = instance_graph

        self.schema: Optional[CubeSchema] = None
        self.levels: Dict[IRI, LevelState] = {}
        self.steps: List[StepState] = []
        self.log: List[EnrichmentLogEntry] = []
        #: structured record of accepted choices (enrichment scripts)
        self.actions: List = []
        self._candidate_cache: Dict[IRI, List[Candidate]] = {}
        self._external_endpoints: List[LocalEndpoint] = []

    # -- phase 1 -----------------------------------------------------------------

    def redefine(self) -> CubeSchema:
        """Run the Redefinition Phase and collect bottom-level members."""
        self.schema = redefine(self.endpoint, self.dataset, self.dsd,
                               self.config, self.dimension_names)
        for dimension in self.schema.dimensions:
            bottom = self.schema.dimension_levels[dimension.iri]
            members = collect_bottom_members(
                self.endpoint, self.dataset, bottom)
            self.levels[bottom] = LevelState(iri=bottom, members=members)
            self._log("redefine",
                      f"dimension {dimension.iri.local_name()} at level "
                      f"{bottom.local_name()} ({len(members)} members)")
        return self.schema

    # -- phase 2 -----------------------------------------------------------------

    def attach_external(self, endpoint: LocalEndpoint) -> None:
        """Register an external linked-data source (e.g. DBpedia stand-in).

        Member-property discovery will consult it in addition to the
        local endpoint; see :mod:`repro.enrichment.external` for triple
        import.
        """
        self._external_endpoints.append(endpoint)
        self._candidate_cache.clear()

    def suggestions(self, level: IRI,
                    refresh: bool = False) -> List[Candidate]:
        """Ranked candidates (levels + attributes) for ``level``."""
        self._require_schema()
        if level not in self.levels:
            raise EnrichmentError(f"unknown level {level}")
        if refresh or level not in self._candidate_cache:
            members = self.levels[level].members
            table = collect_member_property_table(self.endpoint, members)
            for external in self._external_endpoints:
                external_table = collect_member_property_table(
                    external, members)
                for prop, per_member in external_table.items():
                    merged = table.setdefault(prop, {})
                    for member, values in per_member.items():
                        existing = merged.setdefault(member, [])
                        for value in values:
                            if value not in existing:
                                existing.append(value)
            self._candidate_cache[level] = discover_candidates(
                table, len(members), self.config)
        return self._candidate_cache[level]

    def level_suggestions(self, level: IRI) -> List[Candidate]:
        return [c for c in self.suggestions(level) if c.kind == LEVEL]

    def attribute_suggestions(self, level: IRI) -> List[Candidate]:
        return [c for c in self.suggestions(level) if c.kind == ATTRIBUTE]

    def add_level(self, child_level: IRI, candidate: Candidate,
                  level_iri: Optional[IRI] = None) -> IRI:
        """Accept a level candidate: mint the level, update the hierarchy."""
        self._require_schema()
        if child_level not in self.levels:
            raise EnrichmentError(f"unknown level {child_level}")
        if candidate.kind != LEVEL:
            raise EnrichmentError(
                f"candidate {candidate.prop} is not a level candidate")
        new_level = level_iri
        if new_level is None:
            # conformed-level reuse: another dimension may already have
            # minted a level from the same discovered property
            for state in self.levels.values():
                if state.source_property == candidate.prop:
                    new_level = state.iri
                    break
        if new_level is None:
            new_level = mint_level_iri(
                self.config.schema_namespace, candidate.prop, self.levels)
        step, level_state = build_step_state(
            child_level, new_level, candidate.profile,
            self.config.multi_parent_policy)
        self.steps.append(step)
        existing = self.levels.get(new_level)
        if existing is not None:
            # shared (conformed) level: merge any new parent members
            known = set(existing.members)
            for member in level_state.members:
                if member not in known:
                    known.add(member)
                    existing.members.append(member)
            self._log("add_level",
                      f"{child_level.local_name()} -> "
                      f"{new_level.local_name()} (shared)")
            attach_level(self.schema, child_level, new_level,
                         step.cardinality)
            self._record("add_level", child_level, candidate.prop, new_level)
            return new_level
        self.levels[new_level] = level_state
        attach_level(self.schema, child_level, new_level, step.cardinality)
        self._log("add_level",
                  f"{child_level.local_name()} -> {new_level.local_name()} "
                  f"({len(level_state.members)} members, "
                  f"error={candidate.profile.fd_error:.2%})")
        self._record("add_level", child_level, candidate.prop, new_level)
        return new_level

    def add_attribute(self, level: IRI, candidate: Candidate) -> None:
        """Accept an attribute candidate for ``level``."""
        self._require_schema()
        if level not in self.levels:
            raise EnrichmentError(f"unknown level {level}")
        if candidate.kind != ATTRIBUTE:
            raise EnrichmentError(
                f"candidate {candidate.prop} is not an attribute candidate")
        state = self.levels[level]
        state.attributes[candidate.prop] = {
            member: list(values)
            for member, values in candidate.profile.values_by_member.items()
            if values
        }
        attrs = self.schema.level_attributes.setdefault(level, [])
        if candidate.prop not in attrs:
            attrs.append(candidate.prop)
        self._log("add_attribute",
                  f"{level.local_name()} += {candidate.prop.local_name()}")
        self._record("add_attribute", level, candidate.prop)

    def add_all_level(self, dimension_iri: IRI,
                      member_label: str = "all") -> IRI:
        """Add an explicit All top level (paper's ``schema:citAll``)."""
        self._require_schema()
        dimension = self.schema.require_dimension(dimension_iri)
        hierarchy = dimension.hierarchies[0]
        tops = hierarchy.top_levels()
        if not tops:
            raise EnrichmentError(
                f"hierarchy {hierarchy.iri} has no top level")
        top = tops[0]
        base = self.dimension_names.get(dimension_iri)
        name = dimension_iri.local_name()
        if name.endswith("Dim"):
            name = name[:-3]
        all_level = self.config.schema_namespace[f"{name}All"]
        all_member = self.config.schema_namespace[f"{name}All/{member_label}"]
        mapping = {member: [all_member]
                   for member in self.levels[top].members}
        step = StepState(child=top, parent=all_level, mapping=mapping,
                         cardinality=qb4o.MANY_TO_ONE)
        self.steps.append(step)
        self.levels[all_level] = LevelState(iri=all_level,
                                            members=[all_member])
        attach_level(self.schema, top, all_level, qb4o.MANY_TO_ONE)
        self._log("add_all_level",
                  f"{dimension_iri.local_name()}: {top.local_name()} -> "
                  f"{all_level.local_name()}")
        self._record("add_all_level", dimension_iri, None, all_level)
        return all_level

    # -- phase 3 -----------------------------------------------------------------

    def generate(self) -> GenerationReport:
        """Run the Triple Generation Phase against the endpoint."""
        self._require_schema()
        report = generate(
            self.endpoint, self.schema, self.levels, self.steps,
            schema_graph=self.schema_graph,
            instance_graph=self.instance_graph,
            config=self.config)
        self._log("generate",
                  f"schema={report.schema_triples} "
                  f"instances={report.instance_triples}")
        return report

    # -- scripted user --------------------------------------------------------------

    def auto_enrich(self,
                    max_depth: int = 3,
                    add_attributes: bool = True,
                    add_all_levels: bool = False,
                    prefer: Optional[Sequence[str]] = None,
                    choose: Optional[Callable[[List[Candidate]],
                                              Optional[Candidate]]] = None
                    ) -> CubeSchema:
        """Play a scripted user: per dimension, repeatedly accept the
        best level candidate (up to ``max_depth`` new levels) and all
        attribute candidates.

        ``prefer`` simulates user preference by property local name
        (e.g. ``["continent", "quarter", "year"]`` makes Mary pick the
        geographic chain over the government-kind one).  ``choose``
        overrides the selection policy entirely; returning ``None``
        stops the chain for the current dimension.
        """
        self._require_schema()
        if choose is not None:
            pick = choose
        elif prefer is not None:
            preference = list(prefer)

            def pick(candidates: List[Candidate]) -> Optional[Candidate]:
                for name in preference:
                    for candidate in candidates:
                        if candidate.prop.local_name() == name:
                            return candidate
                return None

        else:
            pick = lambda candidates: candidates[0] if candidates else None
        for dimension in self.schema.dimensions:
            current = self.schema.dimension_levels[dimension.iri]
            for _ in range(max_depth):
                candidates = self.suggestions(current)
                if add_attributes:
                    for attribute in (c for c in candidates
                                      if c.kind == ATTRIBUTE):
                        self.add_attribute(current, attribute)
                level_options = [c for c in candidates if c.kind == LEVEL]
                chosen = pick(level_options)
                if chosen is None:
                    break
                current = self.add_level(current, chosen)
            else:
                # depth exhausted: still sweep attributes of the top level
                current_candidates = self.suggestions(current)
                if add_attributes:
                    for attribute in (c for c in current_candidates
                                      if c.kind == ATTRIBUTE):
                        self.add_attribute(current, attribute)
                if add_all_levels:
                    self.add_all_level(dimension.iri)
                continue
            # chain stopped before depth: attributes of the final level
            candidates = self.suggestions(current)
            if add_attributes:
                for attribute in (c for c in candidates
                                  if c.kind == ATTRIBUTE):
                    self.add_attribute(current, attribute)
            if add_all_levels:
                self.add_all_level(dimension.iri)
        return self.schema

    # -- helpers ------------------------------------------------------------------

    def _require_schema(self) -> None:
        if self.schema is None:
            raise EnrichmentError(
                "run redefine() before the Enrichment Phase")

    def _log(self, action: str, detail: str) -> None:
        self.log.append(EnrichmentLogEntry(action, detail))

    def _record(self, action: str, target: IRI, prop: Optional[IRI],
                minted: Optional[IRI] = None) -> None:
        from repro.enrichment.script import ScriptStep
        self.actions.append(ScriptStep(
            action=action,
            target=target.value,
            prop=prop.value if prop is not None else None,
            minted=minted.value if minted is not None else None))

    def export_script(self):
        """The session's accepted choices as a replayable
        :class:`~repro.enrichment.script.EnrichmentScript`."""
        from repro.enrichment.script import EnrichmentScript
        return EnrichmentScript.from_session(self)

    def describe(self) -> str:
        """The tree view the GUI shows (Fig. 4), as text."""
        self._require_schema()
        lines = [f"Cube {self.dataset.value}"]
        for dimension in self.schema.dimensions:
            lines.append(f"└─ {dimension.iri.local_name()}")
            for hierarchy in dimension.hierarchies:
                lines.append(f"   └─ {hierarchy.name}")
                ordered = _levels_bottom_up(hierarchy)
                for depth, level in enumerate(ordered):
                    state = self.levels.get(level)
                    count = len(state.members) if state else 0
                    attributes = self.schema.attributes_of(level)
                    suffix = f" ({count} members)"
                    if attributes:
                        names = ", ".join(a.local_name() for a in attributes)
                        suffix += f" [attrs: {names}]"
                    indent = "      " + "   " * depth
                    lines.append(f"{indent}└─ {level.local_name()}{suffix}")
        return "\n".join(lines)


def _levels_bottom_up(hierarchy) -> List[IRI]:
    """Hierarchy levels ordered bottom → top (following the steps)."""
    return hierarchy.levels_bottom_up()
