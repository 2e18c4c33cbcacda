"""The Query Translation Phase: QL → SPARQL (paper §III-B).

From a :class:`~repro.ql.simplifier.SimplifiedProgram` the translator
produces **two semantically equivalent SPARQL queries**:

* the **direct** translation — one flat query: roll-up navigation as
  ``skos:broader``/``qb4o:memberOf`` graph patterns, aggregation via
  ``GROUP BY``, attribute dices as ``FILTER``, measure dices as
  ``HAVING``;
* the **alternative (optimized)** translation — aggregation isolated in
  a sub-``SELECT`` with attribute filters pushed next to the patterns
  that bind them, and measure dices applied as plain ``FILTER`` over
  the sub-query's aggregated variables.  This is the variant "generated
  using optimization heuristics thought to deal with some of the
  typical limitations of SPARQL endpoints" — e.g. endpoints with weak
  or missing ``HAVING`` support (emulated by
  :class:`repro.sparql.endpoint.EndpointLimits.forbid_having`).

Mechanics of a ROLLUP, as in the paper: "ROLLUPs are implemented
navigating the roll-up relationships between members, guided by the
dimension hierarchy representation provided by the QB4OLAP metadata,
and aggregations are performed using GROUP BY clauses.  Since SLICE
removes dimensions, this requires measure values to be aggregated up"
— which falls out of simply omitting the sliced dimension from the
``GROUP BY``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro.rdf.terms import IRI, Literal, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
from repro.qb4olap.model import CubeSchema
from repro.ql.ast import (
    AttributePath,
    BooleanCondition,
    Comparison,
    DiceCondition,
    MeasureRef,
    NotCondition,
)
from repro.ql.checker import QLSemanticError
from repro.ql.simplifier import SimplifiedProgram


@dataclass
class DimensionBinding:
    """How one kept dimension appears in the generated query."""

    dimension: IRI
    bottom_level: IRI
    final_level: IRI
    levels: List[IRI]            # bottom .. final
    variables: List[str]         # SPARQL var name per level (no '?')

    @property
    def group_variable(self) -> str:
        return self.variables[-1]


@dataclass
class TranslationMetadata:
    """Query ↔ cube bookkeeping used to interpret the result table."""

    dimensions: List[DimensionBinding] = field(default_factory=list)
    #: measure IRI → output alias (without '?')
    measure_aliases: Dict[IRI, str] = field(default_factory=dict)
    #: measure IRI → SPARQL aggregate keyword
    measure_aggregates: Dict[IRI, str] = field(default_factory=dict)
    group_variables: List[str] = field(default_factory=list)


class Translation:
    """The two generated queries plus shared metadata.  A query text is
    rendered on first access and kept: a caller usually runs one."""

    def __init__(self, translator: "Translator") -> None:
        self._translator = translator
        self.metadata: TranslationMetadata = translator.metadata

    @cached_property
    def direct(self) -> str:
        return self._translator.direct_query()

    @cached_property
    def optimized(self) -> str:
        return self._translator.optimized_query()

    @property
    def direct_lines(self) -> int:
        return len([l for l in self.direct.splitlines() if l.strip()])

    @property
    def optimized_lines(self) -> int:
        return len([l for l in self.optimized.splitlines() if l.strip()])


_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _var_base(iri: IRI) -> str:
    name = iri.local_name()
    if name.endswith("Dim"):
        name = name[:-3]
    name = _NAME_RE.sub("_", name)
    if not name or not name[0].isalpha():
        name = "d_" + name
    return name


def _render_value(value: Union[Literal, IRI]) -> str:
    if isinstance(value, IRI):
        return f"<{value.value}>"
    datatype = value.datatype.value
    if datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE):
        return value.lexical
    if datatype == XSD_STRING:
        escaped = value.lexical.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return value.n3()


class Translator:
    """Translate one simplified QL program for a given cube schema."""

    def __init__(self, schema: CubeSchema,
                 program: SimplifiedProgram) -> None:
        self.schema = schema
        self.program = program
        if program.state is None:
            raise QLSemanticError("program must be simplified before "
                                  "translation (missing cube state)")
        self.state = program.state
        self.metadata = TranslationMetadata()
        self._attribute_vars: Dict[Tuple[str, IRI], str] = {}
        self._attribute_patterns: List[Tuple[str, IRI, str]] = []
        self._measure_vars: Dict[IRI, str] = {}
        self._build_bindings()
        self._attr_filters: List[str] = []
        self._having_filters: List[str] = []
        self._classify_dices()

    # -- setup -----------------------------------------------------------------

    def _build_bindings(self) -> None:
        for dimension_iri in sorted(self.state.levels,
                                    key=lambda i: i.value):
            final = self.state.levels[dimension_iri]
            bottom = self.schema.bottom_level(dimension_iri)
            if final == bottom:
                levels = [bottom]
            else:
                _, levels = self.schema.rollup_path(dimension_iri, final)
            base = _var_base(dimension_iri)
            variables = [f"{base}_{index}" for index in range(len(levels))]
            binding = DimensionBinding(
                dimension=dimension_iri,
                bottom_level=bottom,
                final_level=final,
                levels=levels,
                variables=variables,
            )
            self.metadata.dimensions.append(binding)
        self.metadata.group_variables = [
            binding.group_variable for binding in self.metadata.dimensions]
        for index, measure_iri in enumerate(self.state.measures):
            measure = self.schema.measure(measure_iri)
            if measure is None:
                raise QLSemanticError(f"unknown measure {measure_iri}")
            self._measure_vars[measure_iri] = f"m{index}"
            alias = _NAME_RE.sub("_", measure_iri.local_name())
            self.metadata.measure_aliases[measure_iri] = alias
            self.metadata.measure_aggregates[measure_iri] = \
                measure.sparql_aggregate()

    def _binding_for(self, dimension: IRI) -> DimensionBinding:
        for binding in self.metadata.dimensions:
            if binding.dimension == dimension:
                return binding
        raise QLSemanticError(f"dimension {dimension} not in result cube")

    def _attribute_var(self, path: AttributePath) -> str:
        binding = self._binding_for(path.dimension)
        key = (binding.group_variable, path.attribute)
        if key not in self._attribute_vars:
            var = f"att{len(self._attribute_vars)}"
            self._attribute_vars[key] = var
            self._attribute_patterns.append(
                (binding.group_variable, path.attribute, var))
        return self._attribute_vars[key]

    # -- dice classification -------------------------------------------------------

    def _classify_dices(self) -> None:
        for condition in self.program.dices:
            if condition.measure_refs():
                self._having_filters.append(
                    self._render_condition(condition, aggregated=True))
            else:
                self._attr_filters.append(
                    self._render_condition(condition, aggregated=False))

    def _render_condition(self, condition: DiceCondition,
                           aggregated: bool) -> str:
        if isinstance(condition, Comparison):
            if isinstance(condition.operand, MeasureRef):
                measure = condition.operand.measure
                if aggregated == "alias":  # outer filter over subquery alias
                    left = f"?{self.metadata.measure_aliases[measure]}"
                else:
                    keyword = self.metadata.measure_aggregates[measure]
                    left = f"{keyword}(?{self._measure_vars[measure]})"
            else:
                left = f"?{self._attribute_var(condition.operand)}"
            return f"{left} {condition.op} {_render_value(condition.value)}"
        if isinstance(condition, BooleanCondition):
            joiner = " && " if condition.op == "AND" else " || "
            rendered = joiner.join(
                self._render_condition(operand, aggregated)
                for operand in condition.operands)
            return f"({rendered})"
        if isinstance(condition, NotCondition):
            # the operand must be parenthesized: a bare comparison would
            # otherwise bind as (!operand) = value, since unary ! binds
            # tighter than comparison operators in SPARQL
            inner = self._render_condition(condition.operand, aggregated)
            return f"(!({inner}))"
        raise QLSemanticError(f"unknown dice condition {condition!r}")

    # -- query text -------------------------------------------------------------

    _CORE_PREFIXES = {
        "qb": "http://purl.org/linked-data/cube#",
        "qb4o": "http://purl.org/qb4olap/cubes#",
        "skos": "http://www.w3.org/2004/02/skos/core#",
    }

    def _finalize(self, lines: List[str]) -> str:
        """Compact full IRIs with the program's prefixes and prepend the
        PREFIX header — the same readable output the paper's tool shows."""
        text = "\n".join(lines)
        candidates = dict(self.program.prefixes)
        for prefix, namespace in self._CORE_PREFIXES.items():
            candidates.setdefault(prefix, namespace)
        used: Dict[str, str] = dict(self._CORE_PREFIXES)
        for prefix, namespace in sorted(candidates.items(),
                                        key=lambda kv: -len(kv[1])):
            pattern = re.compile(
                "<" + re.escape(namespace) + r"([A-Za-z][A-Za-z0-9_\-]*)>")

            def compact(match: "re.Match[str]", prefix=prefix,
                        namespace=namespace) -> str:
                used[prefix] = namespace
                return f"{prefix}:{match.group(1)}"

            text = pattern.sub(compact, text)
        header = [f"PREFIX {prefix}: <{namespace}>"
                  for prefix, namespace in sorted(used.items())]
        return "\n".join(header) + "\n" + text

    def _observation_patterns(self) -> List[str]:
        lines = [f"?o qb:dataSet <{self.program.cube.value}> ."]
        for binding in self.metadata.dimensions:
            lines.append(
                f"?o <{binding.bottom_level.value}> ?{binding.variables[0]} .")
            if len(binding.levels) > 1:
                # navigation is guided by the QB4OLAP metadata: assert the
                # bottom membership, then climb skos:broader hop by hop
                lines.append(
                    f"?{binding.variables[0]} qb4o:memberOf "
                    f"<{binding.bottom_level.value}> .")
            for index in range(1, len(binding.levels)):
                child_var = binding.variables[index - 1]
                parent_var = binding.variables[index]
                parent_level = binding.levels[index]
                lines.append(
                    f"?{child_var} skos:broader ?{parent_var} .")
                lines.append(
                    f"?{parent_var} qb4o:memberOf <{parent_level.value}> .")
        for measure_iri, var in self._measure_vars.items():
            lines.append(f"?o <{measure_iri.value}> ?{var} .")
        return lines

    def _attribute_pattern_lines(self) -> List[str]:
        return [
            f"?{member_var} <{attribute.value}> ?{var} ."
            for member_var, attribute, var in self._attribute_patterns
        ]

    def _aggregate_projection(self) -> List[str]:
        parts = []
        for measure_iri, var in self._measure_vars.items():
            keyword = self.metadata.measure_aggregates[measure_iri]
            alias = self.metadata.measure_aliases[measure_iri]
            parts.append(f"({keyword}(?{var}) AS ?{alias})")
        return parts

    def direct_query(self) -> str:
        """The flat translation: GROUP BY + FILTER + HAVING."""
        group_vars = [f"?{name}" for name in self.metadata.group_variables]
        select = group_vars + self._aggregate_projection()
        lines = [f"SELECT {' '.join(select)}"]
        lines.append("WHERE {")
        body = self._observation_patterns() + self._attribute_pattern_lines()
        lines.extend(f"  {line}" for line in body)
        for condition in self._attr_filters:
            lines.append(f"  FILTER({condition})")
        lines.append("}")
        # attribute vars referenced by measure-bearing (mixed) dices are
        # ungrouped — HAVING could not see them (unbound → every group
        # dropped); group by them too, which leaves the groups unchanged
        # because the attribute is a function of the group member
        mixed_attr_vars: List[str] = []
        for condition in self.program.dices:
            if condition.measure_refs():
                for path in condition.attribute_paths():
                    var = self._attribute_var(path)
                    if var not in mixed_attr_vars:
                        mixed_attr_vars.append(var)
        full_group = group_vars + [f"?{v}" for v in mixed_attr_vars]
        if full_group:
            lines.append(f"GROUP BY {' '.join(full_group)}")
        if self._having_filters:
            rendered = " ".join(f"({c})" for c in self._having_filters)
            lines.append(f"HAVING {rendered}")
        if group_vars:
            lines.append(f"ORDER BY {' '.join(group_vars)}")
        return self._finalize(lines)

    def optimized_query(self) -> str:
        """The alternative translation: sub-select + outer FILTERs."""
        group_vars = [f"?{name}" for name in self.metadata.group_variables]
        aliases = [f"?{self.metadata.measure_aliases[m]}"
                   for m in self._measure_vars]
        outer_select = group_vars + aliases
        lines = [f"SELECT {' '.join(outer_select)}"]
        lines.append("WHERE {")
        # attribute vars referenced by measure-bearing (mixed) dices must
        # survive the sub-select so the outer FILTER can see them; they
        # are functions of the group member, so grouping by them too
        # leaves the groups unchanged.
        mixed_attr_vars: List[str] = []
        for condition in self.program.dices:
            if condition.measure_refs():
                for path in condition.attribute_paths():
                    var = self._attribute_var(path)
                    if var not in mixed_attr_vars:
                        mixed_attr_vars.append(var)
        inner_group = group_vars + [f"?{v}" for v in mixed_attr_vars]
        inner_select = inner_group + self._aggregate_projection()
        lines.append(f"  {{ SELECT {' '.join(inner_select)}")
        lines.append("    WHERE {")

        # heuristic pattern order: dimension-member patterns constrained
        # by a dice first (they bind few members), then the observation
        # star, then the remaining navigation.
        constrained: List[str] = []
        seen_members = set()
        for member_var, attribute, var in self._attribute_patterns:
            binding = next(b for b in self.metadata.dimensions
                           if b.group_variable == member_var)
            if len(binding.levels) > 1:
                constrained.append(
                    f"?{member_var} qb4o:memberOf "
                    f"<{binding.final_level.value}> .")
            constrained.append(
                f"?{member_var} <{attribute.value}> ?{var} .")
            seen_members.add(member_var)
        inner = list(constrained)
        for condition in self._attr_filters:
            inner.append(f"FILTER({condition})")
        inner.extend(self._observation_patterns())
        lines.extend(f"      {line}" for line in inner)
        lines.append("    }")
        if inner_group:
            lines.append(f"    GROUP BY {' '.join(inner_group)}")
        lines.append("  }")
        for condition in self.program.dices:
            if condition.measure_refs():
                rendered = self._render_condition(condition,
                                                  aggregated="alias")
                lines.append(f"  FILTER({rendered})")
        lines.append("}")
        if group_vars:
            lines.append(f"ORDER BY {' '.join(group_vars)}")
        return self._finalize(lines)

    def translate(self) -> Translation:
        return Translation(self)


def translate(schema: CubeSchema, program: SimplifiedProgram) -> Translation:
    """Convenience wrapper: translate a simplified program."""
    return Translator(schema, program).translate()
