"""Graph renderings of the Exploration module's views.

The paper's Exploration front end draws the dimension-instance graph
with D3.js (Fig. 5: "Nodes represent level members (e.g., Syria) and
edges represent roll-up relationships") and the Enrichment GUI shows
the cube structure as a tree (Fig. 4).  Without a browser canvas, this
module renders the same information as **Graphviz DOT** documents —
`dot -Tsvg` regenerates the figures — plus compact text trees.

* :func:`instance_graph_dot` — the Fig. 5 member graph: one subgraph
  cluster per level, roll-up edges between members;
* :func:`schema_dot` — the Fig. 4 cube-structure view: dimensions →
  hierarchies → levels (+ attributes), with level-to-level roll-up
  arrows;
* :func:`hierarchy_text` — a plain tree of one dimension's levels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.rdf.terms import IRI, Term
from repro.qb4olap.model import CubeSchema
from repro.exploration.browser import InstanceBrowser


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(term: Term, taken: Dict[Term, str]) -> str:
    if term not in taken:
        taken[term] = f"n{len(taken)}"
    return taken[term]


def instance_graph_dot(browser: InstanceBrowser, dimension_iri: IRI,
                       max_members_per_level: Optional[int] = None) -> str:
    """The Fig. 5 view as DOT: level clusters + roll-up edges.

    ``max_members_per_level`` truncates big bottom levels for legible
    plots; edges to omitted members are dropped with a count note.
    """
    schema = browser.schema
    dimension = schema.require_dimension(dimension_iri)
    hierarchy = dimension.hierarchies[0]
    ordered = hierarchy.levels_bottom_up()

    ids: Dict[Term, str] = {}
    lines = [
        "digraph instances {",
        "  rankdir=BT;",
        '  node [shape=ellipse, fontsize=10];',
    ]
    included: Dict[IRI, List[Term]] = {}
    for position, level in enumerate(ordered):
        members = browser.members(level)
        shown = members
        if max_members_per_level is not None:
            shown = members[:max_members_per_level]
        included[level] = shown
        lines.append(f"  subgraph cluster_{position} {{")
        lines.append(f'    label="{_dot_escape(level.local_name())}";')
        lines.append("    style=dashed;")
        for member in shown:
            label = _dot_escape(browser.member_label(member))
            lines.append(f'    {_node_id(member, ids)} [label="{label}"];')
        omitted = len(members) - len(shown)
        if omitted > 0:
            lines.append(
                f'    omitted_{position} [label="… {omitted} more", '
                'shape=plaintext];')
        lines.append("  }")
    for child_level, parent_level in zip(ordered, ordered[1:]):
        visible_children = set(included[child_level])
        visible_parents = set(included[parent_level])
        for child, parent in browser.rollup_edges(child_level, parent_level):
            if child in visible_children and parent in visible_parents:
                lines.append(
                    f"  {_node_id(child, ids)} -> {_node_id(parent, ids)};")
    lines.append("}")
    return "\n".join(lines)


def schema_dot(schema: CubeSchema) -> str:
    """The Fig. 4 cube-structure tree as DOT (schema level, no members)."""
    lines = [
        "digraph schema {",
        "  rankdir=LR;",
        "  node [fontsize=10];",
        f'  cube [label="{_dot_escape(schema.dataset.local_name())}", '
        "shape=box3d];",
    ]
    counter = 0

    def fresh(label: str, shape: str) -> str:
        nonlocal counter
        counter += 1
        name = f"s{counter}"
        lines.append(f'  {name} [label="{_dot_escape(label)}", '
                     f'shape={shape}];')
        return name

    for dimension in schema.dimensions:
        dim_node = fresh(dimension.iri.local_name(), "box")
        lines.append(f"  cube -> {dim_node};")
        for hierarchy in dimension.hierarchies:
            hier_node = fresh(hierarchy.name, "folder")
            lines.append(f"  {dim_node} -> {hier_node};")
            level_nodes: Dict[IRI, str] = {}
            for level in hierarchy.levels:
                label = level.local_name()
                attributes = schema.attributes_of(level)
                if attributes:
                    label += "\\n[" + ", ".join(
                        a.local_name() for a in attributes) + "]"
                level_nodes[level] = fresh(label, "ellipse")
                lines.append(f"  {hier_node} -> {level_nodes[level]} "
                             "[style=dotted, arrowhead=none];")
            for step in hierarchy.steps:
                child = level_nodes.get(step.child)
                parent = level_nodes.get(step.parent)
                if child and parent:
                    lines.append(
                        f'  {child} -> {parent} [label="rolls up"];')
    for measure in schema.measures:
        node = fresh(
            f"{measure.iri.local_name()}\\n"
            f"({measure.aggregate.local_name()})", "note")
        lines.append(f"  cube -> {node} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def hierarchy_text(schema: CubeSchema, dimension_iri: IRI) -> str:
    """One dimension's hierarchy as an indented text tree."""
    dimension = schema.require_dimension(dimension_iri)
    lines = [dimension.iri.local_name()]
    for hierarchy in dimension.hierarchies:
        lines.append(f"└─ {hierarchy.name}")
        ordered = hierarchy.levels_bottom_up()
        for depth, level in enumerate(ordered):
            attributes = schema.attributes_of(level)
            suffix = ""
            if attributes:
                suffix = " [" + ", ".join(
                    a.local_name() for a in attributes) + "]"
            lines.append("   " * (depth + 1) + f"└─ {level.local_name()}"
                         + suffix)
    return "\n".join(lines)
