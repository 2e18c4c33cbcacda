"""TriG 1.1 serialization (named-graph datasets).

The QB2OLAP endpoint keeps its state in four named graphs (original QB
observations, linked reference data, generated schema, generated level
instances).  TriG is the W3C syntax for exactly that shape — Turtle
plus graph blocks — so one document can snapshot an entire endpoint
(``LocalEndpoint.dump_trig``) and restore it (``load_trig``, which
reads through the SPARQL parser's triples grammar).

Serialization is deterministic like the Turtle serializer: shared
prefix header, default graph first, named graphs sorted by IRI, each
in a ``GRAPH <label> { ... }`` block — the form INSERT DATA reads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.rdf.graph import Dataset, Graph
from repro.rdf.turtle import _collect_used_prefixes, serialize_turtle


def _graph_body(graph: Graph, indent: str = "") -> List[str]:
    """The Turtle body of one graph, without the prefix header."""
    text = serialize_turtle(graph)
    lines = [line for line in text.splitlines()
             if not line.startswith("@prefix")]
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    return [indent + line if line.strip() else ""
            for line in lines]


def serialize_trig(dataset: Dataset) -> str:
    """Serialize a dataset as deterministic TriG."""
    graphs = sorted(
        (graph for graph in dataset.graphs() if len(graph)),
        key=lambda g: g.identifier.value)

    prefixes: Dict[str, str] = {}
    for graph in [dataset.default, *graphs]:
        for prefix, namespace in _collect_used_prefixes(graph):
            prefixes[prefix] = namespace
    # graph labels may use prefixes no triple mentions
    manager = dataset.namespace_manager
    for graph in graphs:
        compact = manager.compact(graph.identifier)
        if compact is not None:
            prefix = compact.partition(":")[0]
            namespace = manager.namespace_for(prefix)
            if namespace is not None:
                prefixes[prefix] = namespace

    lines: List[str] = []
    for prefix, namespace in sorted(prefixes.items()):
        lines.append(f"@prefix {prefix}: <{namespace}> .")
    if lines:
        lines.append("")

    if len(dataset.default):
        lines.extend(_graph_body(dataset.default))
        lines.append("")

    for graph in graphs:
        manager = dataset.namespace_manager
        compact = manager.compact(graph.identifier)
        label = compact if compact is not None else graph.identifier.n3()
        lines.append(f"GRAPH {label} {{")
        lines.extend(_graph_body(graph, indent="    "))
        lines.append("}")
        lines.append("")
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")
