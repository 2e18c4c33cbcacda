"""Turtle 1.1 serialization.

The serializer emits deterministic output: prefixes sorted, subjects
sorted, predicates sorted with ``rdf:type`` first — stable golden files.
Turtle is read by the SPARQL parser's triples grammar
(:func:`repro.sparql.parser.parse_document`, through
``LocalEndpoint.load_trig``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import (
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    term_sort_key,
)

#: per datatype, Turtle's INTEGER / DECIMAL / BooleanLiteral production:
#: a lexical form it matches is written bare and reads back as that type
_BARE = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+"),
    XSD_DECIMAL: re.compile(r"[+-]?[0-9]*\.[0-9]+"),
    XSD_BOOLEAN: re.compile(r"true|false"),
}


def _render_term(term: Term, graph: Graph) -> str:
    if isinstance(term, IRI):
        return graph.qname(term)
    if isinstance(term, Literal):
        bare = _BARE.get(term.datatype.value)
        if bare is not None and bare.fullmatch(term.lexical):
            return term.lexical
        if term.language is None and term.datatype.value != XSD_STRING:
            quoted = term.n3().rsplit("^^", 1)[0]
            return f"{quoted}^^{graph.qname(term.datatype)}"
        return term.n3()
    return term.n3()


def serialize_turtle(graph: Graph) -> str:
    """Serialize ``graph`` as deterministic, human-readable Turtle."""
    lines: List[str] = []
    used_prefixes = _collect_used_prefixes(graph)
    for prefix, namespace in used_prefixes:
        lines.append(f"@prefix {prefix}: <{namespace}> .")
    if used_prefixes:
        lines.append("")

    subjects = sorted(set(graph.subjects()), key=term_sort_key)
    for subject in subjects:
        properties = graph.subject_predicates(subject)
        predicate_keys = sorted(properties, key=lambda p: (
            0 if p == RDF.type else 1, term_sort_key(p)))
        subject_text = _render_term(subject, graph)
        parts: List[str] = []
        for predicate in predicate_keys:
            verb = "a" if predicate == RDF.type else _render_term(predicate, graph)
            objects = sorted(properties[predicate], key=term_sort_key)
            rendered = ", ".join(_render_term(o, graph) for o in objects)
            parts.append(f"{verb} {rendered}")
        if len(parts) == 1:
            lines.append(f"{subject_text} {parts[0]} .")
        else:
            lines.append(f"{subject_text} {parts[0]} ;")
            for part in parts[1:-1]:
                lines.append(f"    {part} ;")
            lines.append(f"    {parts[-1]} .")
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")


def _collect_used_prefixes(graph: Graph) -> List[Tuple[str, str]]:
    """Prefixes actually exercised by terms in the graph, sorted."""
    used: Dict[str, str] = {}
    manager = graph.namespace_manager

    def visit(term: Term) -> None:
        if isinstance(term, IRI):
            compact = manager.compact(term)
            if compact is not None:
                prefix = compact.partition(":")[0]
                namespace = manager.namespace_for(prefix)
                if namespace is not None:
                    used[prefix] = namespace
        elif isinstance(term, Literal):
            visit(term.datatype)

    for s, p, o in graph:
        visit(s)
        visit(p)
        visit(o)
    return sorted(used.items())
