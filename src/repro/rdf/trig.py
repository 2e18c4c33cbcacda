"""TriG 1.1 parsing and serialization (named-graph datasets).

The QB2OLAP endpoint keeps its state in four named graphs (original QB
observations, linked reference data, generated schema, generated level
instances).  TriG is the W3C syntax for exactly that shape — Turtle
plus graph blocks — so one document can snapshot and restore an entire
endpoint:

>>> from repro.rdf.trig import parse_trig, serialize_trig
>>> dataset = parse_trig(open("endpoint.trig").read())   # doctest: +SKIP

Supported syntax mirrors the Turtle module plus:

* ``GRAPH <g> { ... }`` blocks (the keyword is optional per the
  grammar: ``<g> { ... }`` works too);
* ``{ ... }`` default-graph blocks and plain top-level triples;
* the trailing ``.`` inside a block is optional, as in the spec.

Serialization is deterministic like the Turtle serializer: shared
prefix header, default graph first, named graphs sorted by IRI.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rdf.errors import ParseError
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI
from repro.rdf.turtle import (
    _TurtleParser,
    _collect_used_prefixes,
    serialize_turtle,
)


class _TrigParser(_TurtleParser):
    """Extends the Turtle parser with graph blocks over a Dataset."""

    def __init__(self, text: str, dataset: Dataset) -> None:
        super().__init__(text, dataset.default)
        self.dataset = dataset

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> None:  # type: ignore[override]
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "PREFIX_DECL" or (
                    token.kind == "KEYWORD"
                    and token.text.lower() in ("prefix", "base")):
                self._directive()
            elif token.kind == "KEYWORD" and token.text.lower() == "graph":
                self._next()
                label = self._graph_label()
                self._wrapped_graph(label)
            elif token.kind == "PUNCT" and token.text == "{":
                self._wrapped_graph(None)
            elif token.kind in ("IRIREF", "PNAME"):
                term = self._term()
                if self._peek().kind == "PUNCT" \
                        and self._peek().text == "{":
                    if not isinstance(term, IRI):
                        raise ParseError("graph label must be an IRI",
                                         token.line)
                    self._wrapped_graph(term)
                else:
                    self._predicate_object_list(term)
                    self._expect_punct(".")
            else:
                self._triples_block()

    def _graph_label(self) -> IRI:
        token = self._peek()
        term = self._term()
        if not isinstance(term, IRI):
            raise ParseError(
                f"graph label must be an IRI, got {term!r}", token.line)
        return term

    def _wrapped_graph(self, label: Optional[IRI]) -> None:
        target = self.dataset.graph(label) if label is not None \
            else self.dataset.default
        previous = self.graph
        self.graph = target
        self._expect_punct("{")
        while True:
            token = self._peek()
            if token.kind == "PUNCT" and token.text == "}":
                self._next()
                break
            if token.kind == "EOF":
                raise ParseError("unterminated graph block", token.line)
            subject = self._subject()
            self._predicate_object_list(subject)
            nxt = self._peek()
            if nxt.kind == "PUNCT" and nxt.text == ".":
                self._next()
            elif not (nxt.kind == "PUNCT" and nxt.text == "}"):
                raise ParseError(
                    f"expected '.' or '}}', got {nxt.text!r}", nxt.line)
        self.graph = previous


def parse_trig(text: str, dataset: Optional[Dataset] = None) -> Dataset:
    """Parse TriG ``text`` into ``dataset`` (a new one by default)."""
    target = dataset if dataset is not None else Dataset()
    _TrigParser(text, target).parse()
    return target


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


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
        lines.append(f"{label} {{")
        lines.extend(_graph_body(graph, indent="    "))
        lines.append("}")
        lines.append("")
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")
