"""Turtle 1.1 parsing and serialization (the fragment QB data uses).

Supported syntax — everything the paper's snippets, the W3C QB examples,
and our own serializer produce:

* ``@prefix`` / SPARQL-style ``PREFIX`` and ``@base`` / ``BASE``
* predicate lists (``;``), object lists (``,``), the ``a`` keyword
* IRIs, prefixed names, blank-node labels and anonymous ``[ ... ]``
  property lists, collections ``( ... )``
* string literals (short and long form), language tags, typed literals,
  bare integers / decimals / doubles / booleans
* comments (``#`` to end of line)

The serializer emits deterministic output: prefixes sorted, subjects
sorted, predicates sorted with ``rdf:type`` first — stable golden files.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.rdf.errors import ParseError
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.ntriples import unescape_string
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    term_sort_key,
)

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Shared with TriG, whose graph blocks add `{`, `}` and the GRAPH
# keyword; Turtle's grammar rejects them as unexpected tokens.
_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<LONG_STRING>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*''')
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<PREFIX_DECL>@prefix\b|@base\b)
  | (?P<LANGTAG>@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)
  | (?P<DOUBLE>[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+))
  | (?P<DECIMAL>[+-]?\d*\.\d+)
  | (?P<INTEGER>[+-]?\d+)
  | (?P<HATHAT>\^\^)
  | (?P<BNODE>_:[A-Za-z0-9][A-Za-z0-9_.\-]*)
  | (?P<PNAME>[A-Za-z][\w\-]*(?:\.[\w\-]+)*:[\w\-.%]*[\w\-%]|[A-Za-z][\w\-]*(?:\.[\w\-]+)*:|:[\w\-.%]*[\w\-%]|:)
  | (?P<KEYWORD>\ba\b|\btrue\b|\bfalse\b|\bPREFIX\b|\bBASE\b|\bprefix\b|\bbase\b|\bGRAPH\b|\bgraph\b)
  | (?P<PUNCT>[;,.\[\](){}])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.text!r}, line={self.line})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line)
        kind = match.lastgroup or ""
        chunk = match.group()
        line += chunk.count("\n")
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, chunk, line))
        pos = match.end()
    tokens.append(_Token("EOF", "", line))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _TurtleParser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str, graph: Graph) -> None:
        self.tokens = _tokenize(text)
        self.position = 0
        self.graph = graph
        self.base: Optional[str] = None
        self.prefixes: Dict[str, str] = {}
        self._bnode_map: Dict[str, BNode] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.position]

    def _next(self) -> _Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "PUNCT" or token.text != char:
            raise ParseError(
                f"expected {char!r}, got {token.text!r}", token.line)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> None:
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "PREFIX_DECL" or (
                    token.kind == "KEYWORD"
                    and token.text.lower() in ("prefix", "base")):
                self._directive()
            else:
                self._triples_block()

    def _directive(self) -> None:
        token = self._next()
        sparql_style = token.kind == "KEYWORD"
        which = token.text.lstrip("@").lower()
        if which == "prefix":
            name_token = self._next()
            if name_token.kind != "PNAME" or not name_token.text.endswith(":"):
                raise ParseError(
                    f"expected prefix name, got {name_token.text!r}",
                    name_token.line)
            prefix = name_token.text[:-1]
            iri_token = self._next()
            if iri_token.kind != "IRIREF":
                raise ParseError("expected IRI in @prefix", iri_token.line)
            namespace = self._resolve(iri_token.text[1:-1])
            self.prefixes[prefix] = namespace
            self.graph.namespace_manager.bind(prefix, namespace)
        elif which == "base":
            iri_token = self._next()
            if iri_token.kind != "IRIREF":
                raise ParseError("expected IRI in @base", iri_token.line)
            self.base = self._resolve(iri_token.text[1:-1])
        else:  # pragma: no cover - the tokenizer only admits prefix/base
            raise ParseError(f"unknown directive {token.text!r}", token.line)
        if not sparql_style:
            self._expect_punct(".")

    def _resolve(self, iri_text: str) -> str:
        """Resolve an IRI reference against the current @base."""
        if self.base and not re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*:", iri_text):
            if iri_text.startswith("#") or not iri_text:
                return self.base + iri_text
            return self.base.rsplit("/", 1)[0] + "/" + iri_text
        return iri_text

    def _triples_block(self) -> None:
        subject = self._subject()
        self._predicate_object_list(subject)
        self._expect_punct(".")

    def _subject(self) -> Term:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == "[":
            return self._blank_node_property_list()
        if token.kind == "PUNCT" and token.text == "(":
            return self._collection()
        term = self._term()
        if isinstance(term, Literal):
            raise ParseError("literal in subject position", token.line)
        return term

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            token = self._peek()
            if token.kind == "PUNCT" and token.text == ";":
                self._next()
                # allow trailing ';' before '.' or ']'
                after = self._peek()
                if after.kind == "PUNCT" and after.text in (".", "]"):
                    return
                continue
            return

    def _verb(self) -> IRI:
        token = self._peek()
        if token.kind == "KEYWORD" and token.text == "a":
            self._next()
            return RDF.type
        term = self._term()
        if not isinstance(term, IRI):
            raise ParseError(
                f"predicate must be an IRI, got {term!r}", token.line)
        return term

    def _object_list(self, subject: Term, predicate: IRI) -> None:
        while True:
            obj = self._object()
            self.graph.add(subject, predicate, obj)
            token = self._peek()
            if token.kind == "PUNCT" and token.text == ",":
                self._next()
                continue
            return

    def _object(self) -> Term:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == "[":
            return self._blank_node_property_list()
        if token.kind == "PUNCT" and token.text == "(":
            return self._collection()
        return self._term()

    def _blank_node_property_list(self) -> BNode:
        open_token = self._next()  # consume '['
        if open_token.text != "[":
            raise ParseError("expected '['", open_token.line)
        node = BNode()
        token = self._peek()
        if token.kind == "PUNCT" and token.text == "]":
            self._next()
            return node
        self._predicate_object_list(node)
        self._expect_punct("]")
        return node

    def _collection(self) -> Term:
        open_token = self._next()  # consume '('
        if open_token.text != "(":
            raise ParseError("expected '('", open_token.line)
        items: List[Term] = []
        while True:
            token = self._peek()
            if token.kind == "PUNCT" and token.text == ")":
                self._next()
                break
            items.append(self._object())
        if not items:
            return RDF.nil
        head = BNode()
        current = head
        for index, item in enumerate(items):
            self.graph.add(current, RDF.first, item)
            if index == len(items) - 1:
                self.graph.add(current, RDF.rest, RDF.nil)
            else:
                nxt = BNode()
                self.graph.add(current, RDF.rest, nxt)
                current = nxt
        return head

    def _term(self) -> Term:
        token = self._next()
        if token.kind == "IRIREF":
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            prefix, _, local = token.text.partition(":")
            if prefix not in self.prefixes:
                raise ParseError(f"undefined prefix {prefix!r}", token.line)
            return IRI(self.prefixes[prefix] + local)
        if token.kind == "BNODE":
            label = token.text[2:]
            if label not in self._bnode_map:
                self._bnode_map[label] = BNode(label)
            return self._bnode_map[label]
        if token.kind in ("STRING", "LONG_STRING"):
            if token.kind == "LONG_STRING":
                lexical = unescape_string(token.text[3:-3], token.line)
            else:
                lexical = unescape_string(token.text[1:-1], token.line)
            nxt = self._peek()
            if nxt.kind == "LANGTAG":
                self._next()
                return Literal(lexical, language=nxt.text[1:])
            if nxt.kind == "HATHAT":
                self._next()
                dt_token = self._next()
                if dt_token.kind == "IRIREF":
                    datatype = self._resolve(dt_token.text[1:-1])
                elif dt_token.kind == "PNAME":
                    prefix, _, local = dt_token.text.partition(":")
                    if prefix not in self.prefixes:
                        raise ParseError(
                            f"undefined prefix {prefix!r}", dt_token.line)
                    datatype = self.prefixes[prefix] + local
                else:
                    raise ParseError("expected datatype IRI", dt_token.line)
                return Literal(lexical, datatype=datatype)
            return Literal(lexical, datatype=XSD_STRING)
        if token.kind == "INTEGER":
            return Literal(token.text, datatype=XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.text, datatype=XSD_DECIMAL)
        if token.kind == "DOUBLE":
            return Literal(token.text, datatype=XSD_DOUBLE)
        if token.kind == "KEYWORD" and token.text in ("true", "false"):
            return Literal(token.text, datatype=XSD_BOOLEAN)
        raise ParseError(f"unexpected token {token.text!r}", token.line)


def parse_turtle(text: str, graph: Optional[Graph] = None) -> Graph:
    """Parse Turtle ``text`` into ``graph`` (a new one by default)."""
    target = graph if graph is not None else Graph()
    _TurtleParser(text, target).parse()
    return target


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_NUMERIC_SHORTHAND = {XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN}


def _render_term(term: Term, graph: Graph) -> str:
    if isinstance(term, IRI):
        return graph.qname(term)
    if isinstance(term, Literal):
        if term.language is None and term.datatype.value in _NUMERIC_SHORTHAND:
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
