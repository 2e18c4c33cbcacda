"""Recursive-descent parser for the supported SPARQL 1.1 fragment.

Entry points:

* :func:`parse_query` — SELECT and ASK queries.
* :func:`parse_update` — INSERT DATA / DELETE DATA / CLEAR / CREATE /
  DROP / ``[WITH] DELETE/INSERT ... WHERE`` requests.
* :func:`parse_document` — an RDF document (Turtle, N-Triples, or TriG
  with ``GRAPH`` blocks), read with the same triples grammar as
  INSERT DATA's quad data.

The parser lowers directly into :mod:`repro.sparql.algebra` nodes and
:mod:`repro.sparql.expressions` trees; there is no separate AST stage.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.rdf.namespace import DEFAULT_PREFIXES, RDF
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
)
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Empty,
    Extend,
    Filter,
    GraphNode,
    Join,
    LeftJoin,
    Minus,
    PathPatternNode,
    PatternNode,
    PatternTerm,
    ProjectionItem,
    Query,
    SelectQuery,
    SubSelectNode,
    TriplePatternNode,
    Union as UnionNode,
    ValuesNode,
    Var,
)
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    Path,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)
from repro.sparql.errors import QuerySyntaxError
from repro.sparql.expressions import (
    AGGREGATE_NAMES,
    Aggregate,
    ArithmeticExpression,
    BooleanExpression,
    ComparisonExpression,
    ExistsExpression,
    Expression,
    FunctionExpression,
    InExpression,
    NotExpression,
    TermExpression,
    UnaryMinusExpression,
    VariableExpression,
)
from repro.sparql.tokenizer import Token, tokenize, unescape_string

_XSD_CAST_IRIS = {
    "http://www.w3.org/2001/XMLSchema#integer": "XSD:INTEGER",
    "http://www.w3.org/2001/XMLSchema#decimal": "XSD:DECIMAL",
    "http://www.w3.org/2001/XMLSchema#double": "XSD:DOUBLE",
    "http://www.w3.org/2001/XMLSchema#float": "XSD:FLOAT",
    "http://www.w3.org/2001/XMLSchema#string": "XSD:STRING",
    "http://www.w3.org/2001/XMLSchema#boolean": "XSD:BOOLEAN",
}

_BUILTIN_KEYWORDS = frozenset({
    "BOUND", "COALESCE", "IF", "SAMETERM", "ISIRI", "ISURI", "ISBLANK",
    "ISLITERAL", "ISNUMERIC", "STRLEN", "SUBSTR", "UCASE", "LCASE",
    "STRSTARTS", "STRENDS", "CONTAINS", "STRBEFORE", "STRAFTER", "CONCAT",
    "LANGMATCHES", "LANG", "DATATYPE", "IRI", "URI", "BNODE", "STRDT",
    "STRLANG", "STR", "REGEX", "REPLACE", "ABS", "ROUND", "CEIL", "FLOOR",
    "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS", "NOW",
})

_TERM_START_KINDS = frozenset({
    "VAR", "IRIREF", "PNAME", "BNODE", "STRING", "LONG_STRING",
    "INTEGER", "DECIMAL", "DOUBLE_NUM",
})


# ---------------------------------------------------------------------------
# Update operation descriptions (consumed by repro.sparql.endpoint)
# ---------------------------------------------------------------------------

Quad = Tuple[Optional[IRI], PatternTerm, PatternTerm, PatternTerm]


class UpdateOperation:
    """Base class for parsed update requests."""


class InsertDataOp(UpdateOperation):
    """INSERT DATA: ground quads to add."""
    def __init__(self, quads: Sequence[Quad]) -> None:
        self.quads = list(quads)


class DeleteDataOp(UpdateOperation):
    """DELETE DATA: ground quads to remove."""
    def __init__(self, quads: Sequence[Quad]) -> None:
        self.quads = list(quads)


class ClearOp(UpdateOperation):
    """CLEAR: empty a graph (or DEFAULT/NAMED/ALL)."""
    def __init__(self, target: Union[IRI, str], silent: bool = False) -> None:
        #: target is a graph IRI or one of "DEFAULT", "ALL", "NAMED"
        self.target = target
        self.silent = silent


class CreateOp(UpdateOperation):
    """CREATE GRAPH: declare a named graph."""
    def __init__(self, graph: IRI, silent: bool = False) -> None:
        self.graph = graph
        self.silent = silent


class DropOp(UpdateOperation):
    """DROP: remove a graph (or DEFAULT/NAMED/ALL)."""
    def __init__(self, target: Union[IRI, str], silent: bool = False) -> None:
        self.target = target
        self.silent = silent


class ModifyOp(UpdateOperation):
    """``[WITH <g>] [DELETE {...}] [INSERT {...}] WHERE {...}``."""

    def __init__(self,
                 delete_quads: Sequence[Quad],
                 insert_quads: Sequence[Quad],
                 pattern: PatternNode,
                 with_graph: Optional[IRI] = None) -> None:
        self.delete_quads = list(delete_quads)
        self.insert_quads = list(insert_quads)
        self.pattern = pattern
        self.with_graph = with_graph


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.position = 0
        self.prefixes: Dict[str, str] = {
            prefix: ns.base for prefix, ns in DEFAULT_PREFIXES.items()}
        self.base: Optional[str] = None
        self._bnode_vars: Dict[str, Var] = {}
        #: the blank node each ``_:`` variable of quad data stands for,
        #: fresh to this request
        self._bnodes: Dict[str, BNode] = {}
        #: inside a quad or CONSTRUCT template, where a predicate is an
        #: IRI or a variable, never a property path
        self._template = False
        #: inside quad data, which takes no variable: ``True`` where it
        #: takes blank nodes (INSERT DATA, a document), ``False`` where
        #: it takes none (DELETE DATA), ``None`` outside
        self._data: Optional[bool] = None
        self._fresh = itertools.count(1)

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.position + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> QuerySyntaxError:
        token = token or self.peek()
        return QuerySyntaxError(f"{message}, got {token.text!r}", token.line)

    def expect_punct(self, char: str) -> Token:
        token = self.next()
        if not token.is_punct(char):
            raise self.error(f"expected {char!r}", token)
        return token

    def expect_keyword(self, *names: str) -> Token:
        token = self.next()
        if not token.is_keyword(*names):
            raise self.error(f"expected {'/'.join(names)}", token)
        return token

    def accept_punct(self, char: str) -> bool:
        if self.peek().is_punct(char):
            self.next()
            return True
        return False

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.next()
            return True
        return False

    # -- prologue -------------------------------------------------------------

    def parse_prologue(self, turtle: bool = False) -> None:
        """``PREFIX`` / ``BASE`` declarations; with ``turtle`` also the
        ``@prefix … .`` / ``@base … .`` forms (lexed as language tags)."""
        while True:
            token = self.peek()
            if token.is_keyword("PREFIX", "BASE"):
                which = token.upper
            elif turtle and token.text in ("@prefix", "@base"):
                which = token.text[1:].upper()
            else:
                return
            self.next()
            name_token = self.next() if which == "PREFIX" else None
            if name_token is not None and (
                    name_token.kind != "PNAME"
                    or not name_token.text.endswith(":")):
                raise self.error("expected prefix name", name_token)
            iri_token = self.next()
            if iri_token.kind != "IRIREF":
                raise self.error(f"expected IRI after {which}", iri_token)
            iri = self._resolve(iri_token.text[1:-1])
            if name_token is not None:
                self.prefixes[name_token.text[:-1]] = iri
            else:
                self.base = iri
            if token.kind == "LANGTAG":
                self.expect_punct(".")

    def _resolve(self, iri: str) -> str:
        """Resolve an IRI reference against the ``BASE`` in force."""
        if self.base is None or re.match(r"[A-Za-z][A-Za-z0-9+.\-]*:", iri):
            return iri
        if not iri or iri.startswith("#"):
            return self.base + iri
        return self.base.rsplit("/", 1)[0] + "/" + iri

    # -- terms -----------------------------------------------------------------

    def _expand_pname(self, text: str, token: Token) -> IRI:
        prefix, _, local = text.partition(":")
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            raise QuerySyntaxError(
                f"undefined prefix {prefix!r}", token.line)
        return IRI(namespace + local)

    def parse_iri(self) -> IRI:
        token = self.next()
        if token.kind == "IRIREF":
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            return self._expand_pname(token.text, token)
        raise self.error("expected an IRI", token)

    def _string_token_value(self, token: Token) -> str:
        quotes = 3 if token.kind == "LONG_STRING" else 1
        try:
            return unescape_string(token.text[quotes:-quotes])
        except ValueError as error:
            raise QuerySyntaxError(str(error), token.line) from None

    def parse_literal(self) -> Literal:
        token = self.next()
        if token.kind in ("STRING", "LONG_STRING"):
            lexical = self._string_token_value(token)
            nxt = self.peek()
            if nxt.kind == "LANGTAG":
                self.next()
                return Literal(lexical, language=nxt.text[1:])
            if nxt.kind == "HATHAT":
                self.next()
                datatype = self.parse_iri()
                return Literal(lexical, datatype=datatype)
            return Literal(lexical, datatype=XSD_STRING)
        if token.kind == "INTEGER":
            return Literal(token.text, datatype=XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.text, datatype=XSD_DECIMAL)
        if token.kind == "DOUBLE_NUM":
            return Literal(token.text, datatype=XSD_DOUBLE)
        if token.is_keyword("TRUE", "FALSE"):
            return Literal(token.upper.lower(), datatype=XSD_BOOLEAN)
        raise self.error("expected a literal", token)

    def fresh_var(self) -> Var:
        # '#' starts no blank-node label: `_:anon1` in the text stays
        # its own node
        return Var(f"_:#{next(self._fresh)}")

    def parse_pattern_term(self, allow_literal: bool = True) -> PatternTerm:
        """A var, IRI, literal or blank-node label in a pattern position."""
        token = self.peek()
        if token.kind == "VAR":
            self.next()
            self._data_term(token, blank=False)
            return Var(token.text[1:])
        if token.kind in ("IRIREF", "PNAME"):
            return self.parse_iri()
        if token.kind == "BNODE":
            self.next()
            self._data_term(token, blank=True)
            label = token.text[2:]
            if label not in self._bnode_vars:
                self._bnode_vars[label] = Var(f"_:{label}")
            return self._bnode_vars[label]
        if allow_literal and (token.kind in (
                "STRING", "LONG_STRING", "INTEGER", "DECIMAL", "DOUBLE_NUM")
                or token.is_keyword("TRUE", "FALSE")):
            return self.parse_literal()
        raise self.error("expected a term", token)

    # -- queries ----------------------------------------------------------------

    def parse_query(self) -> Query:
        self.parse_prologue()
        token = self.peek()
        if token.is_keyword("SELECT"):
            query = self.parse_select(top_level=True)
        elif token.is_keyword("ASK"):
            query = self.parse_ask()
        elif token.is_keyword("CONSTRUCT"):
            query = self.parse_construct()
        elif token.is_keyword("DESCRIBE"):
            query = self.parse_describe()
        else:
            raise self.error(
                "expected SELECT, ASK, CONSTRUCT or DESCRIBE", token)
        if not self.peek().kind == "EOF":
            raise self.error("trailing content after query")
        return query

    def parse_construct(self) -> "ConstructQuery":
        from repro.sparql.algebra import ConstructQuery
        self.expect_keyword("CONSTRUCT")
        template: Optional[List[TriplePatternNode]] = None
        if self.peek().is_punct("{"):
            template = self._parse_construct_template()
        from_graphs, from_named = self._parse_dataset_clauses()
        self.accept_keyword("WHERE")
        pattern = self.parse_group_graph_pattern()
        if template is None:
            # CONSTRUCT WHERE { bgp } short form: template is the pattern,
            # which must be a plain BGP
            if not isinstance(pattern, BGP) or any(
                    isinstance(p, PathPatternNode) for p in pattern.patterns):
                raise self.error(
                    "CONSTRUCT WHERE requires a plain basic graph pattern")
            template = [p for p in pattern.patterns]
        limit: Optional[int] = None
        offset = 0
        while True:
            if self.peek().is_keyword("LIMIT"):
                self.next()
                token = self.next()
                if token.kind != "INTEGER":
                    raise self.error("expected integer after LIMIT", token)
                limit = int(token.text)
            elif self.peek().is_keyword("OFFSET"):
                self.next()
                token = self.next()
                if token.kind != "INTEGER":
                    raise self.error("expected integer after OFFSET", token)
                offset = int(token.text)
            else:
                break
        return ConstructQuery(template, pattern, dict(self.prefixes),
                              from_graphs, limit, offset, from_named)

    def _parse_construct_template(self) -> List[TriplePatternNode]:
        self.expect_punct("{")
        self._template = True
        patterns: List = []
        while not self.accept_punct("}"):
            patterns.extend(self._parse_triples_block())
            self.accept_punct(".")
        self._template = False
        return patterns

    def parse_describe(self) -> "DescribeQuery":
        from repro.sparql.algebra import DescribeQuery
        self.expect_keyword("DESCRIBE")
        star = False
        resources: List[IRI] = []
        variables: List[str] = []
        if self.peek().is_op("*"):
            self.next()
            star = True
        else:
            while True:
                token = self.peek()
                if token.kind == "VAR":
                    self.next()
                    variables.append(token.text[1:])
                elif token.kind in ("IRIREF", "PNAME"):
                    resources.append(self.parse_iri())
                else:
                    break
            if not resources and not variables:
                raise self.error("DESCRIBE needs resources, variables or *")
        from_graphs, from_named = self._parse_dataset_clauses()
        pattern: Optional[PatternNode] = None
        if self.peek().is_keyword("WHERE") or self.peek().is_punct("{"):
            self.accept_keyword("WHERE")
            pattern = self.parse_group_graph_pattern()
        return DescribeQuery(resources, variables, pattern, star,
                             dict(self.prefixes), from_graphs, from_named)

    def _parse_dataset_clauses(self) -> Tuple[List[IRI], List[IRI]]:
        from_graphs: List[IRI] = []
        from_named: List[IRI] = []
        while self.peek().is_keyword("FROM"):
            self.next()
            if self.accept_keyword("NAMED"):
                from_named.append(self.parse_iri())
            else:
                from_graphs.append(self.parse_iri())
        return from_graphs, from_named

    def parse_ask(self) -> AskQuery:
        self.expect_keyword("ASK")
        from_graphs, from_named = self._parse_dataset_clauses()
        self.accept_keyword("WHERE")
        pattern = self.parse_group_graph_pattern()
        return AskQuery(pattern, dict(self.prefixes),
                        from_graphs, from_named)

    def parse_select(self, top_level: bool = False) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = False
        reduced = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("REDUCED"):
            reduced = True
        projection = self._parse_projection()
        from_graphs, from_named = self._parse_dataset_clauses()
        self.accept_keyword("WHERE")
        pattern = self.parse_group_graph_pattern()
        (group_by, group_aliases, having, order_by, limit,
         offset) = self._parse_solution_modifiers()
        return SelectQuery(
            projection=projection,
            pattern=pattern,
            distinct=distinct,
            reduced=reduced,
            group_by=group_by,
            group_aliases=group_aliases,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            prefixes=dict(self.prefixes),
            from_graphs=from_graphs,
            from_named=from_named,
        )

    def _parse_projection(self) -> Optional[List[ProjectionItem]]:
        if self.peek().is_op("*"):
            self.next()
            return None
        items: List[ProjectionItem] = []
        while True:
            token = self.peek()
            if token.kind == "VAR":
                self.next()
                items.append(ProjectionItem(variable=token.text[1:]))
            elif token.is_punct("("):
                self.next()
                expression = self.parse_expression()
                self.expect_keyword("AS")
                var_token = self.next()
                if var_token.kind != "VAR":
                    raise self.error("expected variable after AS", var_token)
                self.expect_punct(")")
                items.append(ProjectionItem(
                    expression=expression, alias=var_token.text[1:]))
            else:
                break
        if not items:
            raise self.error("empty SELECT clause")
        return items

    def _parse_solution_modifiers(self):
        group_by: List[Expression] = []
        group_aliases: Dict[int, str] = {}
        having: List[Expression] = []
        order_by: List[Tuple[Expression, bool]] = []
        limit: Optional[int] = None
        offset = 0
        if self.peek().is_keyword("GROUP"):
            self.next()
            self.expect_keyword("BY")
            while True:
                token = self.peek()
                if token.kind == "VAR":
                    self.next()
                    group_by.append(VariableExpression(token.text[1:]))
                elif token.is_punct("("):
                    self.next()
                    expression = self.parse_expression()
                    if self.accept_keyword("AS"):
                        var_token = self.next()
                        if var_token.kind != "VAR":
                            raise self.error(
                                "expected variable after AS", var_token)
                        group_aliases[len(group_by)] = var_token.text[1:]
                    self.expect_punct(")")
                    group_by.append(expression)
                elif token.kind == "KEYWORD" and token.upper in _BUILTIN_KEYWORDS:
                    group_by.append(self._parse_builtin_call())
                else:
                    break
            if not group_by:
                raise self.error("empty GROUP BY")
        if self.peek().is_keyword("HAVING"):
            self.next()
            while self.peek().is_punct("(") or (
                    self.peek().kind == "KEYWORD"
                    and self.peek().upper in _BUILTIN_KEYWORDS | AGGREGATE_NAMES):
                having.append(self._parse_constraint())
            if not having:
                raise self.error("empty HAVING")
        if self.peek().is_keyword("ORDER"):
            self.next()
            self.expect_keyword("BY")
            while True:
                token = self.peek()
                ascending = True
                if token.is_keyword("ASC", "DESC"):
                    self.next()
                    ascending = token.upper == "ASC"
                    self.expect_punct("(")
                    expression = self.parse_expression()
                    self.expect_punct(")")
                    order_by.append((expression, ascending))
                    continue
                if token.kind == "VAR":
                    self.next()
                    order_by.append(
                        (VariableExpression(token.text[1:]), True))
                    continue
                if token.is_punct("("):
                    self.next()
                    expression = self.parse_expression()
                    self.expect_punct(")")
                    order_by.append((expression, True))
                    continue
                if token.kind == "KEYWORD" and token.upper in _BUILTIN_KEYWORDS:
                    order_by.append((self._parse_builtin_call(), True))
                    continue
                break
            if not order_by:
                raise self.error("empty ORDER BY")
        while True:
            if self.peek().is_keyword("LIMIT"):
                self.next()
                token = self.next()
                if token.kind != "INTEGER":
                    raise self.error("expected integer after LIMIT", token)
                limit = int(token.text)
            elif self.peek().is_keyword("OFFSET"):
                self.next()
                token = self.next()
                if token.kind != "INTEGER":
                    raise self.error("expected integer after OFFSET", token)
                offset = int(token.text)
            else:
                break
        return group_by, group_aliases, having, order_by, limit, offset

    # -- group graph patterns -----------------------------------------------------

    def parse_group_graph_pattern(self) -> PatternNode:
        self.expect_punct("{")
        if self.peek().is_keyword("SELECT"):
            subquery = self.parse_select()
            self.expect_punct("}")
            return SubSelectNode(subquery)
        current: Optional[PatternNode] = None
        filters: List[Expression] = []

        def join_with(new: PatternNode) -> None:
            nonlocal current
            if current is None:
                current = new
            elif isinstance(current, BGP) and isinstance(new, BGP):
                current = BGP(current.patterns + new.patterns)
            else:
                current = Join(current, new)

        while True:
            token = self.peek()
            if token.is_punct("}"):
                self.next()
                break
            if token.kind == "EOF":
                raise self.error("unterminated group graph pattern")
            if token.is_keyword("OPTIONAL"):
                self.next()
                right = self.parse_group_graph_pattern()
                condition: Optional[Expression] = None
                if isinstance(right, Filter):
                    condition = right.condition
                    right = right.child
                current = LeftJoin(current or Empty(), right, condition)
            elif token.is_keyword("MINUS"):
                self.next()
                right = self.parse_group_graph_pattern()
                current = Minus(current or Empty(), right)
            elif token.is_keyword("FILTER"):
                self.next()
                filters.append(self._parse_constraint())
            elif token.is_keyword("BIND"):
                self.next()
                self.expect_punct("(")
                expression = self.parse_expression()
                self.expect_keyword("AS")
                var_token = self.next()
                if var_token.kind != "VAR":
                    raise self.error("expected variable after AS", var_token)
                self.expect_punct(")")
                current = Extend(
                    current or Empty(), var_token.text[1:], expression)
            elif token.is_keyword("VALUES"):
                self.next()
                join_with(self._parse_values())
            elif token.is_keyword("GRAPH"):
                self.next()
                name_token = self.peek()
                name: Union[IRI, Var]
                if name_token.kind == "VAR":
                    self.next()
                    name = Var(name_token.text[1:])
                else:
                    name = self.parse_iri()
                child = self.parse_group_graph_pattern()
                join_with(GraphNode(name, child))
            elif token.is_punct("{"):
                sub = self.parse_group_graph_pattern()
                while self.peek().is_keyword("UNION"):
                    self.next()
                    other = self.parse_group_graph_pattern()
                    sub = UnionNode(sub, other)
                join_with(sub)
            elif self._at_subject():
                patterns = self._parse_triples_block()
                join_with(BGP(patterns))
            else:
                raise self.error("unexpected token in group graph pattern")
            self.accept_punct(".")
        result: PatternNode = current if current is not None else Empty()
        for condition in filters:
            result = Filter(condition, result)
        return result

    def _parse_values(self) -> ValuesNode:
        token = self.peek()
        variables: List[str] = []
        if token.kind == "VAR":
            self.next()
            variables = [token.text[1:]]
            self.expect_punct("{")
            rows: List[List[Optional[Term]]] = []
            while not self.peek().is_punct("}"):
                if self.peek().is_keyword("UNDEF"):
                    self.next()
                    rows.append([None])
                else:
                    rows.append([self._parse_values_term()])
            self.next()  # consume }
            return ValuesNode(variables, rows)
        self.expect_punct("(")
        while self.peek().kind == "VAR":
            variables.append(self.next().text[1:])
        self.expect_punct(")")
        self.expect_punct("{")
        rows = []
        while self.peek().is_punct("("):
            self.next()
            row: List[Optional[Term]] = []
            while not self.peek().is_punct(")"):
                if self.peek().is_keyword("UNDEF"):
                    self.next()
                    row.append(None)
                else:
                    row.append(self._parse_values_term())
            self.next()  # consume )
            if len(row) != len(variables):
                raise self.error("VALUES row arity mismatch")
            rows.append(row)
        self.expect_punct("}")
        return ValuesNode(variables, rows)

    def _parse_values_term(self) -> Term:
        token = self.peek()
        if token.kind in ("IRIREF", "PNAME"):
            return self.parse_iri()
        return self.parse_literal()

    # -- triples block ---------------------------------------------------------

    def _parse_triples_block(self) -> List:
        patterns: List = []
        while True:
            # a ``[ … ]`` or ``( … )`` subject may stand alone
            bare = not self.peek().is_punct("[", "(")
            subject = self._parse_node_with_properties(patterns,
                                                       as_subject=True)
            if bare or self._at_verb():
                self._parse_predicate_object_list(subject, patterns)
            if not self.accept_punct(".") or not self._at_subject():
                return patterns

    def _at_subject(self) -> bool:
        token = self.peek()
        return (token.kind in _TERM_START_KINDS or token.is_punct("[", "(")
                or token.is_keyword("TRUE", "FALSE"))

    def _at_verb(self) -> bool:
        token = self.peek()
        return (token.kind in ("VAR", "IRIREF", "PNAME")
                or token.is_keyword("A")
                or token.is_op("^", "!")
                or token.is_punct("("))

    def _parse_verb(self) -> Union[PatternTerm, Path]:
        """A predicate: a variable, a plain IRI, or a property path."""
        token = self.peek()
        if token.kind == "VAR":
            self.next()
            self._data_term(token, blank=False)
            return Var(token.text[1:])
        path = self._parse_path()
        if isinstance(path, LinkPath):
            return path.iri
        if self._template:
            raise self.error("property paths are not allowed in templates")
        return path

    # -- property paths --------------------------------------------------------

    def _parse_path(self) -> Path:
        """PathAlternative per the SPARQL 1.1 grammar (section 9)."""
        first = self._parse_path_sequence()
        if not self.peek().is_op("|"):
            return first
        choices = [first]
        while self.peek().is_op("|"):
            self.next()
            choices.append(self._parse_path_sequence())
        return AlternativePath(choices)

    def _parse_path_sequence(self) -> Path:
        first = self._parse_path_elt_or_inverse()
        if not self.peek().is_op("/"):
            return first
        steps = [first]
        while self.peek().is_op("/"):
            self.next()
            steps.append(self._parse_path_elt_or_inverse())
        return SequencePath(steps)

    def _parse_path_elt_or_inverse(self) -> Path:
        if self.peek().is_op("^"):
            self.next()
            return InversePath(self._parse_path_elt())
        return self._parse_path_elt()

    def _parse_path_elt(self) -> Path:
        primary = self._parse_path_primary()
        token = self.peek()
        if token.is_op("?"):
            self.next()
            return ZeroOrOnePath(primary)
        if token.is_op("*"):
            self.next()
            return ZeroOrMorePath(primary)
        if token.is_op("+"):
            self.next()
            return OneOrMorePath(primary)
        return primary

    def _parse_path_primary(self) -> Path:
        token = self.peek()
        if token.is_keyword("A"):
            self.next()
            return LinkPath(RDF.type)
        if token.is_op("!"):
            self.next()
            return self._parse_negated_property_set()
        if token.is_punct("("):
            self.next()
            path = self._parse_path()
            self.expect_punct(")")
            return path
        return LinkPath(self.parse_iri())

    def _parse_negated_property_set(self) -> NegatedPropertySet:
        forward: List[IRI] = []
        inverse: List[IRI] = []

        def one_member() -> None:
            if self.peek().is_op("^"):
                self.next()
                if self.accept_keyword("A"):
                    inverse.append(RDF.type)
                else:
                    inverse.append(self.parse_iri())
            elif self.accept_keyword("A"):
                forward.append(RDF.type)
            else:
                forward.append(self.parse_iri())

        if self.accept_punct("("):
            one_member()
            while self.peek().is_op("|"):
                self.next()
                one_member()
            self.expect_punct(")")
        else:
            one_member()
        return NegatedPropertySet(forward, inverse)

    def _emit_triple(self, subject: PatternTerm,
                     verb: Union[PatternTerm, Path], obj: PatternTerm,
                     patterns: List) -> None:
        """Append pattern nodes for one (subject, verb, object) statement.

        Plain predicates stay triple patterns; paths are rewritten where
        the rewrite is an equivalence (inverse flip, sequence chaining
        through fresh variables) so only closures, alternatives and
        negated sets reach the algebra as path nodes.
        """
        if isinstance(verb, Path):
            self._emit_path(subject, verb, obj, patterns)
        else:
            patterns.append(TriplePatternNode(subject, verb, obj))

    def _emit_path(self, subject: PatternTerm, path: Path,
                   obj: PatternTerm, patterns: List) -> None:
        if isinstance(path, LinkPath):
            patterns.append(TriplePatternNode(subject, path.iri, obj))
            return
        if isinstance(path, InversePath):
            self._emit_path(obj, path.child, subject, patterns)
            return
        if isinstance(path, SequencePath):
            current = subject
            for step in path.steps[:-1]:
                middle = self.fresh_var()
                self._emit_path(current, step, middle, patterns)
                current = middle
            self._emit_path(current, path.steps[-1], obj, patterns)
            return
        patterns.append(PathPatternNode(subject, path, obj))

    def _parse_node_with_properties(self, patterns: List,
                                    as_subject: bool = False) -> PatternTerm:
        """Parse a subject/object node; expands ``[ ... ]`` and the
        collection ``( ... )`` (``rdf:first`` / ``rdf:rest`` cells ending
        in ``rdf:nil``) in place."""
        token = self.peek()
        if token.is_punct("["):
            self.next()
            self._data_term(token, blank=True)
            node = self.fresh_var()
            if not self.peek().is_punct("]"):
                self._parse_predicate_object_list(node, patterns)
            self.expect_punct("]")
            return node
        if token.is_punct("("):
            self.next()
            items: List[PatternTerm] = []
            while not self.accept_punct(")"):
                items.append(self._parse_node_with_properties(patterns))
            if items:
                self._data_term(token, blank=True)
            head: PatternTerm = RDF.nil
            for item in reversed(items):
                cell = self.fresh_var()
                patterns.append(TriplePatternNode(cell, RDF.first, item))
                patterns.append(TriplePatternNode(cell, RDF.rest, head))
                head = cell
            return head
        return self.parse_pattern_term(allow_literal=not as_subject)

    def _parse_predicate_object_list(self, subject: PatternTerm,
                                     patterns: List) -> None:
        while True:
            verb = self._parse_verb()
            while True:
                obj = self._parse_node_with_properties(patterns)
                self._emit_triple(subject, verb, obj, patterns)
                if self.accept_punct(","):
                    continue
                break
            if self.accept_punct(";"):
                if self._at_verb():
                    continue
            return

    # -- expressions -------------------------------------------------------------

    def _parse_constraint(self) -> Expression:
        token = self.peek()
        if token.is_punct("("):
            self.next()
            expression = self.parse_expression()
            self.expect_punct(")")
            return expression
        if token.kind == "KEYWORD" and (
                token.upper in _BUILTIN_KEYWORDS
                or token.upper in AGGREGATE_NAMES
                or token.upper in ("EXISTS", "NOT EXISTS")):
            return self._parse_builtin_call()
        if token.kind in ("IRIREF", "PNAME"):
            return self._parse_iri_function()
        raise self.error("expected a constraint")

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.peek().is_op("||"):
            self.next()
            right = self._parse_and()
            left = BooleanExpression("||", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self.peek().is_op("&&"):
            self.next()
            right = self._parse_relational()
            left = BooleanExpression("&&", left, right)
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.is_op("=", "!=", "<", ">", "<=", ">="):
            self.next()
            right = self._parse_additive()
            return ComparisonExpression(token.text, left, right)
        if token.is_keyword("IN"):
            self.next()
            return InExpression(left, self._parse_expression_list())
        if token.is_keyword("NOT") and self.peek(1).is_keyword("IN"):
            self.next()
            self.next()
            return InExpression(left, self._parse_expression_list(),
                                negated=True)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self.expect_punct("(")
        items: List[Expression] = []
        if not self.peek().is_punct(")"):
            items.append(self.parse_expression())
            while self.accept_punct(","):
                items.append(self.parse_expression())
        self.expect_punct(")")
        return items

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.is_op("+", "-"):
                self.next()
                right = self._parse_multiplicative()
                left = ArithmeticExpression(token.text, left, right)
                continue
            # `?x -5` tokenizes the signed number as one literal token
            if token.kind in ("INTEGER", "DECIMAL", "DOUBLE_NUM") \
                    and token.text[0] in "+-":
                self.next()
                datatype = {"INTEGER": XSD_INTEGER, "DECIMAL": XSD_DECIMAL,
                            "DOUBLE_NUM": XSD_DOUBLE}[token.kind]
                literal = Literal(token.text[1:], datatype=datatype)
                op = token.text[0]
                left = ArithmeticExpression(op, left, TermExpression(literal))
                continue
            return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.peek().is_op("*", "/"):
            token = self.next()
            right = self._parse_unary()
            left = ArithmeticExpression(token.text, left, right)
        return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.is_op("!"):
            self.next()
            return NotExpression(self._parse_unary())
        if token.is_op("-"):
            self.next()
            return UnaryMinusExpression(self._parse_unary())
        if token.is_op("+"):
            self.next()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token.is_punct("("):
            self.next()
            expression = self.parse_expression()
            self.expect_punct(")")
            return expression
        if token.kind == "VAR":
            self.next()
            return VariableExpression(token.text[1:])
        if token.kind == "KEYWORD":
            upper = token.upper
            if upper in ("TRUE", "FALSE"):
                self.next()
                return TermExpression(
                    Literal(upper.lower(), datatype=XSD_BOOLEAN))
            if upper in _BUILTIN_KEYWORDS or upper in AGGREGATE_NAMES \
                    or upper in ("EXISTS", "NOT", "NOT EXISTS"):
                return self._parse_builtin_call()
            raise self.error("unexpected keyword in expression")
        if token.kind in ("STRING", "LONG_STRING", "INTEGER", "DECIMAL",
                          "DOUBLE_NUM"):
            return TermExpression(self.parse_literal())
        if token.kind in ("IRIREF", "PNAME"):
            return self._parse_iri_function()
        raise self.error("unexpected token in expression")

    def _parse_iri_function(self) -> Expression:
        iri = self.parse_iri()
        if self.peek().is_punct("("):
            cast_name = _XSD_CAST_IRIS.get(iri.value)
            if cast_name is None:
                raise self.error(f"unknown function <{iri.value}>")
            args = self._parse_expression_list()
            return FunctionExpression(cast_name, args)
        return TermExpression(iri)

    def _parse_builtin_call(self) -> Expression:
        token = self.next()
        upper = token.upper
        if upper == "NOT":
            self.expect_keyword("EXISTS")
            pattern = self.parse_group_graph_pattern()
            return ExistsExpression(pattern, negated=True)
        if upper == "NOT EXISTS":
            pattern = self.parse_group_graph_pattern()
            return ExistsExpression(pattern, negated=True)
        if upper == "EXISTS":
            pattern = self.parse_group_graph_pattern()
            return ExistsExpression(pattern)
        if upper in AGGREGATE_NAMES:
            return self._parse_aggregate(upper)
        # regular builtin: NAME(args...)
        self.expect_punct("(")
        args: List[Expression] = []
        if not self.peek().is_punct(")"):
            args.append(self.parse_expression())
            while self.accept_punct(","):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return FunctionExpression(upper, args)

    def _parse_aggregate(self, name: str) -> Aggregate:
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        if name == "COUNT" and self.peek().is_op("*"):
            self.next()
            self.expect_punct(")")
            return Aggregate("COUNT", None, distinct=distinct)
        expression = self.parse_expression()
        separator = " "
        if name == "GROUP_CONCAT" and self.accept_punct(";"):
            self.expect_keyword("SEPARATOR")
            token = self.next()
            if not token.is_op("="):
                raise self.error("expected '=' after SEPARATOR", token)
            sep_token = self.next()
            if sep_token.kind not in ("STRING", "LONG_STRING"):
                raise self.error("expected string separator", sep_token)
            separator = self._string_token_value(sep_token)
        self.expect_punct(")")
        return Aggregate(name, expression, distinct=distinct,
                         separator=separator)

    # -- updates -----------------------------------------------------------------

    def parse_update(self) -> List[UpdateOperation]:
        self.parse_prologue()
        operations: List[UpdateOperation] = []
        while self.peek().kind != "EOF":
            operations.append(self._parse_update_operation())
            self.accept_punct(";")
            self.parse_prologue()  # prefixes may appear between operations
        if not operations:
            raise self.error("empty update request")
        return operations

    def _parse_update_operation(self) -> UpdateOperation:
        token = self.peek()
        if token.is_keyword("INSERT"):
            self.next()
            if self.accept_keyword("DATA"):
                return InsertDataOp(self._parse_quad_data(blank_nodes=True))
            insert_quads = self._parse_quad_pattern()
            self.expect_keyword("WHERE")
            pattern = self.parse_group_graph_pattern()
            return ModifyOp([], insert_quads, pattern)
        if token.is_keyword("DELETE"):
            self.next()
            if self.accept_keyword("DATA"):
                return DeleteDataOp(self._parse_quad_data(blank_nodes=False))
            if self.peek().is_keyword("WHERE"):
                self.next()
                pattern_quads = self._parse_quad_pattern()
                bgp = BGP([TriplePatternNode(s, p, o)
                           for _, s, p, o in pattern_quads])
                return ModifyOp(pattern_quads, [], bgp)
            delete_quads = self._parse_quad_pattern()
            insert_quads: List[Quad] = []
            if self.accept_keyword("INSERT"):
                insert_quads = self._parse_quad_pattern()
            self.expect_keyword("WHERE")
            pattern = self.parse_group_graph_pattern()
            return ModifyOp(delete_quads, insert_quads, pattern)
        if token.is_keyword("WITH"):
            self.next()
            graph = self.parse_iri()
            delete_quads = []
            insert_quads = []
            if self.accept_keyword("DELETE"):
                delete_quads = self._parse_quad_pattern()
            if self.accept_keyword("INSERT"):
                insert_quads = self._parse_quad_pattern()
            self.expect_keyword("WHERE")
            pattern = self.parse_group_graph_pattern()
            return ModifyOp(delete_quads, insert_quads, pattern,
                            with_graph=graph)
        if token.is_keyword("CLEAR"):
            self.next()
            silent = self.accept_keyword("SILENT")
            return ClearOp(self._parse_graph_ref(), silent=silent)
        if token.is_keyword("CREATE"):
            self.next()
            silent = self.accept_keyword("SILENT")
            self.expect_keyword("GRAPH")
            return CreateOp(self.parse_iri(), silent=silent)
        if token.is_keyword("DROP"):
            self.next()
            silent = self.accept_keyword("SILENT")
            return DropOp(self._parse_graph_ref(), silent=silent)
        raise self.error("expected an update operation")

    def _parse_graph_ref(self) -> Union[IRI, str]:
        token = self.peek()
        if token.is_keyword("GRAPH"):
            self.next()
            return self.parse_iri()
        if token.is_keyword("DEFAULT"):
            self.next()
            return "DEFAULT"
        if token.is_keyword("NAMED"):
            self.next()
            return "NAMED"
        if token.is_keyword("ALL"):
            self.next()
            return "ALL"
        raise self.error("expected GRAPH/DEFAULT/NAMED/ALL")

    def _parse_quad_data(self, blank_nodes: bool) -> List[Quad]:
        """Ground quads for INSERT DATA (``blank_nodes``) / DELETE DATA."""
        self._data = blank_nodes
        quads = self._parse_quad_pattern()
        self._data = None
        return self._ground(quads)

    def _data_term(self, token: Token, blank: bool) -> None:
        """Refuse ``token`` — a variable, or a blank node (``blank``) —
        where quad data does not take it: no block takes a variable,
        DELETE DATA takes no blank node (SPARQL 1.1 Update §3.1.2)."""
        if self._data is None:
            return
        if not blank:
            raise self.error("variables are not allowed in DATA blocks",
                             token)
        if not self._data:
            raise self.error("blank nodes are not allowed in DELETE DATA",
                             token)

    def _ground(self, quads: List[Quad]) -> List[Quad]:
        """Quad data: ``_:b`` and ``[ … ]`` are blank nodes fresh to the
        request, one per label (SPARQL 1.1 Update §3.1.1)."""
        ground: List[Quad] = []
        for graph, *triple in quads:
            terms: List[PatternTerm] = []
            for term in triple:
                if isinstance(term, Var):
                    if term.name not in self._bnodes:
                        self._bnodes[term.name] = BNode()
                    term = self._bnodes[term.name]
                terms.append(term)
            ground.append((graph, terms[0], terms[1], terms[2]))
        return ground

    def _parse_quad_pattern(self) -> List[Quad]:
        self.expect_punct("{")
        quads: List[Quad] = []
        while not self.accept_punct("}"):
            self._parse_quads(quads)
        return quads

    def _parse_quads(self, quads: List[Quad]) -> None:
        """One statement of a quad template: triples for the default
        graph, or a ``GRAPH <g> { … }`` block, and an optional ``.``."""
        self._template = True
        graph: Optional[IRI] = None
        if self.accept_keyword("GRAPH"):
            graph = self.parse_iri()
            self.expect_punct("{")
            patterns: List = []
            while not self.accept_punct("}"):
                patterns.extend(self._parse_triples_block())
                self.accept_punct(".")
        else:
            patterns = self._parse_triples_block()
        self.accept_punct(".")
        self._template = False
        quads.extend((graph, p.subject, p.predicate, p.object)
                     for p in patterns)

    def parse_document(self) -> Tuple[List[Quad], Dict[str, str]]:
        """An RDF document: directives (``@prefix`` forms too) and
        statements up to EOF, each top-level triples block ended by a
        ``.``.  Answers its ground quads and the prefixes it declares."""
        self.prefixes = {}
        self._data = True
        quads: List[Quad] = []
        while True:
            self.parse_prologue(turtle=True)
            if self.peek().kind == "EOF":
                return self._ground(quads), self.prefixes
            self._parse_quads(quads)
            if not self.tokens[self.position - 1].is_punct(".", "}"):
                raise self.error("expected '.'")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_query(text: str) -> Query:
    """Parse a SELECT or ASK query into algebra."""
    return _Parser(text).parse_query()


def parse_update(text: str) -> List[UpdateOperation]:
    """Parse an update request into a list of operations."""
    return _Parser(text).parse_update()


def parse_document(text: str) -> Tuple[List[Quad], Dict[str, str]]:
    """Parse an RDF document (Turtle, N-Triples, or TriG with ``GRAPH``
    blocks) into ground quads and the prefixes it declares."""
    return _Parser(text).parse_document()
