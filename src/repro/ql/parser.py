"""Parser for the QL surface syntax.

Accepts the notation of the paper's demo query:

.. code-block:: text

    PREFIX data: <http://eurostat.linked-statistics.org/data/>;
    PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
    QUERY
    $C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
    $C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);
    $C3 := ROLLUP ($C2, schema:timeDim, schema:year);
    $C4 := DICE ($C3, (schema:citizenshipDim|schema:continent|
                       schema:continentName = "Africa"));
    $C5 := DICE ($C4, schema:destinationDim|property:geo|
                      schema:countryName = "France");

Prefix declarations may end with ``;`` (as printed in the paper) or
not (SPARQL style).  Dice conditions support ``AND`` / ``OR`` / ``NOT``
and parentheses; values are strings, numbers, booleans or IRIs.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Union

from repro.rdf.namespace import DEFAULT_PREFIXES
from repro.rdf.terms import (
    IRI,
    Literal,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.ql.ast import (
    AttributePath,
    BooleanCondition,
    Comparison,
    Dice,
    DiceCondition,
    DrillDown,
    MeasureRef,
    NotCondition,
    QLProgram,
    QLSyntaxError,
    RollUp,
    Slice,
    Statement,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*|//[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<ASSIGN>:=)
  | (?P<VAR>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*”|"(?:[^"\\\n]|\\.)*"|“(?:[^”\\\n])*”)
  | (?P<DOUBLE>[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+))
  | (?P<DECIMAL>[+-]?\d*\.\d+)
  | (?P<INTEGER>[+-]?\d+)
  | (?P<KEYWORD>\b(?:PREFIX|QUERY|ROLLUP|DRILLDOWN|SLICE|DICE|AND|OR|NOT|TRUE|FALSE)\b)
  | (?P<PNAME>[A-Za-z][\w\-]*:[\w\-.%]*[\w\-%]|[A-Za-z][\w\-]*:|:[\w\-.%]+)
  | (?P<OP><=|>=|!=|=|<|>)
  | (?P<PUNCT>[(),;|])
    """,
    re.VERBOSE | re.IGNORECASE,
)


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.text.upper() in names

    def is_punct(self, *chars: str) -> bool:
        return self.kind == "PUNCT" and self.text in chars

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QLSyntaxError(f"unexpected character {text[pos]!r}", line)
        kind = match.lastgroup or ""
        chunk = match.group()
        line += chunk.count("\n")
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, chunk, line))
        pos = match.end()
    tokens.append(_Token("EOF", "", line))
    return tokens


class _QLParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.position = 0
        self.prefixes: Dict[str, str] = {
            prefix: ns.base for prefix, ns in DEFAULT_PREFIXES.items()}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.position + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def error(self, message: str, token: Optional[_Token] = None
              ) -> QLSyntaxError:
        token = token or self.peek()
        return QLSyntaxError(f"{message}, got {token.text!r}", token.line)

    def expect_punct(self, char: str) -> None:
        token = self.next()
        if not token.is_punct(char):
            raise self.error(f"expected {char!r}", token)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> QLProgram:
        program = QLProgram()
        while self.peek().is_keyword("PREFIX"):
            self._prefix_decl()
        program.prefixes = dict(self.prefixes)
        if self.peek().is_keyword("QUERY"):
            self.next()
        while self.peek().kind == "VAR":
            program.statements.append(self._statement())
        if self.peek().kind != "EOF":
            raise self.error("unexpected trailing content")
        if not program.statements:
            raise QLSyntaxError("QL program has no statements")
        return program

    def _prefix_decl(self) -> None:
        self.next()  # PREFIX
        name = self.next()
        if name.kind != "PNAME" or not name.text.endswith(":"):
            raise self.error("expected prefix name", name)
        iri = self.next()
        if iri.kind != "IRIREF":
            raise self.error("expected IRI", iri)
        self.prefixes[name.text[:-1]] = iri.text[1:-1]
        if self.peek().is_punct(";"):
            self.next()

    def _statement(self) -> Statement:
        var = self.next()
        assign = self.next()
        if assign.kind != "ASSIGN":
            raise self.error("expected ':='", assign)
        keyword = self.next()
        if not keyword.is_keyword("ROLLUP", "DRILLDOWN", "SLICE", "DICE"):
            raise self.error("expected an operation", keyword)
        self.expect_punct("(")
        input_ref = self._input_ref()
        self.expect_punct(",")
        op_name = keyword.text.upper()
        if op_name in ("ROLLUP", "DRILLDOWN"):
            dimension = self._iri()
            self.expect_punct(",")
            level = self._iri()
            operation = RollUp(dimension, level) if op_name == "ROLLUP" \
                else DrillDown(dimension, level)
        elif op_name == "SLICE":
            operation = Slice(self._iri())
        else:
            operation = Dice(self._condition())
        self.expect_punct(")")
        if self.peek().is_punct(";"):
            self.next()
        return Statement(var.text, input_ref, operation)

    def _input_ref(self) -> Union[str, IRI]:
        token = self.peek()
        if token.kind == "VAR":
            self.next()
            return token.text
        return self._iri()

    def _iri(self) -> IRI:
        token = self.next()
        if token.kind == "IRIREF":
            return IRI(token.text[1:-1])
        if token.kind == "PNAME":
            prefix, _, local = token.text.partition(":")
            namespace = self.prefixes.get(prefix)
            if namespace is None:
                raise QLSyntaxError(
                    f"undefined prefix {prefix!r}", token.line)
            return IRI(namespace + local)
        raise self.error("expected an IRI", token)

    # -- dice conditions -------------------------------------------------------

    def _condition(self) -> DiceCondition:
        return self._or_condition()

    def _or_condition(self) -> DiceCondition:
        operands = [self._and_condition()]
        while self.peek().is_keyword("OR"):
            self.next()
            operands.append(self._and_condition())
        if len(operands) == 1:
            return operands[0]
        return BooleanCondition("OR", tuple(operands))

    def _and_condition(self) -> DiceCondition:
        operands = [self._not_condition()]
        while self.peek().is_keyword("AND"):
            self.next()
            operands.append(self._not_condition())
        if len(operands) == 1:
            return operands[0]
        return BooleanCondition("AND", tuple(operands))

    def _not_condition(self) -> DiceCondition:
        if self.peek().is_keyword("NOT"):
            self.next()
            return NotCondition(self._not_condition())
        if self.peek().is_punct("("):
            self.next()
            condition = self._condition()
            self.expect_punct(")")
            return condition
        return self._comparison()

    def _comparison(self) -> Comparison:
        first = self._iri()
        if self.peek().is_punct("|"):
            self.next()
            level = self._iri()
            self.expect_punct("|")
            attribute = self._iri()
            operand = AttributePath(first, level, attribute)
        else:
            operand = MeasureRef(first)
        op_token = self.next()
        if op_token.kind != "OP":
            raise self.error("expected a comparison operator", op_token)
        value = self._value()
        return Comparison(operand, op_token.text, value)

    def _value(self) -> Union[Literal, IRI]:
        token = self.next()
        if token.kind == "STRING":
            body = token.text
            if body.startswith('"') and body.endswith('"'):
                from repro.sparql.tokenizer import unescape_string
                try:
                    lexical = unescape_string(body[1:-1])
                except ValueError as error:
                    raise QLSyntaxError(str(error), token.line) from None
                return Literal(lexical, datatype=XSD_STRING)
            # tolerate typographic quotes as printed in the paper's PDF
            body = body.strip('"').strip("“”")
            return Literal(body.replace('\\"', '"'), datatype=XSD_STRING)
        if token.kind == "INTEGER":
            return Literal(token.text, datatype=XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.text, datatype=XSD_DECIMAL)
        if token.kind == "DOUBLE":
            return Literal(token.text, datatype=XSD_DOUBLE)
        if token.is_keyword("TRUE", "FALSE"):
            return Literal(token.text.lower(), datatype=XSD_BOOLEAN)
        if token.kind in ("IRIREF", "PNAME"):
            self.position -= 1
            return self._iri()
        raise self.error("expected a value", token)


def parse_ql(text: str) -> QLProgram:
    """Parse QL text into a :class:`~repro.ql.ast.QLProgram`."""
    return _QLParser(text).parse()
