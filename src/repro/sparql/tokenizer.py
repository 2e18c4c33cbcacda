"""Tokenizer for the SPARQL 1.1 fragment the engine supports.

Produces a flat list of :class:`Token` objects.  Keywords are recognized
case-insensitively and normalized to upper case; punctuation and operators
are single tokens.  The token stream is consumed by
:mod:`repro.sparql.parser`.
"""

from __future__ import annotations

import re
from typing import List

from repro.sparql.errors import QuerySyntaxError

#: All keywords the parser understands.  Sorted longest-first inside the
#: regex so that e.g. ``GROUP_CONCAT`` wins over ``GROUP``.
KEYWORDS = (
    "GROUP_CONCAT", "NOT EXISTS", "SELECT", "DISTINCT", "REDUCED", "WHERE",
    "FILTER", "OPTIONAL", "UNION", "MINUS", "GRAPH", "SERVICE", "BIND",
    "VALUES", "GROUP", "HAVING", "ORDER", "BY", "ASC", "DESC", "LIMIT",
    "OFFSET", "PREFIX", "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "FROM",
    "NAMED", "AS", "INSERT", "DELETE", "DATA", "CLEAR", "DROP", "CREATE",
    "SILENT", "INTO", "WITH", "USING", "DEFAULT", "ALL", "EXISTS",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "SEPARATOR",
    "BOUND", "COALESCE", "IF", "SAMETERM", "ISIRI", "ISURI", "ISBLANK",
    "ISLITERAL", "ISNUMERIC", "STRLEN", "SUBSTR", "UCASE", "LCASE",
    "STRSTARTS", "STRENDS", "CONTAINS", "STRBEFORE", "STRAFTER", "CONCAT",
    "LANGMATCHES", "LANG", "DATATYPE", "IRI", "URI", "BNODE", "STRDT",
    "STRLANG", "STR", "REGEX", "REPLACE", "ABS", "ROUND", "CEIL", "FLOOR",
    "RAND", "NOW", "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS",
    "TIMEZONE", "TZ", "MD5", "SHA1", "SHA256", "IN", "NOT", "TRUE", "FALSE",
    "UNDEF", "A",
)

_KEYWORD_PATTERN = "|".join(
    sorted((re.escape(k) for k in KEYWORDS), key=len, reverse=True))

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<LONG_STRING>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*''')
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<LANGTAG>@[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)
  | (?P<DOUBLE_NUM>[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+))
  | (?P<DECIMAL>[+-]?\d*\.\d+)
  | (?P<INTEGER>[+-]?\d+)
  | (?P<HATHAT>\^\^)
  | (?P<BNODE>_:[A-Za-z0-9][A-Za-z0-9_.\-]*)
  | (?P<KEYWORD>(?:%KEYWORDS%)(?![A-Za-z0-9_\-:]))
  | (?P<PNAME>[A-Za-z][\w\-]*(?:\.[\w\-]+)*:[\w\-.%%]*[\w\-%%]|[A-Za-z][\w\-]*(?:\.[\w\-]+)*:|:[\w\-.%%]*[\w\-%%]|:)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<OP><=|>=|!=|&&|\|\||[=<>!*/+\-?^|])
  | (?P<PUNCT>[{}().,;\[\]])
    """.replace("%KEYWORDS%", _KEYWORD_PATTERN),
    re.VERBOSE | re.IGNORECASE,
)


class Token:
    """One lexical token: a kind tag, the raw text, and the source line."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    @property
    def upper(self) -> str:
        return self.text.upper()

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.upper in names

    def is_punct(self, *chars: str) -> bool:
        return self.kind == "PUNCT" and self.text in chars

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.text in ops

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


def tokenize(text: str) -> List[Token]:
    """Tokenize SPARQL ``text``; raises :class:`QuerySyntaxError` on junk."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line)
        kind = match.lastgroup or ""
        chunk = match.group()
        line += chunk.count("\n")
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, chunk, line))
        pos = match.end()
    tokens.append(Token("EOF", "", line))
    return tokens


_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def unescape_string(text: str) -> str:
    """Resolve the string escapes of a quoted literal's body (``\\n``,
    ``\\uXXXX``, ...); raises :class:`ValueError` on a bad one, which
    each parser reports as its own syntax error."""
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        nxt = text[i + 1:i + 2]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt in ("u", "U"):
            width = 4 if nxt == "u" else 8
            digits = text[i + 2:i + 2 + width]
            if len(digits) != width:
                raise ValueError(f"truncated \\{nxt} escape")
            out.append(chr(int(digits, 16)))
            i += 2 + width
        else:
            raise ValueError(f"unknown escape: \\{nxt}")
    return "".join(out)
