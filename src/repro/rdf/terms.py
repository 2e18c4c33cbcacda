"""RDF 1.1 terms: IRIs, blank nodes, literals and triples.

The design follows the RDF 1.1 abstract syntax:

* :class:`IRI` — an absolute IRI reference.
* :class:`BNode` — a blank node with a document-scoped label.
* :class:`Literal` — a lexical form plus a datatype IRI and, for
  ``rdf:langString`` literals, a language tag.
* :class:`Triple` — an (s, p, o) statement.

Term equality is *term equality* as defined by RDF concepts: two literals
are equal iff their lexical forms, datatypes and language tags are all
equal.  Value-based comparison (where ``"1"^^xsd:integer`` equals
``"01"^^xsd:integer``) is a SPARQL notion and lives in
:mod:`repro.sparql.expressions`.

All terms are immutable and hashable so they can be used as dictionary
keys inside :class:`repro.rdf.graph.Graph` indexes.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import re
import threading
from decimal import Decimal, InvalidOperation
from typing import Any, NamedTuple, Optional, Union

from repro.rdf.errors import TermError

# ---------------------------------------------------------------------------
# Well-known datatype IRIs (duplicated here as plain strings to avoid a
# circular import with repro.rdf.namespace, which itself imports IRI).
# ---------------------------------------------------------------------------

_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = _XSD + "string"
XSD_BOOLEAN = _XSD + "boolean"
XSD_INTEGER = _XSD + "integer"
XSD_INT = _XSD + "int"
XSD_LONG = _XSD + "long"
XSD_SHORT = _XSD + "short"
XSD_BYTE = _XSD + "byte"
XSD_NON_NEGATIVE_INTEGER = _XSD + "nonNegativeInteger"
XSD_POSITIVE_INTEGER = _XSD + "positiveInteger"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_FLOAT = _XSD + "float"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"
XSD_GYEAR = _XSD + "gYear"
XSD_GYEARMONTH = _XSD + "gYearMonth"
XSD_DURATION = _XSD + "duration"
XSD_ANYURI = _XSD + "anyURI"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

#: Datatypes whose values are Python ints.
INTEGER_DATATYPES = frozenset({
    XSD_INTEGER, XSD_INT, XSD_LONG, XSD_SHORT, XSD_BYTE,
    XSD_NON_NEGATIVE_INTEGER, XSD_POSITIVE_INTEGER,
})

#: Datatypes considered numeric by SPARQL operator mappings.
NUMERIC_DATATYPES = INTEGER_DATATYPES | {XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}

_LANG_TAG_RE = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")
_ABSOLUTE_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
#: what no IRI may hold: controls, space and ``<>"{}|^`` + backtick
_ILLEGAL_IRI_RE = re.compile(r'[\x00-\x20<>"{}|^\x60]')


class Term:
    """Abstract base class for RDF terms."""

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples serialization of this term."""
        raise NotImplementedError

    @property
    def is_iri(self) -> bool:
        return isinstance(self, IRI)

    @property
    def is_bnode(self) -> bool:
        return isinstance(self, BNode)

    @property
    def is_literal(self) -> bool:
        return isinstance(self, Literal)


class IRI(Term):
    """An IRI reference.

    >>> IRI("http://example.org/a").n3()
    '<http://example.org/a>'
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[str, "IRI"]) -> None:
        if isinstance(value, IRI):
            value = value.value
        if not isinstance(value, str):
            raise TermError(f"IRI requires a string, got {type(value).__name__}")
        if not value:
            raise TermError("IRI must not be empty")
        if _ILLEGAL_IRI_RE.search(value):
            raise TermError(f"IRI contains illegal characters: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("IRI", value)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise TermError("IRI objects are immutable")

    def __reduce__(self) -> tuple:
        # immutable __setattr__ defeats default slot-state pickling;
        # reconstruct through the validating constructor instead
        return (IRI, (self.value,))

    @property
    def is_absolute(self) -> bool:
        """True when the IRI carries a scheme (``http:``, ``urn:``, ...)."""
        return bool(_ABSOLUTE_IRI_RE.match(self.value))

    def local_name(self) -> str:
        """Heuristic local part: the segment after the last ``#`` or ``/``."""
        value = self.value
        for separator in ("#", "/", ":"):
            index = value.rfind(separator)
            if 0 <= index < len(value) - 1:
                return value[index + 1:]
        return value

    def namespace(self) -> str:
        """The IRI up to and including the last ``#`` or ``/`` separator."""
        return self.value[: len(self.value) - len(self.local_name())]

    def n3(self) -> str:
        return f"<{self.value}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: "IRI") -> bool:
        if not isinstance(other, IRI):
            return NotImplemented
        return self.value < other.value


#: The well-known datatype IRIs, validated once: most literals carry one
#: of these, and none of them pays for an ``IRI`` of its own.
_DATATYPES = {value: IRI(value) for value in (
    XSD_STRING, XSD_BOOLEAN, XSD_INTEGER, XSD_INT, XSD_LONG, XSD_SHORT,
    XSD_BYTE, XSD_NON_NEGATIVE_INTEGER, XSD_POSITIVE_INTEGER, XSD_DECIMAL,
    XSD_DOUBLE, XSD_FLOAT, XSD_DATE, XSD_DATETIME, XSD_GYEAR,
    XSD_GYEARMONTH, XSD_DURATION, XSD_ANYURI, RDF_LANGSTRING)}

_bnode_counter = itertools.count(1)
_bnode_lock = threading.Lock()


class BNode(Term):
    """A blank node.

    Construct with an explicit label (``BNode("b1")``) or without one to
    obtain a fresh, process-unique label.
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: Optional[str] = None) -> None:
        if label is None:
            with _bnode_lock:
                label = f"b{next(_bnode_counter)}"
        if not isinstance(label, str) or not label:
            raise TermError("BNode label must be a non-empty string")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("BNode", label)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise TermError("BNode objects are immutable")

    def __reduce__(self) -> tuple:
        return (BNode, (self.label,))

    def n3(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"


def _escape_literal(text: str) -> str:
    """Escape a literal lexical form for N-Triples/Turtle output.

    Control characters (including Unicode line/record separators that
    ``str.splitlines`` would treat as line breaks) become ``\\uXXXX``.
    """
    escaped = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    out = []
    for ch in escaped:
        code = ord(ch)
        if code < 0x20 or code in (0x85, 0x2028, 0x2029):
            out.append("\\u%04X" % code)
        else:
            out.append(ch)
    return "".join(out)


def _parse_datetime(lexical: str) -> _dt.datetime:
    text = lexical.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return _dt.datetime.fromisoformat(text)


class Literal(Term):
    """An RDF literal: lexical form + datatype (+ language for langStrings).

    >>> Literal(42).n3()
    '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'
    >>> Literal("hola", language="es").n3()
    '"hola"@es'
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")

    def __init__(self, value: Any, datatype: Union[str, IRI, None] = None,
                 language: Optional[str] = None) -> None:
        if language is not None and datatype is not None:
            raise TermError("a literal cannot have both a language and a datatype")
        if language is not None:
            if not _LANG_TAG_RE.match(language):
                raise TermError(f"malformed language tag: {language!r}")
            language = language.lower()
            datatype = RDF_LANGSTRING
            lexical = self._lexical_of(value)
        elif datatype is not None:
            lexical = self._lexical_of(value)
        else:
            datatype, lexical = self._infer(value)
        if not isinstance(datatype, IRI):
            datatype = _DATATYPES.get(str(datatype)) or IRI(str(datatype))
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(
            self, "_hash",
            hash(("Literal", lexical, datatype.value, language)))

    @staticmethod
    def _lexical_of(value: Any) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    @staticmethod
    def _infer(value: Any) -> tuple[str, str]:
        """Map a Python value onto (datatype IRI, lexical form)."""
        if isinstance(value, bool):
            return XSD_BOOLEAN, "true" if value else "false"
        if isinstance(value, int):
            return XSD_INTEGER, str(value)
        if isinstance(value, float):
            return XSD_DOUBLE, repr(value)
        if isinstance(value, Decimal):
            return XSD_DECIMAL, str(value)
        if isinstance(value, _dt.datetime):
            return XSD_DATETIME, value.isoformat()
        if isinstance(value, _dt.date):
            return XSD_DATE, value.isoformat()
        if isinstance(value, str):
            return XSD_STRING, value
        raise TermError(
            f"cannot infer an XSD datatype for {type(value).__name__} values")

    def __setattr__(self, name: str, value: Any) -> None:
        raise TermError("Literal objects are immutable")

    def __reduce__(self) -> tuple:
        # lexical forms pass through the constructor unchanged, so this
        # round-trips term identity (hash and equality) exactly
        if self.language is not None:
            return (Literal, (self.lexical, None, self.language))
        return (Literal, (self.lexical, self.datatype.value))

    # -- value space --------------------------------------------------------

    @property
    def value(self) -> Any:
        """The Python value of this literal, or the lexical form when the
        datatype is unknown or the lexical form is ill-typed."""
        dt = self.datatype.value
        try:
            if dt in INTEGER_DATATYPES:
                return int(self.lexical)
            if dt == XSD_DECIMAL:
                return Decimal(self.lexical)
            if dt in (XSD_DOUBLE, XSD_FLOAT):
                return float(self.lexical)
            if dt == XSD_BOOLEAN:
                if self.lexical in ("true", "1"):
                    return True
                if self.lexical in ("false", "0"):
                    return False
                return self.lexical
            if dt == XSD_DATETIME:
                return _parse_datetime(self.lexical)
            if dt == XSD_DATE:
                return _dt.date.fromisoformat(self.lexical)
        except (ValueError, InvalidOperation):
            return self.lexical
        return self.lexical

    @property
    def is_numeric(self) -> bool:
        return self.datatype.value in NUMERIC_DATATYPES

    @property
    def is_plain_string(self) -> bool:
        return self.datatype.value in (XSD_STRING, RDF_LANGSTRING)

    # -- serialization -------------------------------------------------------

    def n3(self) -> str:
        quoted = f'"{_escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{quoted}@{self.language}"
        if self.datatype.value == XSD_STRING:
            return quoted
        return f"{quoted}^^{self.datatype.n3()}"

    # -- term identity -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.language is not None:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype.value == XSD_STRING:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype.value!r})"

    def __str__(self) -> str:
        return self.lexical


class Triple(NamedTuple):
    """An RDF statement.

    Subjects must be IRIs or blank nodes; predicates must be IRIs; objects
    may be any term.  Use :func:`make_triple` for validated construction.
    """

    subject: Term
    predicate: Term
    object: Term

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


def check_triple(subject: Term, predicate: Term, obj: Term) -> None:
    """Enforce the RDF positional constraints on one statement."""
    if not isinstance(subject, (IRI, BNode)):
        raise TermError(
            f"triple subject must be an IRI or blank node, got {subject!r}")
    if not isinstance(predicate, IRI):
        raise TermError(f"triple predicate must be an IRI, got {predicate!r}")
    if not isinstance(obj, Term):
        raise TermError(f"triple object must be an RDF term, got {obj!r}")


def make_triple(subject: Term, predicate: Term, obj: Term) -> Triple:
    """Build a :class:`Triple`, enforcing RDF positional constraints."""
    check_triple(subject, predicate, obj)
    return Triple(subject, predicate, obj)


def term_sort_key(term: Term) -> tuple:
    """Deterministic ordering for serializers: IRIs < BNodes < Literals."""
    if isinstance(term, IRI):
        return (0, term.value, "", "")
    if isinstance(term, BNode):
        return (1, term.label, "", "")
    assert isinstance(term, Literal)
    return (2, term.lexical, term.datatype.value, term.language or "")


def triple_sort_key(triple: Triple) -> tuple:
    """Deterministic sort key over whole triples (serializers)."""
    return (
        term_sort_key(triple.subject),
        term_sort_key(triple.predicate),
        term_sort_key(triple.object),
    )
