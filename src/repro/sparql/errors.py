"""Exception hierarchy for the SPARQL engine.

Every error carries a **machine-readable code** (``error.code``) and
every endpoint-level error the offending request text when known
(``error.query``), so callers can branch on codes instead of parsing
messages.  :class:`QueryExecutionError` is the one boundary for engine
internals: the endpoint wraps any raw exception escaping a read or an
update in it.
"""

from __future__ import annotations

from typing import Optional


class SPARQLError(Exception):
    """Base class for all SPARQL engine errors."""

    #: machine-readable error class, stable across message rewordings
    code: str = "sparql_error"


class QuerySyntaxError(SPARQLError):
    """The query, update or RDF document text could not be parsed;
    ``line`` is the offending token's line when known."""

    code = "syntax_error"

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class ExpressionError(SPARQLError):
    """An expression evaluation error.

    Per the SPARQL semantics these are *recoverable*: a FILTER whose
    expression errors eliminates the solution, a BIND leaves the variable
    unbound, and aggregates skip the offending value.  The evaluator
    catches this exception at those boundaries.
    """

    code = "expression_error"


class EvaluationError(SPARQLError):
    """A non-recoverable problem during query evaluation (engine bug or
    unsupported feature reached at runtime)."""

    code = "evaluation_error"


class UpdateError(SPARQLError):
    """A SPARQL Update request failed."""

    code = "update_error"


class EndpointError(SPARQLError):
    """Endpoint-level failure: unknown graph, exceeded result limits, ...

    ``code`` identifies the error class machine-readably; ``query`` is
    the offending request text (filled in by the endpoint when the
    raise site did not know it).
    """

    code = "endpoint_error"

    def __init__(self, message: str, *, code: Optional[str] = None,
                 query: Optional[str] = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.query = query


class QueryExecutionError(EndpointError):
    """A raw parser/evaluator exception escaped the engine.

    The endpoint maps bare ``KeyError`` / ``RecursionError`` / ... into
    this typed wrapper (original exception chained as ``__cause__``),
    so callers always see the endpoint taxonomy, never an engine
    internal.  It is final: the QL executor's ``variant="auto"``
    fallback re-raises it instead of retrying the alternative
    translation.
    """

    code = "internal_error"
