"""Exception hierarchy for the RDF substrate.

Every error raised by :mod:`repro.rdf` derives from :class:`RDFError`, so
callers can catch substrate problems with a single ``except`` clause.
RDF text is read by the SPARQL parser, so a syntax error in a document
is a :class:`repro.sparql.errors.QuerySyntaxError`.
"""

from __future__ import annotations


class RDFError(Exception):
    """Base class for all RDF substrate errors."""


class TermError(RDFError):
    """An RDF term was constructed or used incorrectly.

    Examples: a literal used as a triple subject, an IRI built from a
    non-string, a malformed language tag.
    """


class SerializationError(RDFError):
    """A graph could not be serialized to the requested format."""
