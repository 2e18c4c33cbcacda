"""Typed error taxonomy for the native OLAP engine.

The native engine sits on the same serving path as the SPARQL
endpoint (E9 comparisons, the :mod:`repro.olap.compare` oracle, and —
through the QL executor — user-facing query evaluation), so its
failures follow the same contract as the endpoint's: every error a
caller can see is an :class:`~repro.sparql.errors.EndpointError`
subclass with a stable machine-readable ``code``.

Two raise sites used to leak raw ``ValueError``:

* a QL dice referencing a dimension that the pipeline sliced away
  (``kept.index(...)`` on a missing axis);
* a measure dice whose right-hand side is not a numeric literal
  (``float()`` over an arbitrary lexical form).

Both now surface as the typed classes below; the ``error-taxonomy``
lint rule scopes :mod:`repro.olap.engine` to keep it that way.
"""

from __future__ import annotations

from repro.sparql.errors import EndpointError

__all__ = ["OLAPEngineError", "UnknownAxisError", "DiceTypeError"]


class OLAPEngineError(EndpointError):
    """Base class for native-engine evaluation failures."""

    code = "olap_error"


class UnknownAxisError(OLAPEngineError):
    """A dice (or rollup target) referenced a dimension that is not an
    axis of the cube at this point of the pipeline — usually because an
    earlier ``SLICE`` removed it."""

    code = "olap_unknown_axis"


class DiceTypeError(OLAPEngineError):
    """A dice condition compared a measure against something that has
    no numeric value (a non-literal term, or a literal whose lexical
    form is not numeric)."""

    code = "olap_dice_type"
