"""A row-at-a-time reference for SPARQL aggregates.

``Aggregate.apply`` as it stood before grouped aggregation moved into
``repro.sparql.aggregation`` (it gathered a group's values into a list
and folded the list), kept here as the oracle the id-level
implementation is compared against.  Two rules differ from that
original, both on purpose: MIN and MAX answer the *first* encountered
among values the ORDER BY order cannot tell apart (the original's
stable sort gave MAX the last), and ``xsd:decimal`` added to
``xsd:double`` promotes to double (the original raised ``TypeError``).
"""

from decimal import Decimal

from repro.rdf import Literal
from repro.rdf.terms import XSD_STRING
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    _numeric_literal,
    numeric_value,
    order_key,
    string_value,
)


def _add(total, number):
    if isinstance(total, Decimal) and isinstance(number, float):
        total = float(total)
    elif isinstance(total, float) and isinstance(number, Decimal):
        number = float(number)
    return total + number


def reference_apply(aggregate, group, context):
    """``aggregate`` over the bindings of one group: its term, or
    :class:`ExpressionError` where SPARQL leaves it unbound."""
    name = aggregate.name
    if name == "COUNT" and aggregate.expression is None:
        return Literal(len(group))
    values = []
    for row in group:
        try:
            values.append(aggregate.expression.evaluate(row, context))
        except ExpressionError:
            continue
    if aggregate.distinct:
        values = list(dict.fromkeys(values))
    if name == "COUNT":
        return Literal(len(values))
    if name == "SAMPLE":
        if not values:
            raise ExpressionError("SAMPLE over empty group")
        return values[0]
    if name == "GROUP_CONCAT":
        return Literal(aggregate.separator.join(
            string_value(value) for value in values), datatype=XSD_STRING)
    if not values:
        if name == "SUM":
            return Literal(0)
        raise ExpressionError(f"{name} over empty group")
    if name in ("SUM", "AVG"):
        total = 0
        for value in values:
            total = _add(total, numeric_value(value))
        if name == "SUM":
            return _numeric_literal(total)
        if isinstance(total, int):
            return _numeric_literal(Decimal(total) / Decimal(len(values)))
        return _numeric_literal(total / len(values))
    # min() and max() both return the first of equally good items
    return (min if name == "MIN" else max)(values, key=order_key)
