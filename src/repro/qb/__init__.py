"""The W3C RDF Data Cube (QB) layer.

QB2OLAP's *input* is a plain-QB statistical data set.  This package
holds the QB vocabulary (:mod:`repro.qb.vocabulary`), the normalization
algorithm (spec §10, :mod:`repro.qb.normalize`) and the validator: the
spec's 21 integrity constraints, run on a normalized graph as literal
SPARQL ``ASK`` queries on the in-repo engine, with IC-12 answered in
linear time and two adjunct checks, plus the QB4OLAP checks as rows of
the same table (:mod:`repro.qb.constraints`).
"""

from repro.qb.constraints import (
    ConstraintCheck,
    ConstraintReport,
    check_constraint,
    check_graph,
    cube_constraint_checks,
    step_error_rates,
)
from repro.qb.normalize import is_normalized, normalize_graph

__all__ = [
    "ConstraintCheck",
    "ConstraintReport",
    "check_constraint",
    "check_graph",
    "cube_constraint_checks",
    "is_normalized",
    "normalize_graph",
    "step_error_rates",
]
