"""The QB4OLAP layer: multidimensional schemas over QB data.

Models the QB4OLAP vocabulary — dimension levels, hierarchies with
roll-up steps and cardinalities, level attributes and members, and
measures with aggregate functions — plus graph readers/writers.  The
QB4OLAP checks are rows of the constraint table in
:mod:`repro.qb.constraints`.
"""

from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Level,
    Measure,
    SchemaError,
)
from repro.qb4olap.reader import read_cube_schema
from repro.qb4olap.writer import member_triples, schema_triples, write_schema

__all__ = [
    "CubeSchema",
    "Dimension",
    "Hierarchy",
    "HierarchyStep",
    "Level",
    "Measure",
    "SchemaError",
    "member_triples",
    "read_cube_schema",
    "schema_triples",
    "write_schema",
]
