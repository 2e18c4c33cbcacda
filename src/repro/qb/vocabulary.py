"""Terms of the W3C RDF Data Cube vocabulary (QB).

Convenience constants over :data:`repro.rdf.namespace.QB` so that code
reads like the spec: ``qb.DataStructureDefinition``, ``qb.component``,
``qb.dimension`` and so on — the terms the generators, the ETL and
the QB4OLAP reader / writer use.
"""

from __future__ import annotations

from repro.rdf.namespace import QB

# -- classes -----------------------------------------------------------------

DataSet = QB.DataSet
DataStructureDefinition = QB.DataStructureDefinition
Observation = QB.Observation
DimensionProperty = QB.DimensionProperty
MeasureProperty = QB.MeasureProperty
AttributeProperty = QB.AttributeProperty
SliceClass = QB.Slice

# -- properties ----------------------------------------------------------------

structure = QB.structure
component = QB.component
dimension = QB.dimension
measure = QB.measure
componentProperty = QB.componentProperty
order = QB.order
dataSet = QB.dataSet
