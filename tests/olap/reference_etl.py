"""The per-observation fact extractor: the ETL's test oracle.

This is the member-at-a-time walk ``repro.olap.etl`` shipped before the
columnar extractor replaced it (``subject_predicates`` per observation,
minimum :func:`~repro.olap.etl.deterministic_key` term per property).
It is the *semantics reference*: ``tests/olap/test_etl_vectorized.py``
requires the production extractor to be byte-identical to it.  Its
speed is not compared with anything (the extractor's is on the record
as ``star_50k``'s ``olap.etl_ms``).  Dimension tables come from the
production code — only the fact walk is independent.

:func:`reference_by_value` is the numbering ``_by_value`` shipped
before the dictionary kept value ranks: decode every subject, sort the
values in Python.
"""

from typing import List, Tuple

import numpy as np

from repro.olap.etl import (
    Locate,
    _locator,
    _measure_value,
    deterministic_key,
    extract_star_schema,
)
from repro.olap.star import FactTable, StarSchema
from repro.qb import vocabulary as qb


def reference_by_value(graph, predicate, obj
                       ) -> Tuple[List, List[int], Locate]:
    """``(terms, order, locate)``: the subjects of ``(?, predicate,
    obj)`` decoded in id order, ``terms[order[k]]`` numbered ``k`` by
    term value (a blank node's value is its ``str``), and the numbers
    found by id."""
    lookup = graph.dictionary.lookup
    predicate_id, object_id = lookup(predicate), lookup(obj)
    if predicate_id is None or object_id is None:
        ids = np.empty(0, dtype=np.int64)
    else:
        ids = np.sort(graph.match_arrays((None, predicate_id, object_id))[0])
    terms = list(map(graph.dictionary.decode, ids.tolist()))
    values = [str(getattr(term, "value", term)) for term in terms]
    order = sorted(range(len(values)), key=values.__getitem__)
    numbers = np.empty(len(values), dtype=np.int64)
    numbers[order] = np.arange(len(values))
    return terms, order, _locator(ids, numbers)


def reference_facts(graph, schema, star: StarSchema) -> FactTable:
    dimension_order = sorted(star.dimensions, key=lambda iri: iri.value)
    bottoms = {iri: schema.bottom_level(iri) for iri in dimension_order}
    observations = list(graph.subjects(qb.dataSet, schema.dataset))
    observations.sort(key=lambda t: getattr(t, "value", str(t)))
    n = len(observations)

    coordinate_arrays = {
        iri: np.full(n, -1, dtype=np.int64) for iri in dimension_order}
    measure_arrays = {
        measure.iri: np.full(n, np.nan, dtype=np.float64)
        for measure in schema.measures}

    for row, observation in enumerate(observations):
        properties = graph.subject_predicates(observation)
        for iri in dimension_order:
            bottom_prop = bottoms[iri]
            values = properties.get(bottom_prop)
            if values:
                code = star.dimensions[iri].bottom_code(
                    min(values, key=deterministic_key))
                if code is not None:
                    coordinate_arrays[iri][row] = code
        for measure in schema.measures:
            values = properties.get(measure.iri)
            if values:
                term = min(values, key=deterministic_key)
                measure_arrays[measure.iri][row] = _measure_value(term)

    return FactTable(coordinates=coordinate_arrays,
                     measures=measure_arrays)


def reference_star_schema(endpoint, schema) -> StarSchema:
    """The production dimension tables with the fact table rebuilt by
    the per-observation walk."""
    star, _ = extract_star_schema(endpoint, schema)
    star.facts = reference_facts(endpoint.dataset.union(), schema, star)
    return star
