"""Columnar-ETL tests: production/oracle equivalence, determinism
regressions (hash-order multi-value picks, multi-target roll-ups),
missing-value sentinels, and the FactColumns snapshot layout."""

import numpy as np
import pytest

from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
)
from repro.rdf import IRI, Literal, Namespace
from repro.rdf.namespace import SKOS
from repro.sparql import LocalEndpoint
from repro.olap.etl import deterministic_key, extract_star_schema
from repro.olap.star import FactColumns, _code_dtype

from tests.olap.reference_etl import reference_star_schema

EX = Namespace("http://example.org/etl/")


def tiny_schema() -> CubeSchema:
    schema = CubeSchema(dsd=EX.dsd, dataset=EX.ds)
    hierarchy = Hierarchy(EX.geoHier, EX.geoDim,
                          levels=[EX.city, EX.region],
                          steps=[HierarchyStep(EX.city, EX.region)])
    schema.dimensions.append(Dimension(EX.geoDim, [hierarchy]))
    schema.dimension_levels[EX.geoDim] = EX.city
    schema.measures.append(Measure(EX.amount, qb4o.SUM))
    return schema


def tiny_endpoint(order: str = "forward") -> LocalEndpoint:
    """A two-observation cube; ``order`` flips the insertion order of
    the multi-valued triples so hash/insertion order cannot hide a
    nondeterministic pick."""
    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    for member in (EX.cityA, EX.cityB):
        graph.add(member, qb4o.memberOf, EX.city)
    for member in (EX.regionX, EX.regionY):
        graph.add(member, qb4o.memberOf, EX.region)
    # cityA rolls up to BOTH regions (dirty data): the extractor must
    # deterministically keep the minimum-key target, never hash order
    broader = [(EX.cityA, EX.regionY), (EX.cityA, EX.regionX),
               (EX.cityB, EX.regionY)]
    # obs1 carries TWO values for the dimension and TWO for the measure
    multi = [(EX.obs1, EX.city, EX.cityB), (EX.obs1, EX.city, EX.cityA),
             (EX.obs1, EX.amount, Literal(7)), (EX.obs1, EX.amount,
                                                Literal(3))]
    if order == "reversed":
        broader = list(reversed(broader))
        multi = list(reversed(multi))
    for subject, target in broader:
        graph.add(subject, SKOS.broader, target)
    graph.add(EX.obs1, qb.dataSet, EX.ds)
    for subject, predicate, obj in multi:
        graph.add(subject, predicate, obj)
    graph.add(EX.obs2, qb.dataSet, EX.ds)
    graph.add(EX.obs2, EX.city, EX.cityB)
    # obs2 has NO measure value at all (NaN sentinel)
    return endpoint


def production(endpoint, schema):
    return extract_star_schema(endpoint, schema)[0]


def oracle(endpoint, schema):
    return reference_star_schema(endpoint, schema)[0]


#: the production extractor and the per-observation oracle must obey
#: the same determinism / sentinel contract
EXTRACTORS = [production, oracle]


def assert_identical(left, right):
    assert set(left.facts.coordinates) == set(right.facts.coordinates)
    for iri, codes in left.facts.coordinates.items():
        assert np.array_equal(codes, right.facts.coordinates[iri]), iri
    for iri, values in left.facts.measures.items():
        assert np.array_equal(values, right.facts.measures[iri],
                              equal_nan=True), iri


class TestVectorizedEquivalence:
    def test_matches_reference_on_demo(self, endpoint, schema):
        assert_identical(production(endpoint, schema),
                         oracle(endpoint, schema))

    def test_matches_reference_on_dirty_cube(self):
        endpoint = tiny_endpoint()
        assert_identical(production(endpoint, tiny_schema()),
                         oracle(endpoint, tiny_schema()))
        endpoint.close()


class TestDeterminism:
    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_multivalued_picks_minimum_key(self, extract):
        """Regression: the extractor used to take ``next(iter(set))``
        for multi-valued observation properties — hash order."""
        for order in ("forward", "reversed"):
            endpoint = tiny_endpoint(order)
            star = extract(endpoint, tiny_schema())
            table = star.dimensions[EX.geoDim]
            codes = star.facts.coordinates[EX.geoDim]
            # obs1's dimension value: cityA < cityB by deterministic key
            assert table.bottom_members[codes[0]] == EX.cityA, order
            # obs1's measure value: Literal(3) < Literal(7)
            assert star.facts.measures[EX.amount][0] == 3.0, order
            endpoint.close()

    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_rollup_picks_minimum_broader_target(self, extract):
        """Regression: ``_compose_rollups`` used to keep the first
        ``skos:broader`` target iteration happened to yield."""
        for order in ("forward", "reversed"):
            endpoint = tiny_endpoint(order)
            star = extract(endpoint, tiny_schema())
            table = star.dimensions[EX.geoDim]
            ancestor = table.map_to_level(EX.region)
            members = table.members_at(EX.region)
            code_a = table.bottom_code(EX.cityA)
            # regionX < regionY: the minimum-key parent must win
            assert members[ancestor[code_a]] == EX.regionX, order
            endpoint.close()

    def test_byte_identical_across_runs(self):
        first_endpoint = tiny_endpoint("forward")
        second_endpoint = tiny_endpoint("reversed")
        first, _ = extract_star_schema(first_endpoint, tiny_schema())
        second, _ = extract_star_schema(second_endpoint, tiny_schema())
        for iri in first.facts.coordinates:
            assert first.facts.coordinates[iri].tobytes() \
                == second.facts.coordinates[iri].tobytes()
        for iri in first.facts.measures:
            assert first.facts.measures[iri].tobytes() \
                == second.facts.measures[iri].tobytes()
        first_endpoint.close()
        second_endpoint.close()

    def test_deterministic_key_orders_by_class_then_value(self):
        assert deterministic_key(Literal(3)) < deterministic_key(Literal(7))
        assert deterministic_key(IRI("a")) < deterministic_key(IRI("b"))


class TestMissingValueSentinels:
    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_missing_measure_is_nan(self, extract):
        endpoint = tiny_endpoint()
        star = extract(endpoint, tiny_schema())
        values = star.facts.measures[EX.amount]
        assert np.isnan(values[1])  # obs2 has no amount
        endpoint.close()

    @pytest.mark.parametrize("extract", EXTRACTORS)
    def test_non_member_value_is_minus_one(self, extract):
        endpoint = tiny_endpoint()
        graph = endpoint.dataset.default
        graph.add(EX.obs3, qb.dataSet, EX.ds)
        graph.add(EX.obs3, EX.city, EX.nowhere)  # not a city member
        star = extract(endpoint, tiny_schema())
        assert star.facts.coordinates[EX.geoDim][2] == -1
        assert np.isnan(star.facts.measures[EX.amount][2])
        endpoint.close()


class TestFactColumns:
    def test_narrowing_and_roundtrip(self):
        endpoint = tiny_endpoint()
        star, _ = extract_star_schema(endpoint, tiny_schema())
        columns = star.fact_columns()
        assert columns.rows == star.facts.size
        assert columns.coordinates[EX.geoDim].dtype == np.int8
        assert columns.measures[EX.amount].dtype == np.float64
        assert not columns.coordinates[EX.geoDim].flags.writeable
        widened = columns.widened()
        assert_identical_tables = star.facts
        assert np.array_equal(widened.coordinates[EX.geoDim],
                              assert_identical_tables.coordinates[EX.geoDim])
        assert np.array_equal(widened.measures[EX.amount],
                              assert_identical_tables.measures[EX.amount],
                              equal_nan=True)
        assert columns.nbytes > 0
        endpoint.close()

    def test_code_dtype_guarded_narrowing(self):
        assert _code_dtype(100) == np.dtype(np.int8)
        assert _code_dtype(1000) == np.dtype(np.int16)
        assert _code_dtype(100_000) == np.dtype(np.int32)
        assert _code_dtype(2**40) == np.dtype(np.int64)
        # the ceiling itself must fit, sentinel included
        assert _code_dtype(np.iinfo(np.int8).max) == np.dtype(np.int8)
        assert _code_dtype(np.iinfo(np.int8).max + 1) == np.dtype(np.int16)

    def test_shm_export_attach_roundtrip(self):
        from repro.rdf import shm
        endpoint = tiny_endpoint()
        star, _ = extract_star_schema(endpoint, tiny_schema())
        star = type(star)(dataset=star.dataset, dimensions=star.dimensions,
                          facts=star.facts,
                          measure_aggregates=star.measure_aggregates,
                          epoch=7)
        columns = star.fact_columns()
        assert columns.epoch == 7
        arrays = {f"c:{EX.geoDim.value}": columns.coordinates[EX.geoDim],
                  f"m:{EX.amount.value}": columns.measures[EX.amount]}
        segment, manifest = shm.export_arrays(
            arrays, f"{shm.SEGMENT_PREFIX}test_facts_roundtrip", epoch=7)
        try:
            assert manifest.epoch == 7
            attached_segment, views = shm.attach_arrays(manifest)
            try:
                for key, array in arrays.items():
                    assert np.array_equal(views[key], array, equal_nan=True)
                    assert not views[key].flags.writeable
            finally:
                attached_segment.close()
        finally:
            segment.close()
            segment.unlink()
        endpoint.close()

    def test_shm_views_are_aligned_for_odd_row_counts(self):
        """Regression: arrays used to be laid back-to-back, so int8 /
        int16 codes ahead of a float64 measure left its view unaligned
        whenever the row count was not a multiple of 8."""
        from repro.rdf import shm
        for rows in (1, 3, 7, 9):
            arrays = {"c:a": np.arange(rows, dtype=np.int8),
                      "m:v": np.arange(rows, dtype=np.float64),
                      "c:b": np.arange(rows, dtype=np.int16),
                      "c:c": np.arange(rows, dtype=np.int32),
                      "m:w": np.full(rows, np.nan)}
            segment, manifest = shm.export_arrays(
                arrays, f"{shm.SEGMENT_PREFIX}test_aligned_{rows}")
            try:
                attached_segment, views = shm.attach_arrays(manifest)
                try:
                    end = 0
                    for spec in manifest.arrays:
                        view = views[spec.key]
                        assert view.flags.aligned, (rows, spec)
                        assert np.array_equal(view, arrays[spec.key],
                                              equal_nan=True)
                        assert spec.offset >= end  # no overlap
                        end = spec.offset + view.nbytes
                    assert manifest.nbytes >= end  # covers the payload
                finally:
                    attached_segment.close()
            finally:
                segment.close()
                segment.unlink()
