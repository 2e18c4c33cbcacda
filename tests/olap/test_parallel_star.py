"""Parallel star aggregation: serial/parallel equivalence on one
pinned shared-memory fact snapshot, morsel-size fuzz, lifecycle and
segment hygiene."""

import dataclasses
import math
import multiprocessing
import os
import random
import signal

import pytest

from repro.data.namespaces import REF_PROP, SCHEMA
from repro.demo import CONTINENT_LEVEL, QUARTER_LEVEL, YEAR_LEVEL
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.rdf.namespace import SDMX_MEASURE
from repro.ql import QLBuilder, all_of, any_of, attr, measure, negate, \
    simplify
from repro.olap import NativeOLAPEngine, extract_star_schema
from repro.olap.errors import OLAPEngineError
from repro.olap.parallel import ParallelStarAggregator


def assert_same_cells(serial, parallel):
    assert serial.dimension_order == parallel.dimension_order
    assert serial.axis_levels == parallel.axis_levels
    assert set(serial.cells) == set(parallel.cells)
    for key, cell in serial.cells.items():
        other = parallel.cells[key]
        assert set(cell) == set(other), key
        for measure_iri, value in cell.items():
            assert math.isclose(value, other[measure_iri],
                                rel_tol=1e-9, abs_tol=1e-9), \
                (key, measure_iri)


def base(schema):
    return (QLBuilder(schema.dataset)
            .slice(SCHEMA.asylappDim)
            .slice(SCHEMA.ageDim)
            .slice(SCHEMA.sexDim))


def programs(schema):
    continent_name = attr(SCHEMA.citizenshipDim, CONTINENT_LEVEL,
                          REF_PROP.continentName)
    return [
        # rollup only
        (base(schema)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, QUARTER_LEVEL)
         .build()),
        # attribute dice
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(continent_name == "Asia")
         .build()),
        # NOT over a dice that also misses unmapped members
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, YEAR_LEVEL)
         .dice(negate(continent_name == "Asia"))
         .build()),
        # AND/OR nesting
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, YEAR_LEVEL)
         .dice(any_of(continent_name == "Asia",
                      all_of(continent_name != "Africa",
                             continent_name != "Europe")))
         .build()),
        # measure dice (post-aggregation, evaluated in the parent)
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(measure(SDMX_MEASURE.obsValue) > 100)
         .build()),
        # mixed measure + attribute dice
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(all_of(continent_name != "Asia",
                      measure(SDMX_MEASURE.obsValue) > 50))
         .build()),
        # scalar (GROUP BY nothing)
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .slice(SCHEMA.citizenshipDim)
         .build()),
    ]


@pytest.fixture(scope="module")
def aggregator(star):
    aggregator = ParallelStarAggregator(star.star, workers=2,
                                        morsel_rows=190)
    yield aggregator
    aggregator.close()


class TestSerialParallelEquivalence:
    def test_all_program_shapes(self, star, schema, aggregator):
        for index, program in enumerate(programs(schema)):
            simplified = simplify(program, schema)
            serial = star.evaluate(simplified)
            parallel = aggregator.evaluate(simplified)
            assert len(serial.cells) > 0 or index >= 99, index
            assert_same_cells(serial, parallel)

    def test_morsel_size_fuzz(self, star, schema, aggregator):
        """Seeded fuzz: group splits across morsel boundaries must
        never change a cell."""
        rng = random.Random(0xE9)
        simplifieds = [simplify(program, schema)
                       for program in programs(schema)]
        serials = [star.evaluate(simplified)
                   for simplified in simplifieds]
        original = aggregator.morsel_rows
        try:
            for _ in range(6):
                aggregator.morsel_rows = rng.randint(1, 400)
                pick = rng.randrange(len(simplifieds))
                parallel = aggregator.evaluate(simplifieds[pick])
                assert_same_cells(serials[pick], parallel)
        finally:
            aggregator.morsel_rows = original

    def test_scalar_over_zero_facts(self):
        """Scalar query where the keep mask drops every fact: both
        engines must still emit the single no-GROUP-BY cell."""
        from tests.olap.test_engine_errors import edge_cube

        endpoint, schema = edge_cube()
        try:
            star_schema, _ = extract_star_schema(endpoint, schema)
            serial = NativeOLAPEngine(star_schema)
            aggregator = ParallelStarAggregator(star_schema, workers=2,
                                                morsel_rows=1)
            try:
                program = (QLBuilder(schema.dataset)
                           .slice(next(iter(schema.dimension_levels)))
                           .build())
                simplified = simplify(program, schema)
                serial_result = serial.evaluate(simplified)
                parallel_result = aggregator.evaluate(simplified)
                assert len(serial_result.cells) == 1
                assert_same_cells(serial_result, parallel_result)
            finally:
                aggregator.close()
        finally:
            endpoint.close()


class TestLifecycle:
    def test_segment_pinned_only_during_queries(self, star, schema,
                                                aggregator):
        program = programs(schema)[0]
        simplified = simplify(program, schema)
        aggregator.evaluate(simplified)
        # between queries the export stays cached but refcounted; after
        # close() nothing may remain (checked again module-wide by the
        # autouse hygiene fixture)
        assert aggregator.telemetry["queries"] >= 1
        assert aggregator.telemetry["morsels"] >= 1

    def test_close_is_idempotent_and_releases_segments(self, star, schema):
        before = set(SHM_SEGMENTS.segment_names())
        aggregator = ParallelStarAggregator(star.star, workers=1,
                                            morsel_rows=500)
        aggregator.evaluate(simplify(programs(schema)[0], schema))
        assert set(SHM_SEGMENTS.segment_names()) > before  # export cached
        aggregator.close()
        aggregator.close()
        # everything THIS aggregator exported is gone; the shared
        # module fixture's cached export (if any) is untouched
        assert set(SHM_SEGMENTS.segment_names()) == before

    def test_describe_names_the_aggregate_spec(self, star, schema,
                                               aggregator):
        simplified = simplify(programs(schema)[0], schema)
        line = aggregator.describe(simplified)
        assert line.startswith("parallel-olap: workers=2 ")
        assert "agg=SUM(obsValue)" in line
        assert f"epoch={star.star.epoch}" in line


class TestWorkerFailures:
    def test_worker_exception_is_typed(self, star, schema, monkeypatch):
        """Regression: a worker-side failure that is not a process
        death (here: the manifest names a segment that is gone) used
        to escape ``evaluate`` as the raw ``FileNotFoundError``."""
        from repro.rdf import shm

        before = set(SHM_SEGMENTS.segment_names())
        simplified = simplify(programs(schema)[0], schema)
        aggregator = ParallelStarAggregator(star.star, workers=1,
                                            morsel_rows=500)
        export_arrays = shm.export_arrays

        def vanished(arrays, name, epoch=0):
            segment, manifest = export_arrays(arrays, name, epoch=epoch)
            return segment, dataclasses.replace(
                manifest, segment=name + "_gone")

        try:
            monkeypatch.setattr(shm, "export_arrays", vanished)
            with pytest.raises(OLAPEngineError) as excinfo:
                aggregator.evaluate(simplified)
            assert isinstance(excinfo.value.__cause__, FileNotFoundError)
            monkeypatch.undo()
            # the failed query released its pin: retiring the export
            # unlinks it rather than waiting on a pin that never drains
            aggregator.close()
            assert set(SHM_SEGMENTS.segment_names()) == before
            assert_same_cells(star.evaluate(simplified),
                              aggregator.evaluate(simplified))
        finally:
            aggregator.close()
        assert set(SHM_SEGMENTS.segment_names()) == before

    def test_killed_workers_cost_one_typed_error(self, star, schema):
        """SIGKILL every worker between two queries: the next query
        fails typed, the one after it runs on a rebuilt pool, and
        ``close()`` leaves the registry as it found it."""
        before = set(SHM_SEGMENTS.segment_names())
        simplified = simplify(programs(schema)[0], schema)
        others = set(multiprocessing.active_children())
        aggregator = ParallelStarAggregator(star.star, workers=2,
                                            morsel_rows=300)
        try:
            original = aggregator.evaluate(simplified)
            workers = set(multiprocessing.active_children()) - others
            assert workers
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
            # the pool's manager thread reaps dead workers too: whoever
            # loses that waitpid race sees the exit code only once the
            # winner has stored it, so poll instead of trusting one join
            for worker in workers:
                for _ in range(1000):
                    if not worker.is_alive():
                        break
                    worker.join(timeout=0.01)
                assert not worker.is_alive()
            with pytest.raises(OLAPEngineError):
                aggregator.evaluate(simplified)
            assert_same_cells(original, aggregator.evaluate(simplified))
        finally:
            aggregator.close()
        assert set(SHM_SEGMENTS.segment_names()) == before
