"""QL execution tests: both variants, fallback, result cubes."""

import pytest

from repro.data.namespaces import PROPERTY, REF_PROP, SCHEMA
from repro.demo import CONTINENT_LEVEL, MARY_QL, YEAR_LEVEL
from repro.rdf.namespace import SDMX_MEASURE
from repro.sparql import EndpointLimits
from repro.sparql.errors import QueryExecutionError
from repro.ql import QLBuilder, QLEngine, attr, measure
from repro.testing import faults


def rows_as_set(table):
    return sorted(map(str, table.rows))


class TestExecution:
    def test_variants_agree_on_demo_query(self, engine):
        results = engine.execute_both(MARY_QL)
        assert rows_as_set(results["direct"].table) == \
            rows_as_set(results["optimized"].table)

    def test_variants_agree_on_rollup_only_query(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.ageDim)
                   .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                   .build())
        results = engine.execute_both(program)
        assert len(results["direct"].table) > 0
        assert rows_as_set(results["direct"].table) == \
            rows_as_set(results["optimized"].table)

    def test_measure_dice_variants_agree(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .slice(SCHEMA.destinationDim)
                   .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                   .rollup(SCHEMA.timeDim, YEAR_LEVEL)
                   .dice(measure(SDMX_MEASURE.obsValue) > 50)
                   .build())
        results = engine.execute_both(program)
        assert rows_as_set(results["direct"].table) == \
            rows_as_set(results["optimized"].table)
        for row in results["direct"].table.to_python():
            assert row["obsValue"] > 50

    def test_report_fields(self, engine):
        result = engine.execute(MARY_QL, variant="direct")
        report = result.report
        assert report.variant == "direct"
        assert report.total_seconds > 0
        assert report.sparql_lines > 0
        assert report.simplification is not None

    def test_unknown_variant_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.execute(MARY_QL, variant="quantum")

    def test_auto_falls_back_when_having_forbidden(self, enriched, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .slice(SCHEMA.destinationDim)
                   .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                   .dice(measure(SDMX_MEASURE.obsValue) > 10)
                   .build())
        engine = enriched.engine
        baseline = engine.execute(program, variant="direct")
        enriched.endpoint.limits.forbid_having = True
        try:
            result = engine.execute(program, variant="auto")
            assert "fallback" in result.report.variant
            assert rows_as_set(result.table) == rows_as_set(baseline.table)
        finally:
            enriched.endpoint.limits.forbid_having = False

    def test_auto_does_not_fall_back_on_an_internal_error(self, engine):
        """An engine failure is not a capability limit: ``auto``
        re-raises it and runs no second translation."""
        with faults.failpoint("evaluator.step", raises=KeyError) as point:
            with pytest.raises(QueryExecutionError):
                engine.execute(MARY_QL, variant="auto")
        assert point.fired == 1

    @pytest.mark.parametrize("variant", ["direct", "optimized"])
    def test_explicit_variant_raises_an_internal_error(self, engine,
                                                       variant):
        with faults.failpoint("evaluator.step", raises=ValueError):
            with pytest.raises(QueryExecutionError) as info:
                engine.execute(MARY_QL, variant=variant)
        translation = engine.prepare(MARY_QL)[3]
        assert info.value.query == getattr(translation, variant)
        assert isinstance(info.value.__cause__, ValueError)

    def test_engine_answers_after_an_internal_error(self, engine):
        expected = rows_as_set(engine.execute(MARY_QL, variant="auto").table)
        with faults.failpoint("evaluator.step", raises=KeyError):
            with pytest.raises(QueryExecutionError):
                engine.execute(MARY_QL, variant="auto")
        result = engine.execute(MARY_QL, variant="auto")
        assert result.report.variant == "direct"
        assert rows_as_set(result.table) == expected


class TestResultCube:
    def test_cube_axes_and_cells(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .slice(SCHEMA.destinationDim)
                   .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                   .rollup(SCHEMA.timeDim, YEAR_LEVEL)
                   .build())
        cube = engine.execute(program).cube
        assert len(cube.axes) == 2
        axis_dims = {axis.dimension for axis in cube.axes}
        assert axis_dims == {SCHEMA.citizenshipDim, SCHEMA.timeDim}
        assert len(cube) == len(cube.coordinates())
        some = cube.coordinates()[0]
        cell = cube.cell(*some)
        assert "obsValue" in cell

    def test_cube_value_accessor(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .slice(SCHEMA.destinationDim)
                   .slice(SCHEMA.citizenshipDim)
                   .rollup(SCHEMA.timeDim, YEAR_LEVEL)
                   .build())
        cube = engine.execute(program).cube
        total = sum(
            cube.value(SDMX_MEASURE.obsValue, coord)
            for coord in cube.members(0))
        assert total == pytest.approx(cube.totals()[SDMX_MEASURE.obsValue])

    def test_pivot_rendering(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                   .rollup(SCHEMA.timeDim, YEAR_LEVEL)
                   .build())
        cube = engine.execute(program).cube
        text = cube.pivot(row_axis=0, column_axis=2)
        assert "2013" in text and "2014" in text

    def test_to_text(self, engine):
        cube = engine.execute(MARY_QL).cube
        assert "Cube [" in cube.to_text()

    def test_scalar_cube(self, engine, schema):
        program = (QLBuilder(schema.dataset)
                   .slice(SCHEMA.asylappDim)
                   .slice(SCHEMA.sexDim)
                   .slice(SCHEMA.ageDim)
                   .slice(SCHEMA.destinationDim)
                   .slice(SCHEMA.citizenshipDim)
                   .slice(SCHEMA.timeDim)
                   .build())
        cube = engine.execute(program).cube
        assert len(cube.axes) == 0
        assert len(cube) == 1
        assert cube.totals()[SDMX_MEASURE.obsValue] > 0
