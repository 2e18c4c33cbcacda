"""DRILL-ACROSS (Cube Algebra extension) tests."""

import pytest

from repro.rdf.terms import IRI, Literal
from repro.sparql.results import ResultTable
from repro.ql.cube import ResultCube
from repro.ql.drillacross import (
    DrillAcrossError,
    drill_across,
    shared_axes,
)
from repro.ql.translator import DimensionBinding, TranslationMetadata

EX = "http://example.org/"


def iri(local: str) -> IRI:
    return IRI(EX + local)


def make_cube(axis_specs, measure_specs, rows) -> ResultCube:
    """Build a ResultCube directly from axis/measure specs and rows.

    ``axis_specs``: [(dimension, level, column)], ``measure_specs``:
    [(measure IRI, column)].
    """
    bindings = [
        DimensionBinding(dimension=dim, bottom_level=level,
                         final_level=level, levels=[level],
                         variables=[column])
        for dim, level, column in axis_specs
    ]
    metadata = TranslationMetadata(
        dimensions=bindings,
        measure_aliases={measure: column
                         for measure, column in measure_specs},
        group_variables=[column for _, _, column in axis_specs])
    names = [column for _, _, column in axis_specs] \
        + [column for _, column in measure_specs]
    table = ResultTable(names, rows)
    return ResultCube(table, metadata)


@pytest.fixture()
def applications() -> ResultCube:
    return make_cube(
        [(iri("citDim"), iri("continent"), "cont"),
         (iri("timeDim"), iri("year"), "year")],
        [(iri("applications"), "apps")],
        [
            (iri("africa"), Literal("2013"), Literal(100)),
            (iri("africa"), Literal("2014"), Literal(150)),
            (iri("asia"), Literal("2013"), Literal(200)),
        ])


@pytest.fixture()
def decisions() -> ResultCube:
    return make_cube(
        [(iri("citDim"), iri("continent"), "cont"),
         (iri("timeDim"), iri("year"), "year")],
        [(iri("decisions"), "dec")],
        [
            (iri("africa"), Literal("2013"), Literal(40)),
            (iri("asia"), Literal("2013"), Literal(90)),
            (iri("europe"), Literal("2013"), Literal(10)),
        ])


class TestSharedAxes:
    def test_full_conformance(self, applications, decisions):
        pairs = shared_axes(applications, decisions)
        assert len(pairs) == 2

    def test_level_mismatch_not_shared(self, applications):
        other = make_cube(
            [(iri("citDim"), iri("country"), "c"),
             (iri("timeDim"), iri("year"), "y")],
            [(iri("decisions"), "dec")], [])
        pairs = shared_axes(applications, other)
        assert len(pairs) == 1  # only the time axis conforms


class TestDrillAcross:
    def test_inner_join_keeps_matching_cells(self, applications, decisions):
        cube = drill_across(applications, decisions)
        assert len(cube) == 2  # africa/2013 and asia/2013
        assert cube.value(iri("applications"),
                          iri("africa"), Literal("2013")) == 100
        assert cube.value(iri("decisions"),
                          iri("africa"), Literal("2013")) == 40

    def test_left_join_keeps_all_left_cells(self, applications, decisions):
        cube = drill_across(applications, decisions, join="left")
        assert len(cube) == 3
        cell = cube.cell(iri("africa"), Literal("2014"))
        assert cell is not None
        # right measure unbound where decisions has no cell
        dec_column = cube.measures[iri("decisions")]
        assert cell[dec_column] is None

    def test_axes_preserved(self, applications, decisions):
        cube = drill_across(applications, decisions)
        assert [str(axis) for axis in cube.axes] == [
            "citDim@continent", "timeDim@year"]

    def test_measures_from_both_sides(self, applications, decisions):
        cube = drill_across(applications, decisions)
        assert iri("applications") in cube.measures
        assert iri("decisions") in cube.measures

    def test_same_measure_iri_gets_suffixed(self, applications):
        same_measure = make_cube(
            [(iri("citDim"), iri("continent"), "cont"),
             (iri("timeDim"), iri("year"), "year")],
            [(iri("applications"), "apps")],
            [(iri("africa"), Literal("2013"), Literal(7))])
        cube = drill_across(applications, same_measure,
                            suffixes=("_a", "_b"))
        assert iri("applications") in cube.measures
        assert IRI(EX + "applications_b") in cube.measures
        columns = set(cube.measures.values())
        assert len(columns) == 2  # no column collision

    def test_no_shared_axes_raises(self, applications):
        other = make_cube(
            [(iri("sexDim"), iri("sex"), "s")],
            [(iri("decisions"), "dec")], [])
        with pytest.raises(DrillAcrossError, match="share no"):
            drill_across(applications, other)

    def test_granularity_mismatch_raises(self, applications):
        finer = make_cube(
            [(iri("citDim"), iri("continent"), "cont"),
             (iri("timeDim"), iri("year"), "year"),
             (iri("sexDim"), iri("sex"), "s")],
            [(iri("decisions"), "dec")], [])
        with pytest.raises(DrillAcrossError, match="granularity"):
            drill_across(applications, finer)

    def test_unknown_join_mode_raises(self, applications, decisions):
        with pytest.raises(DrillAcrossError, match="join mode"):
            drill_across(applications, decisions, join="outer")

    def test_derived_metric_from_joined_measures(self, applications,
                                                 decisions):
        """The motivating analysis: acceptance rate = dec/apps."""
        cube = drill_across(applications, decisions)
        apps = cube.value(iri("applications"), iri("africa"),
                          Literal("2013"))
        dec = cube.value(iri("decisions"), iri("africa"), Literal("2013"))
        assert dec / apps == pytest.approx(0.4)


class TestTwoCubeIntegration:
    """End-to-end: both demo cubes enriched in one endpoint."""

    @pytest.fixture(scope="class")
    def demo(self):
        from repro.demo import prepare_two_cube_demo
        return prepare_two_cube_demo(observations=1_500,
                                     decision_observations=1_000,
                                     small=True)

    def test_conformed_dimensions(self, demo):
        apps_dims = {d.iri for d in demo.applications.schema.dimensions}
        dec_dims = {d.iri for d in demo.decisions.schema.dimensions}
        shared = apps_dims & dec_dims
        assert len(shared) == 5  # citizenship/destination/time/sex/age

    def test_execute_drill_across(self, demo):
        from repro.demo import (
            APPLICATIONS_BY_CONTINENT_YEAR_QL,
            DECISIONS_BY_CONTINENT_YEAR_QL,
        )
        from repro.ql.drillacross import execute_drill_across
        result = execute_drill_across(
            demo.applications.engine, demo.decisions.engine,
            APPLICATIONS_BY_CONTINENT_YEAR_QL,
            DECISIONS_BY_CONTINENT_YEAR_QL,
            suffixes=("_apps", "_dec"))
        assert len(result.cube) > 0
        assert len(result.cube.axes) == 2
        assert len(result.cube.measures) == 2

    def test_catalog_lists_both_cubes(self, demo):
        from repro.exploration.catalog import list_cubes
        names = {entry.dataset.local_name()
                 for entry in list_cubes(demo.endpoint)}
        assert "migr_asyappctzm" in names
        assert "migr_asydcfstq" in names

    def test_explorer_lists_each_cubes_own_dimensions(self, demo):
        """The two cubes share one schema graph; reading one of them
        returns the dimensions its DSD's levels reach, and no other."""
        from repro.exploration.explorer import CubeExplorer
        for cube in (demo.applications, demo.decisions):
            explorer = CubeExplorer(demo.endpoint, cube.data.dataset,
                                    cube.schema.dsd)
            names = sorted(dimension.iri.local_name()
                           for dimension in explorer.dimensions())
            assert names == sorted(dimension.iri.local_name()
                                   for dimension in cube.schema.dimensions)
        decisions = CubeExplorer(demo.endpoint, demo.decisions.data.dataset)
        assert sorted(dimension.iri.local_name()
                      for dimension in decisions.dimensions()) == [
            "ageDim", "citizenshipDim", "decisionDim", "destinationDim",
            "sexDim", "timeDim"]
