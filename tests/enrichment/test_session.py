"""Enrichment workflow tests on the synthetic demo data."""

import pytest

from repro.data import small_demo
from repro.data.namespaces import PROPERTY, REF_PROP, SCHEMA
from repro.demo import PAPER_DIMENSION_NAMES
from repro.rdf.namespace import SDMX_DIMENSION, SDMX_MEASURE
from repro.qb4olap import vocabulary as qb4o
from repro.enrichment import (
    ATTRIBUTE,
    EnrichmentConfig,
    EnrichmentError,
    EnrichmentSession,
    LEVEL,
)
from tests.qb4olap.cube_rows import cube_graph, cube_report


@pytest.fixture
def session():
    demo = small_demo(observations=600)
    return EnrichmentSession(
        demo.endpoint, demo.dataset, demo.dsd,
        dimension_names=PAPER_DIMENSION_NAMES)


class TestRedefinition:
    def test_creates_one_dimension_per_qb_dimension(self, session):
        schema = session.redefine()
        assert len(schema.dimensions) == 6
        names = {d.iri.local_name() for d in schema.dimensions}
        assert "citizenshipDim" in names
        assert "timeDim" in names

    def test_bottom_levels_are_original_properties(self, session):
        schema = session.redefine()
        assert schema.bottom_level(SCHEMA.citizenshipDim) == PROPERTY.citizen
        assert schema.bottom_level(SCHEMA.timeDim) == \
            SDMX_DIMENSION.refPeriod

    def test_measures_get_aggregates(self, session):
        schema = session.redefine()
        assert schema.measure(SDMX_MEASURE.obsValue).aggregate == qb4o.SUM

    def test_members_collected(self, session):
        session.redefine()
        citizens = session.levels[PROPERTY.citizen].members
        assert len(citizens) > 5

    def test_phase_order_enforced(self, session):
        with pytest.raises(EnrichmentError):
            session.suggestions(PROPERTY.citizen)
        with pytest.raises(EnrichmentError):
            session.generate()

    def test_dsd_named_after_paper_convention(self, session):
        schema = session.redefine()
        assert schema.dsd.local_name().endswith("QB4O")


class TestSuggestions:
    def test_citizenship_candidates(self, session):
        session.redefine()
        candidates = session.suggestions(PROPERTY.citizen)
        by_prop = {c.prop: c for c in candidates}
        assert by_prop[REF_PROP.continent].kind == LEVEL
        assert by_prop[REF_PROP.countryName].kind == ATTRIBUTE
        assert by_prop[REF_PROP.population].kind == ATTRIBUTE

    def test_negative_case_sex_dimension(self, session):
        session.redefine()
        assert session.level_suggestions(PROPERTY.sex) == []

    def test_suggestions_cached(self, session):
        session.redefine()
        session.endpoint.reset_statistics()
        session.suggestions(PROPERTY.citizen)
        first_count = session.endpoint.statistics.selects
        session.suggestions(PROPERTY.citizen)
        assert session.endpoint.statistics.selects == first_count

    def test_unknown_level_raises(self, session):
        session.redefine()
        with pytest.raises(EnrichmentError):
            session.suggestions(SCHEMA.nothing)


class TestAddLevel:
    def test_add_level_updates_schema_and_members(self, session):
        session.redefine()
        candidates = session.level_suggestions(PROPERTY.citizen)
        continent = next(c for c in candidates
                         if c.prop == REF_PROP.continent)
        new_level = session.add_level(PROPERTY.citizen, continent)
        assert new_level == SCHEMA.continent
        hierarchy = session.schema.dimension(
            SCHEMA.citizenshipDim).hierarchies[0]
        assert new_level in hierarchy.levels
        assert hierarchy.step_between(PROPERTY.citizen, new_level)
        assert len(session.levels[new_level].members) >= 3

    def test_iterative_chain_time(self, session):
        session.redefine()
        quarter_cand = next(
            c for c in session.level_suggestions(SDMX_DIMENSION.refPeriod)
            if c.prop == REF_PROP.quarter)
        quarter = session.add_level(SDMX_DIMENSION.refPeriod, quarter_cand)
        year_cand = next(
            c for c in session.level_suggestions(quarter)
            if c.prop == REF_PROP.year)
        year = session.add_level(quarter, year_cand)
        hierarchy = session.schema.dimension(SCHEMA.timeDim).hierarchies[0]
        assert hierarchy.path_up(SDMX_DIMENSION.refPeriod, year) is not None
        assert len(session.levels[year].members) == 2

    def test_attribute_candidate_rejected_as_level(self, session):
        session.redefine()
        attribute = next(c for c in session.suggestions(PROPERTY.citizen)
                         if c.kind == ATTRIBUTE)
        with pytest.raises(EnrichmentError):
            session.add_level(PROPERTY.citizen, attribute)

    def test_conformed_level_shared_between_dimensions(self, session):
        session.redefine()
        cit = next(c for c in session.level_suggestions(PROPERTY.citizen)
                   if c.prop == REF_PROP.governmentKind)
        level1 = session.add_level(PROPERTY.citizen, cit)
        dest = next(c for c in session.level_suggestions(PROPERTY.geo)
                    if c.prop == REF_PROP.governmentKind)
        level2 = session.add_level(PROPERTY.geo, dest)
        assert level1 == level2  # shared, not governmentKind2


class TestAttributesAndAllLevels:
    def test_add_attribute(self, session):
        session.redefine()
        name = next(c for c in session.attribute_suggestions(PROPERTY.citizen)
                    if c.prop == REF_PROP.countryName)
        session.add_attribute(PROPERTY.citizen, name)
        assert REF_PROP.countryName in \
            session.schema.attributes_of(PROPERTY.citizen)

    def test_add_all_level(self, session):
        session.redefine()
        all_level = session.add_all_level(SCHEMA.citizenshipDim)
        assert all_level.local_name() == "citizenshipAll"
        state = session.levels[all_level]
        assert len(state.members) == 1
        hierarchy = session.schema.dimension(
            SCHEMA.citizenshipDim).hierarchies[0]
        assert all_level in hierarchy.top_levels()


class TestAutoEnrichAndGenerate:
    def test_full_flow_valid(self, session):
        session.redefine()
        schema = session.auto_enrich(
            max_depth=3, prefer=["continent", "quarter", "year"])
        report = session.generate()
        assert report.schema_triples > 0
        assert report.membership_triples > 0
        assert report.rollup_triples > 0
        report = cube_report(cube_graph(session.endpoint), schema.dsd)
        assert report.well_formed, report.violations

    def test_log_records_actions(self, session):
        session.redefine()
        session.auto_enrich(max_depth=1, prefer=["continent"])
        actions = {entry.action for entry in session.log}
        assert "redefine" in actions
        assert "add_level" in actions

    def test_describe_tree(self, session):
        session.redefine()
        session.auto_enrich(max_depth=2, prefer=["continent", "quarter"])
        text = session.describe()
        assert "citizenshipDim" in text
        assert "continent" in text
