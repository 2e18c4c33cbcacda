"""End-to-end integration: QB data → enrichment → exploration → QL.

Mirrors the demo storyline of the paper's §IV on a fresh (non-shared)
endpoint so the full flow, including generation, is exercised from
scratch.
"""

import pytest

from repro.data import small_demo
from repro.data.namespaces import (
    INSTANCE_GRAPH,
    PROPERTY,
    QB_GRAPH,
    REF_PROP,
    SCHEMA,
    SCHEMA_GRAPH,
)
from repro.demo import (
    CONTINENT_LEVEL,
    MARY_QL,
    POLITICAL_QL,
    YEAR_LEVEL,
    enrich,
)
from repro.exploration import CubeExplorer, InstanceBrowser, list_cubes
from repro.olap import NativeOLAPEngine, compare_results, extract_star_schema
from repro.qb import check_graph, normalize_graph
from repro.rdf.namespace import SDMX_MEASURE
from tests.qb4olap.cube_rows import cube_graph, cube_report


@pytest.fixture(scope="module")
def fresh():
    return enrich(small_demo(observations=1200, seed=21))


class TestFullPipeline:
    def test_input_qb_graph_well_formed(self, fresh):
        # well-formed but for IC-4: the dimensions declare no rdfs:range
        working = fresh.endpoint.graph(QB_GRAPH).copy()
        normalize_graph(working)
        assert check_graph(working).violations == ["IC-4"]

    def test_named_graph_layout(self, fresh):
        sizes = fresh.endpoint.graph_sizes()
        assert sizes[QB_GRAPH.value] > 0
        assert sizes[SCHEMA_GRAPH.value] > 0
        assert sizes[INSTANCE_GRAPH.value] > 0

    def test_generated_schema_valid(self, fresh):
        report = cube_report(cube_graph(fresh.endpoint), fresh.schema.dsd)
        assert report.well_formed, report.violations

    def test_exploration_sees_the_cube(self, fresh):
        cubes = list_cubes(fresh.endpoint)
        assert [c.dataset for c in cubes] == [fresh.data.dataset]
        explorer = CubeExplorer(fresh.endpoint, fresh.data.dataset)
        assert CONTINENT_LEVEL in explorer.levels(SCHEMA.citizenshipDim)

    def test_clusters_cover_all_citizens(self, fresh):
        explorer = CubeExplorer(fresh.endpoint, fresh.data.dataset)
        browser = InstanceBrowser(fresh.endpoint, explorer.schema)
        clusters = browser.cluster_by_level(
            SCHEMA.citizenshipDim, CONTINENT_LEVEL)
        clustered = sum(len(m) for m in clusters.values())
        assert clustered == browser.member_count(PROPERTY.citizen)

    def test_mary_query_runs_and_matches_oracle(self, fresh):
        result = fresh.engine.execute(MARY_QL, variant="direct")
        star, _ = extract_star_schema(fresh.endpoint, fresh.schema)
        native = NativeOLAPEngine(star).evaluate(result.simplified)
        outcome = compare_results(result.cube, native)
        assert outcome.equal, outcome.explain()

    def test_political_extension_scenario(self, fresh):
        """§I: analyze migration by political organization of hosts."""
        result = fresh.engine.execute(POLITICAL_QL)
        assert len(result.cube) > 0
        axis_levels = {axis.dimension: axis.level for axis in result.cube.axes}
        assert axis_levels[SCHEMA.destinationDim] == \
            SCHEMA.politicalOrganization
        # the aggregate must preserve the grand total of kept facts
        star, _ = extract_star_schema(fresh.endpoint, fresh.schema)
        native = NativeOLAPEngine(star).evaluate(result.simplified)
        outcome = compare_results(result.cube, native)
        assert outcome.equal, outcome.explain()

    def test_quasi_fd_noise_flow(self):
        """With noisy reference data, strict enrichment rejects the
        continent candidate but a quasi-FD threshold accepts it."""
        from repro.enrichment import EnrichmentConfig, EnrichmentSession
        from repro.demo import PAPER_DIMENSION_NAMES

        demo = small_demo(observations=400, noise_rate=0.25)
        strict = EnrichmentSession(
            demo.endpoint, demo.dataset, demo.dsd,
            config=EnrichmentConfig(quasi_fd_threshold=0.0),
            dimension_names=PAPER_DIMENSION_NAMES)
        strict.redefine()
        strict_props = {c.prop for c in
                        strict.level_suggestions(PROPERTY.citizen)}
        assert REF_PROP.continent not in strict_props

        tolerant = EnrichmentSession(
            demo.endpoint, demo.dataset, demo.dsd,
            config=EnrichmentConfig(quasi_fd_threshold=0.4),
            dimension_names=PAPER_DIMENSION_NAMES)
        tolerant.redefine()
        tolerant_props = {c.prop for c in
                          tolerant.level_suggestions(PROPERTY.citizen)}
        assert REF_PROP.continent in tolerant_props
