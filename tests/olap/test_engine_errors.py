"""Error taxonomy and aggregate-edge semantics of the native engine.

The typed-error tests feed the engine *simplified* programs with rogue
dices appended after checking — conditions the QL checker would reject
up front — because the engine is a public evaluation surface and must
fail typed even when handed a program the checker never saw
(defense in depth, per the endpoint error contract).
"""

import copy

import numpy as np
import pytest

from repro.data.namespaces import REF_PROP, SCHEMA
from repro.demo import CONTINENT_LEVEL
from repro.qb import vocabulary as qb
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import (
    CubeSchema,
    Dimension,
    Hierarchy,
    HierarchyStep,
    Measure,
)
from repro.rdf import Literal, Namespace
from repro.rdf.namespace import SDMX_MEASURE, SKOS
from repro.sparql import LocalEndpoint
from repro.sparql.errors import EndpointError
from repro.ql import QLBuilder, QLEngine, attr, measure, simplify
from repro.olap import NativeOLAPEngine, compare_results, extract_star_schema
from repro.olap.kernel import Plan, finalize, merge, partials
from repro.olap.errors import (
    DiceTypeError,
    OLAPEngineError,
    UnknownAxisError,
)

EX = Namespace("http://example.org/edges/")


def simplified_with_rogue_dice(schema, condition):
    program = (QLBuilder(schema.dataset)
               .slice(SCHEMA.asylappDim)
               .slice(SCHEMA.ageDim)
               .slice(SCHEMA.sexDim)
               .slice(SCHEMA.destinationDim)
               .slice(SCHEMA.citizenshipDim)
               .build())
    simplified = copy.deepcopy(simplify(program, schema))
    simplified.dices.append(condition)
    return simplified


class TestTypedErrors:
    def test_missing_state_is_typed(self, star, schema):
        from repro.ql.simplifier import SimplifiedProgram

        with pytest.raises(OLAPEngineError) as excinfo:
            star.evaluate(SimplifiedProgram(cube=schema.dataset))
        assert excinfo.value.code == "olap_error"

    def test_dice_on_sliced_dimension(self, star, schema):
        """Regression: used to surface as a raw ``ValueError`` from
        ``list.index`` deep inside the mask builder."""
        rogue = attr(SCHEMA.citizenshipDim, CONTINENT_LEVEL,
                     REF_PROP.continentName) == "Asia"
        simplified = simplified_with_rogue_dice(schema, rogue)
        with pytest.raises(UnknownAxisError) as excinfo:
            star.evaluate(simplified)
        assert excinfo.value.code == "olap_unknown_axis"
        assert SCHEMA.citizenshipDim.value in str(excinfo.value)

    def test_measure_dice_against_iri(self, star, schema):
        rogue = measure(SDMX_MEASURE.obsValue) > SCHEMA.continent
        simplified = simplified_with_rogue_dice(schema, rogue)
        with pytest.raises(DiceTypeError) as excinfo:
            star.evaluate(simplified)
        assert excinfo.value.code == "olap_dice_type"

    def test_measure_dice_against_non_numeric_literal(self, star, schema):
        """Regression: ``float("banana")`` used to escape as a raw
        ``ValueError`` instead of a typed engine error."""
        rogue = measure(SDMX_MEASURE.obsValue) > "banana"
        simplified = simplified_with_rogue_dice(schema, rogue)
        with pytest.raises(DiceTypeError) as excinfo:
            star.evaluate(simplified)
        assert excinfo.value.code == "olap_dice_type"

    def test_errors_are_endpoint_errors(self):
        """The native engine shares the endpoint error contract, so
        callers catching ``EndpointError`` see every engine failure."""
        assert issubclass(UnknownAxisError, OLAPEngineError)
        assert issubclass(DiceTypeError, OLAPEngineError)
        assert issubclass(OLAPEngineError, EndpointError)


class TestAggregateEdgeUnits:
    """``kernel.finalize`` must never fabricate 0.0 / ±inf for groups
    with no usable values — those cells stay *undefined*
    (valid=False)."""

    def empty_group(self, keyword):
        # group 0 has one value (5.0), group 1 has none: its
        # accumulators still hold their identities
        return finalize(keyword, {
            "sum": np.array([5.0, 0.0]), "count": np.array([1.0, 0.0]),
            "min": np.array([5.0, np.inf]), "max": np.array([5.0, -np.inf])})

    def test_avg_empty_group_is_undefined_not_zero(self):
        out, valid = self.empty_group("AVG")
        assert valid.tolist() == [True, False]
        assert out[0] == 5.0
        assert np.isnan(out[1])  # regression: used to read 0.0

    def test_min_empty_group_is_undefined_not_inf(self):
        out, valid = self.empty_group("MIN")
        assert valid.tolist() == [True, False]
        assert not np.isinf(out).any()  # regression: used to read +inf

    def test_max_empty_group_is_undefined_not_neg_inf(self):
        out, valid = self.empty_group("MAX")
        assert valid.tolist() == [True, False]
        assert not np.isinf(out).any()  # regression: used to read -inf

    def test_sum_and_count_stay_bound_at_zero(self):
        # SPARQL: SUM/COUNT over an empty group are 0, not unbound
        for keyword in ("SUM", "COUNT"):
            out, valid = self.empty_group(keyword)
            assert valid.tolist() == [True, True]
            assert out[1] == 0.0

    def test_nan_values_do_not_poison_groups(self):
        # the NaN row never reaches an accumulator: group 0 averages
        # its one real value
        plan = Plan(axes=(("c:d", np.arange(2)),), measures=(("m:v", "AVG"),))
        views = {"c:d": np.array([0, 0, 1]),
                 "m:v": np.array([np.nan, 3.0, 7.0])}
        keys, [(out, valid)] = merge([partials(views, 0, 3, plan)], plan)
        assert keys.tolist() == [[0], [1]]
        assert out[0] == 3.0 and out[1] == 7.0
        assert valid.all()

    def test_unknown_aggregate_is_typed(self):
        with pytest.raises(OLAPEngineError):
            finalize("MEDIAN", {"sum": np.array([1.0])})


def edge_cube():
    """A cube whose measures exercise AVG/MIN/MAX over groups the
    SPARQL path leaves empty: no observation carries ``avgM``/``minM``
    values, and only some carry ``sumM``."""
    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    schema = CubeSchema(dsd=EX.dsd, dataset=EX.ds)
    hierarchy = Hierarchy(EX.geoHier, EX.geoDim,
                          levels=[EX.city, EX.region],
                          steps=[HierarchyStep(EX.city, EX.region)])
    schema.dimensions.append(Dimension(EX.geoDim, [hierarchy]))
    schema.dimension_levels[EX.geoDim] = EX.city
    schema.measures.append(Measure(EX.sumM, qb4o.SUM))
    schema.measures.append(Measure(EX.avgM, qb4o.AVG))
    schema.measures.append(Measure(EX.minM, qb4o.MIN))
    for member in (EX.cityA, EX.cityB):
        graph.add(member, qb4o.memberOf, EX.city)
    graph.add(EX.regionX, qb4o.memberOf, EX.region)
    graph.add(EX.cityA, SKOS.broader, EX.regionX)
    graph.add(EX.cityB, SKOS.broader, EX.regionX)
    for index, city in enumerate((EX.cityA, EX.cityB)):
        obs = EX[f"obs{index}"]
        graph.add(obs, qb.dataSet, EX.ds)
        graph.add(obs, EX.city, city)
        graph.add(obs, EX.sumM, Literal(10 * (index + 1)))
        # avgM / minM deliberately absent everywhere
    return endpoint, schema


class TestAggregateEdgeOracle:
    """Both evaluation paths must agree on cells whose AVG/MIN/MAX
    aggregates are undefined — the oracle is the arbiter."""

    @pytest.fixture()
    def edge(self):
        endpoint, schema = edge_cube()
        yield endpoint, schema
        endpoint.close()

    def test_scalar_query_with_undefined_aggregates(self, edge):
        endpoint, schema = edge
        engine = QLEngine(endpoint, schema)
        star_schema, _ = extract_star_schema(endpoint, schema)
        native_engine = NativeOLAPEngine(star_schema)
        program = QLBuilder(schema.dataset).slice(EX.geoDim).build()
        result = engine.execute(program, variant="direct")
        native = native_engine.evaluate(result.simplified)
        outcome = compare_results(result.cube, native)
        assert outcome.equal, outcome.explain()
        # the undefined aggregates must be absent, not 0.0 / ±inf
        for cell in native.cells.values():
            assert EX.avgM not in cell
            assert EX.minM not in cell
            for value in cell.values():
                assert np.isfinite(value)
