"""QL → SPARQL translation tests: structure of both variants."""

import hashlib

import pytest

from benchmarks.perf.workloads import PROGRAMS

from repro.data.namespaces import PROPERTY, REF_PROP, SCHEMA
from repro.rdf.namespace import SDMX_MEASURE
from repro.demo import CONTINENT_LEVEL, QUARTER_LEVEL, YEAR_LEVEL
from repro.ql import (
    QLBuilder,
    attr,
    measure,
    parse_ql,
    simplify,
    translate,
)
from repro.ql.translator import Translator
from repro.sparql import parse_query
from repro.sparql.algebra import SelectQuery


def translated(schema, build_fn):
    builder = QLBuilder(schema.dataset)
    build_fn(builder)
    simplified = simplify(builder.build(), schema)
    return translate(schema, simplified)


class TestDirectTranslation:
    def test_rollup_produces_navigation_patterns(self, schema):
        t = translated(schema, lambda b: b.rollup(SCHEMA.timeDim, YEAR_LEVEL))
        assert "skos:broader" in t.direct
        assert QUARTER_LEVEL.value in t.direct  # intermediate hop
        assert YEAR_LEVEL.value in t.direct
        assert "GROUP BY" in t.direct

    def test_aggregate_function_from_schema(self, schema):
        t = translated(schema, lambda b: b.slice(SCHEMA.sexDim))
        assert "SUM(?m0)" in t.direct
        assert "?obsValue" in t.direct

    def test_sliced_dimension_absent(self, schema):
        t = translated(schema, lambda b: b.slice(SCHEMA.sexDim))
        assert PROPERTY.sex.value not in t.direct

    def test_attribute_dice_becomes_filter(self, schema):
        t = translated(schema, lambda b: b
                       .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                       .dice(attr(SCHEMA.citizenshipDim, CONTINENT_LEVEL,
                                  REF_PROP.continentName) == "Africa"))
        assert 'FILTER(?att0 = "Africa")' in t.direct
        assert "HAVING" not in t.direct

    def test_measure_dice_becomes_having(self, schema):
        t = translated(schema, lambda b: b
                       .dice(measure(SDMX_MEASURE.obsValue) > 100))
        assert "HAVING" in t.direct
        assert "SUM(?m0) > 100" in t.direct

    def test_both_parse_as_valid_sparql(self, schema):
        t = translated(schema, lambda b: b
                       .slice(SCHEMA.sexDim)
                       .rollup(SCHEMA.timeDim, YEAR_LEVEL)
                       .dice(measure(SDMX_MEASURE.obsValue) > 1))
        assert isinstance(parse_query(t.direct), SelectQuery)
        assert isinstance(parse_query(t.optimized), SelectQuery)

    def test_deterministic_output(self, schema):
        make = lambda: translated(schema, lambda b: b
                                  .rollup(SCHEMA.timeDim, YEAR_LEVEL))
        assert make().direct == make().direct


class TestOptimizedTranslation:
    def test_uses_subselect(self, schema):
        t = translated(schema, lambda b: b
                       .rollup(SCHEMA.timeDim, YEAR_LEVEL))
        assert "{ SELECT" in t.optimized

    def test_measure_dice_becomes_outer_filter(self, schema):
        t = translated(schema, lambda b: b
                       .dice(measure(SDMX_MEASURE.obsValue) > 100))
        assert "HAVING" not in t.optimized
        assert "FILTER(?obsValue > 100)" in t.optimized

    def test_attribute_filter_pushed_into_subquery(self, schema):
        t = translated(schema, lambda b: b
                       .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
                       .dice(attr(SCHEMA.citizenshipDim, CONTINENT_LEVEL,
                                  REF_PROP.continentName) == "Africa"))
        inner = t.optimized.split("{ SELECT", 1)[1]
        assert 'FILTER(?att0 = "Africa")' in inner
        # the constrained member pattern comes before the observation star
        assert inner.index("continentName") < inner.index("qb:dataSet")


class TestMetadata:
    def test_dimension_bindings(self, schema):
        t = translated(schema, lambda b: b
                       .slice(SCHEMA.sexDim)
                       .rollup(SCHEMA.timeDim, YEAR_LEVEL))
        dims = {b.dimension: b for b in t.metadata.dimensions}
        assert SCHEMA.sexDim not in dims
        time_binding = dims[SCHEMA.timeDim]
        assert time_binding.final_level == YEAR_LEVEL
        assert len(time_binding.levels) == 3  # month, quarter, year
        assert time_binding.group_variable == time_binding.variables[-1]

    def test_measure_aliases(self, schema):
        t = translated(schema, lambda b: b.slice(SCHEMA.sexDim))
        assert t.metadata.measure_aliases[SDMX_MEASURE.obsValue] == "obsValue"
        assert t.metadata.measure_aggregates[SDMX_MEASURE.obsValue] == "SUM"

    def test_line_counts(self, schema):
        t = translated(schema, lambda b: b
                       .rollup(SCHEMA.timeDim, YEAR_LEVEL))
        assert t.direct_lines == len(
            [l for l in t.direct.splitlines() if l.strip()])
        assert t.optimized_lines >= t.direct_lines


#: sha256 prefixes of each contract program's (direct, optimized) text
#: on the session cube — the texts rendered when both were eager
TEXT_DIGESTS = {
    "africa_france": ("bc10687a03aa58cf",
        "1c422a6d860d047d"),
    "asia_germany": ("c68d01e9911d33d3",
        "cd9b29c19f761b65"),
    "busy_continent_year": ("6d0585dd1c430f76",
        "82ed619893e8138d"),
    "continent_political": ("b745f99a922d17ac",
        "e86103bf7609e89b"),
    "continent_year": ("e19ac39a660258ba",
        "cde0db4c2a19fa44"),
    "not_continent_and_measure": ("ec571b94a96d2686",
        "657f1ddc04d89691"),
    "or_destinations": ("d2cb1b8104b612c4",
        "fe3c933266ef894a"),
    "political_year": ("cf3493d385752201",
        "be5c95adeea18bb1"),
    "quarter_sex": ("5f2eb8134c9da541",
        "f27f80c68770dcfe"),
    "three_way_and": ("bdd6d8467e6eb783",
        "a3cffa755eada6eb"),
}


class TestLazyTexts:
    """A translation renders a query text when it is first read."""

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
    @pytest.mark.parametrize("first", ["direct", "optimized"])
    def test_texts_are_pinned_in_either_order(self, schema, name, first):
        translation = translate(
            schema, simplify(parse_ql(PROGRAMS[name]), schema))
        second = {"direct": "optimized", "optimized": "direct"}[first]
        texts = {first: getattr(translation, first),
                 second: getattr(translation, second)}
        assert (self.digest(texts["direct"]),
                self.digest(texts["optimized"])) == TEXT_DIGESTS[name]

    def test_each_text_renders_once_and_only_when_read(self, schema,
                                                       monkeypatch):
        calls = []

        def counted(method):
            original = getattr(Translator, method)

            def render(self):
                calls.append(method)
                return original(self)
            return render

        for method in ("direct_query", "optimized_query"):
            monkeypatch.setattr(Translator, method, counted(method))
        translation = translate(schema, simplify(
            parse_ql(PROGRAMS["continent_year"]), schema))
        assert calls == [] and translation.metadata.group_variables
        assert translation.direct is translation.direct
        assert calls == ["direct_query"]
        assert translation.optimized_lines > 0
        assert calls == ["direct_query", "optimized_query"]
