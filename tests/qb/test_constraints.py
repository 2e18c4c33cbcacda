"""Tests for the 21 W3C integrity constraints run as SPARQL ASK queries.

Each constraint gets (at least) one violating graph and the shared
well-formed cube must pass the whole suite — the spec's definition of
well-formedness.  IC-12 is answered by code; every IC-12 graph here is
also run through the spec's pairwise text, its oracle.
"""

import pytest

from repro.qb.constraints import (
    IC12_PAIRWISE,
    STATIC_CONSTRAINTS,
    ConstraintCheck,
    all_constraint_checks,
    check_constraint,
    check_graph,
    has_duplicate_observations,
    hierarchy_constraint_checks,
)
from repro.qb.normalize import normalize_graph
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.sparql.endpoint import LocalEndpoint

EX = Namespace("http://example.org/")

PREFIXES = """\
@prefix rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix owl:  <http://www.w3.org/2002/07/owl#> .
@prefix qb:   <http://purl.org/linked-data/cube#> .
@prefix xsd:  <http://www.w3.org/2001/XMLSchema#> .
@prefix ex:   <http://example.org/> .
"""

#: A minimal well-formed cube in *abbreviated* form.
WELL_FORMED = """
ex:dsd a qb:DataStructureDefinition ;
    qb:component [ qb:dimension ex:dim ], [ qb:measure ex:val ] .
ex:dim rdfs:range ex:Area .
ex:ds a qb:DataSet ; qb:structure ex:dsd .
ex:o1 qb:dataSet ex:ds ; ex:dim ex:a1 ; ex:val 3 .
ex:o2 qb:dataSet ex:ds ; ex:dim ex:a2 ; ex:val 4 .
"""


def normalized_graph(turtle: str) -> Graph:
    endpoint = LocalEndpoint()
    endpoint.load_trig(PREFIXES + turtle)
    graph = endpoint.dataset.default
    normalize_graph(graph)
    return graph


def violated(graph: Graph) -> set:
    report = check_graph(graph, include_expensive=True)
    return set(report.violations)


def pairwise_ic12(graph: Graph) -> bool:
    """The spec's IC-12 text, run as an ASK: the oracle."""
    return check_constraint(
        graph, ConstraintCheck("IC-12", "pairwise", [IC12_PAIRWISE]))


def ic12(graph: Graph) -> bool:
    """The linear IC-12 verdict, asserted equal to the oracle's."""
    verdict = has_duplicate_observations(graph)
    assert verdict == pairwise_ic12(graph)
    return verdict


def ic(graph: Graph, name: str) -> bool:
    for check in all_constraint_checks(graph):
        if check.ic == name:
            return check_constraint(graph, check)
    raise AssertionError(f"{name} not in expanded checks")


class TestWellFormed:
    def test_clean_cube_passes_everything(self):
        graph = normalized_graph(WELL_FORMED)
        report = check_graph(graph, include_expensive=True)
        assert report.well_formed, str(report)

    def test_report_renders(self):
        graph = normalized_graph(WELL_FORMED)
        text = str(check_graph(graph, include_expensive=True))
        assert "IC-1: ok" in text
        assert "VIOLATED" not in text

    def test_report_orders_w3c_ids_then_adjuncts(self):
        graph = normalized_graph(WELL_FORMED)
        lines = str(check_graph(graph, include_expensive=False)).splitlines()
        ids = [line.split(":")[0] for line in lines]
        assert ids == [f"IC-{i}" for i in range(1, 17)] + [
            "IC-18", "IC-19", "IC-DIM", "IC-MEAS", "IC-17"]
        assert lines[-1] == "IC-17: skipped"

    def test_generated_eurostat_cube_lacks_only_ranges(self):
        """The synthetic cube, like the real dump, declares no
        rdfs:range on its dimensions (IC-4); nothing else fails."""
        from repro.data.eurostat import GeneratorConfig, build_qb_graph

        graph = build_qb_graph(GeneratorConfig(observations=300, seed=3))
        normalize_graph(graph)
        report = check_graph(graph, include_expensive=True)
        assert report.violations == ["IC-4"]


class TestDataSetConstraints:
    def test_ic1_observation_without_dataset(self):
        graph = normalized_graph(
            WELL_FORMED + "ex:orphan a qb:Observation ; ex:dim ex:a3 .")
        assert "IC-1" in violated(graph)

    def test_ic1_observation_with_two_datasets(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:ds2 a qb:DataSet ; qb:structure ex:dsd .
            ex:o1 qb:dataSet ex:ds2 .
        """)
        assert "IC-1" in violated(graph)

    def test_ic2_dataset_without_structure(self):
        graph = normalized_graph(
            WELL_FORMED + "ex:bare a qb:DataSet .")
        assert "IC-2" in violated(graph)

    def test_ic2_dataset_with_two_structures(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:measure ex:val ] .
            ex:ds qb:structure ex:dsd2 .
        """)
        assert "IC-2" in violated(graph)

    def test_ic3_dsd_without_measure(self):
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:dimension ex:dim2 ] .
            ex:dim2 rdfs:range ex:Area .
        """)
        assert "IC-3" in violated(graph)


class TestComponentConstraints:
    def test_ic4_dimension_without_range(self):
        graph = normalized_graph("""
            ex:naked a qb:DimensionProperty .
        """)
        assert "IC-4" in violated(graph)

    def test_ic5_concept_dimension_without_code_list(self):
        graph = normalized_graph("""
            ex:coded a qb:DimensionProperty ; rdfs:range skos:Concept .
        """)
        assert "IC-5" in violated(graph)

    def test_ic5_concept_dimension_with_code_list_passes(self):
        graph = normalized_graph("""
            ex:coded a qb:DimensionProperty ; rdfs:range skos:Concept ;
                qb:codeList ex:scheme .
        """)
        assert "IC-5" not in violated(graph)

    def test_ic6_optional_non_attribute(self):
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:dimension ex:dim2 ;
                               qb:componentRequired false ] ,
                             [ qb:measure ex:val2 ] .
            ex:dim2 rdfs:range ex:Area .
        """)
        assert "IC-6" in violated(graph)

    def test_ic6_optional_attribute_passes(self):
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:attribute ex:unit ;
                               qb:componentRequired false ] ,
                             [ qb:measure ex:val2 ] .
        """)
        assert "IC-6" not in violated(graph)


class TestSliceConstraints:
    def test_ic7_undeclared_slice_key(self):
        graph = normalized_graph("""
            ex:k1 a qb:SliceKey .
        """)
        assert "IC-7" in violated(graph)

    def test_ic8_slice_key_property_not_in_dsd(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:k1 a qb:SliceKey ; qb:componentProperty ex:other .
            ex:dsd qb:sliceKey ex:k1 .
        """)
        assert "IC-8" in violated(graph)

    def test_ic9_slice_without_structure(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:ds qb:slice ex:s1 .
            ex:s1 qb:observation ex:o1 .
        """)
        assert "IC-9" in violated(graph)

    def test_ic10_slice_missing_dimension_value(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:k1 a qb:SliceKey ; qb:componentProperty ex:dim .
            ex:dsd qb:sliceKey ex:k1 .
            ex:ds qb:slice ex:s1 .
            ex:s1 qb:sliceStructure ex:k1 ; qb:observation ex:o1 .
        """)
        assert "IC-10" in violated(graph)

    def test_ic18_slice_observation_from_other_dataset(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:k1 a qb:SliceKey ; qb:componentProperty ex:dim .
            ex:dsd qb:sliceKey ex:k1 .
            ex:ds2 a qb:DataSet ; qb:structure ex:dsd ; qb:slice ex:s1 .
            ex:s1 qb:sliceStructure ex:k1 ; ex:dim ex:a1 ;
                  qb:observation ex:o1 .
        """)
        assert "IC-18" in violated(graph)


class TestObservationConstraints:
    def test_ic11_missing_dimension_value(self):
        graph = normalized_graph(
            WELL_FORMED + "ex:o3 qb:dataSet ex:ds ; ex:val 5 .")
        assert "IC-11" in violated(graph)

    def test_ic12_duplicate_coordinates(self):
        graph = normalized_graph(
            WELL_FORMED + "ex:o3 qb:dataSet ex:ds ; ex:dim ex:a1 ; ex:val 9 .")
        assert "IC-12" in violated(graph)
        assert ic12(graph)

    def test_ic12_distinct_coordinates_pass(self):
        graph = normalized_graph(WELL_FORMED)
        assert not ic(graph, "IC-12")
        assert not ic12(graph)

    def test_ic12_value_equal_coordinates_duplicate(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:o3 qb:dataSet ex:ds ; ex:dim "01"^^xsd:integer ; ex:val 5 .
            ex:o4 qb:dataSet ex:ds ; ex:dim "1.0"^^xsd:decimal ; ex:val 6 .
        """)
        assert ic12(graph)

    def test_ic12_observation_without_dimension_is_no_duplicate(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:o3 qb:dataSet ex:ds ; ex:val 5 .
            ex:o4 qb:dataSet ex:ds ; ex:val 6 .
        """)
        assert not ic12(graph)
        assert "IC-11" in violated(graph)

    def test_ic13_missing_required_attribute(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:dsd qb:component [ qb:attribute ex:unit ;
                                  qb:componentRequired true ] .
        """)
        assert "IC-13" in violated(graph)

    def test_ic14_missing_measure(self):
        graph = normalized_graph(
            WELL_FORMED + "ex:o3 qb:dataSet ex:ds ; ex:dim ex:a3 .")
        assert "IC-14" in violated(graph)


class TestAdjunctConstraints:
    def test_measure_value_must_be_literal(self):
        graph = normalized_graph(WELL_FORMED + """
            ex:o3 qb:dataSet ex:ds ; ex:dim ex:a3 ; ex:val ex:notALiteral .
        """)
        assert violated(graph) == {"IC-MEAS"}

    def test_dimension_must_be_an_iri(self):
        # normalization's INSERT skips the ill-formed `"x" a
        # qb:DimensionProperty` instead of failing on it
        graph = normalized_graph(
            WELL_FORMED + 'ex:dsd qb:component [ qb:dimension "x" ] .')
        assert violated(graph) == {"IC-DIM"}

    def test_well_formed_cube_passes_adjuncts(self):
        graph = normalized_graph(WELL_FORMED)
        assert not ic(graph, "IC-DIM")
        assert not ic(graph, "IC-MEAS")


class TestMeasureDimensionConstraints:
    MEASURE_DIM_CUBE = """
        ex:dsd2 a qb:DataStructureDefinition ;
            qb:component [ qb:dimension qb:measureType ],
                         [ qb:dimension ex:area ],
                         [ qb:measure ex:m1 ], [ qb:measure ex:m2 ] .
        ex:area rdfs:range ex:Area .
        qb:measureType rdfs:range rdf:Property .
        ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
    """

    def test_ic15_measure_type_value_missing(self):
        graph = normalized_graph(self.MEASURE_DIM_CUBE + """
            ex:p1 qb:dataSet ex:ds2 ; qb:measureType ex:m1 ;
                  ex:area ex:a1 ; ex:m2 7 .
        """)
        assert ic(graph, "IC-15")

    def test_ic16_extra_measure_present(self):
        graph = normalized_graph(self.MEASURE_DIM_CUBE + """
            ex:p1 qb:dataSet ex:ds2 ; qb:measureType ex:m1 ;
                  ex:area ex:a1 ; ex:m1 3 ; ex:m2 7 .
        """)
        assert ic(graph, "IC-16")

    def test_ic17_incomplete_measure_set_at_cut_point(self):
        graph = normalized_graph(self.MEASURE_DIM_CUBE + """
            ex:p1 qb:dataSet ex:ds2 ; qb:measureType ex:m1 ;
                  ex:area ex:a1 ; ex:m1 3 .
        """)
        assert ic(graph, "IC-17")

    def test_ic17_complete_measure_set_passes(self):
        graph = normalized_graph(self.MEASURE_DIM_CUBE + """
            ex:p1 qb:dataSet ex:ds2 ; qb:measureType ex:m1 ;
                  ex:area ex:a1 ; ex:m1 3 .
            ex:p2 qb:dataSet ex:ds2 ; qb:measureType ex:m2 ;
                  ex:area ex:a1 ; ex:m2 9 .
        """)
        assert not ic(graph, "IC-17")
        assert not ic(graph, "IC-15")
        assert not ic(graph, "IC-16")


class TestCodeListConstraints:
    def test_ic19_value_not_in_scheme(self):
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:dimension ex:code ],
                             [ qb:measure ex:val ] .
            ex:code rdfs:range skos:Concept ; qb:codeList ex:scheme .
            ex:scheme a skos:ConceptScheme .
            ex:good a skos:Concept ; skos:inScheme ex:scheme .
            ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
            ex:p1 qb:dataSet ex:ds2 ; ex:code ex:rogue ; ex:val 1 .
        """)
        assert "IC-19" in violated(graph)

    def test_ic19_value_in_scheme_passes(self):
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:dimension ex:code ],
                             [ qb:measure ex:val ] .
            ex:code rdfs:range skos:Concept ; qb:codeList ex:scheme .
            ex:scheme a skos:ConceptScheme .
            ex:good a skos:Concept ; skos:inScheme ex:scheme .
            ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
            ex:p1 qb:dataSet ex:ds2 ; ex:code ex:good ; ex:val 1 .
        """)
        assert "IC-19" not in violated(graph)

    def test_ic19_collection_membership_via_path(self):
        """Nested skos:Collections need the skos:member+ closure."""
        graph = normalized_graph("""
            ex:dsd2 a qb:DataStructureDefinition ;
                qb:component [ qb:dimension ex:code ],
                             [ qb:measure ex:val ] .
            ex:code rdfs:range skos:Concept ; qb:codeList ex:coll .
            ex:coll a skos:Collection ; skos:member ex:sub .
            ex:sub a skos:Collection ; skos:member ex:deep .
            ex:deep a skos:Concept .
            ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
            ex:p1 qb:dataSet ex:ds2 ; ex:code ex:deep ; ex:val 1 .
        """)
        assert "IC-19" not in violated(graph)

    HIERARCHY = """
        ex:dsd2 a qb:DataStructureDefinition ;
            qb:component [ qb:dimension ex:code ],
                         [ qb:measure ex:val ] .
        ex:code rdfs:range ex:Code ; qb:codeList ex:hcl .
        ex:hcl a qb:HierarchicalCodeList ; qb:hierarchyRoot ex:root ;
               qb:parentChildProperty ex:narrower .
        ex:root ex:narrower ex:leaf .
        ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
    """

    def test_ic20_reachable_code_passes(self):
        graph = normalized_graph(
            self.HIERARCHY
            + "ex:p1 qb:dataSet ex:ds2 ; ex:code ex:leaf ; ex:val 1 .")
        assert "IC-20" not in violated(graph)

    def test_ic20_unreachable_code_violates(self):
        graph = normalized_graph(
            self.HIERARCHY
            + "ex:p1 qb:dataSet ex:ds2 ; ex:code ex:orphan ; ex:val 1 .")
        assert "IC-20" in violated(graph)

    INVERSE_HIERARCHY = """
        ex:dsd2 a qb:DataStructureDefinition ;
            qb:component [ qb:dimension ex:code ],
                         [ qb:measure ex:val ] .
        ex:code rdfs:range ex:Code ; qb:codeList ex:hcl .
        ex:hcl a qb:HierarchicalCodeList ; qb:hierarchyRoot ex:root ;
               qb:parentChildProperty [ owl:inverseOf ex:broader ] .
        ex:leaf ex:broader ex:root .
        ex:ds2 a qb:DataSet ; qb:structure ex:dsd2 .
    """

    def test_ic21_reachable_code_via_inverse_passes(self):
        graph = normalized_graph(
            self.INVERSE_HIERARCHY
            + "ex:p1 qb:dataSet ex:ds2 ; ex:code ex:leaf ; ex:val 1 .")
        assert "IC-21" not in violated(graph)

    def test_ic21_unreachable_code_violates(self):
        graph = normalized_graph(
            self.INVERSE_HIERARCHY
            + "ex:p1 qb:dataSet ex:ds2 ; ex:code ex:orphan ; ex:val 1 .")
        assert "IC-21" in violated(graph)

    def test_template_expansion_counts(self):
        graph = normalized_graph(self.HIERARCHY)
        checks = hierarchy_constraint_checks(graph)
        assert [c.ic for c in checks] == ["IC-20"]
        graph2 = normalized_graph(self.INVERSE_HIERARCHY)
        checks2 = hierarchy_constraint_checks(graph2)
        assert [c.ic for c in checks2] == ["IC-21"]


class TestSuiteMechanics:
    def test_nineteen_static_constraints(self):
        assert len(STATIC_CONSTRAINTS) == 19
        assert [c.ic for c in STATIC_CONSTRAINTS] == [
            f"IC-{i}" for i in range(1, 20)]

    def test_expensive_constraints_flagged(self):
        expensive = {c.ic for c in STATIC_CONSTRAINTS if c.expensive}
        assert expensive == {"IC-17"}

    def test_expensive_skipped_on_large_graphs(self):
        graph = normalized_graph(WELL_FORMED)
        report = check_graph(graph, expensive_limit=1)
        assert set(report.skipped) == {"IC-17"}
        assert "IC-12" in report.results

    def test_explicit_include_overrides_limit(self):
        graph = normalized_graph(WELL_FORMED)
        report = check_graph(graph, include_expensive=True,
                             expensive_limit=1)
        assert report.skipped == []


class TestDemoScale:
    def test_ic12_answered_on_the_20k_cube(self):
        """IC-12 runs in linear time, so a big cube gets it too; only
        the quadratic IC-17 is skipped."""
        from repro.data.eurostat import GeneratorConfig, build_qb_graph

        graph = build_qb_graph(GeneratorConfig(observations=20_000, seed=42))
        normalize_graph(graph)
        report = check_graph(graph)
        assert report.violations == ["IC-4"]
        assert report.skipped == ["IC-17"]
        assert report.results["IC-12"] is False
