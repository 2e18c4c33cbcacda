"""Tests for level-instance collection (the per-member SPARQL workload)."""

import pytest

from repro.rdf import IRI, Literal, Namespace
from repro.sparql import LocalEndpoint
from repro.enrichment.instances import (
    collect_bottom_members,
    collect_member_property_table,
    member_properties,
)
from repro.exploration.stats import CubeStatistics
from repro.qb4olap.model import CubeSchema

EX = Namespace("http://example.org/")


@pytest.fixture
def endpoint():
    ep = LocalEndpoint()
    ep.update("""
    PREFIX ex: <http://example.org/>
    PREFIX qb: <http://purl.org/linked-data/cube#>
    INSERT DATA {
      ex:o1 qb:dataSet ex:ds ; ex:dim ex:a ; ex:val 1 .
      ex:o2 qb:dataSet ex:ds ; ex:dim ex:b ; ex:val 2 .
      ex:o3 qb:dataSet ex:ds ; ex:dim ex:a ; ex:val 3 .
      ex:o4 qb:dataSet ex:other ; ex:dim ex:c ; ex:val 4 .
      ex:a ex:group ex:g1 ; ex:name "A" .
      ex:b ex:group ex:g1, ex:g2 .
    }
    """)
    return ep


class TestCollectBottomMembers:
    def test_distinct_and_sorted(self, endpoint):
        members = collect_bottom_members(endpoint, EX.ds, EX.dim)
        assert members == [EX.a, EX.b]  # c belongs to another data set

    def test_empty_for_unknown_dataset(self, endpoint):
        assert collect_bottom_members(endpoint, EX.nope, EX.dim) == []

    def test_empty_for_unknown_property(self, endpoint):
        assert collect_bottom_members(endpoint, EX.ds, EX.nothing) == []


class TestMemberProperties:
    def test_groups_values_by_predicate(self, endpoint):
        properties = member_properties(endpoint, EX.b)
        assert sorted(v.local_name() for v in properties[EX.group]) == \
            ["g1", "g2"]

    def test_literal_member_is_empty(self, endpoint):
        assert member_properties(endpoint, Literal("x")) == {}

    def test_unknown_member_is_empty(self, endpoint):
        assert member_properties(endpoint, EX.ghost) == {}


class TestPropertyTable:
    def test_one_query_per_member(self, endpoint):
        endpoint.reset_statistics()
        table = collect_member_property_table(endpoint, [EX.a, EX.b])
        assert endpoint.statistics.selects == 2
        assert set(table) == {EX.group, EX.name}
        assert table[EX.group][EX.b] and len(table[EX.group][EX.b]) == 2
        assert EX.b not in table[EX.name]

    def test_empty_member_list(self, endpoint):
        assert collect_member_property_table(endpoint, []) == {}


class TestObservationCount:
    def test_counts_only_this_dataset(self, endpoint):
        def observation_count(dataset):
            schema = CubeSchema(dsd=EX.dsd, dataset=dataset)
            return CubeStatistics(endpoint, schema).observation_count()

        assert observation_count(EX.ds) == 3
        assert observation_count(EX.other) == 1
        assert observation_count(EX.none) == 0
