"""Property-based tests for property-path evaluation.

Random edge lists drive the engine's closure/alternative/inverse
semantics; networkx provides an independent reachability oracle.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    OneOrMorePath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    evaluate_path,
)

EX = "http://example.org/"
P = IRI(EX + "p")
Q = IRI(EX + "q")

node_ids = st.integers(min_value=0, max_value=7)
edges = st.lists(st.tuples(node_ids, node_ids), min_size=0, max_size=25)


def node(index: int) -> IRI:
    return IRI(f"{EX}n{index}")


class _Source:
    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def match(self, pattern):
        return self.graph.triples(pattern)


def build_source(p_edges, q_edges=()):
    graph = Graph()
    for start, end in p_edges:
        graph.add(node(start), P, node(end))
    for start, end in q_edges:
        graph.add(node(start), Q, node(end))
    return _Source(graph)


def pairs(source, path, start=None, end=None):
    return set(evaluate_path(source, path, start, end))


class TestAlgebraicLaws:
    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_plus_equals_step_then_star(self, p_edges):
        """p+ ≡ p/p* (the standard closure identity)."""
        source = build_source(p_edges)
        plus = pairs(source, OneOrMorePath(LinkPath(P)))
        step_star = pairs(source, SequencePath(
            [LinkPath(P), ZeroOrMorePath(LinkPath(P))]))
        assert plus == step_star

    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_double_inverse_is_identity(self, p_edges):
        source = build_source(p_edges)
        direct = pairs(source, LinkPath(P))
        double = pairs(source, InversePath(InversePath(LinkPath(P))))
        assert direct == double

    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_inverse_swaps_pairs(self, p_edges):
        source = build_source(p_edges)
        direct = pairs(source, LinkPath(P))
        inverse = pairs(source, InversePath(LinkPath(P)))
        assert inverse == {(b, a) for a, b in direct}

    @given(edges, edges)
    @settings(max_examples=60, deadline=None)
    def test_alternative_is_union(self, p_edges, q_edges):
        source = build_source(p_edges, q_edges)
        combined = pairs(source, AlternativePath(
            [LinkPath(P), LinkPath(Q)]))
        assert combined == pairs(source, LinkPath(P)) \
            | pairs(source, LinkPath(Q))

    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_zero_or_one_adds_only_diagonal(self, p_edges):
        source = build_source(p_edges)
        optional = pairs(source, ZeroOrOnePath(LinkPath(P)))
        single = pairs(source, LinkPath(P))
        extra = optional - single
        assert all(a == b for a, b in extra)

    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_star_contains_plus_and_diagonal(self, p_edges):
        source = build_source(p_edges)
        star = pairs(source, ZeroOrMorePath(LinkPath(P)))
        plus = pairs(source, OneOrMorePath(LinkPath(P)))
        assert plus <= star
        assert all((n, n) in star
                   for pair in plus for n in pair)


class TestReachabilityOracle:
    @given(edges, node_ids)
    @settings(max_examples=60, deadline=None)
    def test_plus_matches_networkx_descendants(self, p_edges, origin):
        source = build_source(p_edges)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(8))
        digraph.add_edges_from(p_edges)
        expected = set(nx.descendants(digraph, origin))
        # networkx's descendants never contains the origin; per W3C
        # semantics p+ reaches the origin again when it lies on a cycle
        on_cycle = any(
            successor == origin or origin in nx.descendants(digraph,
                                                            successor)
            for successor in digraph.successors(origin))
        if on_cycle:
            expected.add(origin)
        ours = {end for _, end in
                pairs(source, OneOrMorePath(LinkPath(P)),
                      start=node(origin))}
        assert ours == {node(index) for index in expected}

    @given(edges, node_ids)
    @settings(max_examples=60, deadline=None)
    def test_backward_equals_forward_of_inverse_graph(self, p_edges, origin):
        source = build_source(p_edges)
        forward_inverse = pairs(
            source, OneOrMorePath(InversePath(LinkPath(P))),
            start=node(origin))
        backward = pairs(source, OneOrMorePath(LinkPath(P)),
                         end=node(origin))
        assert {end for _, end in forward_inverse} \
            == {start for start, _ in backward}

    @given(edges)
    @settings(max_examples=40, deadline=None)
    def test_unbounded_star_is_reflexive_on_graph_nodes(self, p_edges):
        source = build_source(p_edges)
        star = pairs(source, ZeroOrMorePath(LinkPath(P)))
        mentioned = {term for pair in pairs(source, LinkPath(P))
                     for term in pair}
        assert all((term, term) in star for term in mentioned)


class TestEndpointConsistency:
    """The path engine agrees with itself across binding modes."""

    @given(edges, node_ids, node_ids)
    @settings(max_examples=60, deadline=None)
    def test_bound_both_consistent_with_enumerate(self, p_edges, a, b):
        source = build_source(p_edges)
        path = OneOrMorePath(LinkPath(P))
        enumerated = pairs(source, path)
        bound = pairs(source, path, start=node(a), end=node(b))
        assert ((node(a), node(b)) in enumerated) == bool(bound)

    @given(edges, node_ids)
    @settings(max_examples=60, deadline=None)
    def test_bound_start_consistent_with_enumerate(self, p_edges, a):
        source = build_source(p_edges)
        path = OneOrMorePath(LinkPath(P))
        enumerated = {pair for pair in pairs(source, path)
                      if pair[0] == node(a)}
        seeded = pairs(source, path, start=node(a))
        assert seeded == enumerated
