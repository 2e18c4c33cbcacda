"""TriG (named-graph dataset) serialization, and TriG read back
through ``LocalEndpoint.load_trig``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal
from repro.rdf.trig import serialize_trig
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.errors import QuerySyntaxError

EX = Namespace("http://example.org/")
G1 = IRI("http://example.org/graphs/one")
G2 = IRI("http://example.org/graphs/two")


def parse_trig(text: str) -> Dataset:
    """The dataset an endpoint holds after loading ``text``."""
    endpoint = LocalEndpoint()
    endpoint.load_trig(text)
    return endpoint.dataset


class TestParsing:
    def test_graph_keyword_block(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            GRAPH <http://example.org/graphs/one> {
                ex:a ex:p ex:b .
            }
        """)
        assert (EX.a, EX.p, EX.b) in dataset.graph(G1)
        assert len(dataset.default) == 0

    def test_label_without_keyword_is_not_read(self):
        with pytest.raises(QuerySyntaxError):
            parse_trig("""
                @prefix ex: <http://example.org/> .
                <http://example.org/graphs/one> { ex:a ex:p ex:b . }
            """)

    def test_prefixed_graph_label(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            @prefix g: <http://example.org/graphs/> .
            GRAPH g:one { ex:a ex:p ex:b . }
        """)
        assert (EX.a, EX.p, EX.b) in dataset.graph(G1)

    def test_default_graph_block_is_not_read(self):
        with pytest.raises(QuerySyntaxError):
            parse_trig("""
                @prefix ex: <http://example.org/> .
                { ex:a ex:p ex:b . }
            """)

    def test_top_level_triples_go_to_default(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b .
            GRAPH <http://example.org/graphs/one> { ex:c ex:p ex:d . }
            ex:e ex:p ex:f .
        """)
        assert (EX.a, EX.p, EX.b) in dataset.default
        assert (EX.e, EX.p, EX.f) in dataset.default
        assert (EX.c, EX.p, EX.d) in dataset.graph(G1)

    def test_trailing_dot_optional_in_block(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            GRAPH <http://example.org/graphs/one> { ex:a ex:p ex:b }
        """)
        assert (EX.a, EX.p, EX.b) in dataset.graph(G1)

    def test_multiple_graphs(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            GRAPH <http://example.org/graphs/one> { ex:a ex:p 1 . }
            GRAPH <http://example.org/graphs/two> { ex:a ex:p 2 . }
        """)
        assert (EX.a, EX.p, Literal(1)) in dataset.graph(G1)
        assert (EX.a, EX.p, Literal(2)) in dataset.graph(G2)
        assert (EX.a, EX.p, Literal(2)) not in dataset.graph(G1)

    def test_turtle_features_inside_blocks(self):
        dataset = parse_trig("""
            @prefix ex: <http://example.org/> .
            GRAPH <http://example.org/graphs/one> {
                ex:a a ex:Thing ;
                     ex:p "text"@en , 42 ;
                     ex:q [ ex:inner true ] .
            }
        """)
        graph = dataset.graph(G1)
        assert len(graph) == 5

    def test_unterminated_block_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_trig("GRAPH <http://e/g> { <http://e/a> <http://e/p> 1 .")

    def test_literal_graph_label_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_trig('GRAPH "nope" { <http://e/a> <http://e/p> 1 . }')
        with pytest.raises(QuerySyntaxError):
            parse_trig('"nope" { <http://e/a> <http://e/p> 1 . }')


class TestSerialization:
    def make_dataset(self) -> Dataset:
        dataset = Dataset()
        dataset.namespace_manager.bind("ex", EX)
        dataset.namespace_manager.bind(
            "g", Namespace("http://example.org/graphs/"))
        dataset.default.add(EX.root, EX.p, Literal("default"))
        dataset.graph(G1).add(EX.a, EX.p, EX.b)
        dataset.graph(G2).add(EX.c, EX.p, Literal(2))
        return dataset

    def test_round_trip(self):
        original = self.make_dataset()
        text = serialize_trig(original)
        parsed = parse_trig(text)
        assert parsed.default == original.default
        assert parsed.graph(G1) == original.graph(G1)
        assert parsed.graph(G2) == original.graph(G2)

    def test_deterministic(self):
        first = serialize_trig(self.make_dataset())
        second = serialize_trig(self.make_dataset())
        assert first == second

    def test_graphs_sorted_by_iri(self):
        text = serialize_trig(self.make_dataset())
        assert 0 < text.find("GRAPH g:one {") < text.find("GRAPH g:two {")

    def test_empty_graphs_omitted(self):
        dataset = self.make_dataset()
        dataset.graph(IRI("http://example.org/graphs/empty"))
        text = serialize_trig(dataset)
        assert "empty" not in text

    def test_compact_graph_labels_with_header_prefix(self):
        text = serialize_trig(self.make_dataset())
        assert "GRAPH g:one {" in text
        assert "@prefix g: <http://example.org/graphs/> ." in text

    def test_empty_dataset(self):
        assert serialize_trig(Dataset()) == ""

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3),
                  st.integers(0, 2)),
        max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, quads):
        dataset = Dataset()
        for s, o, p, g in quads:
            graph = dataset.default if g == 0 else dataset.graph(
                IRI(f"http://example.org/graphs/g{g}"))
            graph.add(IRI(f"http://example.org/s{s}"),
                      IRI(f"http://example.org/p{p}"),
                      IRI(f"http://example.org/o{o}"))
        parsed = parse_trig(serialize_trig(dataset))
        assert parsed.default == dataset.default
        for graph in dataset.graphs():
            if len(graph):
                assert parsed.graph(graph.identifier) == graph


class TestEndpointPersistence:
    def test_dump_and_restore(self):
        endpoint = LocalEndpoint()
        endpoint.dataset.namespace_manager.bind("ex", EX)
        endpoint.insert_triples([(EX.a, EX.p, EX.b)], graph=G1)
        endpoint.insert_triples([(EX.c, EX.p, Literal(1))])
        snapshot = endpoint.dump_trig()

        restored = LocalEndpoint()
        added = restored.load_trig(snapshot)
        assert added == 2
        assert restored.ask(
            f"ASK {{ GRAPH <{G1.value}> {{ <{EX.a}> <{EX.p}> <{EX.b}> }} }}")
        assert restored.statistics.triples_inserted == 2
        assert restored.dataset.namespace_manager.namespace_for("ex") \
            == EX.base

    def test_dump_body_is_insert_data(self):
        """Past its prefix header, a dump is INSERT DATA's quad data."""
        endpoint = LocalEndpoint()
        endpoint.dataset.namespace_manager.bind("ex", EX)
        endpoint.insert_triples([(EX.a, EX.p, Literal("x", language="en"))],
                                graph=G1)
        endpoint.insert_triples([(EX.c, EX.p, Literal(1))])
        header, _, body = endpoint.dump_trig().partition("\n\n")
        prologue = header.replace("@prefix", "PREFIX").replace("> .", ">")
        restored = LocalEndpoint()
        assert restored.update(f"{prologue}\nINSERT DATA {{ {body} }}") == 2
        assert restored.dataset.default == endpoint.dataset.default
        assert restored.dataset.graph(G1) == endpoint.dataset.graph(G1)

    def test_demo_endpoint_round_trips(self):
        from repro.data import small_demo
        demo = small_demo(observations=150)
        snapshot = demo.endpoint.dump_trig()
        restored = LocalEndpoint()
        restored.load_trig(snapshot)
        assert len(restored.dataset) == len(demo.endpoint.dataset)
        sizes = demo.endpoint.graph_sizes()
        assert restored.graph_sizes() == sizes
