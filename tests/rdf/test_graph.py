"""Unit + property tests for the indexed graph and the dataset."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BNode,
    Dataset,
    Graph,
    IRI,
    Literal,
    Namespace,
    TermError,
    Triple,
)

EX = Namespace("http://example.org/")


@pytest.fixture
def graph():
    g = Graph()
    g.add(EX.a, EX.knows, EX.b)
    g.add(EX.a, EX.knows, EX.c)
    g.add(EX.b, EX.knows, EX.c)
    g.add(EX.a, EX.name, Literal("Alice"))
    return g


class TestGraphMutation:
    def test_add_and_len(self, graph):
        assert len(graph) == 4

    def test_add_is_idempotent(self, graph):
        graph.add(EX.a, EX.knows, EX.b)
        assert len(graph) == 4

    def test_add_triple_tuple(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        g.add((EX.a, EX.p, EX.c))
        assert len(g) == 2

    def test_add_rejects_bad_terms(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add(Literal("x"), EX.p, EX.b)
        with pytest.raises(TermError):
            g.add("nonsense")

    def test_remove_pattern(self, graph):
        removed = graph.remove((EX.a, EX.knows, None))
        assert removed == 2
        assert len(graph) == 2
        assert (EX.a, EX.knows, EX.b) not in graph

    def test_remove_specific(self, graph):
        assert graph.remove((EX.a, EX.name, Literal("Alice"))) == 1
        assert graph.remove((EX.a, EX.name, Literal("Alice"))) == 0

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert list(graph) == []

    def test_add_all_and_iadd(self):
        g = Graph()
        g += [(EX.a, EX.p, EX.b), (EX.a, EX.p, EX.c)]
        assert len(g) == 2


class TestGraphQuery:
    def test_contains(self, graph):
        assert (EX.a, EX.knows, EX.b) in graph
        assert (EX.a, EX.knows, EX.z) not in graph

    def test_pattern_wildcards(self, graph):
        assert len(list(graph.triples((None, None, None)))) == 4
        assert len(list(graph.triples((EX.a, None, None)))) == 3
        assert len(list(graph.triples((None, EX.knows, None)))) == 3
        assert len(list(graph.triples((None, None, EX.c)))) == 2
        assert len(list(graph.triples((EX.a, EX.knows, None)))) == 2
        assert len(list(graph.triples((None, EX.knows, EX.c)))) == 2
        assert len(list(graph.triples((EX.a, None, EX.b)))) == 1

    def test_missing_patterns_yield_nothing(self, graph):
        assert list(graph.triples((EX.z, None, None))) == []
        assert list(graph.triples((None, EX.unknown, None))) == []
        assert list(graph.triples((None, None, EX.z))) == []

    def test_subjects_objects_predicates_dedup(self, graph):
        assert set(graph.subjects(EX.knows)) == {EX.a, EX.b}
        assert set(graph.objects(EX.a, EX.knows)) == {EX.b, EX.c}
        assert set(graph.predicates(EX.a)) == {EX.knows, EX.name}

    def test_value(self, graph):
        assert graph.value(EX.a, EX.name, None) == Literal("Alice")
        assert graph.value(None, EX.name, Literal("Alice")) == EX.a
        assert graph.value(EX.a, None, EX.b) == EX.knows
        assert graph.value(EX.z, EX.name, None) is None
        assert graph.value(EX.z, EX.name, None,
                           default=Literal("?")) == Literal("?")

    def test_value_requires_two_bound(self, graph):
        with pytest.raises(TermError):
            graph.value(EX.a, None, None)

    def test_count(self, graph):
        assert graph.count() == 4
        assert graph.count((EX.a, None, None)) == 3

    def test_subject_predicates(self, graph):
        properties = graph.subject_predicates(EX.a)
        assert properties[EX.knows] == {EX.b, EX.c}
        assert properties[EX.name] == {Literal("Alice")}

    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.add(EX.z, EX.p, EX.q)
        assert len(graph) == 4
        assert len(clone) == 5

    def test_equality_by_triples(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.remove((EX.a, EX.name, None))
        assert clone != graph


class TestGraphCount:
    def test_counts_exact_for_bound_shapes(self, graph):
        assert graph.count((EX.a, EX.knows, EX.b)) == 1
        assert graph.count((EX.a, EX.knows, EX.z)) == 0
        assert graph.count((EX.a, EX.knows, None)) == 2
        assert graph.count((None, EX.knows, EX.c)) == 2

    def test_counts_never_zero_when_present(self, graph):
        assert graph.count((EX.a, None, None)) >= 3
        assert graph.count((None, EX.knows, None)) >= 3
        assert graph.count((None, None, EX.c)) >= 2
        assert graph.count((None, None, None)) == 4

    def test_count_zero_for_absent_terms(self, graph):
        assert graph.count((EX.z, None, None)) == 0
        assert graph.count((None, EX.unknown, None)) == 0
        assert graph.count((None, None, EX.z)) == 0


class TestDataset:
    def test_named_graphs_created_on_demand(self):
        ds = Dataset()
        g1 = ds.graph("http://example.org/g1")
        g1.add(EX.a, EX.p, EX.b)
        assert len(ds) == 1
        assert "http://example.org/g1" in ds
        assert ds.graph(IRI("http://example.org/g1")) is g1

    def test_default_graph(self):
        ds = Dataset()
        ds.graph().add(EX.a, EX.p, EX.b)
        assert len(ds.default) == 1

    def test_union(self):
        ds = Dataset()
        ds.default.add(EX.a, EX.p, EX.b)
        ds.graph("http://e/g").add(EX.a, EX.p, EX.c)
        merged = ds.union()
        assert len(merged) == 2

    def test_union_dedups(self):
        ds = Dataset()
        ds.default.add(EX.a, EX.p, EX.b)
        ds.graph("http://e/g").add(EX.a, EX.p, EX.b)
        assert len(ds.union()) == 1

    def test_drop(self):
        ds = Dataset()
        ds.graph("http://e/g").add(EX.a, EX.p, EX.b)
        assert ds.drop("http://e/g")
        assert not ds.drop("http://e/g")
        assert len(ds) == 0

    def test_union_view_rejects_every_write_path(self):
        """Regression: every mutating call on the read-only union view
        must raise a clear error instead of touching a source graph."""
        import pytest

        from repro.rdf import TermError

        ds = Dataset()
        ds.default.add(EX.a, EX.p, EX.b)
        ds.graph("http://e/g").add(EX.a, EX.p, EX.c)
        view = ds.union()
        writes = [
            lambda: view.add(EX.x, EX.p, EX.y),
            lambda: view.add((EX.x, EX.p, EX.y)),
            lambda: view.add_all([(EX.x, EX.p, EX.y)]),
            lambda: view.remove((EX.a, EX.p, None)),
            lambda: view.clear(),
            lambda: view.bind("ex", "http://example.org/"),
        ]
        for write in writes:
            with pytest.raises(TermError, match="read-only"):
                write()
        # augmented assignment must raise the same clear error, not a
        # silent no-op or an opaque TypeError
        with pytest.raises(TermError, match="read-only"):
            view.__iadd__([(EX.x, EX.p, EX.y)])
        # and nothing leaked into the sources
        assert len(ds.default) == 1
        assert len(ds.graph("http://e/g")) == 1


# -- property-based: index consistency ------------------------------------------

terms = st.sampled_from([EX.a, EX.b, EX.c, EX.d, EX.e])
predicates = st.sampled_from([EX.p, EX.q, EX.r])
objects = st.one_of(terms, st.integers(0, 5).map(Literal))
triples = st.tuples(terms, predicates, objects)


@settings(max_examples=60)
@given(st.lists(triples, max_size=40), st.lists(triples, max_size=15))
def test_graph_behaves_like_a_set(to_add, to_remove):
    g = Graph()
    model = set()
    for s, p, o in to_add:
        g.add(s, p, o)
        model.add((s, p, o))
    for s, p, o in to_remove:
        g.remove((s, p, o))
        model.discard((s, p, o))
    assert len(g) == len(model)
    assert {(t.subject, t.predicate, t.object) for t in g} == model
    # every index answers consistently
    for s, p, o in model:
        assert (s, p, o) in g
        assert next(iter(g.triples((s, None, None)))) is not None
        assert next(iter(g.triples((None, p, None)))) is not None
        assert next(iter(g.triples((None, None, o)))) is not None


@settings(max_examples=40)
@given(st.lists(triples, max_size=30))
def test_counts_agree_with_iteration(entries):
    g = Graph()
    for s, p, o in entries:
        g.add(s, p, o)
    assert g.count((None, None, None)) == len(g)
    for s, p, o in entries:
        for pattern in ((s, p, None), (None, p, o), (s, None, None)):
            assert g.count(pattern) == len(list(g.triples(pattern)))
