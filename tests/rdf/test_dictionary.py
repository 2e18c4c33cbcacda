"""Term interning, value ranks, exact counts, and the read-only union
view."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BNode,
    Dataset,
    Graph,
    IRI,
    Literal,
    Namespace,
    TermDictionary,
    TermError,
)
from repro.rdf.dictionary import OVERLAY_BASE

EX = Namespace("http://example.org/")


class TestTermDictionary:
    def test_encode_is_stable_and_dense(self):
        d = TermDictionary()
        a = d.encode(EX.a)
        b = d.encode(EX.b)
        assert (a, b) == (0, 1)
        assert d.encode(EX.a) == a
        assert len(d) == 2

    def test_lookup_never_interns(self):
        d = TermDictionary()
        assert d.lookup(EX.ghost) is None
        assert len(d) == 0

    def test_decode_round_trip(self):
        d = TermDictionary()
        term = Literal("42", datatype=str(EX.num))
        assert d.decode(d.encode(term)) == term

    def test_equal_terms_share_one_id(self):
        d = TermDictionary()
        assert d.encode(IRI("http://e/x")) == d.encode(IRI("http://e/x"))
        # term equality, not value equality: distinct lexical forms differ
        assert d.encode(Literal(1)) != d.encode(
            Literal("01", datatype=Literal(1).datatype))

    def test_dataset_graphs_share_a_dictionary(self):
        ds = Dataset()
        g1 = ds.graph("http://e/g1")
        g2 = ds.graph("http://e/g2")
        assert g1.dictionary is ds.dictionary
        assert g2.dictionary is ds.dictionary
        assert ds.default.dictionary is ds.dictionary


class TestDictionaryOverlay:
    def test_known_terms_keep_their_base_ids(self):
        from repro.rdf import TermDictionary

        base = TermDictionary()
        base_id = base.encode(EX.a)
        overlay = base.overlay()
        assert overlay.encode(EX.a) == base_id
        assert overlay.lookup(EX.a) == base_id

    def test_new_terms_go_to_the_overflow_range(self):
        from repro.rdf import Literal, TermDictionary
        from repro.rdf.dictionary import OVERLAY_BASE

        base = TermDictionary()
        base.encode(EX.a)
        overlay = base.overlay()
        computed = Literal("only-in-this-query")
        overlay_id = overlay.encode(computed)
        assert overlay_id >= OVERLAY_BASE
        assert overlay.encode(computed) == overlay_id  # stable in-query
        assert overlay.decode(overlay_id) == computed
        # the base dictionary never saw the computed term
        assert len(base) == 1
        assert base.lookup(computed) is None

    def test_decode_row_mixes_ranges(self):
        from repro.rdf import Literal, TermDictionary

        base = TermDictionary()
        a_id = base.encode(EX.a)
        overlay = base.overlay()
        x_id = overlay.encode(Literal("x"))
        assert overlay.decode_row([a_id, None, x_id]) == \
            (EX.a, None, Literal("x"))


def value_key(term):
    """What a subject term is ordered by: an IRI's value, a blank
    node's ``str``."""
    return term.value if isinstance(term, IRI) else str(term)


def expected_ranks(dictionary):
    """The value order spelled out: every IRI and blank node by key,
    equal keys by id; ``-1`` for a literal."""
    terms = [dictionary.decode(term_id) for term_id in range(len(dictionary))]
    keyed = sorted((value_key(term), term_id) for term_id, term
                   in enumerate(terms) if not isinstance(term, Literal))
    ranks = [-1] * len(terms)
    for rank, (_key, term_id) in enumerate(keyed):
        ranks[term_id] = rank
    return ranks


#: subjects sharing prefixes, non-ASCII ones, and an IRI whose value is
#: a blank node's ``str`` (``IRI("_:x")`` beside ``BNode("x")``)
SUBJECTS = st.one_of(
    st.builds(lambda tail: IRI(f"http://example.org/obs/{tail}"),
              st.text("ab/é中", max_size=3)),
    st.builds(BNode, st.text("xyé", min_size=1, max_size=2)),
    st.sampled_from([IRI("_:x"), BNode("x"), IRI("A:city"), IRI("_:"),
                     IRI("http://example.org/")]))
TERMS = st.one_of(SUBJECTS, st.builds(Literal, st.integers(0, 3)),
                  st.builds(Literal, st.sampled_from(["_:x", "a", "é"])))


class TestValueRanks:
    def test_subjects_by_value_literals_unranked(self):
        d = TermDictionary()
        d.encode_all([EX.b, Literal("a"), BNode("zzz"), IRI("A:city"),
                      IRI("_:x"), BNode("x")])
        # "A:city" < "_:x" (IRI, id 4) < "_:x" (blank node, id 5)
        # < "_:zzz" < "http://example.org/b"
        assert d.value_ranks(np.arange(6)).tolist() == [4, -1, 3, 0, 1, 2]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(TERMS, max_size=8), min_size=1, max_size=4))
    def test_ranks_after_any_appends_equal_a_fresh_build(self, batches):
        grown = TermDictionary()
        for batch in batches:
            grown.encode_all(batch)
            # the first batch builds the order, each later one extends it
            grown.value_ranks(np.arange(len(grown)))
        fresh = TermDictionary()
        fresh.encode_all(term for batch in batches for term in batch)
        ids = np.arange(len(fresh) + 2)
        assert grown.value_ranks(ids).tolist() \
            == fresh.value_ranks(ids).tolist() \
            == expected_ranks(fresh) + [-1, -1]

    def test_overlay_ids_and_ids_past_the_mark_are_never_ranked(self):
        d = TermDictionary()
        d.encode_all([EX.b, EX.a, Literal(1)])
        overlay = d.overlay()
        computed = overlay.encode(EX.c)
        assert computed >= OVERLAY_BASE
        probe = np.array([0, 1, 2, 3, 100, computed])
        assert d.value_ranks(probe).tolist() == [1, 0, -1, -1, -1, -1]
        mark, rank, keys = d._rank
        assert (mark, len(rank), rank[mark], len(keys)) == (3, 4, -1, 2)
        # interning moves the mark: the next request ranks the new id
        d.encode(EX.aa)
        assert d.value_ranks(probe).tolist() == [2, 0, -1, 1, -1, -1]

    def test_readers_beside_an_interning_thread_see_whole_orders(self):
        """Every ``(mark, rank, keys)`` a lock-free reader picks up is a
        complete order of the ids below its mark, and no reader sees a
        mark go back, while a writer keeps interning and three readers'
        own requests keep extending the order — more threads than the
        host has cores, switching every 10 µs."""
        d = TermDictionary()
        terms = [Literal(n) if n % 3 == 0 else
                 IRI(f"http://example.org/t/{n * 7919 % 3000:04d}")
                 for n in range(3000)]
        interned = threading.Event()
        seen = [[], [], []]
        broken = []

        def intern():
            for start in range(0, len(terms), 100):
                d.encode_all(terms[start:start + 100])
                interned.wait(0.001)
            interned.set()

        def read(marks):
            while not interned.is_set():
                mark, rank, keys = d._rank
                ranked = np.flatnonzero(rank[:mark] >= 0)
                if len(rank) != mark + 1 or rank[mark] != -1 \
                        or sorted(rank[ranked].tolist()) \
                        != list(range(len(keys))) \
                        or keys[rank[ranked]].tolist() != [
                            value_key(d.decode(term_id))
                            for term_id in ranked.tolist()]:
                    broken.append(mark)
                marks.append(mark)
                d.value_ranks(np.arange(len(d)))

        threads = [threading.Thread(target=intern)] + [
            threading.Thread(target=read, args=(marks,)) for marks in seen]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            interned.set()
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not broken
        assert all(marks == sorted(marks) for marks in seen)
        assert len(set().union(*seen)) > 1
        assert d.value_ranks(np.arange(len(d))).tolist() == expected_ranks(d)


class TestCountFromIndexes:
    @pytest.fixture
    def graph(self):
        g = Graph()
        for i in range(5):
            g.add(EX.s, EX.p, EX[f"o{i}"])
            g.add(EX[f"s{i}"], EX.q, EX.o)
        g.add(EX.s, EX.r, EX.o)
        return g

    @pytest.mark.parametrize("pattern,expected", [
        ((None, None, None), 11),
        (("s", "p", None), 5),       # (s,p,·)
        ((None, "q", "o"), 5),       # (·,p,o)
        (("s", None, None), 6),      # (s,·,·)
        ((None, None, "o"), 6),      # (·,·,o)
        (("s", None, "o"), 1),       # (s,·,o)
        ((None, "p", None), 5),      # (·,p,·)
        (("s", "p", "o0"), 1),       # fully bound
        (("s", "p", "nope"), 0),
    ])
    def test_count_matches_iteration(self, graph, pattern, expected):
        terms = tuple(None if part is None else EX[part]
                      for part in pattern)
        assert graph.count(terms) == expected
        assert graph.count(terms) == len(list(graph.triples(terms)))

    def test_unknown_term_counts_zero(self, graph):
        assert graph.count((EX.never_seen, None, None)) == 0


class TestUnionView:
    @pytest.fixture
    def dataset(self):
        ds = Dataset()
        ds.default.add(EX.a, EX.p, EX.b)
        ds.graph("http://e/g1").add(EX.b, EX.p, EX.c)
        ds.graph("http://e/g2").add(EX.c, EX.p, EX.d)
        return ds

    def test_view_is_live(self, dataset):
        view = dataset.union()
        assert len(view) == 3
        dataset.graph("http://e/g1").add(EX.x, EX.p, EX.y)
        assert len(view) == 4

    def test_view_rejects_mutation(self, dataset):
        view = dataset.union()
        with pytest.raises(TermError):
            view.add(EX.x, EX.p, EX.y)
        with pytest.raises(TermError):
            view.remove((None, None, None))
        with pytest.raises(TermError):
            view.clear()

    def test_copy_gives_mutable_merge(self, dataset):
        merged = dataset.union().copy()
        merged.add(EX.x, EX.p, EX.y)
        assert len(merged) == 4
        assert len(dataset) == 3  # the dataset is untouched

    def test_read_api(self, dataset):
        view = dataset.union()
        assert (EX.a, EX.p, EX.b) in view
        assert set(view.objects(EX.b, EX.p)) == {EX.c}
        assert view.value(EX.c, EX.p, None) == EX.d
        assert view.count((None, EX.p, None)) == 3

    def test_union_dedups_an_overlap(self, dataset):
        # duplicate a default-graph triple into a named graph
        dataset.graph("http://e/g1").add(EX.a, EX.p, EX.b)
        # the union view deduplicates: still 3 distinct triples
        assert len(dataset.union()) == 3

    def test_union_query_results_stay_distinct(self, dataset):
        from repro.sparql import LocalEndpoint
        dataset.graph("http://e/g1").add(EX.a, EX.p, EX.b)  # overlap
        endpoint = LocalEndpoint(dataset)
        table = endpoint.select(
            "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }")
        rows = [tuple(map(str, row)) for row in table.rows]
        assert len(rows) == len(set(rows)) == 3
