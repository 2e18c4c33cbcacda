"""The vectorized join kernel against the row-at-a-time step it
replaced (``reference_join.ReferenceJoin``, the oracle).

Both sides run the same chain of triple patterns over the same id
table and the same graph, with the range-scan ("hash") / per-key
("probe") choice forced to the same value, and must agree after every
step on

* the rows, **in the same order** (probe-row order, a row's matches in
  index order), unbound cells included;
* ``PROBE_COUNTER.entries`` — every index entry read, once.

Graphs are generated with a compacted column tier, a delta overlay on
top and pending tombstones, and — unioned — with a second graph that
repeats some of the first one's triples, so "index order" is the
storage layer's real one, not one the test makes up.

The kernel indexes a build side by a key directory when its keys are
dense and by a sorted search when they are not
(``evaluator_steps.DIRECTORY_FILL``); a small dictionary only ever
hands out dense ids, so a second differential runs both sides over
:class:`ArraySource` — raw id arrays the test lays out around that
rule.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Dataset, Literal
from repro.rdf.columnar import key_patterns
from repro.rdf.dictionary import OVERLAY_BASE
from repro.sparql import evaluator_steps, evaluator_walker
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.endpoint import LocalEndpoint
from repro.sparql.evaluator import (
    PROBE_COUNTER,
    DatasetContext,
    PatternEvaluator,
)

from tests.sparql.reference_join import (
    ReferenceJoin,
    reference_join_relation,
    reference_left_outer,
    reference_minus,
)
from tests.sparql.tables import id_table

EX = "http://example.org/"
NODES = [IRI(f"{EX}n{index}") for index in range(6)]
PREDICATES = [IRI(f"{EX}p{index}") for index in range(3)]
#: never stored, never interned: a pattern holding it is dead
STRANGER = IRI(f"{EX}stranger")
OTHER_GRAPH = IRI(f"{EX}other")
VARIABLES = ["x", "y", "z", "w"]

triples = st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES),
                    st.sampled_from(NODES))
#: a cell of the seed table: a stored node, a stored predicate, unbound,
#: or one of two computed terms (overlay ids, at ``1 << 40`` and up)
cells = st.one_of(st.sampled_from(NODES), st.sampled_from(NODES),
                  st.sampled_from(PREDICATES), st.none(),
                  st.sampled_from([Literal("computed"), Literal(7)]))
positions = st.one_of(
    st.sampled_from([Var(name) for name in VARIABLES]),
    st.sampled_from([Var(name) for name in VARIABLES]),
    st.sampled_from(NODES + PREDICATES), st.just(STRANGER))
patterns = st.builds(TriplePatternNode, positions, positions, positions)


@st.composite
def seed_tables(draw):
    """``(names, rows of terms)``: any width from the unit table up,
    any length from empty up, cells repeating freely."""
    names = draw(st.lists(st.sampled_from(VARIABLES[:3]), unique=True,
                          max_size=3))
    rows = draw(st.lists(st.tuples(*[cells] * len(names)), max_size=12))
    if not names:
        rows = rows[:1] or [()]  # zero columns: the unit table
    return tuple(names), rows


class Forced(PatternEvaluator):
    """The evaluator with the strategy choice taken from the test."""

    use_hash = True

    def _prefer_hash(self, source, base, rows):
        return self.use_hash


def build_dataset(compacted, overlaid, removed, other):
    dataset = Dataset()
    graph = dataset.default
    for triple in compacted:
        graph.add(triple)
    graph.compact()
    for triple in overlaid:
        graph.add(triple)
    for triple in removed:
        graph.remove(triple)
    for triple in other:
        dataset.graph(OTHER_GRAPH).add(triple)
    # every term a pattern may name is interned, stored or not
    for term in NODES + PREDICATES:
        dataset.dictionary.encode(term)
    return dataset


def run_both(dataset, names, term_rows, chain, use_hash):
    """Run ``chain`` through the kernel and the oracle; assert they
    agree after every step, and return the final rows."""
    evaluator = Forced(DatasetContext(dataset))
    encode = evaluator._dict.encode
    rows = [tuple(None if term is None else encode(term) for term in row)
            for row in term_rows]
    return agree(evaluator, evaluator.context.default_source(),
                 id_table(names, rows), chain, use_hash)


def agree(evaluator, source, table, chain, use_hash):
    """``chain`` over the id ``table`` and ``source`` through
    ``evaluator`` and through the oracle: the same rows in the same
    order and the same probe counts after every step.  Returns the
    final rows."""
    evaluator.use_hash = use_hash
    oracle = ReferenceJoin(evaluator._dict, use_hash)
    ours = theirs = table
    for pattern in chain:
        with PROBE_COUNTER as counter:
            ours = evaluator._step_triple(pattern, source, ours)
            probed = counter.entries
        with PROBE_COUNTER as counter:
            theirs = oracle._step_triple(pattern, source, theirs)
            assert probed == counter.entries, pattern
        assert ours.names == theirs.names
        assert ours.rows == theirs.rows, pattern
        assert len(ours) == len(theirs.rows)
    return ours.rows


class TestKernelEqualsRowAtATime:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(triples, max_size=25), st.lists(triples, max_size=8),
           st.lists(triples, max_size=4), st.lists(triples, max_size=6),
           seed_tables(), st.lists(patterns, min_size=1, max_size=3),
           st.booleans())
    def test_same_rows_same_order_same_probes(
            self, compacted, overlaid, removed, other, seed, chain,
            use_hash):
        dataset = build_dataset(compacted, overlaid, removed, other)
        run_both(dataset, *seed, chain, use_hash)


def star(count=4):
    """n0 -p0-> n1..; n0 and n1 also loop on themselves through p1."""
    edges = [(NODES[0], PREDICATES[0], NODES[index])
             for index in range(1, count + 1)]
    return edges + [(NODES[0], PREDICATES[1], NODES[0]),
                    (NODES[1], PREDICATES[1], NODES[1]),
                    (NODES[2], PREDICATES[1], NODES[3])]


@pytest.mark.parametrize("use_hash", [True, False], ids=["hash", "probe"])
class TestNamedCases:
    """The shapes the issue names, one each, with the answer spelled
    out where it is short enough to read."""

    def dataset(self):
        return build_dataset(star(), [], [], [])

    def test_keys_matching_none_one_and_many(self, use_hash):
        rows = run_both(
            self.dataset(), ("x",),
            [(NODES[5],), (NODES[2],), (NODES[0],), (NODES[0],)],
            [TriplePatternNode(Var("x"), PREDICATES[0], Var("y"))], use_hash)
        # n5: absent; n2: a subject of p1 only; n0 (twice): four each
        assert len(rows) == 8
        assert [row[0] for row in rows] == [rows[0][0]] * 8

    def test_unbound_join_cells_capture_in_row_order(self, use_hash):
        rows = run_both(
            self.dataset(), ("x", "y"),
            [(NODES[0], None), (None, NODES[2]), (None, None),
             (NODES[0], NODES[4]), (NODES[3], None)],
            [TriplePatternNode(Var("x"), PREDICATES[0], Var("y"))], use_hash)
        # 4 captures of ?y, 1 of ?x, the whole range, 1 check, none
        assert len(rows) == 4 + 1 + 4 + 1 + 0
        assert all(None not in row for row in rows)

    def test_two_column_key(self, use_hash):
        rows = run_both(
            self.dataset(), ("x", "y"),
            [(NODES[0], NODES[1]), (NODES[1], NODES[0]),
             (NODES[0], NODES[1]), (NODES[0], NODES[5])],
            [TriplePatternNode(Var("x"), PREDICATES[0], Var("y"))], use_hash)
        assert len(rows) == 2

    @pytest.mark.parametrize("seed", [
        (("x",), [(NODES[0],), (NODES[2],), (NODES[1],)]),   # bound
        (("x",), [(None,), (NODES[1],), (None,)]),           # unbound
        (("z",), [(NODES[4],)]),                             # new
    ], ids=["bound", "unbound", "new"])
    def test_variable_repeated_in_one_pattern(self, use_hash, seed):
        rows = run_both(
            self.dataset(), *seed,
            [TriplePatternNode(Var("x"), PREDICATES[1], Var("x"))], use_hash)
        # only the two self-loops n0 and n1 ever qualify
        assert len(rows) == {"x": 2 if seed[1][0][0] else 5,
                             "z": 2}[seed[0][0]]

    def test_overlay_ids_never_match_and_never_overflow(self, use_hash):
        computed = [Literal("computed"), Literal(7)]
        rows = run_both(
            self.dataset(), ("x", "y"),
            [(computed[0], computed[1]), (NODES[0], computed[0]),
             (NODES[0], NODES[1]), (computed[1], None)],
            [TriplePatternNode(Var("x"), PREDICATES[0], Var("y")),
             TriplePatternNode(Var("y"), Var("q"), Var("x"))], use_hash)
        assert rows == []

    def test_empty_table_empty_range_and_unit_table(self, use_hash):
        dataset = self.dataset()
        scan = TriplePatternNode(Var("x"), PREDICATES[0], Var("y"))
        assert run_both(dataset, ("x",), [], [scan], use_hash) == []
        assert run_both(
            dataset, ("x",), [(NODES[0],)],
            [TriplePatternNode(Var("x"), PREDICATES[2], Var("y"))],
            use_hash) == []
        assert run_both(
            dataset, ("x",), [(NODES[0],)],
            [TriplePatternNode(Var("x"), STRANGER, Var("y"))],
            use_hash) == []
        assert len(run_both(dataset, (), [()], [scan], use_hash)) == 4

    def test_cross_product_repeats_rows_and_tiles_matches(self, use_hash):
        rows = run_both(
            self.dataset(), ("z",), [(NODES[4],), (None,), (NODES[5],)],
            [TriplePatternNode(Var("x"), PREDICATES[0], Var("y"))], use_hash)
        assert len(rows) == 12
        assert [row[0] for row in rows[:4]] == [rows[0][0]] * 4
        assert [row[1:] for row in rows[:4]] == [row[1:] for row in rows[4:8]]


class ArraySource:
    """A source over raw ``(S, P, O)`` id arrays, in the index order
    the test gives them: ids no small dictionary hands out — spread
    out, at the ``int32`` ceiling, in the overlay range."""

    def __init__(self, triples, dtype):
        self.arrays = tuple(
            np.array([triple[position] for triple in triples], dtype=dtype)
            for position in range(3))
        self.view = self

    def match_arrays(self, pattern):
        """Each key's matches in turn (``pattern`` may hold array
        cells, zipped), in the index order of ``arrays``."""
        picked = []
        for key in key_patterns(pattern):
            mask = np.ones(len(self.arrays[0]), dtype=bool)
            for column, cell in zip(self.arrays, key):
                if cell is not None:
                    mask &= column == cell
            picked.append(np.flatnonzero(mask))
        at = np.concatenate(picked)
        return tuple(column[at] for column in self.arrays)


INT32_MAX = np.iinfo(np.int32).max
PREDICATE, DECOY = PREDICATES[:2]


@st.composite
def directory_cases(draw):
    """``(triples, dtype, names, rows)`` — a build side of one
    predicate keyed on its subjects and a probe table, laid out around
    the directory rule.  Keys: none, one or several; each held once
    (nothing to sort) or in runs of 1, 2 and many; packed, spread until
    their span sits exactly at / one past the bound of the range
    scan's build, or half of them overlay ids; from a small id, from
    one that ends the span on the ``int32`` ceiling, or all in the
    overlay range.  Probe cells: held keys, keys in a gap, below the
    lowest and above the highest, unbound."""
    rows = draw(st.integers(1, 12))
    runs = draw(st.lists(draw(st.sampled_from(
        [st.just(1), st.sampled_from([1, 1, 2, 7])])), max_size=8))
    count = len(runs)
    bound = evaluator_steps.DIRECTORY_FILL * (sum(runs) + rows)
    layout = draw(st.sampled_from(["packed", "at", "over", "mixed"]))
    span = {"at": bound, "over": bound + 1}.get(layout, count)
    # the first key at 0, the last at span - 1, the others between
    offsets = [0][:count] if count < 2 else sorted([0, span - 1] + draw(
        st.lists(st.integers(1, max(1, span - 2)), unique=True,
                 min_size=count - 2, max_size=count - 2)))
    low = draw(st.sampled_from(
        [3, 1000] if layout == "mixed"
        else [3, 1000, INT32_MAX - max(span, 1) + 1, OVERLAY_BASE]))
    keys = [low + offset for offset in offsets]
    if layout == "mixed":
        keys[count // 2:] = [OVERLAY_BASE + offset
                             for offset in offsets[count // 2:]]
    triples = draw(st.permutations(
        [(key, 0, 10 * index + copy)
         for index, (key, run) in enumerate(zip(keys, runs))
         for copy in range(run)]
        + [(low, 1, 0), (low, 1, 1)]))
    high = max(keys, default=low)
    cell = st.one_of(
        st.sampled_from(keys or [low]), st.sampled_from(keys or [low]),
        st.integers(low, min(high, low + span)), st.none(),
        st.sampled_from([low - 1, low - 3, high + 1, high + 7,
                         OVERLAY_BASE + 5]))
    names = draw(st.sampled_from([("x",), ("x",), ("x", "y"), ("w", "x")]))
    other = st.one_of(st.integers(0, 80), st.none())
    table = draw(st.lists(st.tuples(*(
        cell if name == "x" else other for name in names)),
        min_size=rows, max_size=rows))
    return (triples, np.int32 if high <= INT32_MAX else np.int64, names,
            table)


def array_evaluator():
    """A forced-strategy evaluator whose dictionary knows the two
    predicates ``directory_cases`` stores as ids 0 and 1."""
    dataset = Dataset()
    assert [dataset.dictionary.encode(term)
            for term in (PREDICATE, DECOY)] == [0, 1]
    return Forced(DatasetContext(dataset))


class TestKeyDirectory:
    @settings(max_examples=500, deadline=None)
    @given(directory_cases(), st.booleans())
    def test_dense_and_sparse_builds_equal_the_oracle(self, case,
                                                      use_hash):
        triples, dtype, names, rows = case
        agree(array_evaluator(), ArraySource(triples, dtype),
              id_table(names, rows),
              [TriplePatternNode(Var("x"), PREDICATE, Var("y")),
               TriplePatternNode(Var("x"), PREDICATE, Var("z"))], use_hash)

    def calls(self, monkeypatch, triples, rows, names=("x",)):
        """How often the kernel sorts and searches in one range-scan
        step (checked against the oracle first):
        ``{"argsort": n, "searchsorted": n}``."""
        counts = {"argsort": 0, "searchsorted": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        evaluator = array_evaluator()
        source = ArraySource(triples, np.int32)
        table = id_table(names, rows)
        pattern = TriplePatternNode(Var("x"), PREDICATE, Var("y"))
        agree(evaluator, source, table, [pattern], True)
        with monkeypatch.context() as patch:
            for name in counts:
                patch.setattr(np, name, counting(name, getattr(np, name)))
            evaluator._step_triple(pattern, source, table)
        return counts

    def test_distinct_dense_keys_are_neither_sorted_nor_searched(
            self, monkeypatch):
        triples = [(100 + 3 * index, 0, index) for index in (4, 0, 2, 1, 3)]
        rows = [(100,), (101,), (112,), (99,), (113,), (106,)]
        assert self.calls(monkeypatch, triples, rows) == {
            "argsort": 0, "searchsorted": 0}

    def test_repeated_dense_keys_are_sorted_once_and_not_searched(
            self, monkeypatch):
        triples = [(100 + index % 3, 0, index) for index in range(7)]
        assert self.calls(monkeypatch, triples, [(101,), (100,), (104,)]) \
            == {"argsort": 1, "searchsorted": 0}

    def test_a_composite_key_takes_the_directory(self, monkeypatch):
        triples = [(100 + index % 3, 0, index) for index in range(7)]
        assert self.calls(
            monkeypatch, triples, [(101, 4), (100, 0), (101, 5), (104, 1)],
            ("x", "y")) == {"argsort": 0, "searchsorted": 0}

    def test_the_bound_is_where_the_path_changes(self, monkeypatch):
        """6 entries + 4 rows: 40 slots are a directory, 41 a search."""
        rows = [(100,), (139,), (140,), (120,)]
        for last, searched in ((139, 0), (140, 1)):
            triples = [(key, 0, key) for key in (100, 103, 104, 110, 111,
                                                 last)]
            assert self.calls(monkeypatch, triples, rows) == {
                "argsort": searched, "searchsorted": searched}

    @pytest.mark.parametrize("keys", [
        [OVERLAY_BASE + 4, OVERLAY_BASE, OVERLAY_BASE + 9, OVERLAY_BASE + 4],
        [7, OVERLAY_BASE + 4, 3, OVERLAY_BASE, 7],
    ], ids=["overlay", "mixed"])
    def test_a_relation_of_overlay_ids_never_allocates_their_span(
            self, monkeypatch, keys):
        """VALUES / sub-SELECT data joins through the same kernel.  A
        relation of overlay ids alone is dense (a directory of a dozen
        slots); one mixing base and overlay ids spans ``1 << 40`` and
        must be searched — either way the step allocates of the order
        of its two sides."""
        built = []
        original = evaluator_steps.grouped

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(evaluator_steps, "grouped", recording)
        table = id_table(("a", "x"), [
            (index, key) for index, key in enumerate(
                [*keys, 5, OVERLAY_BASE + 5, OVERLAY_BASE - 1])])
        pairs = [(key, 100 + index) for index, key in enumerate(keys)]
        relation = id_table(("x", "v"), pairs)
        tracemalloc.start()
        try:
            joined = evaluator_walker._join_relation(table, relation)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert joined.rows == [
            (index, key, value) for index, key in enumerate(keys)
            for held, value in pairs if held == key]
        assert peak < 64 * 1024
        (build,) = built
        assert (build.slots is None) == (min(keys) < OVERLAY_BASE)


#: id cells of an operand: few values, so rows collide
operand_cells = st.one_of(st.integers(0, 3), st.integers(0, 3), st.none())


@st.composite
def id_tables(draw, pool, min_rows=0):
    """An id table over up to four names of ``pool`` (none: rows of no
    cells); one in three has no unbound cell at all."""
    names = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
    cell = draw(st.sampled_from([operand_cells, operand_cells,
                                 st.integers(0, 3)]))
    return id_table(names, draw(st.lists(
        st.tuples(*[cell] * len(names)), min_size=min_rows, max_size=10)))


#: two tables whose user variables overlap in zero to three columns,
#: either or both carrying a ``#mark`` column
operands = st.tuples(id_tables(["a", "b", "c", "d", "#mark1"]),
                     id_tables(["a", "b", "c", "e", "#mark1"]))


@st.composite
def outer_operands(draw):
    """A required side of at least one row, and optional-side solutions
    over it: its names, a ``#mark`` column naming one of its rows — in
    any order, any row any number of times — and new names."""
    left = draw(id_tables(["a", "b", "c", "#mark1"], min_rows=1))
    new = draw(st.lists(st.sampled_from(["d", "e"]), unique=True))
    names = (*left.names, "#mark2", *new)
    mark = st.integers(0, len(left) - 1)
    return left, id_table(names, draw(st.lists(st.tuples(*[
        mark if name == "#mark2" else operand_cells for name in names]),
        max_size=12)))


class TestPairedOperators:
    """The walker's operators over two tables against the loops they
    replaced: the same names, rows and order."""

    @settings(max_examples=400, deadline=None)
    @given(operands)
    def test_relation_join_equals_the_pairwise_loop(self, pair):
        table, relation = pair
        result = evaluator_walker._join_relation(table, relation)
        expected = reference_join_relation(table, relation)
        assert result.names == expected.names
        assert result.rows == expected.rows

    @settings(max_examples=300, deadline=None)
    @given(outer_operands())
    def test_left_outer_equals_the_marker_dict(self, pair):
        left, right = pair
        result = evaluator_walker._left_outer(left, right, "#mark2")
        expected = reference_left_outer(left, right, "#mark2")
        assert result.names == expected.names
        assert result.rows == expected.rows

    def test_undef_on_both_sides_keeps_the_loop_order(self):
        """Rows that pair across several partitions come back in left-row
        order, a row's pairs in relation order."""
        table = id_table(("x", "y"), [(None, 2), (1, None), (1, 2)])
        relation = id_table(("x", "y", "z"), [
            (1, None, 10), (None, None, 11), (None, 2, 12), (1, 2, 13),
            (3, None, 14)])
        result = evaluator_walker._join_relation(table, relation)
        assert result.rows == reference_join_relation(table, relation).rows
        # ?x unbound meets 14 too; the two rows binding ?x = 1 do not
        assert [row[2] for row in result.rows] == [
            10, 11, 12, 13, 14, 10, 11, 12, 13, 10, 11, 12, 13]


class TestMinus:
    def evaluator(self):
        return PatternEvaluator(DatasetContext(Dataset()))

    @settings(max_examples=400, deadline=None)
    @given(operands)
    def test_anti_join_equals_the_pairwise_loop(self, pair):
        left, removals = pair
        result = self.evaluator()._minus_table(left, removals)
        assert result.names == left.names
        assert result.rows == reference_minus(left, removals).rows

    def test_unbound_cells_finish_inside_the_deadline(self):
        """2 000 x 2 000 rows that never exclude one another, with an
        unbound cell on each side: the pairwise loop took about a
        second; pairing per partition is done long before 50 ms."""
        left = id_table(("a", "b"), [
            (index, None if index % 7 == 0 else index)
            for index in range(2000)])
        removals = id_table(("a", "b"), [
            (None if index % 5 == 0 else 5000 + index, 9000 + index)
            for index in range(2000)])
        started = time.perf_counter()
        result = self.evaluator()._minus_table(left, removals)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05
        assert result.rows == reference_minus(left, removals).rows

    def test_bound_cells_finish_inside_the_deadline(self):
        """The same size with every shared cell bound."""
        left = id_table(("a", "b"), [
            (index, index % 50) for index in range(2000)])
        removals = id_table(("a", "b"), [
            (2 * index, (2 * index) % 50) for index in range(2000)])
        started = time.perf_counter()
        result = self.evaluator()._minus_table(left, removals)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05
        assert result.rows == [row for row in left.rows if row[0] % 2]


def test_limit_returns_the_first_rows_of_the_row_pipeline():
    """Which rows a ``LIMIT`` window holds is the kernel's order
    contract end to end.  The expected rows are what the row-at-a-time
    pipeline answered for this dataset (column tier, then a late
    overlay)."""
    dataset = Dataset()
    graph = dataset.default
    for index in range(300):
        subject = IRI(f"{EX}s{(index * 37) % 300}")
        graph.add(subject, IRI(f"{EX}p"), IRI(f"{EX}o{index % 11}"))
        if index % 3:
            graph.add(subject, IRI(f"{EX}q"), Literal(index % 5))
        if index % 4 == 0:
            graph.add(subject, IRI(f"{EX}q"), Literal(100 + index % 7))
    graph.compact()
    for index in range(5):
        graph.add(IRI(f"{EX}s{index}"), IRI(f"{EX}p"),
                  IRI(f"{EX}late{index}"))
    result = LocalEndpoint(dataset).select(
        f"SELECT ?s ?o ?v WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }} "
        f"OFFSET 3 LIMIT 8")
    assert [(s.value[len(EX):], o.value[len(EX):], v.lexical)
            for s, o, v in result.rows] == [
        ("s272", "o1", "100"), ("s108", "o7", "100"), ("s244", "o2", "100"),
        ("s80", "o8", "100"), ("s216", "o3", "100"), ("s52", "o9", "100"),
        ("s188", "o4", "100"), ("s24", "o10", "100")]
