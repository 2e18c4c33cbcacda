"""The join step's append (``JoinSteps._aligned``) against the
row-at-a-time oracle (``reference_join.ReferenceJoin``).

A star-first plan reads its constant-object arm's range, so the table
is in subject order; each further arm ``?s p ?x`` whose range holds
exactly the table's subjects, in the table's order, is appended
instead of joined.  Random star graphs break that alignment every way
the guard must catch — an arm missing for some subjects, doubled for
some, holding subjects outside the star; subjects in the column tier
only, the overlay only, or both; pending tombstones; a union whose arm
predicate lives in two graphs — and every step of the plan, in plan
order, must answer the oracle's rows in the oracle's order and read as
many index entries.  A spy on the guard shows both branches ran.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Dataset, Literal
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.bindings import BindingTable
from repro.sparql.evaluator import (
    PROBE_COUNTER,
    DatasetContext,
    PatternEvaluator,
)
from repro.sparql.evaluator_steps import JoinSteps, _base_pattern
from repro.sparql.optimizer import HASH_MIN_ROWS, plan_physical

from tests.sparql.reference_join import ReferenceJoin

EX = "http://example.org/"
IN, SET = IRI(f"{EX}in"), IRI(f"{EX}set")
ARMS = [IRI(f"{EX}a"), IRI(f"{EX}b")]
OTHER_GRAPH = IRI(f"{EX}other")
STAR = [TriplePatternNode(Var("s"), IN, SET),
        TriplePatternNode(Var("s"), ARMS[0], Var("x")),
        TriplePatternNode(Var("s"), ARMS[1], Var("y"))]


def subject(index):
    return IRI(f"{EX}s{index}")


#: what one arm does to the star: nothing, or to the subjects it names
defects = st.tuples(
    st.sampled_from(["none", "none", "missing", "doubled", "extra"]),
    st.lists(st.integers(0, HASH_MIN_ROWS + 7), min_size=1, max_size=3))


@st.composite
def star_graphs(draw):
    """``(compacted, overlaid, removed, other, moved)`` lists: a star
    of at least :data:`HASH_MIN_ROWS` subjects (so a step scans its
    range) with two arms, each possibly broken; ``removed`` holds
    patterns, ``moved`` the ``other`` triples the default graph then
    loses."""
    count = draw(st.integers(HASH_MIN_ROWS, HASH_MIN_ROWS + 8))
    triples = [(subject(index), IN, SET) for index in range(count)]
    for arm, (defect, named) in zip(ARMS, draw(st.tuples(defects,
                                                         defects))):
        for index in range(count):
            if defect == "missing" and index in named:
                continue
            triples.append((subject(index), arm, Literal(index % 5)))
            if defect == "doubled" and index in named:
                triples.append((subject(index), arm, Literal(100 + index)))
        if defect == "extra":
            triples += [(subject(1000 + index), arm, Literal(index))
                        for index in named]
    layout = draw(st.sampled_from(["columns", "overlay", "split", "mixed"]))
    if layout == "columns":
        overlay = [False] * len(triples)
    elif layout == "overlay":
        overlay = [True] * len(triples)
    elif layout == "split":  # the late subjects in the overlay
        cut = draw(st.integers(0, count))
        overlay = [int(s.value[len(EX) + 1:]) >= cut
                   for s, _p, _o in triples]
    else:
        overlay = draw(st.lists(st.booleans(), min_size=len(triples),
                                max_size=len(triples)))
    compacted = [t for t, late in zip(triples, overlay) if not late]
    overlaid = [t for t, late in zip(triples, overlay) if late]
    # pending tombstones: whole subjects (every arm loses them) or one
    # arm triple
    removed = []
    for index in draw(st.lists(st.integers(0, count - 1), max_size=2)):
        if draw(st.booleans()):
            removed.append((subject(index), None, None))
        else:
            removed.append((subject(index), ARMS[0], None))
    # a second graph holding the second arm: copies of some of its
    # triples, or the only copy of some
    other, moved = [], []
    union = draw(st.sampled_from(["none", "none", "copies", "moved"]))
    if union != "none":
        for index in draw(st.lists(st.integers(0, count - 1), min_size=1,
                                   max_size=4, unique=True)):
            triple = (subject(index), ARMS[1], Literal(index % 5))
            other.append(triple)
            if union == "moved":
                moved.append(triple)
    return compacted, overlaid, removed, other, moved


def build_dataset(compacted, overlaid, removed, other, moved):
    """The graphs, every subject interned first in index order: ids
    ascend with the index whichever tier a subject's triples land in,
    so an overlay subject can sit below stored ones."""
    dataset = Dataset()
    graph = dataset.default
    for name in sorted({triple[0].value for triple in compacted + overlaid},
                       key=lambda name: int(name[len(EX) + 1:])):
        dataset.dictionary.encode(IRI(name))
    graph.add_all(compacted)
    graph.compact()
    graph.add_all(overlaid)
    for pattern in removed:
        graph.remove(pattern)
    for triple in moved:
        graph.remove(triple)
    for triple in other:
        dataset.graph(OTHER_GRAPH).add(triple)
    return dataset


def run_plan(dataset):
    """The star's plan, step by step through the kernel and through the
    oracle (with the strategy the kernel chose): the same rows in the
    same order and the same index entries after every step.  Returns
    the final rows."""
    evaluator = PatternEvaluator(DatasetContext(dataset))
    source = evaluator.context.default_source()
    plan = plan_physical(STAR, source)
    assert plan.order == [0, 1, 2]  # star-first
    ours = theirs = BindingTable.unit()
    for step in plan.steps:
        pattern = STAR[step.index]
        spec, _names, _dead = evaluator._compile_positions(
            pattern.positions(), ours)
        use_hash = evaluator._prefer_hash(source, _base_pattern(spec),
                                          len(ours))
        with PROBE_COUNTER as counter:
            ours = evaluator._step_triple(pattern, source, ours)
            probed = counter.entries
        with PROBE_COUNTER as counter:
            theirs = ReferenceJoin(evaluator._dict, use_hash)._step_triple(
                pattern, source, theirs)
            assert probed == counter.entries, pattern
        assert ours.names == theirs.names
        assert ours.rows == theirs.rows, pattern
    return ours.rows


@pytest.fixture
def spy():
    """Every answer of the append guard, in order."""
    seen = []
    guard = JoinSteps._aligned

    def recording(spec, matches, table):
        seen.append(guard(spec, matches, table))
        return seen[-1]

    with mock.patch.object(JoinSteps, "_aligned", staticmethod(recording)):
        yield seen


def test_every_step_equals_the_row_at_a_time_join(spy):
    @settings(max_examples=250, deadline=None)
    @given(star_graphs())
    def check(graph):
        run_plan(build_dataset(*graph))

    check()
    assert True in spy and False in spy


class TestNamedCases:
    """One graph per way the guard must answer, each with what the
    spy must have seen."""

    def star(self, count=HASH_MIN_ROWS):
        return [(subject(index), predicate, value)
                for index in range(count)
                for predicate, value in ((IN, SET),
                                         (ARMS[0], Literal(index % 5)),
                                         (ARMS[1], Literal(index % 3)))]

    def test_a_clean_star_appends_both_arms(self, spy):
        rows = run_plan(build_dataset(self.star(), [], [], [], []))
        assert spy == [True, True] and len(rows) == HASH_MIN_ROWS

    def test_a_doubled_subject_is_joined_not_appended(self, spy):
        """Both arms double one subject: after the first arm's join
        the table holds it twice, and so does the second arm's range —
        equal columns, but the subject has two matches per row."""
        doubled = [(subject(7), arm, Literal(100 + offset))
                   for offset, arm in enumerate(ARMS)]
        rows = run_plan(build_dataset(self.star() + doubled, [], [], [],
                                      []))
        assert spy == [False, False]
        assert len(rows) == HASH_MIN_ROWS + 3  # 2 × 2 rows for the one

    def test_a_whole_removed_subject_still_appends(self, spy):
        rows = run_plan(build_dataset(self.star(HASH_MIN_ROWS + 1), [], [
            (subject(3), None, None)], [], []))
        assert spy == [True, True] and len(rows) == HASH_MIN_ROWS

    def test_tiers_that_interleave_are_joined(self, spy):
        """The overlay holds a subject below stored ones: every read
        is in tier order, so the first arm's range equals the table but
        does not ascend — the guard joins it, as it must when it cannot
        tell a repeated subject from a late one — and the second arm's
        overlay lacks the subject."""
        star = self.star()
        late = [triple for triple in star if triple[0] == subject(10)]
        stored = [triple for triple in star if triple[0] != subject(10)]
        rows = run_plan(build_dataset(stored, late[:2], [], [], []))
        assert spy == [False, False] and len(rows) == HASH_MIN_ROWS - 1
        spy.clear()
        # the whole subject late, and above every stored one: appended
        star = self.star(HASH_MIN_ROWS + 1)
        late = star[-3:]
        rows = run_plan(build_dataset(star[:-3], late, [], [], []))
        assert spy == [True, True] and len(rows) == HASH_MIN_ROWS + 1

    def test_a_union_with_the_arm_in_two_graphs(self, spy):
        copied = [triple for triple in self.star()
                  if triple[1] == ARMS[1]][:5]
        rows = run_plan(build_dataset(self.star(), [], [], copied, []))
        # copies dedup to the default graph's rows: still aligned
        assert spy == [True, True] and len(rows) == HASH_MIN_ROWS
        spy.clear()
        rows = run_plan(build_dataset(self.star(), [], [], copied[2:3],
                                      copied[2:3]))
        # the only copy of s2's arm in the second graph: read last
        assert spy == [True, False] and len(rows) == HASH_MIN_ROWS
