"""Cost-based planner: physical plans, plan keys, streaming.

Covers the planner subsystem end to end: the greedy join ordering over
the statistics layer (against the subset DP it replaced, kept as the
``reference_planner`` oracle), plan-cache keys that hold a BGP's
constants, the streaming LIMIT pushdown (asserted via the probe-counter
hook), and the estimated-vs-actual EXPLAIN surface.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.perf.workloads import PROGRAMS
from repro.rdf import Literal, Namespace
from repro.rdf.stats import StatisticsView
from repro.sparql import LocalEndpoint
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.evaluator import PROBE_COUNTER
from repro.sparql.explain import explain
from repro.sparql.optimizer import (
    PLAN_CACHE,
    PhysicalPlan,
    bgp_signature,
    get_plan,
    plan_physical,
)
from repro.sparql.parser import parse_query

EX = Namespace("http://example.org/")


@pytest.fixture(autouse=True)
def clean_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


def build_endpoint(n=300, groups=5):
    ep = LocalEndpoint()
    g = ep.dataset.default
    for i in range(n):
        g.add(EX[f"obs{i}"], EX.value, Literal(i))
        g.add(EX[f"obs{i}"], EX.inGroup, EX[f"g{i % groups}"])
    for j in range(groups):
        g.add(EX[f"g{j}"], EX.name, Literal(f"group {j}"))
    return ep


class TestPhysicalPlan:
    def test_plan_carries_steps_and_estimates(self):
        ep = build_endpoint()
        query = parse_query(
            "SELECT ?o ?n WHERE { ?o <http://example.org/inGroup> ?g . "
            "?g <http://example.org/name> ?n }")
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        plan = get_plan(query.pattern, frozenset(), source)
        assert isinstance(plan, PhysicalPlan)
        assert sorted(plan.order) == [0, 1]
        assert len(plan.steps) == 2
        assert plan.cost > 0
        # selective pattern (5 names) planned before the broad one
        assert plan.order[0] == 1
        assert all(step.strategy in ("hash", "probe", "scan", "path")
                   for step in plan.steps)

    def test_planner_picks_chain_order_over_cartesian(self):
        ep = build_endpoint()
        query = parse_query(
            "SELECT * WHERE { ?o <http://example.org/value> ?v . "
            "?g <http://example.org/name> ?n . "
            "?o <http://example.org/inGroup> ?g }")
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        plan = get_plan(query.pattern, frozenset(), source)
        # name (5) first, then the connected inGroup hop, value last —
        # never a Cartesian product between the two selective islands
        assert plan.order == [1, 2, 0]

    def test_plan_is_iterable_like_an_order(self):
        ep = build_endpoint()
        query = parse_query(
            "SELECT ?o WHERE { ?o <http://example.org/value> ?v }")
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        plan = get_plan(query.pattern, frozenset(), source)
        assert list(plan) == plan.order
        assert len(plan) == 1

    def test_large_bgp_uses_greedy_and_covers_all(self):
        ep = build_endpoint()
        g = ep.dataset.default
        text = "SELECT * WHERE { " + " . ".join(
            f"?s{i} <http://example.org/value> ?v{i}" for i in range(14)
        ) + " }"
        query = parse_query(text)
        plan = plan_physical(query.pattern.patterns, g)
        assert sorted(plan.order) == list(range(14))


def build_skewed_endpoint(hot=500, total=2000):
    """A store whose ``geo`` objects are heavily skewed (one hot key)."""
    ep = LocalEndpoint()
    g = ep.dataset.default
    for i in range(total):
        obs = EX[f"obs{i}"]
        g.add(obs, EX.geo, EX["DE" if i < hot else f"C{i % 40}"])
        g.add(obs, EX.time, EX[f"M{i % 24}"])
        g.add(obs, EX.value, Literal(i))
    return ep


def _skew_query(member: str) -> str:
    return (f"SELECT ?o ?v WHERE {{ "
            f"?o <http://example.org/geo> <http://example.org/{member}> . "
            f"?o <http://example.org/time> <http://example.org/M3> . "
            f"?o <http://example.org/value> ?v }}")


class TestConstantAwarePlanning:
    def test_hot_and_cold_constants_get_different_join_orders(self):
        ep = build_skewed_endpoint()
        hot = ep.explain(_skew_query("DE"))
        cold = ep.explain(_skew_query("C7"))

        def first(plan):
            return next(l for l in plan.splitlines() if "[0]" in l)

        # hot: the geo scan would pull ~500 rows, so the planner leads
        # with the month pattern instead; cold keeps geo first
        assert "time" in first(hot)
        assert "geo" in first(cold)

    def test_hot_and_cold_constants_are_planned_separately(self):
        ep = build_skewed_endpoint()
        ep.select(_skew_query("DE"))
        ep.select(_skew_query("C7"))
        stats = PLAN_CACHE.statistics()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_each_constant_is_costed_from_its_own_estimate(self):
        # C7 (37 rows) and C25 (38) differ too little to change the
        # order, so only the estimates tell a shared plan from two;
        # each plan must price its own constant, by its exact count
        ep = build_skewed_endpoint()
        from repro.sparql.evaluator import DatasetContext
        source = DatasetContext(ep.dataset).default_source()
        scans = {}
        for member in ("DE", "C7", "C25"):
            node = parse_query(_skew_query(member)).pattern
            plan = get_plan(node, frozenset(), source)
            geo = next(step for step in plan.steps
                       if "geo" in node.patterns[step.index].predicate.value)
            scans[member] = geo.est_scan
        assert scans == {"DE": 500, "C7": 37, "C25": 38}

    def test_results_identical_across_cost_models(self, monkeypatch):
        ep = build_skewed_endpoint()
        exact = {tuple(r) for r in ep.select(_skew_query("DE")).rows}
        monkeypatch.setattr(StatisticsView, "count", average_count)
        PLAN_CACHE.clear()
        avg = {tuple(r) for r in ep.select(_skew_query("DE")).rows}
        assert exact == avg
        assert len(exact) > 0

    def test_value_aware_costing_reads_fewer_entries(self, monkeypatch):
        """The hot constant, executed: exact constant counts lead with
        the month and probe the 500-row member, average-only costing
        scans the member first — pinned as ``(exact, average)``."""
        ep = build_skewed_endpoint()

        def entries():
            PLAN_CACHE.clear()
            with PROBE_COUNTER as counter:
                ep.select(_skew_query("DE"))
            return counter.entries

        exact = entries()
        monkeypatch.setattr(StatisticsView, "count", average_count)
        assert (exact, entries()) == (126, 605)


def _scans(text, source):
    """``est_scan`` of every step of ``text``'s one BGP, in pattern
    order."""
    node = parse_query(text).pattern
    plan = get_plan(node, frozenset(), source)
    return [step.est_scan for step in sorted(plan.steps,
                                             key=lambda s: s.index)]


class TestExactConstantCosts:
    def test_variable_predicate_with_a_constant_is_costed_exactly(self):
        ep = build_endpoint()
        g = ep.dataset.default
        assert _scans("SELECT * WHERE { <http://example.org/obs7> ?p ?o }",
                      g) == [2]
        assert _scans("SELECT * WHERE { <http://example.org/obs7> ?p "
                      "<http://example.org/g2> }", g) == [1]
        assert _scans("SELECT * WHERE { ?s ?p <http://example.org/g2> }",
                      g) == [60]

    def test_a_literal_constant_is_counted_by_value(self):
        g = build_endpoint().dataset.default
        assert _scans('SELECT * WHERE { ?s <http://example.org/value> 5 }',
                      g) == [1]
        assert _scans('SELECT * WHERE { ?s <http://example.org/value> "5" }',
                      g) == [0]

    def test_a_write_replans_from_the_new_count(self):
        ep = build_skewed_endpoint()
        g = ep.dataset.default
        query = _skew_query("C7")
        assert _scans(query, g)[0] == 37
        for i in range(100):
            g.add(EX[f"late{i}"], EX.geo, EX.C7)
        assert _scans(query, g)[0] == 137  # the epoch moved: a new plan

    def test_a_union_source_sums_member_counts(self):
        from repro.sparql.evaluator import DatasetContext
        ep = build_skewed_endpoint()
        named = ep.dataset.graph(EX.extra)
        for i in range(5):
            named.add(EX[f"extra{i}"], EX.geo, EX.DE)
        named.add(EX.obs0, EX.geo, EX.DE)  # also in the default graph
        source = DatasetContext(ep.dataset).default_source()
        assert _scans(_skew_query("DE"), source)[0] == 506

    def test_a_snapshot_plans_from_its_own_counts(self):
        from repro.sparql.evaluator import GraphSource
        ep = build_skewed_endpoint()
        g = ep.dataset.default
        pinned = GraphSource(g.snapshot())
        g.remove((None, EX.geo, EX.DE))
        assert _scans(_skew_query("DE"), pinned)[0] == 500
        assert _scans(_skew_query("DE"), g)[0] == 0


def average_count(view, pattern):
    """The v1 price of a pattern's constants, for patching over
    :meth:`StatisticsView.count`: the predicate's cardinality divided by
    its average fan-out per constant subject and fan-in per constant
    object (the whole store's, under a variable predicate)."""
    subject, predicate, obj = pattern
    if predicate is None:
        base = float(view.triple_count())
        subjects, objects = view.subject_count(), view.object_count()
    else:
        base = float(view.predicate_cardinality(predicate))
        subjects = view.predicate_subjects(predicate)
        objects = view.predicate_objects(predicate)
    if subject is not None:
        base /= max(1, subjects)
    if obj is not None:
        base /= max(1, objects)
    return base


#: ``[(step.index, step.strategy) …]`` of every BGP of E3's five
#: programs, both translations, on the 2 000-observation enriched demo
#: cube, planned with nothing bound.  E3's ``mary`` is ``MARY_QL``, so
#: E6's direct query is its ``direct`` row.  Every BGP but
#: ``busy_destinations``' holds an observation star, so it starts
#: star-first: the ``qb:dataSet`` arm scanned, the other ``?o`` arms
#: hashed as written (appends when run), then the greedy walk.
S, H, P = "scan", "hash", "probe"
PLAN_SHAPES = {
    ("busy_destinations", "direct"): [[(0, S), (1, H), (2, H)]],
    ("busy_destinations", "optimized"): [[(0, S), (1, H), (2, H)]],
    ("continent_by_year", "direct"): [[
        (0, S), (1, H), (5, H), (11, H), (6, H), (2, H), (3, H), (4, H),
        (7, P), (8, P), (9, P), (10, P)]],
    ("continent_by_year", "optimized"): [[
        (0, S), (1, H), (5, H), (11, H), (6, H), (2, H), (3, H), (4, H),
        (7, P), (8, P), (9, P), (10, P)]],
    ("mary", "direct"): [[
        (0, S), (1, H), (5, H), (6, H), (12, H), (7, H), (2, H), (3, H),
        (4, H), (8, P), (9, P), (10, P), (11, P), (13, P), (14, P)]],
    ("mary", "optimized"): [[
        (3, S), (4, H), (8, H), (9, H), (15, H), (10, H), (5, H), (2, H),
        (6, H), (0, H), (7, P), (1, P), (11, P), (12, P), (13, P),
        (14, P)]],
    ("political", "direct"): [[
        (0, S), (1, H), (5, H), (11, H), (6, H), (2, H), (3, H), (4, H),
        (7, P), (8, P), (9, P), (10, P)]],
    ("political", "optimized"): [[
        (0, S), (1, H), (5, H), (11, H), (6, H), (2, H), (3, H), (4, H),
        (7, P), (8, P), (9, P), (10, P)]],
    ("quarterly_by_sex", "direct"): [[
        (0, S), (1, H), (2, H), (6, H), (3, H), (4, H), (5, H)]],
    ("quarterly_by_sex", "optimized"): [[
        (0, S), (1, H), (2, H), (6, H), (3, H), (4, H), (5, H)]],
}


class TestPlanShapes:
    """Join order and strategy of the paper's E3 / E6 queries, exactly:
    a change to the cost model or the strategy rule that moves one is
    a deliberate edit of :data:`PLAN_SHAPES`."""

    @pytest.fixture(scope="class")
    def demo(self):
        from repro.demo import prepare_enriched_demo
        return prepare_enriched_demo(observations=2000, seed=42)

    @pytest.mark.parametrize("name,variant", sorted(PLAN_SHAPES))
    def test_plan_shape(self, demo, name, variant):
        from benchmarks.bench_e3_querying import PREDEFINED
        from repro.sparql.algebra import BGP, pattern_nodes
        from repro.sparql.evaluator import DatasetContext

        text = getattr(demo.engine.prepare(PREDEFINED[name])[3], variant)
        source = DatasetContext(demo.endpoint.dataset).default_source()
        shapes = [[(step.index, step.strategy)
                   for step in plan_physical(node.patterns, source).steps]
                  for node in pattern_nodes(parse_query(text).pattern)
                  if isinstance(node, BGP)]
        assert shapes == PLAN_SHAPES[name, variant]


@st.composite
def connected_bgps(draw):
    """Random connected BGPs of 1–18 triple patterns over the
    ``build_endpoint`` vocabulary, every pattern with a variable."""
    predicates = [EX.value, EX.inGroup, EX.name, EX.missing]
    count = draw(st.integers(1, 18))
    names = ["v0"]
    patterns = []
    for index in range(count):
        # join through a variable already used (pattern 0 starts one)
        anchor = draw(st.sampled_from(names))
        fresh = f"v{len(names)}"
        names.append(fresh)
        predicate = draw(st.sampled_from(predicates))
        other = draw(st.sampled_from(
            ["fresh", "fresh", "old", "g0", "literal"]))
        if other == "fresh":
            far = Var(fresh)
        elif other == "old":
            far = Var(draw(st.sampled_from(names)))
        elif other == "g0":
            far = EX.g0
        else:
            far = Literal(draw(st.integers(0, 5)))
        if draw(st.booleans()):
            patterns.append(TriplePatternNode(Var(anchor), predicate, far))
        else:
            subject = far if isinstance(far, Var) else EX.g1
            patterns.append(TriplePatternNode(subject, predicate,
                                              Var(anchor)))
    order = draw(st.permutations(range(count)))
    return [patterns[i] for i in order]


_HYPOTHESIS_ENDPOINT = build_endpoint(n=60, groups=3)


class TestGreedyOrdering:
    @settings(max_examples=300, deadline=None)
    @given(patterns=connected_bgps(), seeded=st.booleans())
    def test_plan_covers_every_pattern_and_scans_only_when_forced(
            self, patterns, seeded):
        g = _HYPOTHESIS_ENDPOINT.dataset.default
        bound0 = frozenset({"v0"}) if seeded else frozenset()
        plan = plan_physical(patterns, g, bound0)
        assert sorted(plan.order) == list(range(len(patterns)))
        assert [step.index for step in plan.steps] == plan.order
        bound = set(bound0)
        for position, step in enumerate(plan.steps):
            if step.strategy == "scan":
                remaining = [patterns[i] for i in plan.order[position:]]
                assert not any(pattern.variables() & bound
                               for pattern in remaining), position
            bound |= patterns[step.index].variables()


class TestGreedyMatchesTheDP:
    """The ten contract QL programs × both translations on a
    2 000-observation demo cube: greedy reads as many index entries as
    the subset DP it replaced, and answers the same.  Both run with the
    star rule off: it fixes a prefix the DP never chose, and every
    contract BGP takes it (``TestStarFirst``)."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.data import small_demo
        from repro.demo import enrich
        return enrich(small_demo(observations=2000, seed=1))

    @staticmethod
    def _run(session, program, variant):
        table = session.engine.execute(program, variant=variant).table
        return sorted(map(str, table.rows))

    @pytest.mark.parametrize("variant", ["direct", "optimized"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_same_entries_and_answers(self, session, name, variant,
                                      monkeypatch):
        from repro.sparql import optimizer
        from tests.sparql.reference_planner import reference_order

        program = PROGRAMS[name]
        monkeypatch.setattr(optimizer, "_star_first",
                            lambda patterns, costs: ())
        PLAN_CACHE.clear()
        with PROBE_COUNTER as counter:
            greedy_rows = self._run(session, program, variant)
        greedy_entries = counter.entries
        monkeypatch.setattr(
            optimizer, "_greedy_cost_order",
            lambda costs, bound0, n, prefix: reference_order(costs, bound0,
                                                             n))
        PLAN_CACHE.clear()
        with PROBE_COUNTER as counter:
            dp_rows = self._run(session, program, variant)
        assert counter.entries == greedy_entries
        assert dp_rows == greedy_rows
        assert greedy_entries > 0


def star_arms(patterns):
    """Indices of the ``?o`` arms with a constant predicate, in written
    order."""
    return [index for index, pattern in enumerate(patterns)
            if pattern.positions()[0] == Var("o")
            and not isinstance(pattern.positions()[1], Var)]


def no_star(monkeypatch):
    from repro.sparql import optimizer
    monkeypatch.setattr(optimizer, "_star_first", lambda patterns, costs: ())


class TestStarFirst:
    """The star-first rule: a BGP planned with nothing bound that holds
    an observation star starts at its constant-object arm, joins the
    star's other arms as written, then walks greedily."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.data import small_demo
        from repro.demo import enrich
        return enrich(small_demo(observations=2000, seed=1))

    @staticmethod
    def bgps(text):
        from repro.sparql.algebra import BGP, pattern_nodes
        return [node for node in pattern_nodes(parse_query(text).pattern)
                if isinstance(node, BGP)]

    @staticmethod
    def source(session):
        from repro.sparql.evaluator import DatasetContext
        return DatasetContext(session.endpoint.dataset).default_source()

    @pytest.mark.parametrize("variant", ["direct", "optimized"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_contract_bgp_starts_at_its_dataset_arm(
            self, session, name, variant):
        from repro.qb.vocabulary import dataSet

        text = getattr(session.engine.prepare(PROGRAMS[name])[3], variant)
        (bgp,) = self.bgps(text)
        arms = star_arms(bgp.patterns)
        order = plan_physical(bgp.patterns, self.source(session)).order
        assert bgp.patterns[order[0]].positions()[1] == dataSet
        assert order[:len(arms)] == [order[0]] + [
            index for index in arms if index != order[0]]
        # run: the dataset arm scanned, every other ?o arm appended
        lines = [line for line in session.endpoint.explain(
            text, analyze=True).splitlines() if "] ?" in line]
        tags = [line.rsplit("[", 1)[1].rstrip("]") for line in lines]
        assert tags[:len(arms)] == ["scan"] + ["append"] * (len(arms) - 1)
        assert all(" ?o " in line for line in lines[:len(arms)])

    @pytest.mark.parametrize("shape", [
        "SELECT * WHERE {{ ?o <{ex}inGroup> ?g OPTIONAL {{ ?o <{ex}value> "
        "?v . ?o <{ex}inGroup> ?h . ?o <{ex}tag> <{ex}t0> }} }}",
        "SELECT * WHERE {{ ?o <{ex}inGroup> ?g FILTER EXISTS {{ "
        "?o <{ex}value> ?v . ?o <{ex}inGroup> ?h . "
        "?o <{ex}tag> <{ex}t0> }} }}",
    ], ids=["optional", "exists"])
    def test_a_seeded_bgp_keeps_the_greedy_plan(self, monkeypatch, shape):
        """The inner BGP is a star, but it runs seeded with ``?o``
        bound: planned as the greedy walk plans it."""
        from repro.sparql import optimizer
        ep = build_endpoint()
        for i in range(0, 300, 3):
            ep.dataset.default.add(EX[f"obs{i}"], EX.tag, EX.t0)
        text = shape.format(ex=str(EX))
        planned = []
        real = optimizer.plan_physical

        def recording(patterns, source, bound_vars=None):
            plan = real(patterns, source, bound_vars)
            planned.append((len(patterns), frozenset(bound_vars or ()),
                            plan.order))
            return plan

        monkeypatch.setattr(optimizer, "plan_physical", recording)
        rows = sorted(map(str, ep.select(text).rows))
        seeded = [entry for entry in planned if entry[0] == 3]
        assert seeded and all(bound == {"o"} for _, bound, _ in seeded)
        PLAN_CACHE.clear()
        no_star(monkeypatch)
        planned[:] = []
        assert sorted(map(str, ep.select(text).rows)) == rows
        greedy = [entry for entry in planned if entry[0] == 3]
        assert greedy == seeded

    def test_a_bgp_with_no_star_keeps_the_greedy_plan(self, monkeypatch):
        ep = build_endpoint()
        g = ep.dataset.default
        chain = [TriplePatternNode(Var("o"), EX.inGroup, Var("g")),
                 TriplePatternNode(Var("g"), EX.name, Var("n")),
                 TriplePatternNode(Var("o"), EX.value, Literal(5))]
        # ?o has a constant-object arm but one open arm: no star
        star_rule = plan_physical(chain, g).order
        no_star(monkeypatch)
        assert plan_physical(chain, g).order == star_rule

    def test_a_selective_chain_constant_gives_the_same_answer(
            self, session, monkeypatch):
        """``continent_year`` with its citizenship chain pinned to one
        continent: star-first plans it differently, answers the same."""
        text = session.engine.prepare(PROGRAMS["continent_year"])[3].direct
        pinned = text.replace(
            "?citizenship_0 skos:broader ?citizenship_1 .",
            "?citizenship_0 skos:broader ?citizenship_1 .\n"
            "  ?citizenship_0 skos:broader "
            "<http://reference.example.org/resource/continent/EU> .")
        assert pinned != text
        (bgp,) = self.bgps(pinned)
        source = self.source(session)
        star = plan_physical(bgp.patterns, source).order
        PLAN_CACHE.clear()
        answer = session.endpoint.select(pinned).rows
        assert answer
        no_star(monkeypatch)
        assert plan_physical(bgp.patterns, source).order != star
        PLAN_CACHE.clear()
        assert session.endpoint.select(pinned).rows == answer

    def test_min_and_max_ties_take_the_first_encountered(self):
        """MIN / MAX over values the ORDER BY order cannot tell apart
        answer the first one the star-first plan's rows hold — checked
        against the reference loop over those rows, in that order."""
        from repro.rdf.terms import XSD_DECIMAL, XSD_INTEGER
        from repro.sparql.expressions import (
            Aggregate,
            EvalContext,
            VariableExpression,
        )
        from tests.sparql.reference_aggregate import reference_apply

        ties = [Literal(1), Literal("01", datatype=XSD_INTEGER),
                Literal("1.0", datatype=XSD_DECIMAL), Literal(1.0),
                Literal(2), Literal("2.0", datatype=XSD_DECIMAL)]
        ep = LocalEndpoint()
        g = ep.dataset.default
        for i in range(96):
            # intern the observations out of index order, so subject
            # order differs from insertion order
            obs = EX[f"obs{(i * 37) % 96}"]
            g.add(obs, EX.inSet, EX.cube)
            g.add(obs, EX.inGroup, EX[f"g{i % 4}"])
            g.add(obs, EX.value, ties[(i * 5) % len(ties)])
        where = (f"WHERE {{ ?o <{EX.inSet}> <{EX.cube}> . "
                 f"?o <{EX.inGroup}> ?g . ?o <{EX.value}> ?v }}")
        explained = ep.explain(f"SELECT ?g ?v {where}", analyze=True)
        assert explained.count("[append]") == 2
        solutions = ep.select(f"SELECT ?g ?v {where}").rows
        calls = {"lo": Aggregate("MIN", VariableExpression("v")),
                 "hi": Aggregate("MAX", VariableExpression("v"))}
        groups = {}
        for group, value in solutions:
            groups.setdefault(group, []).append({"v": value})
        expected = {group: {name: reference_apply(call, members,
                                                  EvalContext())
                            for name, call in calls.items()}
                    for group, members in groups.items()}
        answered = ep.select(f"SELECT ?g (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
                             f"{where} GROUP BY ?g")
        got = {group: {"lo": lo, "hi": hi} for group, lo, hi in answered.rows}
        assert got == expected
        # the ties are really there: some group's MIN is not its first
        # row's value under plain equality
        assert any(type(members[0]["v"].value) is not type(
            expected[group]["lo"].value) or members[0]["v"]
            != expected[group]["lo"] for group, members in groups.items())


class TestPlanKeys:
    def test_constants_are_part_of_the_signature(self):
        q1 = parse_query(
            "SELECT ?p ?v WHERE { <http://example.org/g1> ?p ?v }")
        q2 = parse_query(
            "SELECT ?p ?v WHERE { <http://example.org/g2> ?p ?v }")
        assert bgp_signature(q1.pattern) != bgp_signature(q2.pattern)

    def test_same_text_has_one_signature(self):
        text = ("SELECT ?o WHERE { ?o <http://example.org/inGroup> "
                "<http://example.org/g1> . ?o <http://example.org/value> 5 }")
        assert (bgp_signature(parse_query(text).pattern)
                == bgp_signature(parse_query(text).pattern))

    def test_predicates_stay_concrete(self):
        q1 = parse_query(
            "SELECT ?s WHERE { ?s <http://example.org/value> ?v }")
        q2 = parse_query(
            "SELECT ?s WHERE { ?s <http://example.org/inGroup> ?v }")
        assert bgp_signature(q1.pattern) != bgp_signature(q2.pattern)

    def test_literal_and_iri_constants_do_not_collide(self):
        """Regression: a literal and an IRI in the same position must
        not share a cached plan signature."""
        q1 = parse_query(
            'SELECT ?s ?p WHERE { ?s ?p <http://example.org/x> }')
        q2 = parse_query(
            'SELECT ?s ?p WHERE { ?s ?p "http://example.org/x" }')
        assert bgp_signature(q1.pattern) != bgp_signature(q2.pattern)

    def test_literal_datatypes_do_not_collide(self):
        """``"5"`` (string), ``5`` (integer) and ``5.0`` (decimal) are
        different RDF terms: each gets its own plan entry."""
        signatures = {
            bgp_signature(parse_query(
                f"SELECT ?s WHERE {{ ?s <http://example.org/value> "
                f"{constant} }}").pattern)
            for constant in ('"5"', "5", "5.0")}
        assert len(signatures) == 3

    def test_cross_kind_queries_use_separate_cache_entries(self):
        ep = LocalEndpoint()
        g = ep.dataset.default
        g.add(EX.a, EX.value, Literal(5))
        g.add(EX.b, EX.value, Literal("5"))
        assert len(
            ep.select("SELECT ?s WHERE { ?s <http://example.org/value> 5 }"
                      )) == 1
        assert len(
            ep.select('SELECT ?s WHERE { ?s <http://example.org/value> "5" }'
                      )) == 1
        stats = PLAN_CACHE.statistics()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_member_queries_are_planned_once_each(self):
        ep = build_endpoint()

        def walk():
            for j in range(5):
                ep.select(f"SELECT ?o WHERE {{ ?o "
                          f"<http://example.org/inGroup> "
                          f"<http://example.org/g{j}> . "
                          f"?o <http://example.org/value> ?v }}")

        walk()
        assert PLAN_CACHE.statistics()["misses"] == 5
        assert PLAN_CACHE.statistics()["entries"] == 5
        walk()
        stats = PLAN_CACHE.statistics()
        assert stats["misses"] == 5
        assert stats["hits"] == 5

    def test_repeated_text_hits_the_cache(self):
        ep = build_endpoint()
        query = ("SELECT ?p WHERE { <http://example.org/g0> ?p ?v }")
        ep.select(query)
        ep.select(query)
        ep.select("SELECT ?p WHERE { <http://example.org/g1> ?p ?v }")
        stats = PLAN_CACHE.statistics()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["hits_parameterized"] == 0

    def test_results_correct_across_constants(self):
        ep = build_endpoint(n=30, groups=3)
        sizes = [
            len(ep.select(f"SELECT ?o WHERE {{ ?o "
                          f"<http://example.org/inGroup> "
                          f"<http://example.org/g{j}> }}"))
            for j in range(3)]
        assert sizes == [10, 10, 10]
        assert PLAN_CACHE.statistics()["misses"] == 3


class TestMaterializationReuse:
    def test_member_property_walk_plans_each_member_once(self):
        """The cube-ETL workload: one query per member IRI, planned on
        its first walk and served from the cache on the next."""
        from repro.enrichment.instances import member_properties

        ep = build_endpoint(n=50, groups=5)
        members = [EX[f"g{j}"] for j in range(5)]
        PLAN_CACHE.clear()
        tables = [member_properties(ep, member) for member in members]
        assert all(EX.name in properties for properties in tables)
        assert PLAN_CACHE.statistics()["misses"] == len(members)
        again = [member_properties(ep, member) for member in members]
        assert again == tables
        stats = PLAN_CACHE.statistics()
        assert stats["misses"] == len(members)
        assert stats["hits"] == len(members)


class TestLimitWindow:
    def test_limit_is_the_prefix_of_the_full_answer(self):
        ep = build_endpoint(n=300)
        query = ("SELECT ?o ?v WHERE { ?o <http://example.org/value> ?v }")
        full = ep.select(query)
        limited = ep.select(query + " LIMIT 5")
        assert len(full) == 300
        assert limited.rows == full.rows[:5]

    def test_limited_rows_are_valid_solutions(self):
        ep = build_endpoint(n=100)
        limited = ep.select(
            "SELECT ?o ?v WHERE { ?o <http://example.org/value> ?v . "
            "?o <http://example.org/inGroup> ?g } LIMIT 7")
        full = ep.select(
            "SELECT ?o ?v WHERE { ?o <http://example.org/value> ?v . "
            "?o <http://example.org/inGroup> ?g }")
        assert len(limited) == 7
        assert set(map(str, limited.rows)) <= set(map(str, full.rows))

    def test_offset_is_honoured(self):
        ep = build_endpoint(n=100)
        query = ("SELECT ?o WHERE { ?o <http://example.org/value> ?v } ")
        assert len(ep.select(query + "LIMIT 10 OFFSET 95")) == 5

    def test_filter_under_limit_is_exact(self):
        ep = build_endpoint(n=200)
        table = ep.select(
            "SELECT ?o ?v WHERE { ?o <http://example.org/value> ?v . "
            "FILTER(?v >= 100) } LIMIT 4")
        assert len(table) == 4
        assert all(row["v"].value >= 100 for row in table)

    def test_order_by_under_limit_stays_exact(self):
        ep = build_endpoint(n=50)
        table = ep.select(
            "SELECT ?v WHERE { ?o <http://example.org/value> ?v } "
            "ORDER BY ?v LIMIT 3")
        assert [row["v"].value for row in table] == [0, 1, 2]

    def test_distinct_under_limit_keeps_first_occurrences(self):
        ep = build_endpoint(n=500, groups=5)
        query = ("SELECT DISTINCT ?g WHERE { "
                 "?o <http://example.org/inGroup> ?g }")
        full = ep.select(query)
        limited = ep.select(query + " LIMIT 3")
        assert len(full) == 5
        assert limited.rows == full.rows[:3]

    def test_optional_under_limit_is_a_prefix(self):
        ep = build_endpoint(n=500, groups=5)
        query = ("SELECT ?o ?n WHERE { ?o <http://example.org/inGroup> ?g "
                 ". OPTIONAL { ?g <http://example.org/name> ?n } }")
        full = ep.select(query)
        limited = ep.select(query + " LIMIT 6")
        assert len(full) == 500
        assert limited.rows == full.rows[:6]

    def test_path_first_plan_under_limit(self):
        ep = build_endpoint(n=20)
        query = "SELECT ?a ?b WHERE { ?a <http://example.org/inGroup>+ ?b }"
        full = ep.select(query)
        limited = ep.select(query + " LIMIT 5")
        assert len(limited) == 5
        assert limited.rows == full.rows[:5]


class TestExplainAnalyze:
    def test_estimated_and_actual_cardinalities(self):
        ep = build_endpoint()
        plan = ep.explain(
            "SELECT ?o ?n WHERE { ?o <http://example.org/inGroup> ?g . "
            "?g <http://example.org/name> ?n }", analyze=True)
        assert "est." in plan
        assert "actual" in plan
        # exact statistics: the estimates match reality on this data
        assert "(est. 5, actual 5)" in plan

    def test_strategy_markers_present(self):
        ep = build_endpoint()
        plan = ep.explain(
            "SELECT ?o ?n WHERE { ?o <http://example.org/inGroup> ?g . "
            "?g <http://example.org/name> ?n }")
        assert "[scan]" in plan or "[probe]" in plan or "[hash]" in plan
        assert "cost" in plan

    def test_cache_counters_broken_down(self):
        ep = build_endpoint()
        query = ("SELECT ?o WHERE { ?o <http://example.org/value> ?v }")
        ep.select(query)
        ep.select(query)
        plan = ep.explain(query)
        stats_line = next(line for line in plan.splitlines()
                          if line.startswith("plan cache:"))
        assert re.fullmatch(r"plan cache: entries=\d+ hits=\d+ "
                            r"misses=\d+ evictions=\d+", stats_line)


class TestDictionaryStaysFlat:
    def test_computed_literals_do_not_grow_the_dictionary(self):
        """ROADMAP item: a long-lived endpoint's dictionary stays flat
        across repeated computed-literal queries."""
        ep = build_endpoint(n=20)
        # warm up: interns any query constants that are real terms
        ep.select('SELECT ?x WHERE { ?o <http://example.org/value> ?v . '
                  'BIND(CONCAT("warm", STR(?v)) AS ?x) }')
        size_before = len(ep.dataset.dictionary)
        for i in range(40):
            table = ep.select(
                f'SELECT ?x WHERE {{ ?o <http://example.org/value> ?v . '
                f'BIND(CONCAT("computed-{i}-", STR(?v)) AS ?x) }} LIMIT 3')
            assert len(table) == 3
        assert len(ep.dataset.dictionary) == size_before

    def test_values_literals_do_not_grow_the_dictionary(self):
        ep = build_endpoint(n=10)
        ep.select('SELECT * WHERE { VALUES ?z { "warm" } }')
        size_before = len(ep.dataset.dictionary)
        for i in range(20):
            table = ep.select(
                f'SELECT * WHERE {{ VALUES ?z {{ "ephemeral-{i}" }} }}')
            assert len(table) == 1
            assert table.rows[0][0].value == f"ephemeral-{i}"
        assert len(ep.dataset.dictionary) == size_before

    def test_computed_value_equal_to_stored_term_still_joins(self):
        ep = LocalEndpoint()
        ep.dataset.default.add(EX.a, EX.label, Literal("x1"))
        table = ep.select(
            'SELECT ?s WHERE { BIND(CONCAT("x", "1") AS ?lbl) . '
            '?s <http://example.org/label> ?lbl }')
        assert len(table) == 1
