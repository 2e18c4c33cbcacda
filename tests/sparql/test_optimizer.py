"""Join-order optimizer tests."""

from repro.rdf import Graph, Literal, Namespace
from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.optimizer import static_order

EX = Namespace("http://example.org/")


def build_graph():
    g = Graph()
    # 100 observations with values, 3 types
    for i in range(100):
        g.add(EX[f"obs{i}"], EX.value, Literal(i))
        g.add(EX[f"obs{i}"], EX.inGroup, EX[f"g{i % 3}"])
    g.add(EX.g0, EX.name, Literal("zero"))
    return g


class TestStaticOrder:
    def test_orders_by_wildcards_then_estimate(self):
        g = build_graph()
        patterns = [
            TriplePatternNode(Var("s"), Var("p"), Var("o")),
            TriplePatternNode(Var("x"), EX.name, Var("n")),
            TriplePatternNode(Var("x"), EX.value, Var("v")),
        ]
        ordered = static_order(patterns, g)
        assert ordered[0].predicate == EX.name
        # the fully unbound pattern goes last
        assert isinstance(ordered[-1].predicate, Var)

    def test_preserves_all_patterns(self):
        g = build_graph()
        patterns = [
            TriplePatternNode(Var("a"), EX.value, Var("v")),
            TriplePatternNode(Var("a"), EX.inGroup, Var("g")),
            TriplePatternNode(Var("g"), EX.name, Var("n")),
        ]
        ordered = static_order(patterns, g)
        assert len(ordered) == 3
        assert set(id(p) for p in ordered) == set(id(p) for p in patterns)
