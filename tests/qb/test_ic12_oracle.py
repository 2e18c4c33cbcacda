"""The linear IC-12 against the spec's pairwise text, its oracle.

Generated normalized graphs: one or two data sets, each with its own
structure over a subset of three dimensions; up to four observations,
each in one data set or both, with zero to two values per dimension
drawn from terms whose SPARQL ``=`` differs from term equality.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.eurostat import GeneratorConfig, build_qb_graph
from repro.qb.constraints import (
    IC12_PAIRWISE,
    ConstraintCheck,
    check_constraint,
    has_duplicate_observations,
)
from repro.qb.normalize import normalize_graph
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, QB, RDF
from repro.rdf.terms import IRI, XSD_DECIMAL, XSD_INTEGER, Literal

EX = Namespace("http://example.org/")

VALUES = [
    EX.a,
    EX.b,
    Literal("1", datatype=XSD_INTEGER),
    Literal("01", datatype=XSD_INTEGER),
    Literal("1.0", datatype=XSD_DECIMAL),
    Literal("x"),
    Literal("x", language="en"),
    Literal("abc", datatype=XSD_INTEGER),  # ill-typed: `=` is an error
    Literal("x", datatype=IRI("http://example.org/unknownType")),
]
ONE, ZERO_ONE = 2, 3  # "1" and "01" as xsd:integer
DIMENSIONS = 3

# (each data set's dimensions, [(an observation's data sets, its values
# per dimension)]), as `build` takes them
ONE_VS_ZERO_ONE = ([[0]], [([0], [[ONE], [], []]),
                           ([0], [[ZERO_ONE], [], []])])
SHARED_VALUE = ([[0, 1]], [([0], [[0, 1], [5], []]), ([0], [[1], [5], []])])
MISSING_DIMENSION = ([[0, 1]], [([0], [[0], [], []]), ([0], [[0], [], []])])
NO_DIMENSIONS = ([[]], [([0], [[], [], []]), ([0], [[], [], []])])
TWO_DATASETS = ([[0], [0]], [([0, 1], [[0], [], []]), ([1], [[0], [], []])])


def pairwise(graph: Graph) -> bool:
    return check_constraint(
        graph, ConstraintCheck("IC-12", "pairwise", [IC12_PAIRWISE]))


def build(structures, observations) -> Graph:
    """``structures``: each data set's dimension indexes;
    ``observations``: (data set indexes, value indexes per dimension)."""
    graph = Graph()
    for number, dims in enumerate(structures):
        dataset, dsd = EX[f"ds{number}"], EX[f"dsd{number}"]
        graph.add(dataset, QB.structure, dsd)
        graph.add(dsd, RDF.type, QB.DataStructureDefinition)
        for dim in dims:
            component = EX[f"c{number}_{dim}"]
            graph.add(dsd, QB.component, component)
            graph.add(component, QB.dimension, EX[f"d{dim}"])
    for number, (datasets, values) in enumerate(observations):
        obs = EX[f"o{number}"]
        for dataset in datasets:
            graph.add(obs, QB.dataSet, EX[f"ds{dataset}"])
        for dim, picks in enumerate(values):
            for pick in picks:
                graph.add(obs, EX[f"d{dim}"], VALUES[pick])
    normalize_graph(graph)
    return graph


@st.composite
def cubes(draw):
    structures = draw(st.lists(
        st.lists(st.integers(0, DIMENSIONS - 1), max_size=DIMENSIONS,
                 unique=True),
        min_size=1, max_size=2))
    observations = draw(st.lists(st.tuples(
        st.lists(st.integers(0, len(structures) - 1), min_size=1,
                 max_size=2, unique=True),
        st.lists(st.lists(st.integers(0, len(VALUES) - 1), max_size=2,
                          unique=True),
                 min_size=DIMENSIONS, max_size=DIMENSIONS)),
        max_size=4))
    return structures, observations


class TestLinearEqualsPairwise:
    @settings(max_examples=150, deadline=None)
    @given(cubes())
    @example(ONE_VS_ZERO_ONE)
    @example(SHARED_VALUE)
    @example(MISSING_DIMENSION)
    @example(NO_DIMENSIONS)
    @example(TWO_DATASETS)
    def test_verdicts_agree(self, cube):
        graph = build(*cube)
        assert has_duplicate_observations(graph) == pairwise(graph)

    @pytest.mark.parametrize("cube, duplicate", [
        (ONE_VS_ZERO_ONE, True),  # one value under `=`
        (SHARED_VALUE, True),  # "shares some value" on each dimension
        (NO_DIMENSIONS, True),  # nothing tells the two apart
        (TWO_DATASETS, True),  # o0 and o1 duplicate in ds1
        (MISSING_DIMENSION, False),  # no value for d1: no duplicate
    ])
    def test_examples_read_as_the_text_says(self, cube, duplicate):
        assert has_duplicate_observations(build(*cube)) is duplicate


class TestGeneratedCube:
    def test_normalized_cube_has_no_duplicates(self):
        graph = build_qb_graph(GeneratorConfig(observations=100, seed=42))
        normalize_graph(graph)
        assert not has_duplicate_observations(graph)
        assert not pairwise(graph)

    def test_injected_duplicate_is_flagged(self):
        graph = build_qb_graph(GeneratorConfig(observations=100, seed=42))
        normalize_graph(graph)
        original = next(iter(graph.subjects(RDF.type, QB.Observation)))
        copy = EX.duplicate
        for _, predicate, value in graph.triples((original, None, None)):
            graph.add(copy, predicate, value)
        assert has_duplicate_observations(graph)
        assert pairwise(graph)
