"""The seeded cubes, pinned triple for triple, and the bulk load that
builds their graphs.

A digest is the triple count plus a sha256 over the N-Triples lines in
**emission order**: first-sight order decides every dictionary id a
load hands out, so a generator that emitted the same set in another
order would still move seeded figures.  A change that moves one of
these pins changes the benchmark's cube — a definition change, not an
optimisation."""

import hashlib

from repro.data import build_qb_graph, small_demo
from repro.data import decisions, eurostat
from repro.data.loader import small_demo_config
from repro.data.namespaces import QB_GRAPH, REFERENCE_GRAPH
from repro.data.reference import ReferenceConfig, build_reference_graph
from repro.rdf import Graph


class ListSink:
    """Keeps the triples a generator emits, in order (a list sink of
    its own, so these pins run against any generator)."""

    def __init__(self):
        self.triples = []

    def add(self, subject, predicate, obj):
        self.triples.append((subject, predicate, obj))


def digest(triples):
    lines = "".join(f"{s.n3()} {p.n3()} {o.n3()} .\n" for s, p, o in triples)
    return len(triples), hashlib.sha256(lines.encode()).hexdigest()


def emitted(module, config):
    sink = ListSink()
    module.generate_observations(sink, config)
    return sink.triples


def test_the_seed_1_eurostat_cube_is_pinned():
    triples = emitted(eurostat, eurostat.GeneratorConfig(
        observations=20_340, seed=1))
    assert digest(triples) == (
        183_060,
        "8921d2719783fb00769dd5232b5f56eefd1d42c28d9fa1f1ded35a26590f0341")


def test_a_small_decisions_cube_is_pinned():
    triples = emitted(decisions, decisions.DecisionsConfig(
        observations=2_000, seed=97))
    assert digest(triples) == (
        18_000,
        "73ab037525c4b89df452dbd02d1e1a9837f9988dedf3af8b418d62e28a51a4b9")


def test_a_generator_shares_its_repeated_terms():
    """Constant IRIs and measure literals are built once per run, not
    once per observation."""
    triples = emitted(eurostat, eurostat.GeneratorConfig(
        observations=500, seed=3))
    assert len({id(p) for _, p, _ in triples}) == 9
    values = [o for _, p, o in triples if p == eurostat.MEASURE_PROPERTY]
    assert len({id(o) for o in values}) == len(set(values))


def assert_same_load(bulk, reference):
    """Same triples, and every term under the same dictionary id."""
    assert len(bulk) == len(reference)
    assert set(bulk) == set(reference)
    ids = reference.dictionary
    assert len(bulk.dictionary) == len(ids)
    for term_id in range(len(ids)):
        assert bulk.dictionary.lookup(ids.decode(term_id)) == term_id


def test_build_qb_graph_loads_what_per_triple_adds_load():
    # 72 000 triples: the per-triple reference compacts on the way
    config = eurostat.GeneratorConfig(observations=8_000, seed=5)
    reference = Graph()
    eurostat.build_dsd(reference)
    eurostat.generate_observations(reference, config)
    assert_same_load(build_qb_graph(config), reference)


def test_build_decisions_graph_loads_what_per_triple_adds_load():
    config = decisions.DecisionsConfig(observations=3_000, seed=4)
    reference = Graph()
    decisions.build_dsd(reference)
    decisions.build_decision_labels(reference)
    decisions.generate_observations(reference, config)
    assert_same_load(decisions.build_decisions_graph(config), reference)


def test_small_demo_holds_the_per_triple_graphs():
    config = small_demo_config()
    qb_reference = Graph()
    eurostat.build_dsd(qb_reference)
    eurostat.generate_observations(qb_reference, config)
    reference = build_reference_graph(ReferenceConfig(
        citizenship=config.citizenship, destinations=config.destinations))
    endpoint = small_demo().endpoint
    assert set(endpoint.graph(QB_GRAPH)) == set(qb_reference)
    assert set(endpoint.graph(REFERENCE_GRAPH)) == set(reference)
