"""Prepared programs: an engine parses, simplifies and translates a
program text once, and reuses that while its schema is unchanged."""

import copy
import gc
import sys
import threading

import pytest

from benchmarks.perf.workloads import PROGRAMS

from repro.data import small_demo
from repro.data.namespaces import QB_GRAPH, REF_PROP, SCHEMA
from repro.demo import PAPER_DIMENSION_NAMES, enrich
from repro.enrichment import EnrichmentSession
from repro.ql import QLBuilder, QLEngine
from repro.ql import executor as executor_module
from repro.ql.checker import QLSemanticError
from repro.rdf.namespace import SDMX_DIMENSION
from repro.rdf.terms import IRI

VARIANTS = ("direct", "optimized")

#: time only: the cube of the program below, before any enrichment
TIME_ONLY = """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:citizenshipDim);
$C5 := SLICE ($C4, schema:destinationDim);
"""

BROKEN = PROGRAMS["continent_year"].replace("schema:continent",
                                            "schema:noSuchLevel")


@pytest.fixture(scope="module")
def own():
    """A demo of its own: tests here write to its QB graph."""
    return enrich(small_demo(observations=400))


@pytest.fixture
def spies(monkeypatch):
    """Count the executor's calls to ``parse_ql`` and ``translate``."""
    calls = {"parse": 0, "translate": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(executor_module, "parse_ql",
                        counted("parse", executor_module.parse_ql))
    monkeypatch.setattr(executor_module, "translate",
                        counted("translate", executor_module.translate))
    return calls


def text_of(result, variant):
    return getattr(result.translation, variant)


def cells(cube):
    return {coordinate: cube.cell(*coordinate)
            for coordinate in cube.coordinates()}


def first_observation(endpoint):
    subject = endpoint.select(
        "SELECT ?o WHERE { ?o a <http://purl.org/linked-data/cube#Observation> }"
        " ORDER BY ?o LIMIT 1").rows[0][0]
    rows = endpoint.select(
        f"SELECT ?p ?x WHERE {{ GRAPH <{QB_GRAPH.value}> "
        f"{{ <{subject.value}> ?p ?x }} }}").rows
    return subject, rows


class TestWarmEqualsCold:
    def check(self, engine, endpoint, schema):
        for name in sorted(PROGRAMS):
            for variant in VARIANTS:
                warm = engine.execute(PROGRAMS[name], variant=variant)
                cold = QLEngine(endpoint, schema).execute(
                    PROGRAMS[name], variant=variant)
                assert warm.report.parse_seconds == 0.0
                assert text_of(warm, variant) == text_of(cold, variant)
                assert cells(warm.cube) == cells(cold.cube), (name, variant)

    def test_every_contract_program_and_variant(self, own):
        for name in PROGRAMS:
            for variant in VARIANTS:
                own.engine.execute(PROGRAMS[name], variant=variant)
        self.check(own.engine, own.endpoint, own.schema)

    def test_after_an_insert_into_the_qb_graph(self, own):
        subject, rows = first_observation(own.endpoint)
        before = cells(own.engine.execute(PROGRAMS["continent_year"]).cube)
        copy_of = IRI(subject.value + "-copy")
        own.endpoint.insert_triples([(copy_of, p, x) for p, x in rows],
                                    graph=QB_GRAPH)
        try:
            after = own.engine.execute(PROGRAMS["continent_year"])
            assert after.report.translate_seconds == 0.0
            assert cells(after.cube) != before
            self.check(own.engine, own.endpoint, own.schema)
        finally:
            own.endpoint.graph(QB_GRAPH).remove((copy_of, None, None))


class TestReuse:
    def test_a_repeat_neither_parses_nor_translates(self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        first = engine.execute(PROGRAMS["quarter_sex"], variant="direct")
        assert spies == {"parse": 1, "translate": 1}
        assert first.report.translate_seconds > 0.0
        again = engine.execute(PROGRAMS["quarter_sex"], variant="optimized")
        assert spies == {"parse": 1, "translate": 1}
        report = again.report
        assert (report.parse_seconds, report.simplify_seconds,
                report.translate_seconds) == (0.0, 0.0, 0.0)
        assert report.simplification is first.report.simplification
        assert again.translation is first.translation

    def test_execute_both_prepares_once(self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        results = engine.execute_both(PROGRAMS["political_year"])
        assert spies == {"parse": 1, "translate": 1}
        assert set(results) == set(VARIANTS)
        program = (QLBuilder(own.schema.dataset)
                   .slice(SCHEMA.asylappDim).slice(SCHEMA.ageDim).build())
        engine.execute_both(program)
        assert spies["translate"] == 2

    def test_program_objects_are_never_kept(self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        program = (QLBuilder(own.schema.dataset)
                   .slice(SCHEMA.asylappDim).slice(SCHEMA.sexDim).build())
        engine.execute(program)
        engine.execute(program)
        assert spies["translate"] == 2
        assert engine._prepared == {}

    def test_a_failing_program_raises_every_time_and_is_not_kept(
            self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        for attempt in range(1, 3):
            with pytest.raises(QLSemanticError):
                engine.execute(BROKEN)
            assert spies["parse"] == attempt
        assert BROKEN not in engine._prepared

    def test_the_table_keeps_the_newest_texts(self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        limit = executor_module.PREPARED_PROGRAMS
        assert limit == 256
        # distinct texts of one program: trailing blank lines differ
        texts = [TIME_ONLY + "\n" * index for index in range(limit + 1)]
        for text in texts:
            engine.execute(text, variant="direct")
        assert len(engine._prepared) == limit
        assert texts[0] not in engine._prepared
        engine.execute(texts[-1], variant="direct")
        assert spies["translate"] == limit + 1
        engine.execute(texts[0], variant="direct")
        assert spies["translate"] == limit + 2


class TestSchemaChanges:
    def test_an_edited_schema_translates_again(self, own, spies):
        schema = copy.deepcopy(own.schema)
        engine = QLEngine(own.endpoint, schema)
        text = PROGRAMS["continent_year"]
        original = engine.execute(text, variant="direct").translation.direct
        schema.dimension_levels[SCHEMA.sexDim] = IRI(
            SCHEMA.sexDim.value + "Elsewhere")
        again = engine.execute(text, variant="direct")
        assert spies["translate"] == 2
        # sexDim is sliced away, so the query itself does not change
        assert again.translation.direct == original
        engine.execute(text, variant="direct")
        assert spies["translate"] == 2

    def test_an_enrichment_step_translates_again(self, own, spies):
        session = EnrichmentSession(
            own.endpoint, own.data.dataset, own.data.dsd,
            dimension_names=PAPER_DIMENSION_NAMES)
        session.redefine()
        engine = QLEngine(own.endpoint, session.schema)
        engine.execute(TIME_ONLY, variant="direct")
        engine.execute(TIME_ONLY, variant="direct")
        assert spies["translate"] == 1
        quarter = next(
            candidate for candidate in
            session.level_suggestions(SDMX_DIMENSION.refPeriod)
            if candidate.prop == REF_PROP.quarter)
        session.add_level(SDMX_DIMENSION.refPeriod, quarter)
        engine.execute(TIME_ONLY, variant="direct")
        assert spies["translate"] == 2

    def test_a_new_schema_translates_again(self, own, spies):
        engine = QLEngine(own.endpoint, own.schema)
        engine.execute(TIME_ONLY, variant="direct")
        engine.schema = copy.deepcopy(own.schema)
        engine.execute(TIME_ONLY, variant="direct")
        assert spies["translate"] == 1  # an equal schema: still a hit
        engine.schema.level_attributes.clear()
        engine.execute(TIME_ONLY, variant="direct")
        assert spies["translate"] == 2


class TestThreads:
    @staticmethod
    def run_together(engine, orders, answer):
        """Run each list of program texts in a thread of its own, with a
        short switch interval so that the threads interleave often."""
        errors, seen = [], []
        start = threading.Barrier(len(orders))

        def run(order):
            try:
                start.wait()
                for text in order:
                    seen.append((text, answer(engine.execute(text))))
            except Exception as error:  # reported by the caller
                errors.append(error)

        threads = [threading.Thread(target=run, args=(order,))
                   for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == sum(map(len, orders))
        return seen

    def test_threads_share_one_engine(self, own):
        texts = [PROGRAMS[name] for name in sorted(PROGRAMS)]
        expected = {text: cells(QLEngine(own.endpoint, own.schema)
                                .execute(text).cube)
                    for text in texts}
        half = len(texts) // 2
        for orders in ([texts * 2, texts[::-1] * 2,            # same texts
                        texts[1::2] + texts, texts[::2] + texts],
                       [texts[:half] * 3, texts[half:] * 3]):  # different
            engine = QLEngine(own.endpoint, own.schema)
            seen = self.run_together(engine, orders,
                                     lambda result: cells(result.cube))
            for text, answer in seen:
                assert answer == expected[text]
            assert set(engine._prepared) == set(expected)

    def test_threads_overflowing_the_table_keep_it_bounded(self, own):
        """Four threads prepare 300 distinct texts between them: two
        evictions racing for the same oldest text would raise, or leave
        the table off its bound."""
        engine = QLEngine(own.endpoint, own.schema)
        texts = [TIME_ONLY + "\n" * index for index in range(300)]
        orders = [texts[start::4] for start in range(4)]
        self.run_together(engine, orders, lambda result: result.report.rows)
        assert len(engine._prepared) == executor_module.PREPARED_PROGRAMS
        assert set(engine._prepared) <= set(texts)


def test_a_warm_round_leaves_nothing_for_the_collector(own):
    """Every contract op, both variants, once warm: a hit allocates no
    cycle, and neither does the SELECT it runs."""
    def round_():
        for name in sorted(PROGRAMS):
            for variant in VARIANTS:
                own.engine.execute(PROGRAMS[name], variant=variant)

    round_()
    gc.collect()
    gc.disable()
    try:
        round_()
        assert gc.collect() == 0
    finally:
        gc.enable()
