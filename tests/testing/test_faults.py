"""The deterministic fault-injection harness itself."""

from __future__ import annotations

import threading

import pytest

from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_registry():
    faults.FAILPOINTS.reset()
    yield
    faults.FAILPOINTS.reset()


class TestArming:
    def test_disarmed_is_inactive_and_free(self):
        assert faults.ACTIVE is False
        faults.fire("not.armed")  # no-op, no error

    def test_arm_disarm_toggles_active(self):
        faults.FAILPOINTS.arm("site.a")
        assert faults.ACTIVE is True
        faults.FAILPOINTS.arm("site.b")
        faults.FAILPOINTS.disarm("site.a")
        assert faults.ACTIVE is True  # one still armed
        faults.FAILPOINTS.disarm("site.b")
        assert faults.ACTIVE is False

    def test_context_manager_restores_state(self):
        with faults.failpoint("site", raises=True):
            assert faults.ACTIVE
            with pytest.raises(faults.FaultInjected):
                faults.fire("site")
        assert not faults.ACTIVE

    def test_armed_lists_names(self):
        with faults.failpoint("z.site"), faults.failpoint("a.site"):
            assert faults.FAILPOINTS.armed() == ["a.site", "z.site"]


class TestEffects:
    def test_raises_true_raises_fault_injected(self):
        with faults.failpoint("s", raises=True):
            with pytest.raises(faults.FaultInjected):
                faults.fire("s")

    def test_raises_exception_class(self):
        with faults.failpoint("s", raises=KeyError):
            with pytest.raises(KeyError):
                faults.fire("s")

    def test_raises_exception_instance(self):
        marker = ValueError("the exact instance")
        with faults.failpoint("s", raises=marker):
            with pytest.raises(ValueError) as info:
                faults.fire("s")
            assert info.value is marker

    def test_delay_injects_latency(self):
        import time
        with faults.failpoint("s", delay=0.02):
            started = time.monotonic()
            faults.fire("s")
            assert time.monotonic() - started >= 0.02

    def test_callback_runs_before_effect(self):
        seen = []
        with faults.failpoint("s", callback=lambda: seen.append(1),
                              raises=True):
            with pytest.raises(faults.FaultInjected):
                faults.fire("s")
        assert seen == [1]


class TestDeterminism:
    def test_skip_first_window_is_exact(self):
        with faults.failpoint("s", raises=True, skip_first=3) as point:
            for _ in range(3):
                faults.fire("s")
            with pytest.raises(faults.FaultInjected):
                faults.fire("s")
            assert point.hits == 4
            assert point.fired == 1

    def test_max_hits_bounds_firing(self):
        with faults.failpoint("s", raises=True, max_hits=2) as point:
            for _ in range(2):
                with pytest.raises(faults.FaultInjected):
                    faults.fire("s")
            faults.fire("s")  # budget spent: no longer fires
            assert point.fired == 2

    def test_seeded_probability_replays_identically(self):
        def schedule(seed):
            fired = []
            with faults.failpoint("s", raises=True, probability=0.4,
                                  seed=seed):
                for index in range(50):
                    try:
                        faults.fire("s")
                        fired.append(False)
                    except faults.FaultInjected:
                        fired.append(True)
            return fired

        first, second = schedule(seed=7), schedule(seed=7)
        assert first == second          # deterministic under one seed
        assert any(first) and not all(first)  # actually probabilistic
        assert schedule(seed=8) != first      # and seed-sensitive

    def test_only_threads_scopes_injection(self):
        outcomes = {}

        def victim_body():
            try:
                faults.fire("s")
                outcomes["victim"] = "survived"
            except faults.FaultInjected:
                outcomes["victim"] = "faulted"

        victim = threading.Thread(target=victim_body)
        with faults.failpoint("s", raises=True, only_threads=[victim]):
            faults.fire("s")  # this thread is out of scope: no effect
            victim.start()
            victim.join()
        assert outcomes["victim"] == "faulted"


def _reach_parse(endpoint):
    endpoint.select("SELECT ?s WHERE { ?s ?p ?o }")


def _reach_step(endpoint):
    endpoint.ask("ASK { ?s ?p ?o }")


def _reach_add_all(endpoint):
    from repro.rdf import IRI, Literal
    endpoint.insert_triples([(IRI("http://example.org/b"),
                              IRI("http://example.org/p"), Literal(2))])


#: every failpoint compiled into the engine, with a request reaching it
SITES = {
    "endpoint.parse": _reach_parse,
    "evaluator.step": _reach_step,
    "graph.add_all.step": _reach_add_all,
}


class TestInstrumentedSites:
    @pytest.mark.parametrize("name", SITES)
    def test_site_is_reached(self, name):
        from repro.rdf import IRI, Literal
        from repro.sparql import LocalEndpoint
        endpoint = LocalEndpoint()
        endpoint.insert_triples([(IRI("http://example.org/a"),
                                  IRI("http://example.org/p"), Literal(1))])
        with faults.failpoint(name) as point:
            SITES[name](endpoint)
        assert point.hits >= 1

    def test_sites_are_the_listed_ones(self):
        """The engine's sources call ``fire`` with exactly the names
        above; a site added or dropped shows up here."""
        import pathlib
        import re
        import repro
        root = pathlib.Path(repro.__file__).parent
        named = set()
        for path in root.rglob("*.py"):
            if path.parent.name == "testing":
                continue
            named.update(re.findall(r'_faults\.fire\("([^"]+)"\)',
                                    path.read_text()))
        assert named == set(SITES)
