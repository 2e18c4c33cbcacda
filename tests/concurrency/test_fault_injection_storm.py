"""Fault-injected storms: crashes and slowdowns must stay invisible.

Failpoints (:mod:`repro.testing.faults`) crash the writer mid-batch
and slow selected readers down while the rest of the system runs at
full speed.  The invariants: a crashed ``add_all`` rolls back
completely (the published snapshot stays at the pre-batch epoch and
readers never observe partial state), faulted queries die with typed
errors only, and healthy threads never notice any of it.
"""

from __future__ import annotations

import threading

import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint
from repro.testing import faults

EX = "http://example.org/faultstorm/"
DIM = IRI(EX + "dim")
VAL = IRI(EX + "val")

PAIR_QUERY = f"""
    SELECT ?s ?m ?v WHERE {{
        ?s <{DIM.value}> ?m .
        ?s <{VAL.value}> ?v
    }}
"""


@pytest.fixture(autouse=True)
def clean_registry():
    faults.FAILPOINTS.reset()
    yield
    faults.FAILPOINTS.reset()


def subject(tag: str) -> IRI:
    return IRI(EX + "subject/" + tag)


def seed_endpoint(n: int = 60) -> LocalEndpoint:
    endpoint = LocalEndpoint()
    rows = []
    for i in range(n):
        s = subject(f"seed{i}")
        rows.append((s, DIM, IRI(EX + f"member{i % 4}")))
        rows.append((s, VAL, Literal(i)))
    endpoint.insert_triples(rows)
    return endpoint


class TestAtomicAddAllRollback:
    def test_crash_mid_batch_rolls_back_completely(self):
        graph = Dataset().default
        graph.add(subject("pre"), DIM, IRI(EX + "member0"))
        size_before, epoch_before = len(graph), graph.epoch
        batch = [(subject(f"b{i}"), VAL, Literal(i)) for i in range(10)]
        with faults.failpoint("graph.add_all.step", raises=RuntimeError,
                              skip_first=6):
            with pytest.raises(RuntimeError):
                graph.add_all(batch)
        assert len(graph) == size_before
        assert graph.epoch == epoch_before
        assert len(list(graph.triples((None, VAL, None)))) == 0

    def test_published_snapshot_stays_at_pre_batch_epoch(self):
        dataset = Dataset()
        graph = dataset.default
        graph.add(subject("pre"), DIM, IRI(EX + "member0"))
        pinned = dataset.snapshot()
        with faults.failpoint("graph.add_all.step", raises=RuntimeError,
                              skip_first=2):
            with pytest.raises(RuntimeError):
                graph.add_all([(subject(f"c{i}"), VAL, Literal(i))
                               for i in range(5)])
        after = dataset.snapshot()
        assert after.epoch == pinned.epoch
        assert len(after.default) == len(pinned.default) == 1

    def test_successful_batch_after_crash_is_clean(self):
        graph = Dataset().default
        batch = [(subject(f"d{i}"), VAL, Literal(i)) for i in range(4)]
        with faults.failpoint("graph.add_all.step", raises=RuntimeError,
                              max_hits=1, skip_first=2):
            with pytest.raises(RuntimeError):
                graph.add_all(batch)
            graph.add_all(batch)  # the retry (failpoint budget spent)
        assert len(graph) == 4

    def test_malformed_triple_mid_batch_rolls_back(self):
        # rollback must also cover organic failures, not just failpoints
        graph = Dataset().default
        epoch_before = graph.epoch
        with pytest.raises(Exception):
            graph.add_all([
                (subject("ok"), VAL, Literal(1)),
                ("not a term", None, object()),
            ])
        assert len(graph) == 0
        assert graph.epoch == epoch_before


class TestThreadScopedStall:
    def test_stalled_reader_does_not_hold_up_a_healthy_one(self):
        """A join-step stall armed for one thread: a reader on another
        thread answers exactly what a single-threaded run answers while
        the stalled one is still held, and the stalled one answers the
        same once released."""
        endpoint = seed_endpoint()
        expected = endpoint.select(PAIR_QUERY).rows
        outcomes = {}
        release = threading.Event()

        def read(role: str) -> None:
            try:
                outcomes[role] = endpoint.select(PAIR_QUERY).rows
            except Exception as error:  # noqa: BLE001 - asserted below
                outcomes[role] = error

        stalled = threading.Thread(target=read, args=("stalled",))
        healthy = threading.Thread(target=read, args=("healthy",))
        with faults.failpoint("evaluator.step",
                              callback=lambda: release.wait(timeout=30),
                              only_threads=[stalled]) as point:
            stalled.start()
            healthy.start()
            healthy.join(timeout=30)
            assert not healthy.is_alive()
            assert outcomes["healthy"] == expected
            assert stalled.is_alive()
            release.set()
            stalled.join(timeout=30)
        assert not stalled.is_alive()
        assert outcomes["stalled"] == expected
        assert point.fired == 1


class TestWriterCrashStorm:
    """Readers hammer the endpoint while a writer crashes repeatedly
    mid-``add_all``; concurrent readers must see zero partial state."""

    READERS = 6
    QUERIES_PER_READER = 40
    WRITER_STEPS = 120

    def test_concurrent_readers_see_no_partial_batches(self):
        endpoint = seed_endpoint()
        dataset = endpoint.dataset
        graph = dataset.default
        failures: list = []
        failures_lock = threading.Lock()
        expected = {}  # epoch -> frozenset of live subject values
        live = [subject(f"seed{i}") for i in range(60)]
        expected[graph.epoch] = frozenset(s.value for s in live)
        crashes = []

        def record(message: str) -> None:
            with failures_lock:
                failures.append(message)

        def writer_loop() -> None:
            # every 5th batch hit crashes on its second triple — the
            # first (DIM) triple must be rolled back with it
            for k in range(self.WRITER_STEPS):
                fresh = subject(f"storm{k}")
                batch = [(fresh, DIM, IRI(EX + f"member{k % 4}")),
                         (fresh, VAL, Literal(10_000 + k))]
                with dataset.locked():
                    try:
                        graph.add_all(batch)
                    except faults.FaultInjected:
                        crashes.append(k)
                        if graph.epoch not in expected:
                            record(f"crashed batch {k} left a new epoch")
                    else:
                        live.append(fresh)
                        expected[graph.epoch] = frozenset(
                            s.value for s in live)

        writer = threading.Thread(target=writer_loop, name="fault-writer")
        with faults.failpoint("graph.add_all.step", raises=True,
                              probability=0.2, seed=42, skip_first=1,
                              only_threads=[writer]):

            def reader_loop(index: int) -> None:
                for _ in range(self.QUERIES_PER_READER):
                    try:
                        table = endpoint.select(PAIR_QUERY)
                    except Exception as error:  # noqa: BLE001
                        record(f"reader {index} raised {error!r}")
                        return
                    want = expected.get(table.snapshot_epoch)
                    if want is None:
                        record(f"reader pinned unpublished epoch "
                               f"{table.snapshot_epoch}")
                        continue
                    got = {row[0].value for row in table.rows}
                    if got != want:
                        record(f"divergence at epoch "
                               f"{table.snapshot_epoch}: {len(got)} vs "
                               f"{len(want)} subjects")
                    if any(cell is None
                           for row in table.rows for cell in row):
                        record("partial pair observed")

            readers = [threading.Thread(target=reader_loop, args=(i,),
                                        name=f"fault-reader-{i}")
                       for i in range(self.READERS)]
            writer.start()
            for thread in readers:
                thread.start()
            writer.join(timeout=120)
            for thread in readers:
                thread.join(timeout=120)
            assert not writer.is_alive()
            assert all(not t.is_alive() for t in readers)

        assert not failures, failures[:10]
        # the schedule is seeded: some batches crashed, some landed
        assert crashes, "fault schedule never fired"
        assert len(crashes) < self.WRITER_STEPS
        # final state: exactly the surviving batches, nothing partial
        table = endpoint.select(PAIR_QUERY)
        assert {row[0].value for row in table.rows} \
            == expected[graph.epoch]
        assert len(table) == len(live)
