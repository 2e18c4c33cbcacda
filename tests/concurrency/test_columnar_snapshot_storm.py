"""Columnar snapshot equivalence under concurrent compaction.

The columnar tier replaces the physical layout *underneath* PR 5's
copy-on-write snapshots: a pinned snapshot shares the immutable column
generation by reference and COW-protects only the delta dicts.  These
storms verify the contract the evaluator relies on:

* a reader that pins a snapshot before a writer bulk-loads, mutates
  and compacts must read **byte-stable** results for as long as it
  holds the pin — every re-read returns the identical triple multiset
  and the identical SELECT rows, no matter how many column
  generations the writer publishes meanwhile;
* concurrent readers each see exactly one epoch (no torn reads across
  a compaction boundary);
* after the storm the graph equals the single-threaded replay of the
  same mutation schedule.
"""

import random
import threading

import pytest

from repro.rdf.concurrency import CONCURRENCY
from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal
from repro.sparql.endpoint import LocalEndpoint

from tests.rdf.rows import id_rows

EX = "http://example.org/colstorm/"
VALUE = IRI(EX + "value")
GROUP = IRI(EX + "group")
GROUPS = [IRI(EX + f"g{k}") for k in range(6)]

BASE_OBSERVATIONS = 3000
WRITER_BATCHES = 30
BATCH = 150
READ_ROUNDS = 40

AGG_QUERY = f"""
    SELECT ?g (SUM(?v) AS ?total) WHERE {{
        ?o <{VALUE.value}> ?v .
        ?o <{GROUP.value}> ?g
    }} GROUP BY ?g
"""


def load_base(graph, observations=BASE_OBSERVATIONS):
    """Bulk-load the fact shape through the columnar fast path."""
    import numpy as np

    encode = graph.dictionary.encode
    s_ids, p_ids, o_ids = [], [], []
    for i in range(observations):
        si = encode(IRI(EX + f"obs{i}"))
        s_ids += [si, si]
        p_ids += [encode(VALUE), encode(GROUP)]
        o_ids += [encode(Literal(i % 97)),
                  encode(GROUPS[i % len(GROUPS)])]
    graph.bulk_load_ids(np.asarray(s_ids), np.asarray(p_ids),
                        np.asarray(o_ids))
    return graph


def writer_schedule(rng):
    """A deterministic mutation schedule: (add-batch, remove-batch)
    pairs the storm writer and the single-threaded replay both
    follow."""
    schedule = []
    for step in range(WRITER_BATCHES):
        adds = [(IRI(EX + f"late{step}_{i}"), VALUE, Literal(i % 53))
                for i in range(BATCH)]
        adds += [(IRI(EX + f"late{step}_{i}"), GROUP,
                  GROUPS[(step + i) % len(GROUPS)])
                 for i in range(BATCH)]
        removes = [(IRI(EX + f"obs{rng.randrange(BASE_OBSERVATIONS)}"),
                    None, None) for _ in range(3)]
        schedule.append((adds, removes))
    return schedule


class TestPinnedSnapshotStability:
    def test_reads_byte_stable_across_compactions(self):
        """One pinned snapshot, re-read while the writer publishes
        many column generations: all reads identical."""
        dataset = Dataset()
        load_base(dataset.default)
        endpoint = LocalEndpoint(dataset)
        compactions_before = CONCURRENCY.snapshot().get("compactions", 0)

        first_rows = endpoint.select(AGG_QUERY).rows
        snap = dataset.snapshot()
        pinned_triples = sorted(id_rows(snap.default))

        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    again = sorted(id_rows(snap.default))
                    if again != pinned_triples:
                        errors.append("pinned snapshot drifted")
                        return
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        def writer():
            try:
                graph = dataset.default
                for adds, removes in writer_schedule(random.Random(5)):
                    for s, p, o in adds:
                        graph.add(s, p, o)
                    for pattern in removes:
                        graph.remove(pattern)
                    graph.compact()
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        wt = threading.Thread(target=writer)
        for t in threads:
            t.start()
        wt.start()
        wt.join()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []

        # the writer really did publish fresh column generations
        compactions_after = CONCURRENCY.snapshot().get("compactions", 0)
        assert compactions_after - compactions_before >= WRITER_BATCHES

        # the pin still answers with the pre-storm state, the live
        # graph with the post-storm state
        assert sorted(id_rows(snap.default)) == \
            pinned_triples
        live = endpoint.select(AGG_QUERY).rows
        assert sorted(map(repr, live)) != sorted(map(repr, first_rows))

    def test_concurrent_selects_see_single_epochs(self):
        """Readers under load: every SELECT answer must equal the
        answer the *pinned* snapshot of some single epoch gives —
        group totals from a torn read would match no epoch."""
        dataset = Dataset()
        load_base(dataset.default, 1200)
        endpoint = LocalEndpoint(dataset)

        epochs = {}  # epoch -> frozenset of (group, total) rows
        epoch_lock = threading.Lock()

        def record_epoch():
            snap = dataset.snapshot()
            rows = frozenset(
                (si, pi, oi) for si, pi, oi
                in id_rows(snap.default))
            with epoch_lock:
                epochs[snap.default.epoch] = rows

        record_epoch()
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    snap = dataset.snapshot()
                    seen = frozenset(
                        (si, pi, oi) for si, pi, oi
                        in id_rows(snap.default))
                    with epoch_lock:
                        recorded = epochs.get(snap.default.epoch)
                    if recorded is not None and recorded != seen:
                        errors.append(
                            f"torn read at epoch {snap.default.epoch}")
                        return
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        def writer():
            try:
                graph = dataset.default
                for adds, removes in writer_schedule(random.Random(11)):
                    graph.add_all(adds)  # atomic: no half-batch epochs
                    for pattern in removes:
                        graph.remove(pattern)
                    graph.compact()
                    record_epoch()
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        wt = threading.Thread(target=writer)
        for t in threads:
            t.start()
        wt.start()
        wt.join()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []

    def test_storm_end_state_matches_serial_replay(self):
        """The concurrent run and a single-threaded replay of the same
        schedule land on identical content and statistics."""
        seed = 23

        def run(concurrent):
            dataset = Dataset()
            load_base(dataset.default, 1500)
            graph = dataset.default
            schedule = writer_schedule(random.Random(seed))

            def apply():
                for adds, removes in schedule:
                    for s, p, o in adds:
                        graph.add(s, p, o)
                    for pattern in removes:
                        graph.remove(pattern)
                    graph.compact()

            if concurrent:
                stop = threading.Event()

                def reader():
                    while not stop.is_set():
                        dataset.snapshot().default.count_ids(
                            (None, None, None))

                readers = [threading.Thread(target=reader)
                           for _ in range(3)]
                for t in readers:
                    t.start()
                try:
                    apply()
                finally:
                    stop.set()
                    for t in readers:
                        t.join()
            else:
                apply()
            return dataset

        stormed = run(concurrent=True)
        serial = run(concurrent=False)
        assert sorted(id_rows(stormed.default)) \
            == sorted(id_rows(serial.default))
        endpoint_a = LocalEndpoint(stormed)
        endpoint_b = LocalEndpoint(serial)
        assert sorted(map(repr, endpoint_a.select(AGG_QUERY).rows)) == \
            sorted(map(repr, endpoint_b.select(AGG_QUERY).rows))
