"""Concurrency primitives and telemetry for the snapshot-epoch layer.

The engine's consistency boundary is the **snapshot epoch** (see
:mod:`repro.rdf.graph`): writers mutate under an exclusive per-dataset
lock and bump the graph epoch; readers pin an immutable
``GraphSnapshot`` / ``DatasetSnapshot`` for the duration of a query and
never take the write lock at all.  This module holds the two pieces
that protocol shares process-wide:

* :class:`CountedRLock` — a reentrant lock whose *contended*
  acquisitions are counted, so ``EXPLAIN`` can show how often writers
  actually waited on each other (readers never contend on it);
* :class:`ConcurrencyTelemetry` / :data:`CONCURRENCY` — the shared
  counters the endpoint and ``EXPLAIN`` surface: active readers (a
  gauge), the peak reader concurrency seen, snapshot pins split into
  fresh builds vs epoch-cache reuses, copy-on-write events, and writer
  waits.

Lock order (must be respected by any new code path):

1. the dataset / graph write lock (:class:`CountedRLock`; one shared
   lock per :class:`~repro.rdf.graph.Dataset`, a private one per
   standalone :class:`~repro.rdf.graph.Graph`);
2. the term dictionary's intern lock
   (:class:`~repro.rdf.dictionary.TermDictionary`), taken when a new
   term is first seen and while ``value_ranks`` extends its order;
3. the telemetry lock in this module (leaf — never held while calling
   out).

Telemetry is intentionally cheap: counters that are only ever bumped
under a write lock (snapshot builds, COW copies) need no extra
synchronization; the reader gauge and the counters bumped by unlocked
readers (snapshot reuses, stale serves, writer waits) take the
telemetry lock because those events genuinely race.
"""

from __future__ import annotations

import atexit
import threading
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["CONCURRENCY", "ConcurrencyTelemetry", "CountedRLock",
           "SHM_SEGMENTS", "ShmRegistry"]


class CountedRLock:
    """A reentrant lock that counts contended acquisitions.

    Wraps :class:`threading.RLock`; the fast path (uncontended acquire)
    costs one extra non-blocking attempt.  Contended acquires — a
    writer arriving while another writer (or a snapshot publication)
    holds the lock — bump :attr:`ConcurrencyTelemetry.writer_waits`.
    The rare *reader* paths that must block (a dataset's very first
    pin) use :meth:`acquire_uncounted` so the writer-wait counter
    keeps meaning what its name says.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True) -> bool:
        if self._lock.acquire(blocking=False):
            return True
        if not blocking:
            return False
        CONCURRENCY.record_writer_wait()
        return self._lock.acquire()

    def acquire_uncounted(self) -> bool:
        """Blocking acquire that never records a writer wait."""
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "CountedRLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._lock.release()

    def __repr__(self) -> str:
        return f"<CountedRLock {self._lock!r}>"


class ConcurrencyTelemetry:
    """Shared counters for the snapshot-epoch reader/writer protocol.

    ``active_readers`` is a live gauge of queries currently evaluating
    against a pinned snapshot; ``peak_readers`` is the highest value
    that gauge has reached.  ``snapshot_builds`` counts snapshots
    constructed fresh (the graph changed since the last pin),
    ``snapshot_reuses`` counts pins served from the published-snapshot
    cache, and ``stale_serves`` counts pins answered with the *last
    published* state because a writer held the lock mid-batch (the
    never-block guarantee); the sum of the three is the *snapshot pins*
    figure EXPLAIN shows.  ``cow_copies`` counts copy-on-write events —
    a writer re-cloning the id-keyed indexes because a published
    snapshot still shares them.  ``writer_waits`` counts contended
    write-lock acquisitions.
    """

    __slots__ = ("_lock", "active_readers", "peak_readers",
                 "reader_queries", "snapshot_builds", "snapshot_reuses",
                 "stale_serves", "cow_copies", "writer_waits",
                 "compactions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active_readers = 0
        self.peak_readers = 0
        self.reader_queries = 0
        self.snapshot_builds = 0
        self.snapshot_reuses = 0
        self.stale_serves = 0
        self.cow_copies = 0
        self.writer_waits = 0
        self.compactions = 0

    # -- reader gauge --------------------------------------------------------

    def reader_enter(self) -> None:
        """A query pinned a snapshot and started evaluating."""
        with self._lock:
            self.active_readers += 1
            self.reader_queries += 1
            if self.active_readers > self.peak_readers:
                self.peak_readers = self.active_readers

    def reader_exit(self) -> None:
        with self._lock:
            self.active_readers -= 1

    # -- writer/snapshot events ----------------------------------------------
    # builds and COW copies happen under a write lock; reuse and stale
    # serves are bumped by *unlocked* readers, so they take the
    # telemetry lock to avoid losing increments across a GIL switch

    def record_snapshot_build(self) -> None:
        self.snapshot_builds += 1

    def record_snapshot_reuse(self) -> None:
        with self._lock:
            self.snapshot_reuses += 1

    def record_snapshot_stale(self) -> None:
        with self._lock:
            self.stale_serves += 1

    def record_cow_copy(self) -> None:
        self.cow_copies += 1

    def record_compaction(self) -> None:
        """The delta overlay was folded into a fresh column generation."""
        self.compactions += 1

    def record_writer_wait(self) -> None:
        with self._lock:
            self.writer_waits += 1

    # -- reporting -----------------------------------------------------------

    @property
    def snapshot_pins(self) -> int:
        """Total pins (fresh builds + cache reuses + stale serves)."""
        return self.snapshot_builds + self.snapshot_reuses \
            + self.stale_serves

    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of every counter (for deltas in tests)."""
        with self._lock:
            return {
                "active_readers": self.active_readers,
                "peak_readers": self.peak_readers,
                "reader_queries": self.reader_queries,
                "snapshot_builds": self.snapshot_builds,
                "snapshot_reuses": self.snapshot_reuses,
                "stale_serves": self.stale_serves,
                "snapshot_pins": (self.snapshot_builds
                                  + self.snapshot_reuses
                                  + self.stale_serves),
                "cow_copies": self.cow_copies,
                "writer_waits": self.writer_waits,
                "compactions": self.compactions,
            }

    def reset(self) -> None:
        with self._lock:
            self.active_readers = 0
            self.peak_readers = 0
            self.reader_queries = 0
            self.snapshot_builds = 0
            self.snapshot_reuses = 0
            self.stale_serves = 0
            self.cow_copies = 0
            self.writer_waits = 0
            self.compactions = 0

    def __repr__(self) -> str:
        return (f"<ConcurrencyTelemetry active={self.active_readers} "
                f"peak={self.peak_readers} pins={self.snapshot_pins} "
                f"cow={self.cow_copies} waits={self.writer_waits}>")


#: The process-wide concurrency counters.
CONCURRENCY = ConcurrencyTelemetry()


class _ShmGroup:
    """One exported segment group: its payload (the manifests queries
    ship to workers), the owning segment handles, a pin count and a
    retirement mark."""

    __slots__ = ("payload", "segments", "pins", "retired")

    def __init__(self, payload: object,
                 segments: Sequence[object]) -> None:
        self.payload = payload
        self.segments = tuple(segments)
        self.pins = 0
        self.retired = False


class ShmRegistry:
    """Epoch-keyed registry of shared-memory segment groups with
    refcounted cleanup.

    The parallel star aggregator exports each fact generation into
    shared memory **once per epoch** and keys the resulting group here.
    Queries *pin* the group for their duration (:meth:`pin_or_export` /
    :meth:`unpin`); when a new epoch supersedes an old one the exporter
    *retires* the stale key (:meth:`retire`), and the group's segments
    are closed + unlinked as soon as the last pinned query drains —
    never underneath one.

    Segment handles are duck-typed (``name`` / ``close()`` /
    ``unlink()``), so this module stays free of any
    ``multiprocessing`` import; the actual export/attach mechanics
    live in :mod:`repro.rdf.shm`.

    The registry is a leaf lock like the telemetry above: the export
    callback runs under it (exports are rare — once per epoch — and
    must not double-create a named segment), but unlink callouts
    happen after the bookkeeping is settled.
    """

    __slots__ = ("_lock", "_groups")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._groups: Dict[Tuple[object, ...], _ShmGroup] = {}

    def pin_or_export(self, key: Tuple[object, ...],
                      build: Callable[[], Tuple[object, Sequence[object]]]
                      ) -> object:
        """The payload under ``key``, exported via ``build()`` on first
        sight, with this caller's pin taken.  ``build`` returns
        ``(payload, segment_handles)``."""
        with self._lock:
            group = self._groups.get(key)
            if group is None or group.retired:
                payload, segments = build()
                group = _ShmGroup(payload, segments)
                self._groups[key] = group
            group.pins += 1
            return group.payload

    def unpin(self, key: Tuple[object, ...]) -> None:
        """Release one pin; destroys the group when it was retired and
        this was the last pin."""
        destroy: List[object] = []
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                return
            group.pins -= 1
            if group.retired and group.pins <= 0:
                del self._groups[key]
                destroy.extend(group.segments)
        self._destroy(destroy)

    def retire(self, key: Tuple[object, ...]) -> None:
        """Mark ``key`` stale; unlink now if nothing has it pinned."""
        destroy: List[object] = []
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                return
            group.retired = True
            if group.pins <= 0:
                del self._groups[key]
                destroy.extend(group.segments)
        self._destroy(destroy)

    def retire_all(self) -> None:
        """Retire every key (shutdown path; also the atexit backstop)."""
        with self._lock:
            keys = list(self._groups)
        for key in keys:
            self.retire(key)

    def segment_names(self) -> List[str]:
        """Names of every live segment (test hygiene checks)."""
        with self._lock:
            return sorted(
                str(getattr(segment, "name", segment))
                for group in self._groups.values()
                for segment in group.segments)

    @property
    def empty(self) -> bool:
        with self._lock:
            return not self._groups

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups)

    def _destroy(self, segments: Sequence[object]) -> None:
        for segment in segments:
            try:
                segment.close()  # type: ignore[attr-defined]
                segment.unlink()  # type: ignore[attr-defined]
            except OSError:
                pass  # already unlinked (e.g. interpreter teardown)

    def __repr__(self) -> str:
        with self._lock:
            pinned = sum(group.pins for group in self._groups.values())
            return (f"<ShmRegistry {len(self._groups)} groups, "
                    f"{pinned} pins>")


#: The process-wide exported-segment registry.  ``atexit`` retirement
#: is a backstop for abnormal teardown; orderly code paths (the
#: aggregator's ``close()``, test fixtures) drain it explicitly.
SHM_SEGMENTS = ShmRegistry()
atexit.register(SHM_SEGMENTS.retire_all)
