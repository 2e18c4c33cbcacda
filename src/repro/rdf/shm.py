"""Zero-copy shared-memory export of columnar snapshot generations.

The morsel-driven parallel executor (:mod:`repro.sparql.parallel`)
runs join steps in worker *processes*, which means the workers cannot
see the parent's heap.  Copying a hundred-thousand-row column set into
every worker would erase the point of columnar storage, so this module
moves the bytes exactly once: the parent lays a snapshot's immutable
:class:`~repro.rdf.columnar.TripleColumns` order arrays back-to-back
into one ``multiprocessing.shared_memory`` segment, and each worker
re-maps them as **numpy views over the shared buffer** — zero copies
on attach, identical ids, identical sort order, so the evaluator's
staged binary searches work unchanged.

Three kinds of payload travel this way:

* **column segments** (:func:`export_columns` / :func:`attach_columns`)
  — the nine order arrays of one ``TripleColumns`` generation plus the
  metadata (:class:`ColumnsManifest`) needed to rebuild the object
  around the mapped views.  One segment per graph per epoch.
* **dictionary segments** (:func:`export_terms` / :func:`attach_terms`)
  — the term intern table up to the snapshot's high-water mark,
  pickled once per epoch.  Ids are positional, so rebuilding the table
  from the same term sequence reproduces the same encoding.
* **generic array bundles** (:func:`export_arrays` /
  :func:`attach_arrays`) — any named set of numpy arrays laid into
  one segment, each aligned to its item size (column segments use the
  same layout).  The OLAP layer ships compressed
  :class:`~repro.olap.star.FactColumns` snapshots this way (the fact
  pipeline lives *above* the RDF tier, so the rdf layer exposes the
  mechanism without knowing the star layout).
* **control flags** (:class:`ControlFlag` / :func:`control_is_set`) —
  a single shared byte per query; the parent sets it on a governor
  verdict and workers poll it at morsel boundaries (cooperative
  cancellation without signals).

Worker processes come from :class:`SpawnPool`, the one place a pool is
constructed; both morsel executors (SPARQL and star) own one.

Ownership is strictly parent-side: the parent creates and unlinks
every segment (through the refcounted registry in
:mod:`repro.rdf.concurrency`); workers only ever attach.  On Python
< 3.13 merely *attaching* registers the segment with the
``resource_tracker`` — and spawn children share the *parent's* tracker
daemon, so a worker registering (or later unregistering) the name
corrupts the parent's own registration bookkeeping.  :func:`_attach`
therefore opens segments with tracker registration suppressed: workers
never talk to the tracker at all, and the parent's register/unlink
pair stays exactly balanced.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from repro.rdf.columnar import OrderArrays, TripleColumns
from repro.rdf.terms import Term

__all__ = [
    "ArraySpec", "ArraysManifest", "ColumnsManifest", "ControlFlag",
    "MORSEL_ROWS", "SpawnPool", "TermsManifest", "attach_arrays",
    "attach_columns", "attach_terms", "control_is_set", "export_arrays",
    "export_columns", "export_terms", "segment_name",
]

#: Every exported segment name carries this prefix, so test hygiene
#: checks can sweep ``/dev/shm`` for leftovers without false positives.
SEGMENT_PREFIX = "repro_shm_"

#: Default rows per worker task, for every morsel executor.
MORSEL_ROWS = 16384

_SEGMENT_SEQ = itertools.count(1)


def segment_name(tag: str) -> str:
    """A fresh segment name: unique in this process by sequence number,
    across processes by pid."""
    return f"{SEGMENT_PREFIX}{os.getpid()}_{tag}{next(_SEGMENT_SEQ)}"


def _noop_register(name: str, rtype: str) -> None:
    """Tracker stand-in used while a worker attaches (see below)."""


def _attach(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment *without* registering it with the
    resource tracker (see the module docstring: registration from a
    worker would race the owning parent's own register/unlink pair,
    because spawn children share the parent's tracker daemon).  Worker
    processes are single-threaded, so the brief patch cannot be
    observed concurrently."""
    register = resource_tracker.register
    resource_tracker.register = _noop_register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one id column inside a shared segment."""

    key: str      #: ``"<order>.<position>"``, e.g. ``"pos.2"``
    dtype: str    #: numpy dtype name, e.g. ``"int32"``
    offset: int   #: byte offset inside the segment
    count: int    #: element count


@dataclass(frozen=True)
class ColumnsManifest:
    """Everything a worker needs to rebuild one ``TripleColumns``
    around the mapped views: the segment name, the triple count, the
    probe ceiling, the distinct-value counts and the array layout."""

    segment: str
    size: int
    ceiling: int
    distinct: Tuple[int, int, int]
    arrays: Tuple[ArraySpec, ...]
    nbytes: int


@dataclass(frozen=True)
class TermsManifest:
    """A pickled term-table prefix: segment name, payload size and the
    high-water mark (term count) it was cut at."""

    segment: str
    nbytes: int
    mark: int


_ORDERS = ("spo", "pos", "osp")


def _views(segment: shared_memory.SharedMemory,
           specs: Sequence[ArraySpec]) -> Dict[str, np.ndarray]:
    """Read-only numpy views over a segment's arrays (zero copy)."""
    views: Dict[str, np.ndarray] = {}
    for spec in specs:
        view = np.ndarray((spec.count,), dtype=spec.dtype,
                          buffer=segment.buf, offset=spec.offset)
        view.flags.writeable = False
        views[spec.key] = view
    return views


def _mapped_columns(segment: shared_memory.SharedMemory,
                    manifest: ColumnsManifest) -> TripleColumns:
    """A ``TripleColumns`` whose order arrays are views over ``segment``."""
    views = _views(segment, manifest.arrays)
    orders: OrderArrays = {
        order: (views[f"{order}.0"], views[f"{order}.1"],
                views[f"{order}.2"])
        for order in _ORDERS}
    return TripleColumns.from_sorted_orders(
        orders, manifest.size, manifest.ceiling, manifest.distinct)


def export_columns(columns: TripleColumns, name: str
                   ) -> Tuple[shared_memory.SharedMemory, ColumnsManifest,
                              TripleColumns]:
    """Lay ``columns``' nine sorted order arrays into one new shared
    segment called ``name`` (the :func:`export_arrays` layout, keyed
    ``"<order>.<position>"``); returns the owning segment handle, the
    manifest workers attach with, and a parent-side ``TripleColumns``
    whose arrays are read-only views over the segment (so the exporter
    can route/range morsels without keeping the pre-copy arrays
    alive).  The caller owns the segment's lifetime (close + unlink)."""
    orders, ceiling, distinct = columns.sorted_generation()
    segment, bundle = export_arrays(
        {f"{order}.{position}": orders[order][position]
         for order in _ORDERS for position in range(3)}, name)
    manifest = ColumnsManifest(name, columns.size, ceiling, distinct,
                               bundle.arrays, bundle.nbytes)
    return segment, manifest, _mapped_columns(segment, manifest)


def attach_columns(manifest: ColumnsManifest
                   ) -> Tuple[shared_memory.SharedMemory, TripleColumns]:
    """Map an exported generation back into a ``TripleColumns`` whose
    arrays are read-only views over the shared buffer (zero copy).

    The returned segment handle must stay referenced as long as the
    columns are in use — dropping it invalidates the views."""
    segment = _attach(manifest.segment)
    return segment, _mapped_columns(segment, manifest)


@dataclass(frozen=True)
class ArraysManifest:
    """Layout of a generic named-array bundle inside one segment.

    ``arrays`` reuses :class:`ArraySpec`, with ``key`` carrying the
    caller's array name instead of an ``"<order>.<position>"`` slot.
    ``epoch`` stamps which snapshot generation the bundle belongs to —
    attachers can refuse stale manifests without mapping the payload.
    """

    segment: str
    arrays: Tuple[ArraySpec, ...]
    nbytes: int
    epoch: int = 0


def export_arrays(arrays: Dict[str, np.ndarray], name: str,
                  epoch: int = 0
                  ) -> Tuple[shared_memory.SharedMemory, ArraysManifest]:
    """Lay a named set of numpy arrays into one new shared segment
    called ``name``, each at an offset aligned to its item size (mixed
    widths — int8 codes ahead of float64 measures — would otherwise
    leave the wider views unaligned).  Keys are preserved in the
    manifest in insertion order; the caller owns the segment (close +
    unlink, or hand it to the :data:`~repro.rdf.concurrency.
    SHM_SEGMENTS` registry)."""
    specs: List[ArraySpec] = []
    offset = 0
    for key, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        offset += -offset % contiguous.itemsize
        specs.append(ArraySpec(key, contiguous.dtype.name, offset,
                               len(contiguous)))
        offset += contiguous.nbytes
    nbytes = max(1, offset)  # zero-byte segments are not allowed
    segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    for spec, array in zip(specs, arrays.values()):
        view = np.ndarray((spec.count,), dtype=spec.dtype,
                          buffer=segment.buf, offset=spec.offset)
        view[:] = array
    return segment, ArraysManifest(name, tuple(specs), nbytes, epoch)


def attach_arrays(manifest: ArraysManifest
                  ) -> Tuple[shared_memory.SharedMemory,
                             Dict[str, np.ndarray]]:
    """Map an exported bundle back into read-only views over the shared
    buffer (zero copy).  The returned segment handle must stay
    referenced as long as any view is in use."""
    segment = _attach(manifest.segment)
    return segment, _views(segment, manifest.arrays)


def export_terms(terms: Sequence[Term], name: str
                 ) -> Tuple[shared_memory.SharedMemory, TermsManifest]:
    """Pickle a term-table prefix into a new shared segment."""
    blob = pickle.dumps(list(terms), protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, len(blob)))
    segment.buf[:len(blob)] = blob
    return segment, TermsManifest(name, len(blob), len(terms))


def attach_terms(manifest: TermsManifest) -> List[Term]:
    """Load the shipped term-table prefix (the pickle is copied out,
    so the segment handle is released before returning)."""
    segment = _attach(manifest.segment)
    try:
        blob = bytes(segment.buf[:manifest.nbytes])
    finally:
        segment.close()
    terms: List[Term] = pickle.loads(blob)
    return terms


class ControlFlag:
    """One shared byte of cooperative cancellation state.

    The parent creates it per parallel query, sets it on any governor
    verdict (deadline, budget, cancellation) or failure, and unlinks
    it when the query finishes; workers check :func:`control_is_set`
    at every morsel boundary and drain instead of starting new work.
    """

    __slots__ = ("name", "_segment")

    def __init__(self, name: str) -> None:
        self.name = name
        self._segment = shared_memory.SharedMemory(name=name, create=True,
                                                   size=1)
        self._segment.buf[0] = 0

    def set(self) -> None:
        self._segment.buf[0] = 1

    def is_set(self) -> bool:
        return self._segment.buf[0] != 0

    def destroy(self) -> None:
        """Release and unlink the flag (parent-side, once per query)."""
        try:
            self._segment.close()
            self._segment.unlink()
        except OSError:
            pass  # already gone — e.g. interpreter teardown races

    def __repr__(self) -> str:
        return f"<ControlFlag {self.name} set={self.is_set()}>"


class SpawnPool:
    """A lazily spawned, rebuildable worker pool (``spawn``, never
    ``fork``: the parent has threads).  After :meth:`shutdown` the next
    :meth:`executor` call builds a fresh pool — which is also how a
    pool broken by a dead worker is recovered."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"))
            return self._pool

    def shutdown(self, wait: bool) -> None:
        """Idempotent.  ``wait=True`` is the orderly close; a broken
        pool is dropped with ``wait=False``."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


def control_is_set(name: str) -> bool:
    """Worker-side poll of a parent's control flag.

    A missing flag reads as *set*: the parent only unlinks it when the
    query is over, so a worker that cannot find it has nothing useful
    left to compute.
    """
    try:
        segment = _attach(name)
    except (FileNotFoundError, OSError):
        return True
    try:
        return segment.buf[0] != 0
    finally:
        segment.close()
