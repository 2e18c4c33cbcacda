"""Zero-copy shared-memory export of numpy array bundles.

The parallel star aggregator (:mod:`repro.olap.parallel`) runs the
star-query kernel in worker *processes*, which cannot see the parent's
heap.  Copying a fact table into every worker would erase the point of
columnar storage, so this module moves the bytes exactly once: the
parent lays a named set of numpy arrays back-to-back into one
``multiprocessing.shared_memory`` segment (:func:`export_arrays`, each
array aligned to its item size — mixed widths, ``int8`` codes ahead of
``float64`` measures, would otherwise leave the wider views unaligned),
and each worker re-maps them as **read-only numpy views over the shared
buffer** (:func:`attach_arrays`) — zero copies on attach.  The fact
pipeline lives *above* the RDF tier, so the rdf layer exposes the
mechanism without knowing the star layout.

Worker processes come from :class:`SpawnPool`, the one place a pool is
constructed.

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
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

__all__ = [
    "ArraySpec", "ArraysManifest", "MORSEL_ROWS", "SpawnPool",
    "attach_arrays", "export_arrays", "segment_name",
]

#: Every exported segment name carries this prefix, so test hygiene
#: checks can sweep ``/dev/shm`` for leftovers without false positives.
SEGMENT_PREFIX = "repro_shm_"

#: Default rows per worker task.
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
    """Placement of one array inside a shared segment."""

    key: str      #: the caller's array name
    dtype: str    #: numpy dtype name, e.g. ``"int32"``
    offset: int   #: byte offset inside the segment
    count: int    #: element count


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


@dataclass(frozen=True)
class ArraysManifest:
    """Layout of a named-array bundle inside one segment.

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
    called ``name``, each at an offset aligned to its item size.  Keys
    are preserved in the manifest in insertion order; the caller owns
    the segment (close + unlink, or hand it to the
    :data:`~repro.rdf.concurrency.SHM_SEGMENTS` registry)."""
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

