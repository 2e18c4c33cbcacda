"""An indexed, in-memory RDF graph and a named-graph dataset.

:class:`Graph` interns every term through a :class:`TermDictionary`
(see :mod:`repro.rdf.dictionary`) and stores triples in **two tiers
keyed on dense integer ids**:

* the compacted bulk lives in immutable, sorted columnar arrays
  (:class:`~repro.rdf.columnar.TripleColumns` — SPO/POS/OSP orders,
  answered by staged binary search and vectorized range scans);
* fresh writes land in a small **delta overlay**, removals of
  already-compacted triples in the **tombstones** — each a
  :class:`_TripleIndex` (dict-of-dict-of-set hash indexes in the
  SPO / POS / OSP orders), so either answers any pattern shape in
  O(matches).

Reads compose both tiers transparently; compaction folds the overlay
into a fresh column generation at snapshot-epoch boundaries, and a
batch big enough to outgrow the write threshold (:meth:`Graph.add_all`,
:meth:`Graph.bulk_load_ids`) is folded in without ever entering the
overlay, so the hot read path is array scans, not pointer chasing.
This is the storage layer underneath the local SPARQL endpoint that
stands in for the Virtuoso instance used in the paper.

Pattern positions use ``None`` as the wildcard:

>>> from repro.rdf.terms import IRI
>>> g = Graph()
>>> _ = g.add(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o"))
>>> len(list(g.triples((None, IRI("http://e/p"), None))))
1

Storage answers a pattern one way: :meth:`Graph.match_arrays`, the
matches as positional ``(S, P, O)`` id arrays (plus ``count_ids`` and
``contains_id``).  The SPARQL evaluator's join pipeline reads it
directly; the term-level reads (``triples``, ``objects``, iteration)
decode its rows.

**Concurrency (snapshot epochs).**  Graphs follow a reader-writer
protocol built on the mutation epoch: writers take an exclusive lock
(one :class:`~repro.rdf.concurrency.CountedRLock` shared by all graphs
of a :class:`Dataset`) for the duration of each mutation call — which
makes :meth:`Graph.add_all` an atomic batch — and readers pin an
immutable :class:`GraphSnapshot` / :class:`DatasetSnapshot` instead of
locking at all.  Snapshots are published copy-on-write: pinning marks
the live id-keyed indexes as shared, and the *next* mutation re-clones
them before touching anything, so a pinned snapshot stays frozen
forever while writes proceed.  Snapshots are cached per epoch, so an
idle graph serves every reader the same object with no copying.

>>> g2 = Graph()
>>> _ = g2.add(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o"))
>>> frozen = g2.snapshot()
>>> _ = g2.add(IRI("http://e/s2"), IRI("http://e/p"), IRI("http://e/o"))
>>> len(frozen), len(g2)
(1, 2)
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.grouping import sorted_runs
from repro.rdf.columnar import (IdArrays, KeyedPattern, TripleColumns,
                                concat_arrays, key_patterns)
from repro.rdf.concurrency import CONCURRENCY, CountedRLock
from repro.rdf.dictionary import TermDictionary
from repro.rdf.errors import TermError
from repro.rdf.namespace import NamespaceManager
from repro.rdf.stats import GraphStats, StatisticsView, holding
from repro.rdf.terms import IRI, Term, Triple, check_triple, make_triple
from repro.testing import faults as _faults

TriplePattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]
IdTriple = Tuple[int, int, int]

_Index = Dict[int, Dict[int, Set[int]]]

_WILD: IdPattern = (None, None, None)

_NO_ROWS: IdArrays = (np.empty(0, dtype=np.int64),) * 3

#: delta triples beyond which a mutation folds the overlay inline —
#: scaled against the column generation so a stream of single adds
#: compacts a geometrically growing number of times, not per threshold
#: step; a batch that would cross it folds once, without the overlay
COMPACT_WRITE_THRESHOLD = 65536

#: delta triples at/over which snapshot publication compacts first
#: (the snapshot-epoch boundary the columnar lifecycle is built around)
COMPACT_PUBLISH_THRESHOLD = 1024

#: tombstones beyond which a remove folds them away eagerly
TOMBSTONE_THRESHOLD = 1024


def _pin_published_snapshot(owner):
    """The shared pin algorithm for :class:`Graph` and :class:`Dataset`.

    Four branches, in order: (1) lock-free fast path — the published
    snapshot is current; (2) non-blocking refresh — the snapshot is
    stale and the write lock is free, so republish; (3) stale serve —
    a writer is mid-batch, hand back the latest *published* state
    rather than stalling the reader; (4) blocking first pin — nothing
    was ever published, wait for a quiescent instant (uncounted: this
    is a reader, not a writer wait).

    ``owner`` supplies ``_snapshot`` / ``_lock`` and the two varying
    pieces: ``_snapshot_current(snap)`` and ``_publish_snapshot()``.
    """
    snap = owner._snapshot
    if snap is not None and owner._snapshot_current(snap):
        CONCURRENCY.record_snapshot_reuse()
        return snap
    if owner._lock.acquire(blocking=False):
        try:
            snap = owner._snapshot
            if snap is not None and owner._snapshot_current(snap):
                CONCURRENCY.record_snapshot_reuse()
                return snap
            return owner._publish_snapshot()
        finally:
            owner._lock.release()
    if snap is not None:
        CONCURRENCY.record_snapshot_stale()
        return snap
    owner._lock.acquire_uncounted()
    try:
        snap = owner._snapshot
        if snap is not None and owner._snapshot_current(snap):
            CONCURRENCY.record_snapshot_reuse()
            return snap
        return owner._publish_snapshot()
    finally:
        owner._lock.release()


def _index_add(index: _Index, a: int, b: int, c: int) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_clone(index: _Index) -> _Index:
    return {a: {b: set(c) for b, c in level.items()}
            for a, level in index.items()}


def _index_remove(index: _Index, a: int, b: int, c: int) -> None:
    level2 = index[a]
    level3 = level2[b]
    level3.remove(c)
    if not level3:
        del level2[b]
        if not level2:
            del index[a]


class _TripleIndex:
    """A small mutable set of id triples behind three hash indexes
    (``spo`` / ``pos`` / ``osp``, dict-of-dict-of-set) — the shape of
    both mutable storage tiers, the delta overlay and the tombstones.
    Membership and the ``(s, p, *)`` / ``(*, p, o)`` counts are O(1),
    every other pattern shape O(matches)."""

    __slots__ = ("spo", "pos", "osp", "size")

    def __init__(self) -> None:
        self.spo: _Index = {}
        self.pos: _Index = {}
        self.osp: _Index = {}
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def has(self, s: int, p: int, o: int) -> bool:
        by_predicate = self.spo.get(s)
        return by_predicate is not None and o in by_predicate.get(p, ())

    def add(self, s: int, p: int, o: int) -> None:
        """Put in a triple the index does not hold."""
        _index_add(self.spo, s, p, o)
        _index_add(self.pos, p, o, s)
        _index_add(self.osp, o, s, p)
        self.size += 1

    def discard(self, s: int, p: int, o: int) -> bool:
        """Take a triple out; ``False`` when it was not there."""
        if not self.has(s, p, o):
            return False
        _index_remove(self.spo, s, p, o)
        _index_remove(self.pos, p, o, s)
        _index_remove(self.osp, o, s, p)
        self.size -= 1
        return True

    def clear(self) -> None:
        self.spo.clear()
        self.pos.clear()
        self.osp.clear()
        self.size = 0

    def clone(self) -> "_TripleIndex":
        twin = _TripleIndex()
        twin.spo = _index_clone(self.spo)
        twin.pos = _index_clone(self.pos)
        twin.osp = _index_clone(self.osp)
        twin.size = self.size
        return twin

    def ids(self, pattern: IdPattern = _WILD) -> Iterator[IdTriple]:
        """The held triples matching ``pattern``, O(matches)."""
        s, p, o = pattern
        if s is not None:
            by_predicate = self.spo.get(s)
            if by_predicate is None:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            for predicate, objects in by_predicate.items():
                if o is not None:
                    if o in objects:
                        yield (s, predicate, o)
                    continue
                for obj in objects:
                    yield (s, predicate, obj)
            return
        if p is not None:
            by_object = self.pos.get(p)
            if by_object is None:
                return
            if o is not None:
                for subject in by_object.get(o, ()):
                    yield (subject, p, o)
                return
            for obj, subjects in by_object.items():
                for subject in subjects:
                    yield (subject, p, obj)
            return
        if o is not None:
            by_subject = self.osp.get(o)
            if by_subject is None:
                return
            for subject, predicates in by_subject.items():
                for predicate in predicates:
                    yield (subject, predicate, o)
            return
        for subject, by_predicate in self.spo.items():
            for predicate, objects in by_predicate.items():
                for obj in objects:
                    yield (subject, predicate, obj)

    def count(self, pattern: IdPattern) -> int:
        """How many held triples match ``pattern``, without iterating
        them."""
        s, p, o = pattern
        if s is not None:
            if p is not None:
                objects = self.spo.get(s, {}).get(p)
                if objects is None:
                    return 0
                if o is not None:
                    return 1 if o in objects else 0
                return len(objects)
            if o is not None:
                return len(self.osp.get(o, {}).get(s, ()))
            by_predicate = self.spo.get(s)
            if by_predicate is None:
                return 0
            return sum(map(len, by_predicate.values()))
        if p is not None:
            by_object = self.pos.get(p)
            if by_object is None:
                return 0
            if o is not None:
                return len(by_object.get(o, ()))
            return sum(map(len, by_object.values()))
        if o is not None:
            by_subject = self.osp.get(o)
            if by_subject is None:
                return 0
            return sum(map(len, by_subject.values()))
        return self.size

    def arrays(self, pattern: KeyedPattern = _WILD) -> IdArrays:
        """:meth:`ids` of each key in turn as ``(S, P, O)`` id arrays."""
        if any(type(cell) is int and cell not in index  # held by no key
               for cell, index in zip(pattern, (self.spo, self.pos, self.osp))):
            return _NO_ROWS
        rows = [ids for key in key_patterns(pattern) for ids in self.ids(key)]
        if not rows:  # the common answer of a small tier: no numpy call
            return _NO_ROWS
        data = np.asarray(rows, dtype=np.int64)
        return data[:, 0], data[:, 1], data[:, 2]


class _GraphReadMixin:
    """The term-level reads of :class:`Graph` and the read-only
    :class:`UnionView`, written once: each encodes its pattern, asks
    ``match_arrays`` / ``count_ids`` and decodes what came back."""

    def _encode_pattern(self, pattern: TriplePattern) -> Optional[IdPattern]:
        """Translate a term pattern to ids; ``None`` when a bound term
        was never interned (and therefore cannot match anything)."""
        s, p, o = pattern
        lookup = self.dictionary.lookup
        if s is not None:
            s = lookup(s)
            if s is None:
                return None
        if p is not None:
            p = lookup(p)
            if p is None:
                return None
        if o is not None:
            o = lookup(o)
            if o is None:
                return None
        return (s, p, o)

    def triples(self, pattern: TriplePattern = (None, None, None)
                ) -> Iterator[Triple]:
        """Yield all triples matching a pattern with ``None`` wildcards,
        decoded a slice of rows at a time."""
        ids = self._encode_pattern(pattern)
        if ids is None:
            return
        decode = self.dictionary.decode
        s, p, o = self.match_arrays(ids)
        step = 1024  # rows decoded at once: never a whole graph's terms
        for start in range(0, len(s), step):
            window = slice(start, start + step)
            for si, pi, oi in zip(s[window].tolist(), p[window].tolist(),
                                  o[window].tolist()):
                yield Triple(decode(si), decode(pi), decode(oi))

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """Number of triples matching ``pattern``, never iterating them."""
        ids = self._encode_pattern(pattern)
        return 0 if ids is None else self.count_ids(ids)

    def _distinct(self, position: int,
                  pattern: TriplePattern) -> Iterator[Term]:
        """The distinct terms at ``position`` of the matches, in order of
        first occurrence."""
        ids = self._encode_pattern(pattern)
        if ids is None:
            return
        column = self.match_arrays(ids)[position]
        if None in ids[:position] + ids[position + 1:]:  # two bound: distinct
            column = column[np.sort(np.unique(column, return_index=True)[1])]
        yield from map(self.dictionary.decode, column.tolist())

    def subjects(self, predicate: Optional[Term] = None,
                 obj: Optional[Term] = None) -> Iterator[Term]:
        return self._distinct(0, (None, predicate, obj))

    def predicates(self, subject: Optional[Term] = None,
                   obj: Optional[Term] = None) -> Iterator[Term]:
        return self._distinct(1, (subject, None, obj))

    def objects(self, subject: Optional[Term] = None,
                predicate: Optional[Term] = None) -> Iterator[Term]:
        return self._distinct(2, (subject, predicate, None))

    def subject_predicates(self, subject: Term) -> Dict[Term, Set[Term]]:
        """All (predicate → objects) for one subject, as plain dicts."""
        ids = self._encode_pattern((subject, None, None))
        if ids is None:
            return {}
        _, p, o = self.match_arrays(ids)
        decode = self.dictionary.decode
        merged: Dict[Term, Set[Term]] = {}
        for pi, oi in zip(p.tolist(), o.tolist()):
            merged.setdefault(decode(pi), set()).add(decode(oi))
        return merged

    def value(self, subject: Optional[Term] = None,
              predicate: Optional[Term] = None,
              obj: Optional[Term] = None,
              default: Optional[Term] = None) -> Optional[Term]:
        """Return the single term completing the two given positions.

        Exactly two of subject/predicate/object must be bound.  When no
        triple matches, ``default`` is returned; when several match, an
        arbitrary one is returned (mirrors common RDF library behaviour).
        """
        bound = sum(term is not None for term in (subject, predicate, obj))
        if bound != 2:
            raise TermError("Graph.value needs exactly two bound positions")
        for triple in self.triples((subject, predicate, obj)):
            if subject is None:
                return triple.subject
            if predicate is None:
                return triple.predicate
            return triple.object
        return default

    def __contains__(self, triple: Tuple) -> bool:
        s, p, o = triple
        ids = self._encode_pattern((s, p, o))
        return ids is not None and self.count_ids(ids) > 0

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def qname(self, iri: IRI) -> str:
        """Compact form when possible, else the ``<...>`` N-Triples form."""
        compact = self.namespace_manager.compact(iri)
        return compact if compact is not None else iri.n3()


class Graph(_GraphReadMixin):
    """A mutable set of RDF triples with id-keyed SPO/POS/OSP indexes."""

    def __init__(self, identifier: Optional[IRI] = None,
                 namespace_manager: Optional[NamespaceManager] = None,
                 dictionary: Optional[TermDictionary] = None,
                 lock: Optional[CountedRLock] = None) -> None:
        self.identifier = identifier
        self.namespace_manager = namespace_manager or NamespaceManager()
        #: term ↔ id intern table; shared across a Dataset's graphs.
        self.dictionary = dictionary if dictionary is not None \
            else TermDictionary()
        #: delta overlay: the triples written since the last compaction
        self._delta = _TripleIndex()
        #: the compacted, immutable sorted column generation (None
        #: until the first compaction folds the overlay)
        self._columns: Optional[TripleColumns] = None
        #: compacted triples that were removed but not yet folded away
        self._tombstones = _TripleIndex()
        self._size = 0
        #: per-predicate cardinality / distinct-subject / distinct-object
        #: counters, maintained on every mutation (see repro.rdf.stats);
        #: the cost-based SPARQL planner reads them in O(1).
        self.stats = GraphStats()
        #: mutation counter; bumped on every add/remove/clear.  Query
        #: plan caches key on it so stale statistics age out, and the
        #: snapshot layer uses it as its consistency boundary.
        self.epoch = 0
        #: the exclusive write lock (shared across a Dataset's member
        #: graphs so multi-graph snapshots are consistent); mutations
        #: and snapshot publication both take it, reads never do.
        self._lock = lock if lock is not None else CountedRLock()
        #: True while a published :class:`GraphSnapshot` still shares
        #: this graph's index dicts — the next mutation re-clones them
        #: (copy-on-write) before touching anything.
        self._shared = False
        #: the latest *published* snapshot; readers take it lock-free.
        self._snapshot: Optional["GraphSnapshot"] = None
        #: the :class:`Dataset` whose dirty flag mutations must raise
        #: (set when the dataset creates or adopts this graph).
        self._owner = None

    # -- mutation ------------------------------------------------------------

    def locked(self) -> CountedRLock:
        """The graph's exclusive write lock, as a context manager.

        ``with graph.locked(): ...`` turns a sequence of mutations into
        one atomic batch w.r.t. snapshot publication: no snapshot can
        be pinned mid-sequence, because :meth:`snapshot` needs the same
        lock.  (:meth:`add_all` already does this for bulk loads.)
        """
        return self._lock

    def _unshare(self) -> None:
        """Re-clone the index dicts a published snapshot still holds.

        Called under the write lock by the first mutation after a
        snapshot: the snapshot keeps the old structures (frozen
        forever), the graph continues on fresh copies.  O(graph size),
        but paid once per write-burst-after-pin, not per triple.
        """
        self._delta = self._delta.clone()
        # the column generation needs no clone — it is immutable, and
        # compaction *replaces* it, leaving the snapshot's reference
        # untouched — but the tombstones mutate in place
        self._tombstones = self._tombstones.clone()
        self._shared = False
        CONCURRENCY.record_cow_copy()

    def add(self, subject_or_triple: Union[Term, Triple, Tuple],
            predicate: Optional[Term] = None,
            obj: Optional[Term] = None) -> "Graph":
        """Add one triple; accepts ``add(triple)`` or ``add(s, p, o)``.

        Returns the graph so calls can be chained.
        """
        if predicate is None and obj is None:
            triple = subject_or_triple
            if not isinstance(triple, tuple) or len(triple) != 3:
                raise TermError(f"expected a triple, got {triple!r}")
            s, p, o = triple
        else:
            s, p, o = subject_or_triple, predicate, obj
        s, p, o = make_triple(s, p, o)
        with self._lock:
            encode = self.dictionary.encode
            if self._add_ids(encode(s), encode(p), encode(o)):
                self._mutated()
                if self._outgrown(self._delta.size):
                    self._compact()
        return self

    def _outgrown(self, delta: int) -> bool:
        """The size rule of the write path: would an overlay of
        ``delta`` triples be folded into the columns inline?"""
        return delta >= max(COMPACT_WRITE_THRESHOLD,
                            self._column_size() >> 1)

    def _add_ids(self, si: int, pi: int, oi: int) -> bool:
        """Put one encoded triple into the overlay; ``False`` when the
        graph already holds it (must hold the lock)."""
        if self._delta.has(si, pi, oi):
            return False  # already present in the delta overlay
        columns = self._columns
        stored = columns is not None and columns.contains(si, pi, oi)
        if stored and not self._tombstones.has(si, pi, oi):
            return False  # already present in the columns
        if self._shared:
            self._unshare()
        new_subject = not self._holds((si, pi, None))
        new_object = not self._holds((None, pi, oi))
        if stored:
            # re-adding a tombstoned triple: resurrect it in place
            self._tombstones.discard(si, pi, oi)
        else:
            self._delta.add(si, pi, oi)
        self._size += 1
        self.stats.record_add(pi, new_subject, new_object)
        return True

    def _mutated(self) -> None:
        """The content changed: one epoch on, and the owning dataset's
        published snapshot is stale (must hold the lock)."""
        self.epoch += 1
        if self._owner is not None:
            self._owner._dirty = True

    def add_all(self, triples: Iterable[Union[Triple, Tuple]]) -> "Graph":
        """Add many triples as one atomic batch — **all or nothing**.

        The write lock is held throughout, so a reader pinning a
        snapshot sees none or all of the batch.  The batch is first
        validated and interned whole (positional constraints, the
        ``graph.add_all.step`` failpoint per element) with the graph
        left alone, so a failing element propagates with nothing to
        undo; then placed — folded straight into the column tier when
        it would have outgrown the write threshold on its way through
        the overlay (:meth:`bulk_load_ids`), into the overlay
        otherwise.  :attr:`epoch` moves on, once, exactly when the
        batch held a new triple.
        """
        with self._lock:
            s, p, o = self._encoded(triples)
            if self._outgrown(self._delta.size + len(s)):
                self._fold(s, p, o)
            elif sum(map(self._add_ids, s.tolist(), p.tolist(), o.tolist())):
                self._mutated()
        return self

    def _encoded(self, triples: Iterable[Union[Triple, Tuple]]) -> np.ndarray:
        """A batch validated and interned, as ``(S, P, O)`` id rows.
        Everything that can fail does so here, before the graph is
        touched; the term and id lists die with the call."""
        terms: List[Term] = []
        for triple in triples:
            if _faults.ACTIVE:
                _faults.fire("graph.add_all.step")
            if not isinstance(triple, tuple) or len(triple) != 3:
                raise TermError(f"expected a triple, got {triple!r}")
            check_triple(*triple)
            terms += triple
        return np.asarray(self.dictionary.encode_all(terms),
                          dtype=np.int64).reshape(-1, 3).T

    def remove(self, pattern: TriplePattern) -> int:
        """Remove all triples matching ``pattern``; return how many."""
        with self._lock:
            ids = self._encode_pattern(pattern)
            if ids is None:
                return 0
            s, p, o = self.match_arrays(ids)
            if not len(s):
                return 0
            rows = list(zip(s.tolist(), p.tolist(), o.tolist()))
            # the compacted victims come first: they are marked dead
            # (the next compaction folds them away), the overlay's
            # are taken out
            stored = len(rows) - self._delta.count(ids)
            if self._shared:
                self._unshare()
            for row in rows[:stored]:
                self._tombstones.add(*row)
            for row in rows[stored:]:
                self._delta.discard(*row)
            self._size -= len(rows)
            self._record_removed(ids, rows)
            self._mutated()
            if self._tombstones.size >= TOMBSTONE_THRESHOLD:
                self._compact()
            return len(rows)

    def _record_removed(self, pattern: IdPattern,
                        rows: List[IdTriple]) -> None:
        """Take ``rows`` — every match of ``pattern``, already gone
        from both tiers — out of the statistics (must hold the lock).
        A pattern that leaves the object unbound took every triple of
        each (subject, predicate) pair it touched, so the predicate
        lost that subject with them; with the object bound it took one
        triple per pair, and the indexed count says whether another is
        left.  Objects likewise, by whether the subject is bound."""
        with_subject = {(si, pi) for si, pi, _ in rows}
        with_object = {(pi, oi) for _, pi, oi in rows}
        if pattern[2] is not None:
            with_subject = {(si, pi) for si, pi in with_subject
                            if not self._holds((si, pi, None))}
        if pattern[0] is not None:
            with_object = {(pi, oi) for pi, oi in with_object
                           if not self._holds((None, pi, oi))}
        lost_subjects = Counter(pi for _, pi in with_subject)
        lost_objects = Counter(pi for pi, _ in with_object)
        for pi, triples in Counter(pi for _, pi, _ in rows).items():
            self.stats.record_remove(pi, triples, lost_subjects[pi],
                                     lost_objects[pi])

    def clear(self) -> None:
        with self._lock:
            self._install(None)
            self._size = 0
            self.stats.clear()
            self._mutated()

    # -- compaction (delta overlay -> sorted columns) ------------------------

    def _column_size(self) -> int:
        columns = self._columns
        return columns.size if columns is not None else 0

    def tier_sizes(self) -> Tuple[int, int, int]:
        """``(column rows, overlay triples, pending tombstones)`` — the
        physical layout behind the content, for gates and telemetry."""
        return self._column_size(), self._delta.size, self._tombstones.size

    def folded_columns(self) -> TripleColumns:
        """The whole content as one immutable sorted generation: the
        stored one when nothing is pending, else a fresh fold of
        columns − tombstones + overlay (the graph itself is untouched —
        :meth:`compact` is what installs the fold)."""
        base = self._columns if self._columns is not None \
            else TripleColumns.build(())
        if self._delta.size or self._tombstones.size:
            return base.merged(self._delta.arrays(),
                               self._tombstones.arrays())
        return base

    def _holds(self, pattern: IdPattern) -> bool:
        """Does any triple matching ``pattern`` exist (both tiers)?"""
        return self._delta.count(pattern) > 0 \
            or self._stored_count(pattern) > 0

    def contains_id(self, si: int, pi: int, oi: int) -> bool:
        """Membership of one id triple, across both storage tiers."""
        if self._delta.has(si, pi, oi):
            return True
        columns = self._columns
        return (columns is not None
                and not self._tombstones.has(si, pi, oi)
                and columns.contains(si, pi, oi))

    def compact(self) -> "Graph":
        """Fold the delta overlay and tombstones into a fresh column
        generation now (normally this happens automatically at
        snapshot-epoch boundaries and write thresholds).  Content and
        epoch are unchanged — only the physical layout moves."""
        with self._lock:
            self._compact()
        return self

    def bulk_load_ids(self, s_ids, p_ids, o_ids) -> "Graph":
        """Bulk-load dictionary-encoded triples straight into the
        columnar tier — the id-level entry to the fold a large
        :meth:`add_all` batch takes, and the 1M+-observation load path.

        The three parallel arrays (anything :func:`numpy.asarray`
        accepts) are deduplicated against each other and against the
        graph's content and folded into one fresh column generation
        with no per-triple dict writes.  Every id must already be
        interned in the graph's term dictionary (use
        :meth:`TermDictionary.encode`).
        """
        with self._lock:
            self._fold(np.asarray(s_ids, dtype=np.int64),
                       np.asarray(p_ids, dtype=np.int64),
                       np.asarray(o_ids, dtype=np.int64))
        return self

    def _fold(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> None:
        """Place a batch of encoded triples by rebuilding the column
        tier (must hold the lock): stored content ‖ batch, one sort,
        the first of each run of equal triples kept — no overlay
        write, no per-triple probe.  The kept rows that came from the
        batch are its new triples; with none, nothing changes."""
        held = self.match_arrays(_WILD)
        merged = concat_arrays([held, (s, p, o)])
        order, starts = sorted_runs(merged, len(merged[0]))
        kept = order[starts]
        fresh = kept[kept >= self._size]
        if not len(fresh):
            return
        self._install(TripleColumns(*(column[kept] for column in merged)))
        self._size = len(kept)
        CONCURRENCY.record_compaction()
        self._mutated()
        self._refresh_stats(np.unique(merged[1][fresh]).tolist())

    def _compact(self) -> None:
        """The fold of what the graph already holds (must hold the lock).

        Pinned snapshots keep the dict overlay they were sharing (it
        is abandoned to them, exactly like :meth:`clear`) and the old
        column generation by reference, so readers observe nothing.
        Statistics for the touched predicates are refreshed here,
        vectorized from the new columns — the delta tells us exactly
        which predicates could have moved, so untouched predicates
        keep their counters without any epoch-bump rescan.
        """
        if not (self._delta.size or self._tombstones.size):
            return
        touched = set(self._delta.pos).union(self._tombstones.pos)
        self._install(self.folded_columns())
        CONCURRENCY.record_compaction()
        self._refresh_stats(touched)

    def _install(self, columns: Optional[TripleColumns]) -> None:
        """Make ``columns`` the whole stored content, the one place a
        generation is swapped in (must hold the lock).  A published
        snapshot that still shares the overlay and the tombstones
        keeps them — the graph goes on with fresh empty ones;
        unshared, they are cleared in place."""
        if self._shared:
            self._delta = _TripleIndex()
            self._tombstones = _TripleIndex()
            self._shared = False
        else:
            self._delta.clear()
            self._tombstones.clear()
        self._columns = columns

    def _refresh_stats(self, touched) -> None:
        """Re-derive exact per-predicate counters for ``touched``
        predicates from the new column generation — one vectorized pass
        per predicate that actually changed, instead of a whole-graph
        rescan."""
        stats = self.stats
        for pi in touched:
            cardinality, subjects, objects = \
                self._columns.predicate_counts(pi)
            if cardinality:
                stats.cardinality[pi] = cardinality
                stats.subjects[pi] = subjects
                stats.objects[pi] = objects
            else:
                stats.cardinality.pop(pi, None)
                stats.subjects.pop(pi, None)
                stats.objects.pop(pi, None)

    # -- snapshots -----------------------------------------------------------

    def _snapshot_current(self, snap: "GraphSnapshot") -> bool:
        return snap.epoch == self.epoch

    def _publish_snapshot(self) -> "GraphSnapshot":
        """Build and publish a fresh snapshot (must hold the lock).

        Publication is the snapshot-epoch boundary of the columnar
        lifecycle: a delta overlay past the publish threshold (or any
        tombstones) is folded into the sorted columns first, so the
        published snapshot — and every query pinned to it — reads
        arrays, not dicts.
        """
        if (self._tombstones.size
                or self._delta.size >= max(COMPACT_PUBLISH_THRESHOLD,
                                           self._column_size() >> 6)):
            self._compact()
        snap = GraphSnapshot(self)
        self._snapshot = snap
        self._shared = True
        CONCURRENCY.record_snapshot_build()
        return snap

    def snapshot(self) -> "GraphSnapshot":
        """Pin an immutable view of this graph.

        **Readers never block on writers**: when the published snapshot
        is current (epoch unchanged) it is returned from a lock-free
        fast path; when it is stale, the pin *tries* the write lock and
        republishes — but if a writer is mid-batch, the previous
        published snapshot is served instead (consistent, merely as of
        the last completed batch).  Only the very first pin of a graph
        must wait for a quiescent instant
        (:func:`_pin_published_snapshot` has the branch-by-branch
        walkthrough).

        Pinning is cheap by construction: the snapshot *shares* the
        live index dicts and marks them copy-on-write, so publishing
        copies only the small per-predicate counters.  While the graph
        does not change, every reader gets the same object (and
        therefore the same plan-cache identity).
        """
        return _pin_published_snapshot(self)

    # -- reads ---------------------------------------------------------------

    def match_arrays(self, pattern: KeyedPattern = _WILD
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matching triples as positional ``(S, P, O)`` numpy
        arrays, whatever the graph's physical state: the columns'
        matches first, in index order, then the overlay's (key by key
        for array cells).  A triple lives in exactly one tier, so
        nothing repeats.

        Column ranges are zero-copy views (pending tombstones are
        masked out of them); delta-overlay matches are materialized
        and appended (the overlay is bounded by the compaction
        thresholds, so this stays small).
        """
        parts = []
        if self._columns is not None:
            dead = self._tombstones.arrays(pattern) \
                if self._tombstones.size else None
            parts.append(self._columns.arrays(pattern, dead))
        if self._delta.size:
            delta = self._delta.arrays(pattern)
            if len(delta[0]):
                parts.append(delta)
        return concat_arrays(parts, pattern)

    def count_ids(self, pattern: IdPattern) -> int:
        """Exact match count for an id pattern, without iterating.

        Columns answer by staged binary search (O(log n) for every
        shape), the delta overlay from its index sizes; pending
        tombstones that match the pattern are subtracted.
        """
        return self._delta.count(pattern) + self._stored_count(pattern)

    def _stored_count(self, pattern: IdPattern) -> int:
        """Live matches in the column generation: the range width less
        the pending tombstones inside it (the one subtraction site)."""
        if self._columns is None:
            return 0
        stored = self._columns.count(pattern)
        if stored and self._tombstones.size:
            stored -= self._tombstones.count(pattern)
        return stored

    def statistics(self) -> StatisticsView:
        """The planner's statistics view over this graph."""
        return StatisticsView([self])

    def distinct_subject_count(self) -> int:
        """Distinct subjects across both tiers (an upper bound while
        tombstones are pending — compaction restores exactness)."""
        columns = self._columns
        if columns is None:
            return len(self._delta.spo)
        return columns.n_subjects + sum(
            1 for s in self._delta.spo if not columns.has_subject(s))

    def distinct_predicate_count(self) -> int:
        """Distinct predicates across both tiers (upper bound, as above)."""
        columns = self._columns
        if columns is None:
            return len(self._delta.pos)
        return columns.n_predicates + sum(
            1 for p in self._delta.pos if not columns.has_predicate(p))

    def distinct_object_count(self) -> int:
        """Distinct objects across both tiers (upper bound, as above)."""
        columns = self._columns
        if columns is None:
            return len(self._delta.osp)
        return columns.n_objects + sum(
            1 for o in self._delta.osp if not columns.has_object(o))

    # -- convenience ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iadd__(self, other: Iterable[Triple]) -> "Graph":
        return self.add_all(other)

    def __eq__(self, other: object) -> bool:
        """Set equality on ground triples (blank-node labels compared as-is)."""
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(triple in other for triple in self)

    def __hash__(self) -> int:  # identity hashing: graphs are mutable
        return id(self)

    def copy(self) -> "Graph":
        """A mutable clone sharing this graph's term dictionary."""
        with self._lock:
            clone = Graph(self.identifier, self.namespace_manager.copy(),
                          dictionary=self.dictionary)
            clone._delta = self._delta.clone()
            #: the column generation is immutable — share it outright
            clone._columns = self._columns
            clone._tombstones = self._tombstones.clone()
            clone._size = self._size
            clone.stats.cardinality = dict(self.stats.cardinality)
            clone.stats.subjects = dict(self.stats.subjects)
            clone.stats.objects = dict(self.stats.objects)
            return clone

    def bind(self, prefix: str, namespace) -> None:
        self.namespace_manager.bind(prefix, namespace)

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "default"
        return f"<Graph {name} ({self._size} triples)>"

    # -- serialization entry point (implemented in sibling modules) ----------

    def serialize(self, format: str = "turtle") -> str:
        """Serialize to ``turtle`` or ``ntriples`` text."""
        if format in ("turtle", "ttl"):
            from repro.rdf.turtle import serialize_turtle
            return serialize_turtle(self)
        if format in ("ntriples", "nt"):
            from repro.rdf.ntriples import serialize_ntriples
            return serialize_ntriples(self)
        raise TermError(f"unknown serialization format: {format!r}")


class GraphSnapshot(Graph):
    """An immutable view of a :class:`Graph` at one mutation epoch.

    Built (under the write lock) by :meth:`Graph.snapshot`: it adopts
    the live id-keyed indexes by reference — the graph marks them
    copy-on-write, so the first later mutation leaves this snapshot the
    sole owner of the frozen structures — and copies the small
    per-predicate statistics counters so the planner's estimates are
    epoch-consistent too.  The shared term dictionary keeps growing
    underneath (it is append-only), which is safe: ids interned after
    the snapshot cannot appear in its frozen indexes.

    The snapshot inherits every read path from :class:`Graph`
    (``match_arrays`` / ``triples`` / ``count`` / ``statistics``);
    mutation entry points raise :class:`~repro.rdf.errors.TermError`.
    """

    def __init__(self, graph: Graph) -> None:  # called under graph._lock
        self.identifier = graph.identifier
        self.namespace_manager = graph.namespace_manager
        self.dictionary = graph.dictionary
        self._size = graph._size
        # columns are immutable — pinning the bulk tier is free; the
        # delta overlay and the tombstones are COW-protected
        self._columns = graph._columns
        self._delta = graph._delta
        self._tombstones = graph._tombstones
        stats = GraphStats()
        stats.cardinality = dict(graph.stats.cardinality)
        stats.subjects = dict(graph.stats.subjects)
        stats.objects = dict(graph.stats.objects)
        self.stats = stats
        self.epoch = graph.epoch
        #: ids below this were interned when the snapshot was taken
        self.dictionary_mark = len(graph.dictionary)
        self._lock = graph._lock
        self._shared = True
        self._snapshot = None
        self._owner = None

    def snapshot(self) -> "GraphSnapshot":
        """A snapshot is already immutable: pinning it is the identity."""
        return self

    def copy(self) -> Graph:
        """A mutable clone of the frozen state (same term dictionary)."""
        return Graph.copy(self)

    # -- writes are rejected -------------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise TermError(
            "graph snapshot is read-only: it pins one mutation epoch; "
            "mutate the live Graph instead (or .copy() the snapshot)")

    add = _read_only
    add_all = _read_only
    bulk_load_ids = _read_only
    remove = _read_only
    compact = _read_only
    clear = _read_only
    bind = _read_only
    __iadd__ = _read_only

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "default"
        return (f"<GraphSnapshot {name} @epoch {self.epoch} "
                f"({self._size} triples)>")


class UnionView(_GraphReadMixin):
    """A **read-only** merged view of several graphs of one dataset —
    the only place union semantics live: member order, duplicate
    suppression, exact counts, summed statistics.

    ``graphs`` fixes the members (a ``FROM`` merge); without it the
    view ranges over the dataset's default graph plus every named
    graph, read at call time.  ``dataset`` may be a live
    :class:`Dataset` or a pinned :class:`DatasetSnapshot`.  Building
    the view is O(1); callers that need a mutable merge call
    :meth:`copy`.

    **The dedup rule.**  Members are read in order and the first
    occurrence of a triple wins.  A read deduplicates when two or more
    members matched its pattern, decided from what matched, so there
    is nothing to track or configure.

    **The routing rule.**  A read whose predicate is a constant id asks
    only the members whose exact per-predicate counter holds it
    (:meth:`routed`); a skipped member matched nothing, so neither the
    answer nor the dedup decision changes.
    """

    def __init__(self, dataset: Union["Dataset", "DatasetSnapshot"],
                 graphs: Optional[List[Graph]] = None) -> None:
        self._dataset = dataset
        self._members = graphs
        self.identifier: Optional[IRI] = None

    @property
    def namespace_manager(self) -> NamespaceManager:
        return self._dataset.namespace_manager

    @property
    def dictionary(self) -> TermDictionary:
        return self._dataset.dictionary

    def members(self) -> List[Graph]:
        """The member graphs, in read order."""
        if self._members is not None:
            return self._members
        return [self._dataset.default, *self._dataset.graphs()]

    def routed(self, pattern: KeyedPattern) -> List[Graph]:
        """The members a read of ``pattern`` asks, in read order."""
        return holding(self.members(), pattern[1])

    # -- reads ---------------------------------------------------------------

    def match_arrays(self, pattern: KeyedPattern = _WILD
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matches as positional ``(S, P, O)`` arrays (key by key):
        member arrays concatenated in member order, then a stable
        first-occurrence dedup when two or more members matched."""
        parts = [part for part in (graph.match_arrays(pattern)
                                   for graph in self.routed(pattern))
                 if len(part[0])]
        s, p, o = concat_arrays(parts, pattern)
        if len(parts) < 2:
            return s, p, o
        # the sort is stable, so the first entry of a run of equal
        # triples is their first occurrence
        order, starts = sorted_runs((s, p, o), len(s))
        if starts.all():
            return s, p, o
        keep = np.zeros(len(s), dtype=bool)
        keep[order[starts]] = True
        return s[keep], p[keep], o[keep]

    def count_ids(self, pattern: IdPattern) -> int:
        """Exact number of distinct matching triples."""
        counts = [count for count in (graph.count_ids(pattern)
                                      for graph in self.routed(pattern))
                  if count]
        if len(counts) < 2:
            return sum(counts)
        return len(self.match_arrays(pattern)[0])

    def statistics(self) -> StatisticsView:
        """The planner's statistics view over all member graphs."""
        return StatisticsView(self.members())

    def __len__(self) -> int:
        return self.count_ids(_WILD)

    def __bool__(self) -> bool:
        return any(len(g) for g in self.members())

    def copy(self) -> Graph:
        """Materialize the union as a mutable :class:`Graph`."""
        merged = Graph(namespace_manager=self.namespace_manager.copy(),
                       dictionary=self._dataset.dictionary)
        merged.add_all(self)
        return merged

    def serialize(self, format: str = "turtle") -> str:
        return self.copy().serialize(format)

    def __repr__(self) -> str:
        return (f"<UnionView of {len(self.members())} graphs "
                f"({len(self)} triples)>")

    # -- writes are rejected -------------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise TermError(
            "Dataset.union() returns a read-only view; call .copy() for a "
            "mutable merged graph")

    add = _read_only
    add_all = _read_only
    remove = _read_only
    clear = _read_only
    bind = _read_only
    #: ``view += triples`` must raise the same clear error as ``add``,
    #: not fall through to a confusing TypeError.
    __iadd__ = _read_only


class Dataset:
    """A collection of named graphs plus a default graph.

    This mirrors the SPARQL dataset model: updates and queries address
    either the default graph or a named graph IRI.  The QB2OLAP endpoint
    stores the original QB data, the generated QB4OLAP schema, and level
    instances in separate named graphs, as the paper's tool does with
    Virtuoso.

    All member graphs share one :class:`TermDictionary`, so term ids are
    comparable across graphs — the evaluator's columnar joins and the
    O(1) :meth:`union` view depend on this.
    """

    def __init__(self) -> None:
        self.namespace_manager = NamespaceManager()
        self.dictionary = TermDictionary()
        #: the exclusive write lock shared by every member graph —
        #: one lock per dataset makes multi-graph snapshots consistent
        #: (see :meth:`snapshot`) and keeps the lock order flat.
        self._lock = CountedRLock()
        self._named: Dict[IRI, Graph] = {}
        #: the latest *published* snapshot; readers take it lock-free.
        self._snapshot: Optional["DatasetSnapshot"] = None
        #: True when any member graph mutated (or membership changed)
        #: since the last publication — the pin path's refresh signal.
        self._dirty = True
        self.default = Graph(namespace_manager=self.namespace_manager,
                             dictionary=self.dictionary, lock=self._lock)

    @property
    def default(self) -> Graph:
        return self._default

    @default.setter
    def default(self, graph: Graph) -> None:
        """Install ``graph`` as the default graph, adopting its term
        dictionary (several modules wrap a standalone graph in a fresh
        dataset to run SPARQL updates against it in place)."""
        if self._named:
            raise TermError(
                "cannot replace the default graph of a dataset that "
                "already has named graphs (their term ids would no "
                "longer be comparable)")
        self._default = graph
        self.dictionary = graph.dictionary
        #: adopt the graph under the dataset's lock so dataset-level
        #: snapshots and this graph's mutations exclude each other
        #: (setup-time operation: no mutation may be in flight)
        graph._lock = self._lock
        graph._owner = self
        self._dirty = True

    def locked(self) -> CountedRLock:
        """The dataset-wide write lock, as a context manager.

        Holding it turns multi-call mutations (several graphs, or
        interleaved remove+add) into one atomic unit w.r.t. snapshot
        pinning, exactly like :meth:`Graph.locked`.
        """
        return self._lock

    def graph(self, identifier: Optional[Union[IRI, str]] = None) -> Graph:
        """Fetch (creating on demand) the graph with ``identifier``."""
        if identifier is None:
            return self.default
        iri = identifier if isinstance(identifier, IRI) else IRI(identifier)
        graph = self._named.get(iri)
        if graph is None:
            with self._lock:
                graph = self._named.get(iri)
                if graph is None:
                    graph = Graph(iri, self.namespace_manager,
                                  dictionary=self.dictionary,
                                  lock=self._lock)
                    graph._owner = self
                    self._named[iri] = graph
                    self._dirty = True
        return graph

    def drop(self, identifier: Union[IRI, str]) -> bool:
        iri = identifier if isinstance(identifier, IRI) else IRI(identifier)
        with self._lock:
            dropped = self._named.pop(iri, None) is not None
            if dropped:
                self._dirty = True
            return dropped

    def graphs(self) -> Iterator[Graph]:
        """All named graphs (the default graph is not included)."""
        return iter(self._named.values())

    def union(self) -> UnionView:
        """A read-only merged view of the default plus all named graphs.

        The view is O(1) to build and always reflects the current
        dataset state; call ``.copy()`` on it for a mutable merge.
        """
        return UnionView(self)

    def _epoch_vector(self) -> tuple:
        """Identity + epoch of every member graph (snapshot currency)."""
        return ((id(self._default), self._default.epoch),) + tuple(
            (id(graph), graph.epoch) for graph in self._named.values())

    def _snapshot_current(self, snap: "DatasetSnapshot") -> bool:
        return not self._dirty

    def _publish_snapshot(self) -> "DatasetSnapshot":
        """Build and publish a fresh snapshot (must hold the lock)."""
        snap = DatasetSnapshot(self)
        self._snapshot = snap
        self._dirty = False
        return snap

    def snapshot(self) -> "DatasetSnapshot":
        """Pin a consistent, immutable view of every member graph.

        Publication happens under the shared write lock, so the member
        snapshots all belong to one instant — no mutation can
        interleave between the default graph's pin and a named
        graph's.  **Pinning itself never blocks on writers**: a clean
        published snapshot is returned lock-free; a stale one triggers
        a *non-blocking* refresh attempt, and while a writer is
        mid-batch readers are served the latest published state (the
        last completed batch) instead of stalling behind the load
        (:func:`_pin_published_snapshot` has the branch-by-branch
        walkthrough).  While nothing changes, every reader shares one
        snapshot object (and its plan-cache identity).
        """
        return _pin_published_snapshot(self)

    def __len__(self) -> int:
        return len(self.default) + sum(len(g) for g in self._named.values())

    def __contains__(self, identifier: Union[IRI, str]) -> bool:
        iri = identifier if isinstance(identifier, IRI) else IRI(identifier)
        return iri in self._named


class DatasetSnapshot:
    """A consistent, immutable view of a :class:`Dataset`.

    Exposes the read surface :class:`~repro.sparql.evaluator.DatasetContext`
    consumes — ``default`` / ``graph()`` / ``graphs()`` /
    ``dictionary`` — backed by per-graph
    :class:`GraphSnapshot`\\ s pinned at one instant, so a whole query
    evaluates against exactly one epoch vector no matter what writers
    do meanwhile.

    ``epoch`` is the sum of the member graphs' epochs — the scalar the
    endpoint reports as a query's *snapshot epoch* — and ``epochs`` is
    the full identity+epoch vector used for cache currency.
    """

    __slots__ = ("namespace_manager", "dictionary", "dictionary_mark",
                 "epochs", "epoch", "_default",
                 "_named", "_empty")

    def __init__(self, dataset: Dataset) -> None:  # called under the lock
        self.namespace_manager = dataset.namespace_manager
        self.dictionary = dataset.dictionary
        self.dictionary_mark = len(dataset.dictionary)
        self._default = dataset._default.snapshot()
        self._named: Dict[IRI, GraphSnapshot] = {
            iri: graph.snapshot()
            for iri, graph in dataset._named.items()}
        self.epochs = dataset._epoch_vector()
        self.epoch = sum(epoch for _, epoch in self.epochs)
        #: lazily built, shared empty view for unknown identifiers
        self._empty: Optional[GraphSnapshot] = None

    @property
    def default(self) -> GraphSnapshot:
        return self._default

    def graph(self, identifier: Optional[Union[IRI, str]] = None
              ) -> GraphSnapshot:
        """The pinned graph with ``identifier``.

        Unlike :meth:`Dataset.graph` this never creates anything: an
        identifier the dataset did not hold at pin time yields a fresh
        empty read-only graph (queries against it match nothing).
        """
        if identifier is None:
            return self._default
        iri = identifier if isinstance(identifier, IRI) else IRI(identifier)
        graph = self._named.get(iri)
        if graph is None:
            # one shared empty view serves every unknown identifier
            # (lazily built; a benign last-writer-wins race when two
            # readers build it at once) — no per-call allocation, no
            # phantom snapshot-build telemetry per lookup
            empty = self._empty
            if empty is None:
                empty = Graph(namespace_manager=self.namespace_manager,
                              dictionary=self.dictionary).snapshot()
                self._empty = empty
            return empty
        return graph

    def graphs(self) -> Iterator[GraphSnapshot]:
        """All pinned named graphs (the default graph is not included)."""
        return iter(self._named.values())

    def snapshot(self) -> "DatasetSnapshot":
        """A snapshot is already immutable: pinning it is the identity."""
        return self

    def __len__(self) -> int:
        return len(self._default) + sum(
            len(g) for g in self._named.values())

    def __contains__(self, identifier: Union[IRI, str]) -> bool:
        iri = identifier if isinstance(identifier, IRI) else IRI(identifier)
        return iri in self._named

    def __repr__(self) -> str:
        return (f"<DatasetSnapshot @epoch {self.epoch} "
                f"({1 + len(self._named)} graphs, {len(self)} triples)>")
