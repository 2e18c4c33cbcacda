"""Term interning: a dictionary mapping RDF terms to dense integer ids.

Production triple stores (including Virtuoso, the paper's endpoint)
never join on lexical values: terms are interned once into integer ids
and every index, join key and intermediate result is a machine word.
:class:`TermDictionary` brings the same design to the in-memory engine:

* :meth:`encode` interns a term, assigning the next dense id;
* :meth:`lookup` resolves a term *without* interning (query constants
  that were never loaded simply have no id — and therefore no matches);
* :meth:`decode` is a plain list index, so materializing results back
  into terms costs one indexing operation per cell;
* :meth:`value_ranks` orders IRIs and blank nodes by value without
  decoding them — append-only, its order is never wrong, only short.

A :class:`repro.rdf.graph.Dataset` owns one shared dictionary for all
its graphs, which makes ids comparable across named graphs — the
property the SPARQL evaluator's columnar join pipeline relies on.

The base dictionary is append-only, so terms interned for *stored*
triples live forever — that is the point.  Query evaluation, however,
also produces terms that exist only inside one query (computed BIND
values, VALUES literals, seed bindings), and interning those
permanently would grow a long-lived endpoint's dictionary without
bound.  :meth:`TermDictionary.overlay` returns a per-query
:class:`DictionaryOverlay`: terms already interned keep their base id
(so computed values that *do* equal stored terms still join), new
terms get ids from a disjoint overflow range (``OVERLAY_BASE`` up),
and the whole overlay is discarded with the evaluator when the query
finishes.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.rdf.terms import BNode, IRI, Term

__all__ = ["DictionaryOverlay", "OVERLAY_BASE", "TermDictionary"]

#: First id of the per-query overflow range.  Base dictionaries would
#: need a trillion interned terms to collide, and overlay ids can by
#: construction never appear in a graph index — a pattern constant
#: holding one simply matches nothing.
OVERLAY_BASE = 1 << 40


class TermDictionary:
    """An append-only intern table: term ↔ dense integer id.

    Reads (``lookup`` / ``decode``) are lock-free: the table only ever
    grows, a term's id never changes once assigned, and ids are
    published to ``_ids`` only *after* the term is appended to
    ``_terms`` — so any id another thread can observe already decodes.
    First-sight interning takes a small mutex (double-checked, so the
    hot path of re-encoding a known term stays a single dict probe);
    this is the dictionary half of the snapshot-epoch reader/writer
    protocol (see :mod:`repro.rdf.concurrency` for the lock order).
    A reader pinned to a :class:`~repro.rdf.graph.GraphSnapshot` may
    see terms interned *after* its snapshot — harmless, because ids
    above the snapshot's high-water mark cannot appear in its frozen
    indexes, so a pattern constant holding one simply matches nothing.
    """

    __slots__ = ("_ids", "_terms", "_lock", "_rank")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._lock = threading.Lock()
        #: ``(mark, rank, keys)``, replaced whole: a rank per id below
        #: ``mark``, ``-1`` at ``rank[mark]``; the ranked keys, sorted
        self._rank: Tuple[int, np.ndarray, np.ndarray] = (
            0, np.full(1, -1, dtype=np.int64), np.empty(0, dtype=object))

    def encode(self, term: Term) -> int:
        """The id for ``term``, interning it on first sight."""
        term_id = self._ids.get(term)
        if term_id is None:
            with self._lock:
                term_id = self._ids.get(term)
                if term_id is None:
                    term_id = len(self._terms)
                    self._terms.append(term)
                    self._ids[term] = term_id
        return term_id

    def encode_all(self, terms: Iterable[Term]) -> List[int]:
        """:meth:`encode` over a whole sequence, in order (so first
        sights get the ids one ``encode`` call per term would have
        given them): one dict probe per known term, the interning
        mutex only for the ones never seen."""
        known = self._ids.get
        ids: List[int] = []
        for term in terms:
            term_id = known(term)
            ids.append(self.encode(term) if term_id is None else term_id)
        return ids

    def lookup(self, term: Term) -> Optional[int]:
        """The id for ``term`` or ``None`` — never interns."""
        return self._ids.get(term)

    def decode(self, term_id: int) -> Term:
        """The term interned under ``term_id``."""
        return self._terms[term_id]

    def decode_row(self, ids: Iterable[Optional[int]]
                   ) -> Tuple[Optional[Term], ...]:
        """Decode a row of optional ids (``None`` stays ``None``)."""
        terms = self._terms
        return tuple(
            None if term_id is None else terms[term_id] for term_id in ids)

    def value_ranks(self, ids: np.ndarray) -> np.ndarray:
        """Each id's place in the value order of the dictionary's IRIs
        and blank nodes — ``IRI.value`` / ``str(BNode)``, equal keys in
        id order — and ``-1`` for a literal or an id not interned (an
        overlay id among them).  Built on first request; a later one
        merges the new terms' sorted keys in.  Lock-free readers take
        the published order whole."""
        if self._rank[0] < len(self._terms):
            with self._lock:  # interning waits, and a mark never goes back
                if self._rank[0] < len(self._terms):
                    self._extend_rank()
        # ids at or past the mark clip to its -1
        return self._rank[1].take(ids, mode="clip")

    def _extend_rank(self) -> None:
        """Merge the terms interned since the mark into the order and
        publish it (caller holds ``_lock``)."""
        mark, rank, keys = self._rank
        terms, end = self._terms, len(self._terms)
        fresh_ids = [at for at in range(mark, end)
                     if isinstance(terms[at], (IRI, BNode))]
        fresh = [terms[at].value if isinstance(terms[at], IRI)
                 else str(terms[at]) for at in fresh_ids]
        ordered = np.array(sorted(range(len(fresh)), key=fresh.__getitem__),
                           dtype=np.int64)
        added = np.array(fresh, dtype=object)[ordered]
        # a new key goes after the old keys equal to it: ids rise
        places = np.searchsorted(keys, added, side="right")
        old = rank[:mark]
        rank = np.full(end + 1, -1, dtype=np.int64)
        rank[:mark] = old + np.searchsorted(places, old, side="right")
        rank[np.asarray(fresh_ids, dtype=np.int64)[ordered]] = \
            places + np.arange(len(places))
        self._rank = (end, rank, np.insert(keys, places, added))

    def overlay(self) -> "DictionaryOverlay":
        """A discardable per-query view for computed-term interning."""
        return DictionaryOverlay(self)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"<TermDictionary {len(self._terms)} terms>"


class DictionaryOverlay:
    """A per-query overflow range on top of a base dictionary.

    ``encode`` never interns into the base: terms the base already
    knows resolve to their permanent id, anything else gets the next
    id in the overlay's private ``OVERLAY_BASE + n`` range.  Dropping
    the overlay (it lives and dies with one
    :class:`~repro.sparql.evaluator.PatternEvaluator`) reclaims every
    computed term, keeping a long-lived endpoint's dictionary flat no
    matter how many distinct BIND/VALUES literals its queries compute.
    """

    __slots__ = ("base", "_ids", "_terms", "_base_ids", "_base_terms")

    def __init__(self, base: TermDictionary) -> None:
        self.base = base
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        # direct references to the base tables: decode/lookup are on the
        # per-row hot path, so they must not pay a delegation call
        self._base_ids = base._ids
        self._base_terms = base._terms

    def encode(self, term: Term) -> int:
        term_id = self._base_ids.get(term)
        if term_id is not None:
            return term_id
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = OVERLAY_BASE + len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    def lookup(self, term: Term) -> Optional[int]:
        term_id = self._base_ids.get(term)
        if term_id is not None:
            return term_id
        return self._ids.get(term)

    def decode(self, term_id: int) -> Term:
        if term_id < OVERLAY_BASE:
            return self._base_terms[term_id]
        return self._terms[term_id - OVERLAY_BASE]

    def decode_row(self, ids: Iterable[Optional[int]]
                   ) -> Tuple[Optional[Term], ...]:
        decode = self.decode
        return tuple(
            None if term_id is None else decode(term_id) for term_id in ids)

    def __len__(self) -> int:
        return len(self.base) + len(self._terms)

    def __repr__(self) -> str:
        return (f"<DictionaryOverlay {len(self._terms)} overlay terms "
                f"over {len(self.base)} base terms>")
