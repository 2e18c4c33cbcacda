"""Array-backed columnar triple storage (dictionary-encoded columns).

This module holds the *compacted* half of the engine's storage layer:
:class:`TripleColumns` keeps one immutable copy of a graph's triples as
dictionary-encoded (s, p, o) integer arrays materialized in the four
access orders the SPARQL evaluator needs — SPO, POS, OSP and PSO —
each sorted lexicographically by its key prefix.  Every triple-pattern
shape is then a **prefix range** of exactly one order, answered with
staged binary searches (:func:`numpy.searchsorted`) instead of
pointer-chasing the dict-of-dict-of-set indexes:

======================  =======  ==============================
pattern                 order    bound prefix
======================  =======  ==============================
``(s, p, o)``           SPO      ``s, p, o`` (membership)
``(s, p, ?)``           SPO      ``s, p``
``(s, ?, ?)``           SPO      ``s``
``(s, ?, o)``           OSP      ``o, s``
``(?, p, o)``           POS      ``p, o``
``(?, p, ?)``           PSO      ``p``
``(?, ?, o)``           OSP      ``o``
``(?, ?, ?)``           SPO      — (everything)
======================  =======  ==============================

Counts are ``hi - lo`` of the located range — O(log n) for any shape —
and scans materialize the range as column slices (numpy views, zero
copy), which is what the evaluator's vectorized batch pipeline and the
merge-join grouping consume.  A predicate's whole range comes from PSO,
so it is in subject order (then object): two arms of one observation
star read the same subjects in the same order, which the join step
turns into an append.  PSO's P column is POS's, element for element,
so the two orders share that array and PSO costs two columns, not
three.

The columns are **immutable by construction**: mutation lives in the
owning :class:`~repro.rdf.graph.Graph`'s two small hash-indexed tiers —
the delta overlay holding uncompacted writes and the tombstones naming
removed compacted triples.  :meth:`TripleColumns.merged` merges delta
and tombstones into a fresh sorted generation at compaction time, at
the cost of one copy plus a search per changed row; pinned snapshots
keep the old generation by reference, so a compaction never disturbs a
reader — this is what makes snapshot pinning of the bulk data
literally free.

Ids are stored in the smallest integer dtype that fits (int32 for any
realistic dictionary, int64 beyond), and probe values outside the
stored id range — including per-query overlay ids, which live at
``1 << 40`` and can never be stored — short-circuit to an empty range
before touching numpy.

>>> cols = TripleColumns.build([(0, 1, 2), (0, 1, 3), (4, 1, 2)])
>>> cols.count((0, 1, None)), cols.count((None, 1, 2))
(2, 2)
>>> [column.tolist() for column in cols.arrays((None, None, 2))]
[[0, 4], [1, 1], [2, 2]]
>>> [column.tolist() for column in cols.arrays((None, 1, None))]
[[0, 0, 4], [1, 1, 1], [2, 3, 2]]
>>> cols.contains(4, 1, 2), cols.contains(4, 1, 3)
(True, False)
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.grouping import sorted_runs

IdTriple = Tuple[int, int, int]
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]
#: ``None``, an id, or an **array cell**: distinct keys, ascending (zipped
#: with other array cells), matching what each key does, key by key.
Cell = Union[None, int, np.ndarray]
KeyedPattern = Tuple[Cell, Cell, Cell]

#: The per-order positional column sets — the whole sorted payload of
#: one generation, keyed ``"spo"`` / ``"pos"`` / ``"osp"`` / ``"pso"``
#: (PSO's P column is POS's array).
OrderArrays = Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Triples as three parallel ``(S, P, O)`` id arrays.
IdArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

__all__ = ["IdArrays", "KeyedPattern", "OrderArrays", "TripleColumns",
           "concat_arrays", "key_patterns"]

#: positional column index of each order's sort-key sequence
_ORDER_KEYS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1),
               "pso": (1, 0, 2)}
#: ``(order, source)``: each order after SPO is a stable sort of an
#: earlier one by its own lead column — the source sorts the rows of
#: one lead by the rest of the order's key (OSP from SPO by O, POS from
#: OSP by P, PSO from SPO by P), so only SPO takes a lexsort
_DERIVED = (("osp", "spo"), ("pos", "osp"), ("pso", "spo"))


def _dtype_for(max_id: int) -> type:
    """Smallest signed integer dtype able to hold ``max_id``."""
    return np.int32 if max_id < np.iinfo(np.int32).max else np.int64


def key_patterns(pattern: Tuple[Cell, ...]) -> List[Tuple[Cell, ...]]:
    """The one-key patterns of ``pattern``'s array cells, in order."""
    if not any(isinstance(cell, np.ndarray) for cell in pattern):
        return [pattern]
    return list(zip(*(cell.tolist() if isinstance(cell, np.ndarray)
                      else repeat(cell) for cell in pattern)))


def concat_arrays(parts: List[IdArrays],
                  pattern: KeyedPattern = (None, None, None)) -> IdArrays:
    """Concatenate ``(S, P, O)`` array triples in order (tiers of one
    graph, members of a union; read with array cells, key by key)."""
    if not parts:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty, empty
    if len(parts) == 1:
        return parts[0]
    s, p, o = (np.concatenate(column) for column in zip(*parts))
    keys = [column for column, cell in zip((s, p, o), pattern)
            if isinstance(cell, np.ndarray)]
    if keys:
        order = sorted_runs(keys, len(s))[0]
        s, p, o = s[order], p[order], o[order]
    return s, p, o


class TripleColumns:
    """One immutable, sorted, dictionary-encoded triple generation.

    ``size`` is the triple count; ``n_subjects`` / ``n_predicates`` /
    ``n_objects`` are exact distinct counts over the stored triples
    (computed once at build time from the sorted key columns, so the
    statistics layer reads them in O(1)).
    """

    __slots__ = ("size", "_ceiling", "_orders",
                 "n_subjects", "n_predicates", "n_objects")

    def __init__(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> None:
        # ``s, p, o`` may arrive in any row order; each access order
        # gets its own gathered positional copy so range scans are
        # contiguous reads with no indirection.
        self.size = int(len(s))
        self._orders: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]
        if self.size == 0:
            empty = np.empty(0, dtype=np.int32)
            self._orders = {name: (empty, empty, empty)
                            for name in _ORDER_KEYS}
            self._ceiling = -1
            self.n_subjects = self.n_predicates = self.n_objects = 0
            return
        high = int(max(s.max(), p.max(), o.max()))
        dtype = _dtype_for(high)
        s = np.ascontiguousarray(s, dtype=dtype)
        p = np.ascontiguousarray(p, dtype=dtype)
        o = np.ascontiguousarray(o, dtype=dtype)
        self._ceiling = high
        # an index order, not a grouping; np.lexsort sorts by the *last*
        # key first
        # repro: allow[single-grouping-kernel]
        perm = np.lexsort((o, p, s))
        self._orders = {"spo": (s[perm], p[perm], o[perm])}
        del perm  # one permutation alive at a time: the load's peak
        for name, source in _DERIVED:
            # stable by the lead key alone: rows of one lead keep the
            # source order, which is already the rest of this key
            held = self._orders[source]
            perm = np.argsort(held[_ORDER_KEYS[name][0]], kind="stable")
            self._orders[name] = (held[0][perm], held[1][perm], held[2][perm])
            del perm
        self._share_predicates(self._orders)
        spo_s, spo_p, _ = self._orders["spo"]
        pos_p = self._orders["pos"][1]
        osp_o = self._orders["osp"][2]
        self.n_subjects = _run_count(spo_s)
        self.n_predicates = _run_count(pos_p)
        self.n_objects = _run_count(osp_o)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, triples: Iterable[IdTriple]) -> "TripleColumns":
        """Columns from an iterable of ``(s, p, o)`` id triples."""
        rows = list(triples)
        if not rows:
            empty = np.empty(0, dtype=np.int32)
            return cls(empty, empty, empty)
        data = np.asarray(rows, dtype=np.int64)
        return cls(data[:, 0], data[:, 1], data[:, 2])

    @classmethod
    def from_sorted_orders(cls, orders: OrderArrays, size: int,
                           ceiling: int,
                           distinct: Tuple[int, int, int]
                           ) -> "TripleColumns":
        """Rebuild columns around *already sorted* order arrays.

        :meth:`merged` builds its result this way: the arrays it made
        are sorted by construction, so re-running the :meth:`__init__`
        lexsort would only waste the work.  The caller asserts the
        arrays are sorted (as :meth:`sorted_generation` hands them out)
        — nothing is re-validated.
        """
        columns = cls.__new__(cls)
        columns.size = int(size)
        columns._orders = dict(orders)
        columns._ceiling = int(ceiling)
        columns.n_subjects, columns.n_predicates, columns.n_objects = (
            int(distinct[0]), int(distinct[1]), int(distinct[2]))
        return columns

    def sorted_generation(self) -> Tuple[OrderArrays, int,
                                         Tuple[int, int, int]]:
        """The whole state of this generation: the order arrays
        plus the metadata :meth:`from_sorted_orders` restores them
        with.  The arrays are the live ones (immutable by the module
        contract), not copies."""
        return (self._orders, self._ceiling,
                (self.n_subjects, self.n_predicates, self.n_objects))

    def merged(self, delta: IdArrays, dead: IdArrays) -> "TripleColumns":
        """A fresh generation: these columns minus the ``dead`` rows
        plus the ``delta`` rows (both ``(S, P, O)`` id arrays; a dead
        row that is not stored is ignored).  The receiver is left
        untouched (pinned snapshots keep reading it).

        A merge of sorted runs: only the delta is sorted; per order,
        delta and dead rows are located among the stored rows by one
        vectorized binary search and the new arrays are one masked
        copy — O(n) copy + O(k log n) search for k changed rows, never
        a re-sort of the n stored ones.  The result is exactly what
        ``TripleColumns(s, p, o)`` of the same content builds.
        """
        fresh = TripleColumns(*delta)
        if not self.size:
            return fresh
        orders: OrderArrays = {}
        for name in _ORDER_KEYS:
            at, end = self._locate(name, dead)
            keep = np.ones(self.size, dtype=bool)
            keep[at[end > at]] = False
            gone = np.flatnonzero(~keep)
            # a delta row goes where the first stored row not below it
            # stands, moved left by the dead rows before that one and
            # right by the delta rows before itself
            added = fresh._orders[name]
            slot = self._locate(name, added)[0]
            slot += np.arange(fresh.size) - np.searchsorted(gone, slot)
            size = self.size - len(gone) + fresh.size
            old = np.ones(size, dtype=bool)
            old[slot] = False
            columns = []
            for position, (was, new) in enumerate(
                    zip(self._orders[name], added)):
                if name == "pso" and position == 1:
                    columns.append(orders["pos"][1])  # shared, as built
                    continue
                column = np.empty(size, dtype=np.result_type(was, new))
                column[old] = was[keep]
                column[slot] = new
                columns.append(column)
            orders[name] = (columns[0], columns[1], columns[2])
        if not size:
            return fresh
        leads = [orders[name][keys[0]]
                 for name, keys in _ORDER_KEYS.items()]
        ceiling = int(max(lead[-1] for lead in leads))
        dtype = _dtype_for(ceiling)
        if dtype != leads[0].dtype:  # the only wide ids were folded away
            orders = {name: (s.astype(dtype), p.astype(dtype),
                             o.astype(dtype))
                      for name, (s, p, o) in orders.items()}
            TripleColumns._share_predicates(orders)
        return TripleColumns.from_sorted_orders(
            orders, size, ceiling,
            (_run_count(leads[0]), _run_count(leads[1]),
             _run_count(leads[2])))

    @staticmethod
    def _share_predicates(orders: OrderArrays) -> None:
        """Point PSO's P column at POS's: both are every predicate id
        in ascending order, so the two arrays are equal."""
        s, _, o = orders["pso"]
        orders["pso"] = (s, orders["pos"][1], o)

    # -- range location ------------------------------------------------------

    def _route(self, pattern: KeyedPattern) -> Tuple[str, Tuple[Cell, ...]]:
        """The ``(order, bound key prefix)`` answering ``pattern``."""
        s, p, o = pattern
        if s is not None:
            if p is None and o is not None:
                return "osp", (o, s)
            if p is None:
                return "spo", (s,)
            if o is None:
                return "spo", (s, p)
            # any order holds a key's one row: put the scalars first
            if isinstance(s, np.ndarray) and not isinstance(p, np.ndarray):
                return "pos", (p, o, s)
            if isinstance(p, np.ndarray) and not isinstance(o, np.ndarray):
                return "osp", (o, s, p)
            return "spo", (s, p, o)
        if p is not None:
            if o is None:
                return "pso", (p,)
            return "pos", (p, o)
        if o is not None:
            return "osp", (o,)
        return "spo", ()

    def _range(self, order: str, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """``[lo, hi)`` of the rows whose key columns match ``prefix``."""
        lo, hi = 0, self.size
        if not prefix:
            return lo, hi
        cols = self._orders[order]
        for key_index, value in zip(_ORDER_KEYS[order], prefix):
            if value < 0 or value > self._ceiling:
                return 0, 0  # never stored (covers overlay ids)
            segment = cols[key_index][lo:hi]
            # a Python int would make searchsorted promote — and copy —
            # the whole segment to int64 on every probe; in range by
            # the ceiling check above, so the cast cannot overflow.  The
            # method, not ``np.searchsorted``: the function's dispatch
            # wrapper costs more than one scalar search of the segment
            value = segment.dtype.type(value)
            left = int(segment.searchsorted(value, "left"))
            right = int(segment.searchsorted(value, "right"))
            hi = lo + right
            lo = lo + left
            if lo >= hi:
                return lo, lo
        return lo, hi

    def _bounds(self, order: str, prefix: Tuple[Cell, ...]
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Per key of ``prefix``'s array cells, its ``[lo, hi)``: the scalar
        cells before them narrow a segment (:meth:`_range`), the first
        array cell searches it for all keys, later ones bisect in step."""
        stage = next(stage for stage, cell in enumerate(prefix)
                     if isinstance(cell, np.ndarray))
        lo, hi = self._range(order, prefix[:stage])
        keys, columns = _ORDER_KEYS[order], self._orders[order]
        segment = columns[keys[stage]][lo:hi]
        # cast as ``_range`` does; past the ceiling ``ceiling + 1``
        needle = np.minimum(prefix[stage], np.int64(self._ceiling + 1)
                            ).astype(segment.dtype)
        left = lo + np.searchsorted(segment, needle, "left")
        right = lo + np.searchsorted(segment, needle, "right")
        # both ends in one bisection: the first half seeks the first
        # row not below the key, the second the first row above it
        rest = [(columns[key], np.concatenate((value, value))
                 if isinstance(value, np.ndarray) else value)
                for key, value in zip(keys[stage + 1:], prefix[stage + 1:])]
        if not rest:
            return left, right
        lo, hi = np.tile(left, 2), np.tile(right, 2)
        inclusive = np.repeat([False, True], len(needle))
        last = self.size - 1
        while True:
            unsettled = lo < hi
            if not unsettled.any():
                return np.split(lo, 2)
            mid = (lo + hi) >> 1
            probe = np.minimum(mid, last)  # settled rows may sit at the end
            below = inclusive
            for column, value in reversed(rest):
                held = column[probe]
                below = (held < value) | ((held == value) & below)
            lo = np.where(unsettled & below, mid + 1, lo)
            hi = np.where(unsettled & ~below, mid, hi)

    def _locate(self, order: str, rows: IdArrays
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Per ``(S, P, O)`` row, its ``[lo, hi)`` in ``order``."""
        return self._bounds(order, tuple(rows[k] for k in _ORDER_KEYS[order]))

    # -- reads ---------------------------------------------------------------

    def count(self, pattern: IdPattern) -> int:
        """Exact match count — staged binary search, never a scan."""
        lo, hi = self._range(*self._route(pattern))
        return hi - lo

    def contains(self, s: int, p: int, o: int) -> bool:
        lo, hi = self._range("spo", (s, p, o))
        return lo < hi

    def arrays(self, pattern: KeyedPattern,
               dead: Optional[IdArrays] = None) -> IdArrays:
        """The matching rows as positional ``(S, P, O)`` column views
        (zero-copy slices of the chosen order; with array cells, every
        key's range gathered).  ``dead`` holds stored triples matching
        ``pattern`` to leave out (the owning graph's tombstones) as
        ``(S, P, O)`` id arrays, located by one vectorized search and
        masked, so the survivors keep their order."""
        order, prefix = self._route(pattern)
        columns = self._orders[order]
        if not any(isinstance(cell, np.ndarray) for cell in prefix):
            lo, hi = self._range(order, prefix)
            at = None
            s, p, o = (column[lo:hi] for column in columns)
        else:
            lo, hi = self._bounds(order, prefix)
            counts = hi - lo
            at = np.arange(int(counts.sum())) \
                + np.repeat(lo - np.cumsum(counts) + counts, counts)
            s, p, o = (column[at] for column in columns)
        if dead is not None and len(dead[0]):
            first, end = self._locate(order, dead)
            gone = first[end > first]
            if at is None:
                keep = np.ones(hi - lo, dtype=bool)
                keep[gone - lo] = False
            else:
                keep = ~np.isin(at, gone)
            s, p, o = s[keep], p[keep], o[keep]
        return s, p, o

    # -- statistics support --------------------------------------------------

    def predicate_counts(self, predicate_id: int) -> Tuple[int, int, int]:
        """``(cardinality, distinct subjects, distinct objects)`` of
        one predicate: a run count over its subjects in PSO and one over
        its objects in POS.  The shared P column puts the predicate's
        range at the same ``[lo, hi)`` in both orders, and each range
        is sorted by the column counted, so nothing is sorted here."""
        lo, hi = self._range("pos", (predicate_id,))
        return (hi - lo, _run_count(self._orders["pso"][0][lo:hi]),
                _run_count(self._orders["pos"][2][lo:hi]))

    def has_subject(self, subject_id: int) -> bool:
        return self.count((subject_id, None, None)) > 0

    def has_predicate(self, predicate_id: int) -> bool:
        return self.count((None, predicate_id, None)) > 0

    def has_object(self, object_id: int) -> bool:
        return self.count((None, None, object_id)) > 0

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        dtype = self._orders["spo"][0].dtype
        return f"<TripleColumns {self.size} triples, dtype {dtype}>"


def _run_count(sorted_array: np.ndarray) -> int:
    """Distinct values in a sorted array (count of value runs)."""
    if not len(sorted_array):
        return 0
    return int(np.count_nonzero(sorted_array[1:] != sorted_array[:-1])) + 1
