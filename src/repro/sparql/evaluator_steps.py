"""BGP join steps of the SPARQL evaluator.

The join pipeline for each BGP is a cached :class:`PhysicalPlan` from
the cost-based planner (:mod:`repro.sparql.optimizer`): the walker
(:mod:`repro.sparql.evaluator_walker`) executes the plan's steps in
order through the methods here, re-validating each step's
hash-vs-probe choice against the *actual* table size (estimates can
still be wrong, so mis-estimates must degrade safely), and — when a
trace list is installed — records per-step actual cardinalities for
``EXPLAIN ... analyze``.  Plans are cached per BGP as written, so
every constant was costed from its own exact count — the evaluator
itself never needs to reason about skew, and each executed step's
:class:`~repro.sparql.optimizer.PlanStep` carries the estimates that
the trace threads to EXPLAIN.

**The kernel.**  A :class:`~repro.sparql.bindings.BindingTable` holds
one ``int64`` id column per variable, and every step — triple pattern,
property path, the cross product of a pattern that shares no variable
— is :func:`join_table`:

1. take the pattern's matches as position arrays (``(S, P, O)``), from
   one scan of its whole index range or from one read of all its
   distinct join keys at once (array cells), key by key;
2. mask out matches that disagree with a variable the pattern repeats;
3. index them by join key (:func:`grouped`).  Interned ids are array
   offsets: while the keys span at most :data:`DIRECTORY_FILL` slots
   per entry and row, the index is a *key directory* —
   ``slots[key - low + 1]`` = where the key's matches start, one
   scatter; reading it back proves the keys distinct (every
   observation star, every single-parent hop) and then nothing is
   sorted, repeated keys are sorted stably first.  Sparse keys (a few
   rows' ids spread over the dictionary, base ids mixed with overlay
   ones) are sorted for a binary search;
4. look every row's key up (:func:`located`): one clipped gather
   through the directory or one ``searchsorted`` for the whole table,
   then a gather of the run's length.  A composite key is first
   reduced to one column of dense ranks, which always take the
   directory;
5. gather: a plain take when no row has two matches, ``np.repeat``
   plus run offsets otherwise.

Output order is **row order, and within a row the matches' index
order** — what the row-at-a-time loop this replaced produced, and what
a ``LIMIT`` without ORDER BY and REDUCED's adjacent dedup observe.  Rows
with an unbound (``-1``) join cell are not a second algorithm: rows are
partitioned by which join cells they leave unbound, each partition runs
the same five steps with those positions capturing the match's value
instead of constraining it, and a stable sort on the source row index
restores row order.  ``tests/sparql/reference_join.py`` keeps the old
loop as the oracle.

Two tables pair the same way (:func:`paired`): each pair of their
unbound-cell partitions is steps 3–5 on the cells bound on both.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, \
    Sequence, Tuple

import numpy as np

from repro.grouping import DIRECTORY_FILL, distinct, group
from repro.rdf.columnar import Cell, key_patterns
from repro.sparql.algebra import PathPatternNode, TriplePatternNode, Var
from repro.sparql.bindings import BindingTable, id_column
from repro.sparql.evaluator_source import (
    PROBE_COUNTER,
    GraphSource,
    IdPattern,
)
from repro.sparql.optimizer import HASH_MIN_ROWS, HASH_SCAN_FACTOR
from repro.sparql.paths import evaluate_path

#: One array per pattern position — ``(S, P, O)`` of a triple pattern's
#: matches, ``(start, end)`` of a path's — entry ``i`` of each being
#: match ``i``.
Matches = Tuple[np.ndarray, ...]

#: A pattern position spec: ``("c", id)`` a constant, ``("v", slot)`` a
#: variable the table has a column for, ``("n", None)`` a new variable,
#: ``("d", first)`` a new variable repeated from position ``first``.
Spec = List[Tuple[str, Optional[int]]]


class Build(NamedTuple):
    """The build side of one join step, indexed by join key — built by
    :func:`grouped`, read by :func:`located`.  Without a single key
    column (no key at all: every row meets every match; a composite
    one, which :func:`_ranked` reduces to one column together with the
    probe side) only ``matches`` is set."""

    #: the matches that passed the repeated-variable mask
    matches: Matches
    #: the stable permutation that sorts the matches by key; ``None``:
    #: as they stand (the keys are distinct, or there is no single key)
    order: Optional[np.ndarray] = None
    #: per position of ``order``, at the first entry of a key's run: the
    #: run's length; one more position than matches, holding 0 — where
    #: a key the build lacks is sent
    spans: Optional[np.ndarray] = None
    #: dense keys — ``slots[key - low + 1]`` is the position the key's
    #: run starts at; an empty slot at either end takes the clipped
    #: keys outside ``low .. low + len(slots) - 3``
    slots: Optional[np.ndarray] = None
    low: int = 0
    #: sparse keys — the sorted keys, as ``int64`` (``searchsorted``
    #: would otherwise promote, and copy, an ``int32`` storage column
    #: on every call), then ``-1`` for the probe that lands past them
    keys: Optional[np.ndarray] = None


def _base_pattern(spec: Iterable[Tuple[str, Optional[int]]]) -> IdPattern:
    """The concrete ``(s, p, o)`` id pattern of a compiled position
    spec: constants keep their ids, every other position is a
    wildcard."""
    s, p, o = (value if kind == "c" else None for kind, value in spec)
    return (s, p, o)


def _positions(spec: Spec, kind: str) -> List[Tuple[int, Optional[int]]]:
    """``(position, value)`` of the ``spec`` entries of one kind."""
    return [(position, value) for position, (entry, value)
            in enumerate(spec) if entry == kind]


def _agreeing(matches: Matches, checks: Sequence[Tuple[int, int]]
              ) -> Matches:
    """``matches`` without those that hold different ids at a pair of
    positions that must agree (one variable, twice), as one mask."""
    mask = None
    for position, first in checks:
        equal = matches[position] == matches[first]
        mask = equal if mask is None else mask & equal
    if mask is None:
        return matches
    return tuple(column[mask] for column in matches)


def grouped(matches: Matches, key_positions: Sequence[int],
            rows: int) -> Build:
    """``matches`` indexed by their join key, for ``rows`` probe rows
    (which only bound the directory: any build serves any probe)."""
    if len(key_positions) != 1:
        return Build(matches)
    keys = matches[key_positions[0]]
    count = len(keys)
    low = int(keys.min()) if count else 0
    span = int(keys.max()) - low + 1 if count else 0
    slots = None
    if span <= DIRECTORY_FILL * (count + rows):
        # offsets from one below ``low``: slot 0 stays empty
        keys = np.subtract(keys, low - 1, dtype=np.int64)
        slots = np.full(span + 2, count)
        at = np.arange(count)
        slots[keys] = at
        if (slots[keys] == at).all():
            # every entry read its own position back: the keys are
            # distinct, and nothing needs sorting
            spans = np.ones(count + 1, dtype=np.int64)
            spans[count] = 0
            return Build(matches, None, spans, slots, low)
    else:
        keys = keys.astype(np.int64)
    # repeated keys (or sparse ones): sorted, stably, and indexed by
    # the first entry of each run
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    spans = np.zeros(count + 1, dtype=np.int64)
    spans[heads] = np.diff(np.append(heads, count))
    if slots is None:
        return Build(matches, order, spans, keys=np.append(keys, -1))
    slots[keys[heads]] = heads
    return Build(matches, order, spans, slots, low)


def _probed(fetch: Callable[[List[Cell]], Matches], template: List[Cell],
            key_positions: Sequence[int], probe: Sequence[np.ndarray],
            checks: Sequence[Tuple[int, int]], rows: int) -> Build:
    """The build side off one read of all the ``probe`` keys as cells."""
    ids: List[Cell] = list(template)
    if len(probe) == 1:
        ids[key_positions[0]] = distinct(probe[0])[0]
    elif probe:
        first, _inverse = group(probe, rows)
        for position, column in zip(key_positions, probe):
            ids[position] = column[first]
    return grouped(_agreeing(fetch(ids), checks), key_positions, rows)


def _ranked(build: Sequence[np.ndarray], probe: Sequence[np.ndarray]
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Composite keys as single ones: each key tuple's dense rank in
    the joint lexicographic order of both sides, so equal tuples — and
    only those — share a number."""
    both = [np.concatenate(pair) for pair in zip(build, probe)]
    _first, rank = group(both, len(both[0]))
    return rank[:len(build[0])], rank[len(build[0]):]


def located(build: Build, key_positions: Sequence[int],
            probe: Sequence[np.ndarray], count: int
            ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Where each of ``count`` probe rows' matches sit in the build
    side: ``(order, low, counts)`` — row ``i`` matches
    ``order[low[i]:low[i] + counts[i]]`` (``order`` ``None``: the
    matches as they stand)."""
    if not key_positions:
        return (None, np.zeros(count, dtype=np.int64),
                np.full(count, len(build.matches[0]), dtype=np.int64))
    key = probe[0]
    if build.spans is None:
        # dense ranks by construction: always a directory
        ranks, key = _ranked(
            [build.matches[position] for position in key_positions], probe)
        build = grouped((ranks,), (0,), count)
    if build.slots is not None:
        low = build.slots.take(key - (build.low - 1), mode="clip")
    else:
        # one binary search a row: where its key's run would start; it
        # does if the key at that place is the row's
        low = np.searchsorted(build.keys[:-1], key, "left")
        low[build.keys[low] != key] = len(build.spans) - 1
    return build.order, low, build.spans[low]


def _matched(build: Build, key_positions: Sequence[int],
             probe: Sequence[np.ndarray], count: int
             ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Pair ``count`` probe rows with the build matches of their keys.

    Returns ``(rows, picked)``, one entry per pair: the probe row
    (``None`` when every row pairs exactly once — the output is the
    input, extended) and the match.  Pairs come in **probe-row order,
    and within a row in match index order**.
    """
    order, low, counts = located(build, key_positions, probe, count)
    total = int(counts.sum())
    if total == 0 or counts.max() == 1:
        # at most one match a row: a plain take
        rows = None if total == count else np.flatnonzero(counts)
        at = low if rows is None else low[rows]
    else:
        rows = np.repeat(np.arange(count), counts)
        # each row's run of matches, laid end to end
        first = np.cumsum(counts) - counts
        at = np.arange(total) - np.repeat(first - low, counts)
    return rows, at if order is None else order[at]


def _unbound_parts(columns: Sequence[np.ndarray],
                   every: Optional[np.ndarray] = None
                   ) -> List[Tuple[int, Optional[np.ndarray]]]:
    """Rows partitioned by which of ``columns`` they leave unbound:
    ``(code, index)`` per partition — bit ``i`` of ``code`` set where
    column ``i`` is ``-1``, ``index`` its rows, ascending (``every``:
    nothing is unbound)."""
    unbound = [column < 0 for column in columns]
    if not any(mask.any() for mask in unbound):
        return [(0, every)]
    code = sum(mask.astype(np.int64) << bit
               for bit, mask in enumerate(unbound))
    return [(int(value), np.flatnonzero(code == value))
            for value in np.unique(code)]


def paired(left: BindingTable, right: BindingTable, names: Sequence[str],
           overlapping: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """The compatible pairs of ``left`` and ``right`` rows — where both
    bind one of the shared ``names`` they agree; ``overlapping`` (MINUS):
    on at least one bound cell — as ``(rows, picked)``, the left and the
    right row of each pair **in left-row order, and within a row in
    right index order**, as a loop over left × right yields them.  Each
    pair of the two sides' unbound-cell partitions joins on the cells
    bound on both (none: every row meets every row)."""
    ours = [left.columns[left.slots[name]] for name in names]
    theirs = [right.columns[right.slots[name]] for name in names]
    empty = np.empty(0, dtype=np.int64)
    pieces = [(empty, empty)]  # so that no pairs concatenate too
    right_parts = _unbound_parts(theirs, np.arange(len(right)))
    for left_code, left_rows in _unbound_parts(ours, np.arange(len(left))):
        for right_code, right_rows in right_parts:
            key = [bit for bit in range(len(names))
                   if not (left_code | right_code) >> bit & 1]
            if overlapping and not key:
                continue
            positions = range(len(key))
            # the right rows ride along: what a keyless probe meets
            build = grouped(
                (*(theirs[bit][right_rows] for bit in key), right_rows),
                positions, len(left_rows))
            rows, picked = _matched(
                build, positions, [ours[bit][left_rows] for bit in key],
                len(left_rows))
            pieces.append((left_rows if rows is None else left_rows[rows],
                           right_rows[picked]))
    rows, picked = (np.concatenate(side) for side in zip(*pieces))
    if len(pieces) > 2:  # pairs are unique: one key orders them
        order = np.argsort(rows * len(right) + picked)
        rows, picked = rows[order], picked[order]
    return rows, picked


def join_table(table: BindingTable, spec: Spec,
               out_names: Tuple[str, ...],
               fetch: Callable[[List[Cell]], Matches],
               hashed: Optional[Build] = None) -> BindingTable:
    """The join kernel: ``table`` (not empty) extended by the
    matches of the pattern ``spec`` compiles.

    ``fetch(ids)`` answers the match arrays of the pattern with
    ``ids`` (:data:`~repro.rdf.columnar.Cell` values) at its positions.
    Rows are partitioned by *which* of their shared cells are unbound;
    for each partition the bound shared positions are the join key and
    the unbound ones capture the match's value into the row, like a
    new variable.  ``hashed`` — the whole range grouped on every
    shared position — serves the partition with nothing unbound; any
    other build side is one fetch of all its distinct keys.  Output
    order is row order, and within a row match index order.
    """
    shared = _positions(spec, "v")
    repeats = _positions(spec, "d")
    template = [value if kind == "c" else None for kind, value in spec]
    columns = table.columns
    pieces = []
    for code, index in _unbound_parts(
            [columns[slot] for _position, slot in shared]):
        count = len(table) if index is None else len(index)
        part = columns if index is None \
            else [column[index] for column in columns]
        key_positions = []
        probe = []
        captures: Dict[int, int] = {}  # slot -> capturing position
        checks = list(repeats)
        for bit, (position, slot) in enumerate(shared):
            if not code >> bit & 1:
                key_positions.append(position)
                probe.append(part[slot])
            elif slot in captures:
                # one variable at two positions captures one value
                checks.append((position, captures[slot]))
            else:
                captures[slot] = position
        build = hashed if hashed is not None and not code else _probed(
            fetch, template, key_positions, probe, checks, count)
        rows, picked = _matched(build, key_positions, probe, count)
        if rows is not None:
            part = [column[rows] for column in part]
            index = rows if index is None else index[rows]
        else:
            part = list(part)
        matches = build.matches
        for slot, position in captures.items():
            part[slot] = matches[position][picked].astype(np.int64)
        part.extend(matches[position][picked].astype(np.int64)
                    for position, _ in _positions(spec, "n"))
        pieces.append((index, part, len(picked)))
    if len(pieces) == 1:
        _index, out, count = pieces[0]
        return BindingTable.of(out_names, out, count)
    # back to row order; stable, so a row's matches stay in order
    restore = np.argsort(np.concatenate(
        [index for index, _part, _count in pieces]), kind="stable")
    return BindingTable.of(
        out_names,
        [np.concatenate(cells)[restore] for cells in zip(*(
            part for _index, part, _count in pieces))],
        len(restore))


class JoinSteps:
    """The BGP join steps: one triple or path pattern at a time, joined
    into a :class:`BindingTable` of interned term ids.

    Every step is the one kernel, :func:`join_table`: index the
    pattern's matches by join key, look each row's key up in them,
    gather.  What a step chooses is only where its matches
    come from — one scan of the pattern's whole index range ("hash",
    the name kept from the bucketed build it replaced) or one read of
    its distinct keys ("probe"); that choice is
    :meth:`_prefer_hash`.  A scanned range that holds exactly the
    table's subjects, in the table's order (:meth:`_aligned`), skips
    the kernel: its object column is appended ("append").
    """

    def __init__(self, dictionary) -> None:
        #: where pattern constants are looked up and computed terms
        #: interned
        self._dict = dictionary
        #: how the last :meth:`_step_triple` / :meth:`_step_path` joined
        self._last_strategy = "scan"

    def _compile_positions(self, positions, table: BindingTable
                           ) -> Tuple[Spec, List[str], bool]:
        """Shared step compilation: classify each pattern position.

        Returns ``(spec, new_names, dead)``; ``dead`` is True when a
        constant term is not interned (no matches possible).
        """
        lookup = self._dict.lookup
        spec: Spec = []
        new_names: List[str] = []
        first_new: Dict[str, int] = {}
        dead = False
        for position in positions:
            if isinstance(position, Var):
                name = position.name
                slot = table.slots.get(name)
                if slot is not None:
                    spec.append(("v", slot))
                elif name in first_new:
                    spec.append(("d", first_new[name]))
                else:
                    first_new[name] = len(spec)
                    spec.append(("n", None))
                    new_names.append(name)
            else:
                term_id = lookup(position)
                if term_id is None:
                    dead = True
                    term_id = -1  # matches nothing; step short-circuits
                spec.append(("c", term_id))
        return spec, new_names, dead

    def _vector_matches(self, source: GraphSource, base: IdPattern
                        ) -> Matches:
        """The ``(S, P, O)`` match arrays for ``base``, accounted: every
        matched index entry bumps the probe counter."""
        arrays = source.match_arrays(base)
        entries = int(len(arrays[0]))
        if PROBE_COUNTER.active:
            PROBE_COUNTER.entries += entries
        return arrays

    def _prefer_hash(self, source: GraphSource, base: IdPattern,
                     rows: int) -> bool:
        """Join-strategy choice for one step: scan the pattern's whole
        range when it is small enough relative to the binding table,
        read its distinct keys otherwise.  (Measured with the sorted
        build, the scan was worth it up to ≈ 256 range entries per
        distinct key; the key directory made a scanned entry several
        times cheaper, so that figure — the constant to recalibrate
        — is stale in the scan's favour.  See docs/performance.md,
        "Range scan or keyed probe", for the numbers on both sides
        and for why the rule still stands.)"""
        return rows >= HASH_MIN_ROWS \
            and source.estimate_ids(base) <= HASH_SCAN_FACTOR * rows

    @staticmethod
    def _aligned(spec: Spec, matches: Matches, table: BindingTable) -> bool:
        """Whether a ``?v p ?x`` step (``?v`` bound, ``p`` a constant,
        ``?x`` new) pairs row ``i`` with match ``i`` and nothing else:
        the range's subjects equal the table's ``?v`` column and ascend
        strictly — distinct, so no row has a second match, as a ``?v``
        bound twice would.  A predicate's range is in subject order
        (then object; tiers and union members each in turn), so the
        arms of a star started at one arm's range line up this way
        whenever each of its subjects has exactly one value."""
        if [kind for kind, _value in spec] != ["v", "c", "n"]:
            return False
        subjects = matches[0]
        return len(subjects) == len(table) \
            and np.array_equal(subjects, table.columns[spec[0][1]]) \
            and bool((subjects[1:] > subjects[:-1]).all())

    def _step_triple(self, pattern: TriplePatternNode, source: GraphSource,
                     table: BindingTable) -> BindingTable:
        spec, new_names, dead = self._compile_positions(
            pattern.positions(), table)
        out_names = table.names + tuple(new_names)
        if dead or not table:
            return BindingTable.empty(out_names)
        base = _base_pattern(spec)
        key_positions = [position for position, _slot
                         in _positions(spec, "v")]
        hashed = None
        if not key_positions:
            # no shared variables: one scan, applied to every row
            self._last_strategy = "scan"
        elif self._prefer_hash(source, base, len(table)):
            # one scan of the range: appended as it stands when it
            # lines up with the table, else grouped by the join key
            matches = self._vector_matches(source, base)
            if self._aligned(spec, matches, table):
                self._last_strategy = "append"
                return BindingTable.of(
                    out_names, [*table.columns, matches[2].astype(np.int64)],
                    len(table))
            self._last_strategy = "hash"
            hashed = grouped(_agreeing(matches, _positions(spec, "d")),
                             key_positions, len(table))
        else:
            self._last_strategy = "probe"
        return join_table(
            table, spec, out_names,
            lambda ids: self._vector_matches(source, tuple(ids)), hashed)

    def _step_path(self, pattern: PathPatternNode, source: GraphSource,
                   table: BindingTable) -> BindingTable:
        self._last_strategy = "path"
        decode = self._dict.decode
        encode = self._dict.encode
        # paths match at term level (a zero-length path can match a
        # never-interned constant), so the constants are read off the
        # pattern rather than the spec's ids and ``dead`` does not apply
        ends = pattern.endpoints()
        spec, new_names, _dead = self._compile_positions(ends, table)
        out_names = table.names + tuple(new_names)
        if not table:
            return BindingTable.empty(out_names)

        def fetch(ids: List[Cell]) -> Matches:
            # paths match decoded terms: the one read taken key by key
            pairs = [pair for key in key_patterns(ids)
                     for pair in evaluate_path(source, pattern.path, *(
                         constant if kind == "c"
                         else None if cell is None else decode(cell)
                         for (kind, _), constant, cell
                         in zip(spec, ends, key)))]
            return (id_column(encode(first) for first, _last in pairs),
                    id_column(encode(last) for _first, last in pairs))

        return join_table(table, spec, out_names, fetch)
