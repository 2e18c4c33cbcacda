"""The row-at-a-time BGP join step, kept as the oracle of the join
kernel (``repro.sparql.evaluator_steps.join_table``).

This is the ``_step_triple`` the vectorized kernel replaced, moved here
whole: per input row, look the row's join key up in a dict of
extension tuples (built off one range scan — "hash" — or filled by one
index probe per distinct key — "probe"), and for rows with an unbound
join cell apply every raw match through ``_emit``'s capture rules.  It
defines what the kernel must produce: the same rows **in the same
order**, the same ``PROBE_COUNTER.entries``.
``tests/sparql/test_join_kernel.py`` drives both.

The walker's operators that pair two tables ran the same way until
they went through ``evaluator_steps.paired`` too; their loops are
here, each the oracle of its replacement, ``None`` cells tolerated:

* :func:`reference_minus` — MINUS, every left row against every
  removal row;
* :func:`reference_join_relation` — VALUES / sub-SELECT / graph-name
  joins, every table row against every relation row;
* :func:`reference_left_outer` — OPTIONAL's padding, the optional
  side's solutions bucketed by marker in a dict of tuples.

:func:`reference_keyed_matches` is the storage read a probe step made
before it read all its keys at once: one ``match_arrays`` per key.
"""

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sparql.algebra import TriplePatternNode, Var
from repro.sparql.bindings import BindingTable
from repro.sparql.evaluator_source import (
    PROBE_COUNTER,
    GraphSource,
    IdPattern,
)

from tests.rdf.reference_reads import reference_ids
from tests.sparql.tables import id_table


def _base_pattern(spec: Iterable[Tuple[str, Optional[int]]]) -> IdPattern:
    """The concrete ``(s, p, o)`` id pattern of a compiled position
    spec: constants keep their ids, every other position is a
    wildcard."""
    s, p, o = (value if kind == "c" else None for kind, value in spec)
    return (s, p, o)


class ReferenceJoin:
    """``_step_triple`` as it stood before the kernel, with the
    hash / probe choice forced by the caller (``use_hash``)."""

    def __init__(self, dictionary, use_hash: bool) -> None:
        self._dict = dictionary
        self.use_hash = use_hash

    def _metered(self, source: GraphSource):
        """``source``'s per-entry id scan, every entry bumping the
        probe counter."""
        def match_ids(pattern):
            for ids in reference_ids(source.view, pattern):
                if PROBE_COUNTER.active:
                    PROBE_COUNTER.entries += 1
                yield ids
        return match_ids

    @staticmethod
    def _emit(row, matches, spec, out_rows) -> None:
        """Apply pattern ``matches`` to one input ``row``.

        ``spec`` positions: ``("c", _)`` constants are pre-constrained;
        ``("v", slot)`` may capture into a still-``None`` cell;
        ``("n", _)`` appends a fresh column value; ``("d", first)``
        enforces repeated-variable equality against spec position
        ``first``.
        """
        for match in matches:
            updates = None
            ext = []
            ok = True
            for position, (kind, value) in enumerate(spec):
                if kind == "v":
                    if row[value] is None:
                        captured = match[position]
                        if updates is None:
                            updates = {value: captured}
                        else:
                            previous = updates.get(value)
                            if previous is None:
                                updates[value] = captured
                            elif previous != captured:
                                ok = False
                                break
                elif kind == "n":
                    ext.append(match[position])
                elif kind == "d":
                    if match[position] != match[value]:
                        ok = False
                        break
            if not ok:
                continue
            if updates:
                cells = list(row)
                for slot, captured in updates.items():
                    cells[slot] = captured
                out_rows.append(tuple(cells) + tuple(ext))
            else:
                out_rows.append(row + tuple(ext))

    def _compile_positions(self, positions, table: BindingTable):
        """Shared step compilation: classify each pattern position.

        Returns ``(spec, new_names, probe_slots, dead)``; ``dead`` is
        True when a constant term is not interned (no matches possible).
        """
        lookup = self._dict.lookup
        spec = []
        new_names: List[str] = []
        first_new: Dict[str, int] = {}
        probe_slots: List[int] = []
        dead = False
        for position in positions:
            if isinstance(position, Var):
                name = position.name
                slot = table.slots.get(name)
                if slot is not None:
                    spec.append(("v", slot))
                    probe_slots.append(slot)
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
        return spec, new_names, probe_slots, dead

    def _vector_matches(self, source: GraphSource, base: IdPattern):
        """The ``(S, P, O)`` match arrays for ``base``, accounted like
        the point probes: every matched index entry bumps the probe
        counter."""
        arrays = source.match_arrays(base)
        entries = int(len(arrays[0]))
        if PROBE_COUNTER.active:
            PROBE_COUNTER.entries += entries
        return arrays

    @staticmethod
    def _extension_tuples(arrays, n_positions, d_checks) -> List[tuple]:
        """One tuple of new-variable cells per match that passes the
        repeated-variable equality (``d`` spec entries), which is
        applied as one boolean mask."""
        mask = None
        for position, first in d_checks:
            eq = arrays[position] == arrays[first]
            mask = eq if mask is None else mask & eq
        cols = [arrays[position] for position in n_positions]
        if mask is not None:
            cols = [col[mask] for col in cols]
        if cols:
            return list(zip(*[col.tolist() for col in cols]))
        survivors = len(arrays[0]) if mask is None \
            else int(np.count_nonzero(mask))
        return [()] * survivors

    @staticmethod
    def _build_hash_memo(arrays, v_positions, n_positions, d_checks,
                         single, ext_memo) -> None:
        """Bucket extension tuples per distinct join key, vectorized.

        The matched range is sorted by its key columns (stable argsort /
        lexsort), so each distinct key becomes one contiguous run — the
        grouping a sorted-merge join consumes — and the runs are sliced
        straight into the memo without per-row Python dispatch.
        """
        mask = None
        for position, first in d_checks:
            eq = arrays[position] == arrays[first]
            mask = eq if mask is None else mask & eq
        key_cols = [arrays[position] for position in v_positions]
        ext_cols = [arrays[position] for position in n_positions]
        if mask is not None:
            key_cols = [col[mask] for col in key_cols]
            ext_cols = [col[mask] for col in ext_cols]
        total = int(len(key_cols[0]))
        if not total:
            return
        if len(key_cols) == 1:
            order = np.argsort(key_cols[0], kind="stable")
        else:
            order = np.lexsort(tuple(reversed(key_cols)))
        key_cols = [col[order] for col in key_cols]
        starts_run = np.zeros(total, dtype=bool)
        starts_run[0] = True
        for col in key_cols:
            starts_run[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(starts_run)
        heads = [col[starts].tolist() for col in key_cols]
        # all extension tuples in one C-level zip, then one list slice
        # per run: the paper's cubes have one triple per observation
        # per predicate, so runs are as many as rows and per-run
        # Python work is what a build costs
        exts = list(zip(*[col[order].tolist() for col in ext_cols])) \
            if ext_cols else [()] * total
        bounds = starts.tolist()
        bounds.append(total)
        ext_memo.update(zip(
            heads[0] if single else zip(*heads),
            [exts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]))

    def _hash_memo(self, source: GraphSource, base: IdPattern,
                   v_positions: List[int], n_positions: List[int],
                   d_checks: List[Tuple[int, int]], single: bool) -> Dict:
        """The build side of the hash join: extension tuples bucketed
        per distinct join key (sorted-run grouping), off one index
        scan.  Read-only to the probe side, so workers may reuse one
        build across morsels."""
        ext_memo: Dict = {}
        self._build_hash_memo(self._vector_matches(source, base),
                              v_positions, n_positions, d_checks, single,
                              ext_memo)
        return ext_memo

    def _step_triple(self, pattern: TriplePatternNode, source: GraphSource,
                     table: BindingTable) -> BindingTable:
        """The join step, one row at a time."""
        spec, new_names, probe_slots, dead = self._compile_positions(
            pattern.positions(), table)
        out_names = table.names + tuple(new_names)
        rows = table.rows
        if dead or not rows:
            return id_table(out_names, [])
        base = _base_pattern(spec)
        n_positions = [position for position, (kind, _) in enumerate(spec)
                       if kind == "n"]
        d_checks = [(position, value) for position, (kind, value)
                    in enumerate(spec) if kind == "d"]

        if not probe_slots:
            # no shared variables: one scan, applied to every row
            exts = self._extension_tuples(
                self._vector_matches(source, base), n_positions, d_checks)
            return id_table(
                out_names, [row + ext for row in rows for ext in exts])

        # shared-variable join.  Rows whose join-key cells are all bound
        # take the fast path: per distinct key, the matching *extension
        # tuples* (new-variable values) are computed once — either from
        # one bucketed index scan (hash join) or from a memoized index
        # probe — and appended to each row with no per-match rechecking.
        # Rows with an unbound (None) join cell fall back to the general
        # capture-aware application.
        v_positions = [position for position, (kind, _) in enumerate(spec)
                       if kind == "v"]
        single = len(probe_slots) == 1
        slot0 = probe_slots[0]
        v_pos0 = v_positions[0]
        n_count = len(n_positions)
        np0 = n_positions[0] if n_count > 0 else -1
        np1 = n_positions[1] if n_count > 1 else -1
        template = [value if kind == "c" else None for kind, value in spec]
        # index probes with a bound key read per-entry tuples, each
        # counted and charged as it is read
        match_ids = self._metered(source)

        def extensions(matches) -> list:
            exts = []
            for match in matches:
                if d_checks and any(match[a] != match[b]
                                    for a, b in d_checks):
                    continue
                if n_count == 1:
                    exts.append((match[np0],))
                elif n_count == 2:
                    exts.append((match[np0], match[np1]))
                elif n_count == 0:
                    exts.append(())
                else:
                    exts.append(tuple(match[position]
                                      for position in n_positions))
            return exts

        def concrete_for(key) -> IdPattern:
            pattern_ids = list(template)
            if single:
                pattern_ids[v_pos0] = key
            else:
                for position, cell in zip(v_positions, key):
                    pattern_ids[position] = cell
            return (pattern_ids[0], pattern_ids[1], pattern_ids[2])

        use_hash = self.use_hash
        if use_hash:
            ext_memo = self._hash_memo(source, base, v_positions,
                                       n_positions, d_checks, single)
        else:
            ext_memo = {}

        raw_memo: Dict = {}  # distinct key -> raw matches (capture rows)
        emit = self._emit
        out_rows: List[tuple] = []
        for row in rows:
            if single:
                key = row[slot0]
                unbound_key = key is None
            else:
                key = tuple(row[slot] for slot in probe_slots)
                unbound_key = None in key
            if not unbound_key:
                exts = ext_memo.get(key)
                if exts is None:
                    if use_hash:  # complete hash table: no matches
                        continue
                    exts = extensions(match_ids(concrete_for(key)))
                    ext_memo[key] = exts
                if exts:
                    for ext in exts:
                        out_rows.append(row + ext)
                continue
            got = raw_memo.get(key)
            if got is None:
                got = list(match_ids(concrete_for(key)))
                raw_memo[key] = got
            if got:
                emit(row, got, spec, out_rows)
        return id_table(out_names, out_rows)


def reference_keyed_matches(read, pattern) -> Tuple[np.ndarray, ...]:
    """What ``read`` (a ``match_arrays``) answers for ``pattern`` with
    array cells, one key at a time: the per-key loop a probe step ran
    before one keyed read replaced it — each key's own scalar read,
    concatenated key by key.  ``PROBE_COUNTER.entries`` counts what it
    returns, so swapping it in must leave every count as it was."""
    positions = [position for position, cell in enumerate(pattern)
                 if isinstance(cell, np.ndarray)]
    if not positions:
        return read(pattern)
    found = []
    for key in zip(*(pattern[position].tolist() for position in positions)):
        ids = list(pattern)
        for position, cell in zip(positions, key):
            ids[position] = cell
        found.append(read(tuple(ids)))
    if not found:
        return (np.empty(0, dtype=np.int64),) * 3
    return found[0] if len(found) == 1 else tuple(
        np.concatenate(arrays) for arrays in zip(*found))


def reference_minus(left: BindingTable,
                    removals: BindingTable) -> BindingTable:
    """``left`` without the rows a compatible, overlapping row of
    ``removals`` excludes."""
    if not removals.rows:
        return left
    shared = [(left.slots[name], removals.slots[name])
              for name in left.names
              if name in removals.slots and not name.startswith("#")]
    if not shared:
        return left
    out_rows = []
    for left_row in left.rows:
        excluded = False
        for removal in removals.rows:
            overlap = False
            compatible = True
            for left_slot, removal_slot in shared:
                left_value = left_row[left_slot]
                removal_value = removal[removal_slot]
                if left_value is None or removal_value is None:
                    continue
                if left_value != removal_value:
                    compatible = False
                    break
                overlap = True
            if compatible and overlap:
                excluded = True
                break
        if not excluded:
            out_rows.append(left_row)
    return id_table(left.names, out_rows)


def reference_join_relation(table: BindingTable,
                            relation: BindingTable) -> BindingTable:
    """``table`` joined with a constant ``relation``: a ``None`` cell on
    either side constrains nothing and takes the other side's value."""
    names = relation.names
    shared = [(table.slots[name], index)
              for index, name in enumerate(names) if name in table.slots]
    new_indices = [index for index, name in enumerate(names)
                   if name not in table.slots]
    out_names = table.names + tuple(names[index] for index in new_indices)
    out_rows: List[tuple] = []
    for table_row in table.rows:
        for rel_row in relation.rows:
            updates = None
            ok = True
            for slot, index in shared:
                value = rel_row[index]
                if value is None:
                    continue
                current = table_row[slot]
                if current is None:
                    if updates is None:
                        updates = {}
                    updates[slot] = value
                elif current != value:
                    ok = False
                    break
            if not ok:
                continue
            if updates:
                cells = list(table_row)
                for slot, value in updates.items():
                    cells[slot] = value
                base = tuple(cells)
            else:
                base = table_row
            out_rows.append(base + tuple(
                rel_row[index] for index in new_indices))
    return id_table(out_names, out_rows)


def reference_left_outer(left: BindingTable, right: BindingTable,
                         marker: str) -> BindingTable:
    """``right``'s solutions, each extending the ``left`` row its
    ``marker`` cell names, with a ``None`` pad for every left row none
    names — left-row order, a row's solutions in ``right`` order."""
    marker_slot = right.slots[marker]
    matched: Dict[int, list] = {}
    for row in right.rows:
        matched.setdefault(row[marker_slot], []).append(row)
    out_names = tuple(name for name in right.names if name != marker)
    right_picks = [right.slots[name] for name in out_names]
    pad = (None,) * (len(out_names) - len(left.names))
    out_rows: List[tuple] = []
    for index, left_row in enumerate(left.rows):
        hits = matched.get(index)
        if hits:
            for row in hits:
                out_rows.append(tuple(row[pick] for pick in right_picks))
        else:
            out_rows.append(left_row + pad)
    return id_table(out_names, out_rows)
