"""In-memory star schema: dimension tables and the fact table.

This is the storage layer of the *traditional DW* baseline (paper
§I, first approach / ref. [2] Kämpgen & Harth): observations are
extracted from RDF once, dictionary-encoded into dense integer codes,
and measures land in numpy arrays.  OLAP then runs as array group-bys
instead of SPARQL joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdf.terms import IRI, Literal, Term


@dataclass
class DimensionTable:
    """One dimension: bottom members plus per-level roll-up maps."""

    dimension: IRI
    bottom_level: IRI
    #: bottom member code → term (position = code)
    bottom_members: List[Term] = field(default_factory=list)
    #: level → members of that level (position = code)
    level_members: Dict[IRI, List[Term]] = field(default_factory=dict)
    #: level → int array mapping bottom code → level member code (-1 = none)
    ancestor_maps: Dict[IRI, np.ndarray] = field(default_factory=dict)
    #: level → attribute property → {member term: literal value}
    attributes: Dict[IRI, Dict[IRI, Dict[Term, Term]]] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        self._bottom_index = {member: code for code, member
                              in enumerate(self.bottom_members)}
        self.level_members.setdefault(self.bottom_level, self.bottom_members)
        if self.bottom_level not in self.ancestor_maps:
            self.ancestor_maps[self.bottom_level] = np.arange(
                len(self.bottom_members), dtype=np.int64)

    def bottom_code(self, member: Term) -> Optional[int]:
        return self._bottom_index.get(member)

    def members_at(self, level: IRI) -> List[Term]:
        return self.level_members[level]

    def map_to_level(self, level: IRI) -> np.ndarray:
        """bottom code → member code at ``level`` (-1 when unmapped)."""
        return self.ancestor_maps[level]

    def attribute_values(self, level: IRI, attribute: IRI
                         ) -> Dict[Term, Term]:
        return self.attributes.get(level, {}).get(attribute, {})

    @property
    def cardinality(self) -> int:
        return len(self.bottom_members)


@dataclass
class FactTable:
    """The encoded fact table.

    A fact that lacks a value for a dimension carries code ``-1``; a
    fact that lacks a (numeric) value for a measure carries ``NaN``.
    Both sentinels mean *the SPARQL path's joins would drop this row*
    for any query touching that column, and the native engine mirrors
    that (:meth:`repro.olap.engine.NativeOLAPEngine.evaluate`).
    """

    #: dimension IRI → int64 code array (length = #facts; -1 = missing)
    coordinates: Dict[IRI, np.ndarray] = field(default_factory=dict)
    #: measure IRI → float64 value array (NaN = missing / non-numeric)
    measures: Dict[IRI, np.ndarray] = field(default_factory=dict)

    @property
    def size(self) -> int:
        for array in self.coordinates.values():
            return int(array.shape[0])
        for array in self.measures.values():
            return int(array.shape[0])
        return 0

    def columns(self, epoch: int = 0) -> "FactColumns":
        """Compress this table into a :class:`FactColumns` snapshot."""
        return FactColumns.from_facts(self, epoch=epoch)


def _code_dtype(max_code: int) -> np.dtype:
    """Smallest signed dtype holding ``max_code`` (and the -1 sentinel).

    Guarded narrowing in the :mod:`repro.rdf.columnar` idiom: the
    candidate dtype is accepted only after ``np.iinfo`` proves the
    ceiling fits, so a dimension beyond 2^31 members degrades to int64
    instead of truncating silently.
    """
    for candidate in (np.int8, np.int16, np.int32):
        if max_code <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    return np.dtype(np.int64)


def narrowed(codes: np.ndarray) -> np.ndarray:
    """``codes`` (``-1`` = missing) in the smallest signed dtype that
    holds them, contiguous."""
    ceiling = int(codes.max()) if codes.shape[0] else 0
    return np.ascontiguousarray(codes, dtype=_code_dtype(ceiling))


@dataclass(frozen=True)
class FactColumns:
    """One immutable, compressed columnar generation of the fact table.

    The shareable star snapshot: dimension coordinates are narrowed to
    the smallest signed dtype that holds the dimension's code ceiling
    (most real dimensions fit int8/int16 — a 4-8x space saving over
    the working int64 arrays), measures stay float64, and the whole
    layout is stamped with the snapshot epoch it was extracted from so
    parallel workers can tell generations apart.  Exported zero-copy
    through :func:`repro.rdf.shm.export_arrays` / the
    ``SHM_SEGMENTS`` registry by :mod:`repro.olap.parallel`.
    """

    #: dimension IRI → narrowed code array (-1 = missing)
    coordinates: Dict[IRI, np.ndarray]
    #: measure IRI → float64 value array (NaN = missing)
    measures: Dict[IRI, np.ndarray]
    #: snapshot epoch the star schema was extracted at
    epoch: int
    #: fact count (authoritative even when there are no columns)
    rows: int

    @classmethod
    def from_facts(cls, facts: FactTable, epoch: int = 0) -> "FactColumns":
        coordinates: Dict[IRI, np.ndarray] = {}
        for iri, codes in facts.coordinates.items():
            column = narrowed(codes)
            column.flags.writeable = False
            coordinates[iri] = column
        measures: Dict[IRI, np.ndarray] = {}
        for iri, values in facts.measures.items():
            column = np.ascontiguousarray(values, dtype=np.float64)
            column.flags.writeable = False
            measures[iri] = column
        return cls(coordinates=coordinates, measures=measures,
                   epoch=epoch, rows=facts.size)

    @property
    def nbytes(self) -> int:
        """Total payload size (what a shared-memory export will cost)."""
        return sum(a.nbytes for a in self.coordinates.values()) \
            + sum(a.nbytes for a in self.measures.values())

    def widened(self) -> FactTable:
        """Back to the working-width :class:`FactTable` layout."""
        return FactTable(
            coordinates={iri: codes.astype(np.int64)
                         for iri, codes in self.coordinates.items()},
            measures={iri: values.astype(np.float64)
                      for iri, values in self.measures.items()})


@dataclass
class StarSchema:
    """The complete materialized DW."""

    dataset: IRI
    dimensions: Dict[IRI, DimensionTable] = field(default_factory=dict)
    facts: FactTable = field(default_factory=FactTable)
    #: measure IRI → aggregate keyword ("SUM", "AVG", ...)
    measure_aggregates: Dict[IRI, str] = field(default_factory=dict)
    #: mutation epoch of the source dataset at extraction time — the
    #: generation stamp carried by :class:`FactColumns` exports
    epoch: int = 0

    def fact_columns(self) -> FactColumns:
        """The compressed, shareable snapshot of the fact table."""
        return self.facts.columns(epoch=self.epoch)

    def dimension(self, iri: IRI) -> DimensionTable:
        table = self.dimensions.get(iri)
        if table is None:
            raise KeyError(f"unknown dimension {iri}")
        return table

    def summary(self) -> str:
        lines = [f"Star schema for {self.dataset.value}",
                 f"  facts: {self.facts.size}"]
        for iri, table in sorted(self.dimensions.items(),
                                 key=lambda kv: kv[0].value):
            levels = ", ".join(
                f"{level.local_name()}({len(members)})"
                for level, members in sorted(
                    table.level_members.items(), key=lambda kv: kv[0].value))
            lines.append(f"  {iri.local_name()}: {levels}")
        return "\n".join(lines)
