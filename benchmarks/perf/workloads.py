"""The four workloads: program texts and the op sequence of one round.

The QL texts live here, not in ``bench_e3_querying.py`` or
``repro.demo``, so an edit to the old gates or the demo cannot change
what this benchmark runs.

A round is a fixed sequence of :class:`Op` that leaves the store as it
found it.  ``--seed`` reaches the data generator and the *order* of a
read-only round's ops; it never changes which ops a round holds, so two
seeds do the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

_PREFIXES = """
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
PREFIX property: <http://eurostat.linked-statistics.org/property#>;
PREFIX ref-prop: <http://reference.example.org/property#>;
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;
QUERY
"""

#: Every observation survives into GROUP BY.
ROLLUP_PROGRAMS: Dict[str, str] = {
    "continent_year": _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := ROLLUP ($C4, schema:citizenshipDim, schema:continent);
$C6 := ROLLUP ($C5, schema:timeDim, schema:year);
""",
    "quarter_sex": _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:ageDim);
$C3 := SLICE ($C2, schema:citizenshipDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := ROLLUP ($C4, schema:timeDim, schema:quarter);
""",
    "political_year": _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:citizenshipDim);
$C5 := ROLLUP ($C4, schema:destinationDim, schema:politicalOrganization);
$C6 := ROLLUP ($C5, schema:timeDim, schema:year);
""",
    "continent_political": _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:timeDim);
$C5 := ROLLUP ($C4, schema:citizenshipDim, schema:continent);
$C6 := ROLLUP ($C5, schema:destinationDim, schema:politicalOrganization);
""",
    # a measure dice after the roll-up becomes HAVING
    "busy_continent_year": _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:destinationDim);
$C5 := ROLLUP ($C4, schema:citizenshipDim, schema:continent);
$C6 := ROLLUP ($C5, schema:timeDim, schema:year);
$C7 := DICE ($C6, sdmx-measure:obsValue > 2000);
""",
}

_DICE_HEAD = _PREFIXES + """
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := ROLLUP ($C3, schema:citizenshipDim, schema:continent);
$C5 := ROLLUP ($C4, schema:timeDim, schema:year);
"""

_CONTINENT = "schema:citizenshipDim|schema:continent|ref-prop:continentName"
_COUNTRY = "schema:destinationDim|property:geo|ref-prop:countryName"
_YEAR = "schema:timeDim|schema:year|ref-prop:yearNumber"

#: Same joins as the roll-ups, but a FILTER throws most rows away
#: before GROUP BY.  The constants differ per program, so the SPARQL
#: texts are distinct and plan-cache hits are parameterized ones.
DICE_PROGRAMS: Dict[str, str] = {
    "africa_france": _DICE_HEAD + f"""
$C6 := DICE ($C5, ({_CONTINENT} = "Africa"));
$C7 := DICE ($C6, {_COUNTRY} = "France");
""",
    "asia_germany": _DICE_HEAD + f"""
$C6 := DICE ($C5, ({_CONTINENT} = "Asia"));
$C7 := DICE ($C6, {_COUNTRY} = "Germany");
""",
    "or_destinations": _DICE_HEAD + f"""
$C6 := DICE ($C5, ({_COUNTRY} = "Sweden" OR {_COUNTRY} = "Italy"));
""",
    "not_continent_and_measure": _DICE_HEAD + f"""
$C6 := DICE ($C5, (NOT {_CONTINENT} = "Europe")
                  AND sdmx-measure:obsValue > 50);
""",
    "three_way_and": _DICE_HEAD + f"""
$C6 := DICE ($C5, ({_CONTINENT} = "Asia" AND {_COUNTRY} = "Germany"
                   AND {_YEAR} = 2014));
""",
}

PROGRAMS: Dict[str, str] = {**ROLLUP_PROGRAMS, **DICE_PROGRAMS}

VARIANTS = ("direct", "optimized")

#: below the publish-compaction threshold (a 64th of the 180k-triple
#: QB graph): the reads that follow go through the delta overlay
SMALL_BATCH = 100
#: pushes the overlay past that threshold: compaction at the next
#: snapshot publish
BIG_BATCH = 240
#: held-back observations every cube is generated with (so set-up is
#: the same work on the three 20k workloads); ``refresh_20k`` writes
#: them.  Removing them leaves 3 060 tombstones: two inline compactions
#: and one at the next publish.  (Seed code takes 0.5 ms per removed
#: triple, so a thousand observations would make one cycle last eight
#: seconds.)
HELD_BACK = SMALL_BATCH + BIG_BATCH

#: the reads of a refresh cycle: one roll-up and one dice
REFRESH_READS = (("continent_year", "direct"), ("africa_france", "optimized"))


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``kind`` is ``ql`` (a QL program through one SPARQL variant),
    ``etl``, ``native``, ``parallel`` (the star path), or ``insert`` /
    ``remove`` (the write path).  ``after`` names the write a refresh
    read follows, which makes its expected answer distinct.
    """

    kind: str
    program: str = ""
    variant: str = ""
    after: str = ""

    @property
    def key(self) -> str:
        parts = [self.kind, self.program, self.variant, self.after]
        return ":".join(part for part in parts if part)


def _ql_round(programs: Dict[str, str]
              ) -> Callable[[random.Random], List[Op]]:
    def build(rng: random.Random) -> List[Op]:
        ops = [Op("ql", name, variant)
               for name in programs for variant in VARIANTS]
        rng.shuffle(ops)
        return ops
    return build


def _star_round(rng: random.Random) -> List[Op]:
    evaluations = [Op(kind, name) for name in PROGRAMS
                   for kind in ("native", "parallel")]
    rng.shuffle(evaluations)
    return [Op("etl"), *evaluations]


def _refresh_round(_rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    for write in (Op("insert", after="small"), Op("insert", after="big"),
                  Op("remove", after="remove")):
        ops.append(write)
        ops.extend(Op("ql", name, variant, write.after)
                   for name, variant in REFRESH_READS)
    return ops


@dataclass(frozen=True)
class Workload:
    """A named cube size and round; why each exists is recorded in
    ``BENCHMARK.json`` and README.md."""

    name: str
    observations: int
    #: the star schema and the parallel aggregator are part of set-up
    star: bool
    round_ops: Callable[[random.Random], List[Op]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("rollup_20k", 20_000, False, _ql_round(ROLLUP_PROGRAMS)),
    Workload("dice_20k", 20_000, False, _ql_round(DICE_PROGRAMS)),
    Workload("star_50k", 50_000, True, _star_round),
    Workload("refresh_20k", 20_000, False, _refresh_round),
)}
