"""Synthetic generator for the ``migr_asyappctzm`` QB data set.

Reproduces the *structure* of the Eurostat asylum-applications cube the
paper demos on: six dimensions (reference period, citizenship,
destination geo, sex, age group, application type), one measure
(``sdmx-measure:obsValue``), published as plain QB — i.e. **without**
hierarchies, aggregate functions or level attributes.  The paper's
subset holds ~80 000 observations over 2013–2014; the generator is
seeded and deterministic so experiments are repeatable.

Observation counts follow a heavy-tailed country weighting (Syria,
Afghanistan, Eritrea, ... dominated the real 2013–2014 filings) so
group-bys produce realistically skewed aggregates.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SDMX_DIMENSION, SDMX_MEASURE
from repro.rdf.terms import IRI, Literal, Term
from repro.qb import vocabulary as qb
from repro.data import geography as geo
from repro.data.namespaces import (
    DATA,
    DIC_AGE,
    DIC_ASYL,
    DIC_CITIZEN,
    DIC_GEO,
    DIC_SEX,
    DIC_TIME,
    DSD,
    PROPERTY,
)

DATASET_IRI = DATA.migr_asyappctzm
DSD_IRI = DSD.migr_asyappctzm

#: the six dimension component properties, in DSD order
DIMENSION_PROPERTIES: Tuple[IRI, ...] = (
    SDMX_DIMENSION.refPeriod,
    PROPERTY.citizen,
    PROPERTY.geo,
    PROPERTY.sex,
    PROPERTY.age,
    PROPERTY.asyl_app,
)

MEASURE_PROPERTY = SDMX_MEASURE.obsValue


@dataclass
class GeneratorConfig:
    """Tuning knobs for the synthetic data set."""

    observations: int = 80_000
    seed: int = 42
    months: Sequence[str] = field(default_factory=lambda: list(geo.MONTHS))
    citizenship: Sequence[geo.Country] = field(
        default_factory=lambda: list(geo.CITIZENSHIP_COUNTRIES))
    destinations: Sequence[geo.Country] = field(
        default_factory=lambda: list(geo.DESTINATION_COUNTRIES))
    max_count: int = 500


def member_iris(config: Optional[GeneratorConfig] = None
                ) -> Dict[IRI, List[IRI]]:
    """Dictionary-member IRIs per dimension property."""
    config = config or GeneratorConfig()
    return {
        SDMX_DIMENSION.refPeriod: [
            DIC_TIME[m] for m in config.months],
        PROPERTY.citizen: [
            DIC_CITIZEN[c.code] for c in config.citizenship],
        PROPERTY.geo: [
            DIC_GEO[c.code] for c in config.destinations],
        PROPERTY.sex: [DIC_SEX[code] for code, _ in geo.SEX_CODES],
        PROPERTY.age: [DIC_AGE[code] for code, _ in geo.AGE_CODES],
        PROPERTY.asyl_app: [
            DIC_ASYL[code] for code, _ in geo.APPLICATION_CODES],
    }


class TripleBuffer:
    """Stands where a generator expects a graph and keeps the triples
    it emits, in order, so that a graph takes them in one
    :meth:`Graph.add_all` — one lock, one validation and interning
    pass, one fold — instead of one locked :meth:`Graph.add` each.
    Interning in emission order gives every term the id per-triple
    adds would have given it."""

    __slots__ = ("triples",)

    def __init__(self) -> None:
        self.triples: List[Tuple[Term, Term, Term]] = []

    def add(self, subject: Term, predicate: Term, obj: Term) -> None:
        self.triples.append((subject, predicate, obj))


def build_dsd(graph: Graph) -> None:
    """Emit the plain-QB data structure definition (paper §II snippet).

    Component nodes get *fixed* blank-node labels so two runs of the
    generator emit byte-identical graphs (benchmark reproducibility).
    """
    from repro.rdf.terms import BNode

    graph.add(DSD_IRI, RDF.type, qb.DataStructureDefinition)
    for position, prop in enumerate(DIMENSION_PROPERTIES, start=1):
        node = BNode(f"comp_{prop.local_name()}")
        graph.add(DSD_IRI, qb.component, node)
        graph.add(node, qb.dimension, prop)
        graph.add(node, qb.order, Literal(position))
    measure_node = BNode("comp_obsValue")
    graph.add(DSD_IRI, qb.component, measure_node)
    graph.add(measure_node, qb.measure, MEASURE_PROPERTY)
    graph.add(DATASET_IRI, RDF.type, qb.DataSet)
    graph.add(DATASET_IRI, qb.structure, DSD_IRI)
    graph.add(DATASET_IRI, RDFS.label,
              Literal("Asylum and first time asylum applicants by "
                      "citizenship, age and sex (monthly data)",
                      language="en"))


def _country_weights(countries: Sequence[geo.Country]) -> List[float]:
    """Heavy-tailed origin weighting: conflict countries dominate."""
    hot = {"SY": 30.0, "AF_C": 12.0, "ER": 8.0, "RS": 8.0, "IQ": 6.0,
           "XK": 6.0, "PK": 5.0, "SO": 5.0, "NG": 4.0, "RU": 4.0,
           "AL": 4.0, "ML": 3.0, "GM": 3.0, "BD": 3.0, "UA": 3.0}
    return [hot.get(country.code, 1.0) for country in countries]


def _destination_weights(countries: Sequence[geo.Country]) -> List[float]:
    hot = {"DE": 25.0, "FR": 12.0, "SE": 12.0, "IT": 9.0, "UK": 6.0,
           "HU": 6.0, "AT": 4.0, "NL": 4.0, "BE": 4.0, "CH": 4.0}
    return [hot.get(country.code, 1.0) for country in countries]


def generate_observations(graph: Graph,
                          config: Optional[GeneratorConfig] = None) -> int:
    """Append seeded observations to ``graph``; returns how many.

    Coordinates are sampled without replacement from the cross product
    of dimension members, so no two observations collide (QB IC-12).
    """
    config = config or GeneratorConfig()
    rng = random.Random(config.seed)
    members = member_iris(config)

    axes = [members[prop] for prop in DIMENSION_PROPERTIES]
    space = 1
    for axis in axes:
        space *= len(axis)
    wanted = min(config.observations, space)

    # Weighted axis index choices for citizenship/destination; uniform
    # elsewhere.  Rejection-sample unique coordinate tuples.  A weighted
    # draw is the bisection ``random.choices`` runs, on cumulative
    # weights computed once: the same draw from the same stream.
    citizenship_cum = list(accumulate(_country_weights(config.citizenship)))
    destination_cum = list(accumulate(
        _destination_weights(config.destinations)))
    citizenship_total = citizenship_cum[-1] + 0.0 if citizenship_cum else 0.0
    destination_total = destination_cum[-1] + 0.0 if destination_cum else 0.0
    citizenship_hi = len(citizenship_cum) - 1
    destination_hi = len(destination_cum) - 1
    months, sexes, ages, applications = (len(axes[index])
                                         for index in (0, 3, 4, 5))

    # every term that repeats is built once: the constant IRIs, one
    # literal per measure value (terms are immutable, so sharing is safe)
    add = graph.add
    rdf_type, observation_class = RDF.type, qb.Observation
    data_set, dataset_iri = qb.dataSet, DATASET_IRI
    components = list(zip(DIMENSION_PROPERTIES, axes))
    max_count = config.max_count
    literals: Dict[int, Literal] = {}
    prefix = DATA["migr_asyappctzm/OBS_"].value
    random_ = rng.random
    randrange = rng.randrange
    paretovariate = rng.paretovariate

    seen: set = set()
    produced = 0
    attempts = 0
    max_attempts = wanted * 50
    while produced < wanted and attempts < max_attempts:
        attempts += 1
        coordinate = (
            randrange(months),
            bisect(citizenship_cum, random_() * citizenship_total,
                   0, citizenship_hi),
            bisect(destination_cum, random_() * destination_total,
                   0, destination_hi),
            randrange(sexes),
            randrange(ages),
            randrange(applications),
        )
        if coordinate in seen:
            continue
        seen.add(coordinate)
        observation = IRI(f"{prefix}{produced:06d}")
        add(observation, rdf_type, observation_class)
        add(observation, data_set, dataset_iri)
        for (prop, axis), index in zip(components, coordinate):
            add(observation, prop, axis[index])
        value = min(int(paretovariate(1.2)), max_count)
        literal = literals.get(value)
        if literal is None:
            literal = literals[value] = Literal(value)
        add(observation, MEASURE_PROPERTY, literal)
        produced += 1
    return produced


def qb_triples(config: Optional[GeneratorConfig] = None
               ) -> List[Tuple[Term, Term, Term]]:
    """The plain-QB cube's triples in emission order: DSD + data set +
    observations (what an endpoint loads in one batch)."""
    buffer = TripleBuffer()
    build_dsd(buffer)
    generate_observations(buffer, config)
    return buffer.triples


def build_qb_graph(config: Optional[GeneratorConfig] = None) -> Graph:
    """The full plain-QB graph: DSD + data set + observations."""
    from repro.data.namespaces import DEMO_PREFIXES

    graph = Graph()
    for prefix, namespace in DEMO_PREFIXES.items():
        graph.bind(prefix, namespace)
    return graph.add_all(qb_triples(config))
