"""Synthetic generator for a second QB cube: asylum *decisions*.

The paper's Exploration module "allows to choose a data cube
(represented in QB4OLAP) among a **collection of cubes** stored in an
endpoint" (§III-B).  This module provides the second cube of that
collection, modelled on Eurostat's ``migr_asydcfstq`` (first-instance
decisions on asylum applications): the five conformed dimensions of the
applications cube (reference period, citizenship, destination geo, sex,
age group) plus a *decision* dimension, and the same
``sdmx-measure:obsValue`` measure.

Because the two cubes share dimension dictionaries, results over them
can be combined — the Cube Algebra DRILL-ACROSS operation implemented
in :mod:`repro.ql.drillacross` (e.g. acceptance rates per continent and
year join decisions onto applications).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF, RDFS, SDMX_DIMENSION
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.qb import vocabulary as qb
from repro.data import geography as geo
from repro.data.eurostat import MEASURE_PROPERTY, TripleBuffer
from repro.data.namespaces import (
    DATA,
    DIC_AGE,
    DIC_CITIZEN,
    DIC_GEO,
    DIC_SEX,
    DIC_TIME,
    DSD,
    ESTAT,
    PROPERTY,
)

DATASET_IRI = DATA.migr_asydcfstq
DSD_IRI = DSD.migr_asydcfstq

DIC_DECISION = Namespace(ESTAT + "dic/decision#")

#: decision outcomes (Eurostat first-instance decision breakdown)
DECISION_CODES: List[Tuple[str, str]] = [
    ("TOTAL_POS", "Total positive decisions"),
    ("GENCONV", "Geneva Convention status"),
    ("HUMSTAT", "Humanitarian status"),
    ("SUBS_PROT", "Subsidiary protection status"),
    ("REJECTED", "Rejected"),
]

#: the six dimension component properties, in DSD order
DIMENSION_PROPERTIES: Tuple[IRI, ...] = (
    SDMX_DIMENSION.refPeriod,
    PROPERTY.citizen,
    PROPERTY.geo,
    PROPERTY.sex,
    PROPERTY.age,
    PROPERTY.decision,
)


@dataclass
class DecisionsConfig:
    """Tuning knobs for the decisions data set."""

    observations: int = 20_000
    seed: int = 97
    months: Sequence[str] = field(default_factory=lambda: list(geo.MONTHS))
    citizenship: Sequence[geo.Country] = field(
        default_factory=lambda: list(geo.CITIZENSHIP_COUNTRIES))
    destinations: Sequence[geo.Country] = field(
        default_factory=lambda: list(geo.DESTINATION_COUNTRIES))
    max_count: int = 400
    #: probability mass of positive outcomes (tunes acceptance rates)
    positive_share: float = 0.45


def member_iris(config: Optional[DecisionsConfig] = None
                ) -> Dict[IRI, List[IRI]]:
    """Dictionary-member IRIs per dimension property."""
    config = config or DecisionsConfig()
    return {
        SDMX_DIMENSION.refPeriod: [DIC_TIME[m] for m in config.months],
        PROPERTY.citizen: [DIC_CITIZEN[c.code] for c in config.citizenship],
        PROPERTY.geo: [DIC_GEO[c.code] for c in config.destinations],
        PROPERTY.sex: [DIC_SEX[code] for code, _ in geo.SEX_CODES],
        PROPERTY.age: [DIC_AGE[code] for code, _ in geo.AGE_CODES],
        PROPERTY.decision: [
            DIC_DECISION[code] for code, _ in DECISION_CODES],
    }


def build_dsd(graph: Graph) -> None:
    """Emit the plain-QB DSD of the decisions cube."""
    graph.add(DSD_IRI, RDF.type, qb.DataStructureDefinition)
    for position, prop in enumerate(DIMENSION_PROPERTIES, start=1):
        node = BNode(f"dec_comp_{prop.local_name()}")
        graph.add(DSD_IRI, qb.component, node)
        graph.add(node, qb.dimension, prop)
        graph.add(node, qb.order, Literal(position))
    measure_node = BNode("dec_comp_obsValue")
    graph.add(DSD_IRI, qb.component, measure_node)
    graph.add(measure_node, qb.measure, MEASURE_PROPERTY)
    graph.add(DATASET_IRI, RDF.type, qb.DataSet)
    graph.add(DATASET_IRI, qb.structure, DSD_IRI)
    graph.add(DATASET_IRI, RDFS.label,
              Literal("First instance decisions on asylum applications "
                      "by citizenship, age and sex (monthly data)",
                      language="en"))


def build_decision_labels(graph: Graph) -> None:
    """Label the decision dictionary members (skos-style labels)."""
    for code, label in DECISION_CODES:
        graph.add(DIC_DECISION[code], RDFS.label, Literal(label,
                                                          language="en"))


def generate_observations(graph: Graph,
                          config: Optional[DecisionsConfig] = None) -> int:
    """Append seeded decision observations; returns how many.

    Outcome sampling splits mass between positive outcomes and
    rejections via ``positive_share`` so acceptance-rate analyses over
    the drill-across result show a meaningful split.
    """
    config = config or DecisionsConfig()
    rng = random.Random(config.seed)
    members = member_iris(config)
    axes = [members[prop] for prop in DIMENSION_PROPERTIES]
    space = 1
    for axis in axes:
        space *= len(axis)
    wanted = min(config.observations, space)

    positive = [index for index, (code, _) in enumerate(DECISION_CODES)
                if code != "REJECTED"]
    rejected = [index for index, (code, _) in enumerate(DECISION_CODES)
                if code == "REJECTED"]

    # every term that repeats is built once: the constant IRIs, one
    # literal per measure value (terms are immutable, so sharing is safe)
    add = graph.add
    rdf_type, observation_class = RDF.type, qb.Observation
    data_set, dataset_iri = qb.dataSet, DATASET_IRI
    components = list(zip(DIMENSION_PROPERTIES, axes))
    months, citizens, destinations, sexes, ages = (len(axis)
                                                   for axis in axes[:5])
    positive_share = config.positive_share
    max_count = config.max_count
    literals: Dict[int, Literal] = {}
    prefix = DATA["migr_asydcfstq/OBS_"].value
    random_ = rng.random
    randrange = rng.randrange
    choice = rng.choice
    paretovariate = rng.paretovariate

    seen: set = set()
    produced = 0
    attempts = 0
    max_attempts = wanted * 50
    while produced < wanted and attempts < max_attempts:
        attempts += 1
        decision_index = choice(positive if random_() < positive_share
                                else rejected)
        coordinate = (
            randrange(months),
            randrange(citizens),
            randrange(destinations),
            randrange(sexes),
            randrange(ages),
            decision_index,
        )
        if coordinate in seen:
            continue
        seen.add(coordinate)
        observation = IRI(f"{prefix}{produced:06d}")
        add(observation, rdf_type, observation_class)
        add(observation, data_set, dataset_iri)
        for (prop, axis), index in zip(components, coordinate):
            add(observation, prop, axis[index])
        value = min(int(paretovariate(1.4)), max_count)
        literal = literals.get(value)
        if literal is None:
            literal = literals[value] = Literal(value)
        add(observation, MEASURE_PROPERTY, literal)
        produced += 1
    return produced


def decisions_triples(config: Optional[DecisionsConfig] = None
                      ) -> List[Tuple[Term, Term, Term]]:
    """The decisions cube's triples in emission order: DSD + labels +
    data set + observations (what an endpoint loads in one batch)."""
    buffer = TripleBuffer()
    build_dsd(buffer)
    build_decision_labels(buffer)
    generate_observations(buffer, config)
    return buffer.triples


def build_decisions_graph(config: Optional[DecisionsConfig] = None) -> Graph:
    """The full plain-QB decisions graph: DSD + data set + observations."""
    from repro.data.namespaces import DEMO_PREFIXES

    graph = Graph()
    for prefix, namespace in DEMO_PREFIXES.items():
        graph.bind(prefix, namespace)
    graph.bind("dic-decision", DIC_DECISION)
    return graph.add_all(decisions_triples(config))
