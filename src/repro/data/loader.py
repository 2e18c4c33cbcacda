"""One-call assembly of demo endpoints.

:func:`build_demo_endpoint` stands up the scenario from the paper's
§I/§IV: a local endpoint holding the plain-QB asylum cube (named graph
``graphs:qb``) and the linked reference data (``graphs:reference``).
The Enrichment module then writes its output into ``graphs:schema`` and
``graphs:instances``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.rdf.terms import IRI
from repro.sparql.endpoint import LocalEndpoint
from repro.data import geography as geo
from repro.data.eurostat import (
    DATASET_IRI,
    DSD_IRI,
    GeneratorConfig,
    qb_triples,
)
from repro.data.namespaces import (
    DEMO_PREFIXES,
    QB_GRAPH,
    REFERENCE_GRAPH,
)
from repro.data.reference import ReferenceConfig, build_reference_graph


@dataclass
class DemoData:
    """Handle onto a loaded demo endpoint."""

    endpoint: LocalEndpoint
    dataset: IRI
    dsd: IRI
    observations: int


def build_demo_endpoint(observations: int = 80_000,
                        seed: int = 42,
                        noise_rate: float = 0.0,
                        include_reference: bool = True,
                        endpoint: Optional[LocalEndpoint] = None) -> DemoData:
    """Load the synthetic Eurostat cube (+ reference data) into an endpoint."""
    endpoint = endpoint or LocalEndpoint()
    for prefix, namespace in DEMO_PREFIXES.items():
        endpoint.dataset.namespace_manager.bind(prefix, namespace)

    endpoint.insert_triples(qb_triples(GeneratorConfig(
        observations=observations, seed=seed)), graph=QB_GRAPH)

    if include_reference:
        reference = build_reference_graph(
            ReferenceConfig(noise_rate=noise_rate))
        endpoint.insert_triples(reference, graph=REFERENCE_GRAPH)
    return DemoData(
        endpoint=endpoint,
        dataset=DATASET_IRI,
        dsd=DSD_IRI,
        observations=observations,
    )


def small_demo_config(observations: int = 2_000,
                      seed: int = 11) -> GeneratorConfig:
    """The stratified generator configuration behind :func:`small_demo`.

    Strides through the tables so every continent / government kind is
    represented even in the small subset; France must be present for
    the paper's demo query to have matches.
    """
    destinations = list(geo.DESTINATION_COUNTRIES[::4])
    if all(country.code != "FR" for country in destinations):
        destinations.insert(1, geo.destination_by_code()["FR"])
    return GeneratorConfig(
        observations=observations,
        seed=seed,
        citizenship=geo.CITIZENSHIP_COUNTRIES[::3],
        destinations=destinations,
    )


def small_demo(observations: int = 2_000, seed: int = 11,
               noise_rate: float = 0.0) -> DemoData:
    """A test-sized variant (~2k observations, full reference graph)."""
    config = small_demo_config(observations, seed)
    endpoint = LocalEndpoint()
    for prefix, namespace in DEMO_PREFIXES.items():
        endpoint.dataset.namespace_manager.bind(prefix, namespace)
    endpoint.insert_triples(qb_triples(config), graph=QB_GRAPH)
    reference = build_reference_graph(ReferenceConfig(
        noise_rate=noise_rate,
        citizenship=config.citizenship,
        destinations=config.destinations,
    ))
    endpoint.insert_triples(reference, graph=REFERENCE_GRAPH)
    return DemoData(endpoint=endpoint, dataset=DATASET_IRI, dsd=DSD_IRI,
                    observations=observations)


@dataclass
class DecisionsData:
    """Handle onto the second (decisions) cube in an endpoint."""

    endpoint: LocalEndpoint
    dataset: IRI
    dsd: IRI
    observations: int


def add_decisions_cube(demo: DemoData,
                       observations: int = 20_000,
                       seed: int = 97,
                       small: bool = False) -> DecisionsData:
    """Load the asylum-*decisions* cube next to the applications cube.

    The decisions cube shares the citizenship/destination/time/sex/age
    dictionaries with the applications cube (conformed dimensions), so
    the endpoint then holds the "collection of cubes" the Exploration
    module chooses from, and drill-across analyses become possible.
    ``small=True`` restricts the dictionaries exactly like
    :func:`small_demo_config` so the two cubes stay aligned in tests.
    """
    from repro.data.decisions import (
        DATASET_IRI as DECISIONS_DATASET,
        DSD_IRI as DECISIONS_DSD,
        DecisionsConfig,
        decisions_triples,
    )

    if small:
        base = small_demo_config(seed=seed)
        config = DecisionsConfig(
            observations=observations, seed=seed,
            citizenship=base.citizenship, destinations=base.destinations)
    else:
        config = DecisionsConfig(observations=observations, seed=seed)
    demo.endpoint.insert_triples(decisions_triples(config), graph=QB_GRAPH)
    return DecisionsData(
        endpoint=demo.endpoint,
        dataset=DECISIONS_DATASET,
        dsd=DECISIONS_DSD,
        observations=observations,
    )
