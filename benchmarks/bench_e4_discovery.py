"""E4 — Fig. 4 (Enrichment example): candidate discovery under noise.

Regenerates the suggestion list for the citizenship dimension across
reference-data noise levels and quasi-FD thresholds.  Shape to
reproduce: exact-FD discovery (threshold 0) loses the continent
candidate as soon as the linked data degrades, while a tolerant
threshold keeps it available — the fine-tuning story of §III-A.
"""

import time

import pytest

from repro.data import small_demo
from repro.data.namespaces import PROPERTY, REF_PROP
from repro.demo import PAPER_DIMENSION_NAMES
from repro.enrichment import EnrichmentConfig, EnrichmentSession

NOISE_LEVELS = [0.0, 0.05, 0.10, 0.25]
THRESHOLDS = [0.0, 0.15, 0.30]


def discover(noise_rate: float, threshold: float):
    data = small_demo(observations=800, noise_rate=noise_rate)
    session = EnrichmentSession(
        data.endpoint, data.dataset, data.dsd,
        config=EnrichmentConfig(quasi_fd_threshold=threshold),
        dimension_names=PAPER_DIMENSION_NAMES)
    session.redefine()
    started = time.perf_counter()
    candidates = session.suggestions(PROPERTY.citizen)
    seconds = time.perf_counter() - started
    continent = next((c for c in candidates
                      if c.prop == REF_PROP.continent), None)
    return candidates, continent, seconds


def test_e4_noise_threshold_matrix(benchmark, save_rows):
    def sweep():
        rows = []
        for noise in NOISE_LEVELS:
            for threshold in THRESHOLDS:
                candidates, continent, seconds = discover(noise, threshold)
                if continent is None:
                    verdict = "rejected"
                else:
                    verdict = (f"{continent.kind:9s} "
                               f"error={continent.profile.fd_error:5.1%}")
                rows.append(
                    f"noise={noise:5.0%}  threshold={threshold:5.0%}  "
                    f"candidates={len(candidates):2d}  continent: {verdict}")
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_rows("E4_noise_matrix",
              "quasi-FD discovery matrix (citizenship dimension)", rows)

    # shape assertions: clean data always finds the level; dirty data
    # needs the threshold
    _, clean, _ = discover(0.0, 0.0)
    assert clean is not None and clean.kind == "level"
    _, strict_dirty, _ = discover(0.25, 0.0)
    assert strict_dirty is None
    _, tolerant_dirty, _ = discover(0.25, 0.30)
    assert tolerant_dirty is not None


def test_e4_discovery_cost(benchmark, save_rows):
    """Discovery issues one SELECT per member (the paper's workflow);
    cost grows with the member count, not the observation count."""
    data = small_demo(observations=800)
    session = EnrichmentSession(data.endpoint, data.dataset, data.dsd,
                                dimension_names=PAPER_DIMENSION_NAMES)
    session.redefine()
    members = len(session.levels[PROPERTY.citizen].members)

    def run():
        return session.suggestions(PROPERTY.citizen, refresh=True)

    benchmark(run)
    # counted around one refresh of its own: a disabled benchmark
    # (``--benchmark-disable``) keeps no round statistics to divide by
    data.endpoint.reset_statistics()
    candidates = run()
    selects_per_refresh = data.endpoint.statistics.selects
    save_rows("E4_discovery_cost",
              "per-member query workload",
              [f"members={members}  candidates={len(candidates)}  "
               f"SELECTs/refresh={selects_per_refresh}"])
    assert selects_per_refresh >= members
