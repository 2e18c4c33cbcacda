"""Shared fixtures: a small enriched demo cube, reused across suites.

The enrichment pipeline is deterministic (seeded generators), so the
session-scoped fixtures are safe to share; tests must not mutate the
shared endpoint (tests that need mutation build their own).

This file also enforces process hygiene for the parallel star
aggregator: after every test module, the shared-memory registry must be
empty, no ``/dev/shm`` segment created by this process may remain, and
no worker process may outlive its pool.  A leak detected here names the module
that caused it, instead of surfacing as a resource-tracker warning at
interpreter exit.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time

import pytest
from hypothesis import settings

from repro.data import small_demo
from repro.demo import EnrichedDemo, enrich

# Every Hypothesis test draws the same examples on every run, so a
# failure replays; a fuzzer's find is pinned with ``@example``.  Each
# test's own ``@settings`` inherits this profile.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True, scope="module")
def parallel_hygiene(request):
    """Assert zero leaked SHM segments and zero orphaned workers.

    Module-scoped and autouse, so it tears down *after* any
    module-scoped fixture has closed its aggregator — every
    module gets the check for free.  Workers of a deliberately broken
    pool (chaos tests kill them mid-morsel) may still be exiting when
    the module ends, so lingering children get a short grace period
    before they count as orphans.
    """
    yield
    from repro.rdf.concurrency import SHM_SEGMENTS
    from repro.rdf.shm import SEGMENT_PREFIX

    module = request.module.__name__
    leaked = SHM_SEGMENTS.segment_names()
    assert leaked == [], \
        f"{module} leaked shared-memory registrations: {leaked}"
    if os.path.isdir("/dev/shm"):  # Linux: segments are visible as files
        pattern = f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"
        on_disk = sorted(glob.glob(pattern))
        assert on_disk == [], \
            f"{module} leaked /dev/shm segments: {on_disk}"
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = multiprocessing.active_children()
    assert not orphans, \
        f"{module} leaked worker processes: {orphans}"


@pytest.fixture(scope="session")
def enriched() -> EnrichedDemo:
    """A small (~1500 obs) fully enriched demo: endpoint + schema + engine."""
    demo = small_demo(observations=1500)
    return enrich(demo)


@pytest.fixture(scope="session")
def endpoint(enriched):
    return enriched.endpoint


@pytest.fixture(scope="session")
def schema(enriched):
    return enriched.schema


@pytest.fixture(scope="session")
def engine(enriched):
    return enriched.engine


@pytest.fixture(scope="session")
def star(enriched):
    """The ETL'd star schema + native engine for oracle comparisons."""
    from repro.olap import NativeOLAPEngine, extract_star_schema

    star_schema, _ = extract_star_schema(enriched.endpoint, enriched.schema)
    return NativeOLAPEngine(star_schema)
