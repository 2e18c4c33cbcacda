"""Shared benchmark fixtures.

Scale knobs:

* ``REPRO_BENCH_OBS`` (default 20 000 observations) — set to 80000 to
  reproduce the paper's full demo subset;
* ``REPRO_BENCH_SCALE`` (default 1) — a multiplier applied on top of
  ``REPRO_BENCH_OBS``, so one environment variable sweeps the whole
  suite from the smoke default to the columnar store's 100k–1M-row
  range (``REPRO_BENCH_SCALE=50`` → 1M observations) without editing
  fixture code.

All fixtures are session-scoped; enrichment benchmarks that need
pristine endpoints build their own smaller ones.

Each bench also appends its paper-shaped rows to
``benchmarks/results/<exp>.txt`` so the regenerated series survive the
pytest-benchmark table.  The directory is not tracked (``.gitignore``
lists it): every run rewrites what it holds, on the machine it ran on.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.demo import EnrichedDemo, prepare_enriched_demo

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
BENCH_OBSERVATIONS = int(
    int(os.environ.get("REPRO_BENCH_OBS", "20000")) * BENCH_SCALE)
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def demo() -> EnrichedDemo:
    """The paper-scale enriched demo (built once per session)."""
    return prepare_enriched_demo(
        observations=BENCH_OBSERVATIONS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def star_engine(demo):
    from repro.olap import NativeOLAPEngine, extract_star_schema

    star, report = extract_star_schema(demo.endpoint, demo.schema)
    engine = NativeOLAPEngine(star)
    engine.etl_report = report  # stash for E9
    return engine


@pytest.fixture(scope="session")
def save_rows():
    """Writer for the regenerated per-experiment series."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def writer(experiment: str, header: str, rows: list[str]) -> None:
        path = RESULTS_DIR / f"{experiment}.txt"
        lines = [f"# {experiment} — observations={BENCH_OBSERVATIONS}",
                 header] + rows
        path.write_text("\n".join(lines) + "\n")
        print(f"\n[{experiment}]")
        print(header)
        for row in rows:
            print(row)

    return writer
