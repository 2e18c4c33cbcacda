#!/usr/bin/env python
"""Count and digest of the triples a cube generator emits.

Runs ``generate_observations`` of the Eurostat applications cube
(``repro.data.eurostat``) or of the decisions cube
(``repro.data.decisions``) into a sink that hashes each triple's
N-Triples line as it arrives, and prints the triple count and the
sha256 over those lines **in emission order** — not sorted, because
first-sight order decides every dictionary id a load gives the terms.
The DSD is not part of it: only the observation loop.

Usage::

    python tools/cube_digest.py --observations 1000340 --seed 1
    python tools/cube_digest.py --observations 2000 --seed 97 \\
        --cube decisions

A generator change that moves the digest moves every seeded figure
that builds on the cube — the benchmark's included — so it is a change
of the benchmark's definition, not an optimisation.  The sink keeps no
triple, so the 1M cube needs no more memory than the generator's own
set of drawn coordinates.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Any, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]


class DigestSink:
    """Stands where a generator expects a graph: counts each triple and
    feeds its N-Triples line to a running sha256."""

    def __init__(self) -> None:
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, subject: Any, predicate: Any, obj: Any) -> None:
        self.count += 1
        self._hash.update(
            f"{subject.n3()} {predicate.n3()} {obj.n3()} .\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def cube_digest(observations: int, seed: int,
                cube: str = "eurostat") -> Tuple[int, str]:
    """``(triple count, sha256 hex)`` of the seeded observation loop."""
    if cube == "eurostat":
        from repro.data.eurostat import (GeneratorConfig as Config,
                                         generate_observations)
    else:
        from repro.data.decisions import (DecisionsConfig as Config,
                                          generate_observations)
    sink = DigestSink()
    generate_observations(sink, Config(observations=observations,
                                       seed=seed))
    return sink.count, sink.hexdigest()


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description="Triple count and emission-order sha256 of a seeded "
                    "cube generator's observations.")
    parser.add_argument("--observations", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cube", choices=("eurostat", "decisions"),
                        default="eurostat")
    args = parser.parse_args(argv)
    if args.observations < 0:
        parser.error("--observations must not be negative")
    started = time.perf_counter()
    count, digest = cube_digest(args.observations, args.seed, args.cube)
    elapsed = time.perf_counter() - started
    print(f"{args.cube} observations={args.observations} seed={args.seed}")
    print(f"triples {count}")
    print(f"sha256 {digest}")
    print(f"seconds {elapsed:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
