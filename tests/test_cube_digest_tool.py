"""``tools/cube_digest.py`` prints the count and emission-order digest
of a seeded generator's observations — the same figure a list sink
gives in process."""

import subprocess
import sys
from pathlib import Path

from repro.data import decisions

from tests.data.test_cube_digest import digest, emitted

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cube_digest.py"


def run(*args):
    done = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)
    return done


def test_the_tool_prints_the_pinned_eurostat_digest():
    done = run("--observations", "1000", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "eurostat observations=1000 seed=1",
        "triples 9000",
        "sha256 d162c96f9b8a0696de42f1597304d558e1a5f776d6b1f5cb162130314a44e3fb",
    ]
    assert done.stderr.startswith("seconds ")


def test_the_tool_agrees_with_a_list_sink_on_decisions():
    done = run("--observations", "1000", "--seed", "2", "--cube",
               "decisions")
    assert done.returncode == 0, done.stderr
    count, sha = digest(emitted(decisions, decisions.DecisionsConfig(
        observations=1000, seed=2)))
    assert done.stdout.splitlines()[1:] == [f"triples {count}",
                                            f"sha256 {sha}"]


def test_a_negative_count_is_a_usage_error():
    done = run("--observations", "-1", "--seed", "1")
    assert done.returncode == 2
    assert "usage:" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
