"""``tools/profile_round.py`` refuses a mistyped ``--wall`` name before
it sets anything up."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_round.py"


@pytest.mark.parametrize("name, resolved, offered", [
    ("repro.sparql.evaluator_walker.SolutionWalker._filter_table",
     "'repro.sparql.evaluator_walker' resolved, but has no 'SolutionWalker'",
     "PatternEvaluator"),
    ("repro.sparql.executor.QLExecutor.run",
     "'repro.sparql' resolved, but has no 'executor'", "LocalEndpoint"),
    ("repro.sparql.aggregation.Plan.fixed_sized",
     "'repro.sparql.aggregation.Plan' resolved, but has no 'fixed_sized'",
     "fixed_size"),
    ("nosuch.module.function", "no importable module", ""),
])
def test_a_mistyped_wall_name_is_a_usage_error(name, resolved, offered):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "dice_20k", "--wall",
         f"repro.sparql.aggregation.partials,{name}"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "usage:" in done.stderr and "error: --wall" in done.stderr
    assert resolved in done.stderr and offered in done.stderr
    assert done.stdout == ""  # nothing was set up, nothing profiled
