"""The documentation's embedded examples must execute (make docs-check).

Runs the same checker as the Makefile target inside the tier-1 suite,
so ``pytest`` alone fails when a README / docs code example drifts from
the engine's actual behaviour.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_docs_examples_execute():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(ROOT))
    assert result.returncode == 0, (
        f"docs examples failed:\n{result.stdout}\n{result.stderr}")


def test_rule_table_lists_every_lint_rule_once():
    if str(ROOT / "tools") not in sys.path:
        sys.path.insert(0, str(ROOT / "tools"))
    from analysis.rules import RULES_BY_ID

    text = (ROOT / "docs" / "analysis.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| `([a-z0-9-]+)` \|", text, re.MULTILINE)
    assert sorted(listed) == sorted(RULES_BY_ID)


def test_required_docs_exist():
    for name in ("README.md", "docs/architecture.md",
                 "docs/statistics.md", "docs/performance.md",
                 "docs/analysis.md"):
        assert (ROOT / name).exists(), f"{name} is missing"
