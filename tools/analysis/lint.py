"""The AST lint engine: findings, suppression pragmas, baselines.

This module is rule-agnostic infrastructure; the repo-aware rules live
in :mod:`analysis.rules`.  Three pieces:

* :class:`Finding` — one violation, with a content-addressed
  *fingerprint* (path + rule + hash of the offending source line) so
  baseline entries survive unrelated line-number churn;
* suppression — a ``# repro: allow[rule-id]`` comment on the flagged
  line or the line directly above silences that rule there (several
  ids may be comma-separated); every suppression is expected to carry
  a neighbouring comment saying *why*;
* :class:`Baseline` — a checked-in JSON set of accepted fingerprints
  (``tools/analysis/baseline.json``): findings in the baseline are
  reported but do not fail the build, new findings do, and stale
  baseline entries (fixed code) are reported so the file gets pruned.

The engine has no third-party dependencies: stdlib ``ast`` only.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: ``# repro: allow[rule-id]`` (or ``allow[a, b]``) suppression pragma.
ALLOW_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([a-z0-9\-_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str       # repo-relative, forward slashes
    line: int       # 1-based
    message: str
    snippet: str    # the stripped offending source line

    @property
    def fingerprint(self) -> str:
        """Content-addressed id used by the baseline: stable across
        moves of the offending line, invalidated when it changes."""
        digest = hashlib.sha256(self.snippet.encode("utf-8")).hexdigest()
        return f"{self.path}:{self.rule}:{digest[:12]}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id``, say why the rule exists in their docstring
    and implement :meth:`check`; :meth:`applies_to` scopes the rule to
    the files it understands (repo-relative posix paths).
    """

    id: str = ""

    def applies_to(self, path: str) -> bool:
        raise NotImplementedError

    def check(self, path: str, tree: ast.AST,
              lines: Sequence[str]) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str,
                lines: Sequence[str]) -> Finding:
        line = getattr(node, "lineno", 1)
        snippet = lines[line - 1].strip() if line <= len(lines) else ""
        return Finding(self.id, path, line, message, snippet)


def allowed_lines(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map of 1-based line number -> rule ids suppressed there.

    A pragma suppresses its own line and the line below it, so both
    trailing-comment and own-line-comment styles work.
    """
    allowed: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = ALLOW_PRAGMA.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",")
               if part.strip()}
        allowed.setdefault(number, set()).update(ids)
        allowed.setdefault(number + 1, set()).update(ids)
    return allowed


def _suppressed(finding: Finding, allowed: Dict[int, Set[str]]) -> bool:
    ids = allowed.get(finding.line)
    return ids is not None and finding.rule in ids


def lint_file(path: pathlib.Path, rules: Sequence[Rule],
              root: pathlib.Path = REPO_ROOT) -> List[Finding]:
    """All unsuppressed findings for one file."""
    rel = path.resolve().relative_to(root).as_posix()
    applicable = [rule for rule in rules if rule.applies_to(rel)]
    if not applicable:
        return []
    source = path.read_text(encoding="utf-8")
    return lint_source(source, rel, applicable)


def lint_source(source: str, path: str,
                rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """All unsuppressed findings for ``source`` presented as ``path``.

    The main entry point for tests and docs: rules are scoped by the
    *claimed* path, so a fixture snippet exercises exactly the rules
    that would fire on a real file at that location.
    """
    if rules is None:
        from analysis.rules import ALL_RULES
        rules = [rule for rule in ALL_RULES if rule.applies_to(path)]
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    allowed = allowed_lines(lines)
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(path, tree, lines):
            if not _suppressed(finding, allowed):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_paths(paths: Iterable[pathlib.Path], rules: Sequence[Rule],
               root: pathlib.Path = REPO_ROOT) -> List[Finding]:
    findings: List[Finding] = []
    for path in paths:
        findings.extend(lint_file(path, rules, root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def default_targets(root: pathlib.Path = REPO_ROOT) -> List[pathlib.Path]:
    """The python files the repo gate lints: src, tests, benchmarks."""
    targets: List[pathlib.Path] = []
    for base in ("src", "tests", "benchmarks"):
        for path in sorted((root / base).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            targets.append(path)
    return targets


class Baseline:
    """The checked-in set of accepted finding fingerprints."""

    def __init__(self, fingerprints: Dict[str, str]) -> None:
        #: fingerprint -> human-readable location note
        self.fingerprints = dict(fingerprints)

    @classmethod
    def load(cls, path: pathlib.Path) -> "Baseline":
        if not path.exists():
            return cls({})
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(data.get("accepted", {}))

    def save(self, path: pathlib.Path) -> None:
        payload = {
            "comment": "Accepted pre-existing lint findings; new "
                       "findings fail the build.  Regenerate with "
                       "`python tools/analysis/run_lint.py "
                       "--update-baseline` and justify every entry "
                       "in the PR.",
            "accepted": dict(sorted(self.fingerprints.items())),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")

    def split(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Finding], List[str]]:
        """``(new, accepted, stale)`` relative to this baseline."""
        seen: Set[str] = set()
        new: List[Finding] = []
        accepted: List[Finding] = []
        for finding in findings:
            fp = finding.fingerprint
            seen.add(fp)
            (accepted if fp in self.fingerprints else new).append(finding)
        stale = sorted(fp for fp in self.fingerprints if fp not in seen)
        return new, accepted, stale


def run(paths: Optional[Sequence[pathlib.Path]] = None,
        baseline_path: Optional[pathlib.Path] = None,
        update_baseline: bool = False,
        root: pathlib.Path = REPO_ROOT) -> int:
    """The CLI body: lint, apply the baseline, print, return exit code."""
    from analysis.rules import ALL_RULES
    if baseline_path is None:
        baseline_path = root / "tools" / "analysis" / "baseline.json"
    targets = list(paths) if paths else default_targets(root)
    findings = lint_paths(targets, ALL_RULES, root)
    baseline = Baseline.load(baseline_path)
    if update_baseline:
        baseline = Baseline({f.fingerprint: f.render() for f in findings})
        baseline.save(baseline_path)
        print(f"baseline updated: {len(findings)} accepted finding(s) "
              f"-> {baseline_path.relative_to(root)}")
        return 0
    new, accepted, stale = baseline.split(findings)
    for finding in new:
        print(finding.render())
    for finding in accepted:
        print(f"{finding.render()} (baselined)")
    for fingerprint in stale:
        print(f"stale baseline entry (fixed? prune it): {fingerprint}")
    checked = len(targets)
    print(f"lint: {checked} files, {len(new)} new finding(s), "
          f"{len(accepted)} baselined, {len(stale)} stale baseline "
          f"entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if new or stale else 0
