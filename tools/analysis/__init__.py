"""Repo-specific static analysis: AST lint rules + plan-IR verifier.

The engine (:mod:`analysis.lint`) walks the repository's Python files
with stdlib :mod:`ast` visitors and applies the repo-aware rule set in
:mod:`analysis.rules` — discipline checks the hand-written conventions
of the concurrency and columnar layers rely on.  Findings are
suppressible per line with ``# repro: allow[rule-id]`` and gated
against a checked-in baseline (``tools/analysis/baseline.json``), so
pre-existing accepted findings never block CI while new violations
fail it.

Run ``make lint`` (or ``python tools/analysis/run_lint.py``) for the
full gate: lint rules, the PhysicalPlan verifier over the generated
query corpus, and strict typing on the core modules.
"""
