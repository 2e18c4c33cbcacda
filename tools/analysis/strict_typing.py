"""Strict-typing gate for the core modules.

The concurrency, columnar and statistics layers are the code whose
bugs surface as data corruption rather than stack traces, so they
carry the strictest typing bar in the repo:

* when **mypy** is installed, the gate runs ``mypy --strict`` over the
  core module set and fails on any error;
* when it is not (this container ships no third-party type checker,
  and the repo policy forbids installing one), the gate degrades to an
  AST-enforced strictness subset: every function parameter and return
  in the core modules must be annotated, and every ``type: ignore``
  must carry a bracketed error code (``type: ignore[misc]``) — a bare
  ignore silences *everything*, which is how dead ignores accumulate.

Either way the command line is the same (``make lint`` runs it)::

    python tools/analysis/strict_typing.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: The strictly-typed core module set (repo-relative).
CORE_MODULES = (
    "src/repro/rdf/columnar.py",
    "src/repro/rdf/concurrency.py",
    "src/repro/rdf/stats.py",
    "src/repro/olap/kernel.py",
)

#: ``# type: ignore`` with no ``[code]`` qualifier.
BARE_IGNORE = re.compile(r"#\s*type:\s*ignore(?!\[)")

#: Parameter names exempt from annotation (receivers).
RECEIVERS = {"self", "cls"}


def mypy_available() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


def run_mypy(modules: List[str]) -> int:
    command = [sys.executable, "-m", "mypy", "--strict",
               "--no-error-summary"] + modules
    process = subprocess.run(command, cwd=str(REPO_ROOT),
                             capture_output=True, text=True)
    output = (process.stdout + process.stderr).strip()
    if output:
        print(output)
    return process.returncode


def _missing_annotations(tree: ast.AST, path: str) -> List[str]:
    problems: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        for position, argument in enumerate(positional):
            if position == 0 and argument.arg in RECEIVERS:
                continue
            if argument.annotation is None:
                problems.append(
                    f"{path}:{node.lineno}: parameter "
                    f"`{argument.arg}` of `{node.name}` lacks a type "
                    f"annotation")
        for argument in arguments.kwonlyargs:
            if argument.annotation is None:
                problems.append(
                    f"{path}:{node.lineno}: keyword parameter "
                    f"`{argument.arg}` of `{node.name}` lacks a type "
                    f"annotation")
        for argument in (arguments.vararg, arguments.kwarg):
            if argument is not None and argument.annotation is None:
                problems.append(
                    f"{path}:{node.lineno}: star parameter "
                    f"`{argument.arg}` of `{node.name}` lacks a type "
                    f"annotation")
        if node.returns is None:
            problems.append(
                f"{path}:{node.lineno}: `{node.name}` lacks a return "
                f"annotation")
    return problems


def run_fallback(modules: List[str]) -> int:
    problems: List[str] = []
    for module in modules:
        path = REPO_ROOT / module
        source = path.read_text(encoding="utf-8")
        problems.extend(
            _missing_annotations(ast.parse(source, filename=module),
                                 module))
        for number, line in enumerate(source.splitlines(), start=1):
            if BARE_IGNORE.search(line):
                problems.append(
                    f"{module}:{number}: bare `type: ignore` (qualify "
                    f"with an error code, e.g. `type: ignore[misc]`)")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main() -> int:
    modules = list(CORE_MODULES)
    if mypy_available():
        status = run_mypy(modules)
        mode = "mypy --strict"
    else:
        status = run_fallback(modules)
        mode = "annotation fallback (mypy unavailable)"
    print(f"strict-typing [{mode}]: {len(modules)} core modules, "
          f"{'FAIL' if status else 'ok'}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
