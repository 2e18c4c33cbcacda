"""``tools/reachability.py``: the hook sees what an entry point calls,
and the source walk keys and sizes functions the way code objects do."""

import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


@pytest.fixture
def reachability(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import reachability
    return reachability


def test_quickstart_reaches_the_parser(reachability, tmp_path):
    reached, unexpected = reachability.trace(
        [([sys.executable, str(TOOL.parents[1] / "examples" / "quickstart.py")],
          0)], tmp_path, echo=False)
    assert unexpected == []
    split = reachability.buckets(reachability.functions(), reached, None)
    on = {(f.module, f.name) for f in split["pipeline"]}
    off = {(f.module, f.name) for f in split["off the pipeline"]}
    assert ("repro/sparql/parser.py", "parse_query") in on
    # the quick start prints text tables, never XML results
    assert ("repro/sparql/serializers.py", "results_to_xml") in off


def test_unexpected_exit_is_reported(reachability, tmp_path):
    _, unexpected = reachability.trace(
        [([sys.executable, "-c", "raise SystemExit(3)"], 0),
         ([sys.executable, "-c", "raise SystemExit(1)"], 1)],
        tmp_path, echo=False)
    assert len(unexpected) == 1
    assert unexpected[0].startswith("exit 3 (expected 0)")


def test_source_walk_keys_decorated_and_nested_defs(reachability, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import functools\n"            # 1
        "\n"                            # 2
        "@functools.lru_cache\n"        # 3
        "def outer():\n"                # 4
        "    def inner():\n"            # 5
        "        return 1\n"            # 6
        "    return inner\n"            # 7
        "\n"                            # 8
        "class C:\n"                    # 9
        "    def method(self):\n"       # 10
        "        return 2\n")           # 11
    found = {f.name: f for f in reachability.functions(package)}
    assert found["outer"].key == (str(package / "mod.py"), 3)
    assert found["outer"].lines == 5 - 2  # lines 3-7 less inner's 5-6
    assert found["outer.inner"].lines == 2
    assert found["C.method"].module == "pkg/mod.py"
    assert found["C.method"].lines == 2
