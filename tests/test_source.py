"""The package declares ``requires-python = ">=3.10"``: every source and
test file must parse with the Python 3.10 grammar."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    with pytest.raises(SyntaxError):  # the check refuses newer syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def unbounded_caches(source: str) -> list[int]:
    """Lines of ``source`` that import or apply ``functools.cache`` or call
    ``lru_cache`` with ``maxsize=None``: caches that grow with every key."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
            sizes = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "maxsize")]
            if any(isinstance(size, ast.Constant) and size.value is None for size in sizes):
                found.append(node.lineno)
    return found


def test_sources_keep_no_unbounded_cache():
    for bad in ("from functools import cache",
                "import functools\n@functools.cache\ndef f(x):\n    return x",
                "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x):\n    return x",
                "import functools\nf = functools.lru_cache(None)(abs)"):
        assert unbounded_caches(bad)
    assert unbounded_caches("from functools import lru_cache\n@lru_cache(maxsize=2)\n"
                            "def f(x):\n    return x") == []
    for path in sorted(ROOT.glob("src/**/*.py")):
        assert unbounded_caches(path.read_text()) == [], path
