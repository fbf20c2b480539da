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
