"""The package parses as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import shiftlab

PACKAGE = Path(shiftlab.__file__).resolve().parent


def test_every_module_parses_as_python_3_10():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
