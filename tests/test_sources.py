"""Lint of the package sources that CI would otherwise need a second Python for.

Internal checks must raise their own exceptions, so they still fail under
python -O, which strips every assert statement: the package has none.
pyproject.toml allows Python 3.10, so every module must parse with the
3.10 grammar, also where the tests run on a newer Python.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "iqgalois").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) > 5 and any(p.name == "quadform.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert_and_parses_as_python_3_10(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
