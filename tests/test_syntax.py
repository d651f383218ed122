"""Every Python file of the project parses as the oldest Python that CI runs."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: The oldest Python version in the CI matrix.
OLDEST = (3, 10)


def parse(source: str, filename: str = "<string>") -> ast.Module:
    return ast.parse(source, filename=filename, feature_version=OLDEST)


def test_every_source_parses_as_the_oldest_python():
    """Each .py file under src/, tests/ and perfbench/ parses at OLDEST."""
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) >= 27
    for path in paths:
        parse(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))


def test_newer_syntax_is_rejected():
    """The parse sees syntax newer than OLDEST: except* came in 3.11."""
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        parse("try:\n    pass\nexcept* ValueError:\n    pass\n")
