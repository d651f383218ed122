"""Fixtures shared by every test module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import bmquiver


def package_modules() -> list:
    """The package and every module in it."""
    return [bmquiver] + [
        importlib.import_module(f"bmquiver.{info.name}")
        for info in pkgutil.iter_modules(bmquiver.__path__)
    ]


def cached_functions() -> list:
    """Every functools cache defined in a module of the package."""
    return [
        value
        for module in package_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    ]


def clear_memos() -> None:
    """Forget every process-wide memo: each cached function of the package is cleared."""
    for function in cached_functions():
        function.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos(request):
    """Clear the process-wide memos before and after every test that monkeypatches.

    The memos are functools caches, kept for the whole process.  A test
    that patches a rule they were filled from (least_representatives,
    _resolve or _gamma, say) must not read entries from before the patch,
    and must leave none behind, whatever order the tests run in.  Being
    autouse, this fixture is torn down after monkeypatch has undone its
    patches.
    """
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    clear_memos()
    yield
    clear_memos()
