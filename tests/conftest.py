"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from bmquiver import wfib


def clear_gluing_memos() -> None:
    """Forget every per-edge pi0 and every frontier state and move of the gluing walk."""
    wfib._edge_components.cache_clear()
    wfib._WALK.clear()


@pytest.fixture(autouse=True)
def fresh_gluing_memos(request):
    """Clear the gluing memos before and after every test that monkeypatches.

    The memos live in wfib for the whole process.  A test that patches the
    kernel they were filled with (least_representatives, say) must not read
    verdicts from before the patch, and must leave none behind, whatever
    order the tests run in.  Being autouse, this fixture is torn down after
    monkeypatch has undone its patches.
    """
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    clear_gluing_memos()
    yield
    clear_gluing_memos()
