"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from bmquiver import compare, quiverf, wfib


def clear_memos() -> None:
    """Forget every process-wide memo: the per-edge pi0 and the frontier states
    and moves of the gluing walk, the resolution table of every object and the
    gamma row of every (ell, beta)."""
    wfib._edge_components.cache_clear()
    wfib._WALK.clear()
    quiverf._SHAPES.clear()
    compare._GAMMA_ROWS.clear()


@pytest.fixture(autouse=True)
def fresh_memos(request):
    """Clear the process-wide memos before and after every test that monkeypatches.

    The memos live in wfib, quiverf and compare for the whole process.  A
    test that patches a rule they were filled from (least_representatives,
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
