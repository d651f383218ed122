"""The README's library example runs and gives the results it shows."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_results():
    """Each line followed by a `# result` comment evaluates to that result."""
    (block,) = [part.split("```")[0] for part in README.read_text().split("```python\n")[1:]]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for line, following in zip(lines, lines[1:] + [""]):
        if not line or line.startswith("#"):
            continue
        if following.startswith("# "):
            assert repr(eval(line, namespace)) == following[2:], line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 4
