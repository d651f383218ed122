"""The README's library example runs and gives the results it shows, and
every command of its CLI block runs and passes."""

from __future__ import annotations

import shlex
from pathlib import Path

from bmquiver.cli import EXIT_PASS, main

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


def test_cli_examples_pass(capsys):
    """Each `bmquiver ...` line of the CLI block exits 0."""
    block = README.read_text().split("## CLI\n\n```sh\n")[1].split("```")[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line]
    assert len(commands) == 13
    for argv in commands:
        assert argv[0] == "bmquiver"
        assert main(argv[1:]) == EXIT_PASS, argv
    capsys.readouterr()
