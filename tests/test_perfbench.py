"""The benchmark's traced self-check, run as the benchmark runs it.

`perfbench/run.py --trace 1` runs one untraced and one traced pass of a
workload in fresh interpreters.  It checks every output against the totals
and digests of `perfbench/expected.json`, and the traced pass against call
counts known in advance: one `verify_naturality` call per edge (10,697) on
edges-exhaustive, and 251,333 `gluing_agreement` calls with 125 misses in
748,340 `_edge_components` lookups on gluing-exhaustive.  sampled-mixed has
no pinned counts; its passes check the seed-1 digests of every suite.  A
change that moves a digest or a pinned count fails here.  The test only
reads `perfbench/`; bytecode writing is off, so the run leaves no file
there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["edges-exhaustive", "gluing-exhaustive", "sampled-mixed"])
def test_traced_self_check_holds(workload):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "0", "--trace", "1",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
