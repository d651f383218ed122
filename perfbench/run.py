"""bmquiver benchmark: verification reach per second on three sweep workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.

With ``--trace 0`` it times the cold start (the import of ``bmquiver.cli``
in a fresh interpreter) several times, then runs passes of the workload, each in
a fresh interpreter (``workload.py``), for about ``--seconds`` seconds, and
reports the medians.  Every time is reported speed-adjusted by the speed
probe (``probe.py``) that runs in the measured process: a shared host
changes speed too much within seconds for raw seconds to be comparable
between runs.  The raw seconds are given in the summary line.  With
``--trace 1`` it runs one untraced pass and one traced pass
(``tracer.py``) and reports per-layer numbers, the tracing overhead and
the tracer's self-check.  Every pass checks its outputs
against ``expected.json``.  Earlier lines of stdout give machine facts and
per-pass details; the last line is the JSON result.  Exits 2 without a
result when the program cannot be found or a pass crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workload import JOBS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 150

# Counts known in advance that prove every call site is wrapped.
TRACE_SELF_CHECK = {
    "gluing-exhaustive": {
        "wfib.gluing_agreement.calls": 251333,
        "wfib.edge_cache_misses": 125,
        "wfib.edge_cache_lookups": 748340,
    },
    "edges-exhaustive": {"compare.verify_naturality.calls": 10697},
}
SUITE_METRICS = ("gluing", "constancy", "naturality", "identification", "audit", "xi")


class PassError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{argv} timed out after {timeout} s")
    if proc.returncode != 0:
        raise PassError(f"{argv} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_samples() -> list[tuple[float, float]]:
    """(raw, speed-adjusted) import time of bmquiver.cli per fresh interpreter.

    The first interpreter, which writes the .pyc files, is not recorded.
    """
    argv = [sys.executable, str(HERE / "probe.py")]
    _run(argv, 60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        raw, adjusted = map(float, _run(argv, 60).split())
        samples.append((raw, adjusted))
    return samples


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    lines = _run(argv, PASS_TIMEOUT_S).strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise PassError(f"{argv} printed no record: {exc}")


def machine_facts(seed: int, workload: str) -> dict:
    ncores = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": ncores,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "jobs": JOBS[workload],
        "jobs_equals_cores": JOBS[workload] == ncores,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Identifies the program when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bmquiver").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _outcome(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a call with a problem counts as fully failed."""
    attempted = failed = 0
    problems = []
    for record in passes:
        for suite in record["suites"].values():
            attempted += suite["total"]
            if suite["problems"]:
                failed += suite["total"] or 1
                problems.extend(suite["problems"])
            else:
                failed += suite["failed"]
    return max(attempted, 1), failed, problems


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Speed-adjusted medians, and the raw medians in seconds beside them."""
    walls = [p["adjusted_s"] for p in passes]
    rates = [
        sum(s["total"] for s in p["suites"].values()) / wall for p, wall in zip(passes, walls)
    ]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "instances_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(adjusted for _, adjusted in setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median([p["peak_rss_mb"] for p in passes]), "unit": "MB"},
    }
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(raw for raw, _ in setup),
        "speed": statistics.median(p["speed"] for p in passes),
    }
    return metrics, raw


def per_suite(passes: list[dict]) -> dict:
    return {
        f"{suite}_s": statistics.median(p["suites"][suite]["adjusted_s"] for p in passes)
        for suite in passes[0]["suites"]
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    layer = traced["trace"]
    units = {"_s": "s", "_ratio": "ratio", "_yield": "ratio", "_bytes": "bytes"}
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    for suite in SUITE_METRICS:
        record = untraced["suites"].get(suite)
        metrics[f"suite.{suite}_s"] = {
            "value": record["adjusted_s"] if record else 0.0, "unit": "s"
        }
    metrics["trace.overhead_s"] = {
        "value": traced["adjusted_s"] - untraced["adjusted_s"], "unit": "s"
    }
    problems = [
        f"tracer self-check: {name} = {layer[name]}, expected {want}"
        for name, want in TRACE_SELF_CHECK.get(workload, {}).items()
        if layer[name] != want
    ]
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bmquiver" / "cli.py").is_file():
        print(f"error: no bmquiver sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": machine_facts(args.seed, args.workload)}), flush=True)
    try:
        if args.trace:
            untraced = run_pass(args.workload, args.seed, trace=False)
            traced = run_pass(args.workload, args.seed, trace=True)
            passes = [untraced, traced]
            metrics, trace_problems = per_layer(args.workload, untraced, traced)
        else:
            setup = setup_samples()
            passes = []
            start = perf_counter()
            while True:
                pass_start = perf_counter()
                passes.append(run_pass(args.workload, args.seed, trace=False))
                # Stop unless another pass of the same length still fits.
                end = perf_counter()
                if end - start + (end - pass_start) > args.seconds:
                    break
            print(json.dumps({"setup_s": setup}), flush=True)
            metrics, raw = end_to_end(passes, setup)
            trace_problems = []
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    reported = {name: metric["unit"] for name, metric in metrics.items()}
    if reported != units:
        print(f"error: metrics {sorted(set(reported.items()) ^ set(units.items()))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for record in passes:
        print(json.dumps({"pass": record}), flush=True)
    attempted, failed, problems = _outcome(passes)
    problems += trace_problems
    summary = {
        "passes": len(passes),
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "problems": problems,
    }
    if not args.trace:
        summary["raw_s"] = raw
        summary["per_suite_s"] = per_suite(passes)
    print(json.dumps({"summary": summary}), flush=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
