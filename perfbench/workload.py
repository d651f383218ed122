"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N [--trace]

Runs the workload's verification calls through bmquiver's public entry
points (``bmquiver.cli.main`` with stdout captured, and
``bmquiver.sweeps.xi_suite``), checks every output against the exact totals
and sha256 digests in ``expected.json``, and prints one JSON record.  A
fresh process per pass keeps the program's caches cold, as they are for a
user who runs ``bmquiver verify``, and makes the peak RSS that of one pass.
``bmquiver`` is imported from the ``src`` directory next to this one.

The speed probe (``probe.py``) runs in this process while the calls run;
the record gives every time both raw and speed-adjusted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import Probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("gluing-exhaustive", "edges-exhaustive", "sampled-mixed")
JOBS = {"gluing-exhaustive": 1, "edges-exhaustive": 1, "sampled-mixed": 2}
EDGE_SUITES = ("constancy", "naturality", "identification", "audit")
# The seven suites of the seed's `verify`, fixed here so that a suite added
# to the program later does not change the workload.
ALL_SUITES = (
    "cardinality",
    "constancy",
    "naturality",
    "decomposition",
    "gluing",
    "identification",
    "audit",
)
SAMPLES = 2500


def _verify(suite: str, *bounds: str) -> tuple[str, list[str]]:
    return suite, ["verify", "--suites", suite, *bounds, "--format", "json"]


def calls(workload: str, seed: int) -> list[tuple[str, list[str] | None]]:
    """(suite, argv) per call; argv None is the xi suite, called directly."""
    if workload == "gluing-exhaustive":
        return [_verify("gluing", "--max-k", "3", "--max-chain-len", "3")]
    if workload == "edges-exhaustive":
        return [_verify(s, "--max-k", "5", "--max-kprime", "5") for s in EDGE_SUITES] + [
            ("xi", None)
        ]
    if workload == "sampled-mixed":
        return [
            _verify(
                s, "--max-k", "5", "--max-chain-len", "4", "--samples", str(SAMPLES),
                "--seed", str(seed), "--jobs", str(JOBS[workload]),
            )
            for s in ALL_SUITES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _render(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check(workload: str, seed: int, suite: str, summary: dict, digest: str,
           expected: dict) -> list[str]:
    """Problems with one call's output; empty when it is exactly as expected."""
    problems = []
    want = expected[workload]
    if summary["failed"] != 0:
        problems.append(f"{suite}: {summary['failed']} instances failed")
    if workload == "sampled-mixed":
        total = summary["total"]
        if suite == "decomposition":
            # Sampled objects on [0] have no segments and are skipped.
            ok = 0 < total <= SAMPLES
        else:
            ok = total == SAMPLES
        if not ok:
            problems.append(f"{suite}: total {total} for {SAMPLES} samples")
        digests = want["sha256_by_seed"].get(str(seed), {})
        if suite in digests and digests[suite] != digest:
            problems.append(f"{suite}: sha256 {digest} != {digests[suite]}")
        return problems
    exact = want[suite]
    for key in ("total", "warned"):
        if summary[key] != exact[key]:
            problems.append(f"{suite}: {key} {summary[key]} != {exact[key]}")
    if digest != exact["sha256"]:
        problems.append(f"{suite}: sha256 {digest} != {exact['sha256']}")
    return problems


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import bmquiver

    if Path(bmquiver.__file__).resolve().parent != SRC / "bmquiver":
        raise RuntimeError(f"bmquiver imported from {bmquiver.__file__}, not {SRC}")
    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.install()
    from bmquiver import cli, sweeps, wfib

    expected = json.loads((HERE / "expected.json").read_text())
    suites = {}
    probe = Probe()
    probe.start()
    window_start = perf_counter()
    for suite, argv in calls(workload, seed):
        start = perf_counter()
        if argv is None:
            config = sweeps.SweepConfig(max_k=3, max_k_prime=3, max_chain_len=1)
            report = sweeps.xi_suite(config, max_target_size=3)
            end = perf_counter()
            exit_code = 0 if report.passed else 1
            text = _render(report.to_dict())
            cli_bytes = 0
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                exit_code = cli.main(argv)
            end = perf_counter()
            text = buf.getvalue()
            cli_bytes = len(text.encode())
        digest = hashlib.sha256(text.encode()).hexdigest()
        summary = {"total": 0, "failed": 0, "warned": 0}
        try:
            parsed = json.loads(text)
            if argv is not None:
                (parsed,) = parsed  # one suite per verify call
            summary = parsed["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"{suite}: unreadable output ({exc!r})"]
        else:
            problems = _check(workload, seed, suite, summary, digest, expected)
        if exit_code != 0:
            problems.append(f"{suite}: exit code {exit_code}")
        suites[suite] = {
            "wall_s": end - start,
            "window": [start, end],
            "total": summary["total"],
            "failed": summary["failed"],
            "warned": summary["warned"],
            "sha256": digest,
            "cli_bytes": cli_bytes,
            "problems": problems,
        }
    window_end = perf_counter()
    probe.stop()
    for suite_record in suites.values():
        suite_record["adjusted_s"] = probe.adjust(
            suite_record["wall_s"], *suite_record.pop("window")
        )
    wall_s = sum(s["wall_s"] for s in suites.values())
    record = {
        "workload": workload,
        "seed": seed,
        "suites": suites,
        "wall_s": wall_s,
        "adjusted_s": probe.adjust(wall_s, window_start, window_end),
        "speed": probe.speed(window_start, window_end),
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["trace"] = layer_metrics(tracer, wfib, suites, record["speed"])
    return record


def layer_metrics(tracer, wfib, suites: dict, speed: float) -> dict:
    """Per-layer counts, ratios with their bases, and self times.

    Times are speed-adjusted by the speed of the whole pass.
    """
    from tracer import FANOUT_SPAN, LAYERS

    calls = tracer.calls
    work = tracer.work
    out = {}
    for name in (
        "simplex.enumerate_maps", "bm.enumerate_edges", "quiverf.pairing_set",
        "quiverf.f_chain", "quiverf.f_object", "quotient.quotient",
        "compare.verify_constancy", "compare.verify_naturality",
        "compare.verify_edge_identification", "compare.xi_restriction_commutes",
        "compare.gamma_chain", "wfib.g_chain", "wfib.gluing_agreement",
    ):
        out[name + ".calls"] = calls[name]
    for name in ("simplex.maps_built", "bm.edges_kept", "quiverf.pairs", "quotient.elements"):
        out[name] = work[name]
    out["bm.edge_yield"] = _ratio(work["bm.edges_kept"], work["simplex.maps_built"])

    # The lru_cache of per-edge components; read only, and absent if a
    # later wfib drops it (the self-check then reports the mismatch).
    cache = getattr(wfib, "_edge_components", None)
    hits, misses = cache.cache_info()[:2] if hasattr(cache, "cache_info") else (0, 0)
    out["wfib.edge_cache_hits"] = hits
    out["wfib.edge_cache_lookups"] = hits + misses
    out["wfib.edge_cache_misses"] = misses
    out["wfib.edge_cache_hit_ratio"] = _ratio(hits, hits + misses)

    # Every gluing chain with an edge is one memo lookup; a miss runs
    # gluing_agreement.  Chains of length 0 call g_chain instead.
    gluing = suites.get("gluing", {"total": 0})
    memo_lookups = gluing["total"] - tracer.calls_from("sweeps.gluing_suite", "wfib.g_chain")
    memo_misses = tracer.calls_from("sweeps.gluing_suite", "wfib.gluing_agreement")
    out["sweeps.gluing.memo_hits"] = memo_lookups - memo_misses
    out["sweeps.gluing.memo_lookups"] = memo_lookups
    out["sweeps.gluing.memo_hit_ratio"] = _ratio(memo_lookups - memo_misses, memo_lookups)
    out["sweeps.fanout_wait_s"] = tracer.total_s[FANOUT_SPAN] * speed
    out["cli.output_bytes"] = sum(s["cli_bytes"] for s in suites.values())
    for layer in LAYERS:
        out[layer + ".self_s"] = tracer.layer_self_s(layer) * speed
    return out


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
