"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Bounds and tolerances are fixed here; every numeric comparison is exact.
"""

from __future__ import annotations

import json
import time

from bmquiver import (
    BmChain,
    BmObject,
    enumerate_objects,
    f_object,
    f_object_via_segments,
    g_chain,
    j_cardinality_audit,
)
from bmquiver.cli import main
from bmquiver.sweeps import SweepConfig, gluing_suite, run_suite, xi_suite
from test_bm import enumerate_all_edges

OBJ = BmObject.parse


def record(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {description}{extra}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_cardinality_laws():
    start = time.perf_counter()
    objs = enumerate_objects(8)
    ok = len(objs) == 54
    for phi in objs:
        ok = ok and len(f_object(phi)) == max(0, 2 * phi.ell + phi.beta)
        ok = ok and len(g_chain(BmChain.vertex(phi))) == phi.ell + 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    record(
        1,
        "cardinality laws |F| = max(0, 2l+b), |G| = l+1 on all 54 objects, k <= 8",
        ok,
        f" ({elapsed:.3f}s)",
    )


def test_criterion_02_constancy_exhaustive():
    start = time.perf_counter()
    config = SweepConfig(max_k=5, max_k_prime=5)
    report = run_suite(config, "constancy")
    elapsed = time.perf_counter() - start
    ok = report.failed == 0 and report.total == 10697 and elapsed < 10.0
    record(
        2,
        "constancy of the comparison on all edges with k, k' <= 5, single-threaded",
        ok,
        f" ({report.total} edges, {elapsed:.2f}s)",
    )


def test_criterion_03_naturality_exhaustive():
    config = SweepConfig(max_k=5, max_k_prime=5)
    report = run_suite(config, "naturality")
    ok = report.failed == 0 and report.total == 10697
    record(
        3,
        "naturality squares (vertex and segment inclusions) on the same edge range",
        ok,
        f" ({report.total} edges)",
    )


def test_criterion_04_gluing_at_desk_scale():
    start = time.perf_counter()
    config = SweepConfig(max_k=3, max_k_prime=3, max_chain_len=3)
    report = gluing_suite(config)
    elapsed = time.perf_counter() - start
    ok = report.failed == 0 and report.total == 1120280 and elapsed < 30.0
    record(
        4,
        "edgewise gluing equals direct components on all chains of length <= 3, k_t <= 3",
        ok,
        f" ({report.total} chains, {elapsed:.1f}s)",
    )


def test_criterion_05_segment_gluing_for_labeled_sets():
    ok = True
    for phi in enumerate_objects(8):
        if phi.top == 0:
            continue
        rebuilt = f_object_via_segments(phi)
        ok = ok and len(set(rebuilt)) == len(rebuilt)
        ok = ok and sorted(rebuilt) == sorted(f_object(phi))
    record(5, "segment rebuild of the labeled set is bijective for 1 <= k <= 8", ok)


def test_criterion_06_regression_pins():
    ok = (
        len(f_object(OBJ("0"))) == 0
        and len(f_object(OBJ("00"))) == 2
        and len(f_object(OBJ("11"))) == 0
        and len(f_object(OBJ("01"))) == 1
    )
    record(6, "pinned values F(0) = {}, |F(00)| = 2, F(11) = {}, |F(01)| = 1", ok)


def test_criterion_07_pair_count_audit():
    config = SweepConfig(max_k=5, max_k_prime=5)
    report = run_suite(config, "audit")
    # pass gate: the count identity holds without exception when beta' = 0
    ok = report.failed == 0 and report.total == 10697
    # every mismatch is logged as a warning carrying its instance encoding
    mismatches = 0
    for edge in enumerate_all_edges(5, 5):
        audit = j_cardinality_audit(edge)
        if not audit.degenerate and not audit.raw_matches:
            mismatches += 1
    ok = ok and report.warned == mismatches
    keys = {inst["key"] for inst in report.instances if inst["status"] == "warn"}
    ok = ok and len(keys) == mismatches and all(k.startswith("phi=") for k in keys)
    record(
        7,
        "pair-count audit: exact identity for beta' = 0, warnings for every mismatch",
        ok,
        f" ({mismatches} warnings)",
    )


def test_criterion_08_edge_identification():
    config = SweepConfig(max_k=5, max_k_prime=5)
    report = run_suite(config, "identification")
    ok = report.failed == 0 and report.total == 10697
    record(
        8,
        "fiber element (1, i) and its image (0, p(i)) share a component class",
        ok,
        f" ({report.total} edges)",
    )


def test_criterion_09_hom_set_precomposition():
    config = SweepConfig(max_k=3, max_k_prime=3, max_chain_len=1)
    report = xi_suite(config, max_target_size=3)
    ok = report.failed == 0 and report.total == 545 * 4  # 14 vertices + 531 edges
    record(
        9,
        "hom-set precomposition commutes with vertex restriction, len <= 1, m <= 3",
        ok,
        f" ({report.total} instances)",
    )


def test_criterion_10_determinism(capsys):
    argv = [
        "verify",
        "--max-k",
        "2",
        "--max-kprime",
        "2",
        "--max-chain-len",
        "2",
        "--format",
        "json",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    sampled = [
        "verify",
        "--max-k",
        "3",
        "--samples",
        "100",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    main(sampled)
    third = capsys.readouterr().out
    main(sampled)
    fourth = capsys.readouterr().out
    round_trip = json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
    ok = first == second and third == fourth and round_trip == first
    with capsys.disabled():
        record(10, "repeated sweeps (exhaustive and seeded sampled) are byte-identical", ok)
