from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bmquiver.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from bmquiver.sweeps import SUITE_NAMES, SweepConfig, xi_suite

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_eval_labeled_set(capsys):
    code, out = run(capsys, "eval", "F", "0001")
    assert code == EXIT_PASS
    assert "size: 5" in out


def test_eval_empty_component_set(capsys):
    code, out = run(capsys, "eval", "G", "1")
    assert code == EXIT_PASS
    assert "size: 0" in out


def test_eval_pairs(capsys):
    code, out = run(capsys, "eval", "pairs", "phi=001;phiPrime=01;map=1,2")
    assert code == EXIT_PASS
    assert "count: 2" in out


def test_eval_gamma_and_audit_json(capsys):
    code, out = run(capsys, "eval", "gamma", "001", "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["assignment"]["v0:x2(1)"] == "(0,0)"
    code, out = run(
        capsys, "eval", "audit", "phi=01;phiPrime=01;map=0,1", "--format", "json"
    )
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["rawCount"] == 2 and payload["effectiveMatches"] is True


def test_eval_xi(capsys):
    code, out = run(capsys, "eval", "xi", "01@2", "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert len(payload["table"]) == 2


def test_eval_xi_rejects_bad_target_size(capsys):
    assert main(["eval", "xi", "01@abc"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad target size 'abc'\n"


def test_eval_xi_refuses_oversized_table(capsys):
    # 10^10 rows: refused before any row is built
    assert main(["eval", "xi", "0000000000@10"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: xi table would have 10^10 = 10000000000 rows, more than 100000\n"


def test_parse_error_exit_code(capsys):
    assert main(["eval", "F", "zz"]) == EXIT_USAGE
    assert main(["eval", "pairs", "0001"]) == EXIT_USAGE
    assert main(["enumerate", "edges"]) == EXIT_USAGE


def test_enumerate_objects(capsys):
    code, out = run(capsys, "enumerate", "objects", "--max-k", "1")
    assert code == EXIT_PASS
    assert out.startswith("objects: 5")


@pytest.mark.parametrize(
    "phi,phi_prime,count", [("01", "01", 1), ("001", "01", 2)]
)
def test_enumerate_edges(capsys, phi, phi_prime, count):
    code, out = run(
        capsys, "enumerate", "edges", "--phi", phi, "--phiPrime", phi_prime
    )
    assert code == EXIT_PASS
    assert out.startswith(f"edges: {count}")
    # the dashed spelling is an alias
    code2, out2 = run(
        capsys, "enumerate", "edges", "--phi", phi, "--phi-prime", phi_prime
    )
    assert (code2, out2) == (code, out)


def test_enumerate_chains(capsys):
    code, out = run(capsys, "enumerate", "chains", "--max-k", "1", "--max-len", "1")
    assert code == EXIT_PASS
    assert out.startswith("chains: 19")  # one per edge between the 5 objects


def test_enumerate_chains_rejects_negative_length(capsys):
    assert main(["enumerate", "chains", "--max-len", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --max-len must be >= 0, got -1\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    assert main(["verify", "--max-k", "1", "--jobs", jobs]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"


def test_verify_has_no_exhaustive_flag(capsys):
    assert main(["verify", "--max-k", "1", "--exhaustive"]) == EXIT_USAGE


def test_verify_passes_and_reports_warnings(capsys):
    code, out = run(
        capsys,
        "verify",
        "--max-k",
        "2",
        "--max-kprime",
        "2",
        "--max-chain-len",
        "1",
        "--format",
        "json",
    )
    assert code == EXIT_PASS
    reports = json.loads(out)
    by_suite = {r["suite"]: r for r in reports}
    assert by_suite["constancy"]["summary"]["failed"] == 0
    assert by_suite["audit"]["summary"]["warned"] > 0
    warn_instance = by_suite["audit"]["instances"][0]
    assert warn_instance["status"] == "warn"
    assert warn_instance["key"].startswith("phi=")


def test_verify_json_round_trips(capsys):
    _, out = run(capsys, "verify", "--max-k", "2", "--format", "json")
    reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert reparsed == out


def test_verify_is_deterministic(capsys):
    args = ["verify", "--max-k", "2", "--max-chain-len", "2", "--format", "json"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_sampled_mode_is_reproducible(capsys):
    args = [
        "verify",
        "--max-k",
        "3",
        "--samples",
        "50",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    reports = json.loads(first)
    assert all(r["bounds"]["mode"] == "sampled" for r in reports)
    assert all(r["summary"]["total"] > 0 for r in reports)


def test_jobs_do_not_change_output(capsys):
    args = ["verify", "--max-k", "2", "--suites", "constancy", "audit", "--format", "json"]
    _, serial = run(capsys, *args)
    _, parallel = run(capsys, *args, "--jobs", "2")
    assert serial == parallel


def test_suite_selection(capsys):
    code, out = run(capsys, "verify", "--max-k", "1", "--suites", "cardinality")
    assert code == EXIT_PASS
    assert out.splitlines()[0].startswith("PASS cardinality")
    assert len([line for line in out.splitlines() if line.startswith("PASS")]) == 1


def test_sampled_mode_rejects_bad_config(capsys):
    assert main(["verify", "--max-k", "2", "--samples", "0"]) == EXIT_USAGE


def test_verify_xi_suite(capsys):
    code, out = run(capsys, "verify", "--max-k", "2", "--suites", "xi", "--format", "json")
    assert code == EXIT_PASS
    report = xi_suite(SweepConfig(max_k=2, max_k_prime=2), max_target_size=3)
    assert out == json.dumps([report.to_dict()], indent=2, sort_keys=True) + "\n"
    assert report.total == (9 + 109) * 4  # vertices and edges, targets of size 0..3


def test_default_battery_leaves_out_xi(capsys):
    _, out = run(capsys, "verify", "--max-k", "1", "--format", "json")
    assert [r["suite"] for r in json.loads(out)] == list(SUITE_NAMES)


@pytest.mark.parametrize("suite", ["constancy", "naturality", "identification", "audit"])
def test_edge_suites_match_the_benchmark_digests(capsys, suite):
    """The exhaustive k, k' <= 5 reports, byte for byte, as the benchmark expects them."""
    expected = json.loads(EXPECTED.read_text())["edges-exhaustive"][suite]
    argv = ["verify", "--suites", suite, "--max-k", "5", "--max-kprime", "5"]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_xi_suite_matches_the_benchmark_digest():
    expected = json.loads(EXPECTED.read_text())["edges-exhaustive"]["xi"]
    config = SweepConfig(max_k=3, max_k_prime=3, max_chain_len=1)
    report = xi_suite(config, max_target_size=3)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
