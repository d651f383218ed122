"""`verify` writes its reports record by record: the bytes must be exactly the
reference renderings, json.dumps(indent=2, sort_keys=True) of the report dicts
for JSON and the line-joined text, and the writer must hold no copy of them."""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver.cli import EXIT_FAIL, _write_verify, main
from bmquiver.sweeps import EXTRA_SUITE_NAMES, SUITE_NAMES, SuiteReport, SweepConfig, run_suites
from test_sweeps import SMALL, gamma_off_by_one

ALL_SUITES = list(SUITE_NAMES + EXTRA_SUITE_NAMES)


def reference_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def reference_text(reports) -> str:
    """The text rendering as one string of joined lines, as verify built it before."""
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{flag} {r.suite}: {r.total} checked, {r.failed} failed, {r.warned} warned"
        )
        for inst in r.instances:
            lines.append(f"  [{inst['status']}] {inst['key']}")
            for witness in inst["witnesses"]:
                lines.append(f"      {witness}")
    return "\n".join(lines) + "\n"


def written(reports, fmt: str) -> str:
    out = io.StringIO()
    _write_verify(reports, fmt, out.write)
    return out.getvalue()


def assert_written_as_reference(reports) -> None:
    assert written(reports, "json") == reference_json(reports)
    assert written(reports, "text") == reference_text(reports)


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(max_k=3, max_k_prime=3, max_chain_len=2),
        SweepConfig(max_k=4, max_k_prime=3, max_chain_len=3, samples=400, seed=5),
    ],
    ids=["exhaustive", "sampled"],
)
def test_every_suite_is_written_as_the_reference(config):
    reports = run_suites(config, ALL_SUITES)
    assert [r.suite for r in reports] == ALL_SUITES
    # Some report lists warnings and some lists nothing.
    assert any(r.warned and r.instances for r in reports)
    assert any(not r.instances for r in reports)
    assert_written_as_reference(reports)
    for report in reports:
        assert_written_as_reference([report])


def test_no_report_is_written_as_the_reference():
    assert written([], "json") == reference_json([]) == "[]\n"
    assert written([], "text") == reference_text([]) == "\n"


def test_failing_reports_are_written_as_the_reference(monkeypatch):
    gamma_off_by_one(monkeypatch)
    reports = run_suites(SMALL, ["constancy", "naturality", "xi"])
    assert all(r.failed for r in reports)
    assert_written_as_reference(reports)


def test_verify_writes_the_pinned_failing_report(monkeypatch):
    gamma_off_by_one(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--max-k", "2", "--suites", "constancy", "naturality",
                     "--format", "json"])
    assert code == EXIT_FAIL
    expected = Path(__file__).parent / "data" / "gamma_mutant.json"
    assert out.getvalue() == expected.read_text()


# Any code point: control characters, non-ASCII and lone surrogates included.
TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
COUNTS = st.integers(min_value=0, max_value=10**12)


@st.composite
def suite_reports(draw):
    config = SweepConfig(
        max_k=draw(st.integers(0, 12)),
        max_k_prime=draw(st.integers(0, 12)),
        max_chain_len=draw(st.integers(0, 6)),
        samples=draw(st.none() | st.integers(1, 10**7)),
        seed=draw(st.integers(0, 2**32)),
    )
    instances = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "key": TEXT,
                    "status": st.sampled_from(["fail", "warn"]),
                    "witnesses": st.lists(TEXT, max_size=3),
                }
            ),
            max_size=4,
        )
    )
    return SuiteReport(
        suite=draw(st.sampled_from(ALL_SUITES) | TEXT),
        bounds=config.bounds_dict(),
        instances=instances,
        total=draw(COUNTS),
        failed=draw(COUNTS),
        warned=draw(COUNTS),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(suite_reports(), max_size=3))
def test_random_reports_are_written_as_the_reference(reports):
    assert_written_as_reference(reports)


def test_escaped_characters_are_written_as_the_reference():
    odd = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'
    report = SuiteReport(
        suite=odd,
        bounds=SweepConfig(samples=3, seed=7).bounds_dict(),
        instances=[
            {"key": odd, "status": "warn", "witnesses": [odd, ""]},
            {"key": "", "status": "fail", "witnesses": []},
        ],
        total=2,
        failed=1,
        warned=1,
    )
    assert_written_as_reference([report, report])


def test_the_writer_holds_no_copy_of_the_report():
    """The audit report at k, k' <= 5 (2,754 listed warnings, 553 KB of JSON)
    written into a sink that keeps nothing: json.dumps of it peaks at 2.8 MB."""
    (report,) = run_suites(SweepConfig(max_k=5, max_k_prime=5), ["audit"])
    assert len(report.instances) == 2754
    for fmt in ("json", "text"):
        tracemalloc.start()
        try:
            _write_verify([report], fmt, lambda text: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (fmt, peak)
