from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bmquiver import cli
from bmquiver.bm import count_edges, enumerate_objects
from bmquiver.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from bmquiver.errors import ValidationError
from bmquiver.sweeps import EXTRA_SUITE_NAMES, SUITE_NAMES, SweepConfig, xi_suite
from test_sweeps import concrete_chains

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


@pytest.mark.parametrize("size", ["٢", "+2"], ids=["arabic-indic-two", "plus-two"])
def test_eval_xi_target_size_is_ascii_digits(capsys, size):
    """int() takes "+2" and non-ASCII digits; the size, like a map image, does not."""
    assert main(["eval", "xi", f"01@{size}"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: bad target size {size!r}\n"


def test_eval_xi_rejects_empty_target_size(capsys):
    """An "@" with no size is an error, not the default size of a bare chain."""
    assert main(["eval", "xi", "01@"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad target size ''\n"


def test_eval_xi_refuses_oversized_table(capsys):
    # 10^10 rows: refused before any row is built
    assert main(["eval", "xi", "0000000000@10"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: xi table would have 10^10 = 10000000000 rows, more than 100000\n"


def test_parse_error_exit_code(capsys):
    assert main(["eval", "F", "zz"]) == EXIT_USAGE
    assert main(["eval", "pairs", "0001"]) == EXIT_USAGE
    assert main(["enumerate", "edges"]) == EXIT_USAGE


@pytest.mark.parametrize("entity", ["pairs", "audit"])
@pytest.mark.parametrize(
    "instance",
    ["0001", "phi=01;phiPrime=01;map=0,1|phi=01;phiPrime=01;map=0,1"],
    ids=["object", "two-edge chain"],
)
def test_pairs_and_audit_need_a_single_edge(capsys, entity, instance):
    assert main(["eval", entity, instance]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {entity} needs a single edge encoding\n")


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


def test_enumerate_chains_counts_before_listing(capsys):
    code, out = run(
        capsys, "enumerate", "chains", "--max-k", "2", "--max-len", "3", "--format", "json"
    )
    assert code == EXIT_PASS and json.loads(out)["count"] == 18097
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b73c5bbb95ebd3026209e4ab5e1d0d34d38680a100dc3ca820682bc2a2b1fe15"
    )
    assert main(["enumerate", "chains", "--max-k", "3", "--max-len", "4"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: enumerate chains would list 50122194 chains, more than 100000\n"
    )
    # Past 100,000 ** 2 chains the count stops at a lower bound, whatever the length.
    assert main(["enumerate", "chains", "--max-k", "3", "--max-len", "10000000"]) == EXIT_USAGE
    assert "would list at least " in capsys.readouterr().err


#: Two copies of this object have 1,828,114,918,084 edges between them.
WIDE = "0" * 12 + "1" * 12


@pytest.mark.parametrize(
    "argv,kind,count",
    [
        (["objects", "--max-k", "500"], "objects", 126252),
        (["edges", "--phi", WIDE, "--phi-prime", WIDE], "edges", 1828114918084),
    ],
)
def test_enumerate_counts_objects_and_edges_before_listing(capsys, argv, kind, count):
    """Like chains, objects and edges are counted first and refused past 100,000."""
    assert main(["enumerate", *argv]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: enumerate {kind} would list {count} {kind}, more than 100000\n"
    )


def test_enumerate_chains_rejects_negative_length(capsys):
    assert main(["enumerate", "chains", "--max-len", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --max-len must be >= 0, got -1\n"


@pytest.mark.parametrize("max_k,max_len", [(2, 2), (1, 4)])
def test_enumerate_chains_lists_in_edge_order(capsys, max_k, max_len):
    """Every chain of the length, first edges outermost, each edge in the
    order of the edges leaving its source."""
    code, out = run(
        capsys, "enumerate", "chains", "--max-k", str(max_k), "--max-len", str(max_len),
        "--format", "json",
    )
    expected = [c.encode() for c in concrete_chains(max_k, max_len) if c.length == max_len]
    assert code == EXIT_PASS and json.loads(out)["items"] == expected


@pytest.mark.parametrize(
    "max_k,max_len,code,count",
    [
        ("0", "2000", EXIT_PASS, 2),
        ("0", "40000", EXIT_PASS, 2),
        ("0", "100000000", EXIT_USAGE, None),
        ("12", "0", EXIT_PASS, 104),
        ("100", "1", EXIT_USAGE, None),
    ],
)
def test_enumerate_chains_bounds_before_building(capsys, max_k, max_len, code, count):
    """Long chains list without recursion or copied prefixes; objects and
    edges are counted, not built, before the bound."""
    start = perf_counter()
    assert main(["enumerate", "chains", "--max-k", max_k, "--max-len", max_len]) == code
    assert perf_counter() - start < 2
    out, err = capsys.readouterr()
    if max_len == "100000000":
        assert err == (
            "error: enumerate chains would list 2 chains of 100000000 edges, "
            "200000000 edges, more than 1000000\n"
        )
    elif count is None:
        assert err.startswith("error: enumerate chains would list at least ")
    else:
        assert out.startswith(f"chains: {count}\n")
        assert len(out.splitlines()) == count + 1


#: Edge encodings with a repeated key, or with an image that int() takes but
#: that is not ASCII digits.
STRICT_ENCODINGS = [
    "phi=00;phi=0;phiPrime=0;map=0",
    "phi=0;phiPrime=0;map=0_0",
    "phi=0;phiPrime=0;map=+0",
    "phi=0;phiPrime=0;map=\u0660",
]


@pytest.mark.parametrize("encoding", STRICT_ENCODINGS)
def test_eval_rejects_a_repeated_key_and_non_digit_images(capsys, encoding):
    assert main(["eval", "F", encoding]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


ENCODINGS = st.one_of(
    st.sampled_from(
        [
            "0", "01", "0011", "01@2", "01@x", "0001@", "01@-1", "phi=001;phiPrime=01;map=1,2",
            "phi=01;phiPrime=01;map=0,1", "phi=0;phiPrime=0;map=0|phi=0;phiPrime=0;map=0",
            "phi=01;phiPrime=0;map=9", "phi=0;phiPrime=0;map=0|", "phi=0;map=0",
            *STRICT_ENCODINGS,
        ]
    ),
    st.text(alphabet="01,;=|@-xphiPrmap", max_size=40),
)
SMALL = st.integers(-2, 3).map(str) | st.sampled_from(["x", "", "1.5"])


@st.composite
def cli_argvs(draw):
    """argv for eval, enumerate and verify: garbage encodings, small bounds."""
    command = draw(st.sampled_from(["eval", "enumerate", "verify"]))
    fmt = draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    if command == "eval":
        entity = draw(st.sampled_from(["F", "G", "gamma", "pairs", "audit", "xi", "H"]))
        return ["eval", entity, draw(ENCODINGS), *fmt]
    if command == "enumerate":
        kind = draw(st.sampled_from(["objects", "edges", "chains", "chains", "maps"]))
        max_k = draw(st.just("0") | SMALL)
        # Only the two objects on [0] have one edge each, so long chains stay
        # few; half of these lengths are long.
        long = st.integers(0, 3000) | st.integers(1000, 3000)
        length = draw(long if max_k == "0" else SMALL)
        extra = draw(st.sampled_from([[], ["--phi"], ["--phi-prime"], ["--phi", "--phi-prime"]]))
        options = [item for flag in extra for item in (flag, draw(ENCODINGS))]
        return ["enumerate", kind, "--max-k", max_k, "--max-len", str(length), *options, *fmt]
    argv = ["verify", "--max-k", draw(st.integers(-1, 2).map(str) | st.just("x"))]
    argv += ["--max-chain-len", draw(st.integers(-1, 3).map(str))]
    if draw(st.booleans()):
        argv += ["--max-kprime", draw(SMALL)]
    if draw(st.booleans()):
        argv += ["--samples", draw(st.integers(-1, 30).map(str)), "--seed", draw(SMALL)]
    if draw(st.booleans()):
        names = list(SUITE_NAMES + EXTRA_SUITE_NAMES) + ["bogus"]
        argv += ["--suites", *draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))]
    return [*argv, *fmt]


@settings(max_examples=60, deadline=None)
@example(["enumerate", "chains", "--max-k", "0", "--max-len", "2000"])
@example(["enumerate", "edges", "--phi", WIDE, "--phi-prime", WIDE])
@example(["verify", "--suites", "gluing", "--max-k", "0", "--max-chain-len", "1200"])
@given(cli_argvs())
def test_fuzzed_argv_exits_without_raising(argv):
    """Whatever the argv, main returns an exit code: it never raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    assert main(["verify", "--max-k", "1", "--jobs", jobs]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"


def test_exhaustive_gluing_runs_past_the_recursion_limit(capsys):
    """Chains of 1,200 edges, more than Python's default 1,000 frames: the
    walk keeps its own stack.  On [0] each length has two chains."""
    code, out = run(
        capsys, "verify", "--suites", "gluing", "--max-k", "0", "--max-chain-len", "1200",
        "--format", "json",
    )
    assert code == EXIT_PASS
    assert json.loads(out)[0]["summary"] == {"failed": 0, "total": 2402, "warned": 0}


@pytest.mark.parametrize(
    "suites,bounds",
    [
        (["gluing"], ["--max-k", "2"]),
        (["cardinality", "decomposition"], ["--max-k", "2"]),
        (["xi", "gluing"], ["--max-k", "2", "--max-chain-len", "0"]),
    ],
)
def test_verify_rejects_max_kprime_that_no_suite_reads(capsys, suites, bounds):
    """--max-kprime bounds edge targets; where no requested suite checks an
    edge it would be ignored, so verify exits 2 and names the option."""
    assert main(["verify", "--suites", *suites, *bounds, "--max-kprime", "5"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --max-kprime is not read: no edge in suites {' '.join(suites)}\n"


def test_verify_takes_max_kprime_where_a_suite_checks_edges(capsys):
    """One suite that checks edges is enough, xi once chains of length 1 are in range."""
    for suites in (["gluing", "xi"], ["cardinality", "audit"]):
        argv = ["verify", "--suites", *suites, "--max-k", "1", "--max-kprime", "2"]
        code, out = run(capsys, *argv, "--max-chain-len", "1", "--format", "json")
        assert code == EXIT_PASS
        assert [r["bounds"]["maxKPrime"] for r in json.loads(out)] == [2, 2]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--max-k", "99999", "--suites", "cardinality"], "--max-k"),
        (["--max-k", "99999", "--samples", "10", "--suites", "gluing"], "--max-k"),
        (["--max-k", "2", "--max-kprime", "99999", "--suites", "constancy"], "--max-kprime"),
        (["--max-k", "2", "--max-kprime", "99999", "--suites", "xi"], "--max-kprime"),
    ],
)
def test_verify_counts_its_objects_before_building_them(argv, flag):
    """Every suite builds the objects on [k <= --max-k], and a suite that
    checks edges those on [k <= --max-kprime]: past 100,000 of them, counted
    in closed form as (K + 1)(K + 4) / 2, verify exits 2 at once and names
    the count, with no traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bmquiver.cli", "verify", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert perf_counter() - start < 10
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert done.stderr == (
        f"error: verify would build 5000150000 objects for {flag} 99999, more than 100000\n"
    )


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (
            ["--max-k", "40", "--suites", "constancy"],
            EXIT_USAGE,
            "error: verify would build at least 19762820 edges, more than 10000000\n",
        ),
        (
            ["--max-k", "1", "--samples", "10000001"],
            EXIT_USAGE,
            "error: verify would draw 10000001 samples, more than 10000000\n",
        ),
        (["--max-k", "5", "--max-kprime", "5", "--suites", "constancy"], EXIT_PASS, ""),
        (["--max-k", "40", "--samples", "10", "--suites", "constancy"], EXIT_PASS, ""),
        (["--max-k", "40", "--samples", "10", "--suites", "gluing"], EXIT_PASS, ""),
        (
            ["--suites", "gluing", "--samples", "1", "--max-k", "1",
             "--max-chain-len", "100000000", "--seed", "0"],
            EXIT_USAGE,
            "error: verify would draw up to 100000000 chain edges, more than 10000000\n",
        ),
    ],
)
def test_verify_counts_its_edges_and_draws_before_building_them(argv, code, err):
    """An exhaustive edge suite sums the closed-form edge counts a source at a
    time and exits 2 once past 10,000,000, naming the count ("at least" when
    it stopped early); more than 10,000,000 samples exit 2 too, and so does
    sampled gluing that could draw more than 10,000,000 chain edges.  None
    leaves a traceback; k, k' <= 5 still passes, and so do sampled
    constancy and gluing at K = 40, whose draws list no fiber map."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bmquiver.cli", "verify", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert perf_counter() - start < 10
    assert (done.returncode, done.stderr) == (code, err)
    assert (done.stdout == "") == (code == EXIT_USAGE)


def test_verify_counts_edges_without_building_an_object(monkeypatch, capsys):
    """The edge bound of verify reads no object: with enumerate_objects made
    to raise, --max-k 444 exits 2 with the count summed a source at a time,
    "at least" because it stopped early."""

    def unbuilt(max_k):
        raise AssertionError(f"enumerate_objects({max_k}) called")

    monkeypatch.setattr(cli, "enumerate_objects", unbuilt)
    assert main(["verify", "--max-k", "444", "--suites", "constancy"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: verify would build at least 15185625 edges, more than 10000000\n"
    )


def test_enumerate_chains_counts_edges_without_building_an_object(monkeypatch, capsys):
    """The chain bound of enumerate reads no object: with enumerate_objects
    made to raise, --max-k 444 --max-len 1 exits 2 with the edges summed a
    source at a time, "at least" because it stopped early."""

    def unbuilt(max_k):
        raise AssertionError(f"enumerate_objects({max_k}) called")

    monkeypatch.setattr(cli, "enumerate_objects", unbuilt)
    argv = ["enumerate", "chains", "--max-k", "444", "--max-len", "1"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: enumerate chains would list at least 100570 chains, more than 100000\n"
    )


@pytest.mark.parametrize("max_k", range(7))
def test_verify_edge_bound_sums_count_edges_a_source_at_a_time(monkeypatch, max_k):
    """For K, K' <= 6 and a bound just below each running sum of count_edges
    over the sources in enumerate_objects order, the verify bound stops at
    that source and names that sum, "at least" unless it is the last source;
    with the bound at the full sum it passes."""
    sources = enumerate_objects(max_k)
    for max_k_prime in range(7):
        targets = enumerate_objects(max_k_prime)
        config = SweepConfig(max_k=max_k, max_k_prime=max_k_prime)
        running = list(
            accumulate(sum(count_edges(phi, target) for target in targets) for phi in sources)
        )
        for counted, total in enumerate(running, 1):
            monkeypatch.setattr(cli, "VERIFY_MAX_ITEMS", total - 1)
            least = "" if counted == len(sources) else "at least "
            with pytest.raises(ValidationError) as raised:
                cli._check_verify_count(config, ["constancy"])
            assert str(raised.value) == (
                f"verify would build {least}{total} edges, more than {total - 1}"
            ), (max_k, max_k_prime, counted)
        monkeypatch.setattr(cli, "VERIFY_MAX_ITEMS", running[-1])
        cli._check_verify_count(config, ["constancy"])


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


JOBS_SCRIPT = """
import contextlib, io, json, sys
from bmquiver.cli import main

def verify(*extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--max-k", "2", "--samples", "200", "--seed", "3", *extra,
                     "--suites", "constancy", "audit", "--format", "json"])
    return code, out.getvalue()

with_jobs = verify("--jobs", "2")
print(json.dumps([with_jobs, verify(), "multiprocessing" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--max-k", "1", "--max-chain-len", "1"], EXIT_PASS),
        (["eval", "G", "2"], EXIT_USAGE),
    ],
)
def test_console_entry_point(argv, code):
    """python -m bmquiver.cli runs run(), the installed bmquiver command, which
    exits with the code of main: a passing battery lists a PASS line per
    suite, and a bad encoding is named on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "bmquiver.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == code
    if code == EXIT_PASS:
        heads = [line.split(":")[0] for line in done.stdout.splitlines() if line[0] != " "]
        assert heads == [f"PASS {name}" for name in SUITE_NAMES]
        assert done.stderr == ""
    else:
        assert (done.stdout, done.stderr) == ("", "error: bad object encoding '2'\n")


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["verify", "--max-k", "3"],
            "0b56e0dbf89052469bd1f9745c01e439d2263fa52d69dd7c47ae1a43c8881c38",
        ),
        (
            ["verify", "--max-k", "4", "--max-chain-len", "3", "--samples", "400", "--seed", "1",
             "--suites", *SUITE_NAMES, *EXTRA_SUITE_NAMES],
            "01fa3ed5f43dbc74234c50afd3aad690f53fba1ea1ff45a97d2128222e9b8977",
        ),
        (
            ["verify", "--max-k", "5", "--max-kprime", "5",
             "--suites", "constancy", "naturality", "identification", "audit"],
            "df4c8f4b9d06c00eb5023373942996dca112d4f32430ebfd4ee673e448edf165",
        ),
    ],
)
def test_output_does_not_depend_on_the_hash_seed(argv, digest):
    """Fresh interpreters with string hashing seeded 0 and 1 print the same
    JSON report, byte for byte, and exit 0: nothing a report shows depends
    on the iteration order of a set or dict of strings."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "bmquiver.cli", *argv, "--format", "json"],
            capture_output=True, env=env,
        )
        assert (done.returncode, done.stderr) == (EXIT_PASS, b"")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == digest


def test_jobs_start_no_worker_processes():
    """--jobs is accepted and changes nothing: every suite runs in one process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", JOBS_SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    with_jobs, serial, imported = json.loads(done.stdout)
    assert with_jobs == serial
    assert serial[0] == EXIT_PASS and json.loads(serial[1])
    assert not imported


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


EDGE_BOUNDS = ("--max-k", "5", "--max-kprime", "5")
GLUING_BOUNDS = ("--max-k", "3", "--max-chain-len", "3")
SAMPLED_BOUNDS = (
    "--max-k", "5", "--max-chain-len", "4", "--samples", "2500", "--seed", "1", "--jobs", "2"
)


@pytest.mark.parametrize(
    "workload,suite,bounds",
    [
        *(
            pytest.param("edges-exhaustive", s, EDGE_BOUNDS, id=s)
            for s in ("constancy", "naturality", "identification", "audit")
        ),
        pytest.param("gluing-exhaustive", "gluing", GLUING_BOUNDS, id="gluing"),
        *(
            pytest.param("sampled-mixed", s, SAMPLED_BOUNDS, id=f"sampled-{s}")
            for s in json.loads(EXPECTED.read_text())["sampled-mixed"]["sha256_by_seed"]["1"]
        ),
    ],
)
def test_edge_suites_match_the_benchmark_digests(capsys, workload, suite, bounds):
    """The benchmark's reports, byte for byte, as it expects them.

    The exhaustive edge suites at k, k' <= 5, exhaustive gluing at k <= 3 and
    length <= 3, and every suite of sampled-mixed at seed 1.
    """
    expected = json.loads(EXPECTED.read_text())[workload]
    if workload == "sampled-mixed":
        digest = expected["sha256_by_seed"]["1"][suite]
    else:
        digest = expected[suite]["sha256"]
    code, out = run(capsys, "verify", "--suites", suite, *bounds, "--format", "json")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_xi_suite_matches_the_benchmark_digest():
    expected = json.loads(EXPECTED.read_text())["edges-exhaustive"]["xi"]
    config = SweepConfig(max_k=3, max_k_prime=3, max_chain_len=1)
    report = xi_suite(config, max_target_size=3)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
