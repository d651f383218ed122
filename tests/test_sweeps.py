"""The gluing sweep against concrete chain enumeration, sampled draws
against the list-choosing loops, sampled suites against checking every
draw, and mutants of the integer kernel that the suites must catch."""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import groupby, product
from pathlib import Path

import pytest

from bmquiver import BmChain, chain_signature, gluing_agreement, wfib
from bmquiver import bm, compare, quiverf, sweeps
from bmquiver.bm import BmEdge, BmObject, enumerate_edges, enumerate_objects, fiber_parts
from bmquiver.errors import IllDefinedComponentError, PairingConstructionError, ValidationError
from bmquiver.quiverf import LabelKind
from bmquiver.quotient import least_representatives
from bmquiver.simplex import DeltaMap, monotone_tuples
from bmquiver.cli import EXIT_FAIL, EXIT_PASS, main
from bmquiver.sweeps import (
    EXTRA_SUITE_NAMES,
    SUITE_NAMES,
    SweepConfig,
    gluing_suite,
)
from conftest import cached_functions, clear_memos, package_modules
from test_bm import enumerate_all_edges, filtered_edges

BOUNDS = [(2, 3), (3, 2)]  # (max_k, max_chain_len)


def edge_pool(max_k: int) -> dict:
    """Every edge between objects on [k <= max_k], by source object: targets
    in enumerate_objects order, then maps in edge order."""
    objs = enumerate_objects(max_k)
    return {phi: [e for target in objs for e in enumerate_edges(phi, target)] for phi in objs}


def two_edge_chains(max_k: int) -> list[BmChain]:
    """Every chain of two edges on objects with k <= max_k."""
    pool = edge_pool(max_k)
    return [
        BmChain.from_edges([first, second])
        for edges in pool.values()
        for first in edges
        for second in pool[first.phi_prime]
    ]


def concrete_chains(max_k: int, max_len: int):
    """Every chain with 1..max_len edges over objects on [k <= max_k]."""
    pool = edge_pool(max_k)
    frontier = [(edge,) for edges in pool.values() for edge in edges]
    for _ in range(max_len):
        yield from (BmChain.from_edges(edges) for edges in frontier)
        frontier = [
            edges + (edge,) for edges in frontier for edge in pool[edges[-1].phi_prime]
        ]


def union_skipping_last_pair(n, pairs):
    """The gluing step's union without its last pair, the shared fiber's last element.

    On the base fiber the step has no pairs to union, so nothing is skipped
    there.
    """
    return least_representatives(n, list(pairs)[:-1])


@pytest.mark.parametrize("max_k,max_len", [*BOUNDS, (3, 0)])
def test_weighted_total_matches_concrete_enumeration(capsys, max_k, max_len):
    expected = 0
    for length in range(max_len + 1):
        argv = ["enumerate", "chains", "--max-k", str(max_k), "--max-len", str(length)]
        assert main([*argv, "--format", "json"]) == EXIT_PASS
        expected += json.loads(capsys.readouterr().out)["count"]
    report = gluing_suite(SweepConfig(max_k=max_k, max_chain_len=max_len))
    assert (report.total, report.failed) == (expected, 0)


@pytest.mark.parametrize("max_k,max_len", BOUNDS)
def test_mutant_failures_are_counted_per_chain_and_listed_per_signature(
    monkeypatch, capsys, max_k, max_len
):
    monkeypatch.setattr(wfib, "least_representatives", union_skipping_last_pair)
    verdicts: dict = {}
    failed = 0
    for chain in concrete_chains(max_k, max_len):
        signature = chain_signature(chain)
        if signature not in verdicts:
            verdicts[signature] = gluing_agreement(signature)
        failed += not verdicts[signature]
    failing = {signature for signature, ok in verdicts.items() if not ok}
    assert failing

    report = gluing_suite(SweepConfig(max_k=max_k, max_chain_len=max_len))
    assert report.failed == failed
    keyed = [chain_signature(BmChain.parse(inst["key"])) for inst in report.instances]
    assert keyed == sorted(failing)
    assert not any(gluing_agreement(signature) for signature in keyed)
    # Each witness counts the chains of its signature; together they are all failures.
    witnesses = [inst["witnesses"][0] for inst in report.instances]
    assert sum(int(w.split("; ")[1].split()[0]) for w in witnesses) == failed
    assert main(["eval", "G", report.instances[0]["key"]]) == EXIT_PASS


def test_exhaustive_gluing_keeps_the_benchmark_self_check_counts(monkeypatch):
    """perfbench's traced gluing-exhaustive run pins these counts: one
    gluing_agreement call per signature, one _edge_components lookup per
    edge of each, and one miss per distinct edge."""
    calls = 0

    def counted(signature):
        nonlocal calls
        calls += 1
        return gluing_agreement(signature)

    monkeypatch.setattr(sweeps, "gluing_agreement", counted)
    wfib._edge_components.cache_clear()
    report = gluing_suite(SweepConfig(max_k=3, max_chain_len=3))
    info = wfib._edge_components.cache_info()
    assert (calls, info.hits + info.misses, info.misses) == (251333, 748340, 125)
    assert (report.total, report.failed) == (1120280, 0)


def test_exhaustive_gluing_steps_once_per_size_prefix_and_next_size(monkeypatch):
    """The (3, 3) sweep computes chain weights once per size prefix it
    descends into and next 0-fiber size: every base size, and the sizes of
    each checked signature with fewer than 3 edges, take one step per next
    size a map can reach (any size after a nonempty fiber, else only 0).
    The count does not grow with the 251,333 signatures."""
    max_k, max_len = 3, 3
    width = max_k + 2
    calls = 0
    step = sweeps._ChainCounts.step
    prefixes = {(z,) for z in range(width)}

    def counted_step(self, weights, z):
        nonlocal calls
        calls += 1
        return step(self, weights, z)

    def recorded(signature):
        sizes = signature[0]
        if len(sizes) <= max_len:
            prefixes.add(sizes)
        return gluing_agreement(signature)

    monkeypatch.setattr(sweeps._ChainCounts, "step", counted_step)
    monkeypatch.setattr(sweeps, "gluing_agreement", recorded)
    report = gluing_suite(SweepConfig(max_k=max_k, max_chain_len=max_len))
    assert calls == sum(width if sizes[-1] else 1 for sizes in prefixes) == 438
    assert (report.total, report.failed) == (1120280, 0)


def counting_passes(monkeypatch) -> Counter:
    """Count the report.add calls that count passes (record None), the
    instances they count, and the calls that list a record."""
    counts: Counter = Counter()
    add = sweeps.SuiteReport.add

    def counted(report, record, count=1):
        if record is None:
            counts["adds"] += 1
            counts["passes"] += count
        else:
            counts["listed"] += 1
        add(report, record, count)

    monkeypatch.setattr(sweeps.SuiteReport, "add", counted)
    return counts


def test_exhaustive_gluing_counts_passes_once_per_size_prefix(monkeypatch):
    """The (3, 3) sweep tallies its passing signatures and counts them with
    one report.add per size prefix it visits, plus one for the chains of
    length 0: at most 399 adds, a number that does not grow with the 251,333
    signatures, for the same total."""
    counts = counting_passes(monkeypatch)
    prefixes = {(z,) for z in range(5)}

    def recorded(signature):
        prefixes.add(signature[0])
        return gluing_agreement(signature)

    monkeypatch.setattr(sweeps, "gluing_agreement", recorded)
    report = gluing_suite(SweepConfig(max_k=3, max_chain_len=3))
    assert (report.total, report.failed) == (1120280, 0)
    assert counts["adds"] <= len(prefixes) + 1 == 399
    assert counts["passes"] == report.total


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES + EXTRA_SUITE_NAMES if n != "gluing"])
def test_sweeps_count_their_passes_with_one_add(monkeypatch, name):
    """Exhaustive and sampled, with gamma off by one, every suite but gluing
    tallies its passing records and counts them with one report.add, and
    adds each record it lists on its own."""
    counts = counting_passes(monkeypatch)
    MUTANTS["gamma"](monkeypatch)
    for config in (SMALL, SweepConfig(max_k=2, max_k_prime=2, samples=60, seed=1)):
        counts.clear()
        report = sweeps.run_suite(config, name)
        assert (counts["adds"], counts["listed"]) == (1, len(report.instances)), (config, name)
        assert counts["passes"] == report.total - report.failed - report.warned


def test_fiber_parts_are_built_once_per_process():
    """Two walks of the edge runs at k, k' <= 7 build each fiber part once:
    the second walk misses the monotone_tuples cache nowhere, and neither
    do the signature table and its edges."""
    config = SweepConfig(max_k=7, max_k_prime=7)
    monotone_tuples.cache_clear()
    for _ in range(2):
        assert sum(1 for _ in sweeps._edge_runs(config)) == 86754
        assert monotone_tuples.cache_info().misses == 405
    assert sum(1 for _ in sweeps._edge_signatures(config)) == 47145
    assert monotone_tuples.cache_info().misses == 405


def test_a_drawn_pair_all_over_0_at_k_40_lists_no_fiber_map():
    """The pair all over 0 on [40], the widest a draw at K = 40 can land on,
    has C(81, 41) edges, 2.1e23: an index at its start, middle or end
    unranks to the checked edge without a monotone_tuples miss, and so do
    sampled constancy and gluing at K = 40."""
    phi = BmObject((0,) * 41)
    count = bm.count_edges(phi, phi)
    assert count == 212392290424395860814420
    monotone_tuples.cache_clear()
    for index in (0, count // 2, count - 1):
        edge = bm.edge_at(phi, phi, index)
        assert edge == BmEdge(phi, phi, DeltaMap(40, 40, edge.map.images))
    assert bm.edge_at(phi, phi, 0).map.images == (0,) * 41
    assert bm.edge_at(phi, phi, count - 1).map.images == (40,) * 41
    config = SweepConfig(max_k=40, max_k_prime=40, max_chain_len=3, samples=20, seed=2)
    for suite in ("constancy", "gluing"):
        report = sweeps.run_suite(config, suite)
        assert (report.total, report.failed) == (20, 0), suite
    assert monotone_tuples.cache_info().misses == 0


def choose_from_filtered_edges(config: SweepConfig) -> list[BmEdge]:
    """Sampled edges drawn by choosing from each pair's full list of maps over [1]."""
    rng = random.Random(config.seed)
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    out = []
    while len(out) < config.samples:
        phi = rng.choice(sources)
        phi_prime = rng.choice(targets)
        candidates = filtered_edges(phi, phi_prime)
        if candidates:
            out.append(rng.choice(candidates))
    return out


@pytest.mark.parametrize("max_k,max_k_prime", [(5, 5), (2, 5), (5, 2), (0, 3)])
def test_sampled_edges_drawn_by_index_match_choosing_from_lists(max_k, max_k_prime):
    """The n-th edge of the shared draw is the n-th edge chosen from each
    pair's list, and the sampled runs build it at position n."""
    sources, targets = enumerate_objects(max_k), enumerate_objects(max_k_prime)
    for seed in range(20):
        config = SweepConfig(
            max_k=max_k, max_k_prime=max_k_prime, samples=40, seed=seed
        )
        drawn = [
            BmEdge(sources[s], targets[t], DeltaMap(targets[t].top, sources[s].top, zero + one))
            for s, t, zero, one in zip(*sweeps._edge_draws(max_k, max_k_prime, 40, seed))
        ]
        assert drawn == choose_from_filtered_edges(config)
        table, walk = sweeps._edges(config)
        runs = walk({signature for signature, _, _ in table})
        built = {a: instance(a) for _, at, instance, _ in runs for a in at}
        assert [built[n] for n in range(40)] == drawn


def choose_gluing_chains(config: SweepConfig) -> list[BmChain]:
    """Sampled gluing chains drawn by choosing each edge from the edge_pool list."""
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    pool = edge_pool(config.max_k)
    chains = []
    for _ in range(config.samples):
        length = rng.randint(0, config.max_chain_len)
        base = rng.choice(objs)
        edges: list[BmEdge] = []
        for _ in range(length):
            edges.append(rng.choice(pool[edges[-1].phi_prime if edges else base]))
        chains.append(BmChain(base, tuple(edges)))
    return chains


@pytest.mark.parametrize("max_k", [3, 5])
def test_sampled_gluing_draws_by_index_match_choosing_from_edge_pools(monkeypatch, max_k):
    """Stubs fail every draw, so the report lists every drawn chain in order,
    and the gluing stub records each signature the suite checked."""
    checked = []

    def failing_agreement(signature):
        checked.append(signature)
        return False

    monkeypatch.setattr(sweeps, "gluing_agreement", failing_agreement)
    monkeypatch.setattr(sweeps, "g_chain", lambda chain: [None] * (chain.base.ell + 2))
    for seed in range(20):
        checked.clear()
        config = SweepConfig(max_k=max_k, max_chain_len=4, samples=40, seed=seed)
        chains = choose_gluing_chains(config)
        report = gluing_suite(config)
        assert [inst["key"] for inst in report.instances] == [c.encode() for c in chains]
        assert checked == [chain_signature(c) for c in chains if c.length]


def test_sampled_gluing_of_objects_alone_counts_no_edges(monkeypatch):
    """At chain length 0 no draw leaves its object, so sampled gluing counts
    no edge: at k <= 150 (11,626 objects) it checks its 10 drawn objects
    without calling count_edges."""
    calls = 0

    def counted(phi, phi_prime):
        nonlocal calls
        calls += 1
        return bm.count_edges(phi, phi_prime)

    monkeypatch.setattr(sweeps, "count_edges", counted)
    report = gluing_suite(SweepConfig(max_k=150, max_chain_len=0, samples=10))
    assert (report.total, report.failed, calls) == (10, 0, 0)


def test_exhaustive_gluing_of_objects_alone_lists_no_fiber_map():
    """At chain length 0 exhaustive gluing checks only its objects: at
    k <= 10 (77 objects) it lists no fiber map, so monotone_tuples never misses."""
    monotone_tuples.cache_clear()
    report = gluing_suite(SweepConfig(max_k=10, max_chain_len=0))
    assert (report.total, report.failed) == (77, 0)
    assert monotone_tuples.cache_info().misses == 0


def test_sampled_gluing_reports_are_unchanged():
    """Sampled gluing at k <= 4, length <= 3, 300 samples, seeds 0-10, gives
    the reports it gave while every source's cumulative edge counts were
    made before the first draw (sha256 of their sorted-key JSON, in seed
    order)."""
    digest = hashlib.sha256()
    for seed in range(11):
        config = SweepConfig(max_k=4, max_chain_len=3, samples=300, seed=seed)
        digest.update(json.dumps(gluing_suite(config).to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "b7683281dce5d5ce155216ae03ceea4e6291ced72031dcfd8c883df5f2d80f64"
    )


def test_sampled_gluing_checks_each_passing_signature_once(monkeypatch):
    """Sampled gluing reuses verdicts by signature like every sampled sweep:
    it calls gluing_agreement once per distinct signature among the drawn
    chains of length >= 1, and at the benchmark's sampled bounds (k <= 5,
    length <= 4, 2,500 samples, seed 1) 1,097 times for 1,991 such draws."""
    calls = 0

    def counted(signature):
        nonlocal calls
        calls += 1
        return gluing_agreement(signature)

    monkeypatch.setattr(sweeps, "gluing_agreement", counted)
    for seed in range(3):
        config = SweepConfig(max_k=3, max_chain_len=3, samples=200, seed=seed)
        chains = [chain for chain in choose_gluing_chains(config) if chain.length]
        calls = 0
        report = gluing_suite(config)
        assert calls == len({chain_signature(chain) for chain in chains}) < len(chains)
        assert (report.total, report.failed) == (200, 0)
    config = SweepConfig(max_k=5, max_chain_len=4, samples=2500, seed=1)
    calls = 0
    report = gluing_suite(config)
    drawn = sum(1 for chain in choose_gluing_chains(config) if chain.length)
    assert (calls, drawn, report.total, report.failed) == (1097, 1991, 2500, 0)


EDGE_SUITES = ("constancy", "naturality", "identification", "audit")

#: The errors that fail an instance with the error as its witness: invalid
#: labels from the pairing rules, an ill-defined gamma, and fiber maps G rejects.
INSTANCE_ERRORS = (PairingConstructionError, IllDefinedComponentError, ValidationError)


def per_draw_records(config: SweepConfig, suite: str) -> list:
    """The record of every draw of a sampled suite, each draw checked on its own.

    Draws come from the list-choosing loops above; a record is None for a
    pass, else (key, status, witnesses).
    """
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    drawn = [rng.choice(objs) for _ in range(config.samples)]
    if suite == "gluing":
        return [gluing_record(chain) for chain in choose_gluing_chains(config)]
    if suite == "cardinality":
        return [cardinality_record(phi) for phi in drawn]
    if suite == "decomposition":
        failures = [(phi, compare.verify_decomposition(phi).failures) for phi in drawn if phi.top]
        return [(phi.encode(), "fail", list(f)) if f else None for phi, f in failures]
    return edge_suite_records(config, suite, drawn, choose_from_filtered_edges(config))


def edge_suite_records(config: SweepConfig, suite: str, objects: list, edges: list) -> list:
    """The record of every instance of an edge suite or xi, each checked on its own.

    xi checks the objects, then the edges when chains of length 1 are in
    range, each at the target sizes 0-3.
    """
    if suite in EDGE_SUITES:
        return [edge_record(suite, edge) for edge in edges]
    assert suite == "xi"
    chains = [BmChain.vertex(phi) for phi in objects]
    if config.max_chain_len >= 1:
        chains += [BmChain.from_edges([edge]) for edge in edges]
    return [record for chain in chains for record in xi_records(chain)]


def expected_report(config: SweepConfig, suite: str, records: list) -> dict:
    """The report that lists every record that did not pass, in order, and counts them all."""
    listed = [r for r in records if r is not None]
    return {
        "suite": suite,
        "bounds": config.bounds_dict(),
        "instances": [{"key": k, "status": s, "witnesses": w} for k, s, w in listed],
        "summary": {
            "total": len(records),
            "failed": sum(s == "fail" for _, s, _ in listed),
            "warned": sum(s == "warn" for _, s, _ in listed),
        },
    }


def gluing_record(chain: BmChain):
    if not chain.length:
        size, expected = len(wfib.g_chain(chain)), chain.base.ell + 1
        if size == expected:
            return None
        return chain.encode(), "fail", [f"|G| = {size}, expected {expected}"]
    sizes, maps = chain_signature(chain)
    if wfib.gluing_agreement((sizes, maps)):
        return None
    message = f"gluing disagrees with direct components (fiber sizes {sizes})"
    return chain.encode(), "fail", [message]


def cardinality_record(phi):
    got_f, got_g = len(quiverf.f_object(phi)), len(wfib.g_chain(BmChain.vertex(phi)))
    witnesses = []
    if got_f != max(0, 2 * phi.ell + phi.beta):
        witnesses.append(f"|F| = {got_f}, expected {max(0, 2 * phi.ell + phi.beta)}")
    if got_g != phi.ell + 1:
        witnesses.append(f"|G| = {got_g}, expected {phi.ell + 1}")
    return (phi.encode(), "fail", witnesses) if witnesses else None


def edge_record(suite: str, edge: BmEdge):
    try:
        if suite == "audit":
            audit = quiverf.j_cardinality_audit(edge)
            if audit.degenerate or audit.raw_matches:
                return None
            message = (
                f"raw count {audit.raw_count} != formula {audit.formula_count} "
                f"(effective {audit.effective_count}, midImageTight={audit.mid_image_tight})"
            )
            return edge.encode(), "warn" if edge.phi_prime.beta else "fail", [message]
        if suite == "constancy":
            result = compare.verify_constancy(edge)
        elif suite == "naturality":
            result = compare.verify_naturality(BmChain.from_edges([edge]))
        else:
            result = compare.verify_edge_identification(edge)
    except INSTANCE_ERRORS as exc:
        return edge.encode(), "fail", [str(exc)]
    return None if result.passed else (edge.encode(), "fail", list(result.failures))


def xi_records(chain: BmChain) -> list:
    """The records of a chain at the target sizes 0-3, from one check of the chain."""
    try:
        failures = list(compare.xi_restriction_commutes(chain).failures)
    except INSTANCE_ERRORS as exc:
        failures = [str(exc)]
    return [(f"{chain.encode()}@{m}", "fail", failures) if failures else None for m in range(4)]


def least_dropping_last_pair(monkeypatch):
    """The union-find ignores the last pair it is given."""
    quotient_module = importlib.import_module("bmquiver.quotient")
    least = quotient_module.least_representatives

    def dropping_last(n, pairs):
        return least(n, list(pairs)[:-1])

    for module in (quotient_module, wfib, compare):
        monkeypatch.setattr(module, "least_representatives", dropping_last)


MUTANTS = {
    "none": lambda monkeypatch: None,
    # x1(i) sent to fiber element i - 1: constancy, naturality and xi fail.
    "gamma": lambda mp: mp.setattr(compare, "_gamma", lambda code, ell: code // 2),
    # Gluing and decomposition fail.
    "union": least_dropping_last_pair,
    # Every vertex its own component in the checks: identification fails.
    "discrete G": lambda mp: mp.setattr(
        compare, "g_classes", lambda sizes, maps: list(range(sum(sizes)))
    ),
    # One component in g_chain: cardinality and gluing's vertex draws fail.
    "collapsed G": lambda mp: mp.setattr(wfib, "g_classes", lambda sizes, maps: [0] * sum(sizes)),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_sampled_suites_match_checking_every_draw(monkeypatch, mutant):
    """Checking each distinct draw once gives the report of checking every draw.

    Failing and warning draws are listed at every draw, in draw order.
    """
    MUTANTS[mutant](monkeypatch)
    repeated_failures = 0
    for seed in range(10):
        config = SweepConfig(
            max_k=2, max_k_prime=2, max_chain_len=3, samples=60, seed=seed
        )
        for suite in SUITE_NAMES + EXTRA_SUITE_NAMES:
            records = per_draw_records(config, suite)
            (report,) = sweeps.run_suites(config, [suite])
            assert report.to_dict() == expected_report(config, suite, records), (seed, suite)
            failing = [r[0] for r in records if r is not None and r[1] == "fail"]
            repeated_failures += len(failing) - len(set(failing))
    assert repeated_failures > 0 or mutant == "none"


SMALL = SweepConfig(max_k=2, max_k_prime=2)


def failing_reports(suites):
    """Reports of the suites at k, k' <= 2, checked to list only replayable failures."""
    reports = {r.suite: r for r in sweeps.run_suites(SMALL, suites)}
    for report in reports.values():
        for instance in report.instances:
            assert instance["witnesses"]
            BmEdge.parse(instance["key"])
    return reports


def render(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def short_fiber_map(monkeypatch):
    """BmEdge.fiber_map drops its last image."""
    monkeypatch.setattr(
        BmEdge, "fiber_map", lambda edge: edge.map.images[: max(edge.phi_prime.ell, 0)]
    )


def gamma_off_by_one(monkeypatch):
    """x1(i) sent to fiber element i - 1 instead of i."""
    monkeypatch.setattr(compare, "_gamma", lambda code, ell: code // 2)


def x1_zero_as_x1_one(monkeypatch):
    """x1(0) resolved as x1(1) instead of x2(1)."""
    resolve = quiverf._resolve

    def redirect(phi, ell, beta, kind, index):
        if kind is LabelKind.ONE and index == 0:
            return resolve(phi, ell, beta, LabelKind.ONE, 1)
        return resolve(phi, ell, beta, kind, index)

    monkeypatch.setattr(quiverf, "_resolve", redirect)


def dropped_inner_rule(monkeypatch):
    """The pairs (x2(j), x1(j-1)) dropped from the pairing rules, which F
    reads through the kernel of compare."""
    rule_pairs = quiverf._rule_pairs

    def dropped(source, target, p):
        pairs, notes = rule_pairs(source, target, p)
        kept = [n for n, note in enumerate(notes) if note[0] != quiverf._INNER_NOTE]
        return [pairs[n] for n in kept], [notes[n] for n in kept]

    monkeypatch.setattr(quiverf, "_rule_pairs", dropped)


def test_short_fiber_map_fails_constancy_and_naturality(monkeypatch):
    """A fiber map that drops its last image breaks both edge suites, per edge.

    Every edge with a nonempty 0-fiber in phi' gets a map one short of its
    fiber, which G rejects as the gluing check does: the edge fails with
    the misfit as its witness, and no suite raises.
    """
    short_fiber_map(monkeypatch)
    reports = failing_reports(["constancy", "naturality"])
    for report in reports.values():
        assert (report.total, report.failed) == (109, 63)
        for instance in report.instances:
            edge = BmEdge.parse(instance["key"])
            maps, sizes = (edge.fiber_map(),), (edge.phi.ell + 1, edge.phi_prime.ell + 1)
            assert instance["status"] == "fail"
            assert instance["witnesses"] == [f"fiber maps {maps} do not fit fiber sizes {sizes}"]
    assert [inst["key"] for inst in reports["constancy"].instances] == [
        inst["key"] for inst in reports["naturality"].instances
    ]


def test_gamma_off_by_one_fails_constancy_and_naturality(monkeypatch):
    """x1(i) sent to fiber element i - 1 instead of i.

    The whole report is pinned, so the rendering of pair and vertex-square
    witnesses stays fixed.
    """
    gamma_off_by_one(monkeypatch)
    reports = failing_reports(["constancy", "naturality"])
    witnesses = {
        name: sum(len(inst["witnesses"]) for inst in report.instances)
        for name, report in reports.items()
    }
    assert reports["constancy"].failed == reports["naturality"].failed == 10
    assert witnesses == {"constancy": 13, "naturality": 17}
    witness = reports["naturality"].instances[0]["witnesses"][0]
    assert witness.startswith("vertex square t=0: v0:x2(2) gives (0, 0) != (0, 1)")
    expected = Path(__file__).parent / "data" / "gamma_mutant.json"
    assert render(reports.values()) == expected.read_text()


def test_gamma_off_by_one_fails_xi_instead_of_raising(monkeypatch, capsys):
    """Where gamma is not well-defined, each xi instance fails with the error,
    keyed as `bmquiver eval xi` replays it: failing under the mutant, passing
    and echoing the same key without it."""
    gamma_off_by_one(monkeypatch)
    broken = [inst["key"] for inst in failing_reports(["constancy"])["constancy"].instances]
    report = sweeps.xi_suite(SMALL, max_target_size=3)
    assert (report.total, report.failed) == ((9 + 109) * 4, len(broken) * 4)
    keys = [inst["key"] for inst in report.instances]
    assert keys == [f"{key}@{m}" for key in broken for m in range(4)]
    for instance in report.instances:
        (witness,) = instance["witnesses"]
        assert witness.startswith("class (") and " has images [(0, " in witness
    for key in keys:
        assert main(["eval", "xi", key, "--format", "json"]) == EXIT_FAIL
    capsys.readouterr()
    monkeypatch.undo()
    clear_memos()
    for key in keys:
        assert main(["eval", "xi", key, "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["key"] == key


KERNEL_MEMOS = {
    "_shape",
    "_gamma_row",
    "_edge_verdicts",
    "_edge_components",
    "_interned",
    "_base",
    "monotone_tuples",
}


def test_clearing_the_memos_empties_every_cache_and_the_walk():
    """After small constancy, naturality and gluing sweeps fill them,
    clear_memos leaves every cached function of the package empty, the
    kernel memos among them.  The gluing walk lives in its interned states,
    so it starts again from a new base state with no moves."""
    suites = ["constancy", "naturality", "gluing"]
    assert not any(r.failed for r in failing_reports(suites).values())
    functions = cached_functions()
    kernel = [f for f in functions if f.__name__ in KERNEL_MEMOS]
    assert len(kernel) == len(KERNEL_MEMOS)
    assert all(f.cache_info().currsize for f in kernel)
    walked = wfib._base(2)
    assert walked.moves
    clear_memos()
    assert all(f.cache_info().currsize == 0 for f in functions)
    assert wfib._base(2) is not walked and not wfib._base(2).moves


#: Module globals that may hold a table: constants, never written.
CONSTANT_TABLES = {("bmquiver.sweeps", "_SUITES")}


def test_no_module_global_holds_a_memo():
    """Every process-wide memo is a functools cache, which clear_memos finds:
    no module of the package keeps a dict, list or set, or an object of a
    package class, in a global, besides the constant suite table."""
    modules = package_modules()
    held = [
        (module.__name__, name)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__")
        and (
            isinstance(value, (dict, list, set))
            or type(value).__module__.startswith("bmquiver.")
        )
    ]
    assert len(modules) == 10
    assert set(held) == CONSTANT_TABLES


def test_the_edge_verdict_memo_is_bounded_and_found():
    """The verdict memo of one-edge checks is a functools cache of finite
    size, which cached_functions (so clear_memos) finds."""
    assert compare._edge_verdicts in cached_functions()
    assert compare._edge_verdicts.cache_info().maxsize == 1 << 18


def test_clearing_the_memos_forgets_tables_filled_before_a_patch(monkeypatch):
    """The resolution tables and gamma rows live for the whole process.

    Filled by a passing sweep, they hide a gamma patched in later until
    clear_memos forgets them; then the off-by-one gamma fails its 10
    constancy edges at k, k' <= 2 again.
    """
    assert failing_reports(["constancy", "naturality"])["constancy"].failed == 0
    gamma_off_by_one(monkeypatch)
    assert failing_reports(["constancy"])["constancy"].failed == 0
    clear_memos()
    assert failing_reports(["constancy"])["constancy"].failed == 10


def test_each_resolution_is_computed_once_per_object(monkeypatch):
    """With the memos cleared, constancy and naturality sweeps at k, k' <= 3
    call _resolve (from outside itself) at most once per (object, kind,
    index): the pairing rules read every later request from the tables.
    Passing edges run the kernel on the canonical objects of their shapes
    only, so 25 requests are resolved."""
    resolve = quiverf._resolve
    calls: Counter = Counter()
    depth = 0

    def counted(phi, ell, beta, kind, index):
        nonlocal depth
        if not depth:
            calls[phi, kind, index] += 1
        depth += 1
        try:
            return resolve(phi, ell, beta, kind, index)
        finally:
            depth -= 1

    monkeypatch.setattr(quiverf, "_resolve", counted)
    config = SweepConfig(max_k=3, max_k_prime=3)
    for name in ("constancy", "naturality"):
        assert sweeps.run_suite(config, name).passed
    assert (len(calls), max(calls.values())) == (25, 1)


def test_least_representatives_dropping_its_last_pair_fails_gluing(monkeypatch):
    """The union-find ignores the last pair it is given.

    The glued route of gluing and the segment gluing of decomposition go
    through it, so both fail.  Constancy cannot: it reads the pairs and G,
    and G is composition, not a union-find.
    """
    quotient_module = importlib.import_module("bmquiver.quotient")
    least = quotient_module.least_representatives

    def dropping_last(n, pairs):
        return least(n, list(pairs)[:-1])

    for module in (quotient_module, wfib, compare):
        monkeypatch.setattr(module, "least_representatives", dropping_last)
    reports = {r.suite: r for r in sweeps.run_suites(SMALL, ["gluing", "decomposition"])}
    gluing = reports["gluing"]
    assert gluing.failed > 0
    for instance in gluing.instances:
        assert not gluing_agreement(chain_signature(BmChain.parse(instance["key"])))
    assert [inst["key"] for inst in reports["decomposition"].instances] == ["000", "001"]


def test_redirecting_x1_zero_to_x1_one_fails_constancy_and_naturality(monkeypatch):
    """x1(0) resolved as x1(1) instead of x2(1): x1(0) arises only with ell = 0,
    where x1(1) does not exist, so the edge fails with the construction error."""
    x1_zero_as_x1_one(monkeypatch)
    reports = failing_reports(["constancy", "naturality"])
    for report in reports.values():
        assert report.failed == 10
        assert report.instances[0] == {
            "key": "phi=01;phiPrime=01;map=0,1",
            "status": "fail",
            "witnesses": [
                "pairing rules produced an invalid label on edge "
                "phi=01;phiPrime=01;map=0,1: no resolution for x1(1) on object 01"
            ],
        }


def test_dropped_pairing_rule_fails_the_audit(monkeypatch):
    """Pairs (x2(j), x1(j-1)) dropped.

    Fewer pairs only split F classes, on which gamma stays constant, so
    constancy and naturality cannot see a dropped rule; the exact pair
    count of the audit does.
    """
    dropped_inner_rule(monkeypatch)
    audit = failing_reports(["audit"])["audit"]
    failing = [inst for inst in audit.instances if inst["status"] == "fail"]
    assert audit.failed == len(failing) == 3
    for instance in failing:
        edge = BmEdge.parse(instance["key"])
        assert edge.phi_prime.beta == 0
        assert instance["witnesses"][0].startswith("raw count ")


CHECKS = (
    "verify_constancy",
    "verify_naturality",
    "verify_edge_identification",
    "j_cardinality_audit",
    "xi_restriction_commutes",
    "verify_decomposition",
)


def test_suites_call_the_checks_by_their_module_names(monkeypatch):
    """A check rebound on sweeps is the one every suite runs.

    A tracer that rebinds module attributes sees every call only if no
    suite holds the function object itself.  Constancy, identification,
    audit and xi check each of the 55 edge signatures at k, k' <= 2 once,
    a warning one included; naturality checks every edge.
    """
    calls = dict.fromkeys(CHECKS, 0)
    for name in CHECKS:

        def counted(*args, name=name, check=getattr(sweeps, name)):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(sweeps, name, counted)
    sweeps.run_suites(SMALL, list(SUITE_NAMES + EXTRA_SUITE_NAMES))
    sweeps.xi_suite(SMALL, max_target_size=3)
    assert calls == {
        "verify_constancy": 55,
        "verify_naturality": 109,
        "verify_edge_identification": 55,
        "j_cardinality_audit": 55,
        "xi_restriction_commutes": 2 * (9 + 55),
        "verify_decomposition": 7,  # the 9 objects on [k <= 2] but the 2 on [0]
    }


def test_invalid_label_fails_xi_instead_of_raising(monkeypatch):
    """Where the pairing rules build an invalid label, each xi instance of the
    edge fails with the construction error."""
    x1_zero_as_x1_one(monkeypatch)
    broken = [inst["key"] for inst in failing_reports(["constancy"])["constancy"].instances]
    report = sweeps.xi_suite(SMALL, max_target_size=3)
    assert (report.total, report.failed) == ((9 + 109) * 4, len(broken) * 4)
    assert [inst["key"] for inst in report.instances] == [
        f"{key}@{m}" for key in broken for m in range(4)
    ]
    for instance in report.instances:
        (witness,) = instance["witnesses"]
        assert witness.startswith("pairing rules produced an invalid label on edge ")


#: The suites that check each edge signature once.
SIGNED_SUITES = ("constancy", "identification", "audit", "xi")


def edge_signature(edge: BmEdge) -> tuple:
    """What the signed checks read of an edge: (ell, beta, ell', beta'), the
    images of the 0-fiber of phi', and p(ell' + 1) when beta' = 1."""
    phi, phi_prime = edge.phi, edge.phi_prime
    images = edge.map.images[: phi_prime.ell + 1 + phi_prime.beta]
    return phi.ell, phi.beta, phi_prime.ell, phi_prime.beta, images


def test_edge_checks_are_functions_of_the_signature():
    """Every edge with k, k' <= 4 gets the records of the first edge in
    enumeration order with its signature (records hold no key): the check
    reads nothing of an edge beyond its signature, so reusing a verdict is
    exact.
    Exhaustive sweeps reuse verdicts in the signed suites only, sampled
    sweeps in naturality too.
    """
    # A signed suite has a source whose exhaustive table has rows.
    config = SweepConfig(max_k=4, max_k_prime=4, max_chain_len=1)
    signed = [
        name
        for name, (sources, _) in sweeps._SUITES.items()
        if any(any(source(config)[0]) for source in sources)
    ]
    assert tuple(signed) == SIGNED_SUITES
    edges = enumerate_all_edges(4, 4)
    for name in SIGNED_SUITES + ("naturality",):
        check = sweeps._SUITES[name][1]
        first: dict = {}
        for edge in edges:
            records = list(check(edge))
            assert records == first.setdefault(edge_signature(edge), records), (name, edge)
        assert len(first) < len(edges)


@pytest.mark.parametrize("max_k,max_k_prime", [(5, 5), (3, 5), (5, 0), (0, 4)])
def test_edge_runs_are_the_enumeration_cut_where_the_signature_changes(max_k, max_k_prime):
    """The exhaustive runs give every edge in enumerate_all_edges order,
    each under its own signature and with its key formatted unbuilt as
    BmEdge.encode gives it, and a run ends exactly where the next edge has
    another source, target or signature."""
    edges = enumerate_all_edges(max_k, max_k_prime)
    runs = sweeps._edge_runs(SweepConfig(max_k=max_k, max_k_prime=max_k_prime))
    walked = []
    for signature, at, instance, key in runs:
        run = [instance(a) for a in at]
        assert len(at) >= 1
        assert {edge_signature(edge) for edge in run} == {signature}
        assert [key(a) for a in at] == [edge.encode() for edge in run]
        walked.append(run)
    assert [edge for run in walked for edge in run] == edges
    stretches = groupby(edges, lambda e: (e.phi, e.phi_prime, edge_signature(e)))
    assert [len(run) for run in walked] == [len(list(group)) for _, group in stretches]
    if (max_k, max_k_prime) == (5, 5):
        assert (len(walked), len({edge_signature(e) for e in edges})) == (5740, 3272)


@pytest.mark.parametrize("max_k,max_k_prime", [(5, 5), (3, 5), (5, 0), (0, 4), (6, 6)])
def test_edge_signatures_are_the_runs_counted(max_k, max_k_prime):
    """The signature table gives each signature of the exhaustive runs once,
    with the number of edges its runs hold, and an edge that has it and is
    the checked BmEdge(...) of its images; the counts add up to every edge
    in range, as count_edges and bm.count_leaving_edges count them."""
    config = SweepConfig(max_k=max_k, max_k_prime=max_k_prime)
    walked: Counter = Counter()
    for signature, at, _, _ in sweeps._edge_runs(config):
        walked[signature] += len(at)
    table: Counter = Counter()
    for signature, count, edge in sweeps._edge_signatures(config):
        assert signature not in table
        table[signature] = count
        assert edge_signature(edge) == signature
        phi, phi_prime = edge.phi, edge.phi_prime
        assert edge == BmEdge(phi, phi_prime, DeltaMap(phi_prime.top, phi.top, edge.map.images))
    assert table == walked
    sources, targets = enumerate_objects(max_k), enumerate_objects(max_k_prime)
    total = sum(bm.count_edges(phi, phi_prime) for phi in sources for phi_prime in targets)
    leaving = sum((k + 2) * bm.count_leaving_edges(k, max_k_prime) for k in range(max_k + 1))
    assert sum(table.values()) == total == leaving
    if (max_k, max_k_prime) == (5, 5):
        assert (total, len(table)) == (10697, 3272)


def closed_form_totals(max_k: int, max_k_prime: int, max_chain_len: int) -> dict:
    """Each suite's exhaustive total, from bm's counts alone: objects on
    [k <= K], edges from them into the objects on [k' <= K'], and chains of
    length 0 to L over ordinal sizes, each object on [k] having
    count_ordinal_edges(k, k') edges into those on [k']."""
    objects = bm.count_objects(max_k)
    edges = sum((k + 2) * bm.count_leaving_edges(k, max_k_prime) for k in range(max_k + 1))
    tops = range(max_k + 1)
    ends = [k + 2 for k in tops]
    chains = sum(ends)
    for _ in range(max_chain_len):
        ends = [sum(bm.count_ordinal_edges(k, kp) * ends[k] for k in tops) for kp in tops]
        chains += sum(ends)
    totals = dict.fromkeys(("constancy", "naturality", "identification", "audit"), edges)
    return {
        **totals,
        "cardinality": objects,
        "decomposition": objects - 2,
        "xi": 4 * (objects + edges if max_chain_len else objects),
        "gluing": chains,
    }


def test_closed_form_gluing_total_is_the_benchmark_count():
    assert closed_form_totals(3, 3, 3)["gluing"] == 1120280


@pytest.mark.parametrize("max_k", range(5))
def test_report_totals_are_their_closed_forms(monkeypatch, max_k):
    """For K, K' <= 4 and chain length L <= 3, each exhaustive report's total
    is its closed form (see closed_form_totals), and each sampled one counts
    every draw: --samples, 4 records per drawn object and edge for xi, and
    the draws off [0] for decomposition.  A total does not read verdicts, so
    gluing_agreement is stubbed to pass: at (4, 3) exhaustive gluing has
    12,159,003 signatures."""
    monkeypatch.setattr(sweeps, "gluing_agreement", lambda signature: True)
    names = SUITE_NAMES + EXTRA_SUITE_NAMES
    for max_k_prime, max_chain_len in product(range(5), range(4)):
        config = SweepConfig(max_k, max_k_prime, max_chain_len)
        expected = closed_form_totals(max_k, max_k_prime, max_chain_len)
        # Each suite is run once per bounds it reads: xi reads K' and the
        # length, gluing the length alone, and the rest K' alone.
        reads = {"xi": True, "gluing": not max_k_prime}
        for name in names:
            if reads.get(name, max_chain_len == 3):
                assert sweeps.run_suite(config, name).total == expected[name], (config, name)
        samples, seed = 30, max_k_prime + 5 * max_chain_len
        sampled = SweepConfig(max_k, max_k_prime, max_chain_len, samples, seed)
        groups, _ = sweeps._object_groups(max_k, samples, seed)
        on_0 = sum(count for index, count, _ in groups if index < 2)
        expected = dict.fromkeys(names, samples)
        expected["decomposition"] = samples - on_0
        expected["xi"] = 4 * samples * (2 if max_chain_len else 1)
        for name in names:
            assert sweeps.run_suite(sampled, name).total == expected[name], (sampled, name)


def test_passing_signed_suites_walk_no_run(monkeypatch):
    """At k, k' <= 5, where nothing fails, constancy, identification and xi
    count every edge from the signature table and list no fiber part;
    audit walks the runs of the 225 of 729 object pairs whose class holds
    a warning, to list them.  Naturality walks every pair."""
    config = SweepConfig(max_k=5, max_k_prime=5)
    calls = 0
    parts = sweeps.fiber_parts

    def counted(*objects):
        nonlocal calls
        calls += 1
        return parts(*objects)

    monkeypatch.setattr(sweeps, "fiber_parts", counted)
    walked = {}
    for name in ("constancy", "identification", "xi", "audit", "naturality"):
        calls = 0
        report = sweeps.run_suite(config, name)
        assert report.passed and report.total == (42896 if name == "xi" else 10697), name
        walked[name] = calls
    assert walked == {"constancy": 0, "identification": 0, "xi": 0, "audit": 225, "naturality": 729}


def test_signature_suites_check_each_signature_once_and_build_only_what_they_list(
    monkeypatch,
):
    """At k, k' <= 4, with everything passing, each signed suite calls its
    verifier once per signature and builds one edge per signature: every
    passing run after the first of its signature is counted unbuilt, and
    every warning its signature's check did not build is listed unbuilt.
    Naturality builds and checks every edge."""
    config = SweepConfig(max_k=4, max_k_prime=4)
    edges = enumerate_all_edges(4, 4)
    signatures = len({edge_signature(edge) for edge in edges})
    objects = len(enumerate_objects(4))
    calls = builds = 0

    def counted(check):
        def call(*args):
            nonlocal calls
            calls += 1
            return check(*args)

        return call

    build = sweeps._edge_of_parts

    def built(*parts):
        nonlocal builds
        builds += 1
        return build(*parts)

    # Every edge a sweep checks is built from its fiber parts, by this builder.
    monkeypatch.setattr(sweeps, "_edge_of_parts", built)
    expected = {
        "constancy": ("verify_constancy", signatures, signatures),
        "identification": ("verify_edge_identification", signatures, signatures),
        "audit": ("j_cardinality_audit", signatures, signatures),
        "xi": ("xi_restriction_commutes", objects + signatures, signatures),
        "naturality": ("verify_naturality", len(edges), len(edges)),
    }
    warnings = {}
    for name, (verifier, want_calls, want_builds) in expected.items():
        monkeypatch.setattr(sweeps, verifier, counted(getattr(sweeps, verifier)))
        calls = builds = 0
        report = sweeps.run_suite(config, name)
        counts = calls, builds
        assert report.passed
        assert report.total == (4 * (objects + len(edges)) if name == "xi" else len(edges))
        listed = {edge_signature(BmEdge.parse(inst["key"])) for inst in report.instances}
        assert counts == (want_calls, want_builds), name
        warnings[name] = (report.warned, len(listed))
    assert warnings.pop("audit") == (509, 109)
    assert set(warnings.values()) == {(0, 0)}


def test_sampled_naturality_checks_each_drawn_signature_once(monkeypatch):
    """With nothing failing, sampled naturality calls its verifier once per
    distinct signature among the drawn edges, and counts every draw."""
    calls = 0
    verify = sweeps.verify_naturality

    def counted(edge):
        nonlocal calls
        calls += 1
        return verify(edge)

    monkeypatch.setattr(sweeps, "verify_naturality", counted)
    for seed in range(3):
        config = SweepConfig(max_k=3, max_k_prime=3, samples=200, seed=seed)
        drawn = choose_from_filtered_edges(config)
        signatures = len({edge_signature(edge) for edge in drawn})
        calls = 0
        report = sweeps.run_suite(config, "naturality")
        assert (report.passed, report.total) == (True, 200)
        assert calls == signatures < len(set(drawn)), seed


ALL_SAMPLED = ["verify", "--suites", *SUITE_NAMES, *EXTRA_SUITE_NAMES, "--format", "json"]


def test_shared_draws_follow_the_sampling_config(monkeypatch, capsys):
    """The suites of one process share their draws, and a memo kept from
    another seed or bound is never read: sampled runs at seed 1, seed 2,
    seed 1 with --max-k 4 and seed 1 again each print, under gamma off by
    one so that every failing draw is listed, the report computed after
    clear_memos()."""
    gamma_off_by_one(monkeypatch)
    first = ["--max-k", "3", "--samples", "150", "--seed", "1"]
    configs = [first, first[:-1] + ["2"], ["--max-k", "4"] + first[2:], first]
    printed = []
    for bounds in configs:
        assert main(ALL_SAMPLED + bounds) == EXIT_FAIL
        printed.append(capsys.readouterr().out)
        clear_memos()
        assert main(ALL_SAMPLED + bounds) == EXIT_FAIL
        assert capsys.readouterr().out == printed[-1], bounds
    assert len(set(printed)) == 3


class CountingRandom(random.Random):
    """A generator that counts how many are made and the draws they take."""

    counts: Counter = Counter()

    def __init__(self, seed) -> None:
        self.counts["Random"] += 1
        super().__init__(seed)

    def randrange(self, *args):
        self.counts["randrange"] += 1
        return super().randrange(*args)

    def choice(self, seq):
        self.counts["choice"] += 1
        return super().choice(seq)


def test_sampled_suites_draw_once_per_source_kind(monkeypatch):
    """At the benchmark's sampled bounds (k, k' <= 5, chains of length <= 4,
    2,500 samples, seed 1), every suite and xi together make one generator
    per source kind (objects, edges, gluing chains), not one per suite:
    20,038 randrange calls (randint's included) and 2,500 choice calls."""
    monkeypatch.setattr(random, "Random", CountingRandom)
    monkeypatch.setattr(CountingRandom, "counts", Counter())
    config = SweepConfig(max_k=5, max_k_prime=5, max_chain_len=4, samples=2500, seed=1)
    reports = sweeps.run_suites(config, list(SUITE_NAMES + EXTRA_SUITE_NAMES))
    assert all(report.passed for report in reports)
    assert CountingRandom.counts == {"Random": 3, "randrange": 20038, "choice": 2500}


def test_sampled_runs_come_straight_from_their_draws(monkeypatch):
    """At the benchmark's sampled bounds, seed 1, the seven suites never list
    the fiber maps of an object pair (fiber_parts, through bm or sweeps): a
    kept edge draw and each edge of a drawn gluing chain are unranked from
    their counts, and the sampled edge suites build each run from its drawn
    parts."""
    calls: Counter = Counter()
    suite = None

    def counted(phi, phi_prime):
        calls[suite] += 1
        return fiber_parts(phi, phi_prime)

    monkeypatch.setattr(bm, "fiber_parts", counted)
    monkeypatch.setattr(sweeps, "fiber_parts", counted)
    config = SweepConfig(max_k=5, max_k_prime=5, max_chain_len=4, samples=2500, seed=1)
    for suite in SUITE_NAMES:
        assert sweeps.run_suite(config, suite).passed, suite
    assert not calls and monotone_tuples.cache_info().misses == 0


def test_sampled_suites_visit_one_run_per_drawn_signature(monkeypatch):
    """At the benchmark's sampled bounds, seed 1, each drawn edge's signature
    is computed once in the process, 2,500 times for the four edge suites
    together, and each object or edge suite checks one table row per distinct
    drawn signature: 27 objects and 552 edge signatures, while its total
    still counts every draw."""
    computed = 0
    signature_of = sweeps._edge_signature

    def counted(*args):
        nonlocal computed
        computed += 1
        return signature_of(*args)

    visited = 0

    def counting(source):
        def counted_rows(config):
            table, walk = source(config)

            def rows():
                nonlocal visited
                for row in table:
                    visited += 1
                    yield row

            return rows(), walk

        return counted_rows

    monkeypatch.setattr(sweeps, "_edge_signature", counted)
    suites = {
        name: (tuple(map(counting, sources)), check)
        for name, (sources, check) in sweeps._SUITES.items()
    }
    monkeypatch.setattr(sweeps, "_SUITES", suites)
    config = SweepConfig(max_k=5, max_k_prime=5, max_chain_len=4, samples=2500, seed=1)
    rng, objs = random.Random(config.seed), enumerate_objects(config.max_k)
    objects = [rng.choice(objs) for _ in range(config.samples)]
    signatures = {edge_signature(edge) for edge in choose_from_filtered_edges(config)}
    expected = {
        "cardinality": (len(set(objects)), 2500),
        "decomposition": (len(set(objects)), sum(1 for phi in objects if phi.top)),
        **{name: (len(signatures), 2500) for name in EDGE_SUITES},
    }
    assert (expected["cardinality"][0], expected["constancy"][0]) == (27, 552)
    for name, want in expected.items():
        visited = 0
        report = sweeps.run_suite(config, name)
        assert report.passed and (visited, report.total) == want, name
    assert computed == 2500


def test_the_edge_grouping_keeps_at_most_8_bytes_per_draw():
    """Beyond the shared edge draw itself, its grouping by signature keeps
    at most 8 bytes per draw: tracemalloc over the draw and then the
    grouping at 50,000 samples, k, k' <= 2."""
    clear_memos()
    bounds = (2, 2, 50000, 0)
    tracemalloc.start()
    try:
        sweeps._edge_draws(*bounds)
        drawn = tracemalloc.get_traced_memory()[0]
        groups, _ = sweeps._edge_groups(*bounds)
        grouped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        clear_memos()
    assert sum(count for _, count, _ in groups) == 50000
    assert grouped - drawn <= 8 * 50000


def test_edge_checks_build_no_chain(monkeypatch):
    """Constancy, naturality, identification and xi at k, k' <= 2 build no
    BmChain: a check of one edge reads the kernel, or G alone,
    from the edge, and xi reads an object's vertex from the object."""
    builds = 0
    post_init = BmChain.__post_init__

    def built(chain):
        nonlocal builds
        builds += 1
        post_init(chain)

    monkeypatch.setattr(BmChain, "__post_init__", built)
    for name in ("constancy", "naturality", "identification", "xi"):
        builds = 0
        report = sweeps.run_suite(SMALL, name)
        assert (report.passed, report.total > 0, builds) == (True, True, 0), name


EDGE_MUTANTS = {
    "none": lambda monkeypatch: None,
    "fiber_map": short_fiber_map,
    "_gamma": gamma_off_by_one,
    "_resolve": x1_zero_as_x1_one,
    "dropped pairing rule": dropped_inner_rule,
}


def rotated_g(monkeypatch):
    """Every vertex in the class of the next vertex number, so that G moves its witnesses."""
    monkeypatch.setattr(
        compare, "g_classes", lambda sizes, maps: [(v + 1) % sum(sizes) for v in range(sum(sizes))]
    )


#: Per mutant, on the objects, edges and two-edge chains with k <= 2: the
#: instances the kernel raises on, and those whose pairs disagree or whose G
#: moves a witness.
KERNEL_VERDICTS = {
    "none": (0, 0, 0),
    "fiber_map": (900, 0, 0),
    "_gamma": (0, 185, 0),
    "_resolve": (190, 0, 0),
    "dropped pairing rule": (0, 0, 0),
    "rotated G": (0, 880, 935),
}


@pytest.mark.parametrize("mutant", list(KERNEL_VERDICTS))
def test_kernel_verdicts_are_their_per_label_definitions(monkeypatch, mutant):
    """On every object, edge and two-edge chain with k <= 2, plain, under each
    edge mutant and with a G that moves its witnesses, the kernel's two
    verdicts are what they stand for: both labels of every pair have one
    witness, and G fixes every witness."""
    {**EDGE_MUTANTS, "rotated G": rotated_g}[mutant](monkeypatch)
    raised = disagreeing = moving = 0
    for instance in enumerate_objects(2) + enumerate_all_edges(2, 2) + two_edge_chains(2):
        try:
            _, _, pairs, _, _, g, witness, agrees, fixed = compare._sides(instance)
        except sweeps._INSTANCE_ERRORS:
            raised += 1
            continue
        assert agrees == all(witness[a] == witness[b] for a, b in pairs), instance.encode()
        assert fixed == all(g[w] == w for w in witness), instance.encode()
        disagreeing += not agrees
        moving += not fixed
    assert (raised, disagreeing, moving) == KERNEL_VERDICTS[mutant]


@pytest.mark.parametrize("mutant", list(KERNEL_VERDICTS))
def test_memo_verdicts_are_the_verdicts_of_sides(monkeypatch, mutant):
    """On every edge with k, k' <= 4, plain, under each edge mutant and with
    a G that moves its witnesses, the verdict memo gives the two verdicts of
    _sides on the edge, and naturality and xi on the edge give what they
    give on its chain, which reads no memo.  Where _sides raises, the memo
    gives none, and constancy, naturality and xi raise the error of _sides,
    which names the edge."""
    {**EDGE_MUTANTS, "rotated G": rotated_g}[mutant](monkeypatch)
    raised = 0
    for edge in enumerate_all_edges(4, 4):
        chain = BmChain.from_edges([edge])
        for check in (compare.verify_naturality, compare.xi_restriction_commutes):
            assert check_outcome(check, edge) == check_outcome(check, chain), edge.encode()
        try:
            *_, agrees, fixed = compare._sides(edge)
        except sweeps._INSTANCE_ERRORS as exc:
            raised += 1
            error = (type(exc).__name__, str(exc))
            assert not any(compare._edge_passes(edge, verdicts) for verdicts in (1, 2, 3))
            for check in (
                compare.verify_constancy,
                compare.verify_naturality,
                compare.xi_restriction_commutes,
            ):
                assert check_outcome(check, edge) == error, (check, edge.encode())
            continue
        phi, phi_prime = edge.phi, edge.phi_prime
        verdicts = compare._edge_verdicts(
            phi.ell, phi.beta, phi_prime.ell, phi_prime.beta, *edge.fiber_map()
        )
        assert verdicts == agrees + 2 * fixed, edge.encode()
        assert (not check_outcome(compare.verify_constancy, edge)) == agrees, edge.encode()
    assert (raised > 0) == (mutant in ("fiber_map", "_resolve")), raised


def check_outcome(check, instance) -> tuple:
    """The failures of a check on an instance, or the error it raised."""
    try:
        return tuple(check(instance).failures)
    except sweeps._INSTANCE_ERRORS as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("mutant", list(EDGE_MUTANTS))
def test_objects_and_edges_check_as_their_chains(monkeypatch, mutant):
    """On every object and edge with k, k' <= 3, naturality and xi of the
    instance give the failures, or raise the error, of its chain of length 0
    or 1, plain and under each edge mutant."""
    EDGE_MUTANTS[mutant](monkeypatch)
    checks = [compare.verify_naturality, compare.xi_restriction_commutes]
    failing = 0
    for instance in enumerate_objects(3) + enumerate_all_edges(3, 3):
        if isinstance(instance, BmObject):
            chain = BmChain.vertex(instance)
        else:
            chain = BmChain.from_edges([instance])
        for check in checks:
            outcome = check_outcome(check, instance)
            assert outcome == check_outcome(check, chain), (mutant, instance.encode())
            failing += bool(outcome)
    assert (failing > 0) == (mutant not in ("none", "dropped pairing rule")), failing


#: Per mutant: the edges with k, k' <= 3 and with k, k' <= 4 that constancy,
#: xi and naturality fail.
SAME_FAILURES = {
    "none": (0, 0),
    "fiber_map": (336, 1650),
    "_gamma": (126, 928),
    "_resolve": (53, 226),
    "dropped pairing rule": (0, 0),
    "discrete G": (316, 1615),
}


@pytest.mark.parametrize("mutant", list(SAME_FAILURES))
def test_constancy_xi_and_naturality_fail_the_same_edges(monkeypatch, mutant):
    """xi checks only that gamma is well-defined, which is what constancy
    checks pair by pair: on all 2,421 edges with k, k' <= 4, constancy, xi
    and naturality fail exactly the same edges, plain, under each edge
    mutant and with every vertex its own component.  Each of the 861 edge
    signatures fails whole or not at all, naturality's included."""
    {**EDGE_MUTANTS, "discrete G": MUTANTS["discrete G"]}[mutant](monkeypatch)
    edges = enumerate_all_edges(4, 4)
    checks = (compare.verify_constancy, compare.xi_restriction_commutes, compare.verify_naturality)
    failing = {
        check.__name__: [edge for edge in edges if check_outcome(check, edge)] for check in checks
    }
    assert len(edges) == 2421
    assert failing["xi_restriction_commutes"] == failing["verify_constancy"]
    assert failing["verify_naturality"] == failing["verify_constancy"]
    small = [edge for edge in failing["verify_constancy"] if edge.phi.top <= 3 >= edge.phi_prime.top]
    assert (len(small), len(failing["verify_constancy"])) == SAME_FAILURES[mutant]
    signatures = Counter(map(edge_signature, edges))
    failed = Counter(map(edge_signature, failing["verify_constancy"]))
    assert len(signatures) == 861
    assert all(failed[signature] == signatures[signature] for signature in failed)


@pytest.mark.parametrize("mutant", list(EDGE_MUTANTS))
def test_signature_suites_match_checking_every_edge(monkeypatch, mutant):
    """Counting by shape and walking runs to list (exhaustive), or reusing
    verdicts by signature (sampled), gives the report of checking every edge
    of bm.enumerate_all_edges (or every list-chosen draw) on its own, record
    by record in listing order: exhaustive at k, k' <= 4 and at the
    asymmetric (3, 5) and (5, 2), where object pairs with other 1-fiber
    sizes share a class, and sampled at k, k' <= 5, plain and under mutants
    whose failing signatures must be listed edge by edge."""
    EDGE_MUTANTS[mutant](monkeypatch)
    configs = [SweepConfig(max_k=k, max_k_prime=kp) for k, kp in ((4, 4), (3, 5), (5, 2))]
    configs += [SweepConfig(max_k=5, max_k_prime=5, samples=200, seed=seed) for seed in range(5)]
    failed = 0
    repeated: Counter = Counter()
    for config in configs:
        exhaustive = config.samples is None
        if exhaustive:
            drawn = enumerate_all_edges(config.max_k, config.max_k_prime)
        else:
            drawn = choose_from_filtered_edges(config)
        assert len({edge_signature(edge) for edge in drawn}) < len(drawn)
        for name in SIGNED_SUITES:
            if exhaustive:
                records = edge_suite_records(config, name, enumerate_objects(config.max_k), drawn)
            else:
                records = per_draw_records(config, name)
            report = sweeps.run_suite(config, name).to_dict()
            assert report == expected_report(config, name, records), (config, name)
            failed += report["summary"]["failed"]
            if exhaustive and name != "xi":
                # Listed edges whose status and signature another listed edge shares.
                listed = Counter(
                    (i["status"], edge_signature(BmEdge.parse(i["key"])))
                    for i in report["instances"]
                )
                for (status, _), n in listed.items():
                    repeated[status] += n if n > 1 else 0
    assert failed > 0 or mutant == "none"
    assert repeated["warn"] > 0
    assert repeated["fail"] > 0 or mutant == "none"


@pytest.mark.parametrize("mutant,failing", [("_gamma", (444, 928)), ("_resolve", (16, 226))])
def test_failing_signatures_are_checked_once_then_edge_by_edge(monkeypatch, mutant, failing):
    """At k, k' <= 4, under gamma off by one (444 of the 861 signatures fail,
    928 of the 2,421 edges) and under x1(0) resolved as x1(1) (16 and 226,
    each witness naming its edge), constancy checks each signature once in
    its table, and then each edge of a failing signature on its own: the
    walk gives the runs of the failing signatures and no other.  Sampled at
    300 draws, it checks each drawn signature once, and each draw of a
    failing signature again."""
    EDGE_MUTANTS[mutant](monkeypatch)
    edges = enumerate_all_edges(4, 4)
    signatures = Counter(map(edge_signature, edges))
    failed = {
        edge_signature(edge) for edge in edges if check_outcome(compare.verify_constancy, edge)
    }
    assert (len(signatures), len(edges)) == (861, 2421)
    assert (len(failed), sum(signatures[s] for s in failed)) == failing
    calls = 0
    verify = sweeps.verify_constancy

    def counted(edge):
        nonlocal calls
        calls += 1
        return verify(edge)

    walked: Counter = Counter()

    def recorded(config):
        table, walk = sweeps._edges(config)

        def runs(flagged):
            for run in walk(flagged):
                walked[run[0]] += len(run[1])
                yield run

        return table, runs

    monkeypatch.setattr(sweeps, "verify_constancy", counted)
    monkeypatch.setitem(sweeps._SUITES, "constancy", ((recorded,), sweeps._SUITES["constancy"][1]))
    report = sweeps.run_suite(SweepConfig(max_k=4, max_k_prime=4), "constancy")
    assert (calls, report.total, report.failed) == (861 + failing[1], 2421, failing[1])
    assert walked == {signature: signatures[signature] for signature in failed}
    if mutant == "_resolve":
        for instance in report.instances:
            assert f"on edge {instance['key']}:" in instance["witnesses"][0]
    config = SweepConfig(max_k=4, max_k_prime=4, samples=300, seed=0)
    drawn = [edge_signature(edge) for edge in choose_from_filtered_edges(config)]
    again = sum(signature in failed for signature in drawn)
    calls = 0
    report = sweeps.run_suite(config, "constancy")
    assert 0 < again < 300
    assert (calls, report.total, report.failed) == (len(set(drawn)) + again, 300, again)


def test_suites_encode_only_the_instances_they_list(monkeypatch):
    """A passing instance is never encoded: every suite makes one outermost
    encode call per instance it lists, exhaustive at k, k' <= 3 and sampled
    at seeds 0-2, whether it encodes a built instance or formats the key of
    an unbuilt edge (bm.encode_edge).  A sampled instance listed at several
    draws is encoded at each of them."""
    calls = depth = 0

    def counting(encode):
        def counted(*args):
            nonlocal calls, depth
            calls += not depth
            depth += 1
            try:
                return encode(*args)
            finally:
                depth -= 1

        return counted

    for cls in (BmObject, BmEdge, BmChain):
        monkeypatch.setattr(cls, "encode", counting(cls.encode))
    monkeypatch.setattr(sweeps, "encode_edge", counting(sweeps.encode_edge))
    configs = [SweepConfig(max_k=3, max_k_prime=3)] + [
        SweepConfig(max_k=3, max_k_prime=3, samples=200, seed=seed) for seed in range(3)
    ]
    listed = repeated = 0
    for config in configs:
        for name in SUITE_NAMES + EXTRA_SUITE_NAMES:
            calls = 0
            instances = sweeps.run_suite(config, name).instances
            keys = {inst["key"] for inst in instances}
            assert calls == (len(keys) if config.samples is None else len(instances)), (
                config, name
            )
            listed += len(keys)
            repeated += len(instances) - len(keys)
    assert listed > 0 and repeated > 0  # the audit warnings
