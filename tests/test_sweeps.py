"""The gluing sweep against concrete chain enumeration, sampled edge draws
against the list-choosing loop, the --jobs cap, and mutants of the integer
kernel that the edge suites must catch."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
from pathlib import Path

import pytest

from bmquiver import BmChain, chain_signature, gluing_agreement, wfib
from bmquiver import compare, quiverf, sweeps
from bmquiver.bm import BmEdge, edge_pool, enumerate_objects
from bmquiver.quiverf import LabelKind
from bmquiver.cli import EXIT_PASS, main
from bmquiver.quotient import UnionFind
from bmquiver.simplex import enumerate_maps
from bmquiver.sweeps import SweepConfig, gluing_suite, run_edge_suite

BOUNDS = [(2, 3), (3, 2)]  # (max_k, max_chain_len)


def concrete_chains(max_k: int, max_len: int):
    """Every chain with 1..max_len edges over objects on [k <= max_k]."""
    pool = edge_pool(max_k)
    frontier = [(edge,) for edges in pool.values() for edge in edges]
    for _ in range(max_len):
        yield from (BmChain.from_edges(edges) for edges in frontier)
        frontier = [
            edges + (edge,) for edges in frontier for edge in pool[edges[-1].phi_prime]
        ]


def glued_skipping_last_union(sizes, maps):
    """wfib._glued_components, skipping the union at each shared fiber's last element."""
    per_edge = [
        wfib._edge_components(sizes[t], sizes[t + 1], fmap) for t, fmap in enumerate(maps)
    ]
    class_offs = wfib._offsets(tuple(count for _, _, count in per_edge))
    uf = UnionFind(class_offs[-1])
    for t in range(len(maps) - 1):
        for j in range(sizes[t + 1] - 1):
            upper = class_offs[t] + per_edge[t][1][j]
            uf.union(upper, class_offs[t + 1] + per_edge[t + 1][0][j])
    comp = [uf.find(class_offs[0] + label) for label in per_edge[0][0]]
    for t in range(1, len(sizes)):
        comp.extend(uf.find(class_offs[t - 1] + label) for label in per_edge[t - 1][1])
    return comp


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
    monkeypatch.setattr(wfib, "_glued_components", glued_skipping_last_union)
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
    assert sorted(keyed) == sorted(failing)
    assert not any(gluing_agreement(signature) for signature in keyed)
    # Each witness counts the chains of its signature; together they are all failures.
    witnesses = [inst["witnesses"][0] for inst in report.instances]
    assert sum(int(w.split("; ")[1].split()[0]) for w in witnesses) == failed
    assert main(["eval", "G", report.instances[0]["key"]]) == EXIT_PASS


def choose_from_filtered_edges(config: SweepConfig) -> list[BmEdge]:
    """Sampled edges drawn by choosing from each pair's full list of maps over [1]."""
    rng = random.Random(config.seed)
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    out = []
    while len(out) < config.samples:
        phi = rng.choice(sources)
        phi_prime = rng.choice(targets)
        candidates = [
            BmEdge(phi, phi_prime, delta)
            for delta in enumerate_maps(phi_prime.top, phi.top)
            if [phi.values[v] for v in delta.images] == list(phi_prime.values)
        ]
        if candidates:
            out.append(rng.choice(candidates))
    return out


@pytest.mark.parametrize("max_k,max_k_prime", [(5, 5), (2, 5), (5, 2), (0, 3)])
def test_sampled_edges_drawn_by_index_match_choosing_from_lists(max_k, max_k_prime):
    for seed in range(20):
        config = SweepConfig(
            max_k=max_k, max_k_prime=max_k_prime, mode="sampled", samples=40, seed=seed
        )
        assert sweeps._edges(config) == choose_from_filtered_edges(config)


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, processes: int) -> None:
        self.sizes.append(processes)

    def __enter__(self) -> "RecordingPool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("cores,pools", [(2, [2]), (None, [])])
def test_jobs_capped_at_core_count(monkeypatch, cores, pools):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = SweepConfig(max_k=1, max_k_prime=1)
    report = run_edge_suite(config, "constancy", jobs=64)
    assert RecordingPool.sizes == pools
    assert report.to_dict() == run_edge_suite(config, "constancy", jobs=1).to_dict()


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


def test_short_fiber_map_fails_constancy_and_naturality(monkeypatch):
    """A fiber map that drops its last image breaks both edge suites, per edge.

    The whole report is pinned, so the rendering of witnesses stays fixed.
    """
    monkeypatch.setattr(
        BmEdge, "fiber_map", lambda edge: edge.map.images[: max(edge.phi_prime.ell, 0)]
    )
    reports = failing_reports(["constancy", "naturality"])
    for report in reports.values():
        assert (report.total, report.failed) == (109, 53)
        assert all(inst["status"] == "fail" for inst in report.instances)
    expected = Path(__file__).parent / "data" / "fiber_map_mutant.json"
    assert render(reports.values()) == expected.read_text()


def test_gamma_off_by_one_fails_constancy_and_naturality(monkeypatch):
    """x1(i) sent to fiber element i - 1 instead of i."""
    monkeypatch.setattr(compare, "_gamma", lambda code, ell: code // 2)
    reports = failing_reports(["constancy", "naturality"])
    assert reports["constancy"].failed == reports["naturality"].failed == 10
    witness = reports["naturality"].instances[0]["witnesses"][0]
    assert witness.startswith("vertex square t=0: v0:x2(2) gives (0, 0) != (0, 1)")


def test_redirecting_x1_zero_to_x1_one_fails_constancy_and_naturality(monkeypatch):
    """x1(0) resolved as x1(1) instead of x2(1): x1(0) arises only with ell = 0,
    where x1(1) does not exist, so the edge fails with the construction error."""
    resolve = quiverf._resolve

    def redirect(phi, ell, beta, kind, index):
        if kind is LabelKind.ONE and index == 0:
            return resolve(phi, ell, beta, LabelKind.ONE, 1)
        return resolve(phi, ell, beta, kind, index)

    monkeypatch.setattr(quiverf, "_resolve", redirect)
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
    edge_pairs = quiverf.edge_pairs

    def dropped(edge):
        pairs, notes = edge_pairs(edge)
        kept = [n for n, note in enumerate(notes) if note[0] != quiverf._INNER_NOTE]
        return [pairs[n] for n in kept], [notes[n] for n in kept]

    for module in (quiverf, compare):
        monkeypatch.setattr(module, "edge_pairs", dropped)
    audit = failing_reports(["audit"])["audit"]
    failing = [inst for inst in audit.instances if inst["status"] == "fail"]
    assert audit.failed == len(failing) == 3
    for instance in failing:
        edge = BmEdge.parse(instance["key"])
        assert edge.phi_prime.beta == 0
        assert instance["witnesses"][0].startswith("raw count ")
