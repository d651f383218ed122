"""The gluing sweep against concrete chain enumeration, sampled edge draws
against the list-choosing loop, and the --jobs cap."""

from __future__ import annotations

import json
import multiprocessing
import os
import random

import pytest

from bmquiver import BmChain, chain_signature, gluing_agreement, wfib
from bmquiver import sweeps
from bmquiver.bm import BmEdge, edge_pool, enumerate_objects
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


def test_short_fiber_map_fails_constancy_and_naturality(monkeypatch):
    """A fiber map that drops its last image breaks both edge suites, per edge."""
    monkeypatch.setattr(
        BmEdge, "fiber_map", lambda edge: edge.map.images[: max(edge.phi_prime.ell, 0)]
    )
    config = SweepConfig(max_k=2, max_k_prime=2)
    reports = sweeps.run_suites(config, ["constancy", "naturality"])
    for report in reports:
        assert (report.total, report.failed) == (109, 53)
        for instance in report.instances:
            assert instance["status"] == "fail" and instance["witnesses"]
            BmEdge.parse(instance["key"])
