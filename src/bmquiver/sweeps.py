"""Verification sweeps over bounded instance ranges.

Every suite enumerates its instances in a fixed order (or samples them with
a seeded generator), runs one check per instance (per fiber signature in
the exhaustive gluing suite), and aggregates a report:
failures stop nothing, they are collected with witnesses so a broken case
is localized.  Audit mismatches on crossing targets are warnings; the
pair-count identity is binding only where the target has no crossing.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .bm import (
    BmChain,
    BmEdge,
    BmObject,
    count_edges,
    edge_at,
    edge_pool,
    enumerate_all_edges,
    enumerate_objects,
)
from .compare import (
    verify_constancy,
    verify_decomposition,
    verify_edge_identification,
    verify_naturality,
    xi_restriction_commutes,
)
from .errors import PairingConstructionError, ValidationError
from .quiverf import f_object, j_cardinality_audit
from .simplex import DeltaMap, count_monotone, monotone_tuples
from .wfib import FiberSignature, g_chain, gluing_agreement


@dataclass(frozen=True)
class SweepConfig:
    """Bounds and mode for a verification run."""

    max_k: int = 3
    max_k_prime: int = 3
    max_chain_len: int = 2
    mode: str = "exhaustive"  # or "sampled"
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sampled"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.samples < 1:
            raise ValidationError("sampled mode needs samples >= 1")
        if min(self.max_k, self.max_k_prime) < 0 or self.max_chain_len < 0:
            raise ValidationError("bounds must be >= 0")

    def bounds_dict(self) -> dict:
        out: dict = {
            "maxK": self.max_k,
            "maxKPrime": self.max_k_prime,
            "maxChainLen": self.max_chain_len,
            "mode": self.mode,
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


@dataclass
class SuiteReport:
    """Aggregated outcome of one suite."""

    suite: str
    bounds: dict
    instances: list[dict] = field(default_factory=list)
    total: int = 0
    failed: int = 0
    warned: int = 0

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def add_pass(self, count: int = 1) -> None:
        self.total += count

    def add_fail(self, key: str, witnesses: list[str], count: int = 1) -> None:
        """One listed instance standing for count checked instances."""
        self.total += count
        self.failed += count
        self.instances.append({"key": key, "status": "fail", "witnesses": witnesses})

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "bounds": self.bounds,
            "instances": self.instances,
            "summary": {
                "total": self.total,
                "failed": self.failed,
                "warned": self.warned,
            },
        }


def _objects(config: SweepConfig) -> list[BmObject]:
    objs = enumerate_objects(config.max_k)
    if config.mode == "sampled":
        rng = random.Random(config.seed)
        objs = [rng.choice(objs) for _ in range(config.samples)]
    return objs


def _edges(config: SweepConfig) -> list[BmEdge]:
    """Every edge in range, or config.samples seeded draws.

    A draw picks a source and a target object, then an index into their
    edges in map order, and builds that one edge; a pair with no edges is
    drawn again without an index.  Drawing an index below n takes the same
    generator step as choosing from a list of n, so the draws match
    choosing from enumerate_edges.
    """
    if config.mode == "exhaustive":
        return enumerate_all_edges(config.max_k, config.max_k_prime)
    rng = random.Random(config.seed)
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    out: list[BmEdge] = []
    while len(out) < config.samples:
        phi = rng.choice(sources)
        phi_prime = rng.choice(targets)
        count = count_edges(phi, phi_prime)
        if count:
            out.append(edge_at(phi, phi_prime, rng.randrange(count)))
    return out


def cardinality_suite(config: SweepConfig) -> SuiteReport:
    """|F(phi)| = max(0, 2*ell + beta) and |G(phi)| = ell + 1 over all objects."""
    report = SuiteReport("cardinality", config.bounds_dict())
    for phi in _objects(config):
        expected_f = max(0, 2 * phi.ell + phi.beta)
        expected_g = phi.ell + 1
        got_f = len(f_object(phi))
        got_g = len(g_chain(BmChain.vertex(phi)))
        witnesses = []
        if got_f != expected_f:
            witnesses.append(f"|F| = {got_f}, expected {expected_f}")
        if got_g != expected_g:
            witnesses.append(f"|G| = {got_g}, expected {expected_g}")
        if witnesses:
            report.add_fail(phi.encode(), witnesses)
        else:
            report.add_pass()
    return report


def _check_edge(suite: str, edge: BmEdge) -> tuple[str, str, list[str]]:
    """One edge check; returns (key, status, witnesses)."""
    if suite == "constancy":
        result = verify_constancy(edge, include_trails=False)
    elif suite == "naturality":
        result = verify_naturality(BmChain.from_edges([edge]))
    elif suite == "identification":
        result = verify_edge_identification(edge)
    elif suite == "audit":
        audit = j_cardinality_audit(edge)
        if audit.degenerate or audit.raw_matches:
            return edge.encode(), "pass", []
        message = (
            f"raw count {audit.raw_count} != formula {audit.formula_count} "
            f"(effective {audit.effective_count}, "
            f"midImageTight={audit.mid_image_tight})"
        )
        # The closed formula is only binding without a crossing on the target.
        status = "fail" if edge.phi_prime.beta == 0 else "warn"
        return edge.encode(), status, [message]
    else:
        raise ValidationError(f"unknown edge suite {suite!r}")
    return result.key, result.status, list(result.failures)


def _edge_chunk_worker(args: tuple[str, list[BmEdge]]) -> list[tuple[str, str, list[str]]]:
    """Failing and warning records of a chunk of edges.

    An edge on which the pairing rules build an invalid label fails, with
    the error as its witness, instead of stopping the sweep.
    """
    suite, edges = args
    out = []
    for edge in edges:
        try:
            record = _check_edge(suite, edge)
        except PairingConstructionError as exc:
            record = (edge.encode(), "fail", [str(exc)])
        if record[1] != "pass":
            out.append(record)
    return out


def run_edge_suite(config: SweepConfig, suite: str, jobs: int = 1) -> SuiteReport:
    """Run an edge-based suite, optionally fanned out over worker processes.

    Chunks preserve enumeration order and results merge in chunk order, so
    output is identical for every jobs value.  More workers than cores
    would only contend, so jobs is capped at the core count.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    edges = _edges(config)
    report = SuiteReport(suite, config.bounds_dict())
    report.total = len(edges)
    if jobs <= 1 or len(edges) < 2 * jobs:
        records = _edge_chunk_worker((suite, edges))
    else:
        import multiprocessing

        size = (len(edges) + jobs - 1) // jobs
        chunks = [
            (suite, edges[i : i + size]) for i in range(0, len(edges), size)
        ]
        with multiprocessing.Pool(jobs) as pool:
            records = [r for part in pool.map(_edge_chunk_worker, chunks) for r in part]
    for key, status, witnesses in records:
        report.instances.append(
            {"key": key, "status": status, "witnesses": witnesses}
        )
        if status == "fail":
            report.failed += 1
        else:
            report.warned += 1
    return report


def decomposition_suite(config: SweepConfig) -> SuiteReport:
    """Segment-decomposition compatibility for every object with k >= 1."""
    report = SuiteReport("decomposition", config.bounds_dict())
    for phi in _objects(config):
        if phi.top == 0:
            continue
        result = verify_decomposition(phi)
        if result.passed:
            report.add_pass()
        else:
            report.add_fail(result.key, list(result.failures))
    return report


class _ChainCounts:
    """Closed-form chain counts over fiber-level chains, objects on [k <= max_k].

    An object is fixed by its 0-fiber size z and 1-fiber size o, with
    1 <= z + o <= max_k + 1, and an edge by a monotone map on each fiber.
    So the concrete chains over a fiber signature differ only in their
    1-fibers and the maps between them.  A weight vector gives, for each
    1-fiber size o of the last object, the number of those chains that end
    there; it depends on the 0-fiber sizes alone.
    """

    def __init__(self, max_k: int) -> None:
        self.max_k = max_k
        width = max_k + 2
        # maps_into[n][m]: monotone maps from n points into m points.
        self.maps_into = [
            [count_monotone(n, m) for m in range(width)] for n in range(width)
        ]

    def base(self, z: int) -> list[int]:
        """One chain of length 0 per object with 0-fiber size z."""
        return [1 if 1 <= z + o <= self.max_k + 1 else 0 for o in range(self.max_k + 2)]

    def step(self, weights: list[int], z: int) -> list[int]:
        """Weights after one more edge into an object with 0-fiber size z."""
        top = self.max_k + 1
        return [
            sum(w * n for w, n in zip(weights, row)) if 1 <= z + o <= top else 0
            for o, row in enumerate(self.maps_into)
        ]

    def representative(self, signature: FiberSignature) -> BmChain:
        """A fixed concrete chain with this signature, which must have a chain.

        Takes the smallest 1-fiber that still reaches the end at each
        position, and sends every 1-fiber point to the first 1-fiber point
        of the previous object.
        """
        sizes, maps = signature
        weights = [self.base(sizes[0])]
        for z in sizes[1:]:
            weights.append(self.step(weights[-1], z))
        ones: list[int] = []
        for row in reversed(weights):
            after = ones[-1] if ones else 0
            # A nonempty 1-fiber maps only into a nonempty one.
            ones.append(next(o for o, w in enumerate(row) if w and (o or not after)))
        ones.reverse()
        objs = [BmObject((0,) * z + (1,) * o) for z, o in zip(sizes, ones)]
        edges = []
        for t, fmap in enumerate(maps):
            images = fmap + (sizes[t],) * ones[t + 1]
            delta = DeltaMap(objs[t + 1].top, objs[t].top, images)
            edges.append(BmEdge(objs[t], objs[t + 1], delta))
        return BmChain.from_edges(edges)


def _check_vertex(report: SuiteReport, base: BmObject) -> None:
    """A chain of length 0: its components are in bijection with the base fiber."""
    size = len(g_chain(BmChain.vertex(base)))
    if size == base.ell + 1:
        report.add_pass()
    else:
        report.add_fail(base.encode(), [f"|G| = {size}, expected {base.ell + 1}"])


def _sampled_gluing(report: SuiteReport, config: SweepConfig) -> None:
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    pool = edge_pool(config.max_k)
    for _ in range(config.samples):
        length = rng.randint(0, config.max_chain_len)
        base = rng.choice(objs)
        edges = []
        current = base
        for _ in range(length):
            edge = rng.choice(pool[current])  # identity edge always present
            edges.append(edge)
            current = edge.phi_prime
        if not edges:
            _check_vertex(report, base)
            continue
        sizes = (base.ell + 1,) + tuple(e.phi_prime.ell + 1 for e in edges)
        maps = tuple(e.fiber_map() for e in edges)
        if gluing_agreement((sizes, maps)):
            report.add_pass()
        else:
            report.add_fail(
                BmChain.from_edges(edges).encode(),
                [f"gluing disagrees with direct components (fiber sizes {sizes})"],
            )


def _exhaustive_gluing(report: SuiteReport, config: SweepConfig) -> None:
    """Depth-first over fiber signatures, each extended from its prefix."""
    counts = _ChainCounts(config.max_k)
    width = config.max_k + 2
    fiber_maps = [[monotone_tuples(n, 0, m) for m in range(width)] for n in range(width)]

    def visit(sizes: tuple[int, ...], maps: tuple, weights: list, depth: int) -> None:
        last = sizes[-1]
        for z in range(width):
            child_weights = counts.step(weights, z)
            chains = sum(child_weights)
            if not chains:
                continue
            child_sizes = sizes + (z,)
            for fmap in fiber_maps[z][last]:
                signature = (child_sizes, maps + (fmap,))
                if gluing_agreement(signature):
                    report.add_pass(chains)
                else:
                    report.add_fail(
                        counts.representative(signature).encode(),
                        [
                            "gluing disagrees with direct components (fiber sizes "
                            f"{child_sizes}; {chains} chains share this signature)"
                        ],
                        chains,
                    )
                if depth < config.max_chain_len:
                    visit(child_sizes, signature[1], child_weights, depth + 1)

    for base in enumerate_objects(config.max_k):
        _check_vertex(report, base)
    if config.max_chain_len:
        for z in range(width):
            visit((z,), (), counts.base(z), 1)


def gluing_suite(config: SweepConfig) -> SuiteReport:
    """Edgewise gluing agrees with direct components on every chain in range.

    Every chain position is an object on [k <= max_k]; max_k_prime is not
    used.  Chains of length 0 only assert the base-fiber bijection.  The
    check on a longer chain is a function of its fiber signature alone (the
    pullback graph is built from nothing else).  Exhaustive mode therefore
    checks each fiber signature once, adds the number of concrete chains
    that share it, a closed form, to the counts, and lists a failing
    signature as one instance keyed by a concrete chain that has it.
    Sampled mode checks each drawn chain.
    """
    report = SuiteReport("gluing", config.bounds_dict())
    if config.mode == "sampled":
        _sampled_gluing(report, config)
    else:
        _exhaustive_gluing(report, config)
    return report


def xi_suite(config: SweepConfig, max_target_size: int = 3) -> SuiteReport:
    """Hom-set precomposition commutes with vertex restriction, all sizes up to the bound."""
    report = SuiteReport("xi", config.bounds_dict())
    chains = [BmChain.vertex(phi) for phi in _objects(config)]
    if config.max_chain_len >= 1:
        chains.extend(BmChain.from_edges([e]) for e in _edges(config))
    for chain in chains:
        for m in range(max_target_size + 1):
            result = xi_restriction_commutes(chain, m)
            if result.passed:
                report.add_pass()
            else:
                report.add_fail(result.key, list(result.failures))
    return report


SUITE_NAMES = (
    "cardinality",
    "constancy",
    "naturality",
    "decomposition",
    "gluing",
    "identification",
    "audit",
)
#: Suites that run only when named; xi uses targets of size <= 3.
EXTRA_SUITE_NAMES = ("xi",)


def run_suites(
    config: SweepConfig, suites: list[str] | None = None, jobs: int = 1
) -> list[SuiteReport]:
    """Run the named suites (default: the battery of SUITE_NAMES) in the order given."""
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    names = suites if suites is not None else list(SUITE_NAMES)
    unknown = [n for n in names if n not in SUITE_NAMES + EXTRA_SUITE_NAMES]
    if unknown:
        raise ValidationError(f"unknown suites {unknown}")
    reports = []
    for name in names:
        if name == "cardinality":
            reports.append(cardinality_suite(config))
        elif name == "decomposition":
            reports.append(decomposition_suite(config))
        elif name == "gluing":
            reports.append(gluing_suite(config))
        elif name == "xi":
            reports.append(xi_suite(config, max_target_size=3))
        else:
            reports.append(run_edge_suite(config, name, jobs))
    return reports
