"""Verification sweeps over bounded instance ranges.

Every suite enumerates its instances in a fixed order (or samples them with
a seeded generator), runs one check per instance (per fiber signature in
the exhaustive gluing suite, per distinct draw in sampled mode outside
gluing, and per passing or warning edge signature in constancy,
identification, audit and xi) in a single process, and aggregates a
report: failures stop nothing, they are collected with witnesses so a
broken case is localized.
Every suite but gluing runs from one table of instance sources and checks.
A source gives runs: consecutive instances, in enumeration order, that
share one signature.  A suite that reuses verdicts by signature counts a
run whose signature passed without building its instances.
Audit mismatches on crossing targets are warnings; the pair-count identity
is binding only where the target has no crossing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, groupby
from typing import Callable, Iterable, Iterator

from .bm import (
    BmChain,
    BmEdge,
    BmObject,
    count_edges,
    edge_at,
    enumerate_objects,
    fiber_parts,
)
from .compare import (
    VerificationReport,
    verify_constancy,
    verify_decomposition,
    verify_edge_identification,
    verify_naturality,
    xi_restriction_commutes,
)
from .errors import IllDefinedComponentError, PairingConstructionError, ValidationError
from .quiverf import f_object, j_cardinality_audit
from .simplex import DeltaMap, count_monotone, monotone_tuples
from .wfib import FiberSignature, g_chain, gluing_agreement


@dataclass(frozen=True)
class SweepConfig:
    """Bounds for a verification run; it samples exactly when samples is set."""

    max_k: int = 3
    max_k_prime: int = 3
    max_chain_len: int = 2
    samples: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples is not None and self.samples < 1:
            raise ValidationError("sampled mode needs samples >= 1")
        if min(self.max_k, self.max_k_prime) < 0 or self.max_chain_len < 0:
            raise ValidationError("bounds must be >= 0")

    def bounds_dict(self) -> dict:
        out: dict = {
            "maxK": self.max_k,
            "maxKPrime": self.max_k_prime,
            "maxChainLen": self.max_chain_len,
            "mode": "exhaustive" if self.samples is None else "sampled",
        }
        if self.samples is not None:
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


#: The outcome of one checked instance: None for a pass, else
#: (key, "fail" or "warn", witnesses).
Record = tuple[str, str, list[str]] | None


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

    def add(self, record: Record, count: int = 1) -> None:
        """count checked instances with one record; one that did not pass is listed once."""
        self.total += count
        if record is None:
            return
        key, status, witnesses = record
        self.instances.append({"key": key, "status": status, "witnesses": witnesses})
        if status == "fail":
            self.failed += count
        else:
            self.warned += count

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


def _distinct(draws: list) -> tuple[list, list[int]]:
    """The distinct draws in order of first draw, and each draw's position among them."""
    position: dict = {}
    order = [position.setdefault(draw, len(position)) for draw in draws]
    return list(position), order


def _replay(results: Iterable, order: list[int] | None) -> Iterable:
    """One result per draw from one per distinct draw; order None is every instance once."""
    if order is None:
        return results
    results = list(results)
    return [results[i] for i in order]


#: A run: consecutive instances of a source, in enumeration order, that share
#: one signature, as (signature, count, instances); an instance is built as
#: it is read, so a run that is only counted is never built.
Run = tuple[object, int, Iterable]


def _objects(config: SweepConfig) -> tuple[list[Run], list[int] | None]:
    """The objects to check, each a run of one, and the draw order over them (see _replay).

    Exhaustive: every object in range, each checked once, and no order.
    Sampled: config.samples seeded draws.  Each distinct object is listed
    once, in order of first draw, so a suite checks it once and replays its
    result at every draw.  An object is its own signature.
    """
    objs = enumerate_objects(config.max_k)
    order = None
    if config.samples is not None:
        rng = random.Random(config.seed)
        objs, order = _distinct([rng.choice(objs) for _ in range(config.samples)])
    return [(phi, 1, (phi,)) for phi in objs], order


def _edge_run(phi: BmObject, phi_prime: BmObject, zero: tuple, ones: tuple) -> Run:
    """The run of edges phi -> phi' with this 0-part and these 1-parts, in map order.

    The signature is what the constancy, identification, audit and xi checks
    read of an edge: (ell, beta, ell', beta'), the images of the 0-fiber of
    phi', and p(ell' + 1) when beta' = 1 (the audit reads it).  It is read
    from the images, not through BmEdge.fiber_map, so edges that the
    pairing rules tell apart are never merged.  When beta' = 1 the 1-parts
    must share their first image.
    """
    beta_prime, kp, k = phi_prime.beta, phi_prime.top, phi.top
    signature = (phi.ell, phi.beta, phi_prime.ell, beta_prime, zero + ones[0][:beta_prime])
    edges = (BmEdge(phi, phi_prime, DeltaMap(kp, k, zero + one)) for one in ones)
    return signature, len(ones), edges


def _edge_runs(config: SweepConfig) -> Iterator[Run]:
    """Every edge in range, in enumerate_all_edges order, as runs.

    For an object pair, a 0-part and, when beta' = 1, the first image of the
    1-part fix the signature.  The 1-parts are in lexicographic order, so
    those that share a first image are consecutive and make one run.
    """
    targets = enumerate_objects(config.max_k_prime)
    for phi in enumerate_objects(config.max_k):
        for phi_prime in targets:
            zeros, ones = fiber_parts(phi, phi_prime)
            head = phi_prime.beta
            stretches = [tuple(group) for _, group in groupby(ones, lambda one: one[:head])]
            for zero in zeros:
                for stretch in stretches:
                    yield _edge_run(phi, phi_prime, zero, stretch)


def _edges(config: SweepConfig) -> tuple[Iterable[Run], list[int] | None]:
    """The edges to check, as runs, and the draw order over them (see _replay).

    Exhaustive: every edge in range, and no order.  Sampled: config.samples
    seeded draws.  A draw picks a source and a target object, then an index
    into their edges in map order; a pair with no edges is drawn again
    without an index.  Drawing an index below n takes the same generator
    step as choosing from a list of n, so the draws match choosing from
    enumerate_edges.  Each distinct draw is a run of one, in order of first draw.
    """
    if config.samples is None:
        return _edge_runs(config), None
    rng = random.Random(config.seed)
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    draws = []
    while len(draws) < config.samples:
        phi = sources[rng.randrange(len(sources))]
        phi_prime = targets[rng.randrange(len(targets))]
        zeros, ones = fiber_parts(phi, phi_prime)
        if zeros and ones:
            zero, one = divmod(rng.randrange(len(zeros) * len(ones)), len(ones))
            draws.append((phi, phi_prime, zeros[zero], ones[one : one + 1]))
    distinct, order = _distinct(draws)
    return (_edge_run(*draw) for draw in distinct), order


def _vertex_chain_failures(phi: BmObject) -> list[str]:
    """|G| = ell + 1 on the chain of length 0 at phi, whose components are its fiber."""
    size = len(g_chain(BmChain.vertex(phi)))
    return [] if size == phi.ell + 1 else [f"|G| = {size}, expected {phi.ell + 1}"]


#: The records of one instance that passed.
_PASS: tuple[Record, ...] = (None,)


def _records(instance: BmObject | BmEdge, result: VerificationReport) -> tuple[Record, ...]:
    """The records of one verified instance: its one record, None when it passed."""
    return _PASS if result.passed else ((instance.encode(), "fail", list(result.failures)),)


def _cardinality(phi: BmObject) -> tuple[Record, ...]:
    """|F(phi)| = max(0, 2*ell + beta) and |G(phi)| = ell + 1."""
    expected_f = max(0, 2 * phi.ell + phi.beta)
    got_f = len(f_object(phi))
    witnesses = [] if got_f == expected_f else [f"|F| = {got_f}, expected {expected_f}"]
    witnesses += _vertex_chain_failures(phi)
    return ((phi.encode(), "fail", witnesses),) if witnesses else _PASS


def _decomposition(phi: BmObject) -> tuple[Record, ...]:
    """Segment-decomposition compatibility; objects on [0] have no segments and no record."""
    return _records(phi, verify_decomposition(phi)) if phi.top else ()


def _on_edge(check: Callable[[BmEdge], tuple[Record, ...]]) -> Callable:
    """The check, failing an edge on which the pairing rules build an invalid label."""

    def checked(edge: BmEdge) -> tuple[Record, ...]:
        try:
            return check(edge)
        except PairingConstructionError as exc:
            return ((edge.encode(), "fail", [str(exc)]),)

    return checked


@_on_edge
def _constancy(edge: BmEdge) -> tuple[Record, ...]:
    return _records(edge, verify_constancy(edge))


@_on_edge
def _naturality(edge: BmEdge) -> tuple[Record, ...]:
    return _records(edge, verify_naturality(BmChain.from_edges([edge])))


@_on_edge
def _identification(edge: BmEdge) -> tuple[Record, ...]:
    return _records(edge, verify_edge_identification(edge))


@_on_edge
def _audit(edge: BmEdge) -> tuple[Record, ...]:
    audit = j_cardinality_audit(edge)
    if audit.degenerate or audit.raw_matches:
        return _PASS
    message = (
        f"raw count {audit.raw_count} != formula {audit.formula_count} "
        f"(effective {audit.effective_count}, midImageTight={audit.mid_image_tight})"
    )
    # The closed formula is only binding without a crossing on the target.
    status = "fail" if edge.phi_prime.beta == 0 else "warn"
    return ((edge.encode(), status, [message]),)


def _xi(instance: BmObject | BmEdge, max_target_size: int = 3) -> list[Record]:
    """On the chain of one object or edge, one record per target size.

    An ill-defined gamma, or pairing rules that build an invalid label,
    fail with the error.
    """
    is_object = isinstance(instance, BmObject)
    chain = BmChain.vertex(instance) if is_object else BmChain.from_edges([instance])
    records: list[Record] = []
    for m in range(max_target_size + 1):
        try:
            failures = list(xi_restriction_commutes(chain, m).failures)
        except (IllDefinedComponentError, PairingConstructionError) as exc:
            failures = [str(exc)]
        records.append((f"{chain.encode()};m={m}", "fail", failures) if failures else None)
    return records


def _xi_edges(config: SweepConfig) -> tuple[Iterable[Run], list[int] | None]:
    """The edges of the xi suite: none unless chains of length 1 are in range."""
    return _edges(config) if config.max_chain_len else ([], None)


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

    def base(self, z: int) -> tuple[int, ...]:
        """One chain of length 0 per object with 0-fiber size z."""
        return tuple(1 if 1 <= z + o <= self.max_k + 1 else 0 for o in range(self.max_k + 2))

    def step(self, weights: tuple[int, ...], z: int) -> tuple[int, ...]:
        """Weights after one more edge into an object with 0-fiber size z."""
        top = self.max_k + 1
        return tuple(
            sum(w * n for w, n in zip(weights, row)) if 1 <= z + o <= top else 0
            for o, row in enumerate(self.maps_into)
        )


def _representative(signature: FiberSignature) -> BmChain:
    """A fixed concrete chain with this signature, which must have a chain.

    Each position takes the smallest 1-fiber it can: one point when its
    0-fiber is empty (an object has a point) or the next position's 1-fiber
    is nonempty (a nonempty 1-fiber maps only into a nonempty one), else
    none.  Every 1-fiber point goes to the first 1-fiber point of the
    previous object.
    """
    sizes, maps = signature
    ones: list[int] = []
    after = 0
    for z in reversed(sizes):
        after = int(not z or after)
        ones.append(after)
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
    witnesses = _vertex_chain_failures(base)
    report.add((base.encode(), "fail", witnesses) if witnesses else None)


def _sampled_gluing(report: SuiteReport, config: SweepConfig) -> None:
    """config.samples seeded chains, each checked as drawn.

    A draw picks a length and a base object, then each next edge by its
    index among the edges leaving the current object: targets in
    enumerate_objects order, then maps in edge order, the order in which
    `bmquiver enumerate chains` lists them.  Drawing an index below n takes
    the same generator step as choosing from a list of n, so the chains are
    those of choosing from that list.  Cumulative edge counts give an
    index's target, and its 0-part index its fiber map; only a failing
    chain's edges are built, for its key.
    """
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    fibers = [phi.ell + 1 for phi in objs]
    ones = [phi.top - phi.ell for phi in objs]
    # ends[s][t]: the number of edges from objs[s] to objs[0], ..., objs[t].
    ends = [list(accumulate(count_edges(phi, target) for target in objs)) for phi in objs]
    for _ in range(config.samples):
        length = rng.randint(0, config.max_chain_len)
        current = rng.randrange(len(objs))
        if not length:
            _check_vertex(report, objs[current])
            continue
        sizes = [fibers[current]]
        maps = []
        steps = []
        for _ in range(length):
            # The identity edge is always there, so ends[current][-1] >= 1.
            index = rng.randrange(ends[current][-1])
            target = bisect_right(ends[current], index)
            if target:
                index -= ends[current][target - 1]
            zero = index // count_monotone(ones[target], ones[current])
            maps.append(monotone_tuples(fibers[target], 0, fibers[current])[zero])
            sizes.append(fibers[target])
            steps.append((current, target, index))
            current = target
        if gluing_agreement((tuple(sizes), tuple(maps))):
            report.add(None)
        else:
            edges = [edge_at(objs[s], objs[t], index) for s, t, index in steps]
            message = f"gluing disagrees with direct components (fiber sizes {tuple(sizes)})"
            report.add((BmChain.from_edges(edges).encode(), "fail", [message]))


def _exhaustive_gluing(report: SuiteReport, config: SweepConfig) -> None:
    """Depth-first over fiber signatures, each extended from its prefix.

    The weights after a step are a function of the weights before it and z,
    and many prefixes share their weights, so each step is computed once.
    """
    counts = _ChainCounts(config.max_k)
    width = config.max_k + 2
    fiber_maps = [[monotone_tuples(n, 0, m) for m in range(width)] for n in range(width)]
    steps: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}

    def visit(sizes: tuple[int, ...], maps: tuple, weights: tuple, depth: int) -> None:
        last = sizes[-1]
        for z in range(width):
            child_weights = steps.get((weights, z))
            if child_weights is None:
                child_weights = steps[weights, z] = counts.step(weights, z)
            chains = sum(child_weights)
            if not chains:
                continue
            child_sizes = sizes + (z,)
            for fmap in fiber_maps[z][last]:
                signature = (child_sizes, maps + (fmap,))
                if gluing_agreement(signature):
                    report.add(None, chains)
                else:
                    message = (
                        "gluing disagrees with direct components (fiber sizes "
                        f"{child_sizes}; {chains} chains share this signature)"
                    )
                    key = _representative(signature).encode()
                    report.add((key, "fail", [message]), chains)
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
    if config.samples is None:
        _exhaustive_gluing(report, config)
    else:
        _sampled_gluing(report, config)
    return report


#: Per suite: the sources of its instances, each giving runs (see Run) with
#: their draw order (see _replay); the check of one instance, which gives
#: its records; and whether the verdict is a function of the run signature,
#: so that a run whose signature passed is counted unbuilt (else every
#: instance is built and checked).  The checks call the verifiers by their
#: module names, so a verifier rebound here is the one that runs.  Naturality
#: checks every edge: the benchmark's traced self-check counts its calls.
_SUITES: dict[str, tuple[tuple[Callable, ...], Callable, bool]] = {
    "cardinality": ((_objects,), _cardinality, False),
    "constancy": ((_edges,), _constancy, True),
    "naturality": ((_edges,), _naturality, False),
    "decomposition": ((_objects,), _decomposition, False),
    "identification": ((_edges,), _identification, True),
    "audit": ((_edges,), _audit, True),
    "xi": ((_objects, _xi_edges), _xi, True),
}
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


def _run_records(run: Run, check: Callable, verdicts: dict | None) -> list:
    """The records of a run, each with the number of instances it counts, in order.

    verdicts keeps passing and warning verdicts by signature (None: check
    every instance).  A run whose signature passed is counted unbuilt.
    Else its instances are built and checked in order until one passes,
    which counts the rest, or warns: a warning names nothing else of its
    instance, so each later one is listed under its own key.  Each instance
    of a failing signature is checked and listed with its own witnesses.
    """
    signature, count, instances = run
    if verdicts is None:
        return [(check(instance), 1) for instance in instances]
    kept = verdicts.get(signature)
    if kept is not None and not any(kept):
        return [(kept, count)]
    out = []
    for done, instance in enumerate(instances):
        if kept is not None:
            key = instance.encode()
            out.append((tuple(None if r is None else (key, r[1], r[2]) for r in kept), 1))
            continue
        records = check(instance)
        if all(r is None or r[1] == "warn" for r in records):
            kept = verdicts[signature] = records
            if not any(records):
                out.append((records, count - done))
                break
        out.append((records, 1))
    return out


def _sweep(
    config: SweepConfig, name: str, sources: tuple, check: Callable, by_signature: bool
) -> SuiteReport:
    """Check the runs of every source, and replay the records per draw.

    By signature, a run whose signature has passed or only warned before
    takes that verdict unchecked.  This is exact only if the check reads
    nothing beyond the signature; a check that read more would be
    under-checked, which the signature test in tests/test_sweeps.py guards.
    The kept verdicts live for this call only.
    """
    report = SuiteReport(name, config.bounds_dict())
    verdicts: dict | None = {} if by_signature else None
    for source in sources:
        runs, order = source(config)
        results = (_run_records(run, check, verdicts) for run in runs)
        for counted in _replay(results, order):
            for records, count in counted:
                for record in records:
                    report.add(record, count)
    return report


def run_suite(config: SweepConfig, name: str) -> SuiteReport:
    """Run one suite of SUITE_NAMES or EXTRA_SUITE_NAMES.

    Sampled mode checks each distinct drawn object or edge once, and lists
    a failing or warning instance at each of its draws, in draw order; the
    total counts every draw.  Edges come in runs that share a signature
    (see _edge_runs and _run_records): constancy, identification, audit and
    xi check each signature once and count a later run whose signature
    passed without building its edges, while naturality builds and checks
    every edge.  An edge on which the pairing rules build an invalid label,
    or an xi instance on which gamma is not well-defined, fails with the
    error as its witness instead of stopping the sweep.
    """
    if name == "gluing":
        return gluing_suite(config)
    return _sweep(config, name, *_SUITES[name])


def xi_suite(config: SweepConfig, max_target_size: int = 3) -> SuiteReport:
    """Hom-set precomposition commutes with vertex restriction, all sizes up to the bound."""
    sources, _, by_signature = _SUITES["xi"]
    check = partial(_xi, max_target_size=max_target_size)
    return _sweep(config, "xi", sources, check, by_signature)


def run_suites(config: SweepConfig, suites: list[str] | None = None) -> list[SuiteReport]:
    """Run the named suites (default: the battery of SUITE_NAMES) in the order given."""
    names = suites if suites is not None else list(SUITE_NAMES)
    unknown = [n for n in names if n not in SUITE_NAMES + EXTRA_SUITE_NAMES]
    if unknown:
        raise ValidationError(f"unknown suites {unknown}")
    return [run_suite(config, name) for name in names]
