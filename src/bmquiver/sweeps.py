"""Verification sweeps over bounded instance ranges.

Every suite enumerates its instances in a fixed order (or samples them with
a seeded generator), checks them in a single process, and aggregates a
report: failures stop nothing, they are collected with witnesses so a
broken case is localized.
Every suite runs through one loop, _sweep, but for the walk over fiber
signatures of exhaustive gluing.  A source gives runs: instances that
share one signature, each at its position.  Exhaustive, a run is a stretch
of consecutive instances in enumeration order.  Sampled objects and edges
are drawn once per process for given bounds and seed, kept as indices into
the enumeration (an edge as its image parts too), and grouped once by
signature, in order of first draw; every suite that samples them reads
that one draw and grouping, and a run is a group: every draw of one
signature.  So a sampled suite checks each distinct signature once, and
touches single draws only to list their records, in draw order, or to
re-check the draws of a failing signature.  A check gives only what
failed, never a key, and the sweep lists it under the instance's key.  A
sweep that reuses verdicts by signature counts a run whose signature
passed in place, without building its instances, and lists a run whose
signature warned under its instances' keys, unbuilt.
Audit mismatches on crossing targets are warnings; the pair-count identity
is binding only where the target has no crossing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, groupby, product
from typing import Callable, Iterable, Iterator, Sequence

from .bm import (
    BmChain,
    BmEdge,
    BmObject,
    _edge_of_parts,
    count_edges,
    edge_at,
    edge_parts,
    encode_edge,
    enumerate_objects,
    fiber_parts,
)
from .compare import (
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


#: What a check gives for one instance: None for a pass, else (suffix, "fail"
#: or "warn", witnesses).  The sweep lists it under the instance's key followed
#: by suffix, which is "" but in xi, where it names a target size ("@m").
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
        """count checked instances with one full-keyed record, listed once if not a pass."""
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


#: A run: instances of a source that share one signature, as (signature, at,
#: instance, key).  at holds one entry a per instance, in order: exhaustive,
#: the instances are consecutive in enumeration order (an edge's entry is its
#: 1-part); sampled, each entry is a draw position, in draw order, by which
#: the sweep lists.  instance(a) builds what the check reads of the instance
#: (a drawn chain gives its fiber signature) and key(a) gives its encoding
#: without building it, so a run that is only counted, or only listed, is
#: never built.
Run = tuple[object, Sequence, Callable[..., object], Callable[..., str]]


def _grouped(keys: Iterable) -> tuple[tuple[tuple[object, int], ...], memoryview]:
    """The draws with these keys, grouped by key: (key, count) per group, in
    order of first draw, and the positions of every group's draws, group
    after group, each group's in draw order (see _group_runs).

    The positions take 4 bytes per draw.  Each key is read once.
    """
    numbers: dict = {}
    groups = [numbers.setdefault(key, len(numbers)) for key in keys]
    counts = [0] * len(numbers)
    for group in groups:
        counts[group] += 1
    starts = list(accumulate(counts))
    order = _positions(len(groups))
    # Filled from the last draw back, so that starts[g] ends at group g's start.
    for position in reversed(range(len(groups))):
        group = groups[position]
        starts[group] -= 1
        order[starts[group]] = position
    return tuple(zip(numbers, counts)), order


def _positions(size: int) -> memoryview:
    """size integers below 2**32, all 0, writable, in 4 bytes each."""
    return memoryview(bytearray(4 * size)).cast("I")


def _group_runs(grouping: tuple) -> Iterator[tuple[object, memoryview]]:
    """Each group of a _grouped result with a view of its draw positions."""
    groups, order = grouping
    start = 0
    for key, count in groups:
        yield key, order[start : start + count]
        start += count


@lru_cache(maxsize=1)
def _object_groups(max_k: int, samples: int, seed: int) -> tuple:
    """samples seeded draws of an enumerate_objects(max_k) index, grouped by
    index (see _grouped).

    Every suite of a process that samples objects at these bounds and seed
    reads this one grouping; the draws are kept only in it.
    """
    rng = random.Random(seed)
    indices = range(len(enumerate_objects(max_k)))
    return _grouped(rng.choice(indices) for _ in range(samples))


def _objects(config: SweepConfig) -> Iterator[Run]:
    """The objects to check: every object in range, each a run of one, or
    config.samples seeded draws (see _object_groups), a run per drawn object
    with every draw of it."""
    objs = enumerate_objects(config.max_k)
    if config.samples is None:
        return map(_object_run, objs)
    groups = _object_groups(config.max_k, config.samples, config.seed)
    return (_object_run(objs[index], at) for index, at in _group_runs(groups))


def _object_run(phi: BmObject, at: Sequence = range(1)) -> Run:
    """The run of one object at these positions, built already; an object is
    its own signature."""
    return phi, at, lambda a: phi, lambda a: phi.encode()


def _edge_signature(phi: BmObject, phi_prime: BmObject, zero: tuple, one: tuple) -> tuple:
    """The signature of the edge phi -> phi' with images zero + one.

    It is what the constancy, identification, audit and xi checks read of
    an edge: (ell, beta, ell', beta'), the images of the 0-fiber of phi',
    and p(ell' + 1) when beta' = 1 (the audit reads it).  It is read from
    the images, not through BmEdge.fiber_map, so edges that the pairing
    rules tell apart are never merged.
    """
    beta_prime = phi_prime.beta
    return phi.ell, phi.beta, phi_prime.ell, beta_prime, zero + one[:beta_prime]


def _edge_run(phi: BmObject, phi_prime: BmObject, zero: tuple, ones: tuple) -> Run:
    """The run of edges phi -> phi' with this 0-part and these 1-parts, in map
    order, under their signature (see _edge_signature).  When beta' = 1 the
    1-parts must share their first image.
    """
    edge = partial(_edge_of_parts, phi, phi_prime, zero)

    def key(one: tuple) -> str:
        return encode_edge(phi, phi_prime, zero + one)

    return _edge_signature(phi, phi_prime, zero, ones[0]), ones, edge, key


def _edge_runs(config: SweepConfig) -> Iterator[Run]:
    """Every edge in range as runs: sources, then targets, in enumerate_objects
    order, then maps in edge order (see enumerate_edges).

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


@lru_cache(maxsize=1)
def _edge_draws(max_k: int, max_k_prime: int, samples: int, seed: int) -> tuple[tuple, ...]:
    """samples seeded edge draws, in draw order, as four parallel tuples: the
    source's index in enumerate_objects(max_k), the target's in
    enumerate_objects(max_k_prime), and the edge's 0-part and 1-part (see bm.edge_parts).

    A draw picks a source and a target, then an index into their edges; a
    pair with no edges (count_edges, nothing listed) is drawn again without
    an index.  Drawing an index below n takes the same generator step as
    choosing from a list of n, so the draws match choosing from
    enumerate_edges.  Every suite of a process that samples edges at these
    bounds and seed reads this one draw.
    """
    rng = random.Random(seed)
    sources = enumerate_objects(max_k)
    targets = enumerate_objects(max_k_prime)
    draws: list[tuple] = []
    while len(draws) < samples:
        source = rng.randrange(len(sources))
        target = rng.randrange(len(targets))
        if count := count_edges(sources[source], targets[target]):
            parts = edge_parts(sources[source], targets[target], rng.randrange(count))
            draws.append((source, target, *parts))
    return tuple(zip(*draws))


@lru_cache(maxsize=1)
def _edge_groups(max_k: int, max_k_prime: int, samples: int, seed: int) -> tuple:
    """The draws of _edge_draws grouped by signature (see _edge_signature and
    _grouped), each draw's signature computed once."""
    sources = enumerate_objects(max_k)
    targets = enumerate_objects(max_k_prime)
    phis, phi_primes, zeros, ones = _edge_draws(max_k, max_k_prime, samples, seed)
    phis, phi_primes = map(sources.__getitem__, phis), map(targets.__getitem__, phi_primes)
    return _grouped(map(_edge_signature, phis, phi_primes, zeros, ones))


def _edges(config: SweepConfig) -> Iterator[Run]:
    """The edges to check, as runs.

    Exhaustive: every edge in range (see _edge_runs).  Sampled: the draws of
    _edge_draws, a run per signature with every draw of it (see
    _edge_groups), each edge built straight from its parts when it is reached.
    Both build their edges with bm._edge_of_parts.
    """
    if config.samples is None:
        yield from _edge_runs(config)
        return
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    bounds = config.max_k, config.max_k_prime, config.samples, config.seed
    phis, phi_primes, zeros, ones = _edge_draws(*bounds)

    def edge(a: int) -> BmEdge:
        return _edge_of_parts(sources[phis[a]], targets[phi_primes[a]], zeros[a], ones[a])

    def key(a: int) -> str:
        return encode_edge(sources[phis[a]], targets[phi_primes[a]], zeros[a] + ones[a])

    for signature, at in _group_runs(_edge_groups(*bounds)):
        yield signature, at, edge, key


def _vertex_chain_failures(phi: BmObject) -> list[str]:
    """|G| = ell + 1 on the chain of length 0 at phi, whose components are its fiber."""
    size = len(g_chain(BmChain.vertex(phi)))
    return [] if size == phi.ell + 1 else [f"|G| = {size}, expected {phi.ell + 1}"]


#: The records of one instance that passed.
_PASS: tuple[Record, ...] = (None,)


def _failed(witnesses: Sequence[str], status: str = "fail") -> tuple[Record, ...]:
    """The one record of an instance with these witnesses, None when it has none."""
    return (("", status, list(witnesses)),) if witnesses else _PASS


def _cardinality(phi: BmObject) -> tuple[Record, ...]:
    """|F(phi)| = max(0, 2*ell + beta) and |G(phi)| = ell + 1."""
    expected_f = max(0, 2 * phi.ell + phi.beta)
    got_f = len(f_object(phi))
    witnesses = [] if got_f == expected_f else [f"|F| = {got_f}, expected {expected_f}"]
    return _failed(witnesses + _vertex_chain_failures(phi))


def _decomposition(phi: BmObject) -> tuple[Record, ...]:
    """Segment-decomposition compatibility; objects on [0] have no segments and no record."""
    return _failed(verify_decomposition(phi).failures) if phi.top else ()


#: The errors that fail one instance with the error as its witness: pairing
#: rules that build an invalid label, an ill-defined gamma, or fiber maps
#: that G rejects.
_INSTANCE_ERRORS = (PairingConstructionError, IllDefinedComponentError, ValidationError)


def _on_edge(check: Callable[[BmEdge], tuple[Record, ...]]) -> Callable:
    """The check, failing an edge on which it raises one of _INSTANCE_ERRORS."""

    def checked(edge: BmEdge) -> tuple[Record, ...]:
        try:
            return check(edge)
        except _INSTANCE_ERRORS as exc:
            return _failed([str(exc)])

    return checked


@_on_edge
def _constancy(edge: BmEdge) -> tuple[Record, ...]:
    return _failed(verify_constancy(edge).failures)


@_on_edge
def _naturality(edge: BmEdge) -> tuple[Record, ...]:
    return _failed(verify_naturality(edge).failures)


@_on_edge
def _identification(edge: BmEdge) -> tuple[Record, ...]:
    return _failed(verify_edge_identification(edge).failures)


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
    return _failed([message], "fail" if edge.phi_prime.beta == 0 else "warn")


def _xi(instance: BmObject | BmEdge, max_target_size: int = 3) -> tuple[Record, ...]:
    """On the chain of one object or edge, unbuilt, one check gives the record
    of every target size m, suffixed @m as `bmquiver eval xi` replays it.
    One of _INSTANCE_ERRORS fails the instance with the error.
    """
    try:
        failures = xi_restriction_commutes(instance).failures
    except _INSTANCE_ERRORS as exc:
        failures = (str(exc),)
    if not failures:
        return (None,) * (max_target_size + 1)
    return tuple((f"@{m}", "fail", list(failures)) for m in range(max_target_size + 1))


def _xi_edges(config: SweepConfig) -> Iterable[Run]:
    """The edges of the xi suite: none unless chains of length 1 are in range."""
    return _edges(config) if config.max_chain_len else []


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


def _chain_run(
    signature: FiberSignature, objs: list[BmObject], base: int, steps: list[int], position: int
) -> Run:
    """The run of one drawn chain of length >= 1 at its draw position, whose
    signature and instance are its fiber signature.

    steps holds each edge as two integers in a row, the index of its target
    in objs and its index among the edges into that target (see edge_at),
    from objs[base] on; the edges are built for the key only.
    """

    def key(a: int) -> str:
        edges, current, flat = [], base, iter(steps)
        for target, index in zip(flat, flat):
            edges.append(edge_at(objs[current], objs[target], index))
            current = target
        return BmChain.from_edges(edges).encode()

    return signature, (position,), lambda a: signature, key


def _drawn_chains(config: SweepConfig) -> Iterator[Run]:
    """config.samples seeded chains, each a run of one at its draw position.

    A draw picks a length and a base object, then each next edge by its
    index among the edges leaving the current object: targets in
    enumerate_objects order, then maps in edge order, the order in which
    `bmquiver enumerate chains` lists them.  Drawing an index below n takes
    the same generator step as choosing from a list of n, so the chains are
    those of choosing from that list.  Cumulative edge counts give an
    index's target, and the 0-part of its bm.edge_parts its fiber map; a
    source's counts are made when a draw first leaves it.  A chain of
    length 0 is the run of its object; a longer one is given by its fiber
    signature (see _chain_run).
    """
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    # ends[s][t]: the number of edges from objs[s] to objs[0], ..., objs[t].
    ends: dict[int, list[int]] = {}
    for position in range(config.samples):
        length = rng.randint(0, config.max_chain_len)
        current = rng.randrange(len(objs))
        if not length:
            yield _object_run(objs[current], (position,))
            continue
        base, sizes, maps, steps = current, [objs[current].ell + 1], [], []
        for _ in range(length):
            if current not in ends:
                phi = objs[current]
                ends[current] = list(accumulate(count_edges(phi, target) for target in objs))
            row = ends[current]
            # The identity edge is always there, so row[-1] >= 1.
            index = rng.randrange(row[-1])
            target = bisect_right(row, index)
            if target:
                index -= row[target - 1]
            maps.append(edge_parts(objs[current], objs[target], index)[0])
            sizes.append(objs[target].ell + 1)
            steps += (target, index)
            current = target
        yield _chain_run((tuple(sizes), tuple(maps)), objs, base, steps, position)


def _gluing(instance: BmObject | FiberSignature) -> tuple[Record, ...]:
    """On a chain of length 0, given by its object, the base-fiber bijection;
    on a longer one, given by its fiber signature, gluing against direct
    components."""
    if isinstance(instance, BmObject):
        return _failed(_vertex_chain_failures(instance))
    if gluing_agreement(instance):
        return _PASS
    return _failed([f"gluing disagrees with direct components (fiber sizes {instance[0]})"])


def _exhaustive_gluing(report: SuiteReport, config: SweepConfig) -> None:
    """Chains of length >= 1, depth-first over 0-fiber sizes, z ascending, then fiber maps.

    Chain weights depend on the sizes alone, so each size prefix takes one
    step.  Each signature of the sizes (a product of per-edge fiber maps) is
    checked once for all their chains, and the passes of the sizes are added
    at once; failures list in (sizes, maps) order.  The walk keeps its own
    stack, so no chain length meets the recursion limit.
    """
    if not config.max_chain_len:
        return
    counts = _ChainCounts(config.max_k)
    width = config.max_k + 2
    fiber_maps = [[monotone_tuples(n, 0, m) for m in range(width)] for n in range(width)]
    # Size prefixes with their weights, the next to visit on top.
    stack = [((z,), counts.base(z)) for z in reversed(range(width))]
    while stack:
        sizes, weights = stack.pop()
        chains, passed = sum(weights), 0
        # A base prefix is a chain of length 0, checked before the walk.
        signatures = product(*(fiber_maps[b][a] for a, b in zip(sizes, sizes[1:])))
        for maps in signatures if len(sizes) > 1 else ():
            if gluing_agreement((sizes, maps)):
                passed += 1
            else:
                message = (
                    "gluing disagrees with direct components (fiber sizes "
                    f"{sizes}; {chains} chains share this signature)"
                )
                key = _representative((sizes, maps)).encode()
                report.add((key, "fail", [message]), chains)
        report.add(None, passed * chains)
        if len(sizes) <= config.max_chain_len:
            # A nonempty 0-fiber has no map into an empty one.
            for z in reversed(range(width if sizes[-1] else 1)):
                child_weights = counts.step(weights, z)
                if any(child_weights):
                    stack.append((sizes + (z,), child_weights))


def gluing_suite(config: SweepConfig) -> SuiteReport:
    """Edgewise gluing agrees with direct components on every chain in range.

    Every chain position is an object on [k <= max_k]; max_k_prime is not
    used.  Chains of length 0 only assert the base-fiber bijection.  The
    check on a longer chain is a function of its fiber signature alone (the
    pullback graph is built from nothing else).  Exhaustive mode therefore
    checks each fiber signature once, in ascending order, adds the number of
    concrete chains that share it, a closed form, to the counts, and lists a
    failing signature as one instance keyed by a concrete chain that has it.
    Sampled mode checks drawn chains (see _drawn_chains) as every sampled
    sweep checks its draws (see run_suite).
    """
    if config.samples is not None:
        return _sweep(config, "gluing", (_drawn_chains,), _gluing, True)
    report = _sweep(config, "gluing", (_objects,), _gluing, False)
    _exhaustive_gluing(report, config)
    return report


#: Per suite: the sources of its instances, each giving runs (see Run); the
#: check of one instance, which gives its records; and whether an exhaustive
#: sweep reuses verdicts by run signature, counting a run whose signature
#: passed unbuilt (a sampled sweep always does; see _sweep).  The checks call
#: the verifiers by their module names, so a verifier rebound here is the one
#: that runs.  Exhaustive naturality checks every edge: the benchmark's
#: traced self-check counts its calls.  A passing edge costs a lookup in
#: compare's verdict memo, keyed by the edge's shape ((ell, beta, ell',
#: beta') and fiber map); after constancy every shape is there already.
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
#: Suites that run only when named; xi lists targets of size <= 3.
EXTRA_SUITE_NAMES = ("xi",)


def _sweep(
    config: SweepConfig, name: str, sources: tuple, check: Callable, by_signature: bool
) -> SuiteReport:
    """Check the runs of every source in order, exhaustive or sampled alike,
    and list each record of a run's instance with entry a under key(a)
    followed by the record's suffix; passing records are tallied and added once.

    By signature, the instances of a run are built and checked in order
    until one passes, which counts the rest, or warns, whose records the
    rest take unbuilt; each instance of a failing signature is checked and
    listed with its own witnesses.  A run whose signature has passed or only
    warned before takes that verdict unchecked: a passing one is counted,
    every record of every instance, without building the run's instances.
    A sampled sweep always reuses verdicts: a run is every draw of one
    signature, so it checks each distinct signature once, and touches single
    draws only to list their records or to check the draws of a failing
    signature; its listings are put back in draw order, each draw's records
    in their order.  This is exact only if the check reads nothing beyond
    the signature; a check that read more would be under-checked, which the
    signature test in tests/test_sweeps.py guards.  The kept verdicts live
    for this call only.
    """
    report, passed = SuiteReport(name, config.bounds_dict()), 0
    verdicts: dict | None = {} if by_signature or config.samples is not None else None
    for source in sources:
        # (positions, key, records): the instances at positions list records.
        listed: list = []
        for signature, at, instance, key in source(config):
            kept = None if verdicts is None else verdicts.get(signature)
            n = 0
            while kept is None and n < len(at):
                records = check(instance(at[n]))
                if verdicts is not None and all(r is None or r[1] == "warn" for r in records):
                    kept = verdicts[signature] = records
                    break
                passed += records.count(None)
                if any(records):
                    listed.append((at[n : n + 1], key, records))
                n += 1
            if kept is not None:
                # The instances from n on take the kept records.
                passed += (len(at) - n) * kept.count(None)
                if any(kept):
                    listed.append((at[n:], key, kept))
        if listed and config.samples is not None:
            listed = _in_draw_order(listed, config.samples)
        for at, key, records in listed:
            for a in at:
                for record in filter(None, records):
                    report.add((key(a) + record[0], record[1], record[2]))
    report.add(None, passed)
    return report


def _in_draw_order(listed: list, samples: int) -> Iterator[tuple]:
    """The listed (positions, key, records) entries of a sampled source, one
    entry per position, in draw order; no two entries share a position."""
    numbers = _positions(samples)
    for number, (at, _, _) in enumerate(listed, 1):
        for a in at:
            numbers[a] = number
    return (((a,), *listed[n - 1][1:]) for a, n in enumerate(numbers) if n)


def reads_edges(config: SweepConfig, names: Iterable[str]) -> bool:
    """Whether a named suite's sources give edges, the only readers of max_k_prime."""
    sources = {source for name in names if name in _SUITES for source in _SUITES[name][0]}
    return _edges in sources or (_xi_edges in sources and config.max_chain_len > 0)


def run_suite(config: SweepConfig, name: str) -> SuiteReport:
    """Run one suite of SUITE_NAMES or EXTRA_SUITE_NAMES.

    Edges come in runs that share a signature (see _edge_runs and _sweep):
    exhaustive constancy, identification, audit and xi check each signature
    once and count a later run whose signature passed without building its
    edges, while exhaustive naturality builds and checks every edge.
    Sampled mode checks a drawn signature (an object is its own, a chain of
    length >= 1 has its fiber signature) once if it passes or warns, and at
    every draw if it fails, visiting the drawn objects and edges one run per
    signature (see _grouped); it lists each failing or warning draw in draw
    order, and the total counts every draw.  An instance on which the
    pairing rules build an invalid label, gamma is not well-defined, or G
    rejects the fiber maps fails with the error as its witness instead of
    stopping the sweep.
    """
    if name == "gluing":
        return gluing_suite(config)
    return _sweep(config, name, *_SUITES[name])


def xi_suite(config: SweepConfig, max_target_size: int = 3) -> SuiteReport:
    """Precomposition commutes with restriction: one check per instance, a record per size."""
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
