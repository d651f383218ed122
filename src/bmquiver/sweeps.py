"""Verification sweeps over bounded instance ranges.

Every suite enumerates its instances in a fixed order, or samples them with
a seeded generator, checks them in one process and aggregates a report:
failures stop nothing, they are collected with witnesses, so a broken case
is localized.  Every suite runs through one loop, _sweep, but for the walk
over fiber signatures of exhaustive gluing.  A source gives a table and a
walk (see Source): the table checks each signature once, on one instance,
for every instance that has it, and the walk gives, in output order, the
runs (see Run) of the signatures that warned or failed, or every run of a
source with no table.  A check gives only what failed, never a key, and the
sweep lists it under the instance's key as the walk reaches it.  Exhaustive
edges are counted by shape (see _edge_signatures); sampled objects and edges
are drawn once per process for given bounds and seed, each edge unranked
from its counts, and grouped once by signature, a table row per group.
Audit mismatches on crossing targets are warnings; the pair-count identity
is binding only where the target has no crossing.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, groupby, product
from typing import Callable, Container, Iterable, Iterator, Sequence

from .bm import (
    BmChain,
    BmEdge,
    BmObject,
    _edge_of_parts,
    count_edges,
    count_leaving_edges,
    count_objects,
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
from .simplex import DeltaMap, _monotone_at, count_monotone, monotone_tuples
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
#: instance, key).  at holds one entry a per instance, in output order:
#: exhaustive, the instances are consecutive in enumeration order (an edge's
#: entry is its 1-part); sampled, a run is one draw and its entry the draw
#: position.  instance(a) builds what the check reads of the instance (a drawn
#: chain gives its fiber signature) and key(a) gives its encoding without
#: building it, so a run that is only listed is never built.
Run = tuple[object, Sequence, Callable[..., object], Callable[..., str]]

#: A source: (table, walk).  The table has a row (signature, count, instance)
#: per signature, checked once on instance for the count instances that have
#: it.  walk(flagged) gives, in output order, the runs of the signatures in
#: flagged, those whose row warned or failed; a source with no table gives
#: every run, and each of its instances is checked (see _sweep).
Source = tuple[Iterable[tuple[object, int, object]], Callable[[Container], Iterable[Run]]]


def _grouped(keys: Iterable) -> tuple[tuple[tuple[object, int, int], ...], array]:
    """The draws with these keys, grouped by key: (key, count, first draw
    position) per group, in order of first draw, and each draw's group
    number, in 4 bytes.  Each key is read once."""
    numbers: dict = {}
    drawn = array("I", (numbers.setdefault(key, len(numbers)) for key in keys))
    counts, firsts = [0] * len(numbers), [0] * len(numbers)
    for position, number in enumerate(drawn):
        if not counts[number]:
            firsts[number] = position
        counts[number] += 1
    return tuple(zip(numbers, counts, firsts)), drawn


def _drawn(grouping: tuple, instance: Callable, key: Callable) -> Source:
    """The source of grouped draws (see _grouped): a table row per group,
    checked on its first draw, and a walk that gives each draw of a flagged
    group as a run of one, in draw order.  instance(a) and key(a) read the
    draw at position a."""
    groups, drawn = grouping
    table = ((signature, count, instance(first)) for signature, count, first in groups)

    def walk(flagged: Container) -> Iterator[Run]:
        marked = [signature in flagged for signature, _, _ in groups]
        for a, number in enumerate(drawn):
            if marked[number]:
                yield groups[number][0], (a,), instance, key

    return table, walk


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


def _objects(config: SweepConfig) -> Source:
    """The objects to check: every object in range, each a run of one with no
    table, or config.samples seeded draws (see _object_groups), a table row
    per drawn object."""
    objs = enumerate_objects(config.max_k)
    if config.samples is None:
        return (), lambda flagged: map(_object_run, objs)
    groups, drawn = grouping = _object_groups(config.max_k, config.samples, config.seed)

    def phi(a: int) -> BmObject:
        return objs[groups[drawn[a]][0]]

    return _drawn(grouping, phi, lambda a: phi(a).encode())


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


def _edge_runs(config: SweepConfig, classes: Container | None = None) -> Iterator[Run]:
    """Every edge in range as runs: sources, then targets, in enumerate_objects
    order, then maps in edge order (see enumerate_edges).  Given classes,
    only the object pairs whose (ell, beta, ell', beta') is in them.

    For an object pair, a 0-part and, when beta' = 1, the first image of the
    1-part fix the signature.  The 1-parts are in lexicographic order, so
    those that share a first image are consecutive and make one run.
    """
    targets = enumerate_objects(config.max_k_prime)
    for phi in enumerate_objects(config.max_k):
        for phi_prime in targets:
            pair_class = phi.ell, phi.beta, phi_prime.ell, phi_prime.beta
            if classes is not None and pair_class not in classes:
                continue
            zeros, ones = fiber_parts(phi, phi_prime)
            head = phi_prime.beta
            stretches = [tuple(group) for _, group in groupby(ones, lambda one: one[:head])]
            for zero in zeros:
                for stretch in stretches:
                    yield _edge_run(phi, phi_prime, zero, stretch)


def _classes(objs: list[BmObject]) -> dict[tuple[int, int], list[BmObject]]:
    """The objects by class (ell, beta), each class's in their order."""
    classes: dict = {}
    for phi in objs:
        classes.setdefault((phi.ell, phi.beta), []).append(phi)
    return classes


def _edge_signatures(config: SweepConfig) -> Iterator[tuple[tuple, int, BmEdge]]:
    """Every edge signature in range once (see _edge_signature), with the
    number of edges in range that have it and one of those edges.

    An object is fixed by its class (ell, beta) and its 1-fiber size o.  The
    object pairs of one class pair share their 0-parts, and a signature is a
    class pair, a 0-part and, when beta' = 1, the first image ell + 1 + a of
    the 1-part: count_monotone(o' - 1, o - a) 1-parts begin there.  When
    beta' = 0, all count_monotone(o', o) 1-parts share one signature.  A
    signature's count sums these over the object pairs of its class pair.
    Its edge is built on the first of those pairs, in enumeration order,
    from the smallest 1-part with that first image, (ell + 1 + a,) * o', so
    no 1-part is listed.
    """
    sources = _classes(enumerate_objects(config.max_k))
    targets = _classes(enumerate_objects(config.max_k_prime))
    for (ell, beta), phis in sources.items():
        for (ell_prime, beta_prime), phi_primes in targets.items():
            # heads[a]: [count, phi, phi'] of the signatures whose 1-part begins at ell + 1 + a.
            heads: dict[int, list] = {}
            for phi, phi_prime in product(phis, phi_primes):
                o, o_prime = phi.top - ell, phi_prime.top - ell_prime
                if beta_prime:
                    counts = [count_monotone(o_prime - 1, o - a) for a in range(o)]
                else:
                    counts = [count_monotone(o_prime, o)]
                for a, count in enumerate(counts):
                    if count:
                        heads.setdefault(a, [0, phi, phi_prime])[0] += count
            for a, (count, phi, phi_prime) in heads.items():
                one = (ell + 1 + a,) * (phi_prime.top - ell_prime)
                for zero in monotone_tuples(ell_prime + 1, 0, ell + 1):
                    edge = _edge_of_parts(phi, phi_prime, zero, one)
                    yield _edge_signature(phi, phi_prime, zero, one), count, edge


@lru_cache(maxsize=1)
def _edge_draws(max_k: int, max_k_prime: int, samples: int, seed: int) -> tuple[tuple, ...]:
    """samples seeded edge draws, in draw order, as four parallel tuples: the
    source's index in enumerate_objects(max_k), the target's in
    enumerate_objects(max_k_prime), and the edge's 0-part and 1-part (see bm.edge_parts).

    A draw picks a source and a target, then an index into their edges,
    which bm.edge_parts unranks without listing a fiber map; a pair with no
    edges (count_edges) is drawn again without an index.  Drawing an index
    below n takes the same generator step as choosing from a list of n, so
    the draws match choosing from enumerate_edges.  Every suite of a process
    that samples edges at these bounds and seed reads this one draw.
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


def _edges(config: SweepConfig) -> Source:
    """The edges to check, a table row per signature.

    Exhaustive: the rows of _edge_signatures, and a walk over the runs of
    _edge_runs whose signature is flagged, on the object pairs of their
    classes alone.  Sampled: a row per signature drawn by _edge_draws (see
    _edge_groups), each edge built straight from its parts when it is
    reached.  Both build their edges with bm._edge_of_parts.
    """
    if config.samples is None:

        def walk(flagged: Container) -> Iterator[Run]:
            runs = _edge_runs(config, {signature[:4] for signature in flagged})
            return (run for run in runs if run[0] in flagged)

        return _edge_signatures(config), walk
    sources = enumerate_objects(config.max_k)
    targets = enumerate_objects(config.max_k_prime)
    bounds = config.max_k, config.max_k_prime, config.samples, config.seed
    phis, phi_primes, zeros, ones = _edge_draws(*bounds)

    def edge(a: int) -> BmEdge:
        return _edge_of_parts(sources[phis[a]], targets[phi_primes[a]], zeros[a], ones[a])

    def key(a: int) -> str:
        return encode_edge(sources[phis[a]], targets[phi_primes[a]], zeros[a] + ones[a])

    return _drawn(_edge_groups(*bounds), edge, key)


def _every_edge(config: SweepConfig) -> Source:
    """The edges to check one by one when exhaustive: every run of _edge_runs,
    with no table.  Sampled, the source is _edges."""
    if config.samples is None:
        return (), lambda flagged: _edge_runs(config)
    return _edges(config)


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


def _xi_edges(config: SweepConfig) -> Source:
    """The edges of the xi suite: none unless chains of length 1 are in range."""
    return _edges(config) if config.max_chain_len else ((), lambda flagged: ())


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


def _drawn_chains(config: SweepConfig) -> Source:
    """The chains of sampled gluing, with no table (see _chain_draws)."""
    return (), lambda flagged: _chain_draws(config)


def _chain_draws(config: SweepConfig) -> Iterator[Run]:
    """config.samples seeded chains, each a run of one at its draw position.

    A draw picks a length and a base object, then each next edge by its
    index among the edges leaving the current object: targets in
    enumerate_objects order, then maps in edge order, the order in which
    `bmquiver enumerate chains` lists them.  Drawing an index below n takes
    the same generator step as choosing from a list of n, so the chains are
    those of choosing from that list.  The index is unranked from counts,
    listing no fiber map: per-ordinal counts, the same for every source on
    [k], give the target's ordinal, the counts into its k' + 2 objects the
    target, and the rest the fiber map, the 0-part alone.  A chain of length
    0 is the run of its object; a longer one is given by its fiber signature
    (see _chain_run).
    """
    rng = random.Random(config.seed)
    objs = enumerate_objects(config.max_k)
    tops = range(config.max_k + 1)
    # firsts[k']: the index in objs of the first object on [k'].  Made on first use:
    # totals[k][k' + 1], the edges from an object on [k] into those on [0], ..., [k'],
    # and rows[s, k'][j], from objs[s] into the first j objects on [k'], both from 0.
    firsts = [count_objects(k - 1) for k in tops]
    totals: dict[int, list[int]] = {}
    rows: dict[tuple[int, int], list[int]] = {}
    for position in range(config.samples):
        length = rng.randint(0, config.max_chain_len)
        current = rng.randrange(len(objs))
        if not length:
            yield _object_run(objs[current], (position,))
            continue
        base, sizes, maps, steps = current, [objs[current].ell + 1], [], []
        for _ in range(length):
            phi = objs[current]
            if phi.top not in totals:
                totals[phi.top] = [0, *(count_leaving_edges(phi.top, k) for k in tops)]
            total = totals[phi.top]
            # The identity edge is always there, so total[-1] >= 1.
            index = rng.randrange(total[-1])
            top = bisect_right(total, index) - 1
            index -= total[top]
            row = rows.get((current, top))
            if row is None:
                targets = objs[firsts[top] : firsts[top] + top + 2]
                row = rows[current, top] = [0, *accumulate(count_edges(phi, t) for t in targets)]
            target = bisect_right(row, index) - 1
            index -= row[target]
            target += firsts[top]
            phi_prime = objs[target]
            # The 1-parts vary fastest in edge order (see bm.edge_parts).
            ones = count_monotone(phi_prime.top - phi_prime.ell, phi.top - phi.ell)
            maps.append(_monotone_at(phi_prime.ell + 1, 0, phi.ell + 1, index // ones))
            sizes.append(phi_prime.ell + 1)
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
    pullback graph is built from nothing else), so exhaustive mode checks
    each fiber signature once for all its chains, counted in closed form
    (see _exhaustive_gluing), and lists a failing one keyed by a concrete
    chain that has it.  Sampled mode checks drawn chains (see _drawn_chains)
    as every sampled sweep checks its draws (see _sweep).
    """
    if config.samples is not None:
        return _sweep(config, "gluing", (_drawn_chains,), _gluing)
    report = _sweep(config, "gluing", (_objects,), _gluing)
    _exhaustive_gluing(report, config)
    return report


#: Per suite: the sources of its instances (see Source) and the check of one
#: instance, which gives its records.  The checks call the verifiers by their
#: module names, so a verifier rebound here is the one that runs.  Exhaustive
#: naturality reads _every_edge, which checks every edge, because the
#: benchmark's traced self-check counts its calls; a passing edge costs a
#: lookup in compare's verdict memo.
_SUITES: dict[str, tuple[tuple[Callable, ...], Callable]] = {
    "cardinality": ((_objects,), _cardinality),
    "constancy": ((_edges,), _constancy),
    "naturality": ((_every_edge,), _naturality),
    "decomposition": ((_objects,), _decomposition),
    "identification": ((_edges,), _identification),
    "audit": ((_edges,), _audit),
    "xi": ((_objects, _xi_edges), _xi),
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


def _no_failure(records: tuple[Record, ...]) -> bool:
    """Whether the records pass or warn, so that every instance of their
    signature may take them; a failure's witnesses may name its instance."""
    return all(record is None or record[1] == "warn" for record in records)


def _sweep(config: SweepConfig, name: str, sources: tuple, check: Callable) -> SuiteReport:
    """Check every source in order, exhaustive or sampled alike: each table
    row once, then each run of the walk over the rows that warned or failed,
    listing each record of the instance with entry a under key(a) followed
    by the record's suffix as the walk reaches it.

    A passing row counts every instance of its signature, and a warning
    keeps its records, which the walk lists unbuilt; every other instance
    the walk gives is built and checked on its own, so each instance of a
    failing signature lists its own witnesses.  Sampled, the walk also keeps
    the records of an instance that passes or warns for the later runs of
    its signature.  Passing records are tallied and added once.  Reuse is
    exact only if the check reads nothing beyond the signature, which the
    signature test in tests/test_sweeps.py guards.  The kept records live
    for this call only.
    """
    report, passed = SuiteReport(name, config.bounds_dict()), 0
    sampled = config.samples is not None
    for source in sources:
        table, walk = source(config)
        kept: dict = {}
        flagged: set = set()
        for signature, count, instance in table:
            records = check(instance)
            if not any(records):
                passed += count * len(records)
                continue
            flagged.add(signature)
            if _no_failure(records):
                kept[signature] = records
        for signature, at, instance, key in walk(flagged):
            for a in at:
                records = kept.get(signature)
                if records is None:
                    records = check(instance(a))
                    if sampled and _no_failure(records):
                        kept[signature] = records
                passed += records.count(None)
                for suffix, status, witnesses in filter(None, records):
                    report.add((key(a) + suffix, status, witnesses))
    report.add(None, passed)
    return report


def reads_edges(config: SweepConfig, names: Iterable[str]) -> bool:
    """Whether a named suite's sources give edges, the only readers of max_k_prime."""
    sources = {source for name in names if name in _SUITES for source in _SUITES[name][0]}
    if config.max_chain_len and _xi_edges in sources:
        return True
    return bool(sources & {_edges, _every_edge})


def run_suite(config: SweepConfig, name: str) -> SuiteReport:
    """Run one suite of SUITE_NAMES or EXTRA_SUITE_NAMES: gluing through
    gluing_suite, every other suite through _sweep, exhaustive or sampled as
    its docstring says.  An instance on which the pairing rules build an
    invalid label, gamma is not well-defined, or G rejects the fiber maps
    fails with the error as its witness instead of stopping the sweep.
    """
    if name == "gluing":
        return gluing_suite(config)
    return _sweep(config, name, *_SUITES[name])


def xi_suite(config: SweepConfig, max_target_size: int = 3) -> SuiteReport:
    """Precomposition commutes with restriction: one check per instance, a record per size."""
    sources, _ = _SUITES["xi"]
    return _sweep(config, "xi", sources, partial(_xi, max_target_size=max_target_size))


def run_suites(config: SweepConfig, suites: list[str] | None = None) -> list[SuiteReport]:
    """Run the named suites (default: the battery of SUITE_NAMES) in the order given."""
    names = suites if suites is not None else list(SUITE_NAMES)
    unknown = [n for n in names if n not in SUITE_NAMES + EXTRA_SUITE_NAMES]
    if unknown:
        raise ValidationError(f"unknown suites {unknown}")
    return [run_suite(config, name) for name in names]
