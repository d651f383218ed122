"""The comparison map between the two functor values and its verification.

On a vertex the comparison sends x1(i) to fiber element i, x2(j) to j - 1,
and xm to ell; on a chain each generator goes through its vertex's rule and
then the fiber map into the component set.  The checks below establish, by
direct enumeration, that this assignment is constant on every glued pair
(well-definedness), that it commutes with vertex and segment inclusions
(naturality), and that it is compatible with segment decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from .bm import BmChain, BmEdge, BmObject, segment_decompose
from .errors import IllDefinedComponentError, ValidationError
from .quiverf import (
    LabelKind,
    QuiverLabel,
    f_chain,
    f_object,
    f_object_via_segments,
    pairing_set,
)
from .quotient import QuotientSet, quotient
from .wfib import GSet, Vertex, g_chain, w_fiber


def gamma_index(label: QuiverLabel, ell: int) -> int:
    """The fiber element assigned to a generator: x1(i) -> i, x2(j) -> j - 1, xm -> ell."""
    if label.kind is LabelKind.MID:
        return ell
    assert label.index is not None
    return label.index if label.kind is LabelKind.ONE else label.index - 1


@dataclass(frozen=True)
class GammaComponent:
    """The comparison on one chain, with the two values it compares.

    f is the labeled-set quotient and g the component set of the chain;
    witness records, per generator, the component class of its image before
    any quotienting; assignment is the induced map on quotient classes,
    keyed by canonical representatives.
    """

    chain: BmChain
    f: QuotientSet
    g: GSet
    witness: Mapping[QuiverLabel, Vertex]
    assignment: Mapping[QuiverLabel, Vertex]


def _witnesses(chain: BmChain, g: GSet) -> dict[QuiverLabel, Vertex]:
    out: dict[QuiverLabel, Vertex] = {}
    for t, obj in enumerate(chain.objects):
        vm = g.vertex_maps[t]
        for label in f_object(obj, vertex=t):
            out[label] = vm[gamma_index(label, obj.ell)]
    return out


def gamma_chain(chain: BmChain) -> GammaComponent:
    """The comparison on a chain; raises if any class has two distinct images."""
    fq = f_chain(chain)
    g = g_chain(chain)
    witness = _witnesses(chain, g)
    assignment: dict[QuiverLabel, Vertex] = {}
    for block in fq.blocks:
        images = {witness[member] for member in block}
        if len(images) > 1:
            raise IllDefinedComponentError(
                f"class {block} of chain {chain.encode()} has images {sorted(images)}"
            )
        assignment[block[0]] = images.pop()
    return GammaComponent(chain, fq, g, witness, assignment)


def gamma_object(phi: BmObject) -> GammaComponent:
    """The comparison on a vertex chain: both sides are discrete."""
    return gamma_chain(BmChain.vertex(phi))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification instance.

    failures carry one human-readable witness string per broken equation;
    details holds audit attachments such as the identity trail of every
    checked pair.
    """

    key: str
    suite: str
    checked: int
    failures: tuple[str, ...] = ()
    details: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "status": self.status,
            "witnesses": list(self.failures),
        }


def verify_constancy(edge: BmEdge, include_trails: bool = True) -> VerificationReport:
    """Check that both members of every glued pair land in one component class.

    This is the well-definedness of the comparison on the edge.  With
    include_trails the report's details carry, for every pair, the chain of
    identities that the collapse follows.
    """
    chain = BmChain.from_edges([edge])
    g = g_chain(chain)
    witness = _witnesses(chain, g)
    pairing = pairing_set(edge)
    failures = []
    for (a, b), note in zip(pairing.pairs, pairing.notes):
        if witness[a] != witness[b]:
            failures.append(
                f"pair ({a}, {b}) [{note}] has images {witness[a]} != {witness[b]}"
            )
    details: dict = {}
    if include_trails:
        details["trails"] = [
            f"({a}, {b}): {note}" for (a, b), note in zip(pairing.pairs, pairing.notes)
        ]
    return VerificationReport(
        edge.encode(), "constancy", pairing.raw_count, tuple(failures), details
    )


def _inclusion_square_failures(
    chain: BmChain, fq, g: GSet, witness: dict[QuiverLabel, Vertex]
) -> tuple[list[str], int]:
    """Vertex- and segment-inclusion squares for one chain.

    Vertex square at t: including a generator of position t into the chain
    and applying the chain comparison must agree with applying the vertex
    comparison and then the fiber map into the chain's components.  Segment
    square at s: same statement for the single-edge subchain at s.
    """
    failures: list[str] = []
    checked = 0
    for t, obj in enumerate(chain.objects):
        vm = g.vertex_maps[t]
        for label in f_object(obj, vertex=t):
            checked += 1
            via_chain = witness[fq.find(label)]
            via_vertex = vm[gamma_index(label, obj.ell)]
            if via_chain != via_vertex:
                failures.append(
                    f"vertex square t={t}: {label} gives {via_chain} != {via_vertex}"
                )
    for s in range(1, chain.length + 1):
        seg = chain.subchain(s - 1, s)
        seg_fq = f_chain(seg)
        seg_g = g_chain(seg)
        seg_witness = _witnesses(seg, seg_g)
        # components of the subchain map to components of the chain via (u, j) -> (s-1+u, j)
        for block in seg_fq.blocks:
            checked += 1
            shifted = [
                QuiverLabel(member.vertex + s - 1, member.kind, member.index)
                for member in block
            ]
            via_chain = {witness[fq.find(lab)] for lab in shifted}
            local = seg_witness[seg_fq.find(block[0])]
            via_segment = g.classes.find((local[0] + s - 1, local[1]))
            if via_chain != {via_segment}:
                failures.append(
                    f"segment square s={s}: class {block} gives "
                    f"{sorted(via_chain)} != {via_segment}"
                )
    return failures, checked


def verify_naturality(chain: BmChain) -> VerificationReport:
    """Check every vertex- and segment-inclusion square of the chain."""
    fq = f_chain(chain)
    g = g_chain(chain)
    witness = _witnesses(chain, g)
    failures, checked = _inclusion_square_failures(chain, fq, g, witness)
    return VerificationReport(chain.encode(), "naturality", checked, tuple(failures))


def verify_decomposition(phi: BmObject) -> VerificationReport:
    """Check both functor values and the comparison against the segment decomposition.

    The labeled-set side must rebuild bijectively from the segments; the
    fiber side, glued over the shared points, must rebuild {0, ..., ell}
    with one class per global fiber element; and the comparison computed
    segment-wise must agree with the global one.
    """
    failures: list[str] = []
    checked = 0
    segments = segment_decompose(phi)

    rebuilt = f_object_via_segments(phi)
    direct = f_object(phi)
    checked += 1
    if sorted(rebuilt) != sorted(direct) or len(set(rebuilt)) != len(rebuilt):
        failures.append(
            f"label sets differ: segments give {[str(l) for l in rebuilt]}, "
            f"direct gives {[str(l) for l in direct]}"
        )

    # Glue the segment fibers over the interior points with value 0.
    carrier: list[tuple[int, int]] = []
    for i, segment in enumerate(segments, start=1):
        carrier.extend((i, j) for j in w_fiber(segment))
    pairs = []
    for i in range(1, phi.top):
        if phi.values[i] == 0:
            pairs.append(((i, 1), (i + 1, 0)))
    glued = quotient(tuple(carrier), pairs)
    checked += 1
    if len(glued) != phi.ell + 1:
        failures.append(
            f"glued fiber has {len(glued)} classes, expected {phi.ell + 1}"
        )
    else:
        # global position of a segment fiber element
        positions = {rep: set() for rep in glued.representatives}
        for i, j in carrier:
            positions[glued.find((i, j))].add(i - 1 + j)
        position_sets = sorted(tuple(sorted(s)) for s in positions.values())
        checked += 1
        if position_sets != [(p,) for p in range(phi.ell + 1)]:
            failures.append(f"glued classes {position_sets} do not match fiber positions")

    # Comparison compatibility: segment-wise then gluing equals global.
    global_gamma = {
        label: gamma_index(label, phi.ell) for label in direct
    }
    for i, segment in enumerate(segments, start=1):
        for local in f_object(segment):
            checked += 1
            local_image = gamma_index(local, segment.ell)
            global_position = i - 1 + local_image
            if local.kind is LabelKind.MID:
                relabeled = QuiverLabel(0, LabelKind.MID, None)
            else:
                relabeled = QuiverLabel(0, local.kind, i)
            if global_gamma[relabeled] != global_position:
                failures.append(
                    f"segment {i}: {local} maps to position {global_position}, "
                    f"global {relabeled} maps to {global_gamma[relabeled]}"
                )
    return VerificationReport(phi.encode(), "decomposition", checked, tuple(failures))


def verify_edge_identification(edge: BmEdge) -> VerificationReport:
    """Check that (1, i) and (0, p(i)) share a component class for every fiber element i."""
    chain = BmChain.from_edges([edge])
    g = g_chain(chain)
    fmap = edge.fiber_map()
    failures = []
    for i in range(len(fmap)):
        if g.classes.find((1, i)) != g.classes.find((0, fmap[i])):
            failures.append(
                f"(1, {i}) in class {g.classes.find((1, i))} but "
                f"(0, {fmap[i]}) in class {g.classes.find((0, fmap[i]))}"
            )
    return VerificationReport(
        edge.encode(), "identification", len(fmap), tuple(failures)
    )


@dataclass(frozen=True)
class XiTable:
    """Precomposition on hom-sets into a finite target set.

    entries pairs every function on the component classes (as a value tuple
    over g_representatives, enumerated lexicographically) with the induced
    function on the labeled-set classes (a value tuple over
    f_representatives).
    """

    chain: BmChain
    target_size: int
    g_representatives: tuple[Vertex, ...]
    f_representatives: tuple[QuiverLabel, ...]
    entries: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


#: Largest xi table that xi_component builds: m^|G| rows, one per map G -> [m].
XI_MAX_ROWS = 100_000


def xi_component(chain: BmChain, target_size: int) -> XiTable:
    """Tabulate precomposition with the comparison on all maps into a target set."""
    if target_size < 0:
        raise ValidationError("target size must be >= 0")
    gamma = gamma_chain(chain)
    rows = target_size ** len(gamma.g)
    if rows > XI_MAX_ROWS:
        raise ValidationError(
            f"xi table would have {target_size}^{len(gamma.g)} = {rows} rows, "
            f"more than {XI_MAX_ROWS}"
        )
    g_reps = gamma.g.representatives
    f_reps = gamma.f.representatives
    g_pos = {rep: i for i, rep in enumerate(g_reps)}
    entries = []
    for values in product(range(target_size), repeat=len(g_reps)):
        induced = tuple(values[g_pos[gamma.assignment[rep]]] for rep in f_reps)
        entries.append((values, induced))
    return XiTable(chain, target_size, g_reps, f_reps, tuple(entries))


def xi_restriction_commutes(chain: BmChain, target_size: int) -> VerificationReport:
    """Check that precomposition commutes with restriction to every vertex.

    Restricting a function on the chain's components to a vertex and then
    precomposing must equal precomposing over the chain and restricting
    along the label inclusion.
    """
    gamma = gamma_chain(chain)
    fq, g = gamma.f, gamma.g
    vertex_data = []
    for t, obj in enumerate(chain.objects):
        vertex_gamma = gamma_chain(BmChain.vertex(obj))
        labels = f_object(obj, vertex=t)
        vertex_data.append((t, labels, vertex_gamma, g.vertex_maps[t]))
    failures = []
    checked = 0
    for values in product(range(target_size), repeat=len(g)):
        h = dict(zip(g.representatives, values))
        for t, labels, vertex_gamma, vm in vertex_data:
            for label in labels:
                checked += 1
                via_chain = h[gamma.assignment[fq.find(label)]]
                local = QuiverLabel(0, label.kind, label.index)
                restricted_h = h[vm[vertex_gamma.assignment[local][1]]]
                if via_chain != restricted_h:
                    failures.append(
                        f"m={target_size} h={values} t={t} {label}: "
                        f"{via_chain} != {restricted_h}"
                    )
    return VerificationReport(
        f"{chain.encode()};m={target_size}", "xi", checked, tuple(failures)
    )
