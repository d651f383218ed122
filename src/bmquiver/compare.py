"""The comparison map between the two functor values and its verification.

On a vertex the comparison sends x1(i) to fiber element i, x2(j) to j - 1,
and xm to ell; on a chain each generator goes through its vertex's rule and
then the fiber map into the component set.  The checks below establish, by
direct enumeration, that this assignment is constant on every glued pair
(well-definedness), that it commutes with vertex and segment inclusions
(naturality), and that it is compatible with segment decompositions.

The edge checks run on numbers: labels numbered as in quiverf (F classes
from f_classes), fiber vertices numbered position-major as in wfib (G
classes from g_classes), and gamma on a vertex's label number L is
L // 2 + 1 for an x1 label and L // 2 otherwise.  Labels and vertices are
named only at the API boundary and in the witness of a failure.
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
    chain_labels,
    edge_pairs,
    f_classes,
    f_object,
    f_object_via_segments,
    label_count,
    label_offsets,
    render_note,
)
from .quotient import QuotientSet, quotient
from .wfib import GSet, Vertex, chain_signature, fiber_vertices, g_classes, w_fiber


def _gamma(code: int, ell: int) -> int:
    """The fiber element gamma assigns to label number code of a vertex with this ell."""
    return code // 2 + 1 if code % 2 == 0 and code != 2 * ell else code // 2


def gamma_index(label: QuiverLabel, ell: int) -> int:
    """The fiber element assigned to a generator: x1(i) -> i, x2(j) -> j - 1, xm -> ell."""
    if label.kind is LabelKind.MID:
        return _gamma(2 * ell, ell)
    assert label.index is not None
    return _gamma(2 * label.index - (2 if label.kind is LabelKind.ONE else 1), ell)


def _g_side(chain: BmChain) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Fiber sizes, G classes by vertex number, and the witness of every label number.

    The witness of a label is the G class of the fiber element gamma
    assigns to it, before any quotienting on the labeled-set side.
    """
    sizes, maps = chain_signature(chain)
    g = g_classes(sizes, maps)
    witness: list[int] = []
    fiber_off = 0
    for obj, size in zip(chain.objects, sizes):
        ell = size - 1
        witness.extend(
            g[fiber_off + _gamma(code, ell)] for code in range(label_count(ell, obj.beta))
        )
        fiber_off += size
    return sizes, g, witness


def _classes(reps: list[int]) -> dict[int, list[int]]:
    """Members of each class by representative, classes in order."""
    out: dict[int, list[int]] = {}
    for member, rep in enumerate(reps):
        out.setdefault(rep, []).append(member)
    return out


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


def _check_well_defined(
    chain: BmChain, f: list[int], sizes: tuple[int, ...], witness: list[int]
) -> None:
    """Raise unless every F class has one image."""
    for block in _classes(f).values():
        images = {witness[code] for code in block}
        if len(images) > 1:
            labels = chain_labels(chain)
            vertices = fiber_vertices(sizes)
            raise IllDefinedComponentError(
                f"class {tuple(labels[code] for code in block)} of chain "
                f"{chain.encode()} has images {[vertices[v] for v in sorted(images)]}"
            )


def gamma_chain(chain: BmChain) -> GammaComponent:
    """The comparison on a chain; raises if any class has two distinct images."""
    f = f_classes(chain)
    sizes, g, witness = _g_side(chain)
    _check_well_defined(chain, f, sizes, witness)
    labels = chain_labels(chain)
    vertices = fiber_vertices(sizes)
    return GammaComponent(
        chain,
        QuotientSet.decode(labels, f),
        GSet.decode(sizes, g),
        {label: vertices[image] for label, image in zip(labels, witness)},
        {labels[rep]: vertices[witness[rep]] for rep in _classes(f)},
    )


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
    sizes, _, witness = _g_side(chain)
    pairs, notes = edge_pairs(edge)
    broken = [n for n, (a, b) in enumerate(pairs) if witness[a] != witness[b]]
    labels = chain_labels(chain) if broken or include_trails else ()
    failures = []
    if broken:
        vertices = fiber_vertices(sizes)
        for n in broken:
            a, b = pairs[n]
            failures.append(
                f"pair ({labels[a]}, {labels[b]}) [{render_note(notes[n])}] has images "
                f"{vertices[witness[a]]} != {vertices[witness[b]]}"
            )
    details: dict = {}
    if include_trails:
        details["trails"] = [
            f"({labels[a]}, {labels[b]}): {render_note(note)}"
            for (a, b), note in zip(pairs, notes)
        ]
    return VerificationReport(
        edge.encode(), "constancy", len(pairs), tuple(failures), details
    )


def _inclusion_square_failures(
    chain: BmChain,
    f: list[int],
    sizes: tuple[int, ...],
    g: list[int],
    witness: list[int],
) -> tuple[list[str], int]:
    """Vertex- and segment-inclusion squares for one chain, on numbers.

    Vertex square at t: including a generator of position t into the chain
    and applying the chain comparison must agree with applying the vertex
    comparison and then the fiber map into the chain's components.  Segment
    square at s: same statement for the single-edge subchain at s.  A chain
    of one edge is its own segment, so its F, G and witnesses are reused.
    """
    failures: list[str] = []
    # The vertex comparison on label L, through the fiber map, is witness[L].
    broken = [code for code, rep in enumerate(f) if witness[rep] != witness[code]]
    if broken:
        labels, vertices = chain_labels(chain), fiber_vertices(sizes)
        for code in broken:
            label = labels[code]
            failures.append(
                f"vertex square t={label.vertex}: {label} gives "
                f"{vertices[witness[f[code]]]} != {vertices[witness[code]]}"
            )
    checked = len(f)
    label_offs = label_offsets(chain.objects)
    fiber_off = 0
    for s in range(1, chain.length + 1):
        if chain.length == 1:
            seg, seg_f, seg_witness = chain, f, witness
        else:
            seg = chain.subchain(s - 1, s)
            seg_f = f_classes(seg)
            seg_witness = _g_side(seg)[2]
        # Segment numbers shift into the chain's by the offsets of position s - 1.
        label_off = label_offs[s - 1]
        for rep, block in _classes(seg_f).items():
            checked += 1
            via_chain = {witness[f[code + label_off]] for code in block}
            via_segment = g[seg_witness[rep] + fiber_off]
            if via_chain != {via_segment}:
                seg_labels, vertices = chain_labels(seg), fiber_vertices(sizes)
                failures.append(
                    f"segment square s={s}: class {tuple(seg_labels[c] for c in block)} "
                    f"gives {[vertices[v] for v in sorted(via_chain)]} != "
                    f"{vertices[via_segment]}"
                )
        fiber_off += sizes[s - 1]
    return failures, checked


def verify_naturality(chain: BmChain) -> VerificationReport:
    """Check every vertex- and segment-inclusion square of the chain."""
    f = f_classes(chain)
    sizes, g, witness = _g_side(chain)
    failures, checked = _inclusion_square_failures(chain, f, sizes, g, witness)
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
    sizes, maps = chain_signature(BmChain.from_edges([edge]))
    g = g_classes(sizes, maps)
    fmap = edge.fiber_map()
    failures = []
    for i, image in enumerate(fmap):
        upper, lower = g[sizes[0] + i], g[image]
        if upper != lower:
            vertices = fiber_vertices(sizes)
            failures.append(
                f"(1, {i}) in class {vertices[upper]} but "
                f"(0, {image}) in class {vertices[lower]}"
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
    along the label inclusion.  A function h on the components is a value
    per component, components in order; each label compares the slot its
    chain class reads with the slot its vertex comparison reads.
    """
    f = f_classes(chain)
    sizes, g, witness = _g_side(chain)
    _check_well_defined(chain, f, sizes, witness)
    slot = {rep: i for i, rep in enumerate(sorted(set(g)))}
    via_chain = [slot[witness[rep]] for rep in f]
    restricted: list[int] = []
    fiber_off = 0
    for obj, size in zip(chain.objects, sizes):
        vertex_witness = _g_side(BmChain.vertex(obj))[2]
        restricted.extend(slot[g[fiber_off + v]] for v in vertex_witness)
        fiber_off += size
    rows = max(target_size, 0) ** len(slot)
    broken = [code for code, s in enumerate(via_chain) if s != restricted[code]]
    failures = []
    if broken:
        labels = chain_labels(chain)
        for values in product(range(target_size), repeat=len(slot)):
            for code in broken:
                on_chain, on_vertex = values[via_chain[code]], values[restricted[code]]
                if on_chain != on_vertex:
                    label = labels[code]
                    failures.append(
                        f"m={target_size} h={values} t={label.vertex} {label}: "
                        f"{on_chain} != {on_vertex}"
                    )
    return VerificationReport(
        f"{chain.encode()};m={target_size}", "xi", rows * len(f), tuple(failures)
    )
