"""The comparison map between the two functor values and its verification.

On a vertex the comparison sends x1(i) to fiber element i, x2(j) to j - 1,
and xm to ell; on a chain each generator goes through its vertex's rule and
then the fiber map into the component set.  The checks below establish, by
direct enumeration, that this assignment is constant on every glued pair
(well-definedness), that it commutes with vertex and segment inclusions
(naturality), and that it is compatible with segment decompositions.
xi's hom-set square holds exactly when gamma is well-defined.

The checks run on numbers: labels numbered as in quiverf (F classes by
union-find over the pairing rules' pairs), fiber vertices numbered
position-major as in wfib (G classes from g_classes), and gamma on a
vertex's label number L is L // 2 + 1 for an x1 label and L // 2
otherwise.  Labels and vertices are named only at the API boundary and in
the witness of a failure.  The witnesses read gamma from one row per
(ell, beta), built once per process from _gamma.  The checks and f_chain
take an object, an edge or a chain as it is, and _sides reads its pairs,
G and witnesses from the one kernel _kernel, on its objects' values and
its edges' fiber maps; an edge is read alone or as a segment of a longer
chain.  The kernel also gives two verdicts: both labels of every pair have
one witness, and G fixes every witness.  A passing check reads only these,
and builds F (_f) only to name a failing class or to run segment squares;
f_chain and gamma_chain build it themselves.  Identification reads G
alone, so no edge check builds a chain.  The kernel reads an object only
through (ell, beta), so a one-edge check (constancy, naturality, xi)
first reads the two verdicts of the edge's shape, its invariants and fiber
map, from one bounded memo, _edge_verdicts, kept for the process; only a
failing verdict, or a kernel that raises, goes to _sides, which names the
edge and builds its witnesses.  Notes, one per pair, come only from
quiverf.edge_pairs, which constancy's failure witness reads, as `bmquiver
eval pairs` does; the kernel never asks the pairing rules for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from typing import Mapping

from . import quiverf
from .bm import BmChain, BmEdge, BmObject
from .errors import (
    BmQuiverError,
    IllDefinedComponentError,
    LabelRangeError,
    UnresolvableLabelError,
    ValidationError,
)
from .quiverf import (
    QuiverLabel,
    _shape,
    chain_labels,
    edge_pairs,
    f_object,
    f_object_via_segments,
    label_count,
    label_offsets,
    render_note,
    segment_labels,
)
from .quotient import QuotientSet, classes, least_representatives
from .wfib import GSet, Vertex, fiber_vertices, g_classes

#: A chain, or an object or an edge standing for its chain of length 0 or 1.
Chain = BmChain | BmObject | BmEdge


def _gamma(code: int, ell: int) -> int:
    """The fiber element gamma assigns to label number code of a vertex with this ell."""
    return code // 2 + 1 if code % 2 == 0 and code != 2 * ell else code // 2


@cache
def _gamma_row(ell: int, beta: int) -> tuple[int, ...]:
    """The fiber element gamma assigns to each label number of a vertex (ell, beta)."""
    return tuple(_gamma(code, ell) for code in range(label_count(ell, beta)))


def _kernel(values: tuple[tuple[int, ...], ...], maps: tuple[tuple[int, ...], ...]) -> tuple:
    """Pairs, fiber sizes, G, witnesses and two verdicts of the chain on
    these objects' values and its edges' fiber maps.

    G comes first, so a map that does not fit its fibers fails with G's
    ValidationError before any rule indexes it.  Each edge's pairing rules
    (read through quiverf) number its labels from its source position, and
    shift by the label counts of the earlier positions; there is one witness
    per label.  F is not computed here (see _f): it is the quotient by the
    equivalence the pairs generate, so gamma is well-defined on F exactly
    when each pair's two witnesses agree (the first verdict; the second is
    that G fixes every witness).
    """
    shapes = list(map(_shape, values))
    sizes = tuple([shape.ell + 1 for shape in shapes])
    g = g_classes(sizes, maps)
    # The witness of each label: the G class of the fiber element gamma assigns it.
    witness: list[int] = []
    fiber_off = 0
    for shape in shapes:
        witness += [g[fiber_off + v] for v in _gamma_row(shape.ell, shape.beta)]
        fiber_off += shape.ell + 1
    pairs = quiverf._rule_pairs(values[0], values[1], maps[0]) if maps else []
    label_off = 0
    for t in range(1, len(maps)):
        label_off += shapes[t - 1].count
        more = quiverf._rule_pairs(values[t], values[t + 1], maps[t])
        pairs += [(a + label_off, b + label_off) for a, b in more]
    agrees = all(witness[a] == witness[b] for a, b in pairs)
    return pairs, sizes, g, witness, agrees, [g[w] for w in witness] == witness


def _canonical(ell: int, beta: int) -> tuple[int, ...]:
    """The values of the shortest object with invariants (ell, beta)."""
    return (0,) * (ell + 1) + (1,) * (beta or ell < 0)


# 1 << 18 holds the 160,427 edge shapes with k, k' <= 8.
@lru_cache(maxsize=1 << 18)
def _edge_verdicts(ell: int, beta: int, ell_prime: int, beta_prime: int, *fmap: int) -> int:
    """The kernel's two verdicts on a one-edge chain, as agrees + 2 * fixed.

    The kernel reads an object only through (ell, beta), so this runs it on
    the canonical objects with the edge's invariants and fiber map, and keeps
    only the verdicts: every edge of that shape shares them.
    """
    values = _canonical(ell, beta), _canonical(ell_prime, beta_prime)
    agrees, fixed = _kernel(values, (fmap,))[-2:]
    return agrees + 2 * fixed


def _edge_passes(edge: BmEdge, verdicts: int) -> bool:
    """Whether _edge_verdicts gives the edge these verdicts (1: agrees, 2: fixed).

    Where the kernel raises it gives none, so the caller takes _sides, which
    raises the error on the edge itself and names it.
    """
    phi, phi_prime = edge.phi, edge.phi_prime
    try:
        got = _edge_verdicts(phi.ell, phi.beta, phi_prime.ell, phi_prime.beta, *edge.fiber_map())
    except BmQuiverError:
        return False
    return got & verdicts == verdicts


def _sides(instance: Chain) -> tuple:
    """Objects, edges, pairs, fiber sizes, G classes, witnesses and the two
    verdicts of an instance, from _kernel; nothing is built.

    Where a rule cannot build a label, the error names the first edge on
    which edge_pairs raises.
    """
    if isinstance(instance, BmEdge):
        objects, edges = (instance.phi, instance.phi_prime), (instance,)
        key = (instance.phi.values, instance.phi_prime.values), (instance.fiber_map(),)
    elif isinstance(instance, BmObject):
        objects, edges, key = (instance,), (), ((instance.values,), ())
    else:
        objects, edges = instance.objects, instance.edges
        key = tuple(obj.values for obj in objects), tuple(edge.fiber_map() for edge in edges)
    try:
        return objects, edges, *_kernel(*key)
    except (UnresolvableLabelError, LabelRangeError):
        for edge in edges:
            edge_pairs(edge, notes=False)
        raise


def _f(sides: tuple) -> list[int]:
    """F of an instance from its _sides: the least label number of each label's class."""
    pairs, witness = sides[2], sides[5]
    return least_representatives(len(witness), pairs)


@dataclass(frozen=True)
class GammaComponent:
    """The comparison on one chain, with the two values it compares.

    f is the labeled-set quotient and g the component set of the chain;
    assignment is the induced map on quotient classes, keyed by canonical
    representatives.
    """

    f: QuotientSet
    g: GSet
    assignment: Mapping[QuiverLabel, Vertex]


def _check_well_defined(chain: Chain) -> tuple:
    """_sides of an instance; raise unless each of its F classes has one image.

    The kernel's first verdict is read; F is built only to name the failing class.
    """
    sides = objects, _, _, sizes, _, witness, agrees, _ = _sides(chain)
    if agrees:
        return sides
    for block in classes(_f(sides)).values():
        images = {witness[code] for code in block}
        if len(images) > 1:
            labels, vertices = chain_labels(objects), fiber_vertices(sizes)
            raise IllDefinedComponentError(
                f"class {tuple(labels[code] for code in block)} of chain "
                f"{chain.encode()} has images {[vertices[v] for v in sorted(images)]}"
            )
    return sides


def f_chain(chain: BmChain) -> QuotientSet:
    """The iterated pushout over a chain: all vertex labels modulo all edge pairings."""
    sides = _sides(chain)
    return QuotientSet.decode(chain_labels(sides[0]), _f(sides))


def gamma_chain(chain: BmChain) -> GammaComponent:
    """The comparison on a chain; raises if any class has two distinct images."""
    sides = objects, _, _, sizes, g, witness, _, _ = _check_well_defined(chain)
    f = _f(sides)
    labels, vertices = chain_labels(objects), fiber_vertices(sizes)
    return GammaComponent(
        QuotientSet.decode(labels, f),
        GSet.decode(sizes, g),
        {labels[rep]: vertices[witness[rep]] for rep in classes(f)},
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification instance: one human-readable witness per broken equation."""

    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_constancy(edge: BmEdge) -> VerificationReport:
    """Check that both members of every glued pair land in one component class.

    This is the well-definedness of the comparison on the edge.  A failure
    names the pair with the chain of identities its pairing rule follows,
    the note that edge_pairs gives it.
    """
    if _edge_passes(edge, 1):
        return VerificationReport()
    _, _, _, sizes, _, witness, _, _ = _sides(edge)
    pairs, notes = edge_pairs(edge)
    labels, vertices = chain_labels((edge.phi, edge.phi_prime)), fiber_vertices(sizes)
    return VerificationReport(
        tuple(
            f"pair ({labels[a]}, {labels[b]}) [{render_note(note)}] has images "
            f"{vertices[witness[a]]} != {vertices[witness[b]]}"
            for (a, b), note in zip(pairs, notes)
            if witness[a] != witness[b]
        )
    )


def verify_naturality(chain: Chain) -> VerificationReport:
    """Check every vertex- and segment-inclusion square of the chain, on numbers.

    Vertex square at t: including a generator of position t into the chain
    and applying the chain comparison must agree with applying the vertex
    comparison and then the fiber map into the chain's components.  Segment
    square at s: same statement for edge s, the chain's segment from
    position s - 1 to s, read as an edge and not built as a chain.  An
    object or an edge stands for its chain of length 0 or 1.
    """
    if isinstance(chain, BmEdge) and _edge_passes(chain, 3):
        return VerificationReport()
    sides = objects, edges, _, sizes, g, witness, agrees, _ = _sides(chain)
    # The vertex comparison on label L, through the fiber map, is witness[L]; so
    # the vertex squares hold exactly when both labels of every pair agree.
    if agrees and not edges:
        return VerificationReport()
    f = _f(sides)
    failures: list[str] = []
    broken = [code for code, rep in enumerate(f) if witness[rep] != witness[code]]
    if broken:
        labels, vertices = chain_labels(objects), fiber_vertices(sizes)
        for code in broken:
            label = labels[code]
            failures.append(
                f"vertex square t={label.vertex}: {label} gives "
                f"{vertices[witness[f[code]]]} != {vertices[witness[code]]}"
            )
    # Segment numbers shift into the chain's by the label offset of position s - 1.
    label_offs = label_offsets(objects)
    fiber_off = 0
    for s, edge in enumerate(edges, start=1):
        # A one-edge instance is its own only segment.
        seg_sides = seg_objects, _, _, _, _, seg_witness, _, _ = (
            sides if len(edges) == 1 else _sides(edge)
        )
        label_off = label_offs[s - 1]
        for rep, block in classes(_f(seg_sides)).items():
            via_chain = {witness[f[code + label_off]] for code in block}
            via_segment = g[seg_witness[rep] + fiber_off]
            if via_chain != {via_segment}:
                seg_labels, vertices = chain_labels(seg_objects), fiber_vertices(sizes)
                failures.append(
                    f"segment square s={s}: class {tuple(seg_labels[c] for c in block)} "
                    f"gives {[vertices[v] for v in sorted(via_chain)]} != "
                    f"{vertices[via_segment]}"
                )
        fiber_off += sizes[s - 1]
    return VerificationReport(tuple(failures))


def verify_decomposition(phi: BmObject) -> VerificationReport:
    """Check both functor values and the comparison against the segment decomposition.

    The labeled-set side must rebuild bijectively from the segments; the
    fiber side, glued over the shared points, must rebuild {0, ..., ell}
    with one class per global fiber element; and the comparison computed
    segment-wise must agree with the global one.  Labels are numbered as in
    segment_labels, and fiber element j of segment i is a vertex at global
    position i - 1 + j.
    """
    failures: list[str] = []
    ell = phi.ell
    segments = segment_labels(phi)

    rebuilt = [code for _, codes in segments for code in codes]
    if sorted(rebuilt) != list(range(label_count(ell, phi.beta))):
        rebuilt_labels = [str(l) for l in f_object_via_segments(phi)]
        failures.append(
            f"label sets differ: segments give {rebuilt_labels}, "
            f"direct gives {[str(l) for l in f_object(phi)]}"
        )

    # Glue the segment fibers over the interior points with value 0.  The
    # fiber element j of segment i is vertex starts[i - 1] + j.
    position: list[int] = []
    starts = []
    for i, (segment, _) in enumerate(segments, start=1):
        starts.append(len(position))
        position.extend(range(i - 1, i + segment.ell))
    pairs = [(starts[i - 1] + 1, starts[i]) for i in range(1, phi.top) if not phi.values[i]]
    glued = classes(least_representatives(len(position), pairs))
    if len(glued) != ell + 1:
        failures.append(f"glued fiber has {len(glued)} classes, expected {ell + 1}")
    else:
        position_sets = sorted(
            tuple(sorted({position[v] for v in block})) for block in glued.values()
        )
        if position_sets != [(p,) for p in range(ell + 1)]:
            failures.append(f"glued classes {position_sets} do not match fiber positions")

    # Comparison compatibility: segment-wise then gluing equals global.
    for i, (segment, codes) in enumerate(segments, start=1):
        for local, code in enumerate(codes):
            global_position = i - 1 + _gamma(local, segment.ell)
            image = _gamma(code, ell)
            if image != global_position:
                failures.append(
                    f"segment {i}: {f_object(segment)[local]} maps to position "
                    f"{global_position}, global {f_object(phi)[code]} maps to {image}"
                )
    return VerificationReport(tuple(failures))


def verify_edge_identification(edge: BmEdge) -> VerificationReport:
    """Check that (1, i) and (0, p(i)) share a component class for every fiber element i."""
    sizes, fmap = (edge.phi.ell + 1, edge.phi_prime.ell + 1), edge.fiber_map()
    g = g_classes(sizes, (fmap,))
    failures = []
    for i, image in enumerate(fmap):
        upper, lower = g[sizes[0] + i], g[image]
        if upper != lower:
            vertices = fiber_vertices(sizes)
            failures.append(
                f"(1, {i}) in class {vertices[upper]} but "
                f"(0, {image}) in class {vertices[lower]}"
            )
    return VerificationReport(tuple(failures))


@dataclass(frozen=True)
class XiTable:
    """Precomposition on hom-sets into a finite target set.

    entries pairs every function on the component classes (as a value tuple
    over g_representatives, enumerated lexicographically) with the induced
    function on the labeled-set classes (a value tuple over
    f_representatives).
    """

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
    return XiTable(g_reps, f_reps, tuple(entries))


def xi_restriction_commutes(chain: Chain) -> VerificationReport:
    """Check that precomposition commutes with restriction to every vertex.

    Restricting h on the chain's components to a vertex and precomposing
    must equal precomposing over the chain and restricting along the label
    inclusion.  Label L reads h at witness[L] through its vertex and at
    witness[rep] through its class, so this holds for every h, into any
    target, exactly when gamma is well-defined: that is all this checks,
    raising where it fails.  An object or an edge stands for its chain of
    length 0 or 1, unbuilt.
    """
    if not (isinstance(chain, BmEdge) and _edge_passes(chain, 1)):
        _check_well_defined(chain)
    return VerificationReport()
