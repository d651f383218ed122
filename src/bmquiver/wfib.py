"""The fibration side: pullback graphs over a chain and their components.

Pulling the element category of the 0-fiber functor back along a chain
yields a layered graph: one fiber {0, ..., ell_t} per position t, with no
edge inside it, and one cross edge from (t+1, j) down to (t, p_{t+1}(j)) per
fiber element.
Inverting everything collapses the graph to its connected components, so
the functor value on a chain is pi0 of this graph together with the maps
from each fiber into the component set.

Every vertex above fiber 0 has exactly one cross edge, and it goes down, so
the graph is a forest rooted in fiber 0.  G is therefore computed by
composition: vertex (t, j), numbered position-major, lies in the component
of its base point p_1(...p_t(j)), whose vertex number is the least in the
component.  The gluing check keeps an independent route: each edge's
two-layer graph goes through a generic graph search (pi0, cached per edge),
and those per-edge classes are glued over the shared fibers with
least_representatives.  The check depends only on the fiber sizes and the
fiber-restricted maps (the chain's fiber signature), so it works on
signatures with integer vertices.  It walks a signature edge by edge: the
frontier fiber's glued classes and roots are all a later edge can see, so
they form a state, interned once per process, and each move from a state
along a fiber map is computed once and reused by every signature that makes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Sequence

from .bm import BmChain
from .errors import ValidationError
from .quotient import QuotientSet, least_representatives

Vertex = tuple[int, int]
FiberSignature = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def chain_signature(chain: BmChain) -> FiberSignature:
    """Fiber sizes per position and fiber-restricted map per edge."""
    sizes = tuple(obj.ell + 1 for obj in chain.objects)
    maps = tuple(edge.fiber_map() for edge in chain.edges)
    return sizes, maps


def _pi0(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Component labels, in discovery order, of an undirected graph on range(n)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    comp = [-1] * n
    label = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = label
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = label
                    stack.append(v)
        label += 1
    return comp


@cache
def _edge_components(
    size0: int, size1: int, fmap: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """pi0 of a single edge's two-layer graph: (labels over fiber 0, labels over fiber 1, count).

    None when fmap is not a total map from size1 points into size0 points.
    """
    if size0 < 0 or len(fmap) != size1 or not all(0 <= image < size0 for image in fmap):
        return None
    comp = _pi0(size0 + size1, ((size0 + j, fmap[j]) for j in range(size1)))
    return tuple(comp[:size0]), tuple(comp[size0:]), (max(comp) + 1 if comp else 0)


def _canonical(values: list[int]) -> tuple[int, ...]:
    """values renumbered 0, 1, ... in order of first appearance."""
    first: dict[int, int] = {}
    return tuple([first.setdefault(v, len(first)) for v in values])


@dataclass(frozen=True, eq=False, slots=True)
class _State:
    """A frontier state of the gluing walk, made only by _interned.

    classes and roots give, per vertex of the frontier fiber, its glued
    class and its root, each numbered canonically; classes is None on a
    base fiber, whose classes the first edge supplies, and roots is None on
    the dead state, through which no chain agrees.  agrees says whether a
    chain ending here agrees, and moves maps a fiber map to the state one
    edge on (the state fixes the size of the fiber it maps into).
    """

    classes: tuple[int, ...] | None
    roots: tuple[int, ...] | None
    agrees: bool
    moves: dict = field(default_factory=dict)


@cache
def _interned(
    classes: tuple[int, ...] | None, roots: tuple[int, ...] | None, agrees: bool
) -> _State:
    """The one state of the process with these values."""
    return _State(classes, roots, agrees)


@cache
def _base(size: int) -> _State:
    """The state of a base fiber of this size, before any edge."""
    return _interned(None, tuple(range(size)), False)


def _step(
    state: _State, fmap: tuple[int, ...], edge: tuple[tuple[int, ...], tuple[int, ...], int]
) -> _State:
    """The frontier state one edge on; dead when no chain through it agrees.

    The glued route joins the frontier's classes to the edge's pi0 classes
    with least_representatives; the direct route gives a new vertex the
    root of its image.  The step fails when a glued class holds two roots,
    or when a class that stops at the old frontier (it can never grow
    again) is not a whole root class.  The new state agrees if no two
    classes on the new frontier share a root.
    """
    classes, roots = state.classes, state.roots
    if roots is None:
        return state
    lower, upper, count = edge
    if classes is None:
        live, old, pairs = 0, lower, ()
    else:
        live = max(classes, default=-1) + 1
        old, pairs = classes, zip(classes, [live + c for c in lower])
    reps = least_representatives(live + count, pairs)
    old_classes = [reps[c] for c in old]
    new_classes = [reps[live + c] for c in upper]
    new_roots = [roots[image] for image in fmap]
    touched = len(set(old_classes).union(new_classes))
    held = len(set(zip(old_classes, roots)).union(zip(new_classes, new_roots)))
    reaching = len(set(new_classes))
    reached = len(set(new_roots))
    # The touched classes hold every old root.  The classes left behind
    # hold one root each that no other class holds exactly when each is
    # its root's whole class.
    if held != touched or len(set(roots)) != touched - reaching + reached:
        return _interned(None, None, False)
    return _interned(_canonical(new_classes), _canonical(new_roots), reaching == reached)


def gluing_agreement(signature: FiberSignature) -> bool:
    """Full gluing check on a fiber signature with at least one edge.

    The direct components are the base points: the pullback graph is a
    forest rooted in fiber 0, so they are in bijection with the base fiber
    {0, ..., ell_0}, empty fiber included.  The edgewise-glued components
    agree with them when the glued classes are exactly the root classes
    (the vertices over one base point).  The check walks the signature edge
    by edge through interned frontier states: each edge's pi0 comes from the
    cached _edge_components, and each (state, fiber map) move is computed
    once and then read.  A signature whose maps do not compose fails.
    """
    sizes, maps = signature
    if not maps or len(sizes) != len(maps) + 1:
        return False
    size0 = sizes[0]
    state = _base(size0)
    for size1, fmap in zip(sizes[1:], maps):
        edge = _edge_components(size0, size1, fmap)
        if edge is None:
            return False
        try:
            state = state.moves[fmap]
        except KeyError:
            state = state.moves.setdefault(fmap, _step(state, fmap, edge))
        size0 = size1
    return state.agrees


@dataclass(frozen=True)
class GSet:
    """Components of a pullback graph plus the per-position fiber maps.

    vertex_maps[t][j] is the canonical representative of the class of the
    fiber element j at position t.
    """

    classes: QuotientSet
    vertex_maps: tuple[tuple[Vertex, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple[Vertex, ...]:
        return self.classes.representatives

    @classmethod
    def decode(cls, sizes: tuple[int, ...], reps: list[int]) -> "GSet":
        """The GSet where vertex number v (as in g_classes) has representative reps[v]."""
        vertices = fiber_vertices(sizes)
        named = [vertices[rep] for rep in reps]
        vertex_maps = []
        start = 0
        for size in sizes:
            vertex_maps.append(tuple(named[start : start + size]))
            start += size
        return cls(QuotientSet.decode(vertices, reps), tuple(vertex_maps))


def fiber_vertices(sizes: tuple[int, ...]) -> tuple[Vertex, ...]:
    """The fiber vertices (t, j), position-major; vertex number v is the v-th."""
    return tuple((t, j) for t, size in enumerate(sizes) for j in range(size))


def g_classes(sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]) -> list[int]:
    """G on vertex numbers: the least vertex in the component of each fiber vertex.

    The pullback graph is a forest, so a component is a tree and its least
    vertex is the root.  Vertex (t + 1, j) has one cross edge, down to
    (t, p(j)), so its root is the root of (t, p(j)): on a chain, vertex
    (t, j) gets the vertex number of its base point p_1(...p_t(j)), which is
    that base point's index in fiber 0.  Raises ValidationError when the
    maps do not fit the sizes, as in _edge_components: a wrong number of
    maps, a map whose length is not its fiber size, or an image outside the
    previous fiber.
    """
    if len(sizes) == len(maps) + 1:
        below: Sequence[int] = range(sizes[0])
        roots = list(below)
        for size, fmap in zip(sizes[1:], maps):
            if len(fmap) != size or (fmap and (min(fmap) < 0 or max(fmap) >= len(below))):
                break
            below = [below[image] for image in fmap]
            roots += below
        else:
            return roots
    raise ValidationError(f"fiber maps {maps} do not fit fiber sizes {sizes}")


def g_chain(chain: BmChain) -> GSet:
    """Connected components of the chain's pullback graph, with fiber maps."""
    sizes, maps = chain_signature(chain)
    return GSet.decode(sizes, g_classes(sizes, maps))

