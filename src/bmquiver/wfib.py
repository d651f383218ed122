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
signatures with integer vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import ne
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


def _roots(
    sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]
) -> list[int] | None:
    """The root of every fiber vertex in the pullback forest, by vertex number.

    Vertex (t + 1, j) has one cross edge, down to (t, p(j)), so its root is
    the root of (t, p(j)): on a chain, the base point p_1(...p_t(j)).  A
    vertex past the end of a shorter map has no cross edge and is its own
    root.  A root is the least vertex of its tree.  None when the maps do
    not fit the sizes: a wrong number of maps, a map longer than its fiber,
    or an image outside the previous fiber.
    """
    if len(sizes) != len(maps) + 1:
        return None
    below: Sequence[int] = range(sizes[0])
    roots = list(below)
    for size, fmap in zip(sizes[1:], maps):
        mapped = len(fmap)
        if mapped > size or (fmap and min(fmap) < 0):
            return None
        try:
            layer = [below[image] for image in fmap]
        except IndexError:
            return None
        if mapped < size:
            start = len(roots) + mapped
            layer += range(start, start + size - mapped)
        roots += layer
        below = layer
    return roots


@lru_cache(maxsize=None)
def _edge_components(
    size0: int, size1: int, fmap: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """pi0 of a single edge's two-layer graph: (labels over fiber 0, labels over fiber 1, count)."""
    comp = _pi0(size0 + size1, ((size0 + j, fmap[j]) for j in range(size1)))
    return tuple(comp[:size0]), tuple(comp[size0:]), (max(comp) + 1 if comp else 0)


def _glued_classes(
    sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]
) -> list[int]:
    """Components computed edgewise and glued over shared fibers.

    Each edge contributes the components of its own two-layer graph,
    numbered after those of the edges before it; the pushout identifies,
    for every shared fiber element, its class in the incoming edge with its
    class in the outgoing edge.  Returns the least glued class number of
    every fiber vertex, position-major.
    """
    # Edge class of every vertex: fiber 0 from edge 0, fiber t + 1 from edge t.
    vertex_class: list[int] = []
    shared: list[tuple[int, int]] = []
    count = 0
    for t, fmap in enumerate(maps):
        lower, upper, classes = _edge_components(sizes[t], sizes[t + 1], fmap)
        if t:
            incoming = vertex_class[len(vertex_class) - sizes[t] :]
            shared += zip(incoming, [count + c for c in lower])
        else:
            vertex_class += lower
        vertex_class += [count + c for c in upper]
        count += classes
    reps = least_representatives(count, shared)
    return [reps[c] for c in vertex_class]


def gluing_agreement(signature: FiberSignature) -> bool:
    """Full gluing check on a fiber signature with at least one edge.

    The direct components are the base points: the pullback graph is a
    forest rooted in fiber 0, so they are in bijection with the base fiber
    {0, ..., ell_0}, empty fiber included.  The edgewise-glued components
    agree with them when the glued classes of the base vertices are
    distinct and every vertex is glued to the base vertex it composes to.
    A signature whose maps do not compose fails.
    """
    sizes, maps = signature
    roots = _roots(sizes, maps)
    # A chain's maps are total, so every root is a base point.
    if not maps or roots is None or any(map(ne, map(len, maps), sizes[1:])):
        return False
    glued = _glued_classes(sizes, maps)
    base = glued[: sizes[0]]
    return len(set(base)) == sizes[0] and [base[r] for r in roots] == glued


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
    vertex is the root: on a chain, vertex (t, j) gets the vertex number
    of its base point, which is that base point's index in fiber 0.
    """
    roots = _roots(sizes, maps)
    if roots is None:
        raise ValidationError(f"fiber maps {maps} do not fit fiber sizes {sizes}")
    return roots


def g_chain(chain: BmChain) -> GSet:
    """Connected components of the chain's pullback graph, with fiber maps."""
    sizes, maps = chain_signature(chain)
    return GSet.decode(sizes, g_classes(sizes, maps))

