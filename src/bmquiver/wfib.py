"""The fibration side: pullback graphs over a chain and their components.

Pulling the element category of the 0-fiber functor back along a chain
yields a layered graph: one discrete fiber {0, ..., ell_t} per position t,
and one cross edge from (t+1, j) down to (t, p_{t+1}(j)) per fiber element.
Inverting everything collapses the graph to its connected components, so
the functor value on a chain is pi0 of this graph together with the maps
from each fiber into the component set.  Like the labeled-set side, it is
computed as a quotient on integers: the fiber vertices, numbered
position-major, modulo the cross edges, with the least vertex of a
component as its representative.

The graph depends only on the fiber sizes and the fiber-restricted maps
(the chain's fiber signature), so the gluing check works on signatures
with integer vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .bm import BmChain, BmObject
from .errors import ValidationError
from .quotient import QuotientSet, UnionFind, least_representatives

Vertex = tuple[int, int]
FiberSignature = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def w_fiber(phi: BmObject) -> tuple[int, ...]:
    """The discrete fiber over phi: the set {0, ..., ell}, empty when ell = -1."""
    return tuple(range(phi.ell + 1))


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


def _offsets(sizes: tuple[int, ...]) -> list[int]:
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return offs


def _direct_components(
    sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]
) -> list[int]:
    """pi0 of the whole layered graph, vertices flattened position-major."""
    offs = _offsets(sizes)
    edges = []
    for t, fmap in enumerate(maps):
        hi, lo = offs[t + 1], offs[t]
        edges.extend((hi + j, lo + fmap[j]) for j in range(len(fmap)))
    return _pi0(offs[-1], edges)


@lru_cache(maxsize=None)
def _edge_components(
    size0: int, size1: int, fmap: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """pi0 of a single edge's two-layer graph: (labels over fiber 0, labels over fiber 1, count)."""
    comp = _pi0(size0 + size1, ((size0 + j, fmap[j]) for j in range(size1)))
    return tuple(comp[:size0]), tuple(comp[size0:]), (max(comp) + 1 if comp else 0)


def _glued_components(
    sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]
) -> list[int]:
    """Components computed edgewise and glued over shared fibers.

    Each edge contributes the components of its own two-layer graph; the
    pushout identifies, for every shared fiber element, its class in the
    incoming edge with its class in the outgoing edge.  The result is
    pulled back to the chain's vertices for comparison with the direct
    computation.
    """
    per_edge = [
        _edge_components(sizes[t], sizes[t + 1], fmap) for t, fmap in enumerate(maps)
    ]
    class_offs = _offsets(tuple(count for _, _, count in per_edge))
    uf = UnionFind(class_offs[-1])
    for t in range(len(maps) - 1):
        upper = per_edge[t][1]
        lower = per_edge[t + 1][0]
        for j in range(sizes[t + 1]):
            uf.union(class_offs[t] + upper[j], class_offs[t + 1] + lower[j])
    offs = _offsets(sizes)
    comp = [-1] * offs[-1]
    for j in range(sizes[0]):
        comp[j] = uf.find(class_offs[0] + per_edge[0][0][j])
    for t in range(1, len(sizes)):
        for j in range(sizes[t]):
            comp[offs[t] + j] = uf.find(class_offs[t - 1] + per_edge[t - 1][1][j])
    return comp


def _partitions_agree(a: list[int], b: list[int]) -> bool:
    """Whether two component labelings of the same vertex set induce one partition."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def gluing_agreement(signature: FiberSignature) -> bool:
    """Full gluing check on a fiber signature with at least one edge.

    Verifies that the edgewise-glued components coincide with the direct
    components (one partition of the vertices, hence a bijection commuting
    with every fiber inclusion) and that the direct components are in
    bijection with the base fiber {0, ..., ell_0}, empty fiber included.
    """
    sizes, maps = signature
    direct = _direct_components(sizes, maps)
    count = len(set(direct))
    if count != sizes[0] or len(set(direct[: sizes[0]])) != sizes[0]:
        return False
    glued = _glued_components(sizes, maps)
    return _partitions_agree(direct, glued)


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
        offs = _offsets(sizes)
        vertex_maps = tuple(
            tuple(vertices[reps[offs[t] + j]] for j in range(size))
            for t, size in enumerate(sizes)
        )
        return cls(QuotientSet.decode(vertices, reps), vertex_maps)


def fiber_vertices(sizes: tuple[int, ...]) -> tuple[Vertex, ...]:
    """The fiber vertices (t, j), position-major; vertex number v is the v-th."""
    return tuple((t, j) for t, size in enumerate(sizes) for j in range(size))


def g_classes(sizes: tuple[int, ...], maps: tuple[tuple[int, ...], ...]) -> list[int]:
    """G on vertex numbers: the least vertex in the component of each fiber vertex."""
    offs = _offsets(sizes)
    cross = (
        (offs[t + 1] + j, offs[t] + image)
        for t, fmap in enumerate(maps)
        for j, image in enumerate(fmap)
    )
    return least_representatives(offs[-1], cross)


def g_chain(chain: BmChain) -> GSet:
    """Connected components of the chain's pullback graph, with fiber maps."""
    sizes, maps = chain_signature(chain)
    return GSet.decode(sizes, g_classes(sizes, maps))


def g_glued(chain: BmChain) -> GSet:
    """The same value computed edgewise and glued over shared fibers.

    Defined for chains with at least one edge.  The result is presented as
    a partition of the same vertex set as g_chain, so agreement of the two
    routes is equality of classes and vertex maps.
    """
    if chain.length < 1:
        raise ValidationError("gluing needs a chain with at least one edge")
    sizes, maps = chain_signature(chain)
    first: dict[int, int] = {}
    labels = _glued_components(sizes, maps)
    reps = [first.setdefault(label, v) for v, label in enumerate(labels)]
    return GSet.decode(sizes, reps)
