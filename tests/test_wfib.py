from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    ValidationError,
    chain_signature,
    enumerate_edges,
    enumerate_objects,
    g_chain,
    gluing_agreement,
)
from bmquiver import sweeps, wfib
from bmquiver.quotient import least_representatives
from bmquiver.sweeps import SweepConfig
from test_bm import identity_edge
from test_quotient import union_find_blocks

OBJ = BmObject.parse
EDGE = BmEdge.parse

Vertex = tuple[int, int]


@dataclass(frozen=True)
class PullbackGraph:
    """Fibers of a chain plus the cross edges generated by its maps."""

    vertices: tuple[Vertex, ...]
    cross_edges: tuple[tuple[Vertex, Vertex], ...]


def pullback_graph(chain: BmChain) -> PullbackGraph:
    """Vertices (t, j) for every fiber element, cross edges along every map."""
    vertices: list[Vertex] = []
    for t, obj in enumerate(chain.objects):
        vertices.extend((t, j) for j in range(obj.ell + 1))
    cross: list[tuple[Vertex, Vertex]] = []
    for t, edge in enumerate(chain.edges):
        fmap = edge.fiber_map()
        cross.extend(((t + 1, j), (t, fmap[j])) for j in range(len(fmap)))
    return PullbackGraph(tuple(vertices), tuple(cross))


def chains_up_to(max_len: int, k_max: int):
    """All chains of length <= max_len with every vertex on [k <= k_max]."""
    objs = enumerate_objects(k_max)
    pool = {phi: [] for phi in objs}
    for phi in objs:
        for phi_prime in objs:
            pool[phi].extend(enumerate_edges(phi, phi_prime))
    stack = [(BmChain.vertex(phi), phi) for phi in objs]
    while stack:
        chain, tail = stack.pop()
        yield chain
        if chain.length < max_len:
            for edge in pool[tail]:
                stack.append(
                    (BmChain(chain.base, chain.edges + (edge,)), edge.phi_prime)
                )


def pi0_oracle(graph: PullbackGraph) -> tuple[tuple[Vertex, ...], ...]:
    """Independent route: networkx graph search instead of union-find."""
    nxgraph = nx.Graph()
    nxgraph.add_nodes_from(graph.vertices)
    nxgraph.add_edges_from(graph.cross_edges)
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(nxgraph)))


@pytest.mark.parametrize(
    "text,expected",
    [("001", (0, 1)), ("1", ()), ("0000", (0, 1, 2, 3))],
)
def test_w_fiber(text, expected):
    """The fiber over phi is {0, ..., ell}, empty when ell = -1."""
    chain = BmChain.vertex(OBJ(text))
    assert chain_signature(chain) == ((len(expected),), ())
    assert g_chain(chain).vertex_maps == (tuple((0, j) for j in expected),)


def test_pullback_graph_vertex_case():
    graph = pullback_graph(BmChain.vertex(OBJ("001")))
    assert graph.vertices == ((0, 0), (0, 1))
    assert graph.cross_edges == ()


def test_pullback_graph_identity_edge():
    graph = pullback_graph(BmChain.from_edges([identity_edge(OBJ("00"))]))
    assert graph.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert graph.cross_edges == (((1, 0), (0, 0)), ((1, 1), (0, 1)))


def test_pullback_graph_crossing_edge():
    graph = pullback_graph(BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")]))
    assert graph.vertices == ((0, 0), (0, 1), (1, 0))
    assert graph.cross_edges == (((1, 0), (0, 1)),)


def test_g_chain_vertex_has_ell_plus_one_classes():
    g = g_chain(BmChain.vertex(OBJ("0001")))
    assert len(g) == 3
    assert g.vertex_maps == (((0, 0), (0, 1), (0, 2)),)


def test_g_chain_crossing_edge():
    g = g_chain(BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")]))
    assert g.classes.blocks == (((0, 0),), ((0, 1), (1, 0)))


def test_g_chain_empty_base_fiber_is_empty():
    e = identity_edge(OBJ("1"))
    assert len(g_chain(BmChain.from_edges([e, e]))) == 0


def same_partition(a: list[int], b: list[int]) -> bool:
    """Whether two class labellings of the same vertices give one partition."""
    return len(a) == len(b) and len(set(a)) == len(set(zip(a, b))) == len(set(b))


def glued_is_direct(chain: BmChain) -> bool:
    """G glued edgewise (glued_classes) partitions the fibers as G does."""
    sizes, maps = chain_signature(chain)
    return same_partition(glued_classes(sizes, maps), wfib.g_classes(sizes, maps))


def test_same_partition():
    assert same_partition([0, 0, 2], [5, 5, 1])
    assert not same_partition([0, 0, 2], [5, 1, 1])
    assert not same_partition([0, 1], [0, 0])


def test_g_glued_single_edge_equals_direct():
    for edge in [
        identity_edge(OBJ("00")),
        EDGE("phi=001;phiPrime=01;map=1,2"),
        EDGE("phi=01;phiPrime=1;map=1"),
    ]:
        assert glued_is_direct(BmChain.from_edges([edge]))


def test_g_glued_two_identity_edges():
    e = identity_edge(OBJ("00"))
    chain = BmChain.from_edges([e, e])
    assert len(g_chain(chain)) == 2
    assert glued_is_direct(chain)


def test_surjective_tower_collapses_to_a_point():
    chain = BmChain.from_edges(
        [EDGE("phi=0;phiPrime=00;map=0,0"), EDGE("phi=00;phiPrime=000;map=0,1,1")]
    )
    direct = g_chain(chain)
    assert len(direct) == 1
    assert glued_is_direct(chain)


@pytest.mark.parametrize("max_len,k_max", [(2, 2), (3, 2)])
def test_components_match_networkx_oracle(max_len, k_max):
    for chain in chains_up_to(max_len, k_max):
        g = g_chain(chain)
        blocks = pi0_oracle(pullback_graph(chain))
        assert g.classes.blocks == blocks
        least = {v: block[0] for block in blocks for v in block}
        assert g.vertex_maps == tuple(
            tuple(least[(t, j)] for j in range(obj.ell + 1))
            for t, obj in enumerate(chain.objects)
        )


def test_orientation_independence():
    for chain in chains_up_to(2, 2):
        graph = pullback_graph(chain)
        reversed_blocks = union_find_blocks(
            graph.vertices, [(b, a) for a, b in graph.cross_edges]
        )
        assert g_chain(chain).classes.blocks == reversed_blocks


def test_base_fiber_bijection_small_chains():
    for chain in chains_up_to(3, 2):
        g = g_chain(chain)
        ell0 = chain.base.ell
        if ell0 == -1:
            assert len(g) == 0
        else:
            assert len(g) == ell0 + 1
            # order-preserving: each base fiber element represents its own class
            assert g.vertex_maps[0] == tuple((0, j) for j in range(ell0 + 1))


def test_vertex_maps_compose_along_fiber_maps():
    for chain in chains_up_to(2, 3):
        g = g_chain(chain)
        for t, edge in enumerate(chain.edges):
            fmap = edge.fiber_map()
            for j in range(len(fmap)):
                assert g.vertex_maps[t + 1][j] == g.vertex_maps[t][fmap[j]]


def test_gluing_and_direct_agree_exhaustively():
    for chain in chains_up_to(2, 2):
        if chain.length >= 1:
            assert glued_is_direct(chain)


def test_signature_check_matches_object_route():
    for chain in chains_up_to(2, 2):
        if chain.length < 1:
            continue
        object_route = glued_is_direct(chain) and len(g_chain(chain)) == max(
            0, chain.base.ell + 1
        )
        assert gluing_agreement(chain_signature(chain)) == object_route


def test_signature_contents():
    chain = BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")])
    sizes, maps = chain_signature(chain)
    assert sizes == (2, 1)
    assert maps == ((1,),)


def test_gluing_agreement_exhaustive_length_two_wide_fibers():
    # length <= 2 with k_t <= 4, deduplicated by fiber signature
    objs = enumerate_objects(4)
    pool = {phi: [] for phi in objs}
    for phi in objs:
        for phi_prime in objs:
            pool[phi].extend(enumerate_edges(phi, phi_prime))
    verdicts = {}
    checked = 0
    for phi in objs:
        for e1 in pool[phi]:
            for tail in ((), *((e2,) for e2 in pool[e1.phi_prime])):
                edges = (e1,) + tail
                sizes = (phi.ell + 1,) + tuple(e.phi_prime.ell + 1 for e in edges)
                maps = tuple(e.fiber_map() for e in edges)
                signature = (sizes, maps)
                if signature not in verdicts:
                    verdicts[signature] = gluing_agreement(signature)
                assert verdicts[signature]
                checked += 1
    assert checked == 396431  # 2421 edges + 394010 two-edge chains


def test_gluing_agreement_sampled_length_three_wide_fibers():
    import random

    objs = enumerate_objects(4)
    pool = {phi: [] for phi in objs}
    for phi in objs:
        for phi_prime in objs:
            pool[phi].extend(enumerate_edges(phi, phi_prime))
    rng = random.Random(20240)
    for _ in range(20000):
        edges = [rng.choice(pool[rng.choice(objs)])]
        for _ in range(2):
            edges.append(rng.choice(pool[edges[-1].phi_prime]))
        sizes = (edges[0].phi.ell + 1,) + tuple(e.phi_prime.ell + 1 for e in edges)
        maps = tuple(e.fiber_map() for e in edges)
        assert gluing_agreement((sizes, maps))


def test_pi0_matches_networkx_on_random_graphs():
    import random

    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(0, 12)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        labels = wfib._pi0(n, edges)
        nxgraph = nx.Graph()
        nxgraph.add_nodes_from(range(n))
        nxgraph.add_edges_from(edges)
        expected = sorted(sorted(c) for c in nx.connected_components(nxgraph))
        blocks: dict[int, list[int]] = {}
        for v, label in enumerate(labels):
            blocks.setdefault(label, []).append(v)
        assert sorted(blocks.values()) == expected
        # labels are numbered in order of discovery
        assert list(blocks) == list(range(len(blocks)))
        assert [block[0] for block in blocks.values()] == sorted(b[0] for b in expected)


# The whole-signature route that gluing_agreement took before it became a
# walk over frontier states: the roots by composition (wfib.g_classes), every
# edge's pi0 classes glued over the shared fibers at once, and a comparison
# of the two partitions.


@functools.lru_cache(maxsize=None)
def edge_pi0(size0: int, fmap: tuple[int, ...]):
    """pi0 of one edge's two-layer graph, by graph search: labels below, above, count."""
    comp = wfib._pi0(size0 + len(fmap), [(size0 + j, p) for j, p in enumerate(fmap)])
    return comp[:size0], comp[size0:], max(comp, default=-1) + 1


def glued_classes(sizes, maps, twist=None):
    """Components computed edgewise and glued over shared fibers.

    Each edge contributes the components of its own two-layer graph,
    numbered after those of the edges before it; the pushout identifies,
    for every shared fiber element, its class in the incoming edge with its
    class in the outgoing edge.  Returns the least glued class number of
    every fiber vertex, position-major.  A mutant twist rewrites the
    identifications of every shared fiber, a list of pairs.
    """
    # Edge class of every vertex: fiber 0 from edge 0, fiber t + 1 from edge t.
    vertex_class: list[int] = []
    shared: list[tuple[int, int]] = []
    count = 0
    for t, fmap in enumerate(maps):
        lower, upper, classes = edge_pi0(sizes[t], fmap)
        if t:
            incoming = vertex_class[len(vertex_class) - sizes[t] :]
            pairs = list(zip(incoming, [count + c for c in lower]))
            shared += twist(pairs) if twist else pairs
        else:
            vertex_class += lower
        vertex_class += [count + c for c in upper]
        count += classes
    reps = least_representatives(count, shared)
    return [reps[c] for c in vertex_class]


def whole_signature_agreement(signature, twist=None) -> bool:
    """The base classes are distinct and every vertex is glued to its root."""
    sizes, maps = signature
    # G rejects maps that are not total, so every root is a base point.
    try:
        roots = wfib.g_classes(sizes, maps)
    except ValidationError:
        return False
    if not maps:
        return False
    glued = glued_classes(sizes, maps, twist)
    base = glued[: sizes[0]]
    return len(set(base)) == sizes[0] and [base[r] for r in roots] == glued


def sweep_signatures(monkeypatch, max_k: int, max_len: int) -> list:
    """Every signature the exhaustive gluing sweep checks, in its order."""
    seen: list = []
    monkeypatch.setattr(sweeps, "gluing_agreement", lambda sig: seen.append(sig) or True)
    sweeps.gluing_suite(SweepConfig(max_k=max_k, max_chain_len=max_len))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize(
    "max_k,max_len,count", [(3, 3, 251333), (4, 2, 73672)], ids=["k3-len3", "k4-len2"]
)
def test_walk_matches_whole_signature_oracle(monkeypatch, max_k, max_len, count):
    signatures = sweep_signatures(monkeypatch, max_k, max_len)
    assert len(signatures) == len(set(signatures)) == count
    assert [s for s in signatures if gluing_agreement(s) != whole_signature_agreement(s)] == []


# Mutants of the identifications over one shared fiber, a list of pairs
# (class of element j in the incoming edge, class in the outgoing edge).
UNION_TWISTS = {
    "skip-first": lambda pairs: pairs[1:],
    "skip-last": lambda pairs: pairs[:-1],
    "first-to-last": lambda pairs: pairs + [(pairs[0][0], pairs[-1][1])] if pairs else pairs,
    # Each element glued to its successor's outgoing class: merges and splits.
    "rotate": lambda pairs: [(c, e) for (c, _), (_, e) in zip(pairs, pairs[1:] + pairs[:1])],
}


@pytest.mark.parametrize("twist", UNION_TWISTS)
def test_walk_matches_the_oracle_under_a_twisted_union(monkeypatch, signatures, twist):
    """The step's union takes the pairs of one shared fiber, element by
    element, so a twist of its pairs is the same twist of the oracle's
    (on the base fiber the step has no pairs).  The glued route then
    disagrees on many signatures, and the step's checks must find exactly
    those."""
    twisted = UNION_TWISTS[twist]
    monkeypatch.setattr(
        wfib, "least_representatives", lambda n, pairs: least_representatives(n, twisted(list(pairs)))
    )
    sigs = sorted(signatures[1])
    verdicts = [gluing_agreement(signature) for signature in sigs]
    assert verdicts == [whole_signature_agreement(signature, twisted) for signature in sigs]
    assert 0 < sum(verdicts) < len(sigs)


@st.composite
def malformed_signatures(draw):
    """Signatures over fibers of at most 4 points, some maps broken.

    A map may be short or long, an image negative or at or past the size
    of the previous fiber, and a map may be missing or extra.
    """
    sizes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4))
    maps = []
    for below, size in zip(sizes, sizes[1:]):
        length = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
        in_range = below > 0 and draw(st.booleans())
        image = st.integers(0, below - 1) if in_range else st.integers(-2, below + 1)
        maps.append(tuple(draw(st.lists(image, min_size=length, max_size=length))))
    extra = draw(st.sampled_from([0, 0, 0, -1, 1]))
    if extra < 0:
        maps = maps[:-1]
    elif extra:
        maps.append(tuple(draw(st.lists(st.integers(-1, 4), max_size=3))))
    return tuple(sizes), tuple(maps)


@settings(max_examples=400, deadline=None)
@given(malformed_signatures())
def test_walk_fails_exactly_where_the_oracle_does(signature):
    assert gluing_agreement(signature) == whole_signature_agreement(signature)


# The whole-graph route that gluing_agreement took before G became
# composition: pi0 of the whole layered graph, the per-edge components glued
# by a graph search over edge classes, and a comparison of partitions.


def offsets(sizes):
    offs = [0]
    for size in sizes:
        offs.append(offs[-1] + size)
    return offs


def direct_components(sizes, maps):
    """pi0 of the whole layered graph, vertices flattened position-major."""
    offs = offsets(sizes)
    edges = [
        (offs[t + 1] + j, offs[t] + image)
        for t, fmap in enumerate(maps)
        for j, image in enumerate(fmap)
    ]
    return wfib._pi0(offs[-1], edges)


def glued_components(sizes, maps):
    """Per-edge components, glued over each shared fiber element by graph search."""
    per_edge = [
        wfib._pi0(sizes[t] + sizes[t + 1], [(sizes[t] + j, p) for j, p in enumerate(fmap)])
        for t, fmap in enumerate(maps)
    ]
    class_offs = offsets([max(comp, default=-1) + 1 for comp in per_edge])
    glue = [
        (class_offs[t] + per_edge[t][sizes[t] + j], class_offs[t + 1] + per_edge[t + 1][j])
        for t in range(len(maps) - 1)
        for j in range(sizes[t + 1])
    ]
    classes = wfib._pi0(class_offs[-1], glue)
    comp = [classes[c] for c in per_edge[0][: sizes[0]]]
    for t, edge_comp in enumerate(per_edge):
        comp.extend(classes[class_offs[t] + c] for c in edge_comp[sizes[t] :])
    return comp


def partitions_agree(a, b):
    """Whether two component labelings of the same vertex set induce one partition."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def gluing_oracle(signature):
    sizes, maps = signature
    direct = direct_components(sizes, maps)
    if len(set(direct)) != sizes[0] or len(set(direct[: sizes[0]])) != sizes[0]:
        return False
    return partitions_agree(direct, glued_components(sizes, maps))


def signatures_up_to(max_len, k_max):
    return {chain_signature(c) for c in chains_up_to(max_len, k_max) if c.length}


@pytest.fixture(scope="module", params=[(2, 3), (3, 2)], ids=["k3-len2", "k2-len3"])
def signatures(request):
    return request.param, signatures_up_to(*request.param)


def test_gluing_agreement_matches_whole_graph_oracle(signatures):
    (max_len, k_max), sigs = signatures
    assert len(sigs) == {(2, 3): 5534, (3, 2): 5544}[(max_len, k_max)]
    for signature in sigs:
        assert gluing_agreement(signature) == gluing_oracle(signature)


def test_composite_g_classes_match_networkx(signatures):
    for sizes, maps in signatures[1]:
        offs = offsets(sizes)
        nxgraph = nx.Graph()
        nxgraph.add_nodes_from(range(offs[-1]))
        nxgraph.add_edges_from(
            (offs[t + 1] + j, offs[t] + image)
            for t, fmap in enumerate(maps)
            for j, image in enumerate(fmap)
        )
        least = {v: min(c) for c in nx.connected_components(nxgraph) for v in c}
        assert wfib.g_classes(sizes, maps) == [least[v] for v in range(offs[-1])]


@pytest.mark.parametrize(
    "signature",
    [
        ((2, 2), ((1,),)),  # map shorter than the next fiber
        # A short map, then one that fits: G gave the unmapped vertex (1, 1)
        # its own root, [0, 1, 1, 3, 3], where the gluing check failed.
        ((2, 2, 1), ((1,), (1,))),
        ((2, 1), ((0, 1),)),  # map longer than the next fiber
        ((2, 2, 1), ((0, 1), (0, 0))),
    ],
    ids=["short", "short-before-valid", "long", "long-later"],
)
def test_map_length_off_the_fiber_size_fails(signature):
    """G rejects a map whose length is not its fiber size, as gluing does."""
    assert not gluing_agreement(signature)
    with pytest.raises(ValidationError):
        wfib.g_classes(*signature)


@pytest.mark.parametrize(
    "signature",
    [((2, 2), ((0, 2),)), ((1, 2, 1), ((0, 0), (2,))), ((0, 1), ((0,),))],
    ids=["first-edge", "later-edge", "empty-base"],
)
def test_image_outside_the_previous_fiber_fails(signature):
    assert not gluing_agreement(signature)
    with pytest.raises(ValidationError):
        wfib.g_classes(*signature)


@pytest.mark.parametrize(
    "signature",
    [((2, 2), ((0, -1),)), ((2, 2, 1), ((0, 1), (-2,)))],
    ids=["first-edge", "later-edge"],
)
def test_negative_image_fails_instead_of_wrapping(signature):
    assert not gluing_agreement(signature)
    with pytest.raises(ValidationError):
        wfib.g_classes(*signature)


def test_wrong_number_of_maps_fails():
    assert not gluing_agreement(((2,), ((0, 1),)))
    assert not gluing_agreement(((2, 2), ()))


def test_gluing_every_class_together_fails(monkeypatch, signatures):
    """The step's union merges everything, even on the base fiber: a class
    then holds two roots unless the base fiber has at most one point."""
    monkeypatch.setattr(wfib, "least_representatives", lambda n, pairs: [0] * n)
    for signature in signatures[1]:
        assert gluing_agreement(signature) == (signature[0][0] < 2)
