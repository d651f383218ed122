from __future__ import annotations

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DegenerateDecompositionError,
    DeltaMap,
    ParseError,
    ValidationError,
    enumerate_edges,
    enumerate_objects,
    segment_decompose,
)
from bmquiver.bm import (
    count_edges,
    count_leaving_edges,
    count_objects,
    count_ordinal_edges,
    edge_at,
    edge_parts,
)
from bmquiver.simplex import count_monotone
from test_simplex import identity

OBJ = BmObject.parse


def identity_edge(phi: BmObject) -> BmEdge:
    """The identity edge phi -> phi."""
    return BmEdge(phi, phi, identity(phi.top))


def enumerate_all_edges(k_max: int, k_prime_max: int) -> list[BmEdge]:
    """All edges with source on [k <= k_max] and target on [k' <= k_prime_max]:
    sources, then targets, in enumerate_objects order, then maps in edge order."""
    targets = enumerate_objects(k_prime_max)
    return [
        edge
        for phi in enumerate_objects(k_max)
        for phi_prime in targets
        for edge in enumerate_edges(phi, phi_prime)
    ]


@st.composite
def bm_objects(draw, max_top: int = 6):
    k = draw(st.integers(0, max_top))
    zeros = draw(st.integers(0, k + 1))
    return BmObject((0,) * zeros + (1,) * (k + 1 - zeros))


@st.composite
def bm_edges(draw, max_top: int = 5):
    """Edges built as phi composed with an arbitrary monotone map, so always valid."""
    phi = draw(bm_objects(max_top))
    k_prime = draw(st.integers(0, max_top))
    images = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(0, phi.top), min_size=k_prime + 1, max_size=k_prime + 1
                )
            )
        )
    )
    phi_prime = BmObject(tuple(phi.values[v] for v in images))
    return BmEdge(phi, phi_prime, DeltaMap(k_prime, phi.top, images))


@pytest.mark.parametrize(
    "text,expected", [("0011", 1), ("1", -1), ("000", 2), ("01", 0)]
)
def test_fiber_zero(text, expected):
    assert OBJ(text).ell == expected


@pytest.mark.parametrize("text,expected", [("0011", 1), ("000", 0), ("01", 1)])
def test_crossing_count(text, expected):
    assert OBJ(text).beta == expected


def test_enumerate_objects_small():
    assert [o.encode() for o in enumerate_objects(0)] == ["0", "1"]
    assert [o.encode() for o in enumerate_objects(1)] == [
        "0",
        "1",
        "00",
        "01",
        "11",
    ]


def test_enumerate_objects_count_is_sum_of_k_plus_two():
    objs = enumerate_objects(8)
    assert len(objs) == sum(k + 2 for k in range(9)) == 54
    assert len(set(objs)) == 54
    for k in range(9):
        assert sum(1 for o in objs if o.top == k) == k + 2


def test_beta_iff_ell_strictly_interior():
    for obj in enumerate_objects(8):
        assert (obj.beta == 1) == (-1 < obj.ell < obj.top)
        assert obj.values[: obj.ell + 1] == (0,) * (obj.ell + 1)


def looped_object_check(values: tuple) -> tuple[str | None, int, int]:
    """The validation message of an object by the element loop it once ran,
    or None with the (ell, beta) it derived."""
    if not values:
        return "an object needs at least one value", 0, 0
    prev = 0
    for v in values:
        if v not in (0, 1):
            return f"value {v} outside {{0, 1}}", 0, 0
        if v < prev:
            return f"values {values} not monotone", 0, 0
        prev = v
    return None, values.count(0) - 1, int(0 in values and 1 in values)


def test_objects_validate_as_the_element_loop_did():
    """Every tuple over {-1, 0, 1, 2} of length <= 5 is refused with the
    message of the element loop, or built with its ell and beta."""
    built = 0
    for n in range(6):
        for values in product((-1, 0, 1, 2), repeat=n):
            message, ell, beta = looped_object_check(values)
            if message is None:
                obj = BmObject(values)
                assert (obj.top, obj.ell, obj.beta) == (n - 1, ell, beta), values
                built += 1
            else:
                with pytest.raises(ValidationError) as raised:
                    BmObject(values)
                assert str(raised.value) == message, values
    assert built == sum(n + 1 for n in range(1, 6))


def test_enumerate_edges_examples():
    assert enumerate_edges(OBJ("0"), OBJ("1")) == []
    edges = enumerate_edges(OBJ("01"), OBJ("01"))
    assert edges == [identity_edge(OBJ("01"))]
    edges = enumerate_edges(OBJ("001"), OBJ("01"))
    assert [e.map.images for e in edges] == [(0, 2), (1, 2)]


def filtered_edges(phi, phi_prime):
    """Every map [k'] -> [k] that lies over [1], in map order."""
    return [
        BmEdge(phi, phi_prime, DeltaMap(phi_prime.top, phi.top, images))
        for images in combinations_with_replacement(range(phi.top + 1), phi_prime.top + 1)
        if [phi.values[v] for v in images] == list(phi_prime.values)
    ]


OBJECTS_5 = enumerate_objects(5)


@pytest.mark.parametrize("phi", OBJECTS_5, ids=str)
def test_edges_built_from_fiber_maps_match_filtered_maps(phi):
    for phi_prime in OBJECTS_5:
        edges = enumerate_edges(phi, phi_prime)
        assert edges == filtered_edges(phi, phi_prime)
        assert len(edges) == count_edges(phi, phi_prime)
        split = phi_prime.ell + 1
        for i, edge in enumerate(edges):
            assert edge_at(phi, phi_prime, i) == edge
            images = edge.map.images
            assert edge_parts(phi, phi_prime, i) == (images[:split], images[split:])


def test_edge_at_rejects_indices_out_of_range():
    """Every object pair with k, k' <= 4 has its edges at the indices
    0, ..., count_edges - 1 and none at -1 or count_edges."""
    assert count_edges(OBJ("0"), OBJ("1")) == 0
    objs = enumerate_objects(4)
    for phi, phi_prime in product(objs, objs):
        count = count_edges(phi, phi_prime)
        for at in (edge_at, edge_parts):
            for index in (-1, count):
                with pytest.raises(IndexError):
                    at(phi, phi_prime, index)


def test_edges_from_a_source_into_one_ordinal_are_its_monotone_maps():
    """An edge from phi on [k] is a monotone map [k'] -> [k] that fixes its
    target, so for k, k' <= 8 the edges from any object on [k] into all the
    objects on [k'] number count_monotone(k' + 1, k + 1), which is
    count_ordinal_edges(k, k'), and into those on [k' <= K'] they number
    count_leaving_edges(k, K'); count_objects(K) is the objects on [k <= K]."""
    by_top: dict[int, list[BmObject]] = {}
    for phi in enumerate_objects(8):
        by_top.setdefault(phi.top, []).append(phi)
    for phi in enumerate_objects(8):
        leaving = 0
        for k_prime, targets in by_top.items():
            edges = sum(count_edges(phi, target) for target in targets)
            assert edges == count_monotone(k_prime + 1, phi.top + 1), (phi, k_prime)
            assert edges == count_ordinal_edges(phi.top, k_prime), (phi, k_prime)
            leaving += edges
            assert leaving == count_leaving_edges(phi.top, k_prime), (phi, k_prime)
    assert count_objects(-1) == 0
    for max_k in range(9):
        assert count_objects(max_k) == len(enumerate_objects(max_k))


def test_edge_must_lie_over_one():
    with pytest.raises(ValidationError):
        BmEdge(OBJ("01"), OBJ("01"), DeltaMap(1, 1, (0, 0)))
    with pytest.raises(ValidationError):
        BmEdge(OBJ("01"), OBJ("0"), DeltaMap(1, 1, (0, 1)))


def test_edge_lies_over_one_exactly_where_every_position_does():
    """For every object pair with k, k' <= 4 and every monotone map
    [k'] -> [k], BmEdge accepts exactly the maps with phi(map(i)) = phi'(i)
    at every position i, and rejects the rest with one message naming the
    map and the objects."""
    objs = enumerate_objects(4)
    accepted = rejected = 0
    for phi in objs:
        for phi_prime in objs:
            for images in combinations_with_replacement(range(phi.top + 1), phi_prime.top + 1):
                delta = DeltaMap(phi_prime.top, phi.top, images)
                if all(phi.values[v] == phi_prime.values[i] for i, v in enumerate(images)):
                    BmEdge(phi, phi_prime, delta)
                    accepted += 1
                    continue
                with pytest.raises(ValidationError) as raised:
                    BmEdge(phi, phi_prime, delta)
                assert str(raised.value) == (
                    f"map {delta.encode()} does not lie over [1] for {phi} -> {phi_prime}"
                )
                rejected += 1
    assert accepted == len(enumerate_all_edges(4, 4)) == 2421
    assert accepted + rejected == 12321


@given(bm_edges())
def test_edge_invariants(edge):
    # zeros map to zeros, monotonically, and a target crossing forces a source crossing
    fmap = edge.fiber_map()
    assert all(0 <= v <= edge.phi.ell for v in fmap)
    assert all(fmap[i] <= fmap[i + 1] for i in range(len(fmap) - 1))
    assert edge.phi_prime.beta <= edge.phi.beta


def test_exhaustive_edges_satisfy_beta_monotonicity():
    objs = enumerate_objects(3)
    for phi in objs:
        for phi_prime in objs:
            for edge in enumerate_edges(phi, phi_prime):
                assert edge.phi_prime.beta <= edge.phi.beta


@pytest.mark.parametrize(
    "text,expected",
    [
        ("001", ["00", "01"]),
        ("0011", ["00", "01", "11"]),
        ("01", ["01"]),
    ],
)
def test_segment_decompose(text, expected):
    assert [s.encode() for s in segment_decompose(OBJ(text))] == expected


def test_segment_decompose_needs_a_segment():
    with pytest.raises(DegenerateDecompositionError):
        segment_decompose(OBJ("0"))


@given(bm_objects(max_top=7))
def test_segments_recover_the_object(phi):
    if phi.top == 0:
        return
    segments = segment_decompose(phi)
    assert all(
        segment.values == (phi.values[i - 1], phi.values[i])
        for i, segment in enumerate(segments, start=1)
    )


def test_edge_encoding_round_trip():
    edge = BmEdge.parse("phi=0011;phiPrime=01;map=1,3")
    assert edge.phi.encode() == "0011"
    assert edge.phi_prime.encode() == "01"
    assert BmEdge.parse(edge.encode()) == edge
    assert str(edge) == edge.encode() == "phi=0011;phiPrime=01;map=1,3"
    with pytest.raises(ParseError):
        BmEdge.parse("phi=0011;map=1,3")
    with pytest.raises(ParseError):
        BmEdge.parse("phi=0011;phiPrime=11;map=0,1")


def test_edge_parse_rejects_unknown_keys():
    with pytest.raises(ParseError, match="bogus"):
        BmEdge.parse("phi=01;phiPrime=01;map=0,1;bogus=7")


def test_edge_parse_rejects_a_repeated_key():
    with pytest.raises(ParseError, match="repeats key 'phi'"):
        BmEdge.parse("phi=00;phi=0;phiPrime=0;map=0")
    with pytest.raises(ParseError, match="repeats key 'map'"):
        BmEdge.parse("phi=0;phiPrime=0;map=0; map =0")


def test_chain_validation_and_encoding():
    e1 = identity_edge(OBJ("00"))
    chain = BmChain.from_edges([e1, e1])
    assert chain.length == 2
    assert [o.encode() for o in chain.objects] == ["00", "00", "00"]
    assert BmChain.parse(chain.encode()) == chain
    assert str(chain) == chain.encode()
    vertex = BmChain.parse("0011")
    assert vertex.length == 0 and vertex.base.encode() == "0011"
    mismatched = identity_edge(OBJ("01"))
    with pytest.raises(ValidationError):
        BmChain.from_edges([e1, mismatched])
    with pytest.raises(ParseError):
        BmChain.parse(e1.encode() + "|" + mismatched.encode())


def test_derived_attributes_are_computed_once_and_leave_equality_alone():
    """chain.objects is built once, with the chain, and so are an object's
    top, ell and beta; they change no comparison, hash, repr or encoding."""
    chain = BmChain.parse("phi=0011;phiPrime=001;map=0,1,3|phi=001;phiPrime=01;map=1,2")
    assert chain.objects is chain.objects
    assert [o.encode() for o in chain.objects] == ["0011", "001", "01"]
    counts = 0
    count = tuple.count

    class CountingValues(tuple):
        def count(self, value):
            nonlocal counts
            counts += 1
            return count(self, value)

    phi = BmObject(CountingValues((0, 0, 1)))
    assert [phi.ell, phi.ell, phi.beta, phi.top, phi.ell] == [1, 1, 1, 2, 1]
    assert counts == 1
    fresh = OBJ("001")
    assert (phi == fresh, hash(phi) == hash(fresh), repr(phi) == repr(fresh)) == (True,) * 3
    assert BmChain.parse(chain.encode()) == chain
