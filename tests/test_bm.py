from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DegenerateDecompositionError,
    DeltaMap,
    ParseError,
    UnknownNameError,
    ValidationError,
    enumerate_edges,
    enumerate_objects,
    identity_edge,
    named_object,
    segment_decompose,
)
from bmquiver.bm import count_edges, edge_at
from bmquiver.simplex import enumerate_maps

OBJ = BmObject.parse


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


def test_named_objects():
    assert named_object("a").encode() == "00"
    assert named_object("b").encode() == "11"
    assert named_object("m").encode() == "01"
    assert named_object("\U0001d52a") == named_object("m")
    assert named_object("m").beta == 1
    with pytest.raises(UnknownNameError):
        named_object("q")


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


def test_enumerate_edges_examples():
    assert enumerate_edges(OBJ("0"), OBJ("1")) == []
    edges = enumerate_edges(OBJ("01"), OBJ("01"))
    assert len(edges) == 1 and edges[0].is_identity
    edges = enumerate_edges(OBJ("001"), OBJ("01"))
    assert [e.map.images for e in edges] == [(0, 2), (1, 2)]


def filtered_edges(phi, phi_prime):
    """Every map [k'] -> [k] that lies over [1], in map order."""
    return [
        BmEdge(phi, phi_prime, delta)
        for delta in enumerate_maps(phi_prime.top, phi.top)
        if [phi.values[v] for v in delta.images] == list(phi_prime.values)
    ]


OBJECTS_5 = enumerate_objects(5)


@pytest.mark.parametrize("phi", OBJECTS_5, ids=str)
def test_edges_built_from_fiber_maps_match_filtered_maps(phi):
    for phi_prime in OBJECTS_5:
        edges = enumerate_edges(phi, phi_prime)
        assert edges == filtered_edges(phi, phi_prime)
        assert len(edges) == count_edges(phi, phi_prime)
        for i, edge in enumerate(edges):
            assert edge_at(phi, phi_prime, i) == edge


def test_edge_at_rejects_indices_out_of_range():
    assert count_edges(OBJ("0"), OBJ("1")) == 0
    for phi, phi_prime, index in [("0", "1", 0), ("001", "01", 2), ("001", "01", -1)]:
        with pytest.raises(IndexError):
            edge_at(OBJ(phi), OBJ(phi_prime), index)


def test_edge_must_lie_over_one():
    with pytest.raises(ValidationError):
        BmEdge(OBJ("01"), OBJ("01"), DeltaMap(1, 1, (0, 0)))
    with pytest.raises(ValidationError):
        BmEdge(OBJ("01"), OBJ("0"), DeltaMap(1, 1, (0, 1)))


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
    with pytest.raises(ParseError):
        BmEdge.parse("phi=0011;map=1,3")
    with pytest.raises(ParseError):
        BmEdge.parse("phi=0011;phiPrime=11;map=0,1")


def test_edge_parse_rejects_unknown_keys():
    with pytest.raises(ParseError, match="bogus"):
        BmEdge.parse("phi=01;phiPrime=01;map=0,1;bogus=7")


def test_chain_validation_and_encoding():
    e1 = identity_edge(OBJ("00"))
    chain = BmChain.from_edges([e1, e1])
    assert chain.length == 2
    assert [o.encode() for o in chain.objects] == ["00", "00", "00"]
    assert BmChain.parse(chain.encode()) == chain
    vertex = BmChain.parse("0011")
    assert vertex.length == 0 and vertex.base.encode() == "0011"
    mismatched = identity_edge(OBJ("01"))
    with pytest.raises(ValidationError):
        BmChain.from_edges([e1, mismatched])
    with pytest.raises(ParseError):
        BmChain.parse(e1.encode() + "|" + mismatched.encode())


def test_subchain():
    e = identity_edge(OBJ("00"))
    chain = BmChain.from_edges([e, e])
    assert chain.subchain(0, 1).length == 1
    assert chain.subchain(1, 1).length == 0
    with pytest.raises(ValidationError):
        chain.subchain(2, 1)
