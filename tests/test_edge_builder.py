"""_edge_of_parts, the one builder of enumerated and drawn edges, against the
checked construction BmEdge(phi, phi', DeltaMap(k', k, zero + one))."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver.bm import (
    BmEdge,
    BmObject,
    _edge_of_parts,
    count_edges,
    edge_at,
    edge_parts,
    enumerate_objects,
    fiber_parts,
)
from bmquiver.simplex import DeltaMap

OBJECTS_6 = enumerate_objects(6)


def checked(phi: BmObject, phi_prime: BmObject, zero: tuple, one: tuple) -> BmEdge:
    """The edge with images zero + one, through the checks of DeltaMap and BmEdge."""
    return BmEdge(phi, phi_prime, DeltaMap(phi_prime.top, phi.top, zero + one))


def assert_same_edge(built: BmEdge, reference: BmEdge) -> None:
    """built equals the checked edge, hashes and prints as it does, and passes
    the checks it skipped."""
    assert type(built) is BmEdge and type(built.map) is DeltaMap
    assert built == reference
    assert hash(built) == hash(reference)
    assert repr(built) == repr(reference)
    DeltaMap.__post_init__(built.map)
    BmEdge.__post_init__(built)


@pytest.mark.parametrize("phi", OBJECTS_6, ids=str)
def test_built_edges_are_the_checked_edges_for_k_and_k_prime_up_to_6(phi):
    """For every target on [k' <= 6] and every pair of fiber parts, the built
    edge is the checked one and passes the checks that were skipped."""
    for phi_prime in OBJECTS_6:
        zeros, ones = fiber_parts(phi, phi_prime)
        for zero in zeros:
            for one in ones:
                assert_same_edge(
                    _edge_of_parts(phi, phi_prime, zero, one),
                    checked(phi, phi_prime, zero, one),
                )


def test_built_edges_stay_frozen():
    """Neither the built edge nor its map takes an assignment."""
    phi, phi_prime = BmObject((0, 0, 1)), BmObject((0, 1, 1))
    zeros, ones = fiber_parts(phi, phi_prime)
    edge = _edge_of_parts(phi, phi_prime, zeros[0], ones[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        edge.map = DeltaMap(2, 2, (0, 2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        edge.map.images = (0, 2, 2)
    assert edge.map.images == zeros[0] + ones[-1]


#: Objects on [k <= 60]: a pair all over 0 there has C(121, 61), about 1.2e35,
#: edges, which edge_at unranks without listing any.
objects_60 = st.integers(0, 60).flatmap(
    lambda k: st.integers(0, k + 1).map(lambda z: BmObject((0,) * z + (1,) * (k + 1 - z)))
)


@settings(max_examples=200, deadline=None)
@given(objects_60, objects_60, st.data())
def test_edges_at_drawn_indices_are_the_checked_edges_for_k_and_k_prime_up_to_60(
    phi, phi_prime, data
):
    """edge_at, which builds through _edge_of_parts, gives the checked edge at
    any index of an object pair on [k], [k'] <= 60, and the edge at the next
    index has images strictly after it in lexicographic order, as
    enumerate_edges lists them."""
    count = count_edges(phi, phi_prime)
    if not count:
        return
    index = data.draw(st.integers(0, count - 1), label="index")
    edge = edge_at(phi, phi_prime, index)
    assert_same_edge(edge, checked(phi, phi_prime, *edge_parts(phi, phi_prime, index)))
    if index + 1 < count:
        following = edge_at(phi, phi_prime, index + 1)
        assert_same_edge(
            following, checked(phi, phi_prime, *edge_parts(phi, phi_prime, index + 1))
        )
        assert edge.map.images < following.map.images
