from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DeltaMap,
    enumerate_all_edges,
    enumerate_objects,
    f_chain,
    f_object,
    g_chain,
    gamma_chain,
    gamma_index,
    gamma_object,
    ValidationError,
    identity_edge,
    verify_constancy,
    verify_decomposition,
    verify_edge_identification,
    verify_naturality,
    xi_component,
    xi_restriction_commutes,
)
from bmquiver import compare
from bmquiver.quiverf import LabelKind, mid, one, resolve_label, two

OBJ = BmObject.parse
EDGE = BmEdge.parse


@st.composite
def bm_edges(draw, max_top: int = 6):
    k = draw(st.integers(0, max_top))
    zeros = draw(st.integers(0, k + 1))
    phi = BmObject((0,) * zeros + (1,) * (k + 1 - zeros))
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


class TestGammaOnVertices:
    def test_swap_on_the_two_point_fiber(self):
        gamma = gamma_object(OBJ("00"))
        assert gamma.assignment[one(1)] == (0, 1)
        assert gamma.assignment[two(1)] == (0, 0)

    def test_empty_on_the_constant_one_object(self):
        assert gamma_object(OBJ("1")).assignment == {}

    def test_crossing_vertex(self):
        gamma = gamma_object(OBJ("001"))
        assert gamma.assignment[one(1)] == (0, 1)
        assert gamma.assignment[two(1)] == (0, 0)
        assert gamma.assignment[mid()] == (0, 1)

    def test_index_rules(self):
        assert gamma_index(one(4), 6) == 4
        assert gamma_index(two(4), 6) == 3
        assert gamma_index(mid(), 6) == 6

    def test_image_is_the_whole_fiber(self):
        for phi in enumerate_objects(6):
            images = {v[1] for v in gamma_object(phi).witness.values()}
            if phi.ell >= 1 or phi.beta == 1:
                assert images == set(range(phi.ell + 1))
            else:
                assert images == set()

    def test_representative_sequence_is_order_preserving(self):
        for phi in enumerate_objects(6):
            if phi.ell < 1 and phi.beta == 0:
                continue
            gamma = gamma_object(phi)
            sequence = [
                gamma.witness[resolve_label(phi, LabelKind.ONE, i)][1]
                for i in range(phi.ell + 1)
            ]
            assert sequence == list(range(phi.ell + 1))


class TestGammaOnChains:
    def test_identity_edge_is_injective(self):
        gamma = gamma_chain(BmChain.from_edges([identity_edge(OBJ("00"))]))
        images = set(gamma.assignment.values())
        assert len(images) == len(gamma.assignment) == 2

    def test_crossing_edge_classes(self):
        chain = BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")])
        gamma = gamma_chain(chain)
        fq = f_chain(chain)
        assert gamma.assignment[fq.find(mid(0))] == (0, 1)
        assert gamma.assignment[fq.find(two(1, 0))] == (0, 0)

    def test_constant_one_chain_is_empty(self):
        e = identity_edge(OBJ("11"))
        gamma = gamma_chain(BmChain.from_edges([e, e]))
        assert gamma.assignment == {}

    def test_carries_the_values_it_compares(self):
        chains = [BmChain.vertex(phi) for phi in enumerate_objects(3)]
        for edge in enumerate_all_edges(3, 3):
            chains.append(BmChain.from_edges([edge]))
            chains.append(BmChain.from_edges([edge, identity_edge(edge.phi_prime)]))
        for chain in chains:
            gamma = gamma_chain(chain)
            assert gamma.f == f_chain(chain)
            assert gamma.g == g_chain(chain)


class TestConstancy:
    def test_identity_edge(self):
        report = verify_constancy(identity_edge(OBJ("00")))
        assert report.passed and report.checked == 2

    def test_crossing_edge(self):
        report = verify_constancy(EDGE("phi=001;phiPrime=01;map=1,2"))
        assert report.passed

    def test_trails_are_attached(self):
        report = verify_constancy(identity_edge(OBJ("00")))
        assert report.details["trails"] == [
            "(v1:x1(1), v0:x1(1)): y1(1) = x1(1)",
            "(v0:x2(1), v1:x2(1)): x2(1) = x1(0) = y1(0) = y2(1)",
        ]

    def test_exhaustive_small_range(self):
        for edge in enumerate_all_edges(4, 4):
            assert verify_constancy(edge, include_trails=False).passed

    @given(bm_edges())
    @settings(max_examples=300)
    def test_random_edges(self, edge):
        assert verify_constancy(edge, include_trails=False).passed


class TestNaturality:
    def test_vertex_chain_is_trivial(self):
        assert verify_naturality(BmChain.vertex(OBJ("0001"))).passed

    def test_identity_edge_on_the_crossing_interval(self):
        assert verify_naturality(
            BmChain.from_edges([identity_edge(OBJ("01"))])
        ).passed

    def test_exhaustive_small_range(self):
        for edge in enumerate_all_edges(3, 3):
            assert verify_naturality(BmChain.from_edges([edge])).passed

    def test_length_two_chain(self):
        chain = BmChain.from_edges(
            [EDGE("phi=0;phiPrime=00;map=0,0"), EDGE("phi=00;phiPrime=000;map=0,1,1")]
        )
        report = verify_naturality(chain)
        assert report.passed

    @given(bm_edges(max_top=5), st.data())
    @settings(max_examples=100)
    def test_random_two_chains(self, first, data):
        phi = first.phi_prime
        k_prime = data.draw(st.integers(0, 5))
        images = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(0, phi.top),
                        min_size=k_prime + 1,
                        max_size=k_prime + 1,
                    )
                )
            )
        )
        second = BmEdge(
            phi,
            BmObject(tuple(phi.values[v] for v in images)),
            DeltaMap(k_prime, phi.top, images),
        )
        assert verify_naturality(BmChain.from_edges([first, second])).passed


class TestDecomposition:
    def test_crossing_object(self):
        report = verify_decomposition(OBJ("001"))
        assert report.passed
        assert len(f_object(OBJ("001"))) == 3

    def test_all_ones(self):
        assert verify_decomposition(OBJ("11")).passed

    def test_exhaustive(self):
        for phi in enumerate_objects(8):
            if phi.top >= 1:
                assert verify_decomposition(phi).passed


class TestEdgeIdentification:
    def test_exhaustive_small_range(self):
        for edge in enumerate_all_edges(4, 4):
            report = verify_edge_identification(edge)
            assert report.passed
            assert report.checked == edge.phi_prime.ell + 1


class TestXi:
    def test_crossing_vertex_target_two(self):
        table = xi_component(BmChain.vertex(OBJ("01")), 2)
        assert table.g_representatives == ((0, 0),)
        assert [str(r) for r in table.f_representatives] == ["v0:xm"]
        assert table.entries == (((0,), (0,)), ((1,), (1,)))
        images = {entry[1] for entry in table.entries}
        assert len(images) == 2  # a bijection of two-element hom-sets

    def test_singleton_target(self):
        table = xi_component(
            BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")]), 1
        )
        assert len(table.entries) == 1

    def test_empty_domains(self):
        table = xi_component(BmChain.vertex(OBJ("1")), 3)
        assert table.entries == (((), ()),)

    def test_row_bound(self, monkeypatch):
        monkeypatch.setattr(compare, "XI_MAX_ROWS", 4)
        assert len(xi_component(BmChain.vertex(OBJ("01")), 4).entries) == 4
        assert len(xi_component(BmChain.vertex(OBJ("001")), 2).entries) == 4
        with pytest.raises(ValidationError, match="2\\^3 = 8 rows"):
            xi_component(BmChain.vertex(OBJ("0001")), 2)
        with pytest.raises(ValidationError):
            xi_component(BmChain.vertex(OBJ("01")), 5)

    def test_restriction_commutes_small(self):
        for phi in enumerate_objects(2):
            for m in range(4):
                assert xi_restriction_commutes(BmChain.vertex(phi), m).passed
        for edge in enumerate_all_edges(2, 2):
            for m in range(4):
                assert xi_restriction_commutes(BmChain.from_edges([edge]), m).passed
