from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DeltaMap,
    LabelKind,
    LabelRangeError,
    UnresolvableLabelError,
    enumerate_all_edges,
    enumerate_objects,
    f_chain,
    f_object,
    f_object_via_segments,
    identity_edge,
    j_cardinality_audit,
    pairing_set,
    quotient,
    resolve_label,
)
from bmquiver.quiverf import mid, one, two

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


def edge_pushout(edge):
    """The pushout of the two vertex label sets along the edge's pairing list."""
    elements = f_object(edge.phi, vertex=0) + f_object(edge.phi_prime, vertex=1)
    return quotient(elements, pairing_set(edge).pairs)


def strs(labels) -> list[str]:
    return [str(label) for label in labels]


class TestLabeledSets:
    def test_point_is_empty(self):
        assert f_object(OBJ("0")) == ()
        assert f_object(OBJ("1")) == ()

    def test_crossing_interval_is_a_point(self):
        assert strs(f_object(OBJ("01"))) == ["v0:xm"]

    def test_five_generators(self):
        assert strs(f_object(OBJ("0001"))) == [
            "v0:x1(1)",
            "v0:x2(1)",
            "v0:x1(2)",
            "v0:x2(2)",
            "v0:xm",
        ]

    def test_cardinality_law_exhaustive(self):
        for phi in enumerate_objects(8):
            assert len(f_object(phi)) == max(0, 2 * phi.ell + phi.beta)

    def test_label_order_and_text_forms(self):
        assert one(3) < mid()
        assert one(1) < two(1) < one(2) < two(2)
        assert str(one(3)) == "v0:x1(3)"
        assert str(mid(1)) == "v1:xm"
        assert two(1, vertex=0) < one(1, vertex=1)


class TestResolveLabel:
    def test_zero_index_resolves_through_two_one(self):
        phi = OBJ("001")
        assert resolve_label(phi, LabelKind.ONE, 0) == two(1)

    def test_top_index_resolves_to_mid(self):
        phi = OBJ("001")
        assert resolve_label(phi, LabelKind.TWO, 2) == mid()

    def test_chained_resolution_on_the_identity_interval(self):
        phi = OBJ("01")
        assert resolve_label(phi, LabelKind.ONE, 0) == mid()

    def test_in_range_labels_resolve_to_themselves(self):
        phi = OBJ("0001")
        assert resolve_label(phi, LabelKind.ONE, 2) == one(2)
        assert resolve_label(phi, LabelKind.TWO, 1) == two(1)

    def test_mid_requires_crossing(self):
        with pytest.raises(UnresolvableLabelError):
            resolve_label(OBJ("00"), LabelKind.MID)
        with pytest.raises(UnresolvableLabelError):
            resolve_label(OBJ("00"), LabelKind.TWO, 2)

    def test_range_errors(self):
        with pytest.raises(LabelRangeError):
            resolve_label(OBJ("001"), LabelKind.ONE, 3)
        with pytest.raises(LabelRangeError):
            resolve_label(OBJ("001"), LabelKind.TWO, -1)
        with pytest.raises(LabelRangeError):
            resolve_label(OBJ("001"), LabelKind.ONE, None)

    def test_uncovered_raw_labels_are_unresolvable(self):
        with pytest.raises(UnresolvableLabelError):
            resolve_label(OBJ("001"), LabelKind.TWO, 0)
        with pytest.raises(UnresolvableLabelError):
            resolve_label(OBJ("001"), LabelKind.ONE, 2)


class TestPairingSet:
    def test_identity_on_00(self):
        pairing = pairing_set(identity_edge(OBJ("00")))
        assert [(str(a), str(b)) for a, b in pairing.pairs] == [
            ("v1:x1(1)", "v0:x1(1)"),
            ("v0:x2(1)", "v1:x2(1)"),
        ]

    def test_flat_and_strict_steps(self):
        pairing = pairing_set(EDGE("phi=00;phiPrime=000;map=0,0,1"))
        assert [(str(a), str(b)) for a, b in pairing.pairs] == [
            ("v1:x1(1)", "v1:x2(1)"),
            ("v1:x1(2)", "v0:x1(1)"),
            ("v0:x2(1)", "v1:x2(2)"),
        ]

    def test_crossing_rules_with_resolution(self):
        pairing = pairing_set(EDGE("phi=001;phiPrime=01;map=1,2"))
        assert [(str(a), str(b)) for a, b in pairing.pairs] == [
            ("v0:xm", "v0:x1(1)"),
            ("v0:xm", "v1:xm"),
        ]

    def test_degenerate_target_gives_empty_list(self):
        pairing = pairing_set(EDGE("phi=01;phiPrime=1;map=1"))
        assert pairing.pairs == ()

    def test_inner_pairs_for_a_long_strict_step(self):
        # single fiber step jumping from 0 to 3
        pairing = pairing_set(EDGE("phi=0000;phiPrime=00;map=0,3"))
        assert [(str(a), str(b)) for a, b in pairing.pairs] == [
            ("v1:x1(1)", "v0:x1(3)"),
            ("v0:x2(1)", "v1:x2(1)"),
            ("v0:x2(2)", "v0:x1(1)"),
            ("v0:x2(3)", "v0:x1(2)"),
        ]

    def test_never_unresolvable_on_valid_edges(self):
        for edge in enumerate_all_edges(5, 5):
            pairing_set(edge)  # must not raise

    @given(bm_edges())
    @settings(max_examples=300)
    def test_never_unresolvable_on_random_edges(self, edge):
        pairing_set(edge)

    def test_flat_count_law_without_target_crossing(self):
        # raw pair count is ell' + p(ell') - p(0) whenever beta' = 0
        for edge in enumerate_all_edges(4, 4):
            if edge.phi_prime.beta != 0:
                continue
            ell_prime = edge.phi_prime.ell
            if ell_prime == -1:
                assert pairing_set(edge).raw_count == 0
                continue
            p = edge.map.images
            assert pairing_set(edge).raw_count == ell_prime + p[ell_prime] - p[0]


class TestPushouts:
    def test_identity_edge_on_00(self):
        q = f_chain(BmChain.from_edges([identity_edge(OBJ("00"))]))
        assert [strs(block) for block in q.blocks] == [
            ["v0:x1(1)", "v1:x1(1)"],
            ["v0:x2(1)", "v1:x2(1)"],
        ]

    def test_crossing_edge(self):
        q = f_chain(BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")]))
        assert [strs(block) for block in q.blocks] == [
            ["v0:x1(1)", "v0:xm", "v1:xm"],
            ["v0:x2(1)"],
        ]

    def test_empty_on_both_sides(self):
        assert len(f_chain(BmChain.from_edges([identity_edge(OBJ("1"))]))) == 0

    def test_vertex_chain_is_discrete(self):
        q = f_chain(BmChain.vertex(OBJ("0001")))
        assert len(q) == 5
        assert all(len(block) == 1 for block in q.blocks)

    def test_length_one_chain_equals_edge_pushout(self):
        for edge in enumerate_all_edges(3, 3):
            assert f_chain(BmChain.from_edges([edge])).blocks == edge_pushout(edge).blocks

    def test_two_identity_edges_glue_three_copies(self):
        e = identity_edge(OBJ("00"))
        q = f_chain(BmChain.from_edges([e, e]))
        assert len(q) == 2
        assert all(len(block) == 3 for block in q.blocks)

    def test_representatives_are_least_labels(self):
        q = f_chain(BmChain.from_edges([EDGE("phi=001;phiPrime=01;map=1,2")]))
        for block in q.blocks:
            assert block[0] == min(block)


class TestSegmentRebuild:
    def test_rebuild_001(self):
        labels = f_object_via_segments(OBJ("001"))
        assert sorted(strs(labels)) == sorted(["v0:x1(1)", "v0:x2(1)", "v0:xm"])

    def test_rebuild_all_ones(self):
        assert f_object_via_segments(OBJ("11")) == ()

    def test_rebuild_0011(self):
        assert len(f_object_via_segments(OBJ("0011"))) == 3

    def test_rebuild_is_bijective_exhaustive(self):
        for phi in enumerate_objects(8):
            if phi.top == 0:
                continue
            rebuilt = f_object_via_segments(phi)
            assert len(set(rebuilt)) == len(rebuilt)
            assert sorted(rebuilt) == sorted(f_object(phi))


class TestCardinalityAudit:
    def test_flat_strict_edge_matches(self):
        audit = j_cardinality_audit(EDGE("phi=00;phiPrime=000;map=0,0,1"))
        assert audit.raw_count == 3
        assert audit.formula_count == 3
        assert audit.raw_matches and audit.effective_matches

    def test_identity_on_the_crossing_interval(self):
        audit = j_cardinality_audit(identity_edge(OBJ("01")))
        assert audit.raw_count == 2
        assert audit.self_pair_count == 1
        assert audit.effective_count == 1
        assert audit.formula_count == 1
        assert not audit.raw_matches
        assert audit.effective_matches
        assert audit.mid_image_tight is True

    def test_recorded_mismatch(self):
        audit = j_cardinality_audit(EDGE("phi=001;phiPrime=01;map=1,2"))
        assert audit.raw_count == 2
        assert audit.formula_count == 1
        assert not audit.raw_matches and not audit.effective_matches

    def test_degenerate_convention(self):
        audit = j_cardinality_audit(EDGE("phi=01;phiPrime=1;map=1"))
        assert audit.degenerate
        assert audit.formula_count is None
        assert audit.raw_count == 0

    def test_flat_law_is_exact_exhaustively(self):
        for edge in enumerate_all_edges(4, 4):
            audit = j_cardinality_audit(edge)
            if edge.phi_prime.beta == 0 and not audit.degenerate:
                assert audit.raw_matches
