from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DeltaMap,
    LabelKind,
    LabelRangeError,
    QuiverLabel,
    UnresolvableLabelError,
    enumerate_all_edges,
    enumerate_objects,
    f_chain,
    f_object,
    f_object_via_segments,
    j_cardinality_audit,
    pairing_set,
)
from bmquiver import quiverf
from bmquiver.quiverf import f_classes, label_count, label_offsets, mid, one, two
from test_bm import identity_edge
from test_quotient import union_find_blocks
from test_sweeps import edge_pool

OBJ = BmObject.parse
EDGE = BmEdge.parse


def resolve_label(phi: BmObject, kind: LabelKind, index=None, vertex: int = 0) -> QuiverLabel:
    """The element of f_object(phi) that a raw (kind, index) resolves to.

    x1(0) resolves to the resolution of x2(1); x2(ell + 1) resolves to xm,
    which requires beta = 1.  In-range labels resolve to themselves.
    """
    code = quiverf._resolve(phi, phi.ell, phi.beta, kind, index)
    return quiverf._label(code, phi.ell, vertex)


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
    """The blocks of the pushout of the two vertex label sets along the edge's pairing list."""
    elements = f_object(edge.phi, vertex=0) + f_object(edge.phi_prime, vertex=1)
    return union_find_blocks(elements, pairing_set(edge).pairs)


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
            assert f_chain(BmChain.from_edges([edge])).blocks == edge_pushout(edge)

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


# An independent implementation on QuiverLabel values, kept as the oracle
# for the integer kernel: labels are resolved and paired as dataclasses, and
# F is the quotient of the labels by the pairs.


def label_resolve(phi, kind, index=None, vertex=0):
    ell, beta = phi.ell, phi.beta
    if kind is LabelKind.MID:
        if beta != 1:
            raise UnresolvableLabelError(kind)
        return mid(vertex)
    if index is None or not 0 <= index <= ell + 1:
        raise LabelRangeError(index)
    if kind is LabelKind.ONE and index == 0:
        return label_resolve(phi, LabelKind.TWO, 1, vertex)
    if kind is LabelKind.TWO and index == ell + 1:
        return label_resolve(phi, LabelKind.MID, None, vertex)
    if not 1 <= index <= ell:
        raise UnresolvableLabelError(index)
    return QuiverLabel(vertex, kind, index)


def label_pairing(edge, at=0):
    """(pairs, notes) of the pairing rules, built on labels."""
    phi, phi_prime = edge.phi, edge.phi_prime
    ell_prime = phi_prime.ell
    if ell_prime == -1:
        return (), ()
    ell = phi.ell
    p = edge.map.images
    one_, two_, mid_ = LabelKind.ONE, LabelKind.TWO, LabelKind.MID

    def x(kind, index=None):
        return label_resolve(phi, kind, index, at)

    def y(kind, index=None):
        return label_resolve(phi_prime, kind, index, at + 1)

    pairs, notes = [], []
    for i in range(1, ell_prime + 1):
        if p[i - 1] == p[i]:
            pairs.append((y(one_, i), y(two_, i)))
            notes.append(f"y1({i}) = x1({p[i]}) = x1({p[i - 1]}) = y1({i - 1}) = y2({i})")
        else:
            pairs.append((y(one_, i), x(one_, p[i])))
            notes.append(f"y1({i}) = x1({p[i]})")
            pairs.append((x(two_, p[i - 1] + 1), y(two_, i)))
            notes.append(f"x2({p[i - 1] + 1}) = x1({p[i - 1]}) = y1({i - 1}) = y2({i})")
            for j in range(p[i - 1] + 2, p[i] + 1):
                pairs.append((x(two_, j), x(one_, j - 1)))
                notes.append(f"x2({j}) = x1({j - 1})")
    if phi_prime.beta == 1:
        pairs.append((x(mid_), x(one_, ell)))
        notes.append(f"xm = x1({ell})")
        pairs.append((x(two_, p[ell_prime] + 1), y(mid_)))
        notes.append(f"x2({p[ell_prime] + 1}) = x1({p[ell_prime]}) = y1({ell_prime}) = ym")
        for j in range(p[ell_prime] + 2, ell + 1):
            pairs.append((x(two_, j), x(one_, j - 1)))
            notes.append(f"x2({j}) = x1({j - 1})")
    return tuple(pairs), tuple(notes)


def label_object(phi, vertex):
    labels = []
    for i in range(1, phi.ell + 1):
        labels += [one(i, vertex), two(i, vertex)]
    if phi.beta == 1:
        labels.append(mid(vertex))
    return labels


def label_f_chain(chain):
    elements = [lab for t, obj in enumerate(chain.objects) for lab in label_object(obj, t)]
    pairs = [pair for t, e in enumerate(chain.edges) for pair in label_pairing(e, t)[0]]
    return elements, pairs


def oracle_chains():
    """Every edge with k, k' <= 4 and every chain of length 2 with k <= 2."""
    for edge in enumerate_all_edges(4, 4):
        yield BmChain.from_edges([edge])
    pool = edge_pool(2)
    for edges in pool.values():
        for first in edges:
            for second in pool[first.phi_prime]:
                yield BmChain.from_edges([first, second])


def closure(elements, pairs):
    """Blocks grown by fixpoint iteration: merge until no pair spans two blocks."""
    block_of = {e: frozenset([e]) for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if block_of[a] != block_of[b]:
                merged = block_of[a] | block_of[b]
                for e in merged:
                    block_of[e] = merged
                changed = True
    return sorted(tuple(sorted(block)) for block in set(block_of.values()))


class TestLabelOracle:
    def test_labels_and_their_numbers(self):
        for phi in enumerate_objects(8):
            assert list(f_object(phi, vertex=3)) == label_object(phi, 3)
            for kind in LabelKind:
                for index in (None, -1, 0, 1, 2, phi.ell, phi.ell + 1, phi.ell + 2):
                    try:
                        expected = label_resolve(phi, kind, index, 2)
                    except (LabelRangeError, UnresolvableLabelError) as exc:
                        with pytest.raises(type(exc)):
                            resolve_label(phi, kind, index, 2)
                    else:
                        assert resolve_label(phi, kind, index, 2) == expected

    def test_pairing_set_and_f_chain_match_the_label_oracle(self):
        count = 0
        for chain in oracle_chains():
            for t, edge in enumerate(chain.edges):
                pairing = pairing_set(edge, at=t)
                assert (pairing.pairs, pairing.notes) == label_pairing(edge, t)
            elements, pairs = label_f_chain(chain)
            fq = f_chain(chain)
            assert fq.elements == tuple(elements)
            assert fq.blocks == union_find_blocks(elements, pairs)
            assert all(block[0] == min(block) for block in fq.blocks)
            count += 1
        assert count == 2421 + 1401  # edges with k, k' <= 4; two-edge chains, k <= 2

    def test_union_find_f_matches_fixpoint_closure(self):
        for chain in oracle_chains():
            elements, pairs = label_f_chain(chain)
            reps = f_classes(chain)
            assert len(reps) == label_offsets(chain.objects)[-1] == len(elements)
            blocks = {}
            for label, rep in zip(elements, reps):
                blocks.setdefault(rep, []).append(label)
            assert all(elements[rep] == block[0] for rep, block in blocks.items())
            assert sorted(map(tuple, blocks.values())) == closure(elements, pairs)


class TestResolutionTables:
    """The tables the pairing rules read against the rules they keep."""

    def test_tables_equal_the_resolution_rule(self):
        """On every object with k <= 8 each (kind, index) a rule can request,
        and one index past each end, reads what _resolve gives; where
        _resolve raises, the table raises the same error and keeps no entry."""
        for phi in enumerate_objects(8):
            ell, beta = phi.ell, phi.beta
            shape = quiverf._shape(phi)
            assert (shape.ell, shape.beta, shape.count) == (ell, beta, label_count(ell, beta))
            tables = {LabelKind.ONE: shape.one, LabelKind.TWO: shape.two, LabelKind.MID: shape.mid}
            requests = [(LabelKind.MID, None)] + [
                (kind, index)
                for kind in (LabelKind.ONE, LabelKind.TWO)
                for index in range(-1, ell + 3)
            ]
            expected: dict = {kind: {} for kind in LabelKind}
            for kind, index in requests:
                try:
                    code = quiverf._resolve(phi, ell, beta, kind, index)
                except (LabelRangeError, UnresolvableLabelError) as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        tables[kind][index]
                else:
                    assert tables[kind][index] == code
                    expected[kind][index] = code
            assert {kind: dict(table) for kind, table in tables.items()} == expected

    @given(bm_edges(max_top=8), st.integers(0, 3))
    @settings(max_examples=300)
    def test_random_edges_match_the_label_oracle(self, edge, at):
        """Edges up to k, k' <= 8, their pairing lists read from the tables."""
        pairing = pairing_set(edge, at=at)
        assert (pairing.pairs, pairing.notes) == label_pairing(edge, at)


def test_crossing_count_closed_form():
    """With beta' = 1 the raw count is ell' - p(0) + max(ell + 1, p(ell') + 2)."""
    checked = 0
    for edge in enumerate_all_edges(5, 5):
        audit = j_cardinality_audit(edge)
        if audit.degenerate or edge.phi_prime.beta != 1:
            continue
        ell, ell_prime, p = edge.phi.ell, edge.phi_prime.ell, edge.map.images
        assert audit.raw_count == ell_prime - p[0] + max(ell + 1, p[ell_prime] + 2)
        checked += 1
    assert checked == 4747  # the 2,754 audit warnings are among them
