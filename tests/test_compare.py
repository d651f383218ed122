from __future__ import annotations

import hashlib
import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from bmquiver import (
    BmChain,
    BmEdge,
    BmObject,
    DeltaMap,
    QuiverLabel,
    QuotientSet,
    enumerate_objects,
    f_chain,
    f_object,
    g_chain,
    gamma_chain,
    ValidationError,
    segment_decompose,
    verify_constancy,
    verify_decomposition,
    verify_edge_identification,
    verify_naturality,
    xi_component,
    xi_restriction_commutes,
)
from bmquiver import compare, quiverf, sweeps
from bmquiver.errors import PairingConstructionError
from bmquiver.sweeps import SweepConfig
from bmquiver.quiverf import LabelKind, edge_pairs, label_count, label_offsets, mid
from bmquiver.wfib import chain_signature, g_classes
from test_bm import enumerate_all_edges, identity_edge
from test_quiverf import one, resolve_label, two
from test_quotient import union_find_blocks
from test_sweeps import rotated_g, two_edge_chains, x1_zero_as_x1_one

OBJ = BmObject.parse
EDGE = BmEdge.parse


def edge_shape(edge: BmEdge) -> tuple:
    """What the kernel reads of an edge: both objects' (ell, beta) and the fiber map."""
    phi, phi_prime = edge.phi, edge.phi_prime
    return phi.ell, phi.beta, phi_prime.ell, phi_prime.beta, edge.fiber_map()


def count_kernel(monkeypatch) -> list:
    """Record the key of every kernel computation from here on; the record
    is returned."""
    computed = []
    kernel = compare._kernel

    def counted(values, maps):
        computed.append((values, maps))
        return kernel(values, maps)

    monkeypatch.setattr(compare, "_kernel", counted)
    return computed


def as_chain(instance) -> BmChain:
    """An object or an edge as its chain of length 0 or 1; a chain as it is."""
    if isinstance(instance, BmObject):
        return BmChain.vertex(instance)
    return BmChain.from_edges([instance]) if isinstance(instance, BmEdge) else instance


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


def gamma_object(phi: BmObject):
    """The comparison on the vertex chain at phi, where nothing is glued on either side."""
    return gamma_chain(BmChain.vertex(phi))


def gamma_index(label: QuiverLabel, ell: int) -> int:
    """The fiber element the comparison assigns a generator: x1(i) -> i, x2(j) -> j - 1, xm -> ell."""
    if label.kind is LabelKind.MID:
        return ell
    return label.index if label.kind is LabelKind.ONE else label.index - 1


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
        assignment = gamma_object(OBJ("00000001")).assignment
        assert assignment[one(4)] == (0, 4)
        assert assignment[two(4)] == (0, 3)
        assert assignment[mid()] == (0, 6)

    def test_image_is_the_whole_fiber(self):
        for phi in enumerate_objects(6):
            images = {v[1] for v in gamma_object(phi).assignment.values()}
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
                gamma.assignment[resolve_label(phi, LabelKind.ONE, i)][1]
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
        rep = {label: block[0] for block in f_chain(chain).blocks for label in block}
        assert gamma.assignment[rep[mid(0)]] == (0, 1)
        assert gamma.assignment[rep[two(1, 0)]] == (0, 0)

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
        assert report.passed

    def test_crossing_edge(self):
        report = verify_constancy(EDGE("phi=001;phiPrime=01;map=1,2"))
        assert report.passed

    def test_exhaustive_small_range(self):
        for edge in enumerate_all_edges(4, 4):
            assert verify_constancy(edge).passed

    @given(bm_edges())
    @settings(max_examples=300)
    def test_random_edges(self, edge):
        assert verify_constancy(edge).passed


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

    def test_one_edge_chain_is_its_own_segment(self, monkeypatch):
        """A one-edge chain reads its pairs, F and G, its segment's too, from
        one kernel computation.  A two-edge chain computes its own, then one
        per segment."""
        computed = count_kernel(monkeypatch)
        edge = EDGE("phi=00;phiPrime=000;map=0,1,1")
        assert verify_naturality(BmChain.from_edges([edge])).passed
        assert len(computed) == 1
        computed.clear()
        verify_naturality(BmChain.from_edges([edge, identity_edge(edge.phi_prime)]))
        assert len(computed) == 3

    def test_one_edge_segment_square_reads_the_instance_kernel(self, monkeypatch):
        """Where G moves its witnesses, a one-edge chain's segment square runs,
        fails, and reads the chain's own kernel computation: one in all.  The
        report is the one the edge itself gives."""
        rotated_g(monkeypatch)
        computed = count_kernel(monkeypatch)
        edge = EDGE("phi=00;phiPrime=000;map=0,1,1")
        report = verify_naturality(BmChain.from_edges([edge]))
        assert len(computed) == 1
        assert any(failure.startswith("segment square s=1:") for failure in report.failures)
        assert verify_naturality(edge) == report

    def test_kernel_matches_routes_it_does_not_share(self):
        """On every object with k <= 4, every edge with k, k' <= 4 and every
        two-edge chain with k <= 2, the kernel's pairs are each edge's
        edge_pairs shifted by label_offsets, the F that _f builds
        from them is the union-find of test_quotient, its sizes and G are
        chain_signature through g_classes, and the witness of each label is
        the G class of the fiber element _gamma gives it.  The two verdicts
        that follow are checked in tests/test_sweeps.py."""
        count = 0
        for instance in enumerate_objects(4) + enumerate_all_edges(4, 4) + two_edge_chains(2):
            sides = objects, edges, pairs, sizes, g, witness, _, _ = compare._sides(instance)
            offsets = label_offsets(objects)
            expected_pairs = []
            for off, edge in zip(offsets, edges):
                expected_pairs += [(a + off, b + off) for a, b in edge_pairs(edge)[0]]
            assert list(pairs) == expected_pairs, instance
            blocks = union_find_blocks(range(offsets[-1]), expected_pairs)
            least = {code: block[0] for block in blocks for code in block}
            f = compare._f(sides)
            assert list(f) == [least[code] for code in range(offsets[-1])], instance
            expected_sizes, maps = chain_signature(as_chain(instance))
            expected_g = g_classes(expected_sizes, maps)
            fiber_offs = [sum(expected_sizes[:t]) for t in range(len(objects))]
            expected_witness = [
                expected_g[fiber_off + compare._gamma(code, obj.ell)]
                for obj, fiber_off in zip(objects, fiber_offs)
                for code in range(label_count(obj.ell, obj.beta))
            ]
            assert (sizes, list(g)) == (expected_sizes, expected_g), instance
            assert list(witness) == expected_witness, instance
            count += 1
        assert count == 20 + 2421 + 1401

    def test_kernel_names_the_first_edge_the_rules_fail_on(self, monkeypatch):
        """With x1(0) resolved as x1(1), a two-edge chain with k <= 2 fails
        exactly when the rules fail on one of its edges, and _sides and f_chain
        both raise the error edge_pairs raises on the first such edge."""
        x1_zero_as_x1_one(monkeypatch)
        failing = 0
        for chain in two_edge_chains(2):
            expected = None
            for edge in chain.edges:
                try:
                    edge_pairs(edge)
                except PairingConstructionError as exc:
                    expected = str(exc)
                    break
            for route in (compare._sides, f_chain):
                if expected is None:
                    route(chain)
                else:
                    with pytest.raises(PairingConstructionError) as raised:
                        route(chain)
                    assert str(raised.value) == expected, chain.encode()
            failing += expected is not None
        assert failing > 0

    def test_one_edge_kernel_computes_once_per_run_of_equal_images(self, monkeypatch):
        """Exhaustive naturality checks every edge, one verify_naturality call
        each, and computes F and G once per edge shape, (ell, beta, ell', beta')
        and the fiber map: 2,957 of the 10,697 edges at k, k' <= 5, 787 of the
        2,421 at k, k' <= 4.  Each shape misses the verdict memo once and
        computes the kernel once, and no kernel key is computed twice."""
        computed = count_kernel(monkeypatch)
        calls = 0

        def counted(chain):
            nonlocal calls
            calls += 1
            return verify_naturality(chain)

        monkeypatch.setattr(sweeps, "verify_naturality", counted)
        for bound, edges, shapes in ((4, 2421, 787), (5, 10697, 2957)):
            calls = 0
            computed.clear()
            compare._edge_verdicts.cache_clear()
            report = sweeps.run_suite(SweepConfig(max_k=bound, max_k_prime=bound), "naturality")
            memo = compare._edge_verdicts.cache_info()
            assert (report.total, report.failed, calls) == (edges, 0, edges)
            assert len(set(map(edge_shape, enumerate_all_edges(bound, bound)))) == shapes
            assert (memo.misses, memo.hits, memo.currsize) == (shapes, edges - shapes, shapes)
            assert len(computed) == len(set(computed)) == shapes

    def test_naturality_after_constancy_computes_no_kernel(self, monkeypatch):
        """Constancy at k, k' <= 5 leaves every edge shape's verdicts in the
        memo, so naturality after it makes its 10,697 verify_naturality calls
        without one kernel computation, and no memo miss either."""
        computed = count_kernel(monkeypatch)
        calls = 0

        def counted(chain):
            nonlocal calls
            calls += 1
            return verify_naturality(chain)

        monkeypatch.setattr(sweeps, "verify_naturality", counted)
        config = SweepConfig(max_k=5, max_k_prime=5)
        assert sweeps.run_suite(config, "constancy").passed
        assert len(computed) == 2957
        computed.clear()
        memo = compare._edge_verdicts.cache_info()
        report = sweeps.run_suite(config, "naturality")
        assert (report.total, report.failed, calls) == (10697, 0, 10697)
        assert computed == []
        assert compare._edge_verdicts.cache_info().misses == memo.misses == 2957

    def test_kernel_on_canonical_objects_is_the_kernel_on_the_edge(self):
        """The kernel reads an object only through (ell, beta): on every edge
        with k, k' <= 4 it gives the same pairs, fiber sizes, G, witnesses
        and verdicts on the edge's objects as on the canonical objects with
        their invariants, which the verdict memo runs it on."""
        edges = enumerate_all_edges(4, 4)
        for edge in edges:
            phi, phi_prime, maps = edge.phi, edge.phi_prime, (edge.fiber_map(),)
            canonical = (
                compare._canonical(phi.ell, phi.beta),
                compare._canonical(phi_prime.ell, phi_prime.beta),
            )
            assert [BmObject(values).ell for values in canonical] == [phi.ell, phi_prime.ell]
            assert [BmObject(values).beta for values in canonical] == [phi.beta, phi_prime.beta]
            concrete = compare._kernel((phi.values, phi_prime.values), maps)
            assert compare._kernel(canonical, maps) == concrete, edge.encode()
        assert len(edges) == 2421

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

    @pytest.mark.parametrize(
        "mutant,failed,digest",
        [
            (None, 0, "936b26787d8b460dafbcae3afc0a2355ecd1aeb53e502cdde09337560c11d514"),
            ("offsets", 537, "8e287485bfc216ee93925b26860a614961c6208e69e73ad35910d1687612c580"),
            ("gamma", 175, "a02da2b79f145193dac88d1478747a560981141448f90e669025f192f2dd884c"),
        ],
    )
    def test_two_edge_chains_fail_under_mutants(self, monkeypatch, mutant, failed, digest):
        """On all 1,401 two-edge chains with k <= 2, naturality passes, and fails
        when every label offset is 0 (only segment squares read the offsets) or
        when gamma sends x1(i) to i - 1.  The digest, a sha256 of the JSON of
        every chain's failure list in chain order, was taken while the segment
        squares still built each segment as a one-edge subchain."""
        if mutant == "offsets":
            offsets = compare.label_offsets
            monkeypatch.setattr(compare, "label_offsets", lambda objs: [0] * len(offsets(objs)))
        elif mutant == "gamma":
            monkeypatch.setattr(compare, "_gamma", lambda code, ell: code // 2)
        chains = two_edge_chains(2)
        lists = [list(verify_naturality(chain).failures) for chain in chains]
        assert (len(chains), sum(map(bool, lists))) == (1401, failed)
        assert hashlib.sha256(json.dumps(lists).encode()).hexdigest() == digest
        if mutant == "offsets":
            assert all(line.startswith("segment square") for line in sum(lists, []))


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


# The decomposition check as it ran on labels, kept as the reference for the
# integer route: labels rebuilt from the segments, the segment fibers glued
# as (segment, element) pairs, and gamma compared label by label.


def label_quotient(elements, pairs) -> QuotientSet:
    """Elements numbered in sorted order, glued by the package's union-find."""
    order = sorted(elements)
    index = {e: i for i, e in enumerate(order)}
    quotient_module = importlib.import_module("bmquiver.quotient")
    numbered = [(index[a], index[b]) for a, b in pairs]
    return QuotientSet.decode(order, quotient_module.least_representatives(len(order), numbered))


def label_decomposition(phi):
    """The failures of the label-level decomposition check."""
    failures = []
    segments = segment_decompose(phi)
    rebuilt = []
    for i, segment in enumerate(segments, start=1):
        for local in f_object(segment):
            rebuilt.append(mid() if local.kind is LabelKind.MID else QuiverLabel(0, local.kind, i))
    direct = f_object(phi)
    if sorted(rebuilt) != sorted(direct) or len(set(rebuilt)) != len(rebuilt):
        failures.append(
            f"label sets differ: segments give {[str(l) for l in rebuilt]}, "
            f"direct gives {[str(l) for l in direct]}"
        )
    carrier = [(i, j) for i, seg in enumerate(segments, start=1) for j in range(seg.ell + 1)]
    pairs = [((i, 1), (i + 1, 0)) for i in range(1, phi.top) if phi.values[i] == 0]
    glued = label_quotient(carrier, pairs)
    if len(glued) != phi.ell + 1:
        failures.append(f"glued fiber has {len(glued)} classes, expected {phi.ell + 1}")
    else:
        position_sets = sorted(
            tuple(sorted({i - 1 + j for i, j in block})) for block in glued.blocks
        )
        if position_sets != [(p,) for p in range(phi.ell + 1)]:
            failures.append(f"glued classes {position_sets} do not match fiber positions")
    global_gamma = {label: gamma_index(label, phi.ell) for label in direct}
    for i, segment in enumerate(segments, start=1):
        for local in f_object(segment):
            global_position = i - 1 + gamma_index(local, segment.ell)
            relabeled = mid() if local.kind is LabelKind.MID else QuiverLabel(0, local.kind, i)
            if global_gamma[relabeled] != global_position:
                failures.append(
                    f"segment {i}: {local} maps to position {global_position}, "
                    f"global {relabeled} maps to {global_gamma[relabeled]}"
                )
    return tuple(failures)


def decomposition_routes(max_k: int) -> list[tuple]:
    """(key, failures) of both routes on every object with 1 <= k <= max_k,
    checked to agree."""
    results = []
    for phi in enumerate_objects(max_k):
        if phi.top:
            failures = verify_decomposition(phi).failures
            assert failures == label_decomposition(phi)
            results.append((phi.encode(), failures))
    return results


def test_decomposition_matches_the_label_route():
    results = decomposition_routes(8)
    assert len(results) == sum(k + 2 for k in range(1, 9))
    assert not any(failures for _, failures in results)


def test_decomposition_matches_the_label_route_under_a_union_mutant(monkeypatch):
    """The union-find ignores the last pair: only the fiber gluing can see it."""
    quotient_module = importlib.import_module("bmquiver.quotient")
    least = quotient_module.least_representatives

    def dropping_last(n, pairs):
        return least(n, list(pairs)[:-1])

    for module in (quotient_module, compare):
        monkeypatch.setattr(module, "least_representatives", dropping_last)
    failing = [key for key, failures in decomposition_routes(8) if failures]
    assert [key for key in failing if len(key) <= 3] == ["000", "001"]
    assert all(key.startswith("00") for key in failing)


def test_decomposition_rebuild_and_position_checks_can_fail(monkeypatch):
    """The two checks that the union mutant never reaches each fail on a mutant of their own."""
    least = compare.least_representatives

    def gluing_the_wrong_end(n, pairs):
        # Segment i's fiber element 0, not 1, glued to element 0 of segment i + 1.
        return least(n, [(a - 1, b) for a, b in pairs])

    monkeypatch.setattr(compare, "least_representatives", gluing_the_wrong_end)
    assert verify_decomposition(OBJ("000")).failures == (
        "glued classes [(0, 1), (1,), (2,)] do not match fiber positions",
    )
    monkeypatch.undo()

    labels = quiverf.segment_labels

    def dropping_xm(phi):
        return [(segment, codes if segment.beta == 0 else []) for segment, codes in labels(phi)]

    for module in (compare, quiverf):
        monkeypatch.setattr(module, "segment_labels", dropping_xm)
    assert verify_decomposition(OBJ("001")).failures == (
        "label sets differ: segments give ['v0:x1(1)', 'v0:x2(1)'], "
        "direct gives ['v0:x1(1)', 'v0:x2(1)', 'v0:xm']",
    )


def test_decomposition_comparison_check_can_fail(monkeypatch):
    """With the two labels of each "00" segment swapped, the rebuilt label
    set and the glued fiber stay right, but segment-wise gamma no longer
    agrees with the global one: 6 of the 12 objects with 1 <= k <= 3 fail,
    each with that witness alone.  The gamma mutant cannot reach this check,
    as both of its sides read the mutated _gamma."""
    labels = quiverf.segment_labels

    def swapping(phi):
        return [
            (segment, codes[::-1] if segment.values == (0, 0) else codes)
            for segment, codes in labels(phi)
        ]

    monkeypatch.setattr(compare, "segment_labels", swapping)
    objects = [phi for phi in enumerate_objects(3) if phi.top]
    failing = {phi.encode(): verify_decomposition(phi).failures for phi in objects}
    failing = {key: failures for key, failures in failing.items() if failures}
    assert (len(objects), len(failing)) == (12, 6)
    for failures in failing.values():
        assert all(failure.startswith("segment ") for failure in failures)
    assert failing["00"] == (
        "segment 1: v0:x1(1) maps to position 1, global v0:x2(1) maps to 0",
        "segment 1: v0:x2(1) maps to position 0, global v0:x1(1) maps to 1",
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sweeps.run_suites(SweepConfig(), ["nope"]), "unknown suites ['nope']"),
        (lambda: xi_component(BmChain.parse("0"), -1), "target size must be >= 0"),
        (lambda: DeltaMap(-1, 0, ()), "ordinal tops must be >= 0"),
        (
            lambda: BmEdge(OBJ("00"), OBJ("0"), DeltaMap(0, 2, (0,))),
            "map target [2] does not match source object on [1]",
        ),
    ],
    ids=["run_suites", "xi_component", "DeltaMap", "BmEdge"],
)
def test_library_only_validation(build, message):
    """Validation that the CLI cannot reach raises ValidationError with its message."""
    with pytest.raises(ValidationError) as raised:
        build()
    assert str(raised.value) == message


class TestEdgeIdentification:
    def test_exhaustive_small_range(self):
        for edge in enumerate_all_edges(4, 4):
            assert verify_edge_identification(edge).passed


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
            assert xi_restriction_commutes(BmChain.vertex(phi)).passed
        for edge in enumerate_all_edges(2, 2):
            assert xi_restriction_commutes(BmChain.from_edges([edge])).passed


def test_gamma_rows_equal_gamma_per_code():
    """The row of each (ell, beta) with k <= 8 is _gamma on every label number,
    which is the vertex rule x1(i) -> i, x2(j) -> j - 1, xm -> ell."""
    for phi in enumerate_objects(8):
        ell, beta = phi.ell, phi.beta
        row = compare._gamma_row(ell, beta)
        assert row == tuple(compare._gamma(code, ell) for code in range(label_count(ell, beta)))
        assert row == tuple(gamma_index(label, ell) for label in f_object(phi))
