from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from bmquiver import (
    CompositionError,
    DeltaMap,
    ParseError,
    ValidationError,
    compose,
)
from bmquiver.simplex import count_monotone, monotone_tuples


def identity(n: int) -> DeltaMap:
    """The identity map [n] -> [n]."""
    return DeltaMap(n, n, tuple(range(n + 1)))


@st.composite
def delta_maps(draw, max_top: int = 5):
    k = draw(st.integers(0, max_top))
    k_prime = draw(st.integers(0, max_top))
    images = sorted(
        draw(st.lists(st.integers(0, k), min_size=k_prime + 1, max_size=k_prime + 1))
    )
    return DeltaMap(k_prime, k, tuple(images))


def brute_force_maps(k_prime: int, k: int) -> list[tuple[int, ...]]:
    """Oracle: filter all value tuples for monotonicity."""
    return [
        images
        for images in product(range(k + 1), repeat=k_prime + 1)
        if all(images[i] <= images[i + 1] for i in range(k_prime))
    ]


def test_compose_identity_case():
    f = DeltaMap(1, 3, (0, 2))
    assert compose(identity(3), f).images == (0, 2)


def test_compose_pointwise():
    g = DeltaMap(2, 1, (0, 0, 1))
    f = DeltaMap(1, 2, (1, 2))
    assert compose(g, f).images == (0, 1)


def test_compose_degenerate_constant():
    f = DeltaMap(1, 0, (0, 0))
    g = DeltaMap(0, 0, (0,))
    assert compose(g, f).images == (0, 0)


def test_compose_size_mismatch():
    with pytest.raises(CompositionError):
        compose(DeltaMap(0, 0, (0,)), DeltaMap(0, 1, (1,)))


def test_enumeration_counts_and_order():
    assert monotone_tuples(1, 0, 1) == ((0,),)
    assert monotone_tuples(2, 0, 2) == ((0, 0), (0, 1), (1, 1))
    assert len(monotone_tuples(2, 0, 3)) == 6 == count_monotone(2, 3)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 1), (0, 3), (2, 2), (2, 5)])
def test_monotone_tuples_and_their_count(n, lo, hi):
    expected = [
        t for t in product(range(lo, hi), repeat=n)
        if all(t[i] <= t[i + 1] for i in range(n - 1))
    ]
    assert list(monotone_tuples(n, lo, hi)) == expected
    assert count_monotone(n, hi - lo) == len(expected)


@pytest.mark.parametrize("k_prime", range(4))
@pytest.mark.parametrize("k", range(4))
def test_enumeration_matches_brute_force(k_prime, k):
    """The maps [k'] -> [k], as monotone_tuples builds them for fiber parts."""
    maps = monotone_tuples(k_prime + 1, 0, k + 1)
    assert list(maps) == brute_force_maps(k_prime, k)
    assert len(maps) == count_monotone(k_prime + 1, k + 1)
    assert len(set(maps)) == len(maps)


def test_compose_associative_and_unital_exhaustively():
    tops = range(4)
    pool = {
        (a, b): [DeltaMap(a, b, images) for images in brute_force_maps(a, b)]
        for a in tops
        for b in tops
    }
    for a, b in product(tops, repeat=2):
        for f in pool[(a, b)]:
            assert compose(identity(b), f) == f
            assert compose(f, identity(a)) == f
    for a, b, c, d in product(tops, repeat=4):
        for f in pool[(a, b)]:
            for g in pool[(b, c)]:
                gf = compose(g, f)
                for h in pool[(c, d)]:
                    assert compose(h, gf) == compose(compose(h, g), f)


@given(delta_maps(), st.data())
def test_compose_is_pointwise_and_monotone(f, data):
    g = data.draw(delta_maps(max_top=4))
    if g.source_top != f.target_top:
        with pytest.raises(CompositionError):
            compose(g, f)
        return
    h = compose(g, f)
    assert h.images == tuple(g.images[v] for v in f.images)
    assert list(h.images) == sorted(h.images)


def test_validation_rejects_bad_maps():
    with pytest.raises(ValidationError):
        DeltaMap(1, 1, (1, 0))
    with pytest.raises(ValidationError):
        DeltaMap(1, 1, (0, 2))
    with pytest.raises(ValidationError):
        DeltaMap(2, 1, (0, 1))


def test_encoding_round_trip():
    m = DeltaMap(2, 3, (0, 2, 2))
    assert m.encode() == "0,2,2"
    assert str(m) == "(0,2,2):[2]->[3]"
    assert DeltaMap.parse("0,2,2", 3) == m
    assert DeltaMap.parse(" 0 ,2, 2", 3) == m
    with pytest.raises(ParseError):
        DeltaMap.parse("0,x", 3)
    with pytest.raises(ParseError):
        DeltaMap.parse("2,1", 3)


@pytest.mark.parametrize("text", ["0_0", "+0", "-1", "\u0660", "\u00b2", "0,", ""])
def test_map_parse_takes_only_ascii_digits(text):
    """Images are ASCII digits: int() alone would take "0_0", "+0" and an
    Arabic-Indic zero."""
    with pytest.raises(ParseError, match="bad map encoding"):
        DeltaMap.parse(text, 3)
