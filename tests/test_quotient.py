from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bmquiver import ValidationError, discrete, quotient
from bmquiver.quotient import least_representatives


class UnionFind:
    """Oracle: union-find over range(n) with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def closure_oracle(n: int, pairs: list[tuple[int, int]]) -> list[set[int]]:
    """Oracle: grow blocks by fixpoint iteration instead of union-find."""
    blocks = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            block_a = next(blk for blk in blocks if a in blk)
            block_b = next(blk for blk in blocks if b in blk)
            if block_a is not block_b:
                block_a |= block_b
                blocks.remove(block_b)
                changed = True
    return blocks


def test_basic_quotient():
    q = quotient(range(5), [(0, 3), (3, 4)])
    assert q.blocks == ((0, 3, 4), (1,), (2,))
    assert q.find(4) == 0 and q.find(1) == 1
    assert q.same_block(0, 4) and not q.same_block(0, 2)
    assert q.representatives == (0, 1, 2)
    assert len(q) == 3
    assert q.block_of(3) == (0, 3, 4)


def test_find_is_idempotent():
    q = quotient("abcd", [("a", "c")])
    for element in "abcd":
        assert q.find(q.find(element)) == q.find(element)


def test_discrete():
    q = discrete((2, 0, 1))
    assert q.blocks == ((0,), (1,), (2,))


def test_duplicates_and_unknown_pairs_rejected():
    with pytest.raises(ValidationError):
        quotient([1, 1], [])
    with pytest.raises(ValidationError):
        quotient([1, 2], [(1, 3)])


@given(
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
)
def test_quotient_matches_closure_oracle(n, raw_pairs):
    pairs = [(a % n, b % n) for a, b in raw_pairs]
    q = quotient(range(n), pairs)
    expected = sorted(tuple(sorted(block)) for block in closure_oracle(n, pairs))
    assert list(q.blocks) == expected


def test_union_find_direct():
    uf = UnionFind(6)
    uf.union(0, 5)
    uf.union(5, 2)
    assert uf.find(2) == uf.find(0)
    assert uf.find(1) != uf.find(0)


@given(
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
def test_least_representatives_matches_union_find_oracle(n, raw_pairs):
    pairs = [(a % n, b % n) for a, b in raw_pairs] if n else []
    uf = UnionFind(n)
    for a, b in pairs:
        uf.union(a, b)
    least: dict[int, int] = {}
    expected = [least.setdefault(uf.find(i), i) for i in range(n)]
    assert least_representatives(n, pairs) == expected
