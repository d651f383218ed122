from __future__ import annotations

from hypothesis import given, strategies as st

from bmquiver import QuotientSet
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


def union_find_blocks(elements, pairs) -> tuple[tuple, ...]:
    """Oracle: the blocks of orderable elements under the pairs, by UnionFind.

    Each block is sorted and the blocks come in order of their least member,
    as in a QuotientSet.
    """
    order = sorted(elements)
    index = {e: i for i, e in enumerate(order)}
    uf = UnionFind(len(order))
    for a, b in pairs:
        uf.union(index[a], index[b])
    blocks: dict[int, list] = {}
    for i, element in enumerate(order):
        blocks.setdefault(uf.find(i), []).append(element)
    return tuple(tuple(block) for block in blocks.values())


def test_basic_quotient():
    q = QuotientSet.decode(range(5), least_representatives(5, [(0, 3), (3, 4)]))
    assert q.blocks == ((0, 3, 4), (1,), (2,))
    assert q.representatives == (0, 1, 2)
    assert len(q) == 3


@given(
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
)
def test_quotient_matches_closure_oracle(n, raw_pairs):
    pairs = [(a % n, b % n) for a, b in raw_pairs]
    q = QuotientSet.decode(range(n), least_representatives(n, pairs))
    expected = sorted(tuple(sorted(block)) for block in closure_oracle(n, pairs))
    assert list(q.blocks) == expected
    assert union_find_blocks(range(n), pairs) == q.blocks


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
