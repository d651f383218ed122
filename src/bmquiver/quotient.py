"""Finite set quotients computed by union-find.

A QuotientSet carries a fixed element tuple, a partition into blocks, and a
canonical representative per block (the least element in the element order).
It is the carrier used both for pushouts of labeled sets and for connected
components of pullback graphs.  Both are computed on integers: elements are
numbered in their order and QuotientSet.decode names the result.
least_representatives is the one integer union-find, for the pushouts F,
the edgewise gluing of G and the segment gluing of the decomposition check;
it links the larger root under the smaller, so every root is the least
member of its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class QuotientSet:
    """A partition of a finite set with least-element representatives.

    blocks are sorted internally and ordered by representative, so equal
    partitions compare equal.
    """

    elements: tuple
    blocks: tuple[tuple, ...]

    @property
    def representatives(self) -> tuple:
        return tuple(block[0] for block in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def decode(cls, elements: Sequence, reps: Sequence[int]) -> "QuotientSet":
        """The partition of ordered elements with element i in the block of element reps[i].

        reps[i] must be the least index in the block of i, as
        least_representatives returns it.
        """
        groups: dict[int, list] = {}
        for element, rep in zip(elements, reps):
            groups.setdefault(rep, []).append(element)
        # Each block opens at its least index, so the blocks come in order.
        return cls(tuple(elements), tuple(tuple(group) for group in groups.values()))


def least_representatives(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """For each i in range(n), the least member of its class under the pairs.

    Union-find with path halving in which a union links the larger root
    under the smaller, so every parent is at most its child and every root
    is the least member of its class; one ascending pass then sends each
    member to its root.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent
