"""Finite set quotients computed by union-find.

A QuotientSet carries a fixed element tuple, a partition into blocks, and a
canonical representative per block (the least element in the element order).
It is the carrier used both for pushouts of labeled sets and for connected
components of pullback graphs.  Both are computed on integers: elements are
numbered in their order and QuotientSet.decode names the result.
least_representatives is the one integer union-find, for the pushouts F,
the edgewise gluing of G and quotient(); it links the larger root under the
smaller, so every root is the least member of its class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class QuotientSet:
    """A partition of a finite set with least-element representatives.

    blocks are sorted internally and ordered by representative, so equal
    partitions compare equal.
    """

    elements: tuple
    blocks: tuple[tuple, ...]
    _find: dict = field(repr=False, compare=False)

    def find(self, element) -> object:
        """Canonical representative of the block containing element."""
        return self._find[element]

    def block_of(self, element) -> tuple:
        rep = self._find[element]
        for block in self.blocks:
            if block[0] == rep:
                return block
        raise KeyError(element)

    @property
    def representatives(self) -> tuple:
        return tuple(block[0] for block in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, element) -> bool:
        return element in self._find

    def same_block(self, a, b) -> bool:
        return self._find[a] == self._find[b]

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
        blocks = tuple(tuple(group) for group in groups.values())
        find = {element: elements[rep] for element, rep in zip(elements, reps)}
        return cls(tuple(elements), blocks, find)


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


def quotient(elements: Sequence[T], pairs: Iterable[tuple[T, T]]) -> QuotientSet:
    """Quotient of elements by the equivalence generated by pairs.

    Elements must be distinct and mutually orderable; every pair must name
    two elements of the carrier.
    """
    elements = tuple(elements)
    order = sorted(elements)
    index = {e: i for i, e in enumerate(order)}
    if len(index) != len(order):
        raise ValidationError("quotient carrier contains duplicates")
    try:
        numbered = [(index[a], index[b]) for a, b in pairs]
    except KeyError as exc:
        raise ValidationError(f"pair component {exc.args[0]!r} not in carrier") from exc
    classes = QuotientSet.decode(order, least_representatives(len(order), numbered))
    return QuotientSet(elements, classes.blocks, classes._find)


def discrete(elements: Sequence[T]) -> QuotientSet:
    """The discrete partition (every element its own block)."""
    return quotient(elements, ())
