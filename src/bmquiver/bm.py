"""The bimodule base shape: monotone maps into [1] and their opposite category.

An object is a monotone map phi: [k] -> [1], carrying two invariants: ell,
the top index of the fiber over 0 (ell = -1 for an empty fiber), and beta,
which records whether the values cross from 0 to 1.  A morphism phi -> phi'
of the opposite category is a monotone map [k'] -> [k] over [1], which is a
monotone map of 0-fibers beside one of 1-fibers; a chain is a composable
sequence of such morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateDecompositionError,
    ParseError,
    UnknownNameError,
    ValidationError,
)
from .simplex import DeltaMap, count_monotone, identity, monotone_tuples


@dataclass(frozen=True)
class BmObject:
    """A monotone map [k] -> [1], stored as its value tuple."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValidationError("an object needs at least one value")
        prev = 0
        for v in self.values:
            if v not in (0, 1):
                raise ValidationError(f"value {v} outside {{0, 1}}")
            if v < prev:
                raise ValidationError(f"values {self.values} not monotone")
            prev = v

    @property
    def top(self) -> int:
        """The index k of the source ordinal [k]."""
        return len(self.values) - 1

    @property
    def ell(self) -> int:
        """Top index of the fiber over 0; -1 when the fiber is empty."""
        return self.values.count(0) - 1

    @property
    def beta(self) -> int:
        """1 when the values cross from 0 to 1, else 0."""
        return 1 if (0 in self.values and 1 in self.values) else 0

    def __call__(self, i: int) -> int:
        return self.values[i]

    def encode(self) -> str:
        return "".join(str(v) for v in self.values)

    @classmethod
    def parse(cls, text: str) -> "BmObject":
        """Parse a bit-string such as "0011"."""
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"bad object encoding {text!r}")
        try:
            return cls(tuple(int(c) for c in text))
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.encode()


#: Distinguished objects: the two constant maps on [1] and the identity.
_NAMED = {
    "a": (0, 0),
    "b": (1, 1),
    "m": (0, 1),
    "\U0001d51e": (0, 0),  # 𝔞
    "\U0001d51f": (1, 1),  # 𝔟
    "\U0001d52a": (0, 1),  # 𝔪
}


def named_object(name: str) -> BmObject:
    """The distinguished object a ("00"), b ("11"), or m ("01")."""
    try:
        return BmObject(_NAMED[name])
    except KeyError:
        raise UnknownNameError(f"unknown object name {name!r}") from None


_EDGE_KEYS = frozenset({"phi", "phiPrime", "map"})


@dataclass(frozen=True)
class BmEdge:
    """A morphism phi -> phi' of the opposite category.

    The underlying datum is a monotone map [k'] -> [k] over [1], i.e.
    phi o map = phi'.
    """

    phi: BmObject
    phi_prime: BmObject
    map: DeltaMap

    def __post_init__(self) -> None:
        if self.map.source_top != self.phi_prime.top:
            raise ValidationError(
                f"map source [{self.map.source_top}] does not match "
                f"target object on [{self.phi_prime.top}]"
            )
        if self.map.target_top != self.phi.top:
            raise ValidationError(
                f"map target [{self.map.target_top}] does not match "
                f"source object on [{self.phi.top}]"
            )
        for i, v in enumerate(self.map.images):
            if self.phi.values[v] != self.phi_prime.values[i]:
                raise ValidationError(
                    f"map {self.map.encode()} does not lie over [1] "
                    f"for {self.phi} -> {self.phi_prime}"
                )

    def fiber_map(self) -> tuple[int, ...]:
        """The restriction of the map to fibers over 0, as a value tuple."""
        return self.map.images[: self.phi_prime.ell + 1]

    @property
    def is_identity(self) -> bool:
        return self.phi == self.phi_prime and self.map.is_identity

    def encode(self) -> str:
        return (
            f"phi={self.phi.encode()};phiPrime={self.phi_prime.encode()};"
            f"map={self.map.encode()}"
        )

    @classmethod
    def parse(cls, text: str) -> "BmEdge":
        """Parse an encoding like "phi=0011;phiPrime=01;map=1,3"."""
        fields: dict[str, str] = {}
        for part in text.split(";"):
            key, _, value = part.partition("=")
            if not value:
                raise ParseError(f"bad edge encoding {text!r}")
            fields[key.strip()] = value.strip()
        unknown = set(fields) - _EDGE_KEYS
        if unknown:
            raise ParseError(f"edge encoding has unknown keys {sorted(unknown)}")
        missing = _EDGE_KEYS - set(fields)
        if missing:
            raise ParseError(f"edge encoding missing {sorted(missing)}")
        phi = BmObject.parse(fields["phi"])
        phi_prime = BmObject.parse(fields["phiPrime"])
        delta = DeltaMap.parse(fields["map"], phi.top)
        try:
            return cls(phi, phi_prime, delta)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.encode()


def identity_edge(phi: BmObject) -> BmEdge:
    return BmEdge(phi, phi, identity(phi.top))


@dataclass(frozen=True)
class BmChain:
    """A functor [n] -> BM: a base object plus n composable edges."""

    base: BmObject
    edges: tuple[BmEdge, ...]

    def __post_init__(self) -> None:
        prev = self.base
        for edge in self.edges:
            if edge.phi != prev:
                raise ValidationError(
                    f"edge source {edge.phi} does not match chain at {prev}"
                )
            prev = edge.phi_prime

    @classmethod
    def vertex(cls, phi: BmObject) -> "BmChain":
        return cls(phi, ())

    @classmethod
    def from_edges(cls, edges: list[BmEdge] | tuple[BmEdge, ...]) -> "BmChain":
        if not edges:
            raise ValidationError("from_edges needs at least one edge")
        return cls(edges[0].phi, tuple(edges))

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def objects(self) -> tuple[BmObject, ...]:
        return (self.base,) + tuple(e.phi_prime for e in self.edges)

    def subchain(self, start: int, stop: int) -> "BmChain":
        """The chain restricted to positions start..stop (inclusive)."""
        if not 0 <= start <= stop <= self.length:
            raise ValidationError(f"bad subchain range [{start}, {stop}]")
        return BmChain(self.objects[start], self.edges[start:stop])

    def encode(self) -> str:
        if not self.edges:
            return self.base.encode()
        return "|".join(e.encode() for e in self.edges)

    @classmethod
    def parse(cls, text: str) -> "BmChain":
        """Parse an object bit-string or a "|"-separated list of edge encodings."""
        if "=" not in text:
            return cls.vertex(BmObject.parse(text))
        edges = [BmEdge.parse(part) for part in text.split("|")]
        try:
            return cls.from_edges(edges)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.encode()


def enumerate_objects(k_max: int) -> list[BmObject]:
    """All objects on [k] for 0 <= k <= k_max, lexicographic per k."""
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    out = []
    for k in range(k_max + 1):
        for zeros in range(k + 1, -1, -1):
            out.append(BmObject(tuple([0] * zeros + [1] * (k + 1 - zeros))))
    return out


def _fiber_parts(phi: BmObject, phi_prime: BmObject) -> tuple[tuple, tuple]:
    """The monotone 0-fiber maps [ell'] -> [ell] and the 1-fiber image tuples.

    An edge phi -> phi' sends 0-fiber points to 0-fiber points and 1-fiber
    points to 1-fiber points, monotonically, and is any such pair; its image
    tuple is a 0-part followed by a 1-part.
    """
    ell, ell_prime = phi.ell, phi_prime.ell
    return (
        monotone_tuples(ell_prime + 1, 0, ell + 1),
        monotone_tuples(phi_prime.top - ell_prime, ell + 1, phi.top + 1),
    )


def enumerate_edges(phi: BmObject, phi_prime: BmObject) -> list[BmEdge]:
    """All edges phi -> phi', i.e. all monotone maps over [1], in map order.

    Built as pairs of fiber maps, 0-part outer: every 0-part has the same
    length, so this is lexicographic order of the image tuples.
    """
    kp, k = phi_prime.top, phi.top
    zeros, ones = _fiber_parts(phi, phi_prime)
    return [
        BmEdge(phi, phi_prime, DeltaMap(kp, k, zero + one))
        for zero in zeros
        for one in ones
    ]


def count_edges(phi: BmObject, phi_prime: BmObject) -> int:
    """Number of edges phi -> phi': the 0-fiber map count times the 1-fiber one."""
    ell, ell_prime = phi.ell, phi_prime.ell
    return count_monotone(ell_prime + 1, ell + 1) * count_monotone(
        phi_prime.top - ell_prime, phi.top - ell
    )


def edge_at(phi: BmObject, phi_prime: BmObject, index: int) -> BmEdge:
    """enumerate_edges(phi, phi_prime)[index], built without the other edges."""
    zeros, ones = _fiber_parts(phi, phi_prime)
    if not 0 <= index < len(zeros) * len(ones):
        raise IndexError(f"edge index {index} out of range for {phi} -> {phi_prime}")
    zero, one = divmod(index, len(ones))
    images = zeros[zero] + ones[one]
    return BmEdge(phi, phi_prime, DeltaMap(phi_prime.top, phi.top, images))


def enumerate_all_edges(k_max: int, k_prime_max: int) -> list[BmEdge]:
    """All edges with source on [k <= k_max] and target on [k' <= k_prime_max]."""
    sources = enumerate_objects(k_max)
    targets = enumerate_objects(k_prime_max)
    out = []
    for phi in sources:
        for phi_prime in targets:
            out.extend(enumerate_edges(phi, phi_prime))
    return out


def edge_pool(k_max: int) -> dict[BmObject, list[BmEdge]]:
    """Every edge between objects on [k <= k_max], grouped by source object.

    Keys follow enumerate_objects; each list runs over targets in the same
    order, then over maps.  Sampled sweeps draw from these lists by index,
    so the order is part of their reproducibility.
    """
    objs = enumerate_objects(k_max)
    return {
        phi: [edge for phi_prime in objs for edge in enumerate_edges(phi, phi_prime)]
        for phi in objs
    }


def segment_decompose(phi: BmObject) -> list[BmObject]:
    """The k restrictions of phi to {i-1 < i}, each an object on [1]."""
    if phi.top == 0:
        raise DegenerateDecompositionError(
            "objects on [0] are single vertices and have no segments"
        )
    return [
        BmObject((phi.values[i - 1], phi.values[i])) for i in range(1, phi.top + 1)
    ]
