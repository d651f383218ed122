"""The bimodule base shape: monotone maps into [1] and their opposite category.

An object is a monotone map phi: [k] -> [1], carrying two invariants: ell,
the top index of the fiber over 0 (ell = -1 for an empty fiber), and beta,
which records whether the values cross from 0 to 1.  A morphism phi -> phi'
of the opposite category is a monotone map [k'] -> [k] over [1], which is a
monotone map of 0-fibers beside one of 1-fibers; a chain is a composable
sequence of such morphisms.

Enumerated and drawn edges come from one package-internal builder,
_edge_of_parts, which takes a 0-part and a 1-part of fiber_parts and skips
the checks those parts already guarantee.  Every other edge or map, outside
input included, is built through BmEdge(...) and DeltaMap(...), which check it.
Objects and edges are counted here too, in closed form, and a drawn edge is
unranked from its counts (edge_parts), so no count or draw lists a fiber map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import (
    DegenerateDecompositionError,
    ParseError,
    ValidationError,
)
from .simplex import DeltaMap, _monotone_at, count_monotone, monotone_tuples


@dataclass(frozen=True)
class BmObject:
    """A monotone map [k] -> [1], stored as its value tuple.

    top, ell and beta are derived from the values once, when the object is
    built, and take no part in comparison or hashing.
    """

    values: tuple[int, ...]
    #: The index k of the source ordinal [k].
    top: int = field(init=False, repr=False, compare=False)
    #: Top index of the fiber over 0; -1 when the fiber is empty.
    ell: int = field(init=False, repr=False, compare=False)
    #: 1 when the values cross from 0 to 1, else 0.
    beta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = self.values
        if not values:
            raise ValidationError("an object needs at least one value")
        n, zeros = len(values), values.count(0)
        # A monotone map into [1] is its zeros, then ones: one whole-tuple
        # comparison checks it, and the loop runs only to word the error.
        if values != (0,) * zeros + (1,) * (n - zeros):
            prev = 0
            for v in values:
                if v not in (0, 1):
                    raise ValidationError(f"value {v} outside {{0, 1}}")
                if v < prev:
                    raise ValidationError(f"values {values} not monotone")
                prev = v
        # Derived here once: caching them on first read would materialize the
        # instance __dict__ and slow every later attribute read of the object.
        object.__setattr__(self, "top", n - 1)
        object.__setattr__(self, "ell", zeros - 1)
        object.__setattr__(self, "beta", int(0 < zeros < n))

    def encode(self) -> str:
        return "".join(map(str, self.values))

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
        # Both objects and the map are monotone: only the last 0 and first 1 of phi' can fail.
        ell, last, images = self.phi.ell, self.phi_prime.ell, self.map.images
        if (last >= 0 and images[last] > ell) or (
            last < self.phi_prime.top and images[last + 1] <= ell
        ):
            raise ValidationError(
                f"map {self.map.encode()} does not lie over [1] "
                f"for {self.phi} -> {self.phi_prime}"
            )

    def fiber_map(self) -> tuple[int, ...]:
        """The restriction of the map to fibers over 0, as a value tuple."""
        return self.map.images[: self.phi_prime.ell + 1]

    def encode(self) -> str:
        return encode_edge(self.phi, self.phi_prime, self.map.images)

    @classmethod
    def parse(cls, text: str) -> "BmEdge":
        """Parse an encoding like "phi=0011;phiPrime=01;map=1,3", each key given once."""
        fields: dict[str, str] = {}
        for part in text.split(";"):
            key, _, value = part.partition("=")
            key = key.strip()
            if not value:
                raise ParseError(f"bad edge encoding {text!r}")
            if key in fields:
                raise ParseError(f"edge encoding repeats key {key!r}")
            fields[key] = value.strip()
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


def encode_edge(phi: BmObject, phi_prime: BmObject, images: tuple[int, ...]) -> str:
    """The encoding of the edge phi -> phi' whose map has these images, built or not."""
    return (
        f"phi={phi.encode()};phiPrime={phi_prime.encode()};"
        f"map={','.join(map(str, images))}"
    )


@dataclass(frozen=True)
class BmChain:
    """A functor [n] -> BM: a base object plus n composable edges."""

    base: BmObject
    edges: tuple[BmEdge, ...]
    #: The object at each position, base first; built with the chain.
    objects: tuple[BmObject, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        objects = [self.base]
        for edge in self.edges:
            if edge.phi != objects[-1]:
                raise ValidationError(
                    f"edge source {edge.phi} does not match chain at {objects[-1]}"
                )
            objects.append(edge.phi_prime)
        object.__setattr__(self, "objects", tuple(objects))

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
            out.append(BmObject((0,) * zeros + (1,) * (k + 1 - zeros)))
    return out


def count_objects(max_k: int) -> int:
    """The objects on [k <= max_k], k + 2 on each [k], none built."""
    return max(max_k + 1, 0) * (max_k + 4) // 2


def count_ordinal_edges(k: int, k_prime: int) -> int:
    """The edges from one object on [k] into all on [k']: the maps [k'] -> [k], C(k + k' + 1, k)."""
    return comb(k + k_prime + 1, k)


def count_leaving_edges(k: int, max_k_prime: int) -> int:
    """The edges from one object on [k] into all on [k' <= K' = max_k_prime]: the sum of
    count_ordinal_edges over k', C(K' + k + 2, k + 1) - 1 by the hockey stick."""
    return comb(max_k_prime + k + 2, k + 1) - 1


def fiber_parts(phi: BmObject, phi_prime: BmObject) -> tuple[tuple, tuple]:
    """The monotone 0-fiber maps [ell'] -> [ell] and the 1-fiber image tuples, in order.

    An edge phi -> phi' sends 0-fiber points to 0-fiber points and 1-fiber
    points to 1-fiber points, monotonically, and is any such pair; its image
    tuple is a 0-part followed by a 1-part.
    """
    ell, ell_prime = phi.ell, phi_prime.ell
    return (
        monotone_tuples(ell_prime + 1, 0, ell + 1),
        monotone_tuples(phi_prime.top - ell_prime, ell + 1, phi.top + 1),
    )


#: How a frozen dataclass is made and its fields set, bound once for _edge_of_parts.
_new, _set = object.__new__, object.__setattr__


def _edge_of_parts(phi: BmObject, phi_prime: BmObject, zero: tuple, one: tuple) -> BmEdge:
    """The edge phi -> phi' whose images are zero + one, an entry of each
    tuple of fiber_parts(phi, phi_prime), built unchecked.

    Such parts are monotone into [0, ell] and [ell + 1, top] and as long as
    the fibers of phi', so their concatenation is a monotone map [k'] -> [k]
    over [1], and the checks of DeltaMap and BmEdge would find nothing.  The
    frozen fields are set as the generated __init__ sets them; input from
    anywhere else goes through BmEdge(...) and DeltaMap(...), which check it.
    """
    delta = _new(DeltaMap)
    _set(delta, "source_top", phi_prime.top)
    _set(delta, "target_top", phi.top)
    _set(delta, "images", zero + one)
    edge = _new(BmEdge)
    _set(edge, "phi", phi)
    _set(edge, "phi_prime", phi_prime)
    _set(edge, "map", delta)
    return edge


def enumerate_edges(phi: BmObject, phi_prime: BmObject) -> list[BmEdge]:
    """All edges phi -> phi', i.e. all monotone maps over [1], in map order.

    Built as pairs of fiber maps, 0-part outer: every 0-part has the same
    length, so this is lexicographic order of the image tuples.
    """
    zeros, ones = fiber_parts(phi, phi_prime)
    return [_edge_of_parts(phi, phi_prime, zero, one) for zero in zeros for one in ones]


def count_edges(phi: BmObject, phi_prime: BmObject) -> int:
    """Number of edges phi -> phi': the 0-fiber map count times the 1-fiber one."""
    ell, ell_prime = phi.ell, phi_prime.ell
    return count_monotone(ell_prime + 1, ell + 1) * count_monotone(
        phi_prime.top - ell_prime, phi.top - ell
    )


def edge_parts(phi: BmObject, phi_prime: BmObject, index: int) -> tuple[tuple, tuple]:
    """The fiber_parts entries whose images make enumerate_edges(phi, phi_prime)[index],
    unranked from their counts: no fiber map is listed."""
    ell, ell_prime, o_prime = phi.ell, phi_prime.ell, phi_prime.top - phi_prime.ell
    ones = count_monotone(o_prime, phi.top - ell)
    if not 0 <= index < count_monotone(ell_prime + 1, ell + 1) * ones:
        raise IndexError(f"edge index {index} out of range for {phi} -> {phi_prime}")
    zero, one = divmod(index, ones)
    return (
        _monotone_at(ell_prime + 1, 0, ell + 1, zero),
        _monotone_at(o_prime, ell + 1, phi.top + 1, one),
    )


def edge_at(phi: BmObject, phi_prime: BmObject, index: int) -> BmEdge:
    """enumerate_edges(phi, phi_prime)[index], built without the other edges."""
    return _edge_of_parts(phi, phi_prime, *edge_parts(phi, phi_prime, index))


def segment_decompose(phi: BmObject) -> list[BmObject]:
    """The k restrictions of phi to {i-1 < i}, each an object on [1]."""
    if phi.top == 0:
        raise DegenerateDecompositionError(
            "objects on [0] are single vertices and have no segments"
        )
    return [
        BmObject((phi.values[i - 1], phi.values[i])) for i in range(1, phi.top + 1)
    ]
