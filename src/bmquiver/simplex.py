"""Monotone maps between finite ordinals [n] = {0, ..., n}.

A map is stored as the tuple of its values; composition and exhaustive
enumeration are the only operations the rest of the package needs.  All
enumeration goes through monotone_tuples, and all counting through
count_monotone, which share one convention for empty fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import comb

from .errors import CompositionError, ParseError, ValidationError


@dataclass(frozen=True)
class DeltaMap:
    """A monotone map [k'] -> [k], with images[i] the value at i."""

    source_top: int
    target_top: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source_top < 0 or self.target_top < 0:
            raise ValidationError("ordinal tops must be >= 0")
        if len(self.images) != self.source_top + 1:
            raise ValidationError(
                f"expected {self.source_top + 1} images, got {len(self.images)}"
            )
        prev = 0
        for v in self.images:
            if not 0 <= v <= self.target_top:
                raise ValidationError(f"image {v} outside [0, {self.target_top}]")
            if v < prev:
                raise ValidationError(f"images {self.images} not monotone")
            prev = v

    def encode(self) -> str:
        return ",".join(str(v) for v in self.images)

    @classmethod
    def parse(cls, text: str, target_top: int) -> "DeltaMap":
        """Parse a comma-separated image list, e.g. "0,2,2" for a map into [target_top].

        Each image is ASCII digits, with surrounding whitespace allowed.
        """
        parts = [part.strip() for part in text.split(",")]
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ParseError(f"bad map encoding {text!r}")
        images = tuple(int(part) for part in parts)
        try:
            return cls(len(images) - 1, target_top, images)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc

    def __str__(self) -> str:
        return f"({self.encode()}):[{self.source_top}]->[{self.target_top}]"


def compose(g: DeltaMap, f: DeltaMap) -> DeltaMap:
    """The composite g after f; f must land in g's source ordinal."""
    if f.target_top != g.source_top:
        raise CompositionError(
            f"cannot compose [{f.source_top}]->[{f.target_top}] with "
            f"[{g.source_top}]->[{g.target_top}]"
        )
    return DeltaMap(
        f.source_top, g.target_top, tuple(g.images[v] for v in f.images)
    )


@cache
def monotone_tuples(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Monotone maps from n points into {lo, ..., hi - 1}, as value tuples.

    In lexicographic order.  No points give the one empty map; points into
    no values give none.  Cached without bound, as edge enumeration asks for
    the same few fiber parts over and over; the result is immutable.
    """
    return tuple(combinations_with_replacement(range(lo, hi), n))


def count_monotone(n: int, m: int) -> int:
    """Number of monotone maps from n points into m points.

    C(n + m - 1, n), with the convention of monotone_tuples for empty fibers.
    """
    return comb(n + m - 1, n) if m else int(n == 0)

