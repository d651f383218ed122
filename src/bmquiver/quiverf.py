"""The quiver functor on labeled finite sets.

An object phi with invariants (ell, beta) is assigned the labeled set

    { x1(1), x2(1), ..., x1(ell), x2(ell) }            (beta = 0)
    { x1(1), x2(1), ..., x1(ell), x2(ell), xm }        (beta = 1)

of max(0, 2*ell + beta) elements.  An edge phi -> phi' is assigned the
pushout of the two labeled sets along a list of label pairs generated by
the edge's underlying map; chains glue these pushouts over shared vertices.

Two labels fall outside the nominal ranges and are resolved before use:
x1(0) stands for x2(1), and x2(ell + 1) stands for xm (which needs
beta = 1).  The two rules chain: x1(0) -> x2(1) -> xm when ell = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import total_ordering

from .bm import BmChain, BmEdge, BmObject, segment_decompose
from .errors import (
    LabelRangeError,
    PairingConstructionError,
    UnresolvableLabelError,
)
from .quotient import QuotientSet, quotient


class LabelKind(enum.Enum):
    ONE = "x1"
    TWO = "x2"
    MID = "xm"


@total_ordering
@dataclass(frozen=True)
class QuiverLabel:
    """A named generator at a chain position.

    ONE and TWO carry an index in {1, ..., ell}; MID is the single crossing
    generator and carries no index.  The total order per vertex is
    x1(1) < x2(1) < x1(2) < x2(2) < ... < xm, which fixes the canonical
    representative of every quotient block.
    """

    vertex: int
    kind: LabelKind
    index: int | None = None

    def _key(self) -> tuple[int, int, int, int]:
        if self.kind is LabelKind.MID:
            return (self.vertex, 1, 0, 0)
        return (self.vertex, 0, self.index or 0, 0 if self.kind is LabelKind.ONE else 1)

    def __lt__(self, other: "QuiverLabel") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.kind is LabelKind.MID:
            return f"v{self.vertex}:xm"
        return f"v{self.vertex}:{self.kind.value}({self.index})"


def one(index: int, vertex: int = 0) -> QuiverLabel:
    return QuiverLabel(vertex, LabelKind.ONE, index)


def two(index: int, vertex: int = 0) -> QuiverLabel:
    return QuiverLabel(vertex, LabelKind.TWO, index)


def mid(vertex: int = 0) -> QuiverLabel:
    return QuiverLabel(vertex, LabelKind.MID)


def f_object(phi: BmObject, vertex: int = 0) -> tuple[QuiverLabel, ...]:
    """The labeled set assigned to an object: max(0, 2*ell + beta) elements."""
    labels: list[QuiverLabel] = []
    for i in range(1, phi.ell + 1):
        labels.append(one(i, vertex))
        labels.append(two(i, vertex))
    if phi.beta == 1:
        labels.append(mid(vertex))
    return tuple(labels)


def resolve_label(
    phi: BmObject, kind: LabelKind, index: int | None = None, vertex: int = 0
) -> QuiverLabel:
    """Resolve a raw (kind, index) to an actual element of f_object(phi).

    x1(0) resolves to the resolution of x2(1); x2(ell + 1) resolves to xm,
    which requires beta = 1.  In-range labels resolve to themselves.
    """
    ell, beta = phi.ell, phi.beta
    if kind is LabelKind.MID:
        if beta != 1:
            raise UnresolvableLabelError(
                f"object {phi} has no crossing generator (beta = 0)"
            )
        return mid(vertex)
    if index is None:
        raise LabelRangeError(f"{kind.value} label needs an index")
    if not 0 <= index <= ell + 1:
        raise LabelRangeError(
            f"index {index} outside {{0, ..., {ell + 1}}} for object {phi}"
        )
    if kind is LabelKind.ONE and index == 0:
        return resolve_label(phi, LabelKind.TWO, 1, vertex)
    if kind is LabelKind.TWO and index == ell + 1:
        return resolve_label(phi, LabelKind.MID, None, vertex)
    if not 1 <= index <= ell:
        # x2(0) and x1(ell + 1) are produced by no pairing rule.
        raise UnresolvableLabelError(
            f"no resolution for {kind.value}({index}) on object {phi}"
        )
    return QuiverLabel(vertex, kind, index)


@dataclass(frozen=True)
class PairingList:
    """The list of label pairs glued by an edge, with one note per pair.

    Each note spells out the chain of component identities that makes the
    pair collapse, e.g. "x2(2) = x1(1) = y1(1) = y2(2)".
    """

    pairs: tuple[tuple[QuiverLabel, QuiverLabel], ...]
    notes: tuple[str, ...]

    @property
    def raw_count(self) -> int:
        return len(self.pairs)

    def self_pairs(self) -> tuple[tuple[QuiverLabel, QuiverLabel], ...]:
        return tuple(p for p in self.pairs if p[0] == p[1])

    def effective_pairs(self) -> tuple[tuple[QuiverLabel, QuiverLabel], ...]:
        """Distinct unordered pairs with the self-pairs removed."""
        seen = set()
        out = []
        for a, b in self.pairs:
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            out.append((a, b))
        return tuple(out)

    @property
    def effective_count(self) -> int:
        return len(self.effective_pairs())


def pairing_set(edge: BmEdge, at: int = 0) -> PairingList:
    """The pairing list of an edge, with the source object at chain position `at`.

    For each 1 <= i <= ell' the rules contribute, writing p for the edge's
    underlying map:

      p(i-1) = p(i):  the pair (y1(i), y2(i));
      p(i-1) < p(i):  (y1(i), x1(p(i))), (x2(p(i-1)+1), y2(i)), and
                      (x2(j), x1(j-1)) for p(i-1)+2 <= j <= p(i).

    When beta' = 1 (forcing beta = 1) three more rules fire:
    (xm, x1(ell)), (x2(p(ell')+1), ym), and (x2(j), x1(j-1)) for
    p(ell')+2 <= j <= ell.  All labels pass through resolve_label.

    The degenerate case ell' = -1 yields the empty list: the formula for the
    pair count is undefined there and emptiness is the convention under
    which the edge value is just the source value.
    """
    phi, phi_prime = edge.phi, edge.phi_prime
    ell_prime = phi_prime.ell
    if ell_prime == -1:
        return PairingList((), ())
    ell = phi.ell
    p = edge.map.images

    def x(kind: LabelKind, index: int | None = None) -> QuiverLabel:
        return resolve_label(phi, kind, index, vertex=at)

    def y(kind: LabelKind, index: int | None = None) -> QuiverLabel:
        return resolve_label(phi_prime, kind, index, vertex=at + 1)

    pairs: list[tuple[QuiverLabel, QuiverLabel]] = []
    notes: list[str] = []
    try:
        for i in range(1, ell_prime + 1):
            if p[i - 1] == p[i]:
                pairs.append((y(LabelKind.ONE, i), y(LabelKind.TWO, i)))
                notes.append(
                    f"y1({i}) = x1({p[i]}) = x1({p[i - 1]}) = y1({i - 1}) = y2({i})"
                )
            else:
                pairs.append((y(LabelKind.ONE, i), x(LabelKind.ONE, p[i])))
                notes.append(f"y1({i}) = x1({p[i]})")
                pairs.append((x(LabelKind.TWO, p[i - 1] + 1), y(LabelKind.TWO, i)))
                notes.append(
                    f"x2({p[i - 1] + 1}) = x1({p[i - 1]}) = y1({i - 1}) = y2({i})"
                )
                for j in range(p[i - 1] + 2, p[i] + 1):
                    pairs.append((x(LabelKind.TWO, j), x(LabelKind.ONE, j - 1)))
                    notes.append(f"x2({j}) = x1({j - 1})")
        if phi_prime.beta == 1:
            pairs.append((x(LabelKind.MID), x(LabelKind.ONE, ell)))
            notes.append(f"xm = x1({ell})")
            pairs.append((x(LabelKind.TWO, p[ell_prime] + 1), y(LabelKind.MID)))
            notes.append(
                f"x2({p[ell_prime] + 1}) = x1({p[ell_prime]}) = y1({ell_prime}) = ym"
            )
            for j in range(p[ell_prime] + 2, ell + 1):
                pairs.append((x(LabelKind.TWO, j), x(LabelKind.ONE, j - 1)))
                notes.append(f"x2({j}) = x1({j - 1})")
    except (UnresolvableLabelError, LabelRangeError) as exc:
        raise PairingConstructionError(
            f"pairing rules produced an invalid label on edge {edge.encode()}: {exc}"
        ) from exc
    return PairingList(tuple(pairs), tuple(notes))


def f_chain(chain: BmChain) -> QuotientSet:
    """The iterated pushout over a chain: all vertex labels modulo all edge pairings."""
    elements: list[QuiverLabel] = []
    for t, obj in enumerate(chain.objects):
        elements.extend(f_object(obj, vertex=t))
    pairs: list[tuple[QuiverLabel, QuiverLabel]] = []
    for t, edge in enumerate(chain.edges):
        pairs.extend(pairing_set(edge, at=t).pairs)
    return quotient(tuple(elements), pairs)


def f_object_via_segments(phi: BmObject) -> tuple[QuiverLabel, ...]:
    """The label set rebuilt from the segment decomposition of phi.

    Segment i of kind "00" contributes x1(i), x2(i) in the global index
    scheme; a "01" segment contributes xm; "11" segments are empty.  The
    result must be a bijective relabeling of f_object(phi).
    """
    labels: list[QuiverLabel] = []
    for i, segment in enumerate(segment_decompose(phi), start=1):
        for local in f_object(segment):
            if local.kind is LabelKind.MID:
                labels.append(mid())
            else:
                labels.append(QuiverLabel(0, local.kind, i))
    return tuple(labels)


@dataclass(frozen=True)
class JCardinalityAudit:
    """Pair-count bookkeeping for one edge.

    formula_count is ell' + p(ell' + beta') - p(0); it is None in the
    degenerate case ell' = -1 where p(-1) is undefined and the pairing list
    is empty by convention.  mid_image_tight records, for beta' = 1, whether
    p(ell' + 1) = ell + 1.
    """

    edge: BmEdge
    raw_count: int
    self_pair_count: int
    effective_count: int
    formula_count: int | None
    degenerate: bool
    mid_image_tight: bool | None

    @property
    def raw_matches(self) -> bool | None:
        if self.formula_count is None:
            return None
        return self.raw_count == self.formula_count

    @property
    def effective_matches(self) -> bool | None:
        if self.formula_count is None:
            return None
        return self.effective_count == self.formula_count

    def to_dict(self) -> dict:
        return {
            "key": self.edge.encode(),
            "betaPrime": self.edge.phi_prime.beta,
            "rawCount": self.raw_count,
            "selfPairCount": self.self_pair_count,
            "effectiveCount": self.effective_count,
            "formulaCount": self.formula_count,
            "rawMatches": self.raw_matches,
            "effectiveMatches": self.effective_matches,
            "degenerate": self.degenerate,
            "midImageTight": self.mid_image_tight,
        }


def j_cardinality_audit(edge: BmEdge) -> JCardinalityAudit:
    """Compare the enumerated pair count of an edge against the closed formula."""
    pairing = pairing_set(edge)
    ell_prime, beta_prime = edge.phi_prime.ell, edge.phi_prime.beta
    if ell_prime == -1:
        return JCardinalityAudit(edge, 0, 0, 0, None, True, None)
    p = edge.map.images
    formula = ell_prime + p[ell_prime + beta_prime] - p[0]
    tight = None
    if beta_prime == 1:
        tight = p[ell_prime + 1] == edge.phi.ell + 1
    return JCardinalityAudit(
        edge,
        pairing.raw_count,
        len(pairing.self_pairs()),
        pairing.effective_count,
        formula,
        False,
        tight,
    )
