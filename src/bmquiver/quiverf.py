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

The labels of a vertex are totally ordered, so the computations number
them: on a chain, position t numbers x1(i) as off_t + 2(i-1), x2(i) as
off_t + 2(i-1) + 1 and xm as off_t + 2*ell_t, where off_t counts the
labels of the earlier positions.  Integer order is label order.  The
pairing rules emit pairs of these numbers; F on a chain, computed in
compare, is union-find over range(n), and the least number in a class is
its canonical representative.  QuiverLabel values are built only to decode
a result (compare.f_chain, pairing_set) or to render a witness.

The pairing rules are one integer core on the two objects' values and the
map's images (_rule_pairs), one loop over windows of the map: edge_pairs
applies it to an edge and names the edge in the error of a label it cannot
build, and compare's kernel applies it to each edge of a chain, on values
alone.  Notes, the identity trail of each pair, come only from edge_pairs,
for constancy's failure witness and `bmquiver eval pairs` (pairing_set);
the kernel and the audit ask for none.  The rules read each object's
resolutions from tables kept for the whole process: each (kind, index) a
rule requests of an object goes to _resolve once, and its number is kept.
A request that _resolve cannot answer is not kept, so it goes to _resolve,
and raises its error, each time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache, total_ordering
from typing import NamedTuple, Sequence

from .bm import BmEdge, BmObject, segment_decompose
from .errors import (
    LabelRangeError,
    PairingConstructionError,
    UnresolvableLabelError,
)


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


def mid(vertex: int = 0) -> QuiverLabel:
    return QuiverLabel(vertex, LabelKind.MID)


def _label(code: int, ell: int, vertex: int) -> QuiverLabel:
    """The label numbered code at a vertex whose 0-fiber tops out at ell."""
    if code == 2 * ell:
        return mid(vertex)
    return QuiverLabel(vertex, LabelKind.TWO if code % 2 else LabelKind.ONE, code // 2 + 1)


def label_count(ell: int, beta: int) -> int:
    """The number of labels of an object with invariants (ell, beta)."""
    return max(0, 2 * ell + beta)


def f_object(phi: BmObject, vertex: int = 0) -> tuple[QuiverLabel, ...]:
    """The labeled set assigned to an object: max(0, 2*ell + beta) elements, in order."""
    ell = phi.ell
    return tuple(_label(code, ell, vertex) for code in range(label_count(ell, phi.beta)))


def chain_labels(objects: Sequence[BmObject]) -> tuple[QuiverLabel, ...]:
    """The labels of every position of the chain on these objects; label number L is the L-th."""
    return tuple(label for t, obj in enumerate(objects) for label in f_object(obj, vertex=t))


def label_offsets(objects: Sequence[BmObject]) -> list[int]:
    """The number of the first label of each position, then the number of labels."""
    offsets = [0]
    for obj in objects:
        offsets.append(offsets[-1] + _shape(obj.values).count)
    return offsets


def _resolve(
    phi: BmObject, ell: int, beta: int, kind: LabelKind, index: int | None
) -> int:
    """The number, on phi = (ell, beta), of the label that raw (kind, index) resolves to."""
    if kind is LabelKind.MID:
        if beta != 1:
            raise UnresolvableLabelError(
                f"object {phi} has no crossing generator (beta = 0)"
            )
        return 2 * ell
    if index is None:
        raise LabelRangeError(f"{kind.value} label needs an index")
    if not 0 <= index <= ell + 1:
        raise LabelRangeError(
            f"index {index} outside {{0, ..., {ell + 1}}} for object {phi}"
        )
    if kind is LabelKind.ONE and index == 0:
        return _resolve(phi, ell, beta, LabelKind.TWO, 1)
    if kind is LabelKind.TWO and index == ell + 1:
        return _resolve(phi, ell, beta, LabelKind.MID, None)
    if not 1 <= index <= ell:
        # x2(0) and x1(ell + 1) are produced by no pairing rule.
        raise UnresolvableLabelError(
            f"no resolution for {kind.value}({index}) on object {phi}"
        )
    return 2 * index - 2 if kind is LabelKind.ONE else 2 * index - 1


class _Codes(dict):
    """The label numbers on one object of the raw labels of one kind, by index.

    xm has the one index None.  An index is looked up in _resolve on its
    first request and kept when it resolves, so a request that raises goes
    to _resolve, and raises, every time.
    """

    __slots__ = ("phi", "kind")

    def __init__(self, phi: BmObject, kind: LabelKind) -> None:
        super().__init__()
        self.phi, self.kind = phi, kind

    def __missing__(self, index: int | None) -> int:
        phi = self.phi
        code = self[index] = _resolve(phi, phi.ell, phi.beta, self.kind, index)
        return code


class _Shape(NamedTuple):
    """What the pairing rules read of one object: its invariants, label count and tables."""

    ell: int
    beta: int
    count: int
    one: _Codes
    two: _Codes
    mid: _Codes


@cache
def _shape(values: tuple[int, ...]) -> _Shape:
    """The shape of the object with these values; its tables live for the process."""
    phi = BmObject(values)
    ell, beta = phi.ell, phi.beta
    return _Shape(
        ell,
        beta,
        label_count(ell, beta),
        _Codes(phi, LabelKind.ONE),
        _Codes(phi, LabelKind.TWO),
        _Codes(phi, LabelKind.MID),
    )


# Notes, one per pair: a template and the raw indices it names.  A window's first
# two notes take (i, b) and (a + 1, a, i - 1, i); the closing window's show fewer.
_FLAT_NOTE = "y1({0}) = x1({1}) = x1({2}) = y1({3}) = y2({0})"
_UP_NOTE = "y1({0}) = x1({1})"
_DOWN_NOTE = "x2({0}) = x1({1}) = y1({2}) = y2({3})"
_INNER_NOTE = "x2({0}) = x1({1})"
_MID_NOTE = "xm = x1({1})"
_MID_DOWN_NOTE = "x2({0}) = x1({1}) = y1({2}) = ym"

Note = tuple  # (template, *indices)


def render_note(note: Note) -> str:
    """The identity trail of a pair, e.g. "x2(2) = x1(1) = y1(1) = y2(2)"."""
    return note[0].format(*note[1:])


def _rule_pairs(
    source: tuple[int, ...],
    target: tuple[int, ...],
    p: Sequence[int],
    notes: list[Note] | None = None,
) -> list[tuple[int, int]]:
    """The pairing rules between the objects with these values; given a
    list for notes, one note per pair is appended to it, in pair order.

    Only edge_pairs asks for notes, for a failure's witness or `bmquiver
    eval pairs`; the kernel and the audit ask for none, and none is built.

    Pairs are of label numbers: source labels are numbered from 0 and
    target labels after them, as on a one-edge chain.  Writing p for the
    images of the map (the rules read p(0..ell') only), the rules run over
    windows (i, a, b): (i, p(i-1), p(i)) for 1 <= i <= ell', then, when
    beta' = 1 (forcing beta = 1), the closing window (ell'+1, p(ell'), ell),
    in which xm and ym stand where the others have y1(i) and y2(i):

      a = b, not closing:  the pair (y1(i), y2(i));
      otherwise:           (y1(i), x1(b)), (x2(a+1), y2(i)), and
                           (x2(j), x1(j-1)) for a+2 <= j <= b.

    All labels pass through the resolution of _resolve, read from each
    object's table, in pair order; a label that does not resolve raises
    its LabelRangeError or UnresolvableLabelError.

    The degenerate case ell' = -1 yields no pairs: the formula for the
    pair count is undefined there and emptiness is the convention under
    which the edge value is just the source value.
    """
    ell_prime, beta_prime, _, y1, y2, ym = _shape(target)
    if ell_prime == -1:
        return []
    ell, _, shift, x1, x2, xm = _shape(source)
    pairs: list[tuple[int, int]] = []
    add = pairs.append
    low = p[0]
    for i in range(1, ell_prime + beta_prime + 1):
        if i > ell_prime:
            # The closing window: b = ell, and xm and ym stand for y1(i) and y2(i).
            high, first, two, at = ell, xm[None], ym, None
        elif (high := p[i]) == low:
            add((shift + y1[i], shift + y2[i]))
            if notes is not None:
                notes.append((_FLAT_NOTE, i, high, low, i - 1))
            continue
        else:
            first, two, at = shift + y1[i], y2, i
        add((first, x1[high]))
        add((x2[low + 1], shift + two[at]))
        if notes is not None:
            up, down = (_UP_NOTE, _DOWN_NOTE) if at else (_MID_NOTE, _MID_DOWN_NOTE)
            notes += [(up, i, high), (down, low + 1, low, i - 1, i)]
        for j in range(low + 2, high + 1):
            add((x2[j], x1[j - 1]))
            if notes is not None:
                notes.append((_INNER_NOTE, j, j - 1))
        low = high
    return pairs


def edge_pairs(
    edge: BmEdge, notes: bool = True
) -> tuple[list[tuple[int, int]], list[Note] | None]:
    """The pairing rules of an edge (see _rule_pairs), on label numbers, and
    one note per pair, or None in place of the notes when notes is False.

    Notes are built only for a reader of them, such as `bmquiver eval
    pairs` (pairing_set); the audit, which counts pairs, asks for none.
    A label the rules cannot build raises PairingConstructionError naming the edge.
    """
    kept: list[Note] | None = [] if notes else None
    try:
        pairs = _rule_pairs(edge.phi.values, edge.phi_prime.values, edge.map.images, kept)
    except (UnresolvableLabelError, LabelRangeError) as exc:
        raise PairingConstructionError(
            f"pairing rules produced an invalid label on edge {edge.encode()}: {exc}"
        ) from exc
    return pairs, kept


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


def pairing_set(edge: BmEdge) -> PairingList:
    """The pairing list of edge_pairs, as labels with the source at vertex 0."""
    pairs, notes = edge_pairs(edge)
    labels = f_object(edge.phi) + f_object(edge.phi_prime, vertex=1)
    return PairingList(
        tuple((labels[a], labels[b]) for a, b in pairs),
        tuple(render_note(note) for note in notes),
    )


def segment_labels(phi: BmObject) -> list[tuple[BmObject, list[int]]]:
    """Each segment of phi with the label numbers on phi of its labels, in local order.

    Segment i (counted from 1) of kind "00" holds x1(i) and x2(i), numbered
    2(i-1) and 2(i-1) + 1; a "01" segment holds xm, numbered 2*ell; "11"
    segments hold none.
    """
    mid_code = 2 * phi.ell
    out = []
    for i, segment in enumerate(segment_decompose(phi), start=1):
        local_mid = 2 * segment.ell
        codes = [
            mid_code if code == local_mid else 2 * (i - 1) + code
            for code in range(label_count(segment.ell, segment.beta))
        ]
        out.append((segment, codes))
    return out


def f_object_via_segments(phi: BmObject) -> tuple[QuiverLabel, ...]:
    """The label set rebuilt from the segment decomposition of phi (see segment_labels).

    The result must be a bijective relabeling of f_object(phi).
    """
    return tuple(
        _label(code, phi.ell, 0) for _, codes in segment_labels(phi) for code in codes
    )


@dataclass(frozen=True)
class JCardinalityAudit:
    """Pair-count bookkeeping for one edge.

    formula_count is ell' + p(ell' + beta') - p(0); it is None in the
    degenerate case ell' = -1 where p(-1) is undefined and the pairing list
    is empty by convention.  mid_image_tight records, for beta' = 1, whether
    p(ell' + 1) = ell + 1.  The audit keeps the edge's pairs, built without
    notes, and counts self pairs and effective pairs only when they are
    read: an audit warning and `bmquiver eval audit` read them, a passing
    audit does not.
    """

    edge: BmEdge
    pairs: list[tuple[int, int]] = field(repr=False, compare=False)
    formula_count: int | None
    degenerate: bool
    mid_image_tight: bool | None

    @property
    def raw_count(self) -> int:
        return len(self.pairs)

    @property
    def self_pair_count(self) -> int:
        return sum(a == b for a, b in self.pairs)

    @property
    def effective_count(self) -> int:
        """The number of distinct unordered pairs of two different labels."""
        return len({(a, b) if a < b else (b, a) for a, b in self.pairs if a != b})

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
    pairs = edge_pairs(edge, notes=False)[0]
    ell_prime, beta_prime = edge.phi_prime.ell, edge.phi_prime.beta
    if ell_prime == -1:
        return JCardinalityAudit(edge, pairs, None, True, None)
    p = edge.map.images
    formula = ell_prime + p[ell_prime + beta_prime] - p[0]
    tight = None
    if beta_prime == 1:
        tight = p[ell_prime + 1] == edge.phi.ell + 1
    return JCardinalityAudit(edge, pairs, formula, False, tight)
