"""Topological full group elements over an odometer.

An element is a clopen partition A_1 .. A_k with integer vectors g_1 .. g_k:
the homeomorphism acts as x -> x + g_i on A_i.  Construction validates both
that the domains partition the space and that the translated images do
(which is exactly bijectivity).  Elements are normalized by merging pieces
with equal labels and canonically coarsening cylinder unions, so equality is
a plain comparison.

A point's label is the label of the first piece holding it.  ``apply``
finds it with one dict probe per group of cylinders with equal prefix
lengths; ``apply_array`` reads it for a whole (d, M) residue array from one
dense array per such group, indexed by the mixed-radix code of each point's
residue class, and returns the images with a mask of the columns some piece
holds.  ``spatial_realization_gap`` sweeps every depth-N point that way and
evaluates the point it names again through ``apply``.
"""
from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .checks import CheckResult
from .odometer import (
    ClopenSet,
    Cylinder,
    DigitPoint,
    OdometerSpace,
    class_code,
    odometer_add,
    odometer_add_array,
    require_agreement,
)


def _coerce_label(label, dimension: int) -> tuple[int, ...]:
    coords = tuple(int(c) for c in (label.coords if hasattr(label, "coords") else label))
    if len(coords) != dimension:
        raise ValueError(f"label {coords} has wrong dimension")
    return coords


def _coarsen(cylinders: Iterable[Cylinder], space: OdometerSpace) -> tuple[Cylinder, ...]:
    """Merge complete sibling families into their parent cylinder, to a fixpoint."""
    current = set(cylinders)
    changed = True
    while changed:
        changed = False
        for cyl in sorted(current, key=Cylinder.sort_key, reverse=True):
            if cyl not in current:
                continue
            for coord, prefix in enumerate(cyl.prefixes):
                if not prefix:
                    continue
                parent = prefix[:-1]
                p = space.bases[coord]
                siblings = [
                    Cylinder(
                        cyl.prefixes[:coord] + (parent + (digit,),) + cyl.prefixes[coord + 1 :]
                    )
                    for digit in range(p)
                ]
                if all(s in current for s in siblings):
                    current.difference_update(siblings)
                    current.add(
                        Cylinder(cyl.prefixes[:coord] + (parent,) + cyl.prefixes[coord + 1 :])
                    )
                    changed = True
                    break
            if changed:
                break
    return tuple(sorted(current, key=Cylinder.sort_key))


class FullGroupElement:
    """A piecewise translation; ``pieces`` maps clopen sets to label vectors."""

    __slots__ = ("space", "pieces", "_lookup", "_dense")

    def __init__(self, space: OdometerSpace, pieces: Sequence[tuple[ClopenSet, tuple[int, ...]]]):
        self.space = space
        self.pieces = tuple(pieces)
        self._lookup = None
        self._dense = None

    @classmethod
    def make(cls, space: OdometerSpace, pieces) -> "FullGroupElement":
        """Validate and normalize piece data.

        Raises ValueError when the domains fail to partition the space or
        when the translated images overlap (the map would not be bijective).
        """
        if not pieces:
            raise ValueError("need at least one piece")
        dim = space.dimension
        prepared = []
        for clopen, label in pieces:
            if isinstance(clopen, Cylinder):
                clopen = ClopenSet((clopen,))
            clopen.validate(space)
            prepared.append((clopen, _coerce_label(label, dim)))

        domain_total = sum((c.measure(space) for c, _ in prepared), start=0)
        for (a, _), (b, _) in itertools.combinations(prepared, 2):
            if a.overlaps(b):
                raise ValueError("piece domains overlap")
        if domain_total != 1:
            raise ValueError(f"piece domains have total measure {domain_total}, not 1")

        images = [c.translate(g, space) for c, g in prepared]
        for a, b in itertools.combinations(images, 2):
            if a.overlaps(b):
                raise ValueError("translated images overlap; data is not bijective")

        return cls(space, _normalize(prepared, space))

    @classmethod
    def translation(cls, space: OdometerSpace, vector) -> "FullGroupElement":
        return cls.make(space, [(space.whole_space(), vector)])

    def apply(self, x: DigitPoint) -> DigitPoint:
        return odometer_add(x, self.label_at(x), self.space)

    def label_at(self, x: DigitPoint) -> tuple[int, ...]:
        """The label of the first piece containing x."""
        lookup = self._residue_lookup()
        residues = x.residues
        best = None
        for moduli, table in lookup:
            hit = table.get(tuple([r % m for r, m in zip(residues, moduli)]))
            if hit is not None and (best is None or hit < best):
                best = hit
        if best is None:
            raise ValueError("point escaped the partition (corrupt element)")
        return best[1]

    def apply_array(self, residues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``apply`` on every column of a (d, M) residue array of a space
        within ``SWEEP_BUDGET``: the images, and which columns a piece holds
        (the image of any other column is its own residues)."""
        dense = self._dense
        if dense is None:
            dense = self._dense = _dense_lookup(self._residue_lookup(), self.pieces, self.space)
        groups, labels = dense
        piece = np.full(residues.shape[1], len(self.pieces), dtype=np.int64)
        for moduli, index in groups:
            np.minimum(piece, index[class_code(residues, moduli)], out=piece)
        moduli = np.array(self.space.moduli, dtype=labels.dtype)[:, None]
        return (residues + labels[:, piece]) % moduli, piece < len(self.pieces)

    def _residue_lookup(self):
        if self._lookup is None:
            self._lookup = _label_lookup(self.pieces, self.space)
        return self._lookup

    def inverse(self) -> "FullGroupElement":
        pieces = [
            (clopen.translate(label, self.space), tuple(-c for c in label))
            for clopen, label in self.pieces
        ]
        return FullGroupElement(self.space, _normalize(pieces, self.space))

    def __mul__(self, other: "FullGroupElement") -> "FullGroupElement":
        return compose(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, FullGroupElement)
            and other.space == self.space
            and other.pieces == self.pieces
        )

    def __hash__(self):
        return hash((self.space, self.pieces))

    def __repr__(self):
        parts = ", ".join(f"{clopen!r}->{label}" for clopen, label in self.pieces)
        return f"FullGroupElement[{parts}]"


def _label_lookup(pieces, space: OdometerSpace):
    """Where each piece's cylinders lie, keyed by residues.

    Cylinders are grouped by their prefix lengths k_i; a group maps the
    prefix values (residues mod p_i^k_i) to (piece index, label).  A point
    finds its piece with one dict probe per group, and the lowest index wins
    when pieces overlap, as in a scan of the pieces in order.  The size is
    linear in the number of cylinders, where one table keyed mod the deepest
    prefix of every coordinate could grow to p^(N d) entries.  A malformed
    cylinder (wrong dimension, too deep, digit out of range) contains no
    depth-N point and is left out.
    """
    groups: dict = {}
    for index, (clopen, label) in enumerate(pieces):
        for cyl in clopen.cylinders:
            try:
                cyl.validate(space)
            except ValueError:
                continue
            moduli, values = cyl.residue_class(space)
            groups.setdefault(moduli, {}).setdefault(values, (index, label))
    return tuple((moduli, MappingProxyType(table)) for moduli, table in groups.items())


def _dense_lookup(lookup, pieces, space: OdometerSpace):
    """``_label_lookup`` as arrays: per group, the piece index of every
    residue class, ``len(pieces)`` where no cylinder of the group holds it;
    and the labels reduced mod p_i^N as a (d, pieces + 1) array on the rung
    of the largest residue, whose last column, zero, serves points in no
    piece.  A group has at most as many classes as the space has points, so
    the space must be within the sweep budget."""
    space.sweep_count()
    groups = []
    for moduli, table in lookup:
        index = np.full(math.prod(moduli), len(pieces), dtype=np.int64)
        for values, (piece, _) in table.items():
            index[class_code(values, moduli)] = piece
        groups.append((moduli, index))
    if any(len(label) != space.dimension for _, label in pieces):
        raise ValueError("vector has wrong dimension")
    labels = [[int(g) % m for g, m in zip(label, space.moduli)] for _, label in pieces]
    labels.append([0] * space.dimension)
    return tuple(groups), np.array(labels, dtype=linalg.rung(max(space.moduli) - 1)).T


def _normalize(pieces, space: OdometerSpace):
    by_label: dict[tuple[int, ...], list[Cylinder]] = {}
    for clopen, label in pieces:
        by_label.setdefault(label, []).extend(clopen.cylinders)
    out = []
    for label in sorted(by_label):
        cylinders = _coarsen(by_label[label], space)
        out.append((ClopenSet(cylinders), label))
    return tuple(out)


def compose(t: FullGroupElement, u: FullGroupElement) -> FullGroupElement:
    """The homeomorphism t after u, on the common refinement of the partitions.

    A piece of the composite is a u-piece intersected with the u-preimage of
    a t-piece; labels multiply.  Translating cylinders never deepens their
    prefixes, so the refinement always fits within the truncation depth; the
    depth guard below is defensive.
    """
    if t.space != u.space:
        raise ValueError("elements live on different spaces")
    space = t.space
    pieces = []
    for u_dom, u_label in u.pieces:
        neg_u = tuple(-c for c in u_label)
        for t_dom, t_label in t.pieces:
            overlap = u_dom.intersect(t_dom.translate(neg_u, space))
            if overlap.is_empty():
                continue
            for cyl in overlap.cylinders:
                if any(len(p) > space.depth for p in cyl.prefixes):
                    raise ValueError("refinement exceeds truncation depth")
            label = tuple(a + b for a, b in zip(t_label, u_label))
            pieces.append((overlap, label))
    return FullGroupElement(space, _normalize(pieces, space))


def conjugate_by_translation(t: FullGroupElement, vector) -> FullGroupElement:
    """g t g^-1 for the translation g by ``vector``."""
    space = t.space
    g = FullGroupElement.translation(space, vector)
    return compose(compose(g, t), g.inverse())


def spatial_realization_gap(
    conjugated: FullGroupElement, t: FullGroupElement, vector, space: OdometerSpace
):
    """First depth-N point, in ``all_points`` order, where ``conjugated``
    fails to act like t shifted by ``vector``; None when the translation
    realizes the conjugation everywhere.

    Both sides are taken on the whole residue array.  A point in no piece of
    either element stops the sweep as a failure does; that point, the
    failing one or else the first is evaluated again through ``apply``,
    which raises ValueError for a point in no piece, and RuntimeError is
    raised if the two paths disagree.
    """
    vec = _coerce_label(vector, space.dimension)
    if conjugated.space != space or t.space != space:
        raise ValueError("element lives on a different space")
    residues = space.all_residues()
    shifted = odometer_add_array(residues, vec, space)
    lhs, lhs_covered = conjugated.apply_array(shifted)
    moved, rhs_covered = t.apply_array(residues)
    rhs = odometer_add_array(moved, vec, space)
    escaped = ~(lhs_covered & rhs_covered)
    failed = np.flatnonzero(escaped | (lhs != rhs).any(axis=0))
    named = int(failed[0]) if len(failed) else 0
    x = DigitPoint(tuple(residues[:, named].tolist()), space)
    left = conjugated.apply(odometer_add(x, vec, space))
    right = odometer_add(t.apply(x), vec, space)
    if escaped[named]:
        raise RuntimeError(f"ad-realization: residue array has no piece for {x!r}, apply has")
    require_agreement(lhs[:, named], left, "ad-realization")
    require_agreement(rhs[:, named], right, "ad-realization")
    return x if len(failed) else None


def ad_realization_check(vectors, sample: Sequence[FullGroupElement], space: OdometerSpace) -> CheckResult:
    """Check that conjugation by a group element is spatially realized by the
    corresponding translation: (g t g^-1)(x + g) == t(x) + g on all depth-N
    points, for every vector g and every sampled t.  ``checked`` counts the
    (vector, element) pairs; a witness names the vector, the element and the
    first point where the two sides differ.
    """
    for t in sample:
        if t.space != space:
            raise ValueError("sample element lives on a different space")
    witnesses = []
    for vector in vectors:
        for t in sample:
            conjugated = conjugate_by_translation(t, vector)
            gap = spatial_realization_gap(conjugated, t, vector, space)
            if gap is not None:
                witnesses.append((vector, t, gap))
    return CheckResult(
        name="ad-realization",
        checked=len(vectors) * len(sample),
        witnesses=witnesses,
        coverage={"vectors": len(vectors), "elements": len(sample), "points": space.point_count()},
    )
