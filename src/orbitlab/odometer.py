"""Product p-adic odometers with exact residue arithmetic.

A space is a product of d odometers with bases p_1..p_d, truncated at depth
N.  A point stores one residue mod p_i^N per coordinate; its N base-p_i
digits (least-significant first) are those of the residue, so a depth-N
point is the cylinder of all its extensions.  Adding an integer vector and
acting by a unimodular integer matrix are both well defined on truncations
because they only depend on the value mod p^N, so each is integer
arithmetic followed by one ``%`` per coordinate.  Digits are computed only
where they are the data: cylinder prefixes.

Sweeps work on residue arrays: ``all_residues`` holds every depth-N point as
one column of a (d, M) array in ``all_points`` order, ``residue_array`` the
sampled ones, and ``odometer_add_array`` and ``matrix_act_array`` act on all
columns at once.  Vectors and matrix rows are reduced mod p^N first, and
each op takes its dtype from ``linalg.rung`` for the largest value it can
produce: a residue below m, a sum of two, or d (m - 1)^2 for a matrix row
times a column.  Each array check evaluates the point it names again
through the scalar ``odometer_add`` and ``matrix_act`` and raises
RuntimeError if the two paths disagree.

Clopen sets are finite disjoint unions of cylinders (per-coordinate digit
prefixes) and carry an exact rational Haar measure.  A point lies in a
cylinder when its residue mod p^k equals the value of each length-k prefix.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .checks import CheckResult
from .groups import LatticeGroup

# The most depth-N points (or depth-k cylinders) an exhaustive sweep visits.
SWEEP_BUDGET = 1 << 20


class OdometerSpace:
    __slots__ = ("bases", "depth", "moduli")

    def __init__(self, bases: Sequence[int], depth: int):
        bases = tuple(int(p) for p in bases)
        if not bases or any(p < 2 for p in bases):
            raise ValueError("all bases must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.bases = bases
        self.depth = depth
        self.moduli = tuple(p**depth for p in bases)

    @property
    def dimension(self) -> int:
        return len(self.bases)

    def __eq__(self, other):
        return (
            isinstance(other, OdometerSpace)
            and other.bases == self.bases
            and other.depth == self.depth
        )

    def __hash__(self):
        return hash((self.bases, self.depth))

    def __repr__(self):
        return f"OdometerSpace(bases={self.bases}, depth={self.depth})"

    def digits_of(self, value: int, coord: int, length: int | None = None) -> tuple[int, ...]:
        """Base-p digit string of value mod p^length, least-significant first."""
        length = self.depth if length is None else length
        p = self.bases[coord]
        value %= p**length
        out = []
        for _ in range(length):
            out.append(value % p)
            value //= p
        return tuple(out)

    def point_from_values(self, values: Sequence[int]) -> "DigitPoint":
        if len(values) != self.dimension:
            raise ValueError("value vector has wrong dimension")
        return DigitPoint(
            tuple([operator.index(v) % m for v, m in zip(values, self.moduli)]), self
        )

    def zero(self) -> "DigitPoint":
        return DigitPoint((0,) * self.dimension, self)

    def point_count(self) -> int:
        return math.prod(self.moduli)

    def sweep_count(self) -> int:
        """The number of depth-N points; refuses spaces over ``SWEEP_BUDGET``."""
        count = self.point_count()
        if count > SWEEP_BUDGET:
            raise ValueError(f"space has {count} points, over budget {SWEEP_BUDGET}")
        return count

    def all_points(self):
        """Iterate every depth-N point; refuses spaces over ``SWEEP_BUDGET``."""
        self.sweep_count()
        for values in itertools.product(*(range(m) for m in self.moduli)):
            yield DigitPoint(values, self)

    def all_residues(self) -> np.ndarray:
        """Every depth-N point as a column of a (d, M) array on the rung of the
        largest residue, in ``all_points`` order; refuses spaces over
        ``SWEEP_BUDGET`` before it allocates."""
        self.sweep_count()
        return np.indices(self.moduli, dtype=linalg.rung(max(self.moduli) - 1)).reshape(self.dimension, -1)

    def residue_array(self, points: Sequence["DigitPoint"]) -> np.ndarray:
        """The validated residues of ``points``, one column per point, on the
        rung of the largest residue (m - 1 for the largest modulus m)."""
        for x in points:
            self.validate_point(x)
        rows = np.array([x.residues for x in points], dtype=linalg.rung(max(self.moduli) - 1))
        return rows.reshape(len(points), self.dimension).T

    def random_point(self, rng) -> "DigitPoint":
        return DigitPoint(tuple([rng.randrange(m) for m in self.moduli]), self)

    def validate_point(self, point: "DigitPoint") -> None:
        if point.space is not self and point.space != self:
            raise ValueError(f"point belongs to {point.space!r}, not {self!r}")
        residues = point.residues
        if len(residues) != len(self.moduli):
            raise ValueError("point has wrong dimension")
        for r, m in zip(residues, self.moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range mod {m}")

    def whole_space(self) -> "ClopenSet":
        return ClopenSet((Cylinder(((),) * self.dimension),))

    def depth_cylinder(self, point: "DigitPoint", k: int) -> "Cylinder":
        """The depth-k cylinder containing a point."""
        if not 0 <= k <= self.depth:
            raise ValueError("depth k must lie in [0, N]")
        return Cylinder(tuple(self.digits_of(r, i, k) for i, r in enumerate(point.residues)))


class DigitPoint:
    """A depth-N point: its residue mod p_i^N in each coordinate.

    Build points through the space (``point_from_values``, ``zero``,
    ``random_point``); every operation range-checks the residues it reads.
    Points are values: nothing mutates one after it is built, and they
    compare by residues and space.
    """

    __slots__ = ("residues", "space")

    def __init__(self, residues: tuple[int, ...], space: OdometerSpace):
        self.residues = residues
        self.space = space

    def __eq__(self, other):
        if not isinstance(other, DigitPoint):
            return NotImplemented
        return self.residues == other.residues and (
            self.space is other.space or self.space == other.space
        )

    def __hash__(self):
        return hash(self.residues)

    def __repr__(self):
        return f"DigitPoint(residues={self.residues}, moduli={self.space.moduli})"


def _prefix_value(digits: Sequence[int], p: int) -> int:
    """The value of a least-significant-first digit string."""
    return sum(d * p**k for k, d in enumerate(digits))


def class_code(residues, moduli):
    """The mixed-radix code of the residue class mod ``moduli`` (last
    coordinate fastest), for one tuple of residues or for every column of
    an array."""
    code = 0
    for r, q in zip(residues, moduli):
        code = code * q + r % q
    return code


@dataclass(frozen=True)
class Cylinder:
    """Per-coordinate digit prefixes; an empty prefix leaves a coordinate free."""

    prefixes: tuple[tuple[int, ...], ...]

    def residue_class(self, space: OdometerSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(moduli, values): the cylinder holds the points whose residue mod
        p_i^k_i equals the value of the length-k_i prefix, in each coordinate."""
        return (
            tuple(p ** len(prefix) for prefix, p in zip(self.prefixes, space.bases)),
            tuple(_prefix_value(prefix, p) for prefix, p in zip(self.prefixes, space.bases)),
        )

    def intersect(self, other: "Cylinder") -> "Cylinder | None":
        out = []
        for a, b in zip(self.prefixes, other.prefixes):
            short, long = (a, b) if len(a) <= len(b) else (b, a)
            if long[: len(short)] != short:
                return None
            out.append(long)
        return Cylinder(tuple(out))

    def overlaps(self, other: "Cylinder") -> bool:
        return self.intersect(other) is not None

    def measure(self, space: OdometerSpace) -> Fraction:
        return Fraction(1, math.prod(p ** len(prefix) for p, prefix in zip(space.bases, self.prefixes)))

    def translate(self, vector: Sequence[int], space: OdometerSpace) -> "Cylinder":
        """Image under adding ``vector``: prefixes shift mod p^len, exactly."""
        out = []
        for prefix, v, p, coord in zip(self.prefixes, vector, space.bases, range(space.dimension)):
            if not prefix:
                out.append(())
                continue
            out.append(space.digits_of(_prefix_value(prefix, p) + int(v), coord, len(prefix)))
        return Cylinder(tuple(out))

    def validate(self, space: OdometerSpace) -> None:
        if len(self.prefixes) != space.dimension:
            raise ValueError("cylinder has wrong dimension")
        for prefix, p in zip(self.prefixes, space.bases):
            if len(prefix) > space.depth:
                raise ValueError("prefix longer than truncation depth")
            if any(not 0 <= d < p for d in prefix):
                raise ValueError("digit out of range in prefix")

    def sort_key(self):
        return tuple((len(p), p) for p in self.prefixes)


class ClopenSet:
    """A finite union of pairwise disjoint cylinders."""

    __slots__ = ("cylinders",)

    def __init__(self, cylinders: Iterable[Cylinder]):
        cylinders = tuple(sorted(cylinders, key=Cylinder.sort_key))
        for a, b in itertools.combinations(cylinders, 2):
            if a.overlaps(b):
                raise ValueError(f"cylinders overlap: {a} and {b}")
        self.cylinders = cylinders

    def is_empty(self) -> bool:
        return not self.cylinders

    def measure(self, space: OdometerSpace) -> Fraction:
        return sum((c.measure(space) for c in self.cylinders), Fraction(0))

    def translate(self, vector: Sequence[int], space: OdometerSpace) -> "ClopenSet":
        return ClopenSet(c.translate(vector, space) for c in self.cylinders)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        pieces = []
        for a in self.cylinders:
            for b in other.cylinders:
                c = a.intersect(b)
                if c is not None:
                    pieces.append(c)
        return ClopenSet(pieces)

    def overlaps(self, other: "ClopenSet") -> bool:
        return any(a.overlaps(b) for a in self.cylinders for b in other.cylinders)

    def validate(self, space: OdometerSpace) -> None:
        for c in self.cylinders:
            c.validate(space)

    def __eq__(self, other):
        return isinstance(other, ClopenSet) and other.cylinders == self.cylinders

    def __hash__(self):
        return hash(self.cylinders)

    def __repr__(self):
        return f"ClopenSet({list(self.cylinders)!r})"


def odometer_add(x: DigitPoint, vector: Sequence[int], space: OdometerSpace) -> DigitPoint:
    """Add an integer vector coordinatewise, with carry, exactly mod p^N."""
    moduli = space.moduli
    if len(vector) != len(moduli):
        raise ValueError("vector has wrong dimension")
    space.validate_point(x)
    return DigitPoint(
        tuple([(r + int(g)) % m for r, g, m in zip(x.residues, vector, moduli)]), space
    )


def odometer_add_array(
    residues: np.ndarray, vector: Sequence[int], space: OdometerSpace
) -> np.ndarray:
    """``odometer_add`` on every column of a (d, M) residue array: one
    (r + g) % m per row, g reduced mod m first, on the rung of 2 (m - 1)."""
    moduli = space.moduli
    if len(vector) != len(moduli):
        raise ValueError("vector has wrong dimension")
    residues = residues.astype(linalg.rung(2 * (max(moduli) - 1)), copy=False)
    return np.stack([(row + int(g) % m) % m for row, g, m in zip(residues, vector, moduli)])


def unimodular_rows(matrix, space: OdometerSpace) -> tuple[tuple[int, ...], ...]:
    """The rows of a det +-1 integer matrix acting on ``space``, validated on
    every call before any point is acted on: equal bases, dimension,
    integer entries and determinant."""
    mat = linalg.as_matrix(matrix)
    if len(set(space.bases)) != 1:
        raise ValueError("matrix action needs equal bases in all coordinates")
    if len(mat) != space.dimension:
        raise ValueError("matrix dimension mismatch")
    if not linalg.is_integral(mat):
        raise ValueError("matrix must have integer entries")
    determinant = linalg.det(mat)
    if abs(determinant) != 1:
        raise ValueError(f"matrix determinant {determinant} is not +-1")
    return tuple(tuple(int(v) for v in row) for row in mat)


def matrix_act(matrix, x: DigitPoint, space: OdometerSpace) -> DigitPoint:
    """Act by a det +-1 integer matrix on truncated values, mod p^N.

    Requires a single base across coordinates, since the matrix mixes them.
    """
    rows = unimodular_rows(matrix, space)
    space.validate_point(x)
    modulus = space.moduli[0]
    residues = x.residues
    return DigitPoint(
        tuple([sum([a * r for a, r in zip(row, residues)]) % modulus for row in rows]), space
    )


def matrix_act_array(matrix, residues: np.ndarray, space: OdometerSpace) -> np.ndarray:
    """``matrix_act`` on every column of a residue array from ``all_residues``
    or ``residue_array``: the validated rows, reduced mod p^N, times the
    array, mod p^N, on the rung of the largest row sum d (p^N - 1)^2."""
    rows = unimodular_rows(matrix, space)
    modulus = space.moduli[0]
    dtype = linalg.rung(space.dimension * (modulus - 1) ** 2)
    reduced = np.array([[a % modulus for a in row] for row in rows], dtype=dtype)
    return (reduced @ residues.astype(dtype, copy=False)) % modulus


def require_agreement(column: np.ndarray, point: DigitPoint, check: str) -> None:
    """Raise RuntimeError unless an array column holds ``point``'s residues."""
    if tuple(column.tolist()) != point.residues:
        raise RuntimeError(f"{check}: residue array disagrees with the scalar path at {point!r}")


def bijectivity_check_at_depth(matrix, space: OdometerSpace) -> CheckResult:
    """Verify the matrix action permutes all p^(N d) depth-N points.

    A permutation at depth N means every depth-k cylinder pulls back to a set
    of equal Haar measure, which is the truncated form of measure preservation.
    The images of all points are taken as one array; the witness of a
    failure is the first point, in ``all_points`` order, whose image an
    earlier point already has, and ``checked`` counts the points up to it.
    That point (or the first one) and its earlier partner are acted on again
    by ``matrix_act``.
    """
    unimodular_rows(matrix, space)  # a bad matrix is refused before the budget
    residues = space.all_residues()
    images = matrix_act_array(matrix, residues, space)
    count = residues.shape[1]
    codes = class_code(images, space.moduli)
    # A stable sort keeps equal images in point order; the first repeat is
    # the least index that follows an equal code.
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    named = [0]
    witnesses = []
    if len(repeats):
        first = int(repeats.min())
        named = [int(np.flatnonzero(codes == codes[first])[0]), first]
        witnesses.append(tuple(residues[:, first].tolist()))
    for index in named:
        x = DigitPoint(tuple(residues[:, index].tolist()), space)
        require_agreement(images[:, index], matrix_act(matrix, x, space), "depth-bijectivity")
    return CheckResult(
        name="depth-bijectivity",
        checked=named[-1] + 1 if witnesses else count,
        witnesses=witnesses,
        coverage={"N": space.depth},
        notes="collision at depth-N image" if witnesses
        else f"permutation of {count} depth-{space.depth} points",
    )


def minimality_witness(space: OdometerSpace, k: int) -> CheckResult:
    """Walk the orbit of zero and confirm every depth-k cylinder is visited.

    The odometer orbit is a full cyclic group mod p_i^k in each coordinate, so
    prod p_i^k steps per coordinate suffice.  A depth-k cylinder is a residue
    class mod p_i^k in each coordinate.  ``checked`` counts the orbit steps
    walked; the witnesses of a failure are the residue classes not visited.
    """
    if k < 0 or k > space.depth:
        raise ValueError("depth k must lie in [0, N]")
    if k == 0:
        return CheckResult(
            name="minimality", checked=0, coverage={"k": 0},
            notes="depth 0 has a single cylinder",
        )
    ranges = [p**k for p in space.bases]
    total = math.prod(ranges)
    if total > SWEEP_BUDGET:
        raise ValueError(f"sweep needs {total} cylinders, over budget {SWEEP_BUDGET}")
    zero = space.zero()
    visited = set()
    for steps in itertools.product(*(range(r) for r in ranges)):
        point = odometer_add(zero, steps, space)
        visited.add(tuple([r % m for r, m in zip(point.residues, ranges)]))
    missing = [] if len(visited) == total else [
        c for c in itertools.product(*(range(r) for r in ranges)) if c not in visited
    ]
    return CheckResult(
        name="minimality",
        checked=total,
        witnesses=missing,
        coverage={"k": k},
        notes=f"only {len(visited)} of {total} depth-{k} cylinders visited" if missing
        else f"all {total} depth-{k} cylinders visited",
    )


def matrix_equivariance_check(
    matrix, points: Sequence[DigitPoint], radius: int, space: OdometerSpace
) -> CheckResult:
    """A (x + g) == A x + A g, exactly mod p^N, for every sampled point x and
    every g in the radius ball of the standard generators of Z^d.

    The sampled points are one residue array and each g compares both sides
    on all of them at once.  Witnesses are (g, x) pairs in ball order, then
    sample order, with x the caller's point.  The first witness, or the first
    pair when there is none, is evaluated again through ``odometer_add`` and
    ``matrix_act``.
    """
    mat = linalg.as_matrix(matrix)
    ball = LatticeGroup(space.dimension).standard_generators().ball(radius)
    images = [[int(v) for v in linalg.mat_vec(mat, g.coords)] for g in ball]
    residues = space.residue_array(points)
    acted = matrix_act_array(matrix, residues, space)

    def sides(g, image_g):
        lhs = matrix_act_array(matrix, odometer_add_array(residues, g.coords, space), space)
        return lhs, odometer_add_array(acted, image_g, space)

    witnesses = []
    named = None
    for g, image_g in zip(ball, images):
        lhs, rhs = sides(g, image_g)
        failed = np.flatnonzero((lhs != rhs).any(axis=0)).tolist()
        if failed and named is None:
            named = (g, image_g, failed[0])
        witnesses.extend((g, points[i]) for i in failed)
    if points:
        g, image_g, i = named or (ball[0], images[0], 0)
        lhs, rhs = sides(g, image_g)
        x = points[i]
        require_agreement(
            lhs[:, i], matrix_act(matrix, odometer_add(x, g.coords, space), space), "equivariance"
        )
        require_agreement(
            rhs[:, i], odometer_add(matrix_act(matrix, x, space), image_g, space), "equivariance"
        )
    return CheckResult(
        name="equivariance",
        checked=len(ball) * len(points),
        witnesses=witnesses,
        coverage={"W": radius, "points": len(points)},
    )


# Depth-k cylinders drawn per group element when there are more than this.
HAAR_SAMPLE = 40


def haar_invariance_check(space: OdometerSpace, radius: int, k: int, rng) -> CheckResult:
    """Translating a depth-k cylinder by g keeps its Haar measure, for every g
    in the radius ball of the standard generators of Z^d.

    Each g sweeps every depth-k cylinder when there are at most
    ``HAAR_SAMPLE`` of them, and otherwise that many drawn from ``rng``.

    No input can make it fail: a translate of a depth-k cylinder is a
    depth-k cylinder, so its measure cannot change.  It is a
    self-consistency check of the cylinder and measure code, not of the
    construction.
    """
    full = math.prod(p**k for p in space.bases)
    checked = 0
    witnesses = []
    for g in LatticeGroup(space.dimension).standard_generators().ball(radius):
        if full <= HAAR_SAMPLE:
            reps = itertools.product(*(range(p**k) for p in space.bases))
        else:
            reps = [tuple(rng.randrange(p**k) for p in space.bases) for _ in range(HAAR_SAMPLE)]
        for values in reps:
            cyl = space.depth_cylinder(space.point_from_values(values), k)
            before = cyl.measure(space)
            after = cyl.translate(g.coords, space).measure(space)
            checked += 1
            if before != after:
                witnesses.append((g, values))
    return CheckResult(
        name="haar-invariance",
        checked=checked,
        witnesses=witnesses,
        coverage={"W": radius, "k": k},
    )

