"""Product p-adic odometers with exact residue arithmetic.

A space is a product of d odometers with bases p_1..p_d, truncated at depth
N.  A point stores one residue mod p_i^N per coordinate; its N base-p_i
digits (least-significant first) are those of the residue, so a depth-N
point is the cylinder of all its extensions.  Adding an integer vector and
acting by a unimodular integer matrix are both well defined on truncations
because they only depend on the value mod p^N, so each is integer
arithmetic followed by one ``%`` per coordinate.  Digits are computed only
where they are the data: cylinder prefixes and JSON.

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

from . import linalg
from .checks import CheckResult
from .groups import LatticeGroup

# The most depth-N points (or depth-k cylinders) an exhaustive sweep visits.
SWEEP_BUDGET = 1 << 20

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


class OdometerSpace:
    __slots__ = ("bases", "depth", "moduli", "_actions")

    def __init__(self, bases: Sequence[int], depth: int):
        bases = tuple(int(p) for p in bases)
        if not bases or any(p < 2 for p in bases):
            raise ValueError("all bases must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.bases = bases
        self.depth = depth
        self.moduli = tuple(p**depth for p in bases)
        # Integer rows of each matrix validated for this space, keyed by entries.
        self._actions: dict = {}

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
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def all_points(self):
        """Iterate every depth-N point; refuses spaces over ``SWEEP_BUDGET``."""
        if self.point_count() > SWEEP_BUDGET:
            raise ValueError(f"space has {self.point_count()} points, over budget {SWEEP_BUDGET}")
        for values in itertools.product(*(range(m) for m in self.moduli)):
            yield DigitPoint(values, self)

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

    def to_json(self):
        """One string of N base-36 digits per coordinate, least-significant first."""
        space = self.space
        out = []
        for coord, r in enumerate(self.residues):
            _check_serializable(space.bases[coord])
            out.append("".join(_DIGIT_CHARS[d] for d in space.digits_of(r, coord)))
        return out

    @staticmethod
    def from_json(data, space: OdometerSpace) -> "DigitPoint":
        if len(data) != space.dimension:
            raise ValueError("point has wrong dimension")
        residues = []
        for text, p in zip(data, space.bases):
            _check_serializable(p)
            if len(text) != space.depth:
                raise ValueError(f"point needs {space.depth} digits per coordinate")
            digits = [int(ch, 36) for ch in text]
            if any(d >= p for d in digits):
                raise ValueError(f"digit out of range for base {p}: {text!r}")
            residues.append(_prefix_value(digits, p))
        point = DigitPoint(tuple(residues), space)
        space.validate_point(point)
        return point


def _check_serializable(p: int) -> None:
    if p > len(_DIGIT_CHARS):
        raise ValueError(f"digit serialization supports bases up to 36, not {p}")


def _prefix_value(digits: Sequence[int], p: int) -> int:
    """The value of a least-significant-first digit string."""
    return sum(d * p**k for k, d in enumerate(digits))


@dataclass(frozen=True)
class Cylinder:
    """Per-coordinate digit prefixes; an empty prefix leaves a coordinate free."""

    prefixes: tuple[tuple[int, ...], ...]

    def contains(self, point: DigitPoint) -> bool:
        moduli, values = self.residue_class(point.space)
        return all(r % m == v for r, m, v in zip(point.residues, moduli, values))

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
        m = Fraction(1)
        for p, prefix in zip(space.bases, self.prefixes):
            m /= p ** len(prefix)
        return m

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

    def to_json(self):
        return [list(p) for p in self.prefixes]


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

    def contains(self, point: DigitPoint) -> bool:
        return any(c.contains(point) for c in self.cylinders)

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

    def to_json(self):
        return [c.to_json() for c in self.cylinders]


def odometer_add(x: DigitPoint, vector: Sequence[int], space: OdometerSpace) -> DigitPoint:
    """Add an integer vector coordinatewise, with carry, exactly mod p^N."""
    moduli = space.moduli
    if len(vector) != len(moduli):
        raise ValueError("vector has wrong dimension")
    space.validate_point(x)
    return DigitPoint(
        tuple([(r + int(g)) % m for r, g, m in zip(x.residues, vector, moduli)]), space
    )


def _check_partition(parts: Sequence[ClopenSet], space: OdometerSpace) -> None:
    total = Fraction(0)
    for part in parts:
        part.validate(space)
        total += part.measure(space)
    for a, b in itertools.combinations(parts, 2):
        if a.overlaps(b):
            raise ValueError("partition members overlap")
    if total != 1:
        raise ValueError(f"partition measures sum to {total}, not 1")


def refine_common(partitions: Sequence[Sequence[ClopenSet]], space: OdometerSpace) -> list[ClopenSet]:
    """Coarsest common refinement of several clopen partitions of the space.

    Atoms are the nonempty intersections of one member from each input;
    inputs are validated as genuine partitions first.
    """
    for partition in partitions:
        _check_partition(partition, space)
    atoms = [space.whole_space()]
    for partition in partitions:
        atoms = [
            piece
            for atom in atoms
            for member in partition
            if not (piece := atom.intersect(member)).is_empty()
        ]
    return atoms


def _integer_rows(matrix, space: OdometerSpace) -> tuple[tuple[int, ...], ...]:
    """The rows of a det +-1 integer matrix acting on ``space``.

    The matrix is validated once per (matrix, space) pair: equal bases,
    dimension, integer entries and determinant.  The rows are cached on the
    space under the matrix entries, so a matrix that fails is rejected on
    every call before any point is acted on.
    """
    key = tuple(map(tuple, matrix))
    rows = space._actions.get(key)
    if rows is None:
        mat = linalg.as_matrix(key)
        if len(set(space.bases)) != 1:
            raise ValueError("matrix action needs equal bases in all coordinates")
        if len(mat) != space.dimension:
            raise ValueError("matrix dimension mismatch")
        if not linalg.is_integral(mat):
            raise ValueError("matrix must have integer entries")
        determinant = linalg.det(mat)
        if abs(determinant) != 1:
            raise ValueError(f"matrix determinant {determinant} is not +-1")
        rows = tuple(tuple(int(v) for v in row) for row in mat)
        space._actions[key] = rows
    return rows


def matrix_act(matrix, x: DigitPoint, space: OdometerSpace) -> DigitPoint:
    """Act by a det +-1 integer matrix on truncated values, mod p^N.

    Requires a single base across coordinates, since the matrix mixes them.
    """
    rows = _integer_rows(matrix, space)
    space.validate_point(x)
    modulus = space.moduli[0]
    residues = x.residues
    return DigitPoint(
        tuple([sum([a * r for a, r in zip(row, residues)]) % modulus for row in rows]), space
    )


def bijectivity_check_at_depth(matrix, space: OdometerSpace) -> CheckResult:
    """Verify the matrix action permutes all p^(N d) depth-N points.

    A permutation at depth N means every depth-k cylinder pulls back to a set
    of equal Haar measure, which is the truncated form of measure preservation.
    ``checked`` counts the points swept; a collision stops the sweep.
    """
    rows = _integer_rows(matrix, space)
    count = space.point_count()
    if count > SWEEP_BUDGET:
        raise ValueError(f"depth sweep needs {count} points, over budget {SWEEP_BUDGET}")
    modulus = space.moduli[0]
    seen = set()
    witnesses = []
    for values in itertools.product(range(modulus), repeat=space.dimension):
        image = tuple(
            sum(r * v for r, v in zip(row, values)) % modulus for row in rows
        )
        if image in seen:
            witnesses.append(values)
            break
        seen.add(image)
    return CheckResult(
        name="depth-bijectivity",
        passed=not witnesses,
        checked=len(seen) + len(witnesses),
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
            name="minimality", passed=True, checked=0, coverage={"k": 0},
            notes="depth 0 has a single cylinder",
        )
    ranges = [p**k for p in space.bases]
    total = 1
    for r in ranges:
        total *= r
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
        passed=not missing,
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
    every g in the radius ball of the standard generators of Z^d."""
    mat = linalg.as_matrix(matrix)
    checked = 0
    witnesses = []
    for g in LatticeGroup(space.dimension).standard_generators().ball(radius):
        image_g = [int(v) for v in linalg.mat_vec(mat, g.coords)]
        for x in points:
            lhs = matrix_act(matrix, odometer_add(x, g.coords, space), space)
            rhs = odometer_add(matrix_act(matrix, x, space), image_g, space)
            checked += 1
            if lhs != rhs:
                witnesses.append((g, x))
    return CheckResult(
        name="equivariance",
        passed=not witnesses,
        checked=checked,
        witnesses=witnesses,
        coverage={"W": radius, "points": len(points)},
    )


# Depth-k cylinders drawn per group element when there are more than this.
_HAAR_SAMPLE = 40


def haar_invariance_check(space: OdometerSpace, radius: int, k: int, rng) -> CheckResult:
    """Translating a depth-k cylinder by g keeps its Haar measure, for every g
    in the radius ball of the standard generators of Z^d.

    Each g sweeps every depth-k cylinder when there are at most
    ``_HAAR_SAMPLE`` of them, and otherwise that many drawn from ``rng``.
    """
    full = math.prod(p**k for p in space.bases)
    checked = 0
    witnesses = []
    for g in LatticeGroup(space.dimension).standard_generators().ball(radius):
        if full <= _HAAR_SAMPLE:
            reps = itertools.product(*(range(p**k) for p in space.bases))
        else:
            reps = [tuple(rng.randrange(p**k) for p in space.bases) for _ in range(_HAAR_SAMPLE)]
        for values in reps:
            cyl = space.depth_cylinder(space.point_from_values(values), k)
            before = cyl.measure(space)
            after = cyl.translate(g.coords, space).measure(space)
            checked += 1
            if before != after:
                witnesses.append((g, values))
    return CheckResult(
        name="haar-invariance",
        passed=not witnesses,
        checked=checked,
        witnesses=witnesses,
        coverage={"W": radius, "k": k},
    )


def wandering_check(clopen: ClopenSet, radius: int, space: OdometerSpace):
    """Search the L1 ball for g != 0 with (U + g) meeting U.

    Returns the witness vector, or None when no witness exists within the
    radius (the report is honest about its bounded search).  For nonempty U a
    witness always exists once the radius reaches max p_i^N.
    """
    clopen.validate(space)
    if clopen.is_empty():
        raise ValueError("wandering check expects a nonempty clopen set")
    d = space.dimension
    candidates = sorted(
        (
            coords
            for coords in itertools.product(range(-radius, radius + 1), repeat=d)
            if 0 < sum(abs(c) for c in coords) <= radius
        ),
        key=lambda c: (sum(abs(x) for x in c), c),
    )
    for coords in candidates:
        if clopen.translate(coords, space).overlaps(clopen):
            return coords
    return None
