"""Floor-shear bijections of Z^d realizing determinant +-1 matrices.

``decompose_unimodular`` writes a matrix with |det| = 1 as a product of
elementary shear matrices and coordinate sign flips (row swaps needed by
pivoting are emitted as three shears plus a sign flip).  Each shear is
realized on the lattice by flooring, v_i += floor(coeff * v_j), which is
bijective coordinate surgery; the composite is a lattice bijection at
bounded distance from the matrix.

Arithmetic is exact: coefficients are Fractions (floats convert to the
binary rational they are), floors are integer floor divisions, and the
reconstruction check compares matrices entrywise over the rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .checks import CheckResult
from .groups import _INT64_SAFE, is_bilipschitz_on_ball
from .odometer import SWEEP_BUDGET

_PIVOT_FLOOR = Fraction(1, 10**12)

# The box radii below the certificate's own at which the certificate also
# reports the maximum distance.
DISTANCE_PROBES = (10, 25, 50)


@dataclass(frozen=True)
class Shear:
    """v[i] += floor(coeff * v[j]); linear part has ``coeff`` at (i, j)."""

    i: int
    j: int
    coeff: Fraction

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("shear needs distinct coordinates")
        object.__setattr__(self, "coeff", linalg.as_scalar(self.coeff))

    def matrix(self, d: int) -> linalg.Matrix:
        rows = [list(row) for row in linalg.identity(d)]
        rows[self.i][self.j] = self.coeff
        return tuple(tuple(row) for row in rows)

    def apply_int(self, v: tuple[int, ...]) -> tuple[int, ...]:
        p, q = self.coeff.numerator, self.coeff.denominator
        out = list(v)
        out[self.i] += (p * v[self.j]) // q
        return tuple(out)

    def unapply_int(self, w: tuple[int, ...]) -> tuple[int, ...]:
        # Exact inverse: coordinate j is untouched by the shear, so the same
        # floor can be subtracted back.
        p, q = self.coeff.numerator, self.coeff.denominator
        out = list(w)
        out[self.i] -= (p * w[self.j]) // q
        return tuple(out)

    def inverse_op(self) -> "Shear":
        return Shear(self.i, self.j, -self.coeff)

    def to_json(self):
        return {"shear": [self.i + 1, self.j + 1, linalg.scalar_to_str(self.coeff)]}


@dataclass(frozen=True)
class SignFlip:
    """v[i] *= -1."""

    i: int

    def matrix(self, d: int) -> linalg.Matrix:
        rows = [list(row) for row in linalg.identity(d)]
        rows[self.i][self.i] = Fraction(-1)
        return tuple(tuple(row) for row in rows)

    def apply_int(self, v: tuple[int, ...]) -> tuple[int, ...]:
        out = list(v)
        out[self.i] = -out[self.i]
        return tuple(out)

    unapply_int = apply_int

    def inverse_op(self) -> "SignFlip":
        return self

    def to_json(self):
        return {"sign_flip": self.i + 1}


ElementaryOp = Shear | SignFlip


def product_matrix(ops: Sequence[ElementaryOp], d: int) -> linalg.Matrix:
    out = linalg.identity(d)
    for op in ops:
        out = linalg.mat_mul(out, op.matrix(d))
    return out


def decompose_unimodular(matrix, tol=1e-9) -> list[ElementaryOp]:
    """Write a |det| = 1 matrix as shears and sign flips, in product order.

    Gaussian elimination with partial pivoting; pivot-driven row swaps are
    emitted through the identity  swap = shear * shear * shear * sign_flip,
    and the diagonal left over after elimination is cleared with paired
    shears.  The emitted factors multiply back to the input within ``tol``
    (exactly, for exact input).
    """
    a = linalg.as_matrix(matrix)
    d = len(a)
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    determinant = linalg.det(a)
    if abs(abs(determinant) - 1) > tol:
        raise ValueError(f"matrix determinant {float(determinant)} is not +-1 within {float(tol)}")

    rows = [list(row) for row in a]
    record: list[ElementaryOp] = []

    def left_shear(i, j, lam):
        if lam == 0:
            return
        for k in range(d):
            rows[i][k] += lam * rows[j][k]
        record.append(Shear(i, j, lam))

    def left_flip(i):
        for k in range(d):
            rows[i][k] = -rows[i][k]
        record.append(SignFlip(i))

    def swap_rows(i, j):
        # P_{ij} = E_ij(1) E_ji(-1) E_ij(1) F_i; left-applied rightmost first.
        left_flip(i)
        left_shear(i, j, Fraction(1))
        left_shear(j, i, Fraction(-1))
        left_shear(i, j, Fraction(1))

    for c in range(d):
        pivot_row = max(range(c, d), key=lambda r: abs(rows[r][c]))
        if abs(rows[pivot_row][c]) < _PIVOT_FLOOR:
            raise ValueError("degenerate pivot; input is numerically singular")
        if pivot_row != c:
            swap_rows(c, pivot_row)
        for r in range(c + 1, d):
            left_shear(r, c, -rows[r][c] / rows[c][c])
    for c in range(d - 1, 0, -1):
        for r in range(c):
            left_shear(r, c, -rows[r][c] / rows[c][c])

    # rows is now diagonal; clear it pairwise with diag(s, 1/s) built from
    # six shears, pushing the remaining factor to the last coordinate.
    for c in range(d - 1):
        u = rows[c][c]
        if u == 1:
            continue
        s = 1 / u
        left_shear(c, c + 1, Fraction(-1))
        left_shear(c + 1, c, Fraction(1))
        left_shear(c, c + 1, Fraction(-1))
        left_shear(c, c + 1, s)
        left_shear(c + 1, c, -1 / s)
        left_shear(c, c + 1, s)
    if rows[d - 1][d - 1] < 0:
        left_flip(d - 1)

    emitted = [op.inverse_op() for op in record]
    reconstructed = product_matrix(emitted, d)
    gap = linalg.max_abs_diff(reconstructed, a)
    if gap > tol:
        raise ValueError(f"reconstruction drift {float(gap)} exceeds tolerance")
    return emitted


class FloorMap:
    """A bijection of Z^d given by a sequence of floor shears and sign flips.

    ``ops`` are in product order: the linear parts multiply left to right to
    the target matrix, and evaluation applies the rightmost op first.  The
    inverse reverses the sequence and undoes each floor exactly.
    """

    def __init__(self, ops: Sequence[ElementaryOp], dimension: int, target=None):
        self.ops = tuple(ops)
        self.dimension = dimension
        self.target = product_matrix(self.ops, dimension) if target is None else linalg.as_matrix(target)

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        out = tuple(int(c) for c in v)
        if len(out) != self.dimension:
            raise ValueError("vector has wrong dimension")
        for op in reversed(self.ops):
            out = op.apply_int(out)
        return out

    def inverse(self, w: Sequence[int]) -> tuple[int, ...]:
        out = tuple(int(c) for c in w)
        if len(out) != self.dimension:
            raise ValueError("vector has wrong dimension")
        for op in self.ops:
            out = op.unapply_int(out)
        return out

    def _fits_int64(self, rows: np.ndarray) -> bool:
        """Whether every denominator, coefficient product and intermediate
        coordinate of the evaluation on ``rows``, one row per coordinate
        (shape (d, M)), provably stays below 2^62."""
        bounds = [_row_bound(row) for row in rows]
        for op in reversed(self.ops):
            if isinstance(op, Shear):
                p, q = abs(op.coeff.numerator), op.coeff.denominator
                bounds[op.i] += (p * bounds[op.j]) // q + 1
                if max(p * bounds[op.j], q, bounds[op.i]) >= _INT64_SAFE:
                    return False
        return True

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (M, d) integer array; returns (M, d).

        The points are copied once into one contiguous row per coordinate,
        shape (d, M), so each op updates one row; the result is the (M, d)
        transposed view of those rows.  One op loop: on int64 when
        ``_fits_int64`` proves it safe, otherwise on exact Python integers
        (dtype=object).
        """
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError("vector has wrong dimension")
        dtype = np.int64 if self._fits_int64(points.T) else object
        rows = np.array(points.T, dtype=dtype, order="C")
        for op in reversed(self.ops):
            if isinstance(op, Shear):
                p, q = op.coeff.numerator, op.coeff.denominator
                step = p * rows[op.j]
                rows[op.i] += step if q == 1 else step // q
            else:
                rows[op.i] = -rows[op.i]
        return rows.T


def _row_bound(row: np.ndarray) -> int:
    """max(|x| for x in row), at least 1, read off the row's min and max."""
    return max(-int(row.min(initial=0)), int(row.max(initial=0)), 1)


def realize_bilipschitz(matrix, tol=1e-9) -> FloorMap:
    """Floor-shear realization of a |det| = 1 matrix as a lattice bijection."""
    a = linalg.as_matrix(matrix)
    ops = decompose_unimodular(a, tol)
    return FloorMap(ops, len(a), target=a)


def check_box_budget(radius: int, dimension: int) -> None:
    """Refuse, with ``ValueError`` and before any point is built, a negative
    radius or a box [-radius, radius]^d of more than ``SWEEP_BUDGET`` points."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    count = (2 * radius + 1) ** dimension
    if count > SWEEP_BUDGET:
        raise ValueError(
            f"box [-{radius}, {radius}]^{dimension} has {count} points, over budget {SWEEP_BUDGET}"
        )


def box_points(radius: int, dimension: int) -> np.ndarray:
    """All integer points of the sup-norm ball [-radius, radius]^d, shape
    (M, d), last coordinate fastest.

    The array is the transposed view of one contiguous int64 row per
    coordinate, shape (d, M): ``box_points(r, d).T`` is that row layout."""
    check_box_budget(radius, dimension)
    side = 2 * radius + 1
    rows = np.indices((side,) * dimension, dtype=np.int64).reshape(dimension, -1) - radius
    return rows.T


@dataclass(frozen=True)
class DistanceCertificate:
    """Max sup-norm gap between the realized map and its matrix on boxes.

    ``constant`` is the exact maximum over the swept box of radius
    ``radius``: a sampled value, not a proven bound on all of Z^d.
    ``by_radius`` holds the exact max on nested boxes; a stable value across
    radii is the desk-scale evidence that the gap is uniformly bounded.
    Only ``to_json`` converts them to floats.
    """

    constant: Fraction
    radius: int
    by_radius: dict
    witness: tuple[int, ...] | None

    def to_json(self):
        return {
            "R": self.radius,
            "constant": float(self.constant),
            "by_radius": {str(k): float(v) for k, v in sorted(self.by_radius.items())},
            "witness": None if self.witness is None else list(self.witness),
        }


def bounded_distance_constant(floor_map: FloorMap, matrix, radius: int) -> DistanceCertificate:
    """max over the radius-R sup-norm box of |f(v) - A v|_inf, exactly: the
    maximum over the swept box, a sampled value and not a proven bound on all
    of Z^d.  ``by_radius`` also holds the maximum over each smaller box in
    ``DISTANCE_PROBES``; the witness is the first point attaining the maximum.

    The sweep works on one contiguous row per coordinate, shape (d, M): the
    scaled gap common_den * f_r(v) - sum_k a_rk v_k is formed one coordinate
    row r at a time, on int64 when a static bound proves it safe and on exact
    Python integers otherwise, and its absolute value is folded into a
    running maximum.  Each probe maximum is read off a slice of that maximum
    viewed as the (2R+1)^d grid."""
    a = linalg.as_matrix(matrix)
    d = len(a)
    points = box_points(radius, d)
    images = floor_map.apply_array(points)

    common_den = math.lcm(*(x.denominator for row in a for x in row))
    int_a = [[int(x * common_den) for x in row] for row in a]
    max_entry = max(abs(e) for row in int_a for e in row)
    fast = (
        images.dtype == np.int64
        and common_den * max(_row_bound(row) for row in images.T) < _INT64_SAFE
        and max_entry * max(radius, 1) * d < _INT64_SAFE
    )
    dtype = np.int64 if fast else object
    coords = points.T.astype(dtype, copy=False)
    image_rows = images.T.astype(dtype, copy=False)
    gap_inf = np.zeros(len(points), dtype=dtype)
    for r in range(d):
        gap = common_den * image_rows[r]
        for k, e in enumerate(int_a[r]):
            if e:
                gap -= e * coords[k]
        np.maximum(gap_inf, np.abs(gap, out=gap), out=gap_inf)

    side = 2 * radius + 1
    grid = gap_inf.reshape((side,) * d)
    by_radius = {
        r: Fraction(int(grid[(slice(radius - r, radius + r + 1),) * d].max()), common_den)
        for r in sorted({p for p in DISTANCE_PROBES if p <= radius} | {radius})
    }
    best = int(np.argmax(gap_inf))
    return DistanceCertificate(
        constant=by_radius[radius],
        radius=radius,
        by_radius=by_radius,
        witness=tuple(int(c) for c in points[best]),
    )


def injectivity_check_on_box(f, radius: int, dimension: int | None = None) -> CheckResult:
    """Exhaustively check injectivity of an integer map on [-R, R]^d.

    Accepts a FloorMap or any callable on integer tuples (the falsifiable
    route; FloorMaps are bijective by construction).  ``checked`` counts the
    points swept; a collision stops the sweep, and its witness is the pair
    of points with one image.
    """
    if dimension is None:
        if not isinstance(f, FloorMap):
            raise ValueError("dimension is required for a bare callable")
        dimension = f.dimension
    points = box_points(radius, dimension)
    if isinstance(f, FloorMap):
        images = [tuple(int(c) for c in row) for row in f.apply_array(points)]
    else:
        images = [tuple(int(c) for c in f(tuple(row))) for row in points.tolist()]
    seen: dict[tuple, tuple] = {}
    witnesses = []
    for row, image in zip(points.tolist(), images):
        if image in seen:
            witnesses.append((seen[image], tuple(row)))
            break
        seen[image] = tuple(row)
    return CheckResult(
        name="injectivity",
        checked=len(seen) + len(witnesses),
        witnesses=witnesses,
        coverage={"R": radius, "dimension": dimension},
    )


@dataclass(frozen=True)
class ExtractedMap:
    """A map recovered from an orbit cocycle, with its Lipschitz certificate."""

    mapping: dict
    constant: int
    report: CheckResult

    def __call__(self, g):
        return self.mapping[g]


def extract_bilipschitz_from_cocycle(morphism, basepoint, radius: int) -> ExtractedMap:
    """Recover g -> cocycle(g^-1, basepoint)^-1 on a ball and certify it.

    The cocycle is that of ``morphism``, on the generating sets of its two
    systems.  The certificate constant is the longest target word the
    cocycle assigns to a source generator anywhere on the morphism's source
    points; the returned report is a two-sided Lipschitz sweep with that
    constant.
    """
    source = morphism.source.gens
    target = morphism.target.gens
    mapping = {g: morphism.evaluate(g.inverse(), basepoint).inverse() for g in source.ball(radius)}
    constant = 0
    for s in source.elements:
        for x in morphism.source.points:
            constant = max(constant, target.word_length(morphism.evaluate(s, x)))
    constant = max(constant, 1)
    report = is_bilipschitz_on_ball(mapping.__getitem__, radius, constant, source, target)
    return ExtractedMap(mapping=mapping, constant=constant, report=report)
