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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .odometer import SWEEP_BUDGET

# The default tolerance of a decomposition: exactly the 1/10^9 that the
# CLI's "1e-9" parses to.
DEFAULT_TOL = Fraction(1, 10**9)

# The box radii below the certificate's own at which the certificate also
# reports the maximum distance.
DISTANCE_PROBES = (10, 25, 50)

# The default certificate box radius of ``realize`` and of every realized
# morphism.
CERTIFICATE_RADIUS = 50


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
    """The ops' linear parts multiplied left to right, by column operations
    on the identity: multiplying on the right by a shear adds coeff times
    column i into column j, and by a sign flip negates column i."""
    columns = [list(column) for column in linalg.identity(d)]
    for op in ops:
        if isinstance(op, Shear):
            columns[op.j] = [x + op.coeff * y for x, y in zip(columns[op.j], columns[op.i])]
        else:
            columns[op.i] = [-x for x in columns[op.i]]
    return tuple(zip(*columns))


def decompose_unimodular(matrix, tol=DEFAULT_TOL) -> list[ElementaryOp]:
    """Write a |det| = 1 matrix as shears and sign flips, in product order.

    Gaussian elimination with partial pivoting; pivot-driven row swaps are
    emitted through the identity  swap = shear * shear * shear * sign_flip,
    and the diagonal left over after elimination is cleared with paired
    shears.  The emitted factors multiply back to the input within ``tol``
    (exactly, for exact input).
    """
    a = linalg.as_matrix(matrix)
    d = len(a)
    tol = linalg.as_scalar(tol)
    determinant = linalg.det(a)
    if abs(abs(determinant) - 1) > tol:
        det_text, tol_text = linalg.scalar_to_str(determinant), linalg.scalar_to_str(tol)
        raise ValueError(f"matrix determinant {det_text} is not +-1 within {tol_text}")

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
        # Exact pivots: with |det| within tol < 1 of 1 the matrix is
        # invertible and no pivot is zero, so only tol >= 1 reaches this.
        if rows[pivot_row][c] == 0:
            raise ValueError("zero pivot; the matrix is singular")
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
        raise ValueError(f"reconstruction drift {linalg.scalar_to_str(gap)} exceeds tolerance")
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

    def period(self, k: int) -> tuple[int, tuple[Fraction, ...]]:
        """A period N_k of the map along e_k, and column k of its linear part
        B, the product of the ops: f(v + N_k e_k) = f(v) + N_k B e_k.

        The shift u = e_k is carried through the linear parts of the ops,
        rightmost first.  A shift by N u moves the floor argument of
        v_i += floor(c v_j) by N c u_j, an integer when den(c u_j) divides
        N, and moves coordinate i by that integer; N_k is the lcm of those
        denominators over the shears, a divisor of the product of the
        coefficients' denominators."""
        u = [Fraction(int(r == k)) for r in range(self.dimension)]
        n = 1
        for op in reversed(self.ops):
            if isinstance(op, Shear):
                step = op.coeff * u[op.j]
                n = math.lcm(n, step.denominator)
                u[op.i] += step
            else:
                u[op.i] = -u[op.i]
        return n, tuple(u)

    def _bound_chain(self, bounds: Sequence[int]) -> tuple[type, list[int]]:
        """The narrowest sweep dtype for an evaluation whose coordinate k has
        magnitude at most ``bounds[k]`` (each at least 1), and a bound on each
        image coordinate, in one pass over the ops, rightmost first.

        A shear v_i += floor(p v_j / q) grows bound i by |p| b_j // q + 1;
        a sign flip keeps every bound.  The dtype is the first rung of
        ``linalg.rung`` that holds every input bound, product |p| b_j (which
        bounds the multiplier p), divisor q and updated bound on the way."""
        bounds = list(bounds)
        peak = max(bounds)
        for op in reversed(self.ops):
            if isinstance(op, Shear):
                p, q = abs(op.coeff.numerator), op.coeff.denominator
                product = p * bounds[op.j]
                bounds[op.i] += product // q + 1
                peak = max(peak, product, q, bounds[op.i])
        return linalg.rung(peak), bounds

    def apply_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (M, d) integer array; returns (M, d).

        The points are copied once into one contiguous row per coordinate,
        shape (d, M), and each op updates one row in place, through one
        scratch row for the product and floor; the result is the (M, d)
        transposed view of those rows.  One op loop, on the rung that
        ``_bound_chain`` proves from the input's row bounds.
        """
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError("vector has wrong dimension")
        dtype, _ = self._bound_chain([linalg.array_bound(row) for row in points.T])
        rows = np.array(points.T, dtype=dtype, order="C")
        step = np.empty(rows.shape[1], dtype=dtype)
        for op in reversed(self.ops):
            if isinstance(op, Shear):
                p, q = op.coeff.numerator, op.coeff.denominator
                np.multiply(rows[op.j], p, out=step)
                if q != 1:
                    np.floor_divide(step, q, out=step)
                rows[op.i] += step
            else:
                np.negative(rows[op.i], out=rows[op.i])
        return rows.T


def realize_bilipschitz(matrix, tol=DEFAULT_TOL) -> FloorMap:
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
    (M, d), last coordinate fastest: the whole box at once, the reference
    order of the box (``bounded_distance_constant`` sweeps a sub-box of it,
    in the same order, in blocks instead).

    The array is the transposed view of one contiguous int64 row per
    coordinate, shape (d, M): ``box_points(r, d).T`` is that row layout."""
    check_box_budget(radius, dimension)
    side = 2 * radius + 1
    rows = np.indices((side,) * dimension, dtype=np.int64).reshape(dimension, -1) - radius
    return rows.T


# Points per block of the distance-certificate sweep: a block's rows and
# temporaries stay in cache, and numpy's per-call cost is spread over enough
# points.
_SWEEP_BLOCK = 32768


def _box_blocks(shape: Sequence[int], radius: int, dtype):
    """The points of the sub-box prod_k [-radius, -radius + shape[k]) of the
    box [-radius, radius]^d, in ``box_points`` order, as consecutive (d, M)
    row blocks of ``dtype`` of at most ``_SWEEP_BLOCK`` points; each side
    is at most 2 * radius + 1, so the flat indices and coordinates below stay
    within ``SWEEP_BUDGET`` and any rung of ``linalg.rung`` holds them.

    Every block is a view of one buffer that the next block overwrites.  The
    first coordinate of flat index n is n // slab - radius, where a slab is
    the prod(shape[1:]) points sharing it; the trailing coordinates repeat
    with period slab, so each block copies them out of one tiled run of
    slabs (in dimension 1 there are none, and a slab is one point)."""
    slab = math.prod(shape[1:])
    total = shape[0] * slab
    block = min(_SWEEP_BLOCK, total)
    tail = np.indices(shape[1:], dtype=dtype).reshape(len(shape) - 1, slab) - radius
    tail = np.tile(tail, -(-(block + slab - 1) // slab))
    buffer = np.empty((len(shape), block), dtype=dtype)
    for start in range(0, total, block):
        stop = min(start + block, total)
        rows = buffer[:, : stop - start]
        np.floor_divide(np.arange(start, stop, dtype=dtype), slab, out=rows[0])
        rows[0] -= radius
        offset = start % slab
        rows[1:] = tail[:, offset : offset + stop - start]
        yield rows


def _residue_slices(radius: int, r: int, period: int) -> tuple[slice, ...]:
    """The offsets (x + radius) mod period of x in [-r, r], as one or two
    slices of an axis of length ``period``: all of it, one run, or a run
    that wraps past its end."""
    if 2 * r + 1 >= period:
        return (slice(None),)
    start = (radius - r) % period
    stop = start + 2 * r + 1
    if stop <= period:
        return (slice(start, stop),)
    return slice(start, period), slice(0, stop - period)


@dataclass(frozen=True)
class DistanceCertificate:
    """Max sup-norm gap between the realized map and its matrix on boxes.

    ``constant`` is the exact maximum over the box of radius ``radius``: a
    sampled value, not a proven bound on all of Z^d.  ``by_radius`` holds
    the exact max on nested boxes; a stable value across radii is the
    desk-scale evidence that the gap is uniformly bounded.  ``witness`` is
    the first point of the box, in ``box_points`` order, attaining
    ``constant``.  All three are those of the whole box even where the sweep
    reads them off one period per coordinate (see
    ``bounded_distance_constant``).  Only ``to_json`` converts them to
    floats.
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
    maximum over the box, a sampled value and not a proven bound on all of
    Z^d.  ``by_radius`` also holds the maximum over each smaller box in
    ``DISTANCE_PROBES``; the witness is the first point attaining the maximum.

    Periods.  ``FloorMap.period(k)`` gives N_k and column k of the ops'
    product B with f(v + N_k e_k) = f(v) + N_k B e_k.  Where B e_k = A e_k
    (for every k when B = A), the gap g(v) = f(v) - A v has period N_k along
    e_k, so only P_k = min(N_k, 2R+1) values of coordinate k are swept;
    elsewhere P_k = 2R+1.  The sweep covers the sub-box
    prod_k [-R, -R + P_k), and box point v reads the gap of its
    representative r_k = -R + (v_k + R) mod P_k.  Each probe maximum is the
    maximum over the residues of [-r, r] mod P_k, one or two slices per
    axis (views only).  Witness: r <= v coordinate by coordinate and r lies
    in the box, so r comes no later than v in box order; the first
    maximizer of the box is therefore its own representative, and is the
    first maximizer of the sub-box, in the same order.

    The box is refused by ``check_box_budget`` before anything is built.
    One static bound then picks the sweep dtype: ``FloorMap._bound_chain`` at
    coordinate bound max(R, 1) gives the map's rung and image bounds b_r, and
    the scaled gap common_den * f_r(v) - sum_k a_rk v_k of row r stays within
    common_den * b_r + max(R, 1) * sum_k |a_rk| on the way; the sweep runs on
    the wider of the two rungs (sub-box coordinates lie in [-R, R]).  The
    sub-box is swept in blocks of ``_SWEEP_BLOCK`` points in ``box_points``
    order, built in that dtype, each one (d, M) row block through
    ``FloorMap.apply_array``; per block the scaled gap is formed one
    coordinate row at a time and its absolute value folded into that
    block's slice of one running maximum over the sub-box, held in the same
    dtype."""
    a = linalg.as_matrix(matrix)
    d = len(a)
    check_box_budget(radius, d)
    common_den = math.lcm(*(x.denominator for row in a for x in row))
    int_a = [[int(x * common_den) for x in row] for row in a]
    coord = max(radius, 1)
    rung, image_bounds = floor_map._bound_chain([coord] * floor_map.dimension)
    gap_bound = max(common_den * b + coord * sum(map(abs, row)) for b, row in zip(image_bounds, int_a))
    dtype = max(rung, linalg.rung(gap_bound), key=linalg.WIDTHS.index)

    side = 2 * radius + 1
    shape = []
    for k in range(d):
        period, column = floor_map.period(k)
        shape.append(min(period, side) if column == tuple(row[k] for row in a) else side)
    gap_inf = np.zeros(math.prod(shape), dtype=dtype)
    start = 0
    for block in _box_blocks(shape, radius, dtype):
        images = floor_map.apply_array(block.T).T.astype(dtype, copy=False)
        stop = start + block.shape[1]
        block_max = gap_inf[start:stop]
        gap = np.empty(block.shape[1], dtype=dtype)
        term = np.empty_like(gap)
        for r in range(d):
            np.multiply(images[r], common_den, out=gap)
            for k, e in enumerate(int_a[r]):
                if e:
                    gap -= np.multiply(block[k], e, out=term)
            np.maximum(block_max, np.abs(gap, out=gap), out=block_max)
        start = stop

    grid = gap_inf.reshape(shape)
    by_radius = {}
    for r in sorted({p for p in DISTANCE_PROBES if p <= radius} | {radius}):
        axes = [_residue_slices(radius, r, period) for period in shape]
        peak = max(int(grid[view].max()) for view in itertools.product(*axes))
        by_radius[r] = Fraction(peak, common_den)
    best = np.unravel_index(int(np.argmax(gap_inf)), grid.shape)
    return DistanceCertificate(
        constant=by_radius[radius],
        radius=radius,
        by_radius=by_radius,
        witness=tuple(int(c) - radius for c in best),
    )
