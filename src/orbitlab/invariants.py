"""Exterior algebra over R^d and the invariant matrix of an orbit cocycle.

The graded algebra realizes the cohomology of the lattice: degree-one is
R^d, a matrix acts on degree k through its k-th exterior power, and the top
degree is scaled by the determinant.  The invariant matrix of a cocycle is
recovered from its large-scale growth: column i is the averaged inverse of
the cocycle value at (n e_i)^-1 divided by n, exact over the rationals, with
an O(C/n) error bound when the cocycle stays within distance C of a linear
map.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .checks import CheckResult
from .groups import LatticeGroup
from .morphisms import Morphism, compose_morphisms
from .odometer import DigitPoint


class ExteriorElement:
    """A graded element: coefficients indexed by subsets of {0..d-1}."""

    __slots__ = ("dimension", "coeffs")

    def __init__(self, dimension: int, coeffs: dict | None = None):
        self.dimension = dimension
        self.coeffs = {
            frozenset(k): linalg.as_scalar(v)
            for k, v in (coeffs or {}).items()
            if v != 0
        }
        for subset in self.coeffs:
            if any(not 0 <= i < dimension for i in subset):
                raise ValueError("index out of range for this dimension")

    @classmethod
    def basis_vector(cls, dimension: int, i: int) -> "ExteriorElement":
        return cls(dimension, {frozenset([i]): 1})

    @classmethod
    def blade(cls, dimension: int, indices: Sequence[int]) -> "ExteriorElement":
        element = cls(dimension, {frozenset(): 1})
        for i in indices:
            element = wedge(element, cls.basis_vector(dimension, i))
        return element

    def coefficient(self, indices) -> Fraction:
        return self.coeffs.get(frozenset(indices), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorElement)
            and other.dimension == self.dimension
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for s in sorted(self.coeffs, key=lambda s: (len(s), sorted(s))):
            blade = "^".join(f"e{i+1}" for i in sorted(s)) or "1"
            terms.append(f"{self.coeffs[s]}*{blade}")
        return " + ".join(terms)


def _shuffle_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of merging two disjoint sorted index tuples."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def wedge(u: ExteriorElement, v: ExteriorElement) -> ExteriorElement:
    """Graded antisymmetric product with shuffle signs."""
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    out: dict[frozenset, Fraction] = {}
    for s, a in u.coeffs.items():
        for t, b in v.coeffs.items():
            if s & t:
                continue
            sign = _shuffle_sign(tuple(sorted(s)), tuple(sorted(t)))
            key = s | t
            out[key] = out.get(key, Fraction(0)) + sign * a * b
    return ExteriorElement(u.dimension, out)


def _minor(matrix: linalg.Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    sub = tuple(tuple(matrix[r][c] for c in cols) for r in rows)
    return linalg.det(sub) if sub else Fraction(1)


class InducedAlgebraMap:
    """The graded action of a matrix: exterior powers in every degree.

    Degree one is the matrix itself; a degree-k basis blade e_S maps to the
    sum over size-k subsets T of the (T, S) minor times e_T; the top degree
    is multiplication by the determinant.
    """

    def __init__(self, matrix):
        self.matrix = linalg.as_matrix(matrix)
        self.dimension = len(self.matrix)
        self._blade_images: dict[frozenset, dict[frozenset, Fraction]] = {}

    def _image_of_blade(self, subset: frozenset) -> dict[frozenset, Fraction]:
        if subset not in self._blade_images:
            cols = sorted(subset)
            images = {}
            for rows in itertools.combinations(range(self.dimension), len(cols)):
                value = _minor(self.matrix, rows, cols)
                if value != 0:
                    images[frozenset(rows)] = value
            self._blade_images[subset] = images
        return self._blade_images[subset]

    def apply(self, element: ExteriorElement) -> ExteriorElement:
        if element.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        out: dict[frozenset, Fraction] = {}
        for subset, coeff in element.coeffs.items():
            for target, value in self._image_of_blade(subset).items():
                out[target] = out.get(target, Fraction(0)) + coeff * value
        return ExteriorElement(self.dimension, out)

    def corrupted(self, subset, target, value) -> "InducedAlgebraMap":
        """A copy with one blade-image entry overridden (negative control)."""
        clone = InducedAlgebraMap(self.matrix)
        images = dict(self._image_of_blade(frozenset(subset)))
        images[frozenset(target)] = linalg.as_scalar(value)
        clone._blade_images[frozenset(subset)] = images
        return clone


@dataclass(frozen=True)
class InvariantMatrix:
    """The recovered d x d matrix with its exact determinant and provenance.

    ``matrix`` acts on the bounded-distance (covariant) side; the action on
    degree-one cohomology is the transpose, exposed as ``cohomology_side``.
    """

    matrix: linalg.Matrix
    error_bound: float | None
    provenance: dict

    def determinant(self) -> Fraction:
        return linalg.det(self.matrix)

    @property
    def cohomology_side(self) -> linalg.Matrix:
        return linalg.transpose(self.matrix)

    def induced(self) -> InducedAlgebraMap:
        return InducedAlgebraMap(self.matrix)

    def to_json(self):
        return {
            "matrix": linalg.matrix_to_json(self.matrix),
            "cohomology_side": linalg.matrix_to_json(self.cohomology_side),
            "det": float(self.determinant()),
            "error_bound": self.error_bound,
            "provenance": {
                k: (float(v) if isinstance(v, Fraction) else v)
                for k, v in self.provenance.items()
            },
        }


def recover_invariant_matrix(
    morphism: Morphism, n: int, samples: Sequence | None = None
) -> InvariantMatrix:
    """Recover the linear part of a morphism's cocycle from its growth at scale n.

    Column i is the average over sample points x of
    cocycle((n e_i)^-1, x)^-1 / n, computed in exact rational arithmetic.
    By the cocycle identity this is cocycle(n e_i, (n e_i)^-1 . x) / n, read
    without moving x: recovery evaluates the cocycle and never acts.  When
    the cocycle stays within sup-distance C of a linear map, every entry is
    within C/n of that map; the attached error bound is C/n with C the
    morphism's ``constant``.
    """
    if n < 1:
        raise ValueError("growth scale n must be >= 1")
    group = morphism.source.group
    if not isinstance(group, LatticeGroup):
        raise ValueError("invariant recovery needs a lattice source group")
    d = group.dimension
    samples = tuple(samples) if samples is not None else morphism.source.points
    if not samples:
        raise ValueError("need at least one sample point")
    constant = morphism.constant

    columns = []
    for i in range(d):
        back = group.basis_vector(i, -n)
        total = [Fraction(0)] * d
        for x in samples:
            value = morphism.evaluate(back, x).inverse()
            for k, coord in enumerate(value.coords):
                total[k] += Fraction(coord, n)
        columns.append([t / len(samples) for t in total])
    matrix = tuple(tuple(columns[j][i] for j in range(d)) for i in range(d))
    bound = None if constant is None else float(linalg.as_scalar(constant) / n)
    # The measure behind the average is a reporting field: odometer points
    # are sampled Haar-uniformly, germ samples carry no canonical measure.
    measure = (
        "haar-uniform-sample-average"
        if all(isinstance(x, DigitPoint) for x in samples)
        else "sample-average"
    )
    return InvariantMatrix(
        matrix=matrix,
        error_bound=bound,
        provenance={
            "n": n,
            "samples": len(samples),
            "constant": None if constant is None else float(constant),
            "cocycle": morphism.kind,
            "measure": measure,
        },
    )


def recovery_check(invariant: InvariantMatrix, matrix, bound=0) -> CheckResult:
    """The recovered invariant lies within ``bound`` of ``matrix`` entrywise.

    One matrix comparison; each entry off by more than the bound is a
    witness.  The default bound 0 asks for exact recovery, as a constant
    cocycle gives; a cocycle within distance C of the matrix gets C/n.
    """
    a = linalg.as_matrix(matrix)
    bound = linalg.as_scalar(bound)
    gap = linalg.max_abs_diff(invariant.matrix, a)
    witnesses = [
        ((i, j), str(m), str(x))
        for i, (m_row, a_row) in enumerate(zip(invariant.matrix, a))
        for j, (m, x) in enumerate(zip(m_row, a_row))
        if abs(m - x) > bound
    ]
    return CheckResult(
        name="matrix-recovery",
        checked=1,
        witnesses=witnesses,
        coverage={"gap": float(gap), "bound": float(bound)},
        notes=f"|M - A|max = {float(gap):.3g} {'>' if witnesses else '<='} C/n = {float(bound):.3g}",
    )


def check_det_pm1(matrix, tol) -> CheckResult:
    """||det matrix| - 1| <= tol, exactly."""
    determinant = linalg.det(linalg.as_matrix(matrix))
    gap = abs(abs(determinant) - 1)
    tol = linalg.as_scalar(tol)
    return CheckResult(
        name="det-pm1",
        checked=1,
        witnesses=[] if gap <= tol else [float(determinant)],
        coverage={"tol": float(tol)},
        notes=f"det={float(determinant):.12g}",
    )


def multiplicativity_check(induced: InducedAlgebraMap) -> CheckResult:
    """``induced`` is an algebra homomorphism on all basis blade pairs,
    exactly: every coefficient is a ``Fraction``, compared with ``==``.  A
    matrix's map is ``InducedAlgebraMap(matrix)``; ``corrupted`` gives the
    negative control."""
    d = induced.dimension
    checked = 0
    witnesses = []
    subsets = [
        tuple(s)
        for size in range(d + 1)
        for s in itertools.combinations(range(d), size)
    ]
    for left, right in itertools.product(subsets, repeat=2):
        if set(left) & set(right):
            continue
        u = ExteriorElement.blade(d, left)
        v = ExteriorElement.blade(d, right)
        checked += 1
        if induced.apply(wedge(u, v)) != wedge(induced.apply(u), induced.apply(v)):
            witnesses.append((left, right))
    return CheckResult(
        name="multiplicativity",
        checked=checked,
        witnesses=witnesses,
        coverage={"dimension": d},
    )


def functoriality_check(eta: Morphism, theta: Morphism, n: int) -> CheckResult:
    """Invariant of the composite vs the product of invariants.

    For constant (exact) cocycles the two matrices must agree exactly.  For
    cocycles within sup-distance C of linear maps B and A the budget adds
    the three drift sources: the composite recovery, off by
    (C_eta + |B| C_theta)/n; the factor (M_eta - B) M_theta, off by
    d max|M_theta| C_eta/n; and B (M_theta - A), off by |B| C_theta/n,
    with |B| estimated through M_eta.
    """
    composed = compose_morphisms(eta, theta)
    m_eta = recover_invariant_matrix(eta, n)
    m_theta = recover_invariant_matrix(theta, n)
    m_comp = recover_invariant_matrix(composed, n)
    product = linalg.mat_mul(m_eta.matrix, m_theta.matrix)
    gap = linalg.max_abs_diff(m_comp.matrix, product)

    c_eta = linalg.as_scalar(eta.constant or 0)
    c_theta = linalg.as_scalar(theta.constant or 0)
    if c_eta == 0 and c_theta == 0:
        budget = Fraction(0)
    else:
        d = len(product)
        norm_b = linalg.row_sum_norm(m_eta.matrix) + Fraction(d) * c_eta / n
        budget = (
            (c_eta + norm_b * c_theta) / n
            + Fraction(d) * linalg.max_abs(m_theta.matrix) * c_eta / n
            + norm_b * c_theta / n
        )
    return CheckResult(
        name="functoriality",
        checked=1,
        witnesses=[] if gap <= budget else [float(gap)],
        coverage={"n": n, "budget": float(budget), "gap": float(gap)},
        notes=f"composite kind {composed.kind}",
    )
