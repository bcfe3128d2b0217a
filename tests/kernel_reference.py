"""The element-at-a-time paths that the library's integer kernels replaced.

* ``apply_op`` / ``unapply_op`` / ``fold`` / ``unfold``: one floor shear or
  sign flip at a time on a tuple, its coefficient read as a ``Fraction``;
  ``FloorMap`` runs one compiled integer program instead.
* ``build_members``: one ``translate_table`` per (g0, delta);
  ``TruncatedMapSpace._build`` forms every base in one gather of the seed
  rows instead.
* ``ExteriorElement``, ``wedge``, ``induced_apply`` and ``multiplicativity``:
  the exterior algebra over the rationals, every blade image a ``Fraction``
  minor; ``multiplicativity_check`` reads integer minors of L M instead.
* ``fraction_det``: Gaussian elimination over ``Fraction``; ``linalg.det``
  runs Bareiss on integers instead.

The property tests compare each library kernel with its reference here.
"""
import itertools
from fractions import Fraction

from orbitlab import linalg
from orbitlab.checks import CheckResult
from orbitlab.mapspace import MapGerm
from orbitlab.shears import Shear

# -- floor maps, one op at a time


def apply_op(op, v: tuple) -> tuple:
    out = list(v)
    if isinstance(op, Shear):
        p, q = op.coeff.numerator, op.coeff.denominator
        out[op.i] += (p * v[op.j]) // q
    else:
        out[op.i] = -out[op.i]
    return tuple(out)


def unapply_op(op, w: tuple) -> tuple:
    # coordinate j is untouched by the shear, so the same floor is subtracted
    if not isinstance(op, Shear):
        return apply_op(op, w)
    p, q = op.coeff.numerator, op.coeff.denominator
    out = list(w)
    out[op.i] -= (p * w[op.j]) // q
    return tuple(out)


def fold(floor_map, v) -> tuple:
    out = tuple(int(c) for c in v)
    for op in reversed(floor_map.ops):
        out = apply_op(op, out)
    return out


def unfold(floor_map, w) -> tuple:
    out = tuple(int(c) for c in w)
    for op in floor_map.ops:
        out = unapply_op(op, out)
    return out


# -- the translate space, one translate table per (g0, delta)


def build_members(space) -> list:
    """The members ``_build`` makes, as (provenance, flat table) in member
    order: every base by its own ``translate_table``, the first g0 of each
    distinct table kept, then one ``translate_table`` per (base, delta),
    sorted by ``MapGerm.key``."""
    bases = {}
    group = space.target_gens.group
    identity_target = group.identity()
    for g0 in space.source_gens.ball(space.translate_radius):
        base = space.translate_table(g0, identity_target, space.radius)
        bases.setdefault(MapGerm(space.source_gens, space.radius, group, base).key(), (g0, base))
    members = []
    for g0, base in bases.values():
        for delta in space.target_gens.ball(space.offset_radius):
            table = base if delta == identity_target else space.translate_table(g0, delta, space.radius)
            members.append(MapGerm(space.source_gens, space.radius, group, table, provenance=(g0, delta)))
    return [(germ.provenance, germ.key()) for germ in sorted(members, key=MapGerm.key)]


# -- the exterior algebra over the rationals


def fraction_det(a) -> Fraction:
    """Gaussian elimination over ``Fraction``, one pivot division per row."""
    d = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(d):
        pivot_row = next((r for r in range(c, d) if m[r][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot = m[c][c]
        result *= pivot
        for r in range(c + 1, d):
            factor = m[r][c] / pivot
            for k in range(c, d):
                m[r][k] -= factor * m[c][k]
    return sign * result


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
    def blade(cls, dimension: int, indices) -> "ExteriorElement":
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


def shuffle_sign(left: tuple, right: tuple) -> int:
    """Sign of merging two disjoint sorted index tuples."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def wedge(u: ExteriorElement, v: ExteriorElement) -> ExteriorElement:
    """Graded antisymmetric product with shuffle signs."""
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for s, a in u.coeffs.items():
        for t, b in v.coeffs.items():
            if s & t:
                continue
            sign = shuffle_sign(tuple(sorted(s)), tuple(sorted(t)))
            key = s | t
            out[key] = out.get(key, Fraction(0)) + sign * a * b
    return ExteriorElement(u.dimension, out)


def blade_image(induced, subset) -> dict:
    """The image of e_S: each nonzero (T, S) minor of the matrix, a
    ``Fraction`` determinant, at T; then the entries ``corrupted`` set."""
    cols = sorted(subset)
    images = {}
    for rows in itertools.combinations(range(induced.dimension), len(cols)):
        value = fraction_det([[induced.matrix[r][c] for c in cols] for r in rows])
        if value != 0:
            images[frozenset(rows)] = value
    for (s, t), value in induced.overrides.items():
        if s == frozenset(subset):
            images[t] = value
    return images


def induced_apply(induced, element: ExteriorElement) -> ExteriorElement:
    if element.dimension != induced.dimension:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for subset, coeff in element.coeffs.items():
        for target, value in blade_image(induced, subset).items():
            out[target] = out.get(target, Fraction(0)) + coeff * value
    return ExteriorElement(induced.dimension, out)


def multiplicativity(induced) -> CheckResult:
    """Lambda(u ^ v) == Lambda(u) ^ Lambda(v) on every disjoint pair of
    basis blades, on ``ExteriorElement``s."""
    d = induced.dimension
    checked = 0
    witnesses = []
    subsets = [tuple(s) for size in range(d + 1) for s in itertools.combinations(range(d), size)]
    for left, right in itertools.product(subsets, repeat=2):
        if set(left) & set(right):
            continue
        u = ExteriorElement.blade(d, left)
        v = ExteriorElement.blade(d, right)
        checked += 1
        if induced_apply(induced, wedge(u, v)) != wedge(induced_apply(induced, u), induced_apply(induced, v)):
            witnesses.append((left, right))
    return CheckResult(name="multiplicativity", checked=checked, witnesses=witnesses, coverage={"dimension": d})
