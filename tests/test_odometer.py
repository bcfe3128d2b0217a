import itertools
import math
import random
from fractions import Fraction

from unittest.mock import patch

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from orbitlab import batteries, cli, fullgroup, linalg, odometer
from orbitlab.checks import CheckResult
from orbitlab.fullgroup import (
    FullGroupElement,
    compose,
    conjugate_by_translation,
    spatial_realization_gap,
)
from orbitlab.groups import LatticeGroup
from orbitlab.odometer import (
    ClopenSet,
    Cylinder,
    DigitPoint,
    OdometerSpace,
    bijectivity_check_at_depth,
    haar_invariance_check,
    matrix_act,
    matrix_equivariance_check,
    minimality_witness,
    odometer_add,
)


def point(space, text_per_coord):
    """Build a point from least-significant-first digit strings."""
    return space.point_from_values(
        [sum(int(ch) * p**k for k, ch in enumerate(text)) for text, p in zip(text_per_coord, space.bases)]
    )


class TestAdd:
    def test_wrap_mod8(self):
        sp = OdometerSpace((2,), 3)
        assert odometer_add(point(sp, ["111"]), (1,), sp) == point(sp, ["000"])

    def test_single_carry_base3(self):
        sp = OdometerSpace((3,), 4)
        assert odometer_add(point(sp, ["2000"]), (1,), sp) == point(sp, ["0100"])

    def test_zero_vector_is_identity(self):
        sp = OdometerSpace((2, 3), 3)
        x = sp.point_from_values((5, 11))
        assert odometer_add(x, (0, 0), sp) == x

    @settings(max_examples=100)
    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=0, max_value=71),
    )
    def test_action_law(self, u, v, value):
        sp = OdometerSpace((2, 3), 2)
        x = sp.point_from_values((value % 4, value % 9))
        left = odometer_add(odometer_add(x, (u, u), sp), (v, v), sp)
        assert left == odometer_add(x, (u + v, u + v), sp)

    def test_malformed_points_rejected_on_every_call(self):
        sp = OdometerSpace((2,), 3)
        for bad in (DigitPoint((8,), sp), DigitPoint((-1,), sp), DigitPoint((1, 1), sp),
                    OdometerSpace((2,), 4).zero()):
            with pytest.raises(ValueError):
                odometer_add(bad, (1,), sp)
            with pytest.raises(ValueError):
                matrix_act([[1]], bad, sp)
        with pytest.raises(ValueError, match="dimension"):
            odometer_add(sp.zero(), (1, 1), sp)

    def test_measure_serialization(self):
        sp = OdometerSpace((3, 3), 4)
        cyl = ClopenSet((Cylinder(((0, 1), (2, 2))),))
        text = str(cyl.measure(sp))
        assert text == "1/81"
        assert Fraction(text) == Fraction(1, 81)


class TestMeasure:
    def test_whole_space(self):
        sp = OdometerSpace((3, 3), 4)
        assert sp.whole_space().measure(sp) == 1

    def test_depth_two_prefix_both_coords(self):
        sp = OdometerSpace((3, 3), 4)
        cyl = ClopenSet((Cylinder(((0, 1), (2, 2))),))
        assert cyl.measure(sp) == Fraction(1, 81)

    def test_additivity(self):
        sp = OdometerSpace((2,), 3)
        one = Cylinder(((0,),))
        other = Cylinder(((1, 0),))
        union = ClopenSet((one, other))
        assert union.measure(sp) == one.measure(sp) + other.measure(sp)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ClopenSet((Cylinder(((0,),)), Cylinder(((0, 1),))))

    def test_validate_rejects_prefix_longer_than_depth(self):
        sp = OdometerSpace((2,), 3)
        with pytest.raises(ValueError, match="longer than truncation depth"):
            ClopenSet((Cylinder(((0, 1, 0, 1),)),)).validate(sp)

    def test_validate_rejects_digit_out_of_range(self):
        sp = OdometerSpace((3, 3), 2)
        with pytest.raises(ValueError, match="digit out of range"):
            ClopenSet((Cylinder(((0, 3), ())),)).validate(sp)

    def test_translation_preserves_depth_k_measures(self):
        sp = OdometerSpace((2, 3), 3)
        rng = random.Random(3)
        for _ in range(50):
            x = sp.random_point(rng)
            k = rng.randint(0, 3)
            cyl = sp.depth_cylinder(x, k)
            g = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert cyl.translate(g, sp).measure(sp) == cyl.measure(sp)


class TestMatrixAction:
    def test_identity(self):
        sp = OdometerSpace((2, 2), 3)
        x = sp.point_from_values((3, 5))
        assert matrix_act([[1, 0], [0, 1]], x, sp) == x

    def test_shear_example(self):
        # values (1, 2) -> (3, 2) under [[1,1],[0,1]] mod 8
        sp = OdometerSpace((2, 2), 3)
        x = sp.point_from_values((1, 2))
        assert matrix_act([[1, 1], [0, 1]], x, sp).residues == (3, 2)

    def test_equivariance_spot(self):
        sp = OdometerSpace((2, 2), 3)
        a = [[1, 1], [0, 1]]
        rng = random.Random(0)
        for _ in range(100):
            x = sp.random_point(rng)
            g = (rng.randint(-3, 3), rng.randint(-3, 3))
            image_g = [int(v) for v in linalg.mat_vec(linalg.as_matrix(a), g)]
            assert matrix_act(a, odometer_add(x, g, sp), sp) == odometer_add(
                matrix_act(a, x, sp), image_g, sp
            )

    def test_composition_law(self):
        sp = OdometerSpace((3, 3), 3)
        rng = random.Random(1)
        mats = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]]]
        for _ in range(30):
            a, b = rng.choice(mats), rng.choice(mats)
            ab = [[int(v) for v in row] for row in linalg.mat_mul(linalg.as_matrix(a), linalg.as_matrix(b))]
            x = sp.random_point(rng)
            assert matrix_act(ab, x, sp) == matrix_act(a, matrix_act(b, x, sp), sp)

    def test_non_unimodular_rejected(self):
        sp = OdometerSpace((2, 2), 3)
        with pytest.raises(ValueError, match="determinant"):
            matrix_act([[2, 0], [0, 1]], sp.zero(), sp)

    def test_mixed_bases_rejected(self):
        sp = OdometerSpace((2, 3), 3)
        with pytest.raises(ValueError, match="equal bases"):
            matrix_act([[1, 1], [0, 1]], sp.zero(), sp)


class TestDepthBijectivity:
    def test_identity(self):
        assert bijectivity_check_at_depth([[1, 0], [0, 1]], OdometerSpace((2, 2), 3)).passed

    def test_shear_base3_depth4(self):
        assert bijectivity_check_at_depth([[1, 1], [0, 1]], OdometerSpace((3, 3), 4)).passed

    def test_rotation(self):
        assert bijectivity_check_at_depth([[0, -1], [1, 0]], OdometerSpace((3, 3), 4)).passed

    def test_det2_rejected_at_precondition(self):
        with pytest.raises(ValueError, match="not \\+-1"):
            bijectivity_check_at_depth([[2, 0], [0, 1]], OdometerSpace((2, 2), 3))

    def test_budget(self, monkeypatch):
        assert_refused_before_any_point(
            monkeypatch, lambda space, t: bijectivity_check_at_depth([[1, 0], [0, 1]], space)
        )

    def test_collision_fails_with_witness(self, monkeypatch):
        # det +-1 integer matrices always permute, so a singular action is
        # injected under the validation
        monkeypatch.setattr(odometer, "unimodular_rows", lambda matrix, space: ((3, 0), (0, 1)))
        for check in (bijectivity_check_at_depth, ref_bijectivity_check_at_depth):
            result = check([[1, 0], [0, 1]], OdometerSpace((3, 3), 2))
            assert not result.passed
            assert result.witnesses == [(3, 0)]
            assert result.checked == 3 * 9 + 1
            assert result.notes == "collision at depth-N image"

    def test_a_patched_scalar_action_makes_the_sweep_raise(self, monkeypatch):
        honest = odometer.matrix_act
        monkeypatch.setattr(
            odometer, "matrix_act", lambda m, x, sp: odometer_add(honest(m, x, sp), (0, 1), sp)
        )
        with pytest.raises(RuntimeError, match="disagrees with the scalar path"):
            bijectivity_check_at_depth([[1, 1], [0, 1]], OdometerSpace((3, 3), 2))


# (2, 2) at depth 11 has 2^22 points, four times SWEEP_BUDGET.
OVER_BUDGET = OdometerSpace((2, 2), 11)


def assert_refused_before_any_point(monkeypatch, sweep):
    """``sweep(space, t)`` raises the budget refusal on ``OVER_BUDGET``
    before it builds a single point."""
    t = FullGroupElement.translation(OVER_BUDGET, (0, 0))
    built = []
    make_point = DigitPoint.__init__

    def counting(point, residues, sp):
        built.append(residues)
        make_point(point, residues, sp)

    monkeypatch.setattr(DigitPoint, "__init__", counting)
    with pytest.raises(ValueError, match="over budget 1048576"):
        sweep(OVER_BUDGET, t)
    assert built == []


class TestSweepBudget:
    @pytest.mark.parametrize(
        "sweep",
        [
            lambda space, t: minimality_witness(space, 11),
            lambda space, t: list(space.all_points()),
            lambda space, t: spatial_realization_gap(t, t, (1, 0), space),
            lambda space, t: space.all_residues(),
            lambda space, t: t.apply_array(np.zeros((2, 1), dtype=np.int64)),
        ],
        ids=["minimality_witness", "all_points", "spatial_realization_gap", "all_residues",
             "apply_array"],
    )
    def test_over_budget_refused(self, monkeypatch, sweep):
        assert_refused_before_any_point(monkeypatch, sweep)


def off_by_one_at(bad_points):
    """``matrix_act`` and ``matrix_act_array`` that add 1 to the first
    coordinate of the images of ``bad_points``, and only there: a
    non-linear action, corrupted the same way on both paths."""
    bad = {x.residues for x in bad_points}
    honest, honest_array = odometer.matrix_act, odometer.matrix_act_array

    def scalar(matrix, x, space):
        image = honest(matrix, x, space)
        shift = (1,) + (0,) * (space.dimension - 1)
        return odometer_add(image, shift, space) if x.residues in bad else image

    def array(matrix, residues, space):
        image = honest_array(matrix, residues, space)
        hit = np.array([tuple(col) in bad for col in residues.T.tolist()], dtype=bool)
        image[0, hit] = (image[0, hit] + 1) % space.moduli[0]
        return image

    return scalar, array


SHEAR = [[1, 1], [0, 1]]
SAMPLE_SPACE = OdometerSpace((3, 3), 3)
SAMPLE = [SAMPLE_SPACE.random_point(random.Random(8)) for _ in range(30)]


class TestEquivariance:
    def test_off_by_one_action_fails_with_witness(self, monkeypatch):
        # the scalar reference loop, with the scalar action patched
        bad = SAMPLE[7]
        monkeypatch.setattr(odometer, "matrix_act", off_by_one_at([bad])[0])
        result = ref_matrix_equivariance_check(SHEAR, SAMPLE, 2, SAMPLE_SPACE)
        assert not result.passed
        assert bad in [x for _, x in result.witnesses]

    def test_off_by_one_action_fails_on_the_array_path(self, monkeypatch):
        # the same corruption on both primitives: the sweep names points[7]
        # and the scalar re-evaluation of its first witness agrees
        bad = SAMPLE[7]
        scalar, array = off_by_one_at([bad])
        monkeypatch.setattr(odometer, "matrix_act", scalar)
        monkeypatch.setattr(odometer, "matrix_act_array", array)
        result = matrix_equivariance_check(SHEAR, SAMPLE, 2, SAMPLE_SPACE)
        assert not result.passed
        assert bad in [x for _, x in result.witnesses]
        assert all(any(x is p for p in SAMPLE) for _, x in result.witnesses)
        same_check(result, ref_matrix_equivariance_check(SHEAR, SAMPLE, 2, SAMPLE_SPACE))

    def test_a_patched_scalar_action_makes_the_sweep_raise(self, monkeypatch):
        # the arrays are honest, the scalar action is not: the re-evaluated
        # first pair disagrees with its column
        monkeypatch.setattr(odometer, "matrix_act", off_by_one_at(SAMPLE[:1])[0])
        with pytest.raises(RuntimeError, match="disagrees with the scalar path"):
            matrix_equivariance_check(SHEAR, SAMPLE, 2, SAMPLE_SPACE)


class TestHaarInvariance:
    def test_sampled_cylinders(self):
        sp = OdometerSpace((3, 3), 4)
        result = haar_invariance_check(sp, 1, 2, random.Random(0))
        assert result.passed and result.checked == 5 * 40


class TestMinimality:
    def test_cyclic_mod8(self):
        assert minimality_witness(OdometerSpace((2,), 3), 3).passed

    def test_product_sweep(self):
        verdict = minimality_witness(OdometerSpace((3, 3), 4), 2)
        assert verdict.passed
        assert "81" in verdict.notes

    def test_depth_zero(self):
        assert minimality_witness(OdometerSpace((5,), 2), 0).passed

    def test_stuck_orbit_fails_with_witness(self, monkeypatch):
        monkeypatch.setattr(odometer, "odometer_add", lambda x, vector, space: space.zero())
        result = minimality_witness(OdometerSpace((3, 3), 4), 2)
        assert not result.passed
        assert result.checked == 81
        assert result.witnesses[0] == (0, 1) and len(result.witnesses) == 80
        assert result.notes == "only 1 of 81 depth-2 cylinders visited"


# ---------------------------------------------------------------------------
# Digit-string reference.  A point is N base-p digits per coordinate,
# least-significant first; addition is schoolbook addition with carries,
# dropping the carry out of digit N.  The library stores residues instead,
# and the property tests below check that both agree.


def ref_digits(value, p, length):
    value %= p**length
    out = []
    for _ in range(length):
        value, digit = divmod(value, p)
        out.append(digit)
    return tuple(out)


def ref_value(digits, p):
    return sum(d * p**k for k, d in enumerate(digits))


def ref_add(point, vector, bases):
    out = []
    for digits, g, p in zip(point, vector, bases):
        addend = ref_digits(g, p, len(digits))
        carry, coord = 0, []
        for a, b in zip(digits, addend):
            carry, digit = divmod(a + b + carry, p)
            coord.append(digit)
        out.append(tuple(coord))
    return tuple(out)


def ref_matrix_act(matrix, point, p):
    values = [ref_value(digits, p) for digits in point]
    depth = len(point[0])
    return tuple(ref_digits(sum(a * v for a, v in zip(row, values)), p, depth) for row in matrix)


def ref_contains(prefixes, point):
    return all(digits[: len(prefix)] == prefix for prefix, digits in zip(prefixes, point))


def ref_minimality(bases, depth, k):
    if k == 0:
        return True, "depth 0 has a single cylinder"
    zero = tuple((0,) * depth for _ in bases)
    ranges = [p**k for p in bases]
    visited = {
        tuple(digits[:k] for digits in ref_add(zero, steps, bases))
        for steps in itertools.product(*(range(r) for r in ranges))
    }
    total = 1
    for r in ranges:
        total *= r
    if len(visited) != total:
        return False, f"only {len(visited)} of {total} depth-{k} cylinders visited"
    return True, f"all {total} depth-{k} cylinders visited"


def ref_label(pieces, point):
    """The label of the first piece with a cylinder holding the point."""
    for clopen, label in pieces:
        if any(ref_contains(cyl.prefixes, point) for cyl in clopen.cylinders):
            return label
    return None


def as_digits(x, space):
    return tuple(ref_digits(r, p, space.depth) for r, p in zip(x.residues, space.bases))


BASES = [(2,), (3,), (7,), (2, 3), (3, 7)]
EQUAL_BASES = [(2, 2), (3, 3), (7, 7)]


def near_modulus(m):
    """Integers in [-3m, 3m], weighted toward 0, +-1 and +-p^N."""
    edges = [0, 1, -1, m - 1, m, m + 1, -m + 1, -m, -m - 1]
    return st.one_of(st.sampled_from(edges), st.integers(-3 * m, 3 * m))


@st.composite
def spaces(draw, bases=BASES, max_depth=4):
    return OdometerSpace(draw(st.sampled_from(bases)), draw(st.integers(1, max_depth)))


@st.composite
def points(draw, space):
    return space.point_from_values([draw(near_modulus(m)) for m in space.moduli])


@st.composite
def vectors(draw, space):
    return tuple(draw(near_modulus(m)) for m in space.moduli)


@st.composite
def cylinders(draw, space):
    return Cylinder(tuple(
        tuple(draw(st.lists(st.integers(0, p - 1), max_size=space.depth)))
        for p in space.bases
    ))


@st.composite
def unimodular(draw, d):
    """A product of elementary shears and sign flips."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, d - 1))
        if draw(st.booleans()):
            m[i] = [-v for v in m[i]]
            continue
        j = draw(st.integers(0, d - 1).filter(lambda j: j != i))
        c = draw(st.integers(-3, 3))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def residue_shuffle(rng, space):
    """A valid element permuting depth-m residue classes of one coordinate."""
    coord = rng.randrange(space.dimension)
    p = space.bases[coord]
    m = rng.randint(1, min(2, space.depth))
    image = list(range(p**m))
    rng.shuffle(image)
    pieces = []
    for residue in range(p**m):
        label = [rng.randint(-2, 2) for _ in space.bases]
        label[coord] = image[residue] - residue + p**m * rng.randint(-1, 1)
        prefixes = [()] * space.dimension
        prefixes[coord] = space.digits_of(residue, coord, m)
        pieces.append((Cylinder(tuple(prefixes)), tuple(label)))
    return FullGroupElement.make(space, pieces)


class TestResidueMatchesDigitReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_odometer_add(self, data):
        space = data.draw(spaces())
        x = data.draw(points(space))
        g = data.draw(vectors(space))
        result = odometer_add(x, g, space)
        assert as_digits(result, space) == ref_add(as_digits(x, space), g, space.bases)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matrix_act(self, data):
        space = data.draw(spaces(EQUAL_BASES))
        matrix = data.draw(unimodular(space.dimension))
        x = data.draw(points(space))
        expected = ref_matrix_act(matrix, as_digits(x, space), space.bases[0])
        assert as_digits(matrix_act(matrix, x, space), space) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matrix_act_rejects_mixed_bases(self, data):
        space = data.draw(spaces([(2, 3), (3, 7)]))
        with pytest.raises(ValueError, match="equal bases"):
            matrix_act([[1, 0], [0, 1]], data.draw(points(space)), space)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cylinder_contains(self, data):
        space = data.draw(spaces())
        cyl = data.draw(cylinders(space))
        x = data.draw(points(space))
        # the cylinder holds x exactly when x's residues lie in its class
        moduli, values = cyl.residue_class(space)
        in_class = all(r % m == v for r, m, v in zip(x.residues, moduli, values))
        assert in_class == ref_contains(cyl.prefixes, as_digits(x, space))
        # the class of a point's own digits always holds it
        own = Cylinder(tuple(d[: len(p)] for d, p in zip(as_digits(x, space), cyl.prefixes)))
        moduli, values = own.residue_class(space)
        assert tuple(r % m for r, m in zip(x.residues, moduli)) == values

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cylinder_translate(self, data):
        space = data.draw(spaces())
        cyl = data.draw(cylinders(space))
        g = data.draw(vectors(space))
        assert cyl.translate(g, space).prefixes == ref_add(cyl.prefixes, g, space.bases)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_depth_cylinder(self, data):
        space = data.draw(spaces())
        x = data.draw(points(space))
        k = data.draw(st.integers(0, space.depth))
        expected = tuple(digits[:k] for digits in as_digits(x, space))
        assert space.depth_cylinder(x, k).prefixes == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_minimality_visited_set(self, data):
        space = data.draw(spaces(max_depth=2))
        k = data.draw(st.integers(0, space.depth))
        verdict = minimality_witness(space, k)
        assert (verdict.passed, verdict.notes) == ref_minimality(space.bases, space.depth, k)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_full_group_elements(self, data):
        space = data.draw(spaces(max_depth=3))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        t, u = residue_shuffle(rng, space), residue_shuffle(rng, space)
        for element in (t, compose(t, u), compose(t, u).inverse()):
            for _ in range(10):
                x = data.draw(points(space))
                label = ref_label(element.pieces, as_digits(x, space))
                assert element.label_at(x) == label
                assert as_digits(element.apply(x), space) == ref_add(
                    as_digits(x, space), label, space.bases
                )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unvalidated_pieces_first_match_wins(self, data):
        # Built without ``make``: pieces may overlap or leave points uncovered.
        space = data.draw(spaces(max_depth=3))
        pieces = tuple(
            (ClopenSet((data.draw(cylinders(space)),)), data.draw(vectors(space)))
            for _ in range(data.draw(st.integers(1, 4)))
        )
        element = FullGroupElement(space, pieces)
        x = data.draw(points(space))
        label = ref_label(pieces, as_digits(x, space))
        if label is None:
            with pytest.raises(ValueError, match="escaped the partition"):
                element.apply(x)
            with pytest.raises(ValueError, match="escaped the partition"):
                element.label_at(x)
        else:
            assert element.label_at(x) == label
            assert as_digits(element.apply(x), space) == ref_add(
                as_digits(x, space), label, space.bases
            )


# ---------------------------------------------------------------------------
# Scalar reference of the array sweeps: the point-by-point loops the checks
# ran before they took residue arrays.  They reach the scalar primitives
# through their modules, so a patched primitive reaches them too.


def ref_bijectivity_check_at_depth(matrix, space):
    rows = odometer.unimodular_rows(matrix, space)
    count = space.point_count()
    if count > odometer.SWEEP_BUDGET:
        raise ValueError(f"depth sweep needs {count} points, over budget {odometer.SWEEP_BUDGET}")
    modulus = space.moduli[0]
    seen = set()
    witnesses = []
    for values in itertools.product(range(modulus), repeat=space.dimension):
        image = tuple(sum(r * v for r, v in zip(row, values)) % modulus for row in rows)
        if image in seen:
            witnesses.append(values)
            break
        seen.add(image)
    return CheckResult(
        name="depth-bijectivity",
        checked=len(seen) + len(witnesses),
        witnesses=witnesses,
        coverage={"N": space.depth},
        notes="collision at depth-N image" if witnesses
        else f"permutation of {count} depth-{space.depth} points",
    )


def ref_matrix_equivariance_check(matrix, points, radius, space):
    mat = linalg.as_matrix(matrix)
    checked = 0
    witnesses = []
    for g in LatticeGroup(space.dimension).standard_generators().ball(radius):
        image_g = [int(v) for v in linalg.mat_vec(mat, g.coords)]
        for x in points:
            lhs = odometer.matrix_act(matrix, odometer.odometer_add(x, g.coords, space), space)
            rhs = odometer.odometer_add(odometer.matrix_act(matrix, x, space), image_g, space)
            checked += 1
            if lhs != rhs:
                witnesses.append((g, x))
    return CheckResult(
        name="equivariance",
        checked=checked,
        witnesses=witnesses,
        coverage={"W": radius, "points": len(points)},
    )


def ref_spatial_realization_gap(conjugated, t, vector, space):
    vec = fullgroup._coerce_label(vector, space.dimension)
    for x in space.all_points():
        shifted = odometer.odometer_add(x, vec, space)
        if conjugated.apply(shifted) != odometer.odometer_add(t.apply(x), vec, space):
            return x
    return None


def outcome(call, *args):
    """What a call returns, or ('raises', message) for a ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return ("raises", str(exc))


def same_check(result, expected):
    """Equal verdict, ``checked``, witnesses in order and report bytes."""
    assert result.passed == expected.passed
    assert result.checked == expected.checked
    assert result.witnesses == expected.witnesses
    assert result.to_json() == expected.to_json()


def corrupt_action(bad_points):
    scalar, array = off_by_one_at(bad_points)
    return patch.multiple(odometer, matrix_act=scalar, matrix_act_array=array)


# p^(N d) up to 3^6 = 729 points per space, so the scalar loops stay quick.
SWEEP_SPACES = [(2,), (3,), (7,), (2, 3), (3, 7), (2, 2), (3, 3), (2, 2, 2)]


@st.composite
def sweep_spaces(draw, bases=SWEEP_SPACES):
    chosen = draw(st.sampled_from(bases))
    cap = max(1, int(math.log(729) / math.log(math.prod(chosen))))
    return OdometerSpace(chosen, draw(st.integers(1, cap)))


def integer_rows(d, m):
    return st.lists(st.lists(st.integers(-2 * m, 2 * m), min_size=d, max_size=d),
                    min_size=d, max_size=d)


class TestArrayMatchesScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_all_residues_in_all_points_order(self, data):
        space = data.draw(sweep_spaces())
        columns = [tuple(c) for c in space.all_residues().T.tolist()]
        assert columns == [x.residues for x in space.all_points()]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_add_and_act_on_arrays(self, data):
        space = data.draw(spaces(EQUAL_BASES + [(3, 3, 3)], max_depth=40))
        xs = data.draw(st.lists(points(space), max_size=6))
        g = data.draw(vectors(space))
        matrix = data.draw(unimodular(space.dimension))
        residues = space.residue_array(xs)
        assert residues.shape == (space.dimension, len(xs))
        added = odometer.odometer_add_array(residues, g, space)
        acted = odometer.matrix_act_array(matrix, residues, space)
        assert [tuple(c) for c in added.T.tolist()] == [
            odometer_add(x, g, space).residues for x in xs
        ]
        assert [tuple(c) for c in acted.T.tolist()] == [
            matrix_act(matrix, x, space).residues for x in xs
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_full_group_apply_array(self, data):
        space = data.draw(sweep_spaces())
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        t, u = residue_shuffle(rng, space), residue_shuffle(rng, space)
        residues = space.all_residues()
        for element in (t, compose(t, u), compose(t, u).inverse()):
            image, covered = element.apply_array(residues)
            assert covered.all()
            assert [tuple(c) for c in image.T.tolist()] == [
                element.apply(x).residues for x in space.all_points()
            ]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unvalidated_pieces_apply_array(self, data):
        # pieces may overlap (the first wins) or leave points uncovered
        # (where ``apply`` raises, the column is not covered and keeps its
        # residues)
        space = data.draw(sweep_spaces())
        pieces = tuple(
            (ClopenSet((data.draw(cylinders(space)),)), data.draw(vectors(space)))
            for _ in range(data.draw(st.integers(1, 4)))
        )
        element = FullGroupElement(space, pieces)
        points = list(space.all_points())
        expected = [outcome(element.apply, x) for x in points]
        image, covered = element.apply_array(space.all_residues())
        assert covered.tolist() == [not isinstance(e, tuple) for e in expected]
        assert {e for e in expected if isinstance(e, tuple)} <= {
            ("raises", "point escaped the partition (corrupt element)")
        }
        assert [tuple(c) for c in image.T.tolist()] == [
            x.residues if isinstance(e, tuple) else e.residues for x, e in zip(points, expected)
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_spatial_realization_gap(self, data):
        space = data.draw(sweep_spaces())
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        t = residue_shuffle(rng, space)
        vector = data.draw(vectors(space))
        honest = conjugate_by_translation(t, vector)
        # a corrupted conjugate: relabelled pieces, or unvalidated ones that
        # may leave points in no piece
        kind = data.draw(st.sampled_from(["honest", "relabelled", "unvalidated"]))
        if kind == "relabelled":
            conjugated = FullGroupElement(space, tuple(
                (clopen, tuple(c + data.draw(st.integers(-1, 1)) for c in label))
                for clopen, label in honest.pieces
            ))
        elif kind == "unvalidated":
            conjugated = FullGroupElement(space, tuple(
                (ClopenSet((data.draw(cylinders(space)),)), data.draw(vectors(space)))
                for _ in range(data.draw(st.integers(1, 4)))
            ))
        else:
            conjugated = honest
        expected = outcome(ref_spatial_realization_gap, conjugated, t, vector, space)
        assert outcome(spatial_realization_gap, conjugated, t, vector, space) == expected
        if kind == "honest":
            assert expected is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bijectivity_with_any_integer_rows(self, data):
        # rows injected under the validation, singular ones included
        space = data.draw(sweep_spaces([(2,), (3,), (7,), (2, 2), (3, 3), (2, 2, 2)]))
        rows = tuple(map(tuple, data.draw(integer_rows(space.dimension, space.moduli[0]))))
        with patch.object(odometer, "unimodular_rows", lambda matrix, sp: rows):
            same_check(bijectivity_check_at_depth(None, space),
                       ref_bijectivity_check_at_depth(None, space))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equivariance_with_corrupted_points(self, data):
        space = data.draw(spaces(EQUAL_BASES + [(3, 3, 3)], max_depth=40))
        xs = data.draw(st.lists(points(space), min_size=1, max_size=8))
        matrix = data.draw(unimodular(space.dimension))
        bad = data.draw(st.lists(st.sampled_from(xs), max_size=3))
        radius = data.draw(st.integers(0, 2))
        with corrupt_action(bad):
            result = matrix_equivariance_check(matrix, xs, radius, space)
            expected = ref_matrix_equivariance_check(matrix, xs, radius, space)
        same_check(result, expected)
        assert all(any(x is y for y in xs) for _, x in result.witnesses)


class TestPastInt64:
    # m = 3^40 > 2^63: the residues themselves leave int64
    SPACE = OdometerSpace((3, 3), 40)

    def test_residue_arrays_leave_int64_at_the_guard(self):
        # a residue array sits on the rung of its largest residue m - 1:
        # 3^39 - 1 < 2^62 <= 3^40 - 1, and m - 1 on each side of 2^30 and 2^62
        assert OdometerSpace((3, 3), 39).residue_array([]).dtype == np.int64
        assert OdometerSpace((3, 3), 40).residue_array([]).dtype == object
        for m, dtype in ((2**30, np.int32), (2**30 + 1, np.int64), (2**62, np.int64), (2**62 + 1, object)):
            space = OdometerSpace((m,), 1)
            top = space.point_from_values((-1,))
            assert space.residue_array([top]).dtype == dtype
            assert space.residue_array([top]).tolist() == [[m - 1]]
        xs = [self.SPACE.random_point(random.Random(40)), self.SPACE.point_from_values((-1, 0))]
        residues = self.SPACE.residue_array(xs)
        assert residues.dtype == object and residues[0, 1] == 3**40 - 1

    def test_equivariance_matches_the_reference(self):
        rng = random.Random(41)
        xs = [self.SPACE.random_point(rng) for _ in range(20)] + [
            self.SPACE.point_from_values((-1, -1))
        ]
        for matrix in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 10**30], [0, 1]]):
            same_check(matrix_equivariance_check(matrix, xs, 2, self.SPACE),
                       ref_matrix_equivariance_check(matrix, xs, 2, self.SPACE))
        with corrupt_action(xs[3:5]):
            result = matrix_equivariance_check([[1, 1], [0, 1]], xs, 2, self.SPACE)
            expected = ref_matrix_equivariance_check([[1, 1], [0, 1]], xs, 2, self.SPACE)
        assert not result.passed
        same_check(result, expected)


def run_odometer(argv):
    result = CliRunner().invoke(cli.main, ["odometer", *argv, "--json"])
    return result.exit_code, result.output


@pytest.mark.parametrize(
    "argv",
    [
        ["--matrix", "1 100000000000000000000000; 0 1", "--p", "3", "--depth", "3",
         "--samples", "5"],
        ["--p", "2", "--depth", "3", "--samples", "20", "--seed", "5"],
        ["--matrix", "2 1; 1 1", "--p", "2", "--depth", "4", "--samples", "50", "--seed", "1"],
    ],
    ids=["huge-entry", "golden", "cat-map"],
)
def test_odometer_report_is_the_same_on_the_scalar_path(monkeypatch, argv):
    fast = run_odometer(argv)
    monkeypatch.setattr(batteries, "bijectivity_check_at_depth", ref_bijectivity_check_at_depth)
    monkeypatch.setattr(batteries, "matrix_equivariance_check", ref_matrix_equivariance_check)
    monkeypatch.setattr(fullgroup, "spatial_realization_gap", ref_spatial_realization_gap)
    assert fast == run_odometer(argv)
    assert fast[0] == 0


def test_a_patched_scalar_apply_makes_the_gap_sweep_raise(monkeypatch):
    space = OdometerSpace((2, 3), 2)
    t = residue_shuffle(random.Random(3), space)
    conjugated = conjugate_by_translation(t, (1, 1))
    assert spatial_realization_gap(conjugated, t, (1, 1), space) is None
    honest = FullGroupElement.apply
    monkeypatch.setattr(
        FullGroupElement, "apply", lambda self, x: odometer_add(honest(self, x), (1, 0), space)
    )
    with pytest.raises(RuntimeError, match="disagrees with the scalar path"):
        spatial_realization_gap(conjugated, t, (1, 1), space)
