import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitlab import linalg, odometer
from orbitlab.fullgroup import FullGroupElement, compose
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
    refine_common,
    wandering_check,
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

    def test_digit_serialization(self):
        sp = OdometerSpace((3,), 4)
        assert point(sp, ["2010"]).to_json() == ["2010"]

    @pytest.mark.parametrize("p", [2, 3, 7, 11, 36])
    def test_digit_serialization_round_trip(self, p):
        space = OdometerSpace((p, p), 3)
        rng = random.Random(p)
        extremes = [space.zero(), space.point_from_values((-1, p**3 // 2))]
        for x in extremes + [space.random_point(rng) for _ in range(20)]:
            data = x.to_json()
            assert [len(text) for text in data] == [3, 3]
            assert DigitPoint.from_json(data, space) == x

    def test_digit_serialization_uses_base36_digits(self):
        assert OdometerSpace((11,), 2).point_from_values((10,)).to_json() == ["a0"]
        assert OdometerSpace((36,), 2).point_from_values((-1,)).to_json() == ["zz"]

    def test_digit_serialization_rejects_bases_above_36(self):
        space = OdometerSpace((37,), 1)
        with pytest.raises(ValueError, match="up to 36"):
            space.zero().to_json()
        with pytest.raises(ValueError, match="up to 36"):
            DigitPoint.from_json(["0"], space)

    @pytest.mark.parametrize(
        "data, message",
        [(["201"], "digits per coordinate"), (["2013"], "out of range"), (["20", "10"], "dimension")],
    )
    def test_digit_parsing_validates(self, data, message):
        with pytest.raises(ValueError, match=message):
            DigitPoint.from_json(data, OdometerSpace((3,), 4))

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


class TestRefine:
    def test_whole_with_whole(self):
        sp = OdometerSpace((2, 2), 3)
        whole = [sp.whole_space()]
        assert refine_common([whole, whole], sp) == whole

    def test_two_coordinate_splits(self):
        sp = OdometerSpace((2, 2), 3)
        split1 = [ClopenSet((Cylinder(((d,), ())),)) for d in range(2)]
        split2 = [ClopenSet((Cylinder(((), (d,))),)) for d in range(2)]
        atoms = refine_common([split1, split2], sp)
        assert len(atoms) == 4
        assert all(a.measure(sp) == Fraction(1, 4) for a in atoms)

    def test_idempotence(self):
        sp = OdometerSpace((2,), 3)
        split = [ClopenSet((Cylinder(((d,),)),)) for d in range(2)]
        atoms = refine_common([split, split], sp)
        assert set(atoms) == set(split)

    def test_non_partition_rejected(self):
        sp = OdometerSpace((2,), 3)
        short = [ClopenSet((Cylinder(((0,),)),))]  # measure 1/2, not a partition
        with pytest.raises(ValueError, match="sum"):
            refine_common([short], sp)


class TestMatrixAction:
    def test_identity(self):
        sp = OdometerSpace((2, 2), 3)
        x = sp.point_from_values((3, 5))
        assert matrix_act([[1, 0], [0, 1]], x, sp) == x

    def test_shear_example(self):
        # values (1, 2) -> (3, 2) under [[1,1],[0,1]] mod 8
        sp = OdometerSpace((2, 2), 3)
        x = sp.point_from_values((1, 2))
        assert sp.values_of(matrix_act([[1, 1], [0, 1]], x, sp)) == (3, 2)

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

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            bijectivity_check_at_depth([[1, 0], [0, 1]], OdometerSpace((2, 2), 3), budget=10)

    def test_collision_fails_with_witness(self, monkeypatch):
        # det +-1 integer matrices always permute, so a singular action is
        # injected under the validation
        monkeypatch.setattr(odometer, "_integer_rows", lambda matrix, space: ((3, 0), (0, 1)))
        result = bijectivity_check_at_depth([[1, 0], [0, 1]], OdometerSpace((3, 3), 2))
        assert not result.passed
        assert result.witnesses == [(3, 0)]
        assert result.checked == 3 * 9 + 1
        assert result.notes == "collision at depth-N image"


class TestEquivariance:
    def test_off_by_one_action_fails_with_witness(self, monkeypatch):
        sp = OdometerSpace((3, 3), 3)
        points = [sp.random_point(random.Random(8)) for _ in range(30)]
        bad = points[7]
        honest = odometer.matrix_act

        def off_by_one(matrix, x, space):
            image = honest(matrix, x, space)
            return odometer_add(image, (1, 0), space) if x == bad else image

        monkeypatch.setattr(odometer, "matrix_act", off_by_one)
        result = matrix_equivariance_check([[1, 1], [0, 1]], points, 2, sp)
        assert not result.passed
        assert bad in [x for _, x in result.witnesses]


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


class TestWandering:
    def test_whole_space_immediate(self):
        sp = OdometerSpace((2,), 3)
        witness = wandering_check(sp.whole_space(), 1, sp)
        assert witness is not None and sum(abs(c) for c in witness) == 1

    def test_parity_cylinder(self):
        # adding +-2 preserves the least binary digit
        sp = OdometerSpace((2,), 3)
        U = ClopenSet((Cylinder(((0,),)),))
        witness = wandering_check(U, 3, sp)
        assert witness in ((2,), (-2,))

    def test_bounded_search_is_honest(self):
        sp = OdometerSpace((2,), 4)
        deep = ClopenSet((Cylinder(((0, 0, 0, 0),)),))
        assert wandering_check(deep, 3, sp) is None
        assert wandering_check(deep, 16, sp) is not None

    def test_empty_rejected(self):
        sp = OdometerSpace((2,), 3)
        with pytest.raises(ValueError, match="nonempty"):
            wandering_check(ClopenSet(()), 2, sp)


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
        assert cyl.contains(x) == ref_contains(cyl.prefixes, as_digits(x, space))
        # the cylinder of a point's own digits always holds it
        own = Cylinder(tuple(d[: len(p)] for d, p in zip(as_digits(x, space), cyl.prefixes)))
        assert own.contains(x)

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
