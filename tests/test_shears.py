import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import linalg
from orbitlab.groups import LatticeGroup, is_bilipschitz_on_ball
from orbitlab.mapspace import FloorMapSeed, build_translate_space
from orbitlab.morphisms import ActionSystem, identity_morphism, matrix_morphism, orbit_morphism
from orbitlab.shears import (
    DISTANCE_PROBES,
    FloorMap,
    Shear,
    SignFlip,
    bounded_distance_constant,
    box_points,
    check_box_budget,
    decompose_unimodular,
    extract_bilipschitz_from_cocycle,
    injectivity_check_on_box,
    op_from_json,
    product_matrix,
    realize_bilipschitz,
)


def random_unimodular(rng, d, max_shears=10, quarter_grid=True):
    """A product of <= max_shears floor-able shears and occasional sign flips."""
    m = linalg.identity(d)
    for _ in range(rng.randint(1, max_shears)):
        i, j = rng.sample(range(d), 2)
        num = rng.choice([k for k in range(-8, 9) if k != 0])
        lam = Fraction(num, 4) if quarter_grid else Fraction(num, rng.choice([1, 2, 3, 4, 5]))
        m = linalg.mat_mul(m, Shear(i, j, lam).matrix(d))
        if rng.random() < 0.2:
            m = linalg.mat_mul(m, SignFlip(rng.randrange(d)).matrix(d))
    return m


class TestFloorShear:
    def test_integer_coefficient_exact(self):
        assert Shear(1, 0, 1).apply_int((3, 4)) == (3, 7)

    def test_half_coefficient_floors(self):
        assert Shear(1, 0, Fraction(1, 2)).apply_int((3, 4)) == (3, 5)

    def test_negative_coefficient_floors_toward_minus_infinity(self):
        assert Shear(1, 0, Fraction(-1, 2)).apply_int((-3, 0)) == (-3, 1)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            Shear(1, 1, Fraction(1, 2))

    def test_unapply_undoes(self):
        sh = Shear(0, 1, Fraction(-7, 3))
        for v in [(-5, 9), (0, 0), (13, -4)]:
            assert sh.unapply_int(sh.apply_int(v)) == v

    def test_json_is_one_based(self):
        assert Shear(0, 1, Fraction(1, 2)).to_json() == {"shear": [1, 2, "0.5"]}
        assert SignFlip(0).to_json() == {"sign_flip": 1}
        assert op_from_json({"shear": [1, 2, "0.5"]}) == Shear(0, 1, Fraction(1, 2))


class TestDecompose:
    def test_identity_empty(self):
        assert decompose_unimodular(linalg.identity(3)) == []

    def test_single_shear_passthrough(self):
        ops = decompose_unimodular([["1", "0.5"], ["0", "1"]])
        assert ops == [Shear(0, 1, Fraction(1, 2))]

    def test_row_swap_alphabet_on_permutations(self):
        # swaps must come out as three shears plus a sign flip, exactly
        for perm in ([[0, 1], [1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]):
            mat = linalg.as_matrix(perm)
            ops = decompose_unimodular(mat)
            assert linalg.max_abs_diff(product_matrix(ops, len(mat)), mat) == 0
            assert all(isinstance(op, (Shear, SignFlip)) for op in ops)
            shears = sum(isinstance(op, Shear) for op in ops)
            flips = sum(isinstance(op, SignFlip) for op in ops)
            assert shears % 3 == 0 and flips >= 1

    def test_reconstruction_exact_on_random_products(self):
        rng = random.Random(404)
        for d in (2, 3):
            for _ in range(25):
                m = random_unimodular(rng, d, quarter_grid=False)
                ops = decompose_unimodular(m)
                assert linalg.max_abs_diff(product_matrix(ops, d), m) == 0

    def test_det_not_one_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            decompose_unimodular([[2, 0], [0, 1]])

    def test_det_minus_one_handled(self):
        m = linalg.as_matrix([["0.5", "0"], ["0", "-2"]])
        ops = decompose_unimodular(m)
        assert linalg.max_abs_diff(product_matrix(ops, 2), m) == 0


class TestFloorMap:
    def test_identity_map(self):
        f = realize_bilipschitz(linalg.identity(2))
        assert f((5, -7)) == (5, -7)
        cert = bounded_distance_constant(f, linalg.identity(2), 25)
        assert cert.constant == 0

    def test_integer_shear_exact(self):
        f = realize_bilipschitz([[1, 1], [0, 1]])
        cert = bounded_distance_constant(f, [[1, 1], [0, 1]], 25)
        assert cert.constant == 0

    def test_half_shear_bounded_by_one(self):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        cert = bounded_distance_constant(f, [["1", "0.5"], ["0", "1"]], 50)
        assert 0 < cert.constant <= 1
        # |floor(x/2) - x/2| < 1 at every probe radius
        assert all(v <= 1 for v in cert.by_radius.values())

    def test_distance_stable_across_radii(self):
        rng = random.Random(11)
        m = random_unimodular(rng, 2)
        f = realize_bilipschitz(m)
        cert = bounded_distance_constant(f, m, 50)
        values = [cert.by_radius[r] for r in (10, 25, 50)]
        assert values == sorted(values)           # nested boxes
        assert values[2] <= values[0] * 3 + 2     # no runaway growth

    def test_certificate_is_exact_and_serialises_to_floats(self):
        m = [["1", "0.3"], ["0.5", "1.15"]]
        cert = bounded_distance_constant(realize_bilipschitz(m), m, 25)
        assert isinstance(cert.constant, Fraction)
        assert all(isinstance(c, Fraction) for c in cert.by_radius.values())
        assert cert.constant == cert.by_radius[25]
        data = cert.to_json()
        assert data["constant"] == float(cert.constant)
        assert data["by_radius"] == {str(r): float(c) for r, c in sorted(cert.by_radius.items())}

    @pytest.mark.parametrize("d", [1, 3])
    def test_inverse_refuses_wrong_dimension(self, d):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        with pytest.raises(ValueError, match="vector has wrong dimension"):
            f.inverse(tuple(range(1, d + 1)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_apply_array_refuses_wrong_dimension(self, d):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        with pytest.raises(ValueError, match="vector has wrong dimension"):
            f.apply_array(np.arange(2 * d, dtype=np.int64).reshape(2, d))

    def test_inverse_roundtrip_box20(self):
        rng = random.Random(12)
        for d in (2, 3):
            m = random_unimodular(rng, d)
            f = realize_bilipschitz(m)
            for v in box_points(4 if d == 3 else 20, d).tolist():
                v = tuple(int(c) for c in v)
                assert f.inverse(f(v)) == v
                assert f(f.inverse(v)) == v

    def test_apply_array_matches_scalar(self):
        rng = random.Random(13)
        m = random_unimodular(rng, 2)
        f = realize_bilipschitz(m)
        pts = box_points(6, 2)
        images = f.apply_array(pts)
        for row, img in zip(pts.tolist(), images.tolist()):
            assert f(tuple(row)) == tuple(int(c) for c in img)

    def test_apply_array_overflow_fallback_is_exact(self):
        # a coefficient too large for the int64 path must reroute to exact
        # Python integers and agree with scalar evaluation
        coeff = Fraction(2**61 + 9, 3)
        assert coeff.denominator == 3
        f = FloorMap([Shear(0, 1, coeff)], 2)
        pts = box_points(3, 2)
        images = f.apply_array(pts)
        assert images.dtype == object
        for row, img in zip(pts.tolist(), images.tolist()):
            assert f(tuple(row)) == tuple(int(c) for c in img)

    def test_distance_constant_huge_denominators(self):
        # float-origin coefficients have 2^52-scale denominators; the exact
        # slow path must still produce the certificate
        import math

        rot = [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
        f = realize_bilipschitz(rot)
        cert = bounded_distance_constant(f, rot, 25)
        assert cert.constant > 0
        assert cert.by_radius[10] <= cert.by_radius[25]

    def test_two_sided_metric_bound_ball8(self):
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        m = [["1", "0.5"], ["0", "1"]]
        f = realize_bilipschitz(m)
        wrapped = lambda g: Z2.element(f(g.coords))
        report = is_bilipschitz_on_ball(wrapped, 8, 4, S, S)
        assert report.passed
        assert report.coverage["lower"] > 0


def reference_apply_array(f, points):
    """Per-row exact evaluation: the form ``apply_array``'s object path replaced."""
    return np.array([f(tuple(row)) for row in points.tolist()], dtype=object)


def reference_box(radius, d):
    """The box [-radius, radius]^d in the order ``box_points`` must keep,
    built without it: last coordinate fastest."""
    return [list(v) for v in itertools.product(range(-radius, radius + 1), repeat=d)]


def reference_certificate(f, matrix, radius):
    """Per-row exact gaps: the loop ``bounded_distance_constant``'s object
    path replaced.  Returns the exact maximum per reported radius and the
    first point where the maximum over the whole box is attained."""
    a = linalg.as_matrix(matrix)
    points = reference_box(radius, len(a))
    images = reference_apply_array(f, np.array(points)).tolist()
    common_den = math.lcm(*(x.denominator for row in a for x in row))
    int_a = [[int(x * common_den) for x in row] for row in a]
    gaps = []
    for row, img in zip(points, images):
        scaled = [
            common_den * int(iv) - sum(e * int(c) for e, c in zip(arow, row))
            for iv, arow in zip(img, int_a)
        ]
        gaps.append(max(abs(s) for s in scaled))
    exact = {
        r: Fraction(max(g for g, row in zip(gaps, points) if max(map(abs, row)) <= r), common_den)
        for r in sorted({p for p in DISTANCE_PROBES if p <= radius} | {radius})
    }
    return exact, tuple(points[gaps.index(max(gaps))])


def assert_matches_reference(f, matrix, radius, dtype):
    points = box_points(radius, len(matrix))
    images = f.apply_array(points)
    assert images.dtype == dtype
    assert images.tolist() == reference_apply_array(f, points).tolist()
    exact, witness = reference_certificate(f, matrix, radius)
    cert = bounded_distance_constant(f, matrix, radius)
    assert cert.by_radius == exact
    assert cert.constant == exact[radius]
    assert cert.witness == witness


def force_object_path(monkeypatch):
    # no static bound holds: both sweeps take the exact path
    monkeypatch.setattr(FloorMap, "_fits_int64", lambda self, rows: False)


class TestVectorisedSweepMatchesPerRow:
    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_random_unimodular(self, monkeypatch, dtype):
        if dtype is object:
            force_object_path(monkeypatch)
        rng = random.Random(17)
        for d, radius in ((2, 12), (3, 5)):
            for quarter_grid in (True, False):
                for _ in range(4):
                    m = random_unimodular(rng, d, quarter_grid=quarter_grid)
                    assert_matches_reference(realize_bilipschitz(m), m, radius, dtype)

    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    @pytest.mark.parametrize("d, radius", [(2, 0), (2, 7), (2, 30), (3, 3)])
    def test_radii_around_the_probes(self, monkeypatch, dtype, d, radius):
        # radius 0 and 7 lie below every probe, 30 between two, and 3 in 3D
        # below all of them; the nested maxima come from slices of the grid
        if dtype is object:
            force_object_path(monkeypatch)
        rng = random.Random(100 * d + radius)
        for _ in range(3):
            m = random_unimodular(rng, d, quarter_grid=False)
            assert_matches_reference(realize_bilipschitz(m), m, radius, dtype)

    @pytest.mark.parametrize(
        "matrix",
        [
            [["1", "0.1234567890123456789"], ["0", "1"]],
            [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]],
        ],
        ids=["wide-decimal", "float-rotation"],
    )
    def test_wide_coefficients_take_the_exact_path(self, matrix):
        assert_matches_reference(realize_bilipschitz(matrix), matrix, 12, object)

    @pytest.mark.parametrize(
        "coeff, radius",
        [("0.1234567890123456789", 0), ("0.12345678901234567890123", 0), ("1e-22", 5)],
    )
    def test_denominators_and_numerators_past_int64(self, coeff, radius):
        # a denominator or numerator past 2^63 must keep the sweep off int64
        # even where the coordinates are tiny (at radius 0 they are all 0)
        m = [["1", coeff], ["0", "1"]]
        cert = bounded_distance_constant(realize_bilipschitz(m), m, radius)
        exact, witness = reference_certificate(realize_bilipschitz(m), m, radius)
        assert cert.constant == exact[radius]
        assert cert.witness == witness

    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    @pytest.mark.parametrize("layout", ["c-ordered", "box-view", "int32", "strided"])
    def test_apply_array_input_layouts(self, monkeypatch, dtype, layout):
        if dtype is object:
            force_object_path(monkeypatch)
        f = realize_bilipschitz(random_unimodular(random.Random(18), 3, quarter_grid=False))
        box = box_points(4, 3)
        points = {
            "c-ordered": np.array(box.tolist()),
            "box-view": box,
            "int32": box.astype(np.int32),
            "strided": box[::3],
        }[layout]
        before = points.copy()
        images = f.apply_array(points)
        assert images.shape == points.shape
        assert images.dtype == dtype
        assert images.tolist() == reference_apply_array(f, points).tolist()
        assert points.dtype == before.dtype and np.array_equal(points, before)

    def test_box_over_budget_refused_before_any_point(self):
        check_box_budget(50, 3)  # 1,030,301 points: the default 3x3 box fits
        with pytest.raises(ValueError, match=r"box \[-50, 50\]\^4 has 104060401 points, over budget 1048576"):
            box_points(50, 4)


class TestBox:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box_points_order(self, d):
        for radius in range(4):
            points = box_points(radius, d)
            assert points.dtype == np.int64
            assert points.tolist() == reference_box(radius, d)

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda f: box_points(-1, 2),
            lambda f: injectivity_check_on_box(f, -1),
            lambda f: bounded_distance_constant(f, linalg.identity(2), -1),
        ],
        ids=["box_points", "injectivity_check_on_box", "bounded_distance_constant"],
    )
    def test_negative_radius_refused(self, sweep):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            sweep(realize_bilipschitz(linalg.identity(2)))


class TestInjectivity:
    def test_identity(self):
        assert injectivity_check_on_box(realize_bilipschitz(linalg.identity(2)), 10).passed

    def test_random_shears_pass(self):
        rng = random.Random(14)
        f = realize_bilipschitz(random_unimodular(rng, 2))
        assert injectivity_check_on_box(f, 20).passed

    def test_rounding_rotation_fails_with_witness(self):
        # rounding both coordinates of a 30-degree rotation collapses points
        import math

        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)

        def rounded_rotation(v):
            x, y = v
            return (round(c * x - s * y), round(s * x + c * y))

        report = injectivity_check_on_box(rounded_rotation, 5, dimension=2)
        assert not report.passed
        a, b = report.witnesses[0]
        assert a != b and rounded_rotation(a) == rounded_rotation(b)


class TestChainBound:
    def test_cocycle_chain_growth(self):
        # cocycle values along products of generators grow at most C per step
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        space = build_translate_space(FloorMapSeed(f), 6, 2, offset_radius=0)
        table = orbit_morphism(space, 6)
        constant = 0
        for s in S.elements:
            for psi in space.slice_members:
                constant = max(constant, S.word_length(table.evaluate(s, psi)))
        rng = random.Random(15)
        for _ in range(50):
            n = rng.randint(1, 5)
            word = [rng.choice(S.elements) for _ in range(n)]
            g = Z2.identity()
            for s in word:
                g = g * s
            psi = rng.choice(space.slice_members)
            value = table.evaluate(g, psi)
            assert S.word_length(value) <= constant * n


class TestExtract:
    def test_trivial_cocycle_gives_identity(self):
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        table = identity_morphism(ActionSystem("point", S, lambda g, x: x, ("point",)))
        basepoint = table.source.points[0]
        extracted = extract_bilipschitz_from_cocycle(table, basepoint, 3)
        assert extracted.constant == 1
        assert extracted.report.passed
        for g in S.ball(3):
            assert extracted(g) == g

    def test_constant_matrix_cocycle_gives_matrix(self):
        from orbitlab.odometer import OdometerSpace

        sp = OdometerSpace((3, 3), 4)
        a = [[1, 1], [0, 1]]
        table = matrix_morphism(a, sp, [sp.zero()])
        extracted = extract_bilipschitz_from_cocycle(table, sp.zero(), 3)
        Z2 = LatticeGroup(2)
        for g in Z2.standard_generators().ball(3):
            expected = [int(v) for v in linalg.mat_vec(linalg.as_matrix(a), g.coords)]
            assert extracted(g).coords == tuple(expected)

    def test_translate_space_cocycle_tracks_seed(self):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        space = build_translate_space(FloorMapSeed(f), 5, 2, offset_radius=0)
        table = orbit_morphism(space, 5)
        # deduplication may register the seed's own germ under another
        # translate, so locate it by its table
        basepoint = next(
            psi
            for psi in space.slice_members
            if all(psi.value(g).coords == f(g.coords) for g in space.source_gens.ball(5))
        )
        extracted = extract_bilipschitz_from_cocycle(table, basepoint, 4)
        # phi(g) = cocycle(g^-1, base)^-1 = psi(g) here, i.e. the seed itself
        for g in space.source_gens.ball(4):
            assert extracted(g).coords == f(g.coords)
