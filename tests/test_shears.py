import random
from fractions import Fraction

import pytest

from orbitlab import linalg
from orbitlab.groups import LatticeGroup, is_bilipschitz_on_ball
from orbitlab.mapspace import FloorMapSeed, build_translate_space
from orbitlab.morphisms import ActionSystem, identity_morphism, matrix_morphism, orbit_morphism
from orbitlab.shears import (
    FloorMap,
    Shear,
    SignFlip,
    bounded_distance_constant,
    box_points,
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
        cert = bounded_distance_constant(f, rot, 10, probes=(5, 10))
        assert cert.constant > 0
        assert cert.by_radius[5] <= cert.by_radius[10]

    def test_two_sided_metric_bound_ball8(self):
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        m = [["1", "0.5"], ["0", "1"]]
        f = realize_bilipschitz(m)
        wrapped = lambda g: Z2.element(f(g.coords))
        report = is_bilipschitz_on_ball(wrapped, 8, 4, S, S)
        assert report.passed
        assert report.coverage["lower"] > 0


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
