import itertools
import random
from fractions import Fraction

import pytest

from orbitlab import linalg
from orbitlab.groups import LatticeGroup
from orbitlab.invariants import (
    ExteriorElement,
    InducedAlgebraMap,
    check_det_pm1,
    functoriality_check,
    multiplicativity_check,
    recover_invariant_matrix,
    recovery_check,
    wedge,
)
from orbitlab.mapspace import FloorMapSeed, build_translate_space
from orbitlab.morphisms import (
    ActionSystem,
    identity_morphism,
    matrix_morphism,
    orbit_morphism,
    realized_morphism,
)
from orbitlab.odometer import OdometerSpace
from orbitlab.shears import bounded_distance_constant, realize_bilipschitz


def e(d, i):
    return ExteriorElement.basis_vector(d, i)


class TestWedge:
    def test_antisymmetry(self):
        assert wedge(e(3, 0), e(3, 1)) == wedge(e(3, 1), e(3, 0)).scale(-1)

    def test_nilpotence(self):
        assert wedge(e(3, 0), e(3, 0)) == ExteriorElement(3)

    def test_bilinearity_with_nilpotence(self):
        s = e(3, 0) + e(3, 1)
        assert wedge(s, e(3, 1)) == wedge(e(3, 0), e(3, 1))

    def test_associativity_on_random_blades(self):
        rng = random.Random(21)
        d = 4
        for _ in range(20):
            def rand_vec():
                return ExteriorElement(
                    d, {frozenset([i]): rng.randint(-3, 3) for i in range(d)}
                )
            u, v, w = rand_vec(), rand_vec(), rand_vec()
            assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))

    def test_top_degree_coefficient_is_det(self):
        # wedging the columns of a matrix gives its determinant on e_1^...^e_d
        rng = random.Random(22)
        for d in (2, 3):
            rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            mat = linalg.as_matrix(rows)
            columns = [
                ExteriorElement(d, {frozenset([i]): mat[i][j] for i in range(d)})
                for j in range(d)
            ]
            product = columns[0]
            for col in columns[1:]:
                product = wedge(product, col)
            assert product.coefficient(range(d)) == linalg.det(mat)


class TestInducedMap:
    def test_identity_in_every_degree(self):
        ind = InducedAlgebraMap(linalg.identity(3))
        for size in range(4):
            for subset in itertools.combinations(range(3), size):
                blade = ExteriorElement.blade(3, subset)
                assert ind.apply(blade) == blade

    def test_det_one_diagonal_fixes_top(self):
        ind = InducedAlgebraMap([[2, 0], [0, Fraction(1, 2)]])
        top = ExteriorElement.blade(2, (0, 1))
        assert ind.apply(top) == top

    def test_degree_two_matches_wedge_of_columns(self):
        # independent oracle: apply in degree one and wedge the images
        rng = random.Random(23)
        for _ in range(10):
            mat = linalg.as_matrix(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            ind = InducedAlgebraMap(mat)
            for i, j in itertools.combinations(range(3), 2):
                direct = ind.apply(ExteriorElement.blade(3, (i, j)))
                oracle = wedge(
                    ind.apply(e(3, i)), ind.apply(e(3, j))
                )
                assert direct == oracle

    def test_top_degree_is_determinant(self):
        rng = random.Random(24)
        for d in (2, 3, 4):
            mat = linalg.as_matrix(
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            )
            top = ExteriorElement.blade(d, range(d))
            assert InducedAlgebraMap(mat).apply(top) == top.scale(linalg.det(mat))


class TestMultiplicativity:
    def test_identity(self):
        assert multiplicativity_check(linalg.identity(3)).passed

    def test_random_dimension_three(self):
        rng = random.Random(25)
        for _ in range(5):
            mat = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            assert multiplicativity_check(mat).passed

    def test_corrupted_blade_table_fails(self):
        ind = InducedAlgebraMap([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
        bad = ind.corrupted((0, 1), (0, 1), 99)
        result = multiplicativity_check(bad)
        assert not result.passed
        assert result.witnesses


class TestDetCheck:
    def test_identity_passes(self):
        assert check_det_pm1(linalg.identity(2), 1e-9).passed

    def test_minus_one_passes(self):
        assert check_det_pm1([[0, 1], [1, 0]], 1e-9).passed

    def test_diag_two_fails(self):
        result = check_det_pm1([[2, 0], [0, 1]], 1e-6)
        assert not result.passed
        assert result.witnesses == [2.0]


HALF_SHEAR = [["1", "0.5"], ["0", "1"]]
TENTH_SHEAR = [["1", "0.3"], ["0", "1"]]


def realized_table(matrix, radius=2, translate_radius=2, cert_radius=50):
    floor_map = realize_bilipschitz(matrix)
    cert = bounded_distance_constant(floor_map, floor_map.target, cert_radius)
    space = build_translate_space(
        FloorMapSeed(floor_map), radius, translate_radius, offset_radius=0
    )
    table = orbit_morphism(space, radius, cert.constant)
    return table, cert, floor_map


def one_point_identity(gens):
    """The identity morphism of a group acting trivially on one point."""
    return identity_morphism(ActionSystem("point", gens, lambda g, x: x, ("point",)))


class TestRecovery:
    def test_trivial_cocycle_gives_identity(self):
        table = one_point_identity(LatticeGroup(2).standard_generators())
        inv = recover_invariant_matrix(table, 64)
        assert inv.matrix == linalg.identity(2)
        assert inv.determinant() == 1

    @pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[0, -1], [1, 0]]])
    def test_constant_cocycle_exact(self, matrix):
        space = OdometerSpace((3, 3), 4)
        pts = [space.zero(), space.point_from_values((13, 52))]
        table = matrix_morphism(matrix, space, pts)
        inv = recover_invariant_matrix(table, 1024)
        assert inv.matrix == linalg.as_matrix(matrix)

    def test_gl2_generating_set_witnessed(self):
        # the invariant hits a full generating set of GL_2(Z), exactly
        space = OdometerSpace((2, 2), 4)
        pts = [space.zero()]
        for mat in ([[0, -1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [0, -1]]):
            table = matrix_morphism(mat, space, pts)
            inv = recover_invariant_matrix(table, 256)
            assert inv.matrix == linalg.as_matrix(mat)
            assert abs(inv.determinant()) == 1

    def test_realized_shear_within_bound(self):
        table, cert, floor_map = realized_table(HALF_SHEAR)
        inv = recover_invariant_matrix(table, 1024)
        gap = linalg.max_abs_diff(inv.matrix, floor_map.target)
        assert gap <= cert.constant / 1024
        assert inv.error_bound == float(cert.constant / 1024)

    def test_recovery_check_wrong_matrix_fails_with_witness(self):
        space = OdometerSpace((3, 3), 4)
        table = matrix_morphism([[1, 1], [0, 1]], space, [space.zero()])
        inv = recover_invariant_matrix(table, 81)
        assert recovery_check(inv, [[1, 1], [0, 1]]).passed
        result = recovery_check(inv, [[1, 0], [0, 1]])
        assert not result.passed
        assert result.witnesses == [((0, 1), "1", "0")]
        assert result.coverage["gap"] == 1
        assert result.notes == "|M - A|max = 1 > C/n = 0"

    def test_error_envelope_decays(self):
        # single shears keep the cocycle gap one-signed, so the C/n envelope
        # is guaranteed for them; check it at three scales
        table, cert, floor_map = realized_table(TENTH_SHEAR)
        for n in (2**6, 2**8, 2**10):
            inv = recover_invariant_matrix(table, n)
            gap = linalg.max_abs_diff(inv.matrix, floor_map.target)
            assert gap <= cert.constant / n

    def test_sample_independence(self):
        table, cert, _ = realized_table(TENTH_SHEAR, radius=3, translate_radius=3)
        points = table.source.points
        assert len(points) >= 2
        n = 256
        inv_a = recover_invariant_matrix(table, n, [points[0]])
        inv_b = recover_invariant_matrix(table, n, [points[-1]])
        gap = linalg.max_abs_diff(inv_a.matrix, inv_b.matrix)
        assert gap <= 2 * cert.constant / n

    def test_det_within_stated_tolerance(self):
        table, cert, floor_map = realized_table(HALF_SHEAR)
        n = 1024
        inv = recover_invariant_matrix(table, n)
        d = 2
        assert check_det_pm1(inv, Fraction(10 * d) * cert.constant / n + Fraction(1, 10**12)).passed

    def test_cohomology_side_is_transpose(self):
        table, cert, _ = realized_table(HALF_SHEAR)
        inv = recover_invariant_matrix(table, 256)
        assert inv.cohomology_side == linalg.transpose(inv.matrix)

    def test_measure_label_of_odometer_samples(self):
        space = OdometerSpace((3, 3), 2)
        pts = [space.zero(), space.point_from_values((4, 5))]
        table = matrix_morphism([[1, 1], [0, 1]], space, pts)
        inv = recover_invariant_matrix(table, 9)
        assert inv.provenance["measure"] == "haar-uniform-sample-average"

    def test_measure_label_of_germ_samples(self):
        table, cert, _ = realized_table(HALF_SHEAR)
        inv = recover_invariant_matrix(table, 64)
        assert inv.provenance["measure"] == "sample-average"

    def test_needs_lattice_source(self):
        from orbitlab.groups import FreeGroup

        table = one_point_identity(FreeGroup(2).standard_generators())
        with pytest.raises(ValueError, match="lattice"):
            recover_invariant_matrix(table, 16)


class TestFunctoriality:
    def test_identity_composition(self):
        space = OdometerSpace((3, 3), 3)
        pts = [space.zero()]
        eta = matrix_morphism([[1, 1], [0, 1]], space, pts)
        ident = matrix_morphism([[1, 0], [0, 1]], space, pts)
        result = functoriality_check(eta, ident, 81)
        assert result.passed
        assert result.coverage["gap"] == 0

    def test_constant_cocycles_exact_product(self):
        space = OdometerSpace((3, 3), 3)
        pts = [space.zero(), space.point_from_values((7, 7))]
        eta = matrix_morphism([[0, -1], [1, 0]], space, pts)
        theta = matrix_morphism([[1, 1], [0, 1]], space, pts)
        result = functoriality_check(eta, theta, 81)
        assert result.passed
        assert result.coverage["budget"] == 0

    def test_realized_shears_within_budget(self):
        eta = realized_morphism([["1", "0"], ["0.25", "1"]])
        theta = realized_morphism([["1", "0.5"], ["0", "1"]])
        result = functoriality_check(eta, theta, 1024)
        assert result.passed
