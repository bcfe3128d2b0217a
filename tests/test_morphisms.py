from fractions import Fraction

import pytest

from orbitlab import linalg
from orbitlab.groups import LatticeGroup
from orbitlab.mapspace import FloorMapSeed, MapGerm, build_translate_space
from orbitlab.morphisms import (
    check_equivariance,
    check_inverse_equivariance,
    check_inverse_identities,
    compose_morphisms,
    identity_morphism,
    matrix_morphism,
    odometer_translation_system,
    orbit_morphism,
    realized_morphism,
)
from orbitlab.odometer import OdometerSpace, matrix_act
from orbitlab.shears import bounded_distance_constant, realize_bilipschitz

SHEAR = [[1, 1], [0, 1]]
ROTATION = [[0, -1], [1, 0]]


@pytest.fixture(scope="module")
def odometer_points():
    space = OdometerSpace((3, 3), 4)
    return space, [space.zero(), space.point_from_values((5, 77)), space.point_from_values((40, 2))]


@pytest.fixture(scope="module")
def shear_orbit():
    f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
    cert = bounded_distance_constant(f, f.target, 50)
    space = build_translate_space(FloorMapSeed(f), 6, 4, offset_radius=0)
    return orbit_morphism(space, constant=cert.constant)


class TestMatrixMorphism:
    def test_equivariance(self, odometer_points):
        space, points = odometer_points
        eta = matrix_morphism(SHEAR, space, points)
        assert check_equivariance(eta, 3).passed

    def test_inverse_identities_exact(self, odometer_points):
        space, points = odometer_points
        eta = matrix_morphism(SHEAR, space, points)
        result = check_inverse_identities(eta, eta.inverse(), 3)
        assert result.passed

    def test_inverse_equivariance(self, odometer_points):
        space, points = odometer_points
        eta = matrix_morphism(ROTATION, space, points)
        assert check_inverse_equivariance(eta, 3).passed

    @pytest.mark.parametrize(
        "matrix, message",
        [([["1", "0.5"], ["0", "1"]], "matrix must have integer entries"),
         ([[2, 0], [0, 1]], r"matrix determinant 2 is not \+-1")],
    )
    def test_refuses_what_matrix_act_refuses(self, odometer_points, matrix, message):
        space, points = odometer_points
        with pytest.raises(ValueError, match=message):
            matrix_morphism(matrix, space, points)
        with pytest.raises(ValueError, match=message):
            matrix_act(matrix, points[0], space)

    def test_mismatched_inverse_fails(self, odometer_points):
        # pairing the shear with the rotation's inverse must produce witnesses
        space, points = odometer_points
        eta = matrix_morphism(SHEAR, space, points)
        other = matrix_morphism(ROTATION, space, points)
        result = check_inverse_identities(eta, other.inverse(), 3)
        assert not result.passed
        assert result.witnesses


class TestOrbitMorphism:
    def test_equivariance(self, shear_orbit):
        assert check_equivariance(shear_orbit, 2).passed

    def test_inverse_identities(self, shear_orbit):
        result = check_inverse_identities(shear_orbit, shear_orbit.inverse(), 2)
        assert result.passed
        assert result.checked > 0

    def test_inverse_equivariance(self, shear_orbit):
        assert check_inverse_equivariance(shear_orbit, 2).passed

    def test_corrupted_cocycle_fails_equivariance(self):
        # negative control on the half shear as gromov-check builds it at
        # 4/3/1: one wrong cocycle value, at ((1, 0), the first slice member),
        # is the one witness
        Z2 = LatticeGroup(2)
        f = realize_bilipschitz(linalg.parse_matrix("1 0.5; 0 1"), Fraction("1e-9"))
        space = build_translate_space(FloorMapSeed(f), 4, 3, offset_radius=1)
        eta = orbit_morphism(space)
        g, psi = Z2.element((1, 0)), space.slice_members[0]
        assert check_equivariance(eta, 1).passed
        result = check_equivariance(eta.with_override(g, psi, Z2.element((9, 9))), 1)
        assert result.witnesses == [(g, psi)] and result.checked == 10

    def test_corrupted_cocycle_fails_inverse_equivariance(self):
        # inverse-equivariance reads the cocycle at (g, g^-1 . x): an
        # override there is its one witness (g, x), and equivariance, which
        # reads only sampled points, does not see it
        Z2 = LatticeGroup(2)
        f = realize_bilipschitz(linalg.parse_matrix("1 0.5; 0 1"), Fraction("1e-9"))
        space = build_translate_space(FloorMapSeed(f), 4, 3, offset_radius=1)
        eta = orbit_morphism(space)
        g, psi = Z2.element((1, 0)), space.slice_members[0]
        assert check_inverse_equivariance(eta, 1).passed
        bad = eta.with_override(g, eta.source.act(g.inverse(), psi), Z2.element((9, 9)))
        result = check_inverse_equivariance(bad, 1)
        assert result.witnesses == [(g, psi)] and result.checked == 10
        assert check_equivariance(bad, 1).passed

    def test_composition_with_inverse_is_trivial(self, shear_orbit):
        roundtrip = compose_morphisms(shear_orbit.inverse(), shear_orbit)
        gens = roundtrip.source.gens
        for x in roundtrip.source.points:
            for g in gens.ball(2):
                assert roundtrip.evaluate(g, x) == g

    def test_equal_tables_keep_their_own_values_past_the_radius(self):
        # under the quarter shear the translates by (0, -1) and (0, -2) agree
        # on the unit ball but not globally; past the radius each germ's
        # cocycle value must come from its own provenance
        eta, germs, g = _quarter_shear_twins()
        values = [eta.evaluate(g, germ) for germ in germs]
        assert values == [eta.space.global_forward_cocycle(g, germ) for germ in germs]
        assert values[0] != values[1]


class TestOverride:
    def test_with_override_leaves_the_original_unchanged(self):
        eta, _ = realized_morphism([["1", "0.5"], ["0", "1"]], box_radius=25)
        evaluator = eta.evaluator
        x = eta.source.points[0]
        g, h = eta.source.gens.elements[:2]
        value = eta.evaluate(g, x)
        wrong = value * eta.target.group.element((9, 9))
        bad = eta.with_override(g, x, wrong)
        assert bad.kind == "orbit-forward+corrupted"
        assert bad.evaluate(g, x) == wrong
        assert bad.evaluate(h, x) == eta.evaluator(h, x)
        assert eta.kind == "orbit-forward"
        assert eta.evaluate(g, x) == value
        assert eta.evaluator is evaluator

    def test_overrides_are_data_and_the_later_one_wins(self):
        # each override is one (g, point key, value) entry; the evaluator is
        # kept, a copy of a copy keeps both entries, and at the same (g, x)
        # the later value is read, as a chain of wrapped evaluators read it
        eta, _ = realized_morphism([["1", "0.5"], ["0", "1"]], box_radius=25)
        x, y = eta.source.points[:2]
        g, h = eta.source.gens.elements[:2]
        shift = eta.target.group.element((9, 9))
        first = eta.evaluate(g, x) * shift
        second = first * shift
        third = eta.evaluate(h, y) * shift
        bad = eta.with_override(g, x, first).with_override(h, y, third).with_override(g, x, second)
        assert eta.overrides == ()
        assert bad.evaluator is eta.evaluator == eta.space.orbit_cocycle
        assert [entry[0] for entry in bad.overrides] == [g, h, g]
        assert [entry[2] for entry in bad.overrides] == [first, third, second]
        assert bad.kind == "orbit-forward" + "+corrupted" * 3
        assert bad.evaluate(g, x) == second and bad.evaluate(h, y) == third
        assert bad.evaluate(g, y) == eta.evaluate(g, y) and bad.evaluate(h, x) == eta.evaluate(h, x)

    def test_override_at_one_equal_table_twin_leaves_the_other(self):
        # the twins share a table, not a provenance: they are two points
        eta, germs, g = _quarter_shear_twins()
        values = [eta.evaluate(g, germ) for germ in germs]
        wrong = values[0] * eta.target.group.element((9, 9))
        bad = eta.with_override(g, germs[0], wrong)
        assert [bad.evaluate(g, germ) for germ in germs] == [wrong, values[1]]


class TestComposition:
    def test_identity_is_neutral(self, odometer_points):
        space, points = odometer_points
        eta = matrix_morphism(SHEAR, space, points)
        ident = identity_morphism(odometer_translation_system(space, points))
        ident.source.key = eta.source.key
        ident.target.key = eta.source.key
        composed = compose_morphisms(eta, ident)
        gens = composed.source.gens
        for g in gens.ball(2):
            for x in points:
                assert composed.evaluate(g, x) == eta.evaluate(g, x)

    def test_constant_cocycles_compose_to_product(self, odometer_points):
        space, points = odometer_points
        eta = matrix_morphism(ROTATION, space, points)
        theta = matrix_morphism(SHEAR, space, points)
        composed = compose_morphisms(eta, theta)
        product = linalg.mat_mul(linalg.as_matrix(ROTATION), linalg.as_matrix(SHEAR))
        gens = composed.source.gens
        group = gens.group
        for g in gens.ball(2):
            expected = group.element(int(v) for v in linalg.mat_vec(product, g.coords))
            for x in points:
                assert composed.evaluate(g, x) == expected
        with pytest.raises(ValueError, match="composed morphism has no recorded inverse"):
            composed.inverse()

    def test_seed_composition_for_distinct_slices(self):
        eta, _ = realized_morphism([["1", "0"], ["0.25", "1"]], box_radius=25)
        theta, _ = realized_morphism([["1", "0.5"], ["0", "1"]], box_radius=25)
        composed = compose_morphisms(eta, theta)
        assert composed.kind == "composed-seed"
        targets = [m.space.seed.floor_map.target for m in (eta, theta)]
        assert composed.space.seed.floor_map.target == linalg.mat_mul(*targets)

    def test_unrelated_systems_rejected(self, odometer_points, shear_orbit):
        space, points = odometer_points
        eta = matrix_morphism(SHEAR, space, points)
        with pytest.raises(ValueError, match="compose"):
            compose_morphisms(eta, shear_orbit)


def _quarter_shear_twins():
    """The quarter-shear orbit morphism, two truncated germs of radius 1 with
    equal tables and different provenance, and an element past their radius."""
    Z2 = LatticeGroup(2)
    f = realize_bilipschitz([["1", "0.25"], ["0", "1"]])
    space = build_translate_space(FloorMapSeed(f), 1, 3, offset_radius=0)
    germs = [
        MapGerm(space.source_gens, 1, Z2, space.translate_table(g0, Z2.identity(), 1), (g0, Z2.identity()))
        for g0 in (Z2.element((0, -1)), Z2.element((0, -2)))
    ]
    assert germs[0].key() == germs[1].key()
    return orbit_morphism(space), germs, Z2.element((0, 2))
