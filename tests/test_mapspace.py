import pytest

from orbitlab.groups import FreeGroup, LatticeGroup
from orbitlab.mapspace import (
    FloorMapSeed,
    IdentitySeed,
    MapGerm,
    TableSeed,
    TruncationError,
    build_translate_space,
    check_action_law,
    check_cocycle_identity,
    check_fundamental_domain,
    check_lipschitz_closure,
    check_orbit_equality,
    force_freeness,
)
from orbitlab.morphisms import orbit_morphism
from orbitlab.odometer import OdometerSpace
from orbitlab.shears import realize_bilipschitz

Z1 = LatticeGroup(1)
Z2 = LatticeGroup(2)
HALF_SHEAR = [["1", "0.5"], ["0", "1"]]


@pytest.fixture(scope="module")
def shear_space():
    f = realize_bilipschitz(HALF_SHEAR)
    return build_translate_space(FloorMapSeed(f), 6, 6, offset_radius=2)


class TestBuild:
    def test_identity_seed_translates_normalize_to_identity(self):
        space = build_translate_space(IdentitySeed(Z1), 2, 2)
        assert len(space.slice_members) == 1
        psi = space.slice_members[0]
        for g in space.source_gens.ball(2):
            assert psi.value(g) == g
        # offsets contribute one germ per offset value
        assert len(space.members) == 5

    def test_translate_radius_zero_single_germ(self):
        space = build_translate_space(IdentitySeed(Z1), 2, 0, offset_radius=0)
        assert len(space.members) == 1

    def test_floor_seed_slice_sees_floor_pattern(self):
        f = realize_bilipschitz(HALF_SHEAR)
        space = build_translate_space(FloorMapSeed(f), 3, 3, offset_radius=0)
        assert len(space.slice_members) > 1

    def test_table_seed_domain_enforced(self):
        table = {g: g for g in Z1.standard_generators().ball(2)}
        seed = TableSeed(table, Z1, Z1)
        with pytest.raises(TruncationError):
            build_translate_space(seed, 2, 2)
        space = build_translate_space(seed, 1, 1, offset_radius=0)
        assert space.slice_members

    def test_member_count_monotone_in_translate_radius(self):
        f = realize_bilipschitz(HALF_SHEAR)
        space = build_translate_space(FloorMapSeed(f), 4, 4, offset_radius=1)
        sizes = space.stabilization_report([0, 1, 2, 3, 4])
        values = [sizes[r] for r in sorted(sizes)]
        assert values == sorted(values)

    def test_free_group_identity_seed(self):
        F2 = FreeGroup(2)
        space = build_translate_space(IdentitySeed(F2), 2, 1, offset_radius=0)
        assert len(space.slice_members) == 1
        assert space.lipschitz_constant() == 1


class TestActions:
    def test_identity_element_acts_trivially(self, shear_space):
        psi = shear_space.slice_members[0]
        assert shear_space.act_source(Z2.identity(), psi).matches(psi)
        lam = Z2.identity()
        assert shear_space.act_target(lam, psi).matches(psi)

    def test_source_action_stays_in_slice(self, shear_space):
        for psi in shear_space.slice_members:
            for g in shear_space.source_gens.ball(2):
                acted = shear_space.act_source(g, psi)
                assert acted.is_normalized()

    def test_domain_slack_enforced(self, shear_space):
        psi = shear_space.slice_members[0]
        with pytest.raises(TruncationError):
            shear_space.act_source(Z2.element((7, 0)), psi)
        small = shear_space.act_source(Z2.element((3, 0)), psi)
        assert small.radius == psi.radius - 3
        with pytest.raises(TruncationError):
            small.value(Z2.element((4, 0)))

    def test_target_action_needs_value_in_image(self, shear_space):
        psi = shear_space.slice_members[0]
        with pytest.raises(TruncationError, match="image"):
            shear_space.act_target(Z2.element((50, 50)), psi)

    def test_raw_translate_tracks_offset(self, shear_space):
        psi = shear_space.slice_members[0]
        lam = Z2.element((1, 0))
        raw = shear_space.raw_translate(Z2.identity(), lam, psi)
        assert raw.value_at_identity() == lam

    def test_target_action_by_cocycle_value_is_source_action(self, shear_space, nielsen_space):
        # act_target(forward_cocycle(g, psi), psi) and act_source(g, psi) are
        # one germ with one radius; a global seed's exact action agrees too
        cases = 0
        for space, radius in ((shear_space, 2), (nielsen_space[0], 1)):
            for psi in space.slice_members:
                for g in space.source_gens.ball(radius):
                    by_source = space.act_source(g, psi)
                    by_target = space.act_target(space.forward_cocycle(g, psi), psi)
                    assert by_target.key() == by_source.key()
                    assert by_target.provenance == by_source.provenance
                    if space.seed.is_global:
                        assert space.global_act_source(g, psi).matches(by_source)
                    cases += 1
        assert cases == 31

    def test_global_action_matches_truncated(self, shear_space):
        psi = shear_space.slice_members[0]
        g = Z2.element((1, -1))
        truncated = shear_space.act_source(g, psi)
        global_ = shear_space.global_act_source(g, psi)
        assert global_.radius == shear_space.radius
        assert truncated.matches(global_)


class TestCocycles:
    def test_identity_seed_cocycle_is_identity(self):
        space = build_translate_space(IdentitySeed(Z1), 3, 2)
        psi = space.slice_members[0]
        for g in space.source_gens.ball(3):
            assert space.forward_cocycle(g, psi) == g

    def test_cocycle_at_identity_is_identity(self, shear_space):
        for psi in shear_space.slice_members:
            assert shear_space.forward_cocycle(Z2.identity(), psi).is_identity()

    def test_forward_values_near_matrix(self, shear_space):
        # |cocycle(g, psi) - A g|_inf stays below twice the seed gap bound
        for psi in shear_space.slice_members:
            for g in shear_space.source_gens.ball(4):
                value = shear_space.forward_cocycle(g, psi)
                ax = (g.coords[0] + 0.5 * g.coords[1], g.coords[1])
                gap = max(abs(a - b) for a, b in zip(value.coords, ax))
                assert gap <= 2

    def test_global_matches_table_form(self, shear_space):
        table = orbit_morphism(shear_space, 4)
        for psi in shear_space.slice_members:
            for g in shear_space.source_gens.ball(3):
                assert table.evaluate(g, psi) == shear_space.global_forward_cocycle(g, psi)

    def test_backward_roundtrip(self, shear_space):
        psi = shear_space.slice_members[0]
        for g in shear_space.source_gens.ball(3):
            lam = shear_space.forward_cocycle(g, psi)
            assert shear_space.backward_cocycle(lam, psi) == g


class TestBattery:
    def test_lipschitz_closure(self, shear_space):
        result = check_lipschitz_closure(shear_space)
        assert result.passed
        assert result.checked == len(shear_space.members)

    def test_action_law(self, shear_space):
        assert check_action_law(shear_space, 2).passed

    def test_cocycle_identity(self, shear_space):
        table = orbit_morphism(shear_space, 4)
        result = check_cocycle_identity(shear_space, table, 2)
        assert result.passed
        assert result.checked == 13 * 13 * len(shear_space.slice_members)

    def test_cocycle_identity_coverage_guard(self, shear_space):
        table = orbit_morphism(shear_space, 2)
        with pytest.raises(TruncationError, match="identity sweep"):
            check_cocycle_identity(shear_space, table, 2)

    def test_corrupted_table_fails_with_witness(self, shear_space):
        table = orbit_morphism(shear_space, 4)
        psi = shear_space.slice_members[0]
        g = Z2.element((1, 0))
        bad = table.with_override(g, psi, Z2.element((9, 9)))
        result = check_cocycle_identity(shear_space, bad, 2)
        assert not result.passed
        assert result.witnesses

    def test_fundamental_domain(self, shear_space):
        result = check_fundamental_domain(shear_space, 2)
        assert result.passed
        assert result.coverage["interior"] > 0

    def test_fundamental_domain_window_guard(self, shear_space):
        with pytest.raises(TruncationError):
            check_fundamental_domain(shear_space, 7)

    def test_fundamental_domain_identity_seed(self):
        space = build_translate_space(IdentitySeed(Z1), 3, 3, offset_radius=1)
        assert check_fundamental_domain(space, 1).passed

    def test_corrupted_member_fails_domain_check(self, shear_space):
        germ = shear_space.members[0]
        bad_table = dict(germ.table)
        key = list(bad_table)[5]
        bad_table[key] = Z2.element((30, 30))
        bad = MapGerm(germ.gens, germ.radius, bad_table, germ.provenance)
        f = realize_bilipschitz(HALF_SHEAR)
        other = build_translate_space(FloorMapSeed(f), 6, 6, offset_radius=2)
        other.members = other.members + (bad,)
        lips = check_lipschitz_closure(other)
        domain = check_fundamental_domain(other, 2)
        assert not (lips.passed and domain.passed)

    def test_orbit_equality_all_slice_points(self, shear_space):
        for psi in shear_space.slice_members:
            result = check_orbit_equality(shear_space, psi, 2)
            assert result.passed
            assert result.coverage["source_orbit"] == result.coverage["target_orbit"]

    def test_orbit_equality_identity_seed(self):
        space = build_translate_space(IdentitySeed(Z1), 3, 3)
        assert check_orbit_equality(space, space.slice_members[0], 1).passed


class TestFreeness:
    def test_identity_seed_fixed_points_destroyed(self):
        # every g fixes the single slice germ of the identity seed; the
        # product with the odometer moves every pair
        space = build_translate_space(IdentitySeed(Z1), 3, 3)
        psi = space.slice_members[0]
        g = Z1.element((1,))
        assert space.act_source(g, psi).matches(psi)
        odo = OdometerSpace((2, 2), 3)
        _, verdict = force_freeness(space, odo, 3)
        assert verdict.passed
        assert verdict.checked > 0

    def test_shear_space_freeness(self, shear_space):
        odo = OdometerSpace((2,) * 4, 3)
        _, verdict = force_freeness(shear_space, odo, 2)
        assert verdict.passed

    def test_window_zero_vacuous(self, shear_space):
        odo = OdometerSpace((2,) * 4, 3)
        _, verdict = force_freeness(shear_space, odo, 0)
        assert verdict.passed
        assert verdict.checked == 0

    def test_dimension_mismatch_rejected(self, shear_space):
        with pytest.raises(ValueError, match="dimension"):
            force_freeness(shear_space, OdometerSpace((2,), 3), 2)


class TestBackwardTable:
    def test_backward_acts_consistently(self, shear_space):
        backward = orbit_morphism(shear_space, 4).inverse()
        psi = shear_space.slice_members[0]
        for g in shear_space.source_gens.ball(2):
            lam = shear_space.forward_cocycle(g, psi)
            assert backward.evaluate(lam, psi) == g
            acted = backward.source.act(lam, psi)
            assert acted.matches(shear_space.act_source(g, psi))


@pytest.fixture(scope="module")
def nielsen_space():
    F2 = FreeGroup(2)
    gens = F2.standard_generators()

    def nielsen(word):
        out = F2.identity()
        for letter in word.letters:
            out = out * F2.word({1: "a", -1: "A", 2: "ab", -2: "BA"}[letter])
        return out

    table = {w: nielsen(w) for w in gens.ball(4)}
    space = build_translate_space(TableSeed(table, F2, F2), 2, 2, offset_radius=1)
    return space, nielsen


class TestNonAbelianSeed:
    """A Nielsen automorphism of F_2 as a table seed: exercises every
    multiplication order that abelian seeds cannot distinguish."""

    def test_slice_is_the_automorphism(self, nielsen_space):
        # homomorphism seeds normalize every translate back to themselves
        space, nielsen = nielsen_space
        assert len(space.slice_members) == 1
        psi = space.slice_members[0]
        for g in space.source_gens.ball(2):
            assert psi.value(g) == nielsen(g)
            assert space.forward_cocycle(g, psi) == nielsen(g)

    def test_battery_passes(self, nielsen_space):
        space, _ = nielsen_space
        assert check_lipschitz_closure(space).passed
        assert check_action_law(space, 1).passed
        table = orbit_morphism(space, 2)
        assert check_cocycle_identity(space, table, 1).passed
        assert check_fundamental_domain(space, 1).passed
        for psi in space.slice_members:
            assert check_orbit_equality(space, psi, 1).passed

    def test_morphism_roundtrips(self, nielsen_space):
        from orbitlab.morphisms import check_equivariance, check_inverse_identities

        space, _ = nielsen_space
        eta = orbit_morphism(space, radius=1)
        assert check_equivariance(eta, 1).passed
        assert check_inverse_identities(eta, eta.inverse(), 1).passed
