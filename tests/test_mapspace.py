import copy
import itertools
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import linalg, mapspace
from orbitlab.groups import FreeGroup, LatticeGroup, is_bilipschitz_on_ball
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
        seed = FloorMapSeed(f)
        values = [len(build_translate_space(seed, 4, rt, offset_radius=1).members) for rt in range(5)]
        assert values == sorted(values)

    def test_free_group_identity_seed(self):
        F2 = FreeGroup(2)
        space = build_translate_space(IdentitySeed(F2), 2, 1, offset_radius=0)
        assert len(space.slice_members) == 1
        assert space.lipschitz_constant() == 1


class TestLipschitzConstant:
    def test_one_point_ball_has_constant_1(self):
        space = build_translate_space(IdentitySeed(Z2), 0, 0)
        assert space.lipschitz_constant() == 1

    def test_a_pair_at_distance_0_still_raises(self):
        table = {g: Z1.identity() for g in Z1.standard_generators().ball(1)}
        space = build_translate_space(TableSeed(table, Z1, Z1), 1, 0, offset_radius=0)
        with pytest.raises(ValueError, match="collapses distances"):
            space.lipschitz_constant()

    @pytest.mark.parametrize(
        "name", ["small_shear_space", "boundary_space", "huge_shear_space", "nielsen_space"]
    )
    def test_agrees_with_the_per_pair_fractions(self, request, name):
        # the half shear and the 3x3 acceptance seed take int64 arrays, the
        # 10^20 shear Python-integer arrays, the Nielsen map of F_2 the
        # word-metric loop
        space = request.getfixturevalue(name)
        space = space[0] if isinstance(space, tuple) else space
        ball = space.source_gens.ball(space.radius + space.translate_radius)
        ratios = [
            Fraction(
                space.target_gens.word_metric(space.seed.value(a), space.seed.value(b)),
                space.source_gens.word_metric(a, b),
            )
            for a, b in itertools.combinations(ball, 2)
        ]
        assert space.lipschitz_constant() == max(max(ratios), 1 / min(ratios), 1)


def germ_values(germ):
    """A germ's table as a dict over B(radius), in ball order."""
    return {g: germ.value(g) for g in germ.gens.ball(germ.radius)}


def reference_build(space):
    """The members that building every (g0, delta) germ and then keeping the
    first germ of each key gives, in key order."""
    by_key = {}
    for g0 in space.source_gens.ball(space.translate_radius):
        for delta in space.target_gens.ball(space.offset_radius):
            table = space.translate_table(g0, delta, space.radius)
            germ = MapGerm(space.source_gens, space.radius, space.target_gens.group, table, (g0, delta))
            by_key.setdefault(germ.key(), germ)
    return tuple(sorted(by_key.values(), key=MapGerm.key))


@pytest.fixture
def cli_shear_space():
    """The half shear as ``gromov-check --matrix "1 0.5; 0 1"`` builds it, at 4/3/1."""
    f = realize_bilipschitz(linalg.parse_matrix("1 0.5; 0 1"), Fraction("1e-9"))
    return build_translate_space(FloorMapSeed(f), 4, 3, offset_radius=1)


class TestTranslateTable:
    def test_a_far_translate_reads_the_seed_point_by_point(self):
        # a translate past B(2R + R_t) reads the seed at the |B(R)| points
        # it needs; the ball it reaches, B(12) of F_2 or larger, holds over
        # a million words
        F2 = FreeGroup(2)
        space = build_translate_space(IdentitySeed(F2), 3, 3, offset_radius=0)
        germ = space.members[-1]
        g = F2.word("ab" * 6)
        moved = space.global_act_source(g, germ)
        assert moved.provenance == (g * germ.provenance[0], F2.identity())
        assert all(moved.value(h) == h for h in space.source_gens.ball(3))
        assert space.source_gens._explored <= 2 * 3 + 3


    @pytest.mark.parametrize("fixture", ["cli_shear_space", "nielsen_space"])
    def test_matches_the_seed_formula(self, request, fixture):
        # psi(h) = delta s(g0^-1)^-1 s(g0^-1 h), read straight off seed.value,
        # for every provenance of the space, on the Z^2 half shear and on the
        # F_2 table seed (where left and right multiplication differ)
        space = request.getfixturevalue(fixture)
        space = space[0] if fixture == "nielsen_space" else space
        s = space.seed.value
        ball = space.source_gens.ball(space.radius)
        for g0 in space.source_gens.ball(space.translate_radius):
            for delta in space.target_gens.ball(space.offset_radius):
                table = space.translate_table(g0, delta, space.radius)
                assert len(table) == len(ball)
                germ = MapGerm(space.source_gens, space.radius, space.target_gens.group, table)
                for h in ball:
                    assert germ.value(h) == delta * s(g0.inverse()).inverse() * s(g0.inverse() * h)


class TestBuildSurvivorsOnly:
    @pytest.mark.parametrize(
        "name", ["shear_space", "small_shear_space", "nielsen_space", "identity_space", "cli_shear_space"]
    )
    def test_same_members_as_the_build_of_every_germ(self, request, name):
        space = request.getfixturevalue(name)
        space = space[0] if isinstance(space, tuple) else space
        expected = reference_build(space)
        assert len(space.members) == len(expected) > 1
        assert [(m.key(), m.provenance) for m in space.members] == [
            (m.key(), m.provenance) for m in expected
        ]

    def test_builds_no_germ_that_is_not_a_member(self, monkeypatch):
        built = []
        init = MapGerm.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MapGerm, "__init__", counting)
        space = build_translate_space(FloorMapSeed(realize_bilipschitz(HALF_SHEAR)), 6, 6, offset_radius=2)
        assert len(built) == len(space.members)


class TestExactRows:
    def test_a_sum_that_leaves_a_rung_is_exact(self):
        # the row bound plus the shift's picks the rung before the add: a
        # peak of limit - 1 stays on the rung, a peak of limit takes the next
        for limit, below, above in ((2**30, np.int32, np.int64), (2**62, np.int64, object)):
            near = np.array([[limit - 2, -5], [3, 4]], dtype=np.int64)
            for shift, dtype in (((0, 1), below), ((1, 1), below), ((2, 0), above), ((0, -2), above)):
                out = mapspace._offset(near, shift)
                expected = [[limit - 2 + shift[0], -5 + shift[1]], [3 + shift[0], 4 + shift[1]]]
                assert out.dtype == dtype and out.tolist() == expected
            out = mapspace._offset(near, (2**70, 0))
            assert out.dtype == object and out.tolist() == [[2**70 + limit - 2, -5], [2**70 + 3, 4]]

    def test_rows_of_either_width_compare_by_value(self, shear_space):
        # a germ whose rows were widened to Python integers equals, matches
        # and keys like the int64 one
        germ = shear_space.members[0]
        wide = germ.table.astype(object)
        twin = MapGerm(germ.gens, germ.radius, germ.group, wide, germ.provenance)
        assert np.array_equal(wide, germ.table) and twin.key() == germ.key() and twin == germ
        assert twin.matches(germ) and germ.matches(twin)
        e = Z2.identity()
        assert shear_space.find_slice_match(twin) is shear_space.find_slice_match(germ)
        assert shear_space.partial_inverse(twin, e) == shear_space.partial_inverse(germ, e)


def acted(call):
    """A germ's key, radius and provenance, or a TruncationError's message."""
    try:
        germ = call()
    except TruncationError as exc:
        return str(exc)
    return germ.key(), germ.radius, germ.provenance


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

    def test_target_action_by_cocycle_value_is_source_action(self, shear_space, nielsen_space):
        # act_target(orbit_cocycle(g, psi), psi) and act_source(g, psi) are
        # one germ with one radius; a global seed's exact action agrees too
        cases = 0
        for space, radius in ((shear_space, 2), (nielsen_space[0], 1)):
            for psi in space.slice_members:
                for g in space.source_gens.ball(radius):
                    by_source = space.act_source(g, psi)
                    by_target = space.act_target(space.orbit_cocycle(g, psi), psi)
                    assert by_target.key() == by_source.key()
                    assert by_target.provenance == by_source.provenance
                    if space.seed.is_global:
                        assert space.global_act_source(g, psi).matches(by_source)
                    cases += 1
        assert cases == 31
        # lam . psi is b . psi at the backward cocycle b, as psi(b^-1) =
        # lam^-1: for every lam of B(W) and every member, the offset ones
        # (delta != e) and a non-injective germ included, both give one key,
        # radius and provenance, or raise one TruncationError
        germ = shear_space.members[-1]
        values = {g: germ.value(g) for g in germ.gens.ball(germ.radius)}
        points = list(values)
        values[points[-1]] = values[points[1]]
        non_injective = MapGerm.from_dict(germ.gens, germ.radius, values, germ.provenance)
        refused = 0
        for space, germs, window in (
            (shear_space, shear_space.members, 2),
            (nielsen_space[0], nielsen_space[0].members, 1),
            (shear_space, [non_injective], 2),
        ):
            for psi in germs:
                for lam in space.target_gens.ball(window):
                    by_target = acted(lambda: space.act_target(lam, psi))
                    by_source = acted(lambda: space.act_source(space.backward_cocycle(lam, psi), psi))
                    assert by_target == by_source
                    if isinstance(by_target, str):
                        refused += 1
                    else:
                        back = space.backward_cocycle(lam, psi)
                        assert psi.value(back.inverse()) == lam.inverse()
                        cases += 1
        # 26 shear members and 5 Nielsen members, 13 and 5 lam each; the
        # Nielsen germs miss 8 lam of B(1) in their image
        assert (cases, refused) == (31 + 26 * 13 + 5 * 5 - 8 + 13, 8)

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
            assert space.orbit_cocycle(g, psi) == g

    def test_cocycle_at_identity_is_identity(self, shear_space):
        for psi in shear_space.slice_members:
            assert shear_space.orbit_cocycle(Z2.identity(), psi).is_identity()

    def test_forward_values_near_matrix(self, shear_space):
        # |cocycle(g, psi) - A g|_inf stays below twice the seed gap bound
        for psi in shear_space.slice_members:
            for g in shear_space.source_gens.ball(4):
                value = shear_space.orbit_cocycle(g, psi)
                ax = (g.coords[0] + 0.5 * g.coords[1], g.coords[1])
                gap = max(abs(a - b) for a, b in zip(value.coords, ax))
                assert gap <= 2

    def test_global_matches_table_form(self, shear_space):
        table = orbit_morphism(shear_space)
        for psi in shear_space.slice_members:
            for g in shear_space.source_gens.ball(3):
                assert table.evaluate(g, psi) == shear_space.global_forward_cocycle(g, psi)

    def test_backward_roundtrip(self, shear_space):
        psi = shear_space.slice_members[0]
        for g in shear_space.source_gens.ball(3):
            lam = shear_space.orbit_cocycle(g, psi)
            assert shear_space.backward_cocycle(lam, psi) == g

    def test_global_backward_matches_table_form(self, shear_space):
        # offset members (delta != e) too: the formula carries delta^-1
        offset = [m for m in shear_space.members if not m.provenance[1].is_identity()]
        for psi in [*shear_space.slice_members[:5], *offset[:20]]:
            for h in shear_space.source_gens.ball(2):
                lam = psi.value(h).inverse()
                assert shear_space.global_backward_cocycle(lam, psi) == h.inverse()
                assert shear_space.backward_cocycle(lam, psi) == h.inverse()

    def test_global_backward_needs_a_global_representative(self, shear_space, nielsen_space):
        psi = shear_space.slice_members[0]
        bare = MapGerm(psi.gens, psi.radius, psi.group, psi.table)
        with pytest.raises(TruncationError, match="globally defined"):
            shear_space.global_backward_cocycle(Z2.identity(), bare)
        table_space, _ = nielsen_space
        with pytest.raises(TruncationError, match="globally defined"):
            table_space.global_backward_cocycle(
                table_space.target_gens.group.identity(), table_space.slice_members[0]
            )


class TestBattery:
    def test_lipschitz_closure(self, shear_space):
        result = check_lipschitz_closure(shear_space)
        assert result.passed
        assert result.checked == len(shear_space.members)

    def test_action_law(self, shear_space):
        assert check_action_law(shear_space, 2).passed

    def test_cocycle_identity(self, shear_space):
        table = orbit_morphism(shear_space)
        result = check_cocycle_identity(shear_space, table, 2)
        assert result.passed
        assert result.checked == 13 * 13 * len(shear_space.slice_members)
        # table_radius is the reach 2 radius of the products g h
        assert result.coverage == {"R": 2, "table_radius": 4}

    def test_corrupted_table_fails_with_witness(self, shear_space):
        table = orbit_morphism(shear_space)
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
        bad_table = germ_values(germ)
        key = list(bad_table)[5]
        bad_table[key] = Z2.element((30, 30))
        bad = MapGerm.from_dict(germ.gens, germ.radius, bad_table, germ.provenance)
        f = realize_bilipschitz(HALF_SHEAR)
        other = build_translate_space(FloorMapSeed(f), 6, 6, offset_radius=2)
        other.members = other.members + (bad,)
        # each check fails on the corrupted member alone, with one witness
        lips = check_lipschitz_closure(other)
        assert lips.witnesses == [(bad, (Z2.element((-6, 0)), Z2.element((-4, -1))))]
        domain = check_fundamental_domain(other, 2)
        assert domain.witnesses == [("target-hit-not-in-slice", Z2.element((-2, 0)), bad)]

    def test_orbit_equality_all_slice_points(self, shear_space):
        for psi in shear_space.slice_members:
            result = check_orbit_equality(shear_space, psi, 2)
            assert result.passed
            assert result.coverage["source_orbit"] == result.coverage["target_orbit"]

    def test_orbit_equality_identity_seed(self):
        space = build_translate_space(IdentitySeed(Z1), 3, 3)
        assert check_orbit_equality(space, space.slice_members[0], 1).passed


ACCEPTANCE_3X3 = "-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5"


@pytest.fixture(scope="module")
def boundary_space():
    """The first 3x3 acceptance matrix at 3/2/1: ``gromov-check`` builds it."""
    f = realize_bilipschitz(linalg.parse_matrix(ACCEPTANCE_3X3), Fraction("1e-9"))
    return build_translate_space(FloorMapSeed(f), 3, 2, offset_radius=1)


@pytest.fixture(scope="module")
def huge_shear_space():
    f = realize_bilipschitz([["1", "100000000000000000000"], ["0", "1"]])
    return build_translate_space(FloorMapSeed(f), 2, 1, offset_radius=1)


def unmatched_source_hits(space, window):
    """(member, g) for every source hit g . omega that no slice member matches."""
    e = space.target_gens.group.identity()
    return [
        (omega, g)
        for omega in space.members
        for g in space.source_gens.ball(window)
        if omega.value(g.inverse()) == e
        and space.find_slice_match(space.act_source(g, omega)) is None
    ]


class TestFundamentalDomainPastTheTranslates:
    def test_hits_from_outside_the_translate_ball_pass(self, boundary_space):
        # each unmatched hit has provenance g g0 outside B(R_t) and is the
        # seed translate it names, so it lies in the slice
        space = boundary_space
        hits = unmatched_source_hits(space, 1)
        assert len(hits) == 11
        for omega, g in hits:
            g0 = g * omega.provenance[0]
            assert space.source_gens.word_length(g0) > space.translate_radius
        assert check_fundamental_domain(space, 1).passed

    def test_corrupted_boundary_member_fails_with_a_witness(self, boundary_space):
        # corrupt an entry the hit reads, other than g^-1 (where omega is e)
        space = boundary_space
        omega, g = unmatched_source_hits(space, 1)[0]
        table = germ_values(omega)
        point = g.inverse() * space.source_gens.elements[0]
        assert point != g.inverse()
        table[point] = LatticeGroup(3).element((30, 30, 30))
        bad = MapGerm.from_dict(omega.gens, omega.radius, table, omega.provenance)
        clone = copy.copy(space)
        clone.members = space.members + (bad,)
        result = check_fundamental_domain(clone, 1)
        # the bad member's source hit fails first; its target hit (lambda =
        # delta^-1, a translate from inside B(R_t)) matches no member either
        assert result.witnesses == [
            ("source-hit-not-in-slice", g, bad),
            ("target-hit-not-in-slice", bad.value_at_identity(), bad),
        ]

    def test_table_seed_passes_past_the_slice(self, boundary_space):
        # the same seed as a table on B(R + R_t) = B(5): its unmatched hits
        # read the table only there, so they pass as the global seed's do;
        # a corrupted boundary member still fails with a witness
        space = boundary_space
        table = {g: space.seed.value(g) for g in space.source_gens.ball(5)}
        Z3 = LatticeGroup(3)
        table_space = build_translate_space(TableSeed(table, Z3, Z3), 3, 2, offset_radius=1)
        hits = unmatched_source_hits(table_space, 1)
        assert [(omega.provenance, g) for omega, g in hits] == [
            (omega.provenance, g) for omega, g in unmatched_source_hits(space, 1)
        ]
        result = check_fundamental_domain(table_space, 1)
        assert result.passed and result.witnesses == []
        omega, g = hits[0]
        bad_table = germ_values(omega)
        bad_table[g.inverse() * table_space.source_gens.elements[0]] = Z3.element((30, 30, 30))
        bad = MapGerm.from_dict(omega.gens, omega.radius, bad_table, omega.provenance)
        clone = copy.copy(table_space)
        clone.members = table_space.members + (bad,)
        witnesses = check_fundamental_domain(clone, 1).witnesses
        assert witnesses[0] == ("source-hit-not-in-slice", g, bad)


def reference_closure(space):
    """The closure as one full pair sweep per member, with no inheritance:
    each member's first violating pair, or None."""
    constant = space.lipschitz_constant()
    verdicts = []
    for germ in space.members:
        report = is_bilipschitz_on_ball(
            germ.value, germ.radius, constant, space.source_gens, space.target_gens
        )
        verdicts.append(report.witnesses[0] if report.witnesses else None)
    return verdicts


def per_member(space, result):
    failed = {id(germ): pair for germ, pair in result.witnesses}
    return [failed.get(id(germ)) for germ in space.members]


def with_corrupted_member(space, value, index=3):
    """A copy of the space with one member appended whose table is wrong at
    one entry; the original space is left as it was."""
    germ = space.members[0]
    table = germ_values(germ)
    table[list(table)[index]] = value
    clone = copy.copy(space)
    clone.members = space.members + (MapGerm.from_dict(germ.gens, germ.radius, table, germ.provenance),)
    return clone


@pytest.fixture
def small_shear_space():
    f = realize_bilipschitz(HALF_SHEAR)
    return build_translate_space(FloorMapSeed(f), 4, 3, offset_radius=1)


@pytest.fixture
def identity_space():
    return build_translate_space(IdentitySeed(Z2), 3, 2, offset_radius=1)


@pytest.fixture
def bilipschitz_calls(monkeypatch):
    """Every (map owner, radius, passed) that the closure check sweeps."""
    calls = []

    def spy(f, radius, constant, source, target):
        report = is_bilipschitz_on_ball(f, radius, constant, source, target)
        calls.append((f.__self__, radius, report.passed))
        return report

    monkeypatch.setattr(mapspace, "is_bilipschitz_on_ball", spy)
    return calls


class TestClosureInheritance:
    @pytest.mark.parametrize("name", ["shear_space", "nielsen_space", "identity_space"])
    def test_agrees_with_the_per_member_sweep(self, request, name):
        space = request.getfixturevalue(name)
        space = space[0] if isinstance(space, tuple) else space
        result = check_lipschitz_closure(space)
        assert result.passed
        assert per_member(space, result) == reference_closure(space) == [None] * len(space.members)

    @pytest.mark.parametrize("name", ["small_shear_space", "nielsen_space", "identity_space"])
    def test_agrees_with_the_per_member_sweep_on_a_corrupted_member(self, request, name):
        space = request.getfixturevalue(name)
        space = space[0] if isinstance(space, tuple) else space
        far = space.target_gens.elements[0]
        for _ in range(3 * (space.radius + space.translate_radius)):
            far = far * space.target_gens.elements[0]
        bad_space = with_corrupted_member(space, far)
        result = check_lipschitz_closure(bad_space)
        expected = reference_closure(bad_space)
        assert not result.passed
        assert expected[:-1] == [None] * len(space.members) and expected[-1] is not None
        assert per_member(bad_space, result) == expected

    def test_seed_is_certified_once_and_every_member_inherits(self, small_shear_space, bilipschitz_calls):
        space = small_shear_space
        assert check_lipschitz_closure(space).passed
        assert bilipschitz_calls == [(space, space.radius + space.translate_radius, True)]

    def test_corrupted_entry_fails_with_the_full_sweep_witness(self, small_shear_space, bilipschitz_calls):
        space = with_corrupted_member(small_shear_space, Z2.element((25, -25)))
        bad = space.members[-1]
        result = check_lipschitz_closure(space)
        full = is_bilipschitz_on_ball(
            bad.value, bad.radius, space.lipschitz_constant(), space.source_gens, space.target_gens
        )
        assert not result.passed
        assert result.witnesses == [(bad, full.witnesses[0])]
        assert [owner for owner, _, _ in bilipschitz_calls] == [space, bad]

    def test_corrupted_provenance_with_intact_table_is_swept(self, small_shear_space, bilipschitz_calls):
        space = small_shear_space
        germ = space.members[0]
        g0, delta = germ.provenance
        # one provenance names a translate with another table; the other names
        # a translate with this very table (the half shear has period 2 in
        # the second coordinate) that reads the seed outside B(R + R_t)
        mismatched = g0 * Z2.element((0, 1))
        distant = g0 * Z2.element((0, 2 * (space.radius + space.translate_radius)))
        translate = lambda g: space.translate_table(g, delta, germ.radius)
        assert not np.array_equal(translate(mismatched), germ.table)
        assert np.array_equal(translate(distant), germ.table)
        moved = [
            MapGerm(germ.gens, germ.radius, germ.group, germ.table, (g, delta))
            for g in (mismatched, distant)
        ]
        space.members = space.members + tuple(moved)
        result = check_lipschitz_closure(space)
        assert result.passed
        assert bilipschitz_calls[1:] == [(m, m.radius, True) for m in moved]

    def test_too_small_constant_fails_and_no_member_inherits(self, small_shear_space, bilipschitz_calls, monkeypatch):
        space = small_shear_space
        assert space.lipschitz_constant() == 2
        monkeypatch.setattr(space, "lipschitz_constant", lambda: Fraction(3, 2))
        result = check_lipschitz_closure(space)
        assert not result.passed and result.witnesses
        assert bilipschitz_calls[0] == (space, space.radius + space.translate_radius, False)
        assert [owner for owner, _, _ in bilipschitz_calls[1:]] == list(space.members)


class TestFreeness:
    def test_identity_seed_fixed_points_destroyed(self):
        # every g fixes the single slice germ of the identity seed; the
        # product with the odometer moves every pair
        space = build_translate_space(IdentitySeed(Z1), 3, 3)
        psi = space.slice_members[0]
        g = Z1.element((1,))
        assert space.act_source(g, psi).matches(psi)
        odo = OdometerSpace((2, 2), 3)
        verdict = force_freeness(space, odo, 3)
        assert verdict.passed
        assert verdict.checked > 0

    def test_too_shallow_odometer_fails_at_window_8(self):
        # negative control: the moduli of a depth-3 odometer are 8, so
        # g = (+-8,) with cocycle value g returns its zero to itself while g
        # fixes the identity germ; the CLI builds depth 4 at W = 8
        space = build_translate_space(IdentitySeed(Z1), 8, 8)
        psi = space.slice_members[0]
        odo = OdometerSpace((2, 2), 3)
        verdict = force_freeness(space, odo, 8)
        assert verdict.witnesses == [
            (Z1.element((-8,)), psi, odo.zero()),
            (Z1.element((8,)), psi, odo.zero()),
        ]
        assert force_freeness(space, OdometerSpace((2, 2), 4), 8).passed

    def test_shear_space_freeness(self, shear_space):
        odo = OdometerSpace((2,) * 4, 3)
        verdict = force_freeness(shear_space, odo, 2)
        assert verdict.passed

    def test_window_zero_vacuous(self, shear_space):
        odo = OdometerSpace((2,) * 4, 3)
        verdict = force_freeness(shear_space, odo, 0)
        assert verdict.passed
        assert verdict.checked == 0

    def test_dimension_mismatch_rejected(self, shear_space):
        with pytest.raises(ValueError, match="dimension"):
            force_freeness(shear_space, OdometerSpace((2,), 3), 2)


class TestBackwardTable:
    def test_backward_acts_consistently(self, shear_space):
        backward = orbit_morphism(shear_space).inverse()
        psi = shear_space.slice_members[0]
        for g in shear_space.source_gens.ball(2):
            lam = shear_space.orbit_cocycle(g, psi)
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
            assert space.orbit_cocycle(g, psi) == nielsen(g)

    def test_battery_passes(self, nielsen_space):
        space, _ = nielsen_space
        assert check_lipschitz_closure(space).passed
        assert check_action_law(space, 1).passed
        table = orbit_morphism(space)
        assert check_cocycle_identity(space, table, 1).passed
        assert check_fundamental_domain(space, 1).passed
        for psi in space.slice_members:
            assert check_orbit_equality(space, psi, 1).passed

    def test_morphism_roundtrips(self, nielsen_space):
        from orbitlab.morphisms import check_equivariance, check_inverse_identities

        space, _ = nielsen_space
        eta = orbit_morphism(space)
        assert check_equivariance(eta, 1).passed
        assert check_inverse_identities(eta, eta.inverse(), 1).passed
