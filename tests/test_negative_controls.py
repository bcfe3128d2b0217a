"""Every check id a report carries has a control that makes it fail with a
witness.

``CONTROLS`` maps each check id of the golden fixtures (every
``orbit-equality[i]`` counted as one id) to the tests, as
``file::Class::test`` paths under ``tests/``, that make that check fail with
a witness.  The guards refuse a fixture id with no entry, an entry for an id
no fixture carries, and an entry naming a test that does not exist.

The controls below cover the ids that had none.  ``action-law``,
``orbit-equality``, ``haar-invariance`` and ``functoriality`` fail on a
patched implementation: ``action-law`` both in the stacked action the
library's check runs on and in ``act_source`` under the scalar reference
loop of ``battery_reference``; ``orbit-equality`` also fails on an input, a
non-injective slice germ, and ``cocycle-identity`` on a slice germ whose
table is not the translate its provenance names, once g h reaches past its
radius; ``constant-invariant-exact`` fails on a corrupted cocycle read
through the ``odometer`` command.
"""
import ast
import copy
import itertools
import json
import re
from pathlib import Path

import pytest
from battery_reference import action_law
from click.testing import CliRunner

from orbitlab import batteries, cli, invariants
from orbitlab.groups import LatticeGroup
from orbitlab.invariants import functoriality_check
from orbitlab.mapspace import (
    FloorMapSeed,
    MapGerm,
    TruncatedMapSpace,
    build_translate_space,
    check_action_law,
    check_cocycle_identity,
    check_orbit_equality,
)
from orbitlab.morphisms import compose_morphisms, matrix_morphism, orbit_morphism
from orbitlab.odometer import Cylinder, OdometerSpace, haar_invariance_check
from orbitlab.shears import realize_bilipschitz

TESTS = Path(__file__).parent

CONTROLS = {
    "action-law": (
        "test_negative_controls.py::test_action_law_fails_when_one_element_acts_trivially",
        "test_negative_controls.py::test_action_law_fails_when_one_element_acts_trivially_on_the_stack",
    ),
    "ad-realization": (
        "test_fullgroup.py::TestAdRealization"
        "::test_corrupted_conjugate_fails_the_check_with_witness",
    ),
    "cocycle-identity": (
        "test_mapspace.py::TestBattery::test_corrupted_table_fails_with_witness",
        "test_negative_controls.py::test_cocycle_identity_fails_past_the_radius_of_a_misnamed_germ",
    ),
    "constant-invariant-exact": (
        "test_negative_controls.py::test_constant_invariant_fails_on_a_corrupted_cocycle",
    ),
    "depth-bijectivity": (
        "test_odometer.py::TestDepthBijectivity::test_collision_fails_with_witness",
    ),
    "det-pm1": (
        "test_invariants.py::TestDetCheck::test_diag_two_fails",
    ),
    "equivariance": (
        "test_morphisms.py::TestOrbitMorphism::test_corrupted_cocycle_fails_equivariance",
        "test_odometer.py::TestEquivariance::test_off_by_one_action_fails_on_the_array_path",
    ),
    "forced-freeness": (
        "test_mapspace.py::TestFreeness::test_too_shallow_odometer_fails_at_window_8",
    ),
    "functoriality": (
        "test_negative_controls.py::test_functoriality_fails_when_composition_swaps_its_factors",
    ),
    "fundamental-domain": (
        "test_mapspace.py::TestFundamentalDomainPastTheTranslates"
        "::test_corrupted_boundary_member_fails_with_a_witness",
    ),
    "haar-invariance": (
        "test_negative_controls.py::test_haar_invariance_fails_when_a_translate_loses_a_digit",
    ),
    "inverse-equivariance": (
        "test_morphisms.py::TestOrbitMorphism::test_corrupted_cocycle_fails_inverse_equivariance",
    ),
    "inverse-identities": (
        "test_morphisms.py::TestMatrixMorphism::test_mismatched_inverse_fails",
    ),
    "lipschitz-closure": (
        "test_mapspace.py::TestClosureInheritance"
        "::test_corrupted_entry_fails_with_the_full_sweep_witness",
    ),
    "matrix-recovery": (
        "test_invariants.py::TestRecovery::test_recovery_check_wrong_matrix_fails_with_witness",
    ),
    "minimality": (
        "test_odometer.py::TestMinimality::test_stuck_orbit_fails_with_witness",
    ),
    "multiplicativity": (
        "test_invariants.py::TestMultiplicativity::test_corrupted_blade_table_fails",
    ),
    "orbit-equality": (
        "test_negative_controls.py::test_orbit_equality_fails_on_a_wrong_backward_cocycle",
        "test_negative_controls.py::test_orbit_equality_fails_on_a_non_injective_germ",
    ),
}


def fixture_ids() -> set:
    ids = set()
    for path in (TESTS / "fixtures").glob("*.json"):
        if path.name == "report_digests.json":  # digests, not a report
            continue
        for check in json.loads(path.read_text())["checks"]:
            ids.add(re.sub(r"\[\d+\]$", "", check["id"]))
    return ids


def defined_tests(filename: str) -> set:
    """``test`` and ``Class::test`` for every test the file defines."""
    tree = ast.parse((TESTS / filename).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = (item.name for item in node.body if isinstance(item, ast.FunctionDef))
            names.update(f"{node.name}::{name}" for name in methods)
    return names


def test_every_fixture_check_id_has_a_control():
    ids = fixture_ids()
    assert len(ids) == 18
    assert sorted(ids - set(CONTROLS)) == []
    assert sorted(set(CONTROLS) - ids) == []


def test_every_control_names_an_existing_test():
    missing = []
    for check_id, tests in CONTROLS.items():
        assert tests, check_id
        for path in tests:
            filename, _, name = path.partition("::")
            if not (TESTS / filename).is_file() or name not in defined_tests(filename):
                missing.append((check_id, path))
    assert missing == []


Z2 = LatticeGroup(2)
# Under the half shear (1, 0) fixes every slice germ, so the patches below
# single out (0, 1).
G_STAR = Z2.element((0, 1))


@pytest.fixture(scope="module")
def half_shear_space():
    """The half shear as ``gromov-check`` builds it at 4/3/1."""
    f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
    return build_translate_space(FloorMapSeed(f), 4, 3, offset_radius=1)


def test_action_law_fails_when_one_element_acts_trivially(monkeypatch, half_shear_space):
    # the scalar reference loop, which acts through ``act_source`` pair by pair
    space = half_shear_space
    assert action_law(space, 1).passed
    honest = TruncatedMapSpace.act_source

    def patched(self, g, psi):
        return psi if g == G_STAR else honest(self, g, psi)

    monkeypatch.setattr(TruncatedMapSpace, "act_source", patched)
    result = action_law(space, 1)
    assert not result.passed and len(result.witnesses) == 12
    # every failing pair moves by G_STAR on one of its two sides
    assert all(G_STAR in (g, h, g * h) for g, h, _ in result.witnesses)


def test_action_law_fails_when_one_element_acts_trivially_on_the_stack(monkeypatch, half_shear_space):
    # the library's check, which acts on the stacked slice: G_STAR leaves
    # every table as it is, restricted to the radius its action leaves
    space = half_shear_space
    assert check_action_law(space, 1).passed
    honest = TruncatedMapSpace.act_source_rows
    identity = Z2.identity()

    def patched(self, g, rows, radius):
        if g != G_STAR:
            return honest(self, g, rows, radius)
        cocycle, moved = honest(self, identity, rows, radius)
        return cocycle, moved[:, self.source_gens.shifted(radius, radius - 1, identity)]

    monkeypatch.setattr(TruncatedMapSpace, "act_source_rows", patched)
    result = check_action_law(space, 1)
    # the 12 witnesses of the scalar control above, in the order the scalar
    # loop finds them through ``act_source``, the one-member case of the patch
    assert not result.passed and len(result.witnesses) == 12
    assert all(G_STAR in (g, h, g * h) for g, h, _ in result.witnesses)
    assert result.witnesses == action_law(space, 1).witnesses


def test_orbit_equality_fails_on_a_wrong_backward_cocycle(monkeypatch, half_shear_space):
    space = half_shear_space
    psi = space.slice_members[0]
    assert check_orbit_equality(space, psi, 1).passed
    honest = TruncatedMapSpace.backward_cocycle

    def patched(self, lam, germ):
        back = honest(self, lam, germ)
        return back * G_STAR if back == G_STAR else back

    monkeypatch.setattr(TruncatedMapSpace, "backward_cocycle", patched)
    result = check_orbit_equality(space, psi, 1)
    assert not result.passed
    tag, g, lam, back = result.witnesses[0]
    assert (tag, g, back) == ("cocycle-roundtrip", G_STAR, G_STAR * G_STAR)
    assert lam == space.orbit_cocycle(G_STAR, psi)


def test_orbit_equality_fails_on_a_non_injective_germ(half_shear_space):
    # the first slice member, with its value at the first word-length-1 ball
    # point set to its value at the second: psi(-1, 0) = psi(0, -1)
    space = half_shear_space
    psi = space.slice_members[0]
    gens = space.source_gens
    ball = gens.ball(psi.radius)
    values = {g: psi.value(g) for g in ball}
    assert check_orbit_equality(space, MapGerm.from_dict(gens, psi.radius, values), 1).passed
    first, second = [g for g in ball if gens.word_length(g) == 1][:2]
    values[first] = values[second]
    result = check_orbit_equality(space, MapGerm.from_dict(gens, psi.radius, values), 1)
    assert not result.passed
    # g = (0, 1) goes out to lam = psi(0, -1)^-1 = (1, 1) and comes back
    # through the first ball point with value lam^-1, (-1, 0), as (1, 0)
    assert result.witnesses[0] == ("cocycle-roundtrip", G_STAR, Z2.element((1, 1)), Z2.element((1, 0)))
    # both points give lam = (1, 1), so the target orbit has 4 germs to 5
    tag, source_set, target_set = result.witnesses[1]
    assert (tag, len(result.witnesses)) == ("orbit-sets-differ", 2)
    assert source_set == ["(-1, 0)", "(0, -1)", "(0, 0)", "(0, 1)", "(1, 0)"]
    assert target_set == ["(-1, 0)", "(0, -1)", "(0, 0)", "(1, 1)"]


def test_cocycle_identity_fails_past_the_radius_of_a_misnamed_germ(half_shear_space):
    # the only slice member: the first one, with its value at the first
    # word-length-1 ball point c = (-1, 0) moved by (1, 0) and its
    # provenance kept, so its table is not the translate the provenance names
    space = copy.copy(half_shear_space)
    psi = space.slice_members[0]
    gens = space.source_gens
    ball = gens.ball(psi.radius)
    values = {g: psi.value(g) for g in ball}
    c = next(g for g in ball if gens.word_length(g) == 1)
    values[c] = values[c] * Z2.element((1, 0))
    space.slice_members = (MapGerm.from_dict(gens, psi.radius, values, psi.provenance),)
    cocycle = orbit_morphism(space)
    # with 2 W <= R = 4 every value is read off the table, where the identity
    # holds for any table
    assert check_cocycle_identity(space, cocycle, 2).passed
    result = check_cocycle_identity(space, cocycle, 3)
    # at W = 3 it fails exactly where g h = c^-1 and |g| + |h| > R: the left
    # side reads the moved value at (g h)^-1 = c off the table, while g
    # reaches past the radius R - |h| of h . psi, so the right side reads the
    # provenance
    expected = [
        (g, h)
        for g, h in itertools.product(gens.ball(3), repeat=2)
        if g * h == c.inverse() and gens.word_length(g) + gens.word_length(h) > 4
    ]
    assert len(expected) == 10 and expected[0] == (Z2.element((-2, 0)), Z2.element((3, 0)))
    assert [(g, h) for g, h, _ in result.witnesses] == expected
    assert all(germ is space.slice_members[0] for _, _, germ in result.witnesses)


def test_haar_invariance_fails_when_a_translate_loses_a_digit(monkeypatch):
    # 16 depth-2 cylinders: few enough that every one is swept, no draws
    space = OdometerSpace((2, 2), 3)
    assert haar_invariance_check(space, 1, 2, None).passed
    honest = Cylinder.translate

    def patched(self, vector, space):
        moved = honest(self, vector, space)
        if tuple(vector) != G_STAR.coords:
            return moved
        return Cylinder((moved.prefixes[0][:-1], *moved.prefixes[1:]))

    monkeypatch.setattr(Cylinder, "translate", patched)
    result = haar_invariance_check(space, 1, 2, None)
    assert not result.passed
    # each depth-2 cylinder, under G_STAR alone
    assert len(result.witnesses) == 16
    assert {g for g, _ in result.witnesses} == {G_STAR}


def test_functoriality_fails_when_composition_swaps_its_factors(monkeypatch):
    space = OdometerSpace((3, 3), 3)
    sample = [space.zero(), space.point_from_values((4, 22))]
    eta = matrix_morphism([[0, -1], [1, 0]], space, sample)
    theta = matrix_morphism([[1, 1], [0, 1]], space, sample)
    assert functoriality_check(eta, theta, 64).passed
    monkeypatch.setattr(invariants, "compose_morphisms", lambda eta, theta: compose_morphisms(theta, eta))
    result = functoriality_check(eta, theta, 64)
    # theta eta = [[1, -1], [1, 0]] against eta theta = [[0, -1], [1, 1]]
    assert result.witnesses == [1.0]
    assert result.coverage == {"n": 64, "budget": 0.0, "gap": 1.0}


def test_constant_invariant_fails_on_a_corrupted_cocycle(monkeypatch):
    # the odometer command recovers the invariant at n = 81 from 8 samples;
    # one cocycle value at (-81 e_1, first sample) moved by 8 e_2 moves
    # entry (1, 0) of the average by -8 / (8 * 81)
    honest = batteries.matrix_morphism

    def corrupted(matrix, space, points):
        eta = honest(matrix, space, points)
        back = Z2.basis_vector(0, -81)
        wrong = eta.evaluate(back, points[0]) * Z2.basis_vector(1, 8)
        return eta.with_override(back, points[0], wrong)

    argv = ["odometer", "--p", "2", "--depth", "3", "--samples", "20", "--seed", "5", "--json"]
    assert CliRunner().invoke(cli.main, argv).exit_code == 0
    monkeypatch.setattr(batteries, "matrix_morphism", corrupted)
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 1
    checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
    assert [i for i, c in checks.items() if not c["pass"]] == ["constant-invariant-exact"]
    assert checks["constant-invariant-exact"]["witnesses"] == ["((1, 0), '-1/81', '0')"]
