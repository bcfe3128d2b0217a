"""Every integer array layer takes its dtype from one ladder, ``linalg.rung``:
int32 below 2^30, int64 below 2^62, exact Python integers past both.

A rung wider than the one an op proves never changes what the op computes.
So each op that reads the ladder is run with it forced no narrower than
int32, int64 and object in turn, and its values, witnesses and order are
compared with the exact object path, at values on each side of both bounds.
"""
import copy
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from battery_reference import action_law, cocycle_identity, freeness

from orbitlab import groups, linalg, mapspace
from orbitlab.groups import FreeGroup, LatticeGroup, sweep_pairs
from orbitlab.mapspace import (
    FloorMapSeed,
    IdentitySeed,
    MapGerm,
    TableSeed,
    TruncationError,
    build_translate_space,
    check_action_law,
    check_cocycle_identity,
    force_freeness,
)
from orbitlab.morphisms import orbit_morphism
from orbitlab.odometer import (
    OdometerSpace,
    matrix_act,
    matrix_act_array,
    matrix_equivariance_check,
    odometer_add,
    odometer_add_array,
)
from orbitlab.shears import realize_bilipschitz

Z1 = LatticeGroup(1)
Z2 = LatticeGroup(2)
HONEST = linalg.rung
RUNGS = pytest.mark.parametrize("dtype", linalg.WIDTHS, ids=["int32", "int64", "object"])
# Values on each side of both rung bounds.
EDGES = (2**30 - 1, 2**30, 2**62 - 1, 2**62)


def wider(*dtypes):
    return max(dtypes, key=linalg.WIDTHS.index)


@pytest.fixture
def force(monkeypatch):
    """``force(dtype)`` makes the ladder give the wider of ``dtype`` and the
    rung it proves, and returns the list of the dtypes it gives."""

    def forcing(dtype):
        given = []

        def rung(peak):
            given.append(wider(HONEST(peak), dtype))
            return given[-1]

        monkeypatch.setattr(linalg, "rung", rung)
        return given

    return forcing


def test_the_ladder_at_its_bounds():
    assert [HONEST(v) for v in (0, *EDGES)] == [np.int32, np.int32, np.int64, np.int64, object]
    # a sum or difference of two values below a rung's bound, and the
    # negation of one, stays exact on that rung
    for dtype, limit in linalg.RUNGS:
        top = np.array([limit - 1, -(limit - 1)], dtype=dtype)
        assert (top + top).tolist() == [2 * limit - 2, 2 - 2 * limit]
        assert (top - top[::-1]).tolist() == [2 * limit - 2, 2 - 2 * limit]
        assert (-top).tolist() == [1 - limit, limit - 1]


def below(limit, cap_of, total):
    """The largest M >= 0 with cap_of(M) * (total + 1) < limit."""
    low, high = 0, limit
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if cap_of(mid) * (total + 1) < limit else (low, mid)
    return low


def lattice_cases():
    """(images, constant) on B(2) of Z^1: images with the largest coordinate
    M on each side of both key bounds cap (pairs + 1) = 2^30 and 2^62, and
    images at each of ``EDGES``."""
    members = Z1.standard_generators().ball(2)
    total = len(members) * (len(members) - 1) // 2
    tops = []
    for limit in (2**30, 2**62):
        top = below(limit, lambda m: 2 * m + 1, total)
        tops += [top, top + 1]
    cases = []
    for top in (*tops, *EDGES):
        # the order of the images puts the witness and both extremes mid-ball
        images = [Z1.element((c,)) for c in (3, -top, 0, top, -1)]
        cases += [(images, Fraction(3, 2)), (images, top + 1), (images, None)]
    return cases


def sweeps():
    """Each case of ``lattice_cases`` swept on the ladder as ``force`` left
    it, by a fresh generating set (a set keeps its ball coordinates)."""
    S = Z1.standard_generators()
    with patch.object(groups, "_word_metric_sweep", lambda *_: pytest.fail("not the lattice sweep")):
        return [sweep_pairs(S, S, 2, images, constant) for images, constant in lattice_cases()]


@RUNGS
def test_lattice_sweep_agrees_across_rungs(force, dtype):
    force(object)
    exact = sweeps()
    given = force(dtype)
    assert sweeps() == exact
    # the ball coordinates' rung, then one key rung per case, three cases per
    # top coordinate: the first four tops sit just below and just past 2^30,
    # then 2^62
    assert given[0] == wider(np.int32, dtype)
    assert given[1:13:3] == [wider(rung, dtype) for rung in (np.int32, np.int64, np.int64, object)]


@RUNGS
def test_rows_and_offsets_agree_across_rungs(force, dtype):
    for edge in EDGES:
        values = [Z2.element((edge, -3)), Z2.element((-edge, 7)), Z2.identity()]
        force(object)
        exact = mapspace._as_rows(Z2, values)
        shifted = [mapspace._offset(exact, shift) for shift in ((1, 0), (-1, 1), (0, 2**70))]
        force(dtype)
        rows = mapspace._as_rows(Z2, values)
        assert rows.dtype == wider(HONEST(edge), dtype)
        assert rows.tolist() == exact.tolist() == [[edge, -3], [-edge, 7], [0, 0]]
        for shift, expected in zip(((1, 0), (-1, 1), (0, 2**70)), shifted):
            out = mapspace._offset(rows, shift)
            assert out.dtype == wider(HONEST(edge + max(map(abs, shift))), dtype)
            assert out.tolist() == expected.tolist()
            assert out.tolist() == [[a + s for a, s in zip(row, shift)] for row in rows.tolist()]


@pytest.fixture(scope="module")
def tiny_space():
    return build_translate_space(IdentitySeed(Z1), 1, 1)


@RUNGS
def test_partial_inverse_agrees_across_rungs(force, tiny_space, dtype):
    gens = Z1.standard_generators()
    ball = gens.ball(1)  # (-1,), (0,), (1,)
    for edge in EDGES:
        # two ball points share a value: the first in ball order is found
        values = dict(zip(ball, [Z2.element((edge, 1)), Z2.identity(), Z2.element((edge, 1))]))
        targets = [Z2.element(v) for v in ((edge, 1), (0, 0), (edge - 1, 1), (edge + 1, 1), (2**70, 1))]
        found = {}
        for forced in (object, dtype):
            force(forced)
            germ = MapGerm.from_dict(gens, 1, values)
            for target in targets:
                try:
                    hit = tiny_space.partial_inverse(germ, target)
                except TruncationError:
                    hit = None
                assert found.setdefault((edge, target), hit) == hit
        assert [found[edge, t] for t in targets] == [ball[0], ball[1], None, None, None]


@RUNGS
def test_stacked_action_agrees_across_rungs(force, tiny_space, dtype):
    # two germs of B(1) in Z^1 with values up to each edge: every cocycle
    # and every sum of g . psi against the element arithmetic
    gens = Z1.standard_generators()
    ball = gens.ball(1)  # (-1,), (0,), (1,)
    for edge in EDGES:
        tables = [(edge, 0, -edge), (1 - edge, 0, edge)]
        force(dtype)
        germs = [MapGerm.from_dict(gens, 1, {g: Z1.element((v,)) for g, v in zip(ball, t)}) for t in tables]
        rows = np.stack([germ.table for germ in germs])
        for g in ball:
            cocycle, moved = tiny_space.act_source_rows(g, rows, 1)
            assert moved.dtype == wider(HONEST(2 * edge), dtype)
            lams = [germ.value(g.inverse()).inverse() for germ in germs]
            assert cocycle.tolist() == [list(lam.coords) for lam in lams]
            expected = [
                [list((lam * germ.value(g.inverse() * h)).coords) for h in gens.ball(1 - gens.word_length(g))]
                for lam, germ in zip(lams, germs)
            ]
            assert moved.tolist() == expected


def odometer_points(space, rng):
    m = space.moduli[0]
    edges = [space.point_from_values((v,) * space.dimension) for v in (0, 1, m - 2, m - 1)]
    return edges + [space.random_point(rng) for _ in range(4)]


@RUNGS
@pytest.mark.parametrize("m", [2**30, 2**30 + 1, 2**62, 2**62 + 1], ids=["2^30", "2^30+1", "2^62", "2^62+1"])
def test_residues_and_sums_agree_across_rungs(force, dtype, m):
    # residues up to m - 1 on each side of 2^30 and 2^62, sums up to 2 (m - 1)
    space = OdometerSpace((m,), 1)
    points = odometer_points(space, random.Random(m))
    vectors = [(m - 1,), (1,), (-1,), (2**70,)]
    force(object)
    exact = space.residue_array(points)
    sums = [odometer_add_array(exact, g, space) for g in vectors]
    force(dtype)
    residues = space.residue_array(points)
    assert residues.dtype == wider(HONEST(m - 1), dtype)
    assert residues.tolist() == exact.tolist() == [[x.residues[0] for x in points]]
    for g, expected in zip(vectors, sums):
        out = odometer_add_array(residues, g, space)
        assert out.tolist() == expected.tolist()
        assert out.tolist() == [[odometer_add(x, g, space).residues[0] for x in points]]


# A det -1 matrix whose first row reduces to m - 1 everywhere: at the point
# with every residue m - 1 that row sums to d (m - 1)^2, the stated peak.
FLIP = [[-1, -1, -1, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
SHEAR = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]


@RUNGS
@pytest.mark.parametrize("m, proven", [
    # 4 (m - 1)^2 on each side of 2^30 and 2^62
    (2**14, np.int32), (2**14 + 1, np.int64), (2**30, np.int64), (2**30 + 1, object),
], ids=["2^14", "2^14+1", "2^30", "2^30+1"])
def test_matrix_action_agrees_across_rungs(force, dtype, m, proven):
    space = OdometerSpace((m,) * 4, 1)
    points = odometer_points(space, random.Random(m))
    force(object)
    residues = space.residue_array(points)
    exact = {str(a): matrix_act_array(a, residues, space) for a in (FLIP, SHEAR)}
    checks = {str(a): matrix_equivariance_check(a, points, 1, space) for a in (FLIP, SHEAR)}
    given = force(dtype)
    residues = space.residue_array(points)
    for a in (FLIP, SHEAR):
        images = matrix_act_array(a, residues, space)
        assert given[-1] == wider(proven, dtype)
        assert images.tolist() == exact[str(a)].tolist()
        assert images.T.tolist() == [list(matrix_act(a, x, space).residues) for x in points]
        result = matrix_equivariance_check(a, points, 1, space)
        assert result.passed and result.to_json() == checks[str(a)].to_json()
    # the flip's first row at the top point is the peak itself, mod m
    top = space.residue_array([points[3]])
    assert matrix_act_array(FLIP, top, space)[0].tolist() == [4 * (m - 1) ** 2 % m]


# The translate battery on the stacked slice against the scalar loops of
# ``battery_reference``: verdict, ``checked`` and witnesses in order.


def matrix_space(text, radius, translate_radius, offset_radius):
    f = realize_bilipschitz(linalg.parse_matrix(text), Fraction("1e-9"))
    return build_translate_space(FloorMapSeed(f), radius, translate_radius, offset_radius)


def nielsen_space():
    F2 = FreeGroup(2)
    images = {1: "a", -1: "A", 2: "ab", -2: "BA"}

    def nielsen(word):
        out = F2.identity()
        for letter in word.letters:
            out = out * F2.word(images[letter])
        return out

    table = {w: nielsen(w) for w in F2.standard_generators().ball(4)}
    return build_translate_space(TableSeed(table, F2, F2), 2, 2, offset_radius=1)


def with_slice(space, members):
    clone = copy.copy(space)
    clone.slice_members = tuple(members)
    return clone


def corrupted(kind):
    """The half shear at 4/3/1 with a corrupted slice: the first member made
    non-injective, the first member with one value moved and its provenance
    kept, the slice plus criterion 8's member with a (25, -25) entry, or the
    slice plus a member of radius 3."""
    space = matrix_space("1 0.5; 0 1", 4, 3, 1)
    gens = space.source_gens
    psi = space.slice_members[0]
    ball = gens.ball(psi.radius)
    values = {g: psi.value(g) for g in ball}
    first, second = [g for g in ball if gens.word_length(g) == 1][:2]
    if kind == "non-injective":
        values[first] = values[second]
        return with_slice(space, [MapGerm.from_dict(gens, psi.radius, values)])
    if kind == "misnamed":
        values[first] = values[first] * Z2.element((1, 0))
        return with_slice(space, [MapGerm.from_dict(gens, psi.radius, values, psi.provenance)])
    if kind == "criterion-8":
        germ = space.members[0]
        table = {g: germ.value(g) for g in germ.gens.ball(germ.radius)}
        table[list(table)[3]] = Z2.element((25, -25))
        bad = MapGerm.from_dict(germ.gens, germ.radius, table, germ.provenance)
        return with_slice(space, [*space.slice_members, bad])
    shorter = space.act_source(Z2.element((1, 0)), space.slice_members[-1])
    return with_slice(space, [*space.slice_members, shorter])


BATTERY_SPACES = {
    # (space, window W)
    "half-shear-4-3-1": (lambda: matrix_space("1 0.5; 0 1", 4, 3, 1), 1),
    "half-shear-8-8-3": (lambda: matrix_space("1 0.5; 0 1", 8, 8, 3), 3),
    "acceptance-3x3-3-2-1": (lambda: matrix_space("-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5", 3, 2, 1), 1),
    "identity-z1": (lambda: build_translate_space(IdentitySeed(Z1), 3, 3, offset_radius=1), 2),
    "identity-z2": (lambda: build_translate_space(IdentitySeed(Z2), 3, 3, offset_radius=2), 2),
    "identity-z3": (lambda: build_translate_space(IdentitySeed(LatticeGroup(3)), 3, 2, offset_radius=2), 2),
    "shear-10^20": (lambda: matrix_space("1 100000000000000000000; 0 1", 2, 1, 1), 1),
    "nielsen-f2": (nielsen_space, 1),
    "non-injective": (lambda: corrupted("non-injective"), 1),
    "misnamed": (lambda: corrupted("misnamed"), 3),
    "criterion-8": (lambda: corrupted("criterion-8"), 2),
    "mixed-radii": (lambda: corrupted("mixed-radii"), 2),
}


@pytest.fixture(scope="module", params=list(BATTERY_SPACES))
def battery_space(request):
    build, window = BATTERY_SPACES[request.param]
    return request.param, build(), window


def overridden(space, cocycle, window):
    """The orbit cocycle with overrides: at (g, psi) on the first slice
    member, at (g, h . psi) on the smaller-radius germ h . psi, at (e, psi),
    and two stacked at (g, psi), the later one read."""
    gens = space.source_gens
    g, h = [k for k in gens.ball(window) if not k.is_identity()][:2]
    e = gens.group.identity()
    psi = space.slice_members[0]
    acted = space.act_source(h, psi)

    def wrong(k, x, times=1):
        value = cocycle.evaluate(k, x)
        for _ in range(times):
            value = value * space.target_gens.elements[0]
        return value

    return [
        cocycle.with_override(g, psi, wrong(g, psi)),
        cocycle.with_override(g, acted, wrong(g, acted)),
        cocycle.with_override(e, psi, wrong(e, psi)),
        cocycle.with_override(g, psi, wrong(g, psi)).with_override(g, psi, wrong(g, psi, 2)),
    ]


def outcomes(result):
    return result.passed, result.checked, result.witnesses, result.to_json()


@RUNGS
def test_the_stacked_battery_agrees_with_the_scalar_loops(force, battery_space, dtype):
    name, space, window = battery_space
    force(dtype)
    law = check_action_law(space, window)
    assert outcomes(law) == outcomes(action_law(space, window))
    cocycle = orbit_morphism(space)
    identity = check_cocycle_identity(space, cocycle, window)
    assert outcomes(identity) == outcomes(cocycle_identity(space, cocycle, window))
    # the overrides reach the rows' cases through ``evaluate``
    for bad in overridden(space, cocycle, window):
        result = check_cocycle_identity(space, bad, window)
        assert not result.passed
        assert outcomes(result) == outcomes(cocycle_identity(space, bad, window))
    # the law holds for every table; the misnamed member fails the identity
    # where g h reaches past its radius
    assert law.passed and identity.passed == (name != "misnamed")
    if not isinstance(space.source_gens.group, LatticeGroup):
        with pytest.raises(ValueError, match="lattice"):
            force_freeness(space, OdometerSpace((2, 2), 3), window)
        return
    coordinates = 2 * space.source_gens.group.dimension
    # the depth gromov-check builds, and a depth-1 odometer, which every g
    # with even coordinates and cocycle value fixes
    for depth in (max(3, window.bit_length()), 1):
        odometer = OdometerSpace((2,) * coordinates, depth)
        result = force_freeness(space, odometer, window)
        assert outcomes(result) == outcomes(freeness(space, odometer, window))
        assert result.passed or depth == 1
