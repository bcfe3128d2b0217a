"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines
and timings.  Criteria are exact where stated; the timed budgets are
asserted with the stated limits.
"""
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from test_groups import bfs_ball_oracle

from orbitlab import linalg
from orbitlab.batteries import (
    functoriality_battery,
    odometer_battery,
    realize_battery,
    translate_battery,
)
from orbitlab.fullgroup import FullGroupElement, ad_realization_check, compose
from orbitlab.groups import FreeGroup, LatticeGroup
from orbitlab.invariants import InducedAlgebraMap, check_det_pm1, multiplicativity_check
from orbitlab.mapspace import (
    FloorMapSeed,
    MapGerm,
    build_translate_space,
    check_cocycle_identity,
    check_fundamental_domain,
    check_lipschitz_closure,
)
from orbitlab.morphisms import orbit_morphism
from orbitlab.odometer import Cylinder, OdometerSpace, bijectivity_check_at_depth
from orbitlab.shears import (
    CERTIFICATE_RADIUS,
    DEFAULT_TOL,
    Shear,
    SignFlip,
    bounded_distance_constant,
    box_points,
    decompose_unimodular,
    product_matrix,
    realize_bilipschitz,
)

N_SCALE = 2**10


def acceptance_matrices():
    """20 pinned matrices: products of <= 10 quarter-grid shears (|coeff| <= 2)
    and sign flips, in dimensions 2 and 3.

    Candidates are accepted under an a-priori entry cap of 3, which keeps the
    determinant-drift budget meaningful at this scale; the cap is structural
    and never looks at any downstream check.
    """
    rng = random.Random(2026)

    def build(d):
        m = linalg.identity(d)
        target = rng.randint(3, 10)
        ops = attempts = 0
        while ops < target and attempts < 60:
            attempts += 1
            i, j = rng.sample(range(d), 2)
            coeff = Fraction(rng.choice([k for k in range(-8, 9) if k]), 4)
            # product_matrix of one op is that op's elementary matrix
            cand = linalg.mat_mul(m, product_matrix([Shear(i, j, coeff)], d))
            if rng.random() < 0.15:
                cand = linalg.mat_mul(cand, product_matrix([SignFlip(rng.randrange(d))], d))
            if linalg.max_abs(cand) <= 3:
                m = cand
                ops += 1
        return m

    return [build(2) for _ in range(10)] + [build(3) for _ in range(10)]


MATRICES = acceptance_matrices()


def report(number, detail, elapsed):
    print(f"[criterion {number}] PASS — {detail} ({elapsed:.1f}s)")


def by_id(checks) -> dict:
    return {check.name: check for check in checks}


def test_criterion_1_realization_recovery():
    """Recovery of each pinned matrix from its realized cocycle at n = 2^10,
    within C/n entrywise and 10 C d / n on the determinant: the ``realize``
    battery at its default samples, radius and tolerance."""
    start = time.time()
    for a in MATRICES:
        checks, _ = realize_battery(a, N_SCALE, 8, CERTIFICATE_RADIUS, DEFAULT_TOL)
        checks = by_id(checks)
        recovery = checks["matrix-recovery"]
        assert recovery.passed, (a, recovery.coverage)
        det_check = checks["det-pm1"]
        assert det_check.passed, (a, det_check.notes)
    elapsed = time.time() - start
    assert elapsed <= 120
    report(1, f"20 matrices recovered at n=2^10 within C/n", elapsed)


def test_pinned_box_sweeps_run_on_int32():
    """The radius-50 box sweep of every pinned matrix, and the distance
    certificate's sweep of the same box, run on int32.  The int64 and object
    rungs are exact as well, so an over-cautious static bound would fail no
    other test; it would only make every sweep slower."""
    boxes = {d: box_points(CERTIFICATE_RADIUS, d) for d in (2, 3)}
    for a in MATRICES:
        f = realize_bilipschitz(a)
        assert f.apply_array(boxes[len(a)]).dtype == np.int32, a
        swept = set()
        honest = f.apply_array

        def spy(points):
            swept.add(points.dtype)
            return honest(points)

        f.apply_array = spy
        bounded_distance_constant(f, a, CERTIFICATE_RADIUS)
        assert swept == {np.dtype(np.int32)}, a


def test_criterion_2_decomposition_reconstruction():
    """Exact reconstruction of every pinned matrix from its elementary
    factors, and the 3-shears-plus-flip swap emulation on permutations."""
    start = time.time()
    for a in MATRICES:
        ops = decompose_unimodular(a)
        assert linalg.max_abs_diff(product_matrix(ops, len(a)), a) <= Fraction(1, 10**9)
    permutations = (
        [[0, 1], [1, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
    for perm in permutations:
        mat = linalg.as_matrix(perm)
        ops = decompose_unimodular(mat)
        assert linalg.max_abs_diff(product_matrix(ops, len(mat)), mat) == 0
        assert sum(isinstance(op, Shear) for op in ops) % 3 == 0
        assert any(isinstance(op, SignFlip) for op in ops)
    elapsed = time.time() - start
    assert elapsed <= 30
    report(2, "20 reconstructions exact; swap alphabet verified", elapsed)


def test_criterion_3_translate_space_battery():
    """The full battery at R=6, R_t=6, W=2 for the half-shear seed; every
    check is an exact integer comparison."""
    start = time.time()
    floor_map = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
    space = build_translate_space(FloorMapSeed(floor_map), 6, 6, offset_radius=2)
    checks = by_id(translate_battery(space, 2)[0])

    closure = checks["lipschitz-closure"]
    assert closure.passed and closure.checked == len(space.members)

    identity = checks["cocycle-identity"]
    assert identity.passed
    assert identity.checked == len(space.source_gens.ball(2)) ** 2 * len(space.slice_members)

    domain = checks["fundamental-domain"]
    assert domain.passed and domain.coverage["interior"] > 0

    for index in range(len(space.slice_members)):
        assert checks[f"orbit-equality[{index}]"].passed

    inverse = checks["inverse-identities"]
    assert inverse.passed and inverse.checked > 0

    elapsed = time.time() - start
    assert elapsed <= 60
    report(
        3,
        f"{len(space.members)} germs: closure, cocycle identity, fundamental "
        f"domain, orbit equality, inverse identities all exact",
        elapsed,
    )


def test_criterion_4_odometer_example():
    """Base-3 depth-4 planar odometer: permutation at depth, exact
    equivariance, minimality, exact constant-cocycle invariant."""
    start = time.time()
    space = OdometerSpace((3, 3), 4)
    for a in ([[1, 1], [0, 1]], [[0, -1], [1, 0]]):
        # the odometer battery on 1000 points seeded 404, over the ball B(3)
        checks, extra = odometer_battery(linalg.as_matrix(a), space, 1000, 3, 404)
        checks = by_id(checks)
        assert checks["depth-bijectivity"].passed

        equivariance = checks["equivariance"]
        assert equivariance.passed, equivariance.witnesses
        assert equivariance.checked == 25 * 1000

        assert checks["minimality"].passed
        assert checks["minimality"].coverage["k"] == 2

        assert checks["constant-invariant-exact"].passed
        assert extra["invariant"]["matrix"] == [[str(x) for x in row] for row in a]

    elapsed = time.time() - start
    assert elapsed <= 30
    report(4, "depth-4 permutations, equivariance on 1000 points, exact invariants", elapsed)


def random_full_group_element(rng, space):
    p = space.bases[0]
    m = rng.randint(1, 3)
    image = list(range(p**m))
    rng.shuffle(image)
    pieces = []
    for residue in range(p**m):
        shift = image[residue] - residue + (p**m) * rng.randint(-2, 2)
        pieces.append((Cylinder((space.digits_of(residue, 0, m),)), (shift,)))
    return FullGroupElement.make(space, pieces)


def test_criterion_5_full_group_algebra():
    """50 random piecewise translations at p=2, N=5: construction rejects
    non-bijective data; group laws hold pointwise on all 32 points;
    conjugation by +-1, +-2 is realized by the translations."""
    start = time.time()
    space = OdometerSpace((2,), 5)
    points = list(space.all_points())
    assert len(points) == 32

    with pytest.raises(ValueError):
        FullGroupElement.make(
            space, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (0,))]
        )

    rng = random.Random(55)
    elements = [random_full_group_element(rng, space) for _ in range(50)]
    identity = FullGroupElement.translation(space, (0,))
    for t in elements:
        assert compose(t, t.inverse()) == identity
        assert compose(t.inverse(), t) == identity
    for t, u in itertools.islice(itertools.combinations(elements, 2), 150):
        c = compose(t, u)
        assert all(c.apply(x) == t.apply(u.apply(x)) for x in points)
    for _ in range(20):
        a, b, c = rng.sample(elements, 3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert all(left.apply(x) == right.apply(x) for x in points)

    for vector in ((1,), (-1,), (2,), (-2,)):
        result = ad_realization_check([vector], elements[:12], space)
        assert result.passed, (vector, result.witnesses)

    elapsed = time.time() - start
    assert elapsed <= 30
    report(5, "50 elements: rejection, group laws on 32 points, conjugation realized", elapsed)


def test_criterion_6_word_metrics():
    """BFS equals the L1 norm on the radius-6 planar ball (an independent
    layer-by-layer BFS, against the ball and word length of the library);
    free-group spheres grow as 4 * 3^(k-1); triangle inequality and symmetry
    exhaustively."""
    start = time.time()
    Z2 = LatticeGroup(2)
    S = Z2.standard_generators()
    layer = bfs_ball_oracle(Z2, 6)
    assert set(S.ball(6)) == set(layer)
    for g in S.ball(6):
        assert S.word_length(g) == g.l1_norm() == layer[g]

    F2 = FreeGroup(2)
    SF = F2.standard_generators()
    for k in range(1, 6):
        assert sum(SF.word_length(g) == k for g in SF.ball(k)) == 4 * 3 ** (k - 1)
        assert len(SF.ball(k)) == 1 + 2 * (3**k - 1)

    for gens in (S, SF):
        ball = gens.ball(3)
        for g in ball:
            assert gens.word_length(g.inverse()) == gens.word_length(g)
        for g, h in itertools.product(ball, repeat=2):
            assert gens.word_length(g * h) <= gens.word_length(g) + gens.word_length(h)

    elapsed = time.time() - start
    assert elapsed <= 30
    report(6, "BFS = L1 on ball 6; free spheres 4*3^(k-1) to k=5; metric laws", elapsed)


def test_criterion_7_functoriality():
    """Composite invariants: exact products for constant integer cocycles,
    budgeted agreement for realized shears at n = 2^10."""
    start = time.time()
    rotation, shear = linalg.as_matrix([[0, -1], [1, 0]]), linalg.as_matrix([[1, 1], [0, 1]])
    # base 3, depth 3, two sample points seeded 0
    checks, extra = functoriality_battery(rotation, shear, 3, 3, 256, 2, DEFAULT_TOL, 0)
    (exact,) = checks
    assert extra["mode"] == "constant"
    assert exact.passed and exact.coverage["gap"] == 0

    first = linalg.as_matrix([["1", "0"], ["0.25", "1"]])
    second = linalg.as_matrix([["1", "0.5"], ["0", "1"]])
    checks, extra = functoriality_battery(first, second, 3, 3, N_SCALE, 2, DEFAULT_TOL, 0)
    (realized_result,) = checks
    assert extra["mode"] == "realized"
    assert realized_result.passed, realized_result.coverage

    elapsed = time.time() - start
    assert elapsed <= 60
    report(7, "constant composition exact; realized composition within budget", elapsed)


def test_criterion_8_negative_controls():
    """Every checker fails with a concrete witness on its documented
    corrupted input."""
    start = time.time()
    Z2 = LatticeGroup(2)
    floor_map = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
    space = build_translate_space(FloorMapSeed(floor_map), 4, 3, offset_radius=1)

    table = orbit_morphism(space)
    psi = space.slice_members[0]
    corrupted = table.with_override(Z2.element((1, 0)), psi, Z2.element((9, 9)))
    identity_check = check_cocycle_identity(space, corrupted, 2)
    assert not identity_check.passed and identity_check.witnesses

    germ = space.members[0]
    bad_table = {g: germ.value(g) for g in germ.gens.ball(germ.radius)}
    bad_table[list(bad_table)[3]] = Z2.element((25, -25))
    bad = MapGerm.from_dict(germ.gens, germ.radius, bad_table, germ.provenance)
    space.members = space.members + (bad,)
    # each check fails on the corrupted member alone, with one witness
    domain_check = check_fundamental_domain(space, 1)
    assert domain_check.witnesses == [("target-hit-not-in-slice", Z2.element((-1, 0)), bad)]
    closure_check = check_lipschitz_closure(space)
    assert closure_check.witnesses == [(bad, (Z2.element((-4, 0)), Z2.element((-3, 1))))]

    with pytest.raises(ValueError, match="not \\+-1"):
        bijectivity_check_at_depth([[2, 0], [0, 1]], OdometerSpace((2, 2), 3))

    det_check = check_det_pm1([[2, 0], [0, 1]], 1e-6)
    assert not det_check.passed and det_check.witnesses

    induced = InducedAlgebraMap([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    mult = multiplicativity_check(induced.corrupted((0, 1), (0, 1), 99))
    assert not mult.passed and mult.witnesses

    elapsed = time.time() - start
    assert elapsed <= 30
    report(8, "five checkers fail with witnesses on corrupted inputs", elapsed)
