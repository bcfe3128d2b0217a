"""The check battery of each command: which checks make up its verdict.

Each battery returns ``(checks, extra)``: the ``CheckResult`` list of the
report, in report order, and the report's extra keys.  The CLI parses its
options, refuses a bad configuration before any work starts, runs one
battery and reports; the acceptance tests run the same batteries.  The
budgets that a refusal and a test both read live here too.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction

from .fullgroup import FullGroupElement, ad_realization_check
from .groups import PAIR_BUDGET, LatticeGroup, lattice_ball_size
from .invariants import (
    check_det_pm1,
    functoriality_check,
    multiplicativity_check,
    recover_invariant_matrix,
    recovery_check,
)
from .linalg import is_unimodular
from .mapspace import (
    check_action_law,
    check_cocycle_identity,
    check_fundamental_domain,
    check_lipschitz_closure,
    check_orbit_equality,
    force_freeness,
    seed_rows_radius,
)
from .morphisms import (
    check_equivariance,
    check_inverse_equivariance,
    check_inverse_identities,
    matrix_morphism,
    orbit_morphism,
    realized_morphism,
)
from .odometer import (
    Cylinder,
    OdometerSpace,
    bijectivity_check_at_depth,
    haar_invariance_check,
    matrix_equivariance_check,
    minimality_witness,
)

# gromov-check refuses a battery whose case bound |B(R_t)| |B(W)|^2, or whose
# seed rows' coordinate count, is larger; odometer refuses window sweeps past it.
BATTERY_BUDGET = 2**22


def det_budget(dimension: int, constant, n: int) -> Fraction:
    """10 d C / n: how far from +-1 the determinant of an invariant
    recovered at scale n may be, when each of its d^2 entries is within C/n."""
    return Fraction(10 * dimension) * constant / n


def check_gromov_budget(dimension: int, radius: int, translate_radius: int, window: int) -> None:
    """Refuse, with ``ValueError`` and before anything is built, a translate
    battery past its budgets.

    The Lipschitz constant and the closure certificate each compare every
    pair of B(R + R_t), up to ``PAIR_BUDGET`` pairs.  The action law and the
    cocycle identity compare every pair of B(W) at every slice member, and
    the slice has at most one member per g0 in B(R_t): at most
    |B(R_t)| |B(W)|^2 cases, up to ``BATTERY_BUDGET``.  The space keeps the
    seed's rows on balls up to B(:func:`seed_rows_radius`), with the window
    as its offset radius: d coordinates per point, up to ``BATTERY_BUDGET``
    of them.
    """
    reach = radius + translate_radius
    points = lattice_ball_size(dimension, reach)
    pairs = points * (points - 1) // 2
    if pairs > PAIR_BUDGET:
        raise ValueError(
            f"B({reach}) in Z^{dimension} has {points} points, {pairs} pairs per sweep, "
            f"over budget {PAIR_BUDGET}"
        )
    cases = lattice_ball_size(dimension, translate_radius) * lattice_ball_size(dimension, window) ** 2
    if cases > BATTERY_BUDGET:
        raise ValueError(
            f"the battery may check |B({translate_radius})| |B({window})|^2 = {cases} cases "
            f"in Z^{dimension}, over budget {BATTERY_BUDGET}"
        )
    rows = seed_rows_radius(radius, translate_radius, window)
    coordinates = dimension * lattice_ball_size(dimension, rows)
    if coordinates > BATTERY_BUDGET:
        raise ValueError(
            f"the seed rows on B({rows}) in Z^{dimension} hold {coordinates} coordinates, "
            f"over budget {BATTERY_BUDGET}"
        )


def check_report_floats(matrix, tol: Fraction) -> None:
    """Refuse, with ``ValueError`` and before any work, a matrix entry or
    tolerance past the float range: a realization reports floats of them."""
    for what, values in (("a matrix entry", [x for row in matrix for x in row]), ("--tol", [tol])):
        if any(abs(x) > sys.float_info.max for x in values):
            raise ValueError(f"{what} is too large for a report float")


def realize_battery(matrix, n: int, samples: int, radius: int, tol: Fraction):
    """Realize a det +-1 matrix, certify it on the box of ``radius``, and
    recover its invariant at scale n from the first ``samples`` slice
    members: recovery within C/n, the determinant within ``det_budget`` (or
    ``tol`` when C = 0), multiplicativity.  Entries past the float range
    are refused first (:func:`check_report_floats`)."""
    check_report_floats(matrix, tol)
    eta, cert = realized_morphism(matrix, tol, radius)
    invariant = recover_invariant_matrix(eta, n, eta.space.slice_members[:samples])
    det_tol = det_budget(len(matrix), cert.constant, n)
    checks = [
        recovery_check(invariant, matrix, cert.constant / n),
        check_det_pm1(invariant.matrix, det_tol if det_tol > 0 else tol),
        multiplicativity_check(invariant.induced()),
    ]
    return checks, {
        "decomposition": [op.to_json() for op in eta.space.seed.floor_map.ops],
        "certificate": cert.to_json(),
        "invariant": invariant.to_json(),
    }


def corrupted_cocycle(space, window: int):
    """The space's orbit morphism with one value wrong: at the first g != e
    of B(W) and the first slice member, the true value times the first
    target generator.  The negative control of ``--inject-corruption``."""
    corrupt_g = next(g for g in space.source_gens.ball(window) if not g.is_identity())
    psi = space.slice_members[0]
    wrong = space.orbit_cocycle(corrupt_g, psi) * space.target_gens.elements[0]
    return orbit_morphism(space).with_override(corrupt_g, psi, wrong)


def translate_battery(space, window: int, cocycle=None):
    """Lipschitz closure, action law, cocycle identity, fundamental domain,
    orbit equality at each slice member, the three roundtrip identities of
    the orbit morphism, and forced freeness, each on B(W).

    ``cocycle`` is the cocycle the cocycle identity reads; the space's orbit
    morphism when None.
    """
    eta = orbit_morphism(space)
    checks = [
        check_lipschitz_closure(space),
        check_action_law(space, window),
        check_cocycle_identity(space, eta if cocycle is None else cocycle, window),
        check_fundamental_domain(space, window),
    ]
    for index, psi in enumerate(space.slice_members):
        result = check_orbit_equality(space, psi, window)
        result.name = f"orbit-equality[{index}]"
        checks.append(result)
    checks.append(check_inverse_identities(eta, eta.inverse(), window))
    checks.append(check_equivariance(eta, window))
    checks.append(check_inverse_equivariance(eta, window))
    # Every g != e in B(W) has a coordinate with 0 < |g_i| <= W < 2^N, so it
    # moves the odometer zero; W <= 3 keeps N = 3.
    depth = max(3, window.bit_length())
    odo = OdometerSpace((2,) * (2 * space.source_gens.group.dimension), depth)
    checks.append(force_freeness(space, odo, window))
    return checks, {"space": space.to_json()}


def odometer_battery(matrix, space: OdometerSpace, samples: int, window: int, seed: int):
    """Depth-level bijectivity, equivariance on ``samples`` seeded points,
    minimality, Haar invariance, full-group conjugation realization and the
    exact invariant of the constant cocycle, for a det +-1 integer matrix."""
    # The golden reports pin the seeded stream, drawn in this order: sample
    # points, Haar cylinders, full-group elements.
    rng = random.Random(seed)
    points = [space.random_point(rng) for _ in range(samples)]
    k = min(2, space.depth)
    checks = [
        bijectivity_check_at_depth(matrix, space),
        matrix_equivariance_check(matrix, points, window, space),
        minimality_witness(space, k),
        haar_invariance_check(space, window, k, rng),
    ]
    elements = [_first_coordinate_shuffle(space, rng) for _ in range(6)]
    group = LatticeGroup(space.dimension)
    ad_vectors = [group.basis_vector(i, s) for i in range(space.dimension) for s in (1, -1)][:4]
    checks.append(ad_realization_check(ad_vectors, elements, space))

    invariant = recover_invariant_matrix(matrix_morphism(matrix, space, points[:8]), 81)
    exact = recovery_check(invariant, matrix)
    exact.name = "constant-invariant-exact"
    checks.append(exact)
    return checks, {"invariant": invariant.to_json()}


def _first_coordinate_shuffle(space, rng):
    """A full-group element permuting the depth-1 cylinders of coordinate 1."""
    p = space.bases[0]
    image = list(range(p))
    rng.shuffle(image)
    pieces = []
    for digit in range(p):
        shift = [0] * space.dimension
        shift[0] = image[digit] - digit + p * rng.randint(-1, 1)
        prefix = ((digit,),) + ((),) * (space.dimension - 1)
        pieces.append((Cylinder(prefix), tuple(shift)))
    return FullGroupElement.make(space, pieces)


def functoriality_route(first, second) -> str:
    """``constant`` when both matrices are det +-1 integer matrices, whose
    cocycles are exact on an odometer; ``realized`` otherwise."""
    return "constant" if is_unimodular(first) and is_unimodular(second) else "realized"


def functoriality_battery(first, second, p: int, depth: int, n: int, samples: int, tol: Fraction, seed: int):
    """The invariant of ``first`` after ``second`` against the product of
    their invariants at scale n.  The constant route reads ``p``, ``depth``,
    ``samples`` and ``seed``: constant cocycles on seeded points of the
    odometer.  The realized route reads ``tol``: floor-shear realizations
    certified on the default box."""
    route = functoriality_route(first, second)
    if route == "constant":
        space = OdometerSpace((p,) * len(first), depth)
        rng = random.Random(seed)
        points = [space.random_point(rng) for _ in range(samples)]
        eta = matrix_morphism(first, space, points)
        theta = matrix_morphism(second, space, points)
    else:
        eta, _ = realized_morphism(first, tol)
        theta, _ = realized_morphism(second, tol)
    return [functoriality_check(eta, theta, n)], {"mode": route}
