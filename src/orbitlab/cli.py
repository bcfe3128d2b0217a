"""Batch driver: configure experiments, run verification suites, emit JSON.

Each subcommand builds one report: a single JSON document with a stable
schema, one entry per check, and an aggregate verdict.  Exit codes: 0 when
every check passes, 1 on a verification failure, 2 on configuration or
precondition errors.  Identical configuration and seed produce a
byte-identical report.
"""
from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import linalg
from .fullgroup import FullGroupElement, ad_realization_check
from .groups import BALL_BUDGET, PAIR_BUDGET, BudgetExceeded, LatticeGroup, lattice_ball_size
from .invariants import (
    check_det_pm1,
    functoriality_check,
    multiplicativity_check,
    recover_invariant_matrix,
    recovery_check,
)
from .mapspace import (
    FloorMapSeed,
    IdentitySeed,
    build_translate_space,
    check_action_law,
    check_cocycle_identity,
    check_fundamental_domain,
    check_lipschitz_closure,
    check_orbit_equality,
    force_freeness,
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
    SWEEP_BUDGET,
    Cylinder,
    OdometerSpace,
    bijectivity_check_at_depth,
    haar_invariance_check,
    matrix_equivariance_check,
    minimality_witness,
)
from .shears import check_box_budget, realize_bilipschitz

SCHEMA = "orbitlab-report/2"

# The certificate box of the realized functoriality route.
REALIZED_BOX_RADIUS = 50


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@click.group()
def main():
    """Verification experiments for orbit equivalence at desk scale."""


def _reported(fn):
    """The one report path of every command.

    ``fn`` takes the options its command declares and returns its checks and
    the report's extra keys.  The wrapper adds ``--json`` and ``--out``, sets
    the report's ``config`` to the declared options, emits the report and
    exits 0 or 1 on its verdict.  A configuration or precondition error
    raised anywhere in ``fn`` -- ``ValueError`` (which includes
    ``TruncationError``) or ``BudgetExceeded`` -- exits 2 with an ``error:``
    line.
    """

    @click.option("--json", "as_json", is_flag=True, help="print the JSON report to stdout")
    @click.option("--out", type=click.Path(), default=None, help="write the JSON report here")
    @functools.wraps(fn)
    def run(as_json, out, **config):
        try:
            checks, extra = fn(**config)
        except (ValueError, BudgetExceeded) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        entries = [c.to_json() for c in checks]
        passed = all(c["pass"] for c in entries)
        report = {
            "schema": SCHEMA,
            "command": click.get_current_context().command.name,
            "config": config,
            "checks": entries,
            "pass": passed,
            **extra,
        }
        text = json.dumps(report, sort_keys=True, indent=2)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        if as_json:
            click.echo(text)
        else:
            for check in entries:
                status = "PASS" if check["pass"] else "FAIL"
                click.echo(f"{status}  {check['id']}  {check['notes']}".rstrip())
            click.echo("all checks passed" if passed else "FAILURES present")
        sys.exit(0 if passed else 1)

    return run


_tol_option = click.option("--tol", type=str, default="1e-9", show_default=True, help="tolerance (exact decimal)")
_seed_option = click.option("--seed", type=int, default=0, show_default=True, help="random seed")


@main.command()
@click.option("--matrix", required=True, help='rows split by ";", entries by spaces, e.g. "1 0.5; 0 1"')
@click.option("--n", type=int, default=1024, show_default=True, help="growth scale for the invariant")
@click.option("--samples", type=int, default=8, show_default=True, help="max sample points")
@click.option("--radius", type=int, default=50, show_default=True, help="box radius for the distance certificate")
@_tol_option
@_reported
def realize(matrix, n, samples, radius, tol):
    """Decompose a matrix, realize it on the lattice, recover the invariant."""
    _require(samples >= 1, "samples must be >= 1")
    _require(n >= 1, "growth scale n must be >= 1")
    a = linalg.parse_matrix(matrix)
    d = len(a)
    check_box_budget(radius, d)
    eta = realized_morphism(a, Fraction(tol), radius)
    cert = eta.meta["certificate"]
    points = eta.meta["space"].slice_members[:samples]
    invariant = recover_invariant_matrix(eta, n, points)

    det_tol = Fraction(10 * d) * cert.constant / n
    checks = [
        recovery_check(invariant, a, cert.constant / n),
        check_det_pm1(invariant, det_tol if det_tol > 0 else Fraction(tol)),
        multiplicativity_check(invariant),
    ]
    return checks, {
        "decomposition": [op.to_json() for op in eta.meta["floor_map"].ops],
        "certificate": cert.to_json(),
        "invariant": invariant.to_json(),
    }


@main.command(name="gromov-check")
@click.option("--matrix", default=None, help="seed matrix; identity seed when omitted")
@click.option("--dimension", type=int, default=1, show_default=True, help="lattice rank for the identity seed")
@click.option("--radius", type=int, default=6, show_default=True, help="germ domain radius R")
@click.option("--translate-radius", type=int, default=6, show_default=True, help="translate radius R_t")
@click.option("--window", type=int, default=2, show_default=True, help="orbit window W")
@click.option("--inject-corruption", is_flag=True, help="negative control: corrupt one table entry")
@_tol_option
@_reported
def gromov_check(matrix, dimension, radius, translate_radius, window, inject_corruption, tol):
    """Run the translate-space battery: Lipschitz closure, cocycle identity,
    fundamental domain, orbit equality, inverse identities, forced freeness."""
    _require(window >= 0, "window must be >= 0")
    _require(window <= radius, f"window {window} exceeds the germ radius {radius}")
    _require(
        radius + translate_radius <= BALL_BUDGET,
        f"radius + translate radius = {radius + translate_radius} exceeds the ball budget {BALL_BUDGET}",
    )
    source = click.get_current_context().get_parameter_source
    a = None if matrix is None else linalg.parse_matrix(matrix)
    if a is None:
        # --tol is the realization tolerance of a matrix seed; the identity
        # seed reads none.
        _require(source("tol") is ParameterSource.DEFAULT, "--tol is read only with --matrix")
    else:
        # --dimension sizes the identity seed; given next to a matrix it
        # must agree with it.
        _require(
            source("dimension") is ParameterSource.DEFAULT or dimension == len(a),
            f"--dimension {dimension} does not match the {len(a)}x{len(a)} matrix",
        )
        dimension = len(a)
    # The Lipschitz constant and the closure certificate each compare every
    # pair of B(R + R_t).
    reach = radius + translate_radius
    points = lattice_ball_size(dimension, reach)
    pairs = points * (points - 1) // 2
    _require(
        pairs <= PAIR_BUDGET,
        f"B({reach}) in Z^{dimension} has {points} points, {pairs} pairs per sweep, "
        f"over budget {PAIR_BUDGET}",
    )
    if a is None:
        seed_map = IdentitySeed(LatticeGroup(dimension))
    else:
        seed_map = FloorMapSeed(realize_bilipschitz(a, Fraction(tol)))
    space = build_translate_space(
        seed_map, radius, translate_radius, offset_radius=window
    )
    eta = orbit_morphism(space, radius=2 * window)
    cocycle = eta
    if inject_corruption:
        corrupt_g = next(g for g in space.source_gens.ball(window) if not g.is_identity())
        psi = space.slice_members[0]
        wrong = space.forward_cocycle(corrupt_g, psi) * space.target_gens.elements[0]
        cocycle = eta.with_override(corrupt_g, psi, wrong)

    checks = [
        check_lipschitz_closure(space),
        check_action_law(space, window),
        check_cocycle_identity(space, cocycle, window),
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


@main.command(name="odometer")
@click.option("--matrix", default="1 1; 0 1", show_default=True, help="integer unimodular matrix")
@click.option("--p", type=int, default=3, show_default=True, help="odometer base")
@click.option("--depth", type=int, default=4, show_default=True, help="truncation depth N")
@click.option("--samples", type=int, default=1000, show_default=True, help="random points for equivariance")
@click.option("--window", type=int, default=3, show_default=True, help="group ball radius for sweeps")
@_seed_option
@_reported
def odometer_cmd(matrix, p, depth, samples, window, seed):
    """Odometer battery: depth-level bijectivity, equivariance, minimality,
    measure invariance, full-group conjugation realization, exact invariant."""
    _require(samples >= 1, "samples must be >= 1")
    _require(0 <= window <= BALL_BUDGET, f"window must lie in [0, {BALL_BUDGET}]")
    a = linalg.parse_matrix(matrix)
    d = len(a)
    space = OdometerSpace((p,) * d, depth)
    _require(
        linalg.is_integral(a) and abs(linalg.det(a)) == 1,
        "odometer automorphisms need an integer matrix with det +-1",
    )
    count = space.point_count()
    _require(
        count <= SWEEP_BUDGET,
        f"depth sweeps need {p}^({depth}*{d}) = {count} points, over budget {SWEEP_BUDGET}",
    )

    # The golden reports pin the seeded stream, drawn in this order: sample
    # points, Haar cylinders, full-group elements.
    rng = random.Random(seed)
    points = [space.random_point(rng) for _ in range(samples)]
    k = min(2, depth)
    checks = [
        bijectivity_check_at_depth(a, space),
        matrix_equivariance_check(a, points, window, space),
        minimality_witness(space, k),
        haar_invariance_check(space, window, k, rng),
    ]
    elements = [_first_coordinate_shuffle(space, rng) for _ in range(6)]
    group = LatticeGroup(d)
    ad_vectors = [group.basis_vector(i, s) for i in range(d) for s in (1, -1)][:4]
    checks.append(ad_realization_check(ad_vectors, elements, space))

    invariant = recover_invariant_matrix(matrix_morphism(a, space, points[:8]), 81)
    exact = recovery_check(invariant, a)
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


@main.command(name="functoriality")
@click.option("--matrix", "matrices", multiple=True, required=True,
              help="give twice: the composite applies the second matrix, then the first")
@click.option("--p", type=int, default=3, show_default=True, help="odometer base (constant mode)")
@click.option("--depth", type=int, default=4, show_default=True, help="odometer depth (constant mode)")
@click.option("--n", type=int, default=1024, show_default=True, help="growth scale")
@click.option("--samples", type=int, default=6, show_default=True, help="sample points")
@_tol_option
@_seed_option
@_reported
def functoriality(matrices, p, depth, n, samples, tol, seed):
    """Invariant of a composite morphism vs the product of invariants.

    Integer matrices run as constant odometer cocycles (exact); any
    non-integer entry switches to floor-shear realizations with an error
    budget.
    """
    _require(len(matrices) == 2, "give --matrix exactly twice")
    _require(samples >= 1, "samples must be >= 1")
    _require(n >= 1, "growth scale n must be >= 1")
    first = linalg.parse_matrix(matrices[0])
    second = linalg.parse_matrix(matrices[1])
    _require(len(first) == len(second), "matrices must share a dimension")
    constant_mode = (
        linalg.is_integral(first)
        and linalg.is_integral(second)
        and abs(linalg.det(first)) == 1
        and abs(linalg.det(second)) == 1
    )
    rng = random.Random(seed)
    if constant_mode:
        space = OdometerSpace((p,) * len(first), depth)
        points = [space.random_point(rng) for _ in range(samples)]
        eta = matrix_morphism(first, space, points)
        theta = matrix_morphism(second, space, points)
    else:
        check_box_budget(REALIZED_BOX_RADIUS, len(first))
        eta = realized_morphism(first, Fraction(tol), REALIZED_BOX_RADIUS)
        theta = realized_morphism(second, Fraction(tol), REALIZED_BOX_RADIUS)

    return [functoriality_check(eta, theta, n)], {"mode": "constant" if constant_mode else "realized"}


if __name__ == "__main__":
    main()
