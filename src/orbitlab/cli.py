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
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import linalg
from .batteries import (
    BATTERY_BUDGET,
    check_gromov_budget,
    check_report_floats,
    corrupted_cocycle,
    functoriality_battery,
    functoriality_route,
    odometer_battery,
    realize_battery,
    translate_battery,
)
from .groups import BALL_BUDGET, BudgetExceeded, LatticeGroup, lattice_ball_size
from .mapspace import FloorMapSeed, IdentitySeed, build_translate_space
from .odometer import HAAR_SAMPLE, SWEEP_BUDGET, OdometerSpace
from .shears import CERTIFICATE_RADIUS, check_box_budget, realize_bilipschitz

SCHEMA = "orbitlab-report/2"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _realizable(a: linalg.Matrix, tol: str) -> Fraction:
    """The exact ``--tol`` of a matrix to realize.  A negative ``--tol``, and an
    entry or ``--tol`` past the float range of a report, are refused before any work."""
    tol = linalg.as_scalar(tol)
    _require(tol >= 0, "--tol must be >= 0")
    check_report_floats(a, tol)
    return tol


def _given(name: str) -> bool:
    """Whether an option was set explicitly rather than left at its default."""
    return click.get_current_context().get_parameter_source(name) is not ParameterSource.DEFAULT


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
@click.option("--radius", type=int, default=CERTIFICATE_RADIUS, show_default=True,
              help="box radius for the distance certificate")
@_tol_option
@_reported
def realize(matrix, n, samples, radius, tol):
    """Decompose a matrix, realize it on the lattice, recover the invariant."""
    _require(samples >= 1, "samples must be >= 1")
    _require(n >= 1, "growth scale n must be >= 1")
    a = linalg.parse_matrix(matrix)
    tol = _realizable(a, tol)
    check_box_budget(radius, len(a))
    return realize_battery(a, n, samples, radius, tol)


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
    _require(radius >= 0, "--radius must be >= 0")
    _require(translate_radius >= 0, "--translate-radius must be >= 0")
    _require(window >= 0, "window must be >= 0")
    _require(window <= radius, f"window {window} exceeds the germ radius {radius}")
    # The corruption overrides the cocycle at the first g != e of B(W).
    _require(not inject_corruption or window >= 1, "--inject-corruption needs --window >= 1")
    _require(
        radius + translate_radius <= BALL_BUDGET,
        f"radius + translate radius = {radius + translate_radius} exceeds the ball budget {BALL_BUDGET}",
    )
    a = None if matrix is None else linalg.parse_matrix(matrix)
    if a is None:
        # --tol is the realization tolerance of a matrix seed; the identity
        # seed reads none.
        _require(not _given("tol"), "--tol is read only with --matrix")
    else:
        # --dimension sizes the identity seed; given next to a matrix it
        # must agree with it.
        _require(
            not _given("dimension") or dimension == len(a),
            f"--dimension {dimension} does not match the {len(a)}x{len(a)} matrix",
        )
        dimension = len(a)
        tol = _realizable(a, tol)
    check_gromov_budget(dimension, radius, translate_radius, window)
    if a is None:
        seed_map = IdentitySeed(LatticeGroup(dimension))
    else:
        seed_map = FloorMapSeed(realize_bilipschitz(a, tol))
    space = build_translate_space(seed_map, radius, translate_radius, offset_radius=window)
    cocycle = corrupted_cocycle(space, window) if inject_corruption else None
    return translate_battery(space, window, cocycle)


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
    _require(linalg.is_unimodular(a), "odometer automorphisms need an integer matrix with det +-1")
    count = space.point_count()
    _require(
        count <= SWEEP_BUDGET,
        f"depth sweeps need {p}^({depth}*{d}) = {count} points, over budget {SWEEP_BUDGET}",
    )
    # Equivariance crosses B(W) with the samples, Haar invariance with its draws.
    steps = lattice_ball_size(d, window) * (samples + HAAR_SAMPLE)
    _require(
        steps <= BATTERY_BUDGET,
        f"window sweeps need |B({window})| (samples + {HAAR_SAMPLE}) = {steps} steps in Z^{d}, "
        f"over budget {BATTERY_BUDGET}",
    )
    return odometer_battery(a, space, samples, window, seed)


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

    Integer matrices run as constant odometer cocycles (exact), on sample
    points drawn by ``--seed`` from the ``--p``, ``--depth`` odometer; any
    non-integer entry switches to floor-shear realizations at ``--tol``
    with an error budget.  An explicit option the route does not read exits 2.
    """
    _require(len(matrices) == 2, "give --matrix exactly twice")
    _require(samples >= 1, "samples must be >= 1")
    _require(n >= 1, "growth scale n must be >= 1")
    first = linalg.parse_matrix(matrices[0])
    second = linalg.parse_matrix(matrices[1])
    _require(len(first) == len(second), "matrices must share a dimension")
    route = functoriality_route(first, second)
    for name in ("tol",) if route == "constant" else ("seed", "p", "depth", "samples"):
        _require(not _given(name), f"--{name} is not read by the {route} route")
    if route == "realized":
        tol = _realizable(first + second, tol)
        check_box_budget(CERTIFICATE_RADIUS, len(first))
    else:
        # Recovery reads d cocycle values per sample for eta, theta and the composite.
        values = 3 * len(first) * samples
        _require(
            values <= BATTERY_BUDGET,
            f"the constant route recovers 3 d samples = {values} cocycle values, over budget {BATTERY_BUDGET}",
        )
    return functoriality_battery(first, second, p, depth, n, samples, linalg.as_scalar(tol), seed)


if __name__ == "__main__":
    main()
