"""The scalar loops of the translate battery: one ``act_source`` per slice
member and pair, compared with ``MapGerm.matches``.

The library's ``check_action_law``, ``check_cocycle_identity`` and
``force_freeness`` stack the slice and hoist what does not depend on the
inner element; these loops are the reference they are compared with, and
the controls that patch ``TruncatedMapSpace.act_source`` run against them.
"""
import itertools

from orbitlab.checks import CheckResult
from orbitlab.odometer import odometer_add


def action_law(space, window: int) -> CheckResult:
    checked = 0
    witnesses = []
    ball = space.source_gens.ball(window)
    for psi in space.slice_members:
        for g, h in itertools.product(ball, repeat=2):
            if space.source_gens.word_length(g) + space.source_gens.word_length(h) > psi.radius:
                continue
            combined = space.act_source(g * h, psi)
            stepwise = space.act_source(g, space.act_source(h, psi))
            checked += 1
            if not combined.matches(stepwise):
                witnesses.append((g, h, psi))
    return CheckResult(name="action-law", checked=checked, witnesses=witnesses, coverage={"W": window})


def cocycle_identity(space, cocycle, radius: int) -> CheckResult:
    ball = space.source_gens.ball(radius)
    checked = 0
    witnesses = []
    for psi in space.slice_members:
        for g, h in itertools.product(ball, repeat=2):
            acted = space.act_source(h, psi)
            lhs = cocycle.evaluate(g * h, psi)
            rhs = cocycle.evaluate(g, acted) * cocycle.evaluate(h, psi)
            checked += 1
            if lhs != rhs:
                witnesses.append((g, h, psi))
    return CheckResult(
        name="cocycle-identity",
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "table_radius": 2 * radius},
    )


def freeness(space, odometer, window: int) -> CheckResult:
    zero = odometer.zero()
    checked = 0
    witnesses = []
    for g in space.source_gens.ball(window):
        if g.is_identity():
            continue
        for psi in space.slice_members:
            lam = space.orbit_cocycle(g, psi)
            moved_psi = space.act_source(g, psi)
            moved = odometer_add(zero, tuple(g.coords) + tuple(lam.coords), odometer)
            checked += 1
            if moved == zero and moved_psi.matches(psi):
                witnesses.append((g, psi, zero))
    return CheckResult(
        name="forced-freeness",
        checked=checked,
        witnesses=witnesses,
        coverage={"W": window, "pairs": len(space.slice_members)},
    )
