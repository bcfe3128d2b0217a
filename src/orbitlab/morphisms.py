"""Orbit-equivalence morphisms: a point map paired with a cocycle.

A morphism between two systems (group acting on points) is a point map plus
a cocycle intertwining the actions: point_map(g . x) equals
cocycle(g, x) . point_map(x).  Identity morphisms, matrix automorphisms of
odometers, and the two orbit morphisms of a truncated translate space are
provided, together with composition and the roundtrip identities that tie a
morphism to its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .checks import CheckResult
from .groups import GeneratingSet, LatticeGroup
from .mapspace import (
    FloorMapSeed,
    MapGerm,
    TruncatedMapSpace,
    TruncationError,
    build_translate_space,
)
from .odometer import DigitPoint, OdometerSpace, matrix_act, odometer_add, unimodular_rows
from .shears import (
    CERTIFICATE_RADIUS,
    DEFAULT_TOL,
    DistanceCertificate,
    FloorMap,
    bounded_distance_constant,
    realize_bilipschitz,
)


def _points_agree(a, b) -> bool:
    if isinstance(a, MapGerm) and isinstance(b, MapGerm):
        return a.matches(b)
    return a == b


def _point_key(x):
    """The key an override is stored under: a germ by its table and its
    provenance, an odometer point by its residues, any other point by itself.

    ``Morphism.with_override`` stores it with each override, and
    ``Morphism.evaluate`` computes it only once the element matches.  A germ's table names its global translate only up to its
    radius.  Past the radius the orbit cocycle answers through the recorded
    provenance (``global_forward_cocycle``), so two germs with equal tables
    from different translates are different points; an override at one
    leaves the other's value alone.
    """
    if isinstance(x, MapGerm):
        return (x.key(), x.provenance)
    if isinstance(x, DigitPoint):
        return x.residues
    return x


@dataclass
class ActionSystem:
    """A group action on a sampled point set, with a stable identity key."""

    key: str
    gens: GeneratingSet
    act: Callable
    points: tuple

    @property
    def group(self):
        return self.gens.group


@dataclass
class Morphism:
    """A point map and the cocycle that intertwines the two actions.

    ``kind`` names the cocycle.  ``evaluator`` computes cocycle values
    exactly.  ``overrides`` lists the (g, point key, value) entries that
    ``with_override`` records for negative controls; ``evaluate`` reads them
    first, the latest first, and calls ``evaluator`` everywhere else.

    ``constant`` is the sup-distance C of the cocycle from a linear map, when
    one is known (0 for the exact constant and trivial cocycles), and
    invariant recovery reports C/n from it.  ``space`` is the translate space
    of an orbit-forward morphism; its seed's floor map is what composition
    composes.
    """

    kind: str
    source: ActionSystem
    target: ActionSystem
    point_map: Callable
    evaluator: Callable
    constant: Fraction | int | None = None
    space: TruncatedMapSpace | None = None
    overrides: tuple = ()
    _inverse: "Morphism | None" = None

    def inverse(self) -> "Morphism":
        if self._inverse is None:
            raise ValueError(f"{self.kind} morphism has no recorded inverse")
        return self._inverse

    def evaluate(self, g, x):
        # A point is matched by its ``_point_key``, computed only when the
        # element is an override's.
        for h, key, value in reversed(self.overrides):
            if h == g and _point_key(x) == key:
                return value
        return self.evaluator(g, x)

    def with_override(self, g, x, value) -> "Morphism":
        """A copy whose cocycle reads ``value`` at (g, x) and the original's
        value everywhere else; the copy records no inverse.  A copy of a
        copy keeps both overrides, and the later one wins at the same
        (g, x)."""
        overrides = (*self.overrides, (g, _point_key(x), value))
        return replace(self, kind=self.kind + "+corrupted", overrides=overrides, _inverse=None)


def identity_morphism(system: ActionSystem) -> Morphism:
    morphism = Morphism("trivial", system, system, lambda x: x, lambda g, x: g, constant=0)
    morphism._inverse = morphism
    return morphism


def odometer_translation_system(space: OdometerSpace, points: Sequence) -> ActionSystem:
    group = LatticeGroup(space.dimension)
    return ActionSystem(
        key=f"odometer{space.bases}x{space.depth}",
        gens=group.standard_generators(),
        act=lambda g, x: odometer_add(x, g.coords, space),
        points=tuple(points),
    )


def matrix_morphism(matrix, space: OdometerSpace, points: Sequence) -> Morphism:
    """The matrix automorphism of the odometer: point map is multiplication
    by the matrix, the cocycle is the constant g -> A g, exactly.  The
    matrix is validated as ``matrix_act`` validates it."""
    mat = linalg.as_matrix(matrix)
    unimodular_rows(mat, space)
    system = odometer_translation_system(space, points)
    group = system.group

    def automorphism(m) -> Morphism:
        def evaluate(g, x):
            return group.element(int(v) for v in linalg.mat_vec(m, g.coords))

        return Morphism(
            "constant",
            system,
            system,
            lambda x: matrix_act(m, x, space),
            evaluate,
            constant=0,
        )

    morphism = automorphism(mat)
    inverse = automorphism(linalg.inverse(mat))
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def orbit_morphism(space: TruncatedMapSpace, constant=None) -> Morphism:
    """The orbit equivalence of a translate space, as a morphism from the
    source action to the target action on the slice; the point map is the
    identity of the slice and the cocycle carries the translation data.

    The forward cocycle (``TruncatedMapSpace.orbit_cocycle``) reads a germ's
    table within its radius and is extended exactly through translate
    provenance beyond it; its inverse carries the backward cocycle.
    """

    def act_source(g, germ):
        # Exact through provenance for global seeds; otherwise truncated,
        # promoted back to a stored full-radius slice member when one matches.
        if space.seed.is_global and germ.provenance is not None:
            return space.global_act_source(g, germ)
        moved = space.act_source(g, germ)
        match = space.find_slice_match(moved)
        return match if match is not None else moved

    def backward(lam, germ):
        try:
            return space.backward_cocycle(lam, germ)
        except TruncationError:
            return space.global_backward_cocycle(lam, germ)

    def act_target(lam, germ):
        # lam . psi equals b . psi for b the backward cocycle value.
        return act_source(backward(lam, germ), germ)

    source_system = ActionSystem(
        key=f"translate-space-{id(space)}-source",
        gens=space.source_gens,
        act=act_source,
        points=space.slice_members,
    )
    target_system = ActionSystem(
        key=f"translate-space-{id(space)}-target",
        gens=space.target_gens,
        act=act_target,
        points=space.slice_members,
    )
    morphism = Morphism(
        "orbit-forward", source_system, target_system, lambda x: x, space.orbit_cocycle, constant, space
    )
    inverse = Morphism(
        "orbit-backward", target_system, source_system, lambda x: x, backward, constant
    )
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def realized_morphism(
    matrix, tol=DEFAULT_TOL, box_radius: int = CERTIFICATE_RADIUS
) -> tuple[Morphism, DistanceCertificate]:
    """The orbit morphism of the matrix's floor-shear realization (translate
    space at R = R_t = 2 with no offsets), carrying the exact constant of its
    distance certificate on the box of radius ``box_radius``, and that
    certificate."""
    floor_map = realize_bilipschitz(matrix, tol)
    cert = bounded_distance_constant(floor_map, floor_map.target, box_radius)
    space = build_translate_space(FloorMapSeed(floor_map), 2, 2, offset_radius=0)
    return orbit_morphism(space, constant=cert.constant), cert


def compose_morphisms(eta: Morphism, theta: Morphism) -> Morphism:
    """eta after theta.

    When theta lands in eta's system the composite is computed pointwise:
    the point maps compose and the cocycle is
    eta(theta(g, x), theta.point_map(x)); the composite records no inverse.
    Two floor-map orbit morphisms live on different slices, so their
    composite is realized by composing the underlying lattice bijections
    and rebuilding the orbit morphism of the composite seed with the
    parameters of eta's space.
    """
    if theta.target.key == eta.source.key:
        def evaluate(g, x):
            return eta.evaluate(theta.evaluate(g, x), theta.point_map(x))

        return Morphism(
            "composed",
            theta.source,
            eta.target,
            lambda x: eta.point_map(theta.point_map(x)),
            evaluate,
        )

    seeds = [None if m.space is None else m.space.seed for m in (eta, theta)]
    if all(isinstance(seed, FloorMapSeed) for seed in seeds):
        eta_map, theta_map = (seed.floor_map for seed in seeds)
        composite = FloorMap(
            tuple(eta_map.ops) + tuple(theta_map.ops),
            eta_map.dimension,
            target=linalg.mat_mul(eta_map.target, theta_map.target),
        )
        new_space = build_translate_space(
            FloorMapSeed(composite),
            eta.space.radius,
            eta.space.translate_radius,
            offset_radius=eta.space.offset_radius,
        )
        composed = orbit_morphism(new_space)
        composed.kind = "composed-seed"
        return composed
    raise ValueError(
        f"cannot compose {eta.kind} after {theta.kind}: systems do not match"
    )


def check_equivariance(morphism: Morphism, radius: int) -> CheckResult:
    """point_map(g . x) == cocycle(g, x) . point_map(x) on tabled pairs."""
    checked = 0
    witnesses = []
    for x in morphism.source.points:
        for g in morphism.source.gens.ball(radius):
            lhs = morphism.point_map(morphism.source.act(g, x))
            rhs = morphism.target.act(morphism.evaluate(g, x), morphism.point_map(x))
            checked += 1
            if not _points_agree(lhs, rhs):
                witnesses.append((g, x))
    return CheckResult(
        name="equivariance",
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "points": len(morphism.source.points)},
    )


def check_inverse_equivariance(morphism: Morphism, radius: int) -> CheckResult:
    """point_map(g^-1 . x) == cocycle(g, g^-1 x)^-1 . point_map(x).

    It reads the cocycle only at (g, g^-1 . x), never at (g, x).  A
    ``with_override`` at (g, g^-1 . x) fails it with the witness (g, x); an
    override at a sampled pair (g, x) never reaches it, and
    ``check_equivariance`` is the check that sees that one.
    """
    checked = 0
    witnesses = []
    for x in morphism.source.points:
        for g in morphism.source.gens.ball(radius):
            shifted = morphism.source.act(g.inverse(), x)
            lam = morphism.evaluate(g, shifted)
            lhs = morphism.point_map(shifted)
            rhs = morphism.target.act(lam.inverse(), morphism.point_map(x))
            checked += 1
            if not _points_agree(lhs, rhs):
                witnesses.append((g, x))
    return CheckResult(
        name="inverse-equivariance",
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "points": len(morphism.source.points)},
    )


def check_inverse_identities(eta: Morphism, eta_inv: Morphism, radius: int) -> CheckResult:
    """Roundtrip identities tying a morphism to its inverse.

    (a) inv_cocycle(cocycle(g, x), point_map(x)) == g on every tabled pair;
    (b) with the source point shifted by g^-1 and the image point pulled
    back by the cocycle value, the roundtrip still returns g.
    """
    checked = 0
    witnesses = []
    for x in eta.source.points:
        for g in eta.source.gens.ball(radius):
            lam = eta.evaluate(g, x)
            back = eta_inv.evaluate(lam, eta.point_map(x))
            checked += 1
            if back != g:
                witnesses.append(("roundtrip", g, x, lam, back))

            shifted = eta.source.act(g.inverse(), x)
            lam2 = eta.evaluate(g, shifted)
            pulled = eta.target.act(lam2.inverse(), eta.point_map(x))
            back2 = eta_inv.evaluate(lam2, pulled)
            checked += 1
            if back2 != g:
                witnesses.append(("roundtrip-shifted", g, x, lam2, back2))
    return CheckResult(
        name="inverse-identities",
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "points": len(eta.source.points)},
    )
