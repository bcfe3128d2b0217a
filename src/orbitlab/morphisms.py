"""Orbit-equivalence morphisms: a point map paired with a cocycle.

A morphism between two systems (group acting on points) is a point map plus
a cocycle intertwining the actions: point_map(g . x) equals
cocycle(g, x) . point_map(x).  Identity morphisms, matrix automorphisms of
odometers, and the two orbit morphisms of a truncated translate space are
provided, together with composition and the roundtrip identities that tie a
morphism to its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .odometer import DigitPoint, OdometerSpace, matrix_act, odometer_add
from .shears import FloorMap, bounded_distance_constant, realize_bilipschitz


def _points_agree(a, b) -> bool:
    if isinstance(a, MapGerm) and isinstance(b, MapGerm):
        return a.matches(b)
    return a == b


def _point_key(x):
    """The key an override is stored under: a germ by its table and its
    provenance, an odometer point by its residues, any other point by itself.

    Only ``Morphism.with_override`` uses it, and only once the element
    matches.  A germ's table names its global translate only up to its
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
    exactly and ``evaluate`` is nothing but a call to it: no value is stored.
    ``with_override`` makes a corrupted copy for negative controls.
    ``radius`` is the ball of group elements the cocycle is stated on.
    """

    kind: str
    source: ActionSystem
    target: ActionSystem
    point_map: Callable
    evaluator: Callable
    radius: int
    meta: dict = field(default_factory=dict)
    _inverse: "Morphism | None" = None

    def inverse(self) -> "Morphism":
        if self._inverse is None:
            raise ValueError(f"{self.kind} morphism has no recorded inverse")
        return self._inverse

    def evaluate(self, g, x):
        return self.evaluator(g, x)

    def with_override(self, g, x, value) -> "Morphism":
        """A copy whose cocycle reads ``value`` at (g, x) and the original's
        value everywhere else; the copy records no inverse.  A point is
        matched by its ``_point_key``, computed only when the element is g."""
        key = _point_key(x)
        original = self.evaluator

        def corrupted(h, y):
            if h == g and _point_key(y) == key:
                return value
            return original(h, y)

        return replace(
            self,
            kind=self.kind + "+corrupted",
            evaluator=corrupted,
            meta=dict(self.meta),
            _inverse=None,
        )


def identity_morphism(system: ActionSystem) -> Morphism:
    meta = {"constant": 0}
    if isinstance(system.group, LatticeGroup):
        meta["matrix"] = linalg.identity(system.group.dimension)
    morphism = Morphism("trivial", system, system, lambda x: x, lambda g, x: g, 8, meta)
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
    by the matrix, the cocycle is the constant g -> A g, exactly (stated on
    B(8), as for the identity)."""
    mat = linalg.as_matrix(matrix)
    if not linalg.is_integral(mat):
        raise ValueError("constant odometer cocycle needs an integer matrix")
    if abs(linalg.det(mat)) != 1:
        raise ValueError("matrix determinant must be +-1")
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
            8,
            meta={"matrix": m, "constant": 0},
        )

    morphism = automorphism(mat)
    inverse = automorphism(linalg.inverse(mat))
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def orbit_morphism(space: TruncatedMapSpace, radius: int | None = None, constant=None) -> Morphism:
    """The orbit equivalence of a translate space, as a morphism from the
    source action to the target action on the slice; the point map is the
    identity of the slice and the cocycle carries the translation data.

    The forward cocycle is exact on the stated ball and extended exactly
    through translate provenance beyond it; its inverse carries the
    backward cocycle.
    """
    radius = space.radius if radius is None else radius

    def act_source(g, germ):
        # Exact through provenance for global seeds; otherwise truncated,
        # promoted back to a stored full-radius slice member when one matches.
        if space.seed.is_global and germ.provenance is not None:
            return space.global_act_source(g, germ)
        moved = space.act_source(g, germ)
        match = space.find_slice_match(moved)
        return match if match is not None else moved

    def forward(g, germ):
        if space.source_gens.word_length(g) <= germ.radius:
            return space.forward_cocycle(g, germ)
        return space.global_forward_cocycle(g, germ)

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
    meta = {"space": space, "constant": constant}
    if isinstance(space.seed, FloorMapSeed):
        meta["matrix"] = space.seed.floor_map.target
        meta["floor_map"] = space.seed.floor_map
    morphism = Morphism(
        "orbit-forward", source_system, target_system, lambda x: x, forward, radius, meta
    )
    inverse = Morphism(
        "orbit-backward",
        target_system,
        source_system,
        lambda x: x,
        backward,
        radius,
        {"space": space, "constant": constant},
    )
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def realized_morphism(matrix, tol=1e-9, box_radius: int = 50) -> Morphism:
    """The orbit morphism of the matrix's floor-shear realization (translate
    space at R = R_t = 2 with no offsets, cocycle stated on B(2)), carrying
    the exact constant of its distance certificate on the box of radius
    ``box_radius``; ``meta["certificate"]`` holds the certificate."""
    floor_map = realize_bilipschitz(matrix, tol)
    cert = bounded_distance_constant(floor_map, floor_map.target, box_radius)
    space = build_translate_space(FloorMapSeed(floor_map), 2, 2, offset_radius=0)
    morphism = orbit_morphism(space, radius=2, constant=cert.constant)
    morphism.meta["certificate"] = cert
    return morphism


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
            min(eta.radius, theta.radius),
            _composed_meta(eta, theta),
        )

    eta_map = eta.meta.get("floor_map")
    theta_map = theta.meta.get("floor_map")
    if eta_map is not None and theta_map is not None:
        composite = FloorMap(
            tuple(eta_map.ops) + tuple(theta_map.ops),
            eta_map.dimension,
            target=linalg.mat_mul(eta_map.target, theta_map.target),
        )
        template = eta.meta["space"]
        new_space = build_translate_space(
            FloorMapSeed(composite),
            template.radius,
            template.translate_radius,
            offset_radius=template.offset_radius,
        )
        composed = orbit_morphism(new_space)
        composed.kind = "composed-seed"
        return composed
    raise ValueError(
        f"cannot compose {eta.kind} after {theta.kind}: systems do not match"
    )


def _composed_meta(eta: Morphism, theta: Morphism) -> dict:
    meta = {}
    if "matrix" in eta.meta and "matrix" in theta.meta:
        meta["matrix"] = linalg.mat_mul(eta.meta["matrix"], theta.meta["matrix"])
    c_eta = eta.meta.get("constant")
    c_theta = theta.meta.get("constant")
    if c_eta is not None and c_theta is not None and "matrix" in eta.meta:
        norm = linalg.row_sum_norm(eta.meta["matrix"])
        meta["constant"] = c_eta + norm * c_theta
    return meta


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
        passed=not witnesses,
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "points": len(morphism.source.points)},
    )


def check_inverse_equivariance(morphism: Morphism, radius: int) -> CheckResult:
    """point_map(g^-1 . x) == cocycle(g, g^-1 x)^-1 . point_map(x)."""
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
        passed=not witnesses,
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
        passed=not witnesses,
        checked=checked,
        witnesses=witnesses,
        coverage={"R": radius, "points": len(eta.source.points)},
    )
