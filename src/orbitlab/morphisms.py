"""Orbit-equivalence morphisms: a point map paired with a cocycle.

A morphism between two systems (group acting on points) is a point map plus
a cocycle intertwining the actions: point_map(g . x) equals
cocycle(g, x) . point_map(x).  Identity morphisms, matrix automorphisms of
odometers, and the two orbit morphisms of a truncated translate space are
provided, together with composition and the roundtrip identities that tie a
morphism to its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import linalg
from .checks import CheckResult
from .groups import GeneratingSet, LatticeGroup
from .mapspace import (
    CocycleTable,
    MapGerm,
    TruncatedMapSpace,
    backward_cocycle_table,
    constant_matrix_cocycle_table,
    forward_cocycle_table,
)
from .odometer import DigitPoint, OdometerSpace, matrix_act, odometer_add
from .shears import FloorMap


def _points_agree(a, b) -> bool:
    if isinstance(a, MapGerm) and isinstance(b, MapGerm):
        return a.matches(b)
    return a == b


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
    kind: str
    source: ActionSystem
    target: ActionSystem
    point_map: Callable
    cocycle: CocycleTable
    meta: dict = field(default_factory=dict)
    _inverse: "Morphism | None" = None

    def inverse(self) -> "Morphism":
        if self._inverse is None:
            raise ValueError(f"{self.kind} morphism has no recorded inverse")
        return self._inverse

    def evaluate(self, g, x):
        return self.cocycle.evaluate(g, x)

    def to_json(self):
        return {
            "kind": self.kind,
            "source": self.source.key,
            "target": self.target.key,
            "cocycle": self.cocycle.to_json(),
        }


def identity_morphism(system: ActionSystem) -> Morphism:
    table = CocycleTable(
        kind="trivial",
        source_gens=system.gens,
        target_gens=system.gens,
        points=system.points,
        evaluator=lambda g, x: g,
        point_action=system.act,
        radius=8,
        point_key=_default_point_key,
        meta={"constant": 0, "matrix": linalg.identity(_lattice_dim(system))}
        if isinstance(system.group, LatticeGroup)
        else {"constant": 0},
    )
    morphism = Morphism("identity", system, system, lambda x: x, table)
    morphism._inverse = morphism
    return morphism


def _lattice_dim(system: ActionSystem) -> int:
    return system.group.dimension


def _default_point_key(x):
    if isinstance(x, MapGerm):
        return x.key()
    if isinstance(x, DigitPoint):
        return x.residues
    return x


def odometer_translation_system(space: OdometerSpace, points: Sequence) -> ActionSystem:
    group = LatticeGroup(space.dimension)
    return ActionSystem(
        key=f"odometer{space.bases}x{space.depth}",
        gens=group.standard_generators(),
        act=lambda g, x: odometer_add(x, g.coords, space),
        points=tuple(points),
    )


def matrix_morphism(matrix, space: OdometerSpace, points: Sequence, radius: int = 8) -> Morphism:
    """The matrix automorphism of the odometer: point map is multiplication
    by the matrix, the cocycle is the constant g -> A g."""
    mat = linalg.as_matrix(matrix)
    system = odometer_translation_system(space, points)
    table = constant_matrix_cocycle_table(mat, space, points, radius)
    morphism = Morphism(
        "matrix",
        system,
        system,
        lambda x: matrix_act(mat, x, space),
        table,
        meta={"matrix": mat, "constant": 0, "odometer": space},
    )
    inv = linalg.inverse(mat)
    inverse = Morphism(
        "matrix",
        system,
        system,
        lambda x: matrix_act(inv, x, space),
        constant_matrix_cocycle_table(inv, space, points, radius),
        meta={"matrix": inv, "constant": 0, "odometer": space},
    )
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def orbit_morphism(space: TruncatedMapSpace, radius: int | None = None, constant=None) -> Morphism:
    """The orbit equivalence of a translate space, as a morphism from the
    source action to the target action on the slice; the point map is the
    identity of the slice and the cocycle carries the translation data."""
    radius = space.radius if radius is None else radius
    forward = forward_cocycle_table(space, radius, constant=constant)
    backward = backward_cocycle_table(space, radius, constant=constant)
    source_system = ActionSystem(
        key=f"translate-space-{id(space)}-source",
        gens=space.source_gens,
        act=forward._point_action,
        points=space.slice_members,
    )
    target_system = ActionSystem(
        key=f"translate-space-{id(space)}-target",
        gens=space.target_gens,
        act=backward._point_action,
        points=space.slice_members,
    )
    meta = {"space": space, "constant": constant}
    if "matrix" in forward.meta:
        meta["matrix"] = forward.meta["matrix"]
    seed = getattr(space.seed, "floor_map", None)
    if seed is not None:
        meta["floor_map"] = seed
    morphism = Morphism("orbit", source_system, target_system, lambda x: x, forward, meta)
    inverse_meta = {"space": space, "constant": constant}
    inverse = Morphism(
        "orbit-inverse", target_system, source_system, lambda x: x, backward, inverse_meta
    )
    morphism._inverse = inverse
    inverse._inverse = morphism
    return morphism


def compose_morphisms(
    eta: Morphism,
    theta: Morphism,
    space_builder: Callable | None = None,
    _build_inverse: bool = True,
) -> Morphism:
    """eta after theta.

    When theta lands in eta's system the composite is computed pointwise:
    the point maps compose and the cocycle is
    eta.cocycle(theta.cocycle(g, x), theta.point_map(x)).  Two floor-map
    orbit morphisms live on different slices, so their composite is realized
    by composing the underlying lattice bijections and rebuilding the orbit
    morphism of the composite seed (``space_builder`` maps a FloorMap to a
    TruncatedMapSpace and defaults to the parameters of eta's space).
    """
    if theta.target.key == eta.source.key:
        def evaluate(g, x):
            return eta.cocycle.evaluate(theta.cocycle.evaluate(g, x), theta.point_map(x))

        table = CocycleTable(
            kind="composed",
            source_gens=theta.cocycle.source_gens,
            target_gens=eta.cocycle.target_gens,
            points=theta.source.points,
            evaluator=evaluate,
            point_action=theta.source.act,
            radius=min(eta.cocycle.radius, theta.cocycle.radius),
            point_key=theta.cocycle._point_key,
            meta=_composed_meta(eta, theta),
        )
        composed = Morphism(
            "composed",
            theta.source,
            eta.target,
            lambda x: eta.point_map(theta.point_map(x)),
            table,
            meta=_composed_meta(eta, theta),
        )
        if _build_inverse and eta._inverse is not None and theta._inverse is not None:
            try:
                composed._inverse = compose_morphisms(
                    theta.inverse(), eta.inverse(), _build_inverse=False
                )
                composed._inverse._inverse = composed
            except ValueError:
                pass
        return composed

    eta_map = eta.meta.get("floor_map")
    theta_map = theta.meta.get("floor_map")
    if eta_map is not None and theta_map is not None:
        composite = FloorMap(
            tuple(eta_map.ops) + tuple(theta_map.ops),
            eta_map.dimension,
            target=linalg.mat_mul(eta_map.target, theta_map.target),
        )
        if space_builder is None:
            template = eta.meta["space"]

            def space_builder(fm):
                from .mapspace import FloorMapSeed, build_translate_space

                return build_translate_space(
                    FloorMapSeed(fm),
                    template.radius,
                    template.translate_radius,
                    offset_radius=template.offset_radius,
                )

        new_space = space_builder(composite)
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
        meta["constant"] = float(c_eta + norm * c_theta)
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
