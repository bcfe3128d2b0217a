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
from .shears import FloorMap


def _points_agree(a, b) -> bool:
    if isinstance(a, MapGerm) and isinstance(b, MapGerm):
        return a.matches(b)
    return a == b


def _point_key(x):
    """The key a cocycle value is cached under: a germ by its table, an
    odometer point by its residues, any other point by itself."""
    if isinstance(x, MapGerm):
        return x.key()
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
    exactly; ``evaluate`` caches them per (group element, point key) and
    consults corruption overrides first (negative controls).  ``radius`` is
    the ball of group elements the cocycle is stated on.
    """

    kind: str
    source: ActionSystem
    target: ActionSystem
    point_map: Callable
    evaluator: Callable
    radius: int
    meta: dict = field(default_factory=dict)
    _inverse: "Morphism | None" = None
    _entries: dict = field(default_factory=dict, init=False, repr=False)
    _overrides: dict = field(default_factory=dict, init=False, repr=False)

    def inverse(self) -> "Morphism":
        if self._inverse is None:
            raise ValueError(f"{self.kind} morphism has no recorded inverse")
        return self._inverse

    def evaluate(self, g, x):
        key = (g, _point_key(x))
        if key in self._overrides:
            return self._overrides[key]
        if key not in self._entries:
            self._entries[key] = self.evaluator(g, x)
        return self._entries[key]

    def with_override(self, g, x, value) -> "Morphism":
        """A copy whose cocycle reads ``value`` at (g, x); the original keeps
        its values and its cache."""
        clone = replace(
            self, kind=self.kind + "+corrupted", meta=dict(self.meta), _inverse=None
        )
        clone._entries = dict(self._entries)
        clone._overrides = {**self._overrides, (g, _point_key(x)): value}
        return clone


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


def matrix_morphism(matrix, space: OdometerSpace, points: Sequence, radius: int = 8) -> Morphism:
    """The matrix automorphism of the odometer: point map is multiplication
    by the matrix, the cocycle is the constant g -> A g, exactly."""
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
            radius,
            meta={"matrix": m, "constant": 0, "odometer": space},
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
            if germ.provenance is None or not space.seed.is_global:
                raise
            g0, delta = germ.provenance
            if not delta.is_identity():
                raise
            # psi^-1(mu) = g0 * seed^-1(seed(g0^-1) * mu); cocycle inverts it.
            mu = lam.inverse()
            anchor = g0 * space.seed.invert_value(
                space._seed_value(g0.inverse()) * mu
            )
            return anchor.inverse()

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


def compose_morphisms(eta: Morphism, theta: Morphism, _build_inverse: bool = True) -> Morphism:
    """eta after theta.

    When theta lands in eta's system the composite is computed pointwise:
    the point maps compose and the cocycle is
    eta(theta(g, x), theta.point_map(x)).  Two floor-map orbit morphisms
    live on different slices, so their composite is realized by composing
    the underlying lattice bijections and rebuilding the orbit morphism of
    the composite seed with the parameters of eta's space.
    """
    if theta.target.key == eta.source.key:
        def evaluate(g, x):
            return eta.evaluate(theta.evaluate(g, x), theta.point_map(x))

        composed = Morphism(
            "composed",
            theta.source,
            eta.target,
            lambda x: eta.point_map(theta.point_map(x)),
            evaluate,
            min(eta.radius, theta.radius),
            _composed_meta(eta, theta),
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
