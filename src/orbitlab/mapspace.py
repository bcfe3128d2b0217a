"""Truncated translate-closure map spaces and orbit-equivalence cocycles.

Starting from a seed bi-Lipschitz map between two finitely generated groups,
the translate closure is approximated at finite truncation: the space holds
every distinct restriction to a source ball of radius R of the translated
seeds (g, lam) . seed over a translate ball of radius R_t, with the target
offset lam parameterized around the normalizing value so that the slice of
maps fixing the identity is explicit.

Germs act under two normalized actions: the source-group action (which
preserves the slice), and the target-group action, which is the source
action at the backward cocycle.  The two orbit cocycles read off values of
the germ tables; every operation tracks the remaining reliable domain
radius and raises :class:`TruncationError` instead of extrapolating.

Every germ stores its table as one row per element of B(radius), in the
ball order of :mod:`groups` (:class:`MapGerm`).  A lattice value is a row
of target coordinates, on the dtype that ``linalg.rung`` gives for the
largest entry; any other value is the element itself.
Acting on a germ is then one gather of rows through the ball positions
plus one offset, and matching, keys and partial inverses compare rows.  The
source action works on a stack of such tables at once
(:meth:`TruncatedMapSpace.act_source_rows`), which is how the battery acts
on the whole slice.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import linalg
from .checks import CheckResult
from .groups import (
    BALL_BUDGET,
    GeneratingSet,
    LatticeElement,
    LatticeGroup,
    is_bilipschitz_on_ball,
    sweep_pairs,
)
from .odometer import OdometerSpace, odometer_add
from .shears import FloorMap


class TruncationError(ValueError):
    """The requested value lies outside the reliably known truncation."""


# ---------------------------------------------------------------------------
# seeds


class IdentitySeed:
    """The identity map of a group, defined everywhere."""

    is_global = True

    def __init__(self, group):
        self.source_group = group
        self.target_group = group

    def value(self, g):
        return g

    def invert_value(self, lam):
        return lam

    def describe(self):
        return "identity"


class FloorMapSeed:
    """A floor-shear lattice bijection as a seed, defined everywhere."""

    is_global = True

    def __init__(self, floor_map: FloorMap):
        self.floor_map = floor_map
        group = LatticeGroup(floor_map.dimension)
        self.source_group = group
        self.target_group = group

    def value(self, g):
        return self.source_group.element(self.floor_map(g.coords))

    def invert_value(self, lam):
        return self.source_group.element(self.floor_map.inverse(lam.coords))

    def describe(self):
        return "floor-shear map"


class TableSeed:
    """A finite map table; honest about its bounded domain."""

    is_global = False

    def __init__(self, table: dict, source_group, target_group):
        self.table = dict(table)
        self.source_group = source_group
        self.target_group = target_group

    def value(self, g):
        try:
            return self.table[g]
        except KeyError:
            raise TruncationError(f"seed table undefined at {g!r}") from None

    def describe(self):
        return f"table of {len(self.table)} entries"


# ---------------------------------------------------------------------------
# germs


def _as_rows(group, values: list) -> np.ndarray:
    """Target values as table rows.  On a lattice, an (n, d) array of
    coordinates on the rung of its largest entry.  On any other group, the
    elements themselves in a 1-D object array."""
    if not isinstance(group, LatticeGroup):
        rows = np.empty(len(values), dtype=object)
        rows[:] = values
        return rows
    coords = [v.coords for v in values]
    peak = max((abs(c) for row in coords for c in row), default=0)
    return np.array(coords, dtype=linalg.rung(peak)).reshape(len(coords), -1)


def _offset(rows: np.ndarray, shift: tuple) -> np.ndarray:
    """rows + shift, exactly, on the rung of the row bound plus the shift's."""
    dtype = linalg.rung(linalg.array_bound(rows) + max(map(abs, shift)))
    return rows.astype(dtype, copy=False) + np.array(shift, dtype=dtype)


def _times(lam, rows: np.ndarray) -> np.ndarray:
    """The rows of lam v for the rows of the values v."""
    if rows.ndim == 2:
        return _offset(rows, lam.coords)
    return _as_rows(lam.group, [lam * v for v in rows])


def _row_law(group, rows: np.ndarray, terms: int) -> tuple:
    """The group law on table values, elementwise over stacked rows:
    ``(invert, multiply)``.  On a lattice, coordinate rows negate and add on
    the rung of ``terms`` times the bound of ``rows``, which holds every
    value that is a product of at most ``terms`` of their entries; on any
    other group, elements invert and multiply through object ufuncs."""
    if not isinstance(group, LatticeGroup):
        return np.frompyfunc(lambda v: v.inverse(), 1, 1), np.frompyfunc(lambda a, b: a * b, 2, 1)
    dtype = linalg.rung(terms * linalg.array_bound(rows))
    return (lambda a: -a.astype(dtype, copy=False)), (
        lambda a, b: a.astype(dtype, copy=False) + b.astype(dtype, copy=False)
    )


def _flat(rows: np.ndarray) -> tuple:
    """Rows as one tuple, in ball order: a lattice table's rows as integers,
    row after row; any other table's values by their ``sort_key``."""
    if rows.ndim == 1:
        return tuple(v.sort_key() for v in rows)
    return tuple(rows.ravel().tolist())


class MapGerm:
    """A map from a source ball into the target ``group``, known exactly there.

    ``table`` is the germ's read-only row array: row i holds the value at the
    i-th element of B(radius) in ball order, as :func:`_as_rows` stores it.
    The rows are 2-D exactly when the target is a lattice.

    ``provenance`` records the translate data (g0, value at identity) when
    the germ arose from a globally defined seed, which lets large-scale
    cocycle values be recomputed exactly; table lookups never leave the
    stated radius.
    """

    __slots__ = ("gens", "radius", "group", "table", "provenance", "_key")

    def __init__(self, gens: GeneratingSet, radius: int, group, table: np.ndarray, provenance=None):
        table.flags.writeable = False
        self.gens = gens
        self.radius = radius
        self.group = group
        self.table = table
        self.provenance = provenance
        self._key = None

    @classmethod
    def from_dict(cls, gens: GeneratingSet, radius: int, values: dict, provenance=None) -> "MapGerm":
        """The germ with the given value at each element of B(radius)."""
        ball = gens.ball(radius)
        if len(values) != len(ball):
            raise ValueError(f"germ table must list the {len(ball)} elements of B({radius})")
        listed = [values[g] for g in ball]
        group = listed[0].group
        return cls(gens, radius, group, _as_rows(group, listed), provenance)

    def value(self, g):
        position = self.gens.position(self.radius, g)
        if position < 0:
            raise TruncationError(f"germ of radius {self.radius} undefined at {g!r}")
        if self.table.ndim == 1:
            return self.table[position]
        return LatticeElement(self.group, tuple(self.table[position].tolist()))

    def value_at_identity(self):
        return self.value(self.gens.group.identity())

    def is_normalized(self) -> bool:
        return self.value_at_identity().is_identity()

    def restricted(self, r: int) -> np.ndarray:
        """The rows of B(r), r <= radius, in ``ball(r)`` order."""
        if r > self.radius:
            raise TruncationError(f"germ of radius {self.radius} undefined on B({r})")
        if r == self.radius:
            return self.table
        return self.table[self.gens.shifted(self.radius, r, self.gens.group.identity())]

    def key(self):
        """Equal exactly for equal radius and table; ordered by radius, then
        by the values in ball order, each compared as its coordinates or
        letters (:func:`_flat`)."""
        if self._key is None:
            self._key = (self.radius, _flat(self.table))
        return self._key

    def matches(self, other: "MapGerm") -> bool:
        """Agreement on the common ball (the truncated notion of equality)."""
        r = min(self.radius, other.radius)
        return np.array_equal(self.restricted(r), other.restricted(r))

    def __eq__(self, other):
        return isinstance(other, MapGerm) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        prov = "" if self.provenance is None else f", from translate {self.provenance[0]!r}"
        return f"MapGerm(radius={self.radius}{prov})"


# ---------------------------------------------------------------------------
# the truncated space


def seed_rows_radius(radius: int, translate_radius: int, offset_radius: int) -> int:
    """The largest ball B(R + R_t + W), W the offset radius, capped at
    ``BALL_BUDGET``, on which a space keeps its seed's rows: an intact
    battery reads a translate at g g0 on B(R), |g| <= W and |g0| <= R_t."""
    return min(radius + translate_radius + offset_radius, BALL_BUDGET)


class TruncatedMapSpace:
    def __init__(self, seed, radius, translate_radius, offset_radius, source_gens, target_gens):
        self.seed = seed
        self.radius = radius
        self.translate_radius = translate_radius
        self.offset_radius = offset_radius
        self.source_gens = source_gens
        self.target_gens = target_gens
        self.members: tuple[MapGerm, ...] = ()
        self.slice_members: tuple[MapGerm, ...] = ()
        self._seed_values: dict = {}
        self._lipschitz: Fraction | None = None
        # The seed's values on a ball B(r), r >= R + R_t, kept as rows, so a
        # translate is one gather from them.
        self._seed_rows: tuple = (-1, None)  # (r, the seed's rows on B(r))
        self._slice_rows: dict = {}  # radius -> rows -> first slice member with them

    # -- construction

    def _seed_value(self, g):
        if g not in self._seed_values:
            self._seed_values[g] = self.seed.value(g)
        return self._seed_values[g]

    def translate_table(self, g0, delta, radius) -> np.ndarray:
        """The rows of the seed translate with provenance (g0, delta) on
        B(radius): psi(h) = delta s(g0^-1)^-1 s(g0^-1 h), which takes the
        value delta at the identity.  A gather of the seed's rows, kept on
        B(R + R_t) and grown on demand up to :func:`seed_rows_radius`; a
        farther translate reads the seed point by point, so a long g0 never
        enumerates the ball it reaches (exponential in a free group)."""
        g0_inv = g0.inverse()
        prefix = delta * self._seed_value(g0_inv).inverse()
        group = self.target_gens.group
        reach = self.source_gens.word_length(g0) + radius
        if reach <= seed_rows_radius(self.radius, self.translate_radius, self.offset_radius):
            seed_radius, seed_rows = self._seed_rows
            if seed_radius < reach:
                seed_radius = max(reach, min(self.radius + self.translate_radius, BALL_BUDGET))
                ball = self.source_gens.ball(seed_radius)
                seed_rows = _as_rows(group, [self._seed_value(g) for g in ball])
                self._seed_rows = (seed_radius, seed_rows)
            values = seed_rows[self.source_gens.shifted(seed_radius, radius, g0)]
        else:
            ball = self.source_gens.ball(radius)
            values = _as_rows(group, [self._seed_value(g0_inv * h) for h in ball])
        return _times(prefix, values)

    def _build(self):
        # Every base table is normalized: base(e) = s(g0^-1)^-1 s(g0^-1) = e.
        # So the translate delta . base takes the value delta at e, and
        # delta . b1 = delta' . b2 forces delta = delta' and then b1 = b2, in
        # any group: (distinct base, delta) pairs give distinct members, and
        # only the distinct bases need their offset translates.  Each base
        # keeps the first g0 in ball order that yields it.  That g0 is the
        # one of the first (g0, delta) germ with a given table, so the
        # provenance equals what building every (g0, delta) germ and keeping
        # the first of each table would record.
        bases = {}
        group = self.target_gens.group
        identity_target = group.identity()
        for g0 in self.source_gens.ball(self.translate_radius):
            base = self.translate_table(g0, identity_target, self.radius)
            # Every base lists the same ball in the same order.
            bases.setdefault(_flat(base), (g0, base))
        members = []
        for g0, base in bases.values():
            for delta in self.target_gens.ball(self.offset_radius):
                if delta == identity_target:
                    table = base
                else:
                    table = self.translate_table(g0, delta, self.radius)
                members.append(
                    MapGerm(self.source_gens, self.radius, group, table, provenance=(g0, delta))
                )
        self.members = tuple(sorted(members, key=MapGerm.key))
        self.slice_members = tuple(m for m in self.members if m.is_normalized())
        if not self.slice_members:
            raise ValueError("slice is empty; seed does not normalize")

    # -- seed Lipschitz constant (exact, over the enumeration domain)

    def lipschitz_constant(self) -> Fraction:
        """The least C >= 1 with C^-1 d(a, b) <= d(s a, s b) <= C d(a, b) for
        every pair of B(R + R_t) under the seed s: one :func:`sweep_pairs`
        (on arrays for lattice seeds), its extreme ratios taken as exact
        Fractions.  The closure certificate sweeps the same ball on its own,
        so it does not rest on how C was found."""
        if self._lipschitz is None:
            reach = self.radius + self.translate_radius
            values = [self._seed_value(g) for g in self.source_gens.ball(reach)]
            sweep = sweep_pairs(self.source_gens, self.target_gens, reach, values)
            if sweep.lower is None:
                # A one-point ball compares no pair, and its constant is 1.
                self._lipschitz = Fraction(1)
            elif sweep.lower[0] == 0:
                raise ValueError("seed collapses distances; not bi-Lipschitz")
            else:
                upper = Fraction(sweep.upper[0], sweep.upper[1])
                lower = Fraction(sweep.lower[0], sweep.lower[1])
                self._lipschitz = max(upper, 1 / lower, Fraction(1))
        return self._lipschitz

    # -- actions

    def act_source(self, g, germ: MapGerm) -> MapGerm:
        """Normalized source action (g . psi)(h) = psi(g^-1)^-1 psi(g^-1 h).

        Shrinks the reliable domain by the word length of g; the result
        fixes the identity, so the slice is closed under this action.  The
        one-member case of :meth:`act_source_rows`.
        """
        return self._act_one(g, germ)

    def _act_one(self, g, germ: MapGerm) -> MapGerm:
        # The body of act_source, which act_target and the fundamental
        # domain's source hits share without counting as its calls.
        _, rows = self.act_source_rows(g, germ.table[np.newaxis], germ.radius)
        provenance = None
        if germ.provenance is not None:
            # g . psi takes the value psi(g^-1)^-1 psi(g^-1) = e at the identity.
            provenance = (g * germ.provenance[0], self.target_gens.group.identity())
        radius = germ.radius - self.source_gens.word_length(g)
        return MapGerm(self.source_gens, radius, germ.group, rows[0], provenance)

    def act_source_rows(self, g, rows: np.ndarray, radius: int) -> tuple:
        """The normalized source action of g on a stack of tables of one radius.

        ``rows`` stacks the tables of germs on B(radius): an array of shape
        (germs, |B(radius)|, d) on a lattice target, of shape
        (germs, |B(radius)|) holding the elements otherwise.  Returns the
        forward cocycle psi(g^-1)^-1 of each germ, read at
        ``position(radius, g^-1)``, and the rows of each g . psi on
        B(radius - |g|): the rows at ``shifted(radius, radius - |g|, g)``,
        each times its germ's cocycle.
        """
        gens = self.source_gens
        step = gens.word_length(g)
        if step > radius:
            raise TruncationError(f"domain exhausted acting by {g!r}")
        position = gens.position(radius, g.inverse())
        gathered = gens.shifted(radius, radius - step, g)
        # Each value of g . psi is the product of two table entries: one
        # rung, proven once for the whole stack.
        invert, multiply = _row_law(self.target_gens.group, rows, 2)
        cocycle = invert(rows[:, position])
        return cocycle, multiply(cocycle[:, np.newaxis], rows[:, gathered])

    def act_target(self, lam, germ: MapGerm) -> MapGerm:
        """Normalized target action lam psi(b^-1 h) = (b . psi)(h), b = psi^-1(lam^-1)^-1."""
        return self._act_one(self.backward_cocycle(lam, germ), germ)

    def partial_inverse(self, germ: MapGerm, target_value):
        """The unique ball element mapped to ``target_value`` by the germ (the
        first in ball order if a corrupted germ has several)."""
        rows = germ.table
        match = rows == _as_rows(germ.group, [target_value])
        hits = np.flatnonzero(match.reshape(len(rows), -1).all(axis=1))
        if not len(hits):
            raise TruncationError(f"{target_value!r} not in germ image at this truncation")
        return germ.gens.ball(germ.radius)[hits[0]]

    # -- cocycles

    def backward_cocycle(self, lam, germ: MapGerm):
        """Target-to-source cocycle: (psi^-1(lam^-1))^-1."""
        return self.partial_inverse(germ, lam.inverse()).inverse()

    def orbit_cocycle(self, g, germ: MapGerm):
        """The forward orbit cocycle psi(g^-1)^-1: read off the germ's table
        within its radius, and through its recorded translate past it."""
        if self.source_gens.word_length(g) <= germ.radius:
            return germ.value(g.inverse()).inverse()
        return self.global_forward_cocycle(g, germ)

    def global_forward_cocycle(self, g, germ: MapGerm):
        """Forward cocycle through the recorded translate, exact at any g."""
        if germ.provenance is None or not self.seed.is_global:
            raise TruncationError("germ has no globally defined representative")
        g0, delta = germ.provenance
        value = delta * self._seed_value(g0.inverse()).inverse() * self._seed_value(
            g0.inverse() * g.inverse()
        )
        return value.inverse()

    def global_backward_cocycle(self, lam, germ: MapGerm):
        """Backward cocycle through the recorded translate, exact at any lam.

        The germ is psi(h) = delta s(g0^-1)^-1 s(g0^-1 h), so
        psi^-1(mu) = g0 s^-1(s(g0^-1) delta^-1 mu), taken at mu = lam^-1.
        """
        if germ.provenance is None or not self.seed.is_global:
            raise TruncationError("germ has no globally defined representative")
        g0, delta = germ.provenance
        anchor = g0 * self.seed.invert_value(
            self._seed_value(g0.inverse()) * delta.inverse() * lam.inverse()
        )
        return anchor.inverse()

    def global_act_source(self, g, germ: MapGerm) -> MapGerm:
        """Source action through the recorded translate: full-radius result."""
        if germ.provenance is None or not self.seed.is_global:
            raise TruncationError("germ has no globally defined representative")
        g0, _ = germ.provenance
        new_g0 = g * g0
        group = self.target_gens.group
        table = self.translate_table(new_g0, group.identity(), self.radius)
        return MapGerm(self.source_gens, self.radius, group, table, (new_g0, group.identity()))

    def find_slice_match(self, germ: MapGerm) -> MapGerm | None:
        """The first slice member that matches the germ, or None."""
        # Slice members have radius R, so they match the germ on B(r) for
        # r = min(R, its radius): one lookup of its rows there among the
        # members' rows there, the first member in slice order kept for each.
        r = min(germ.radius, self.radius)
        lookup = self._slice_rows.get(r)
        if lookup is None:
            lookup = self._slice_rows[r] = {}
            for member in self.slice_members:
                lookup.setdefault(_flat(member.restricted(r)), member)
        return lookup.get(_flat(germ.restricted(r)))

    def to_json(self):
        return {
            "seed": self.seed.describe(),
            "R": self.radius,
            "R_t": self.translate_radius,
            "offset_radius": self.offset_radius,
            "members": len(self.members),
            "slice": len(self.slice_members),
            "lipschitz_constant": float(self.lipschitz_constant()),
        }


def build_translate_space(
    seed, radius: int, translate_radius: int, offset_radius: int | None = None
) -> TruncatedMapSpace:
    """Enumerate distinct translated-seed restrictions and their slice.

    Both groups carry their standard generators.  The seed must be defined
    on the ball of radius R + R_t.  Offsets of the target coordinate range
    over the ball of ``offset_radius`` (default R_t) around the normalizing
    value, so the slice is always reachable.
    """
    if radius < 0 or translate_radius < 0:
        raise ValueError("radii must be >= 0")
    offset_radius = translate_radius if offset_radius is None else offset_radius
    source_gens = seed.source_group.standard_generators()
    target_gens = seed.target_group.standard_generators()
    if not seed.is_global:
        needed = source_gens.ball(radius + translate_radius)
        for g in needed:
            seed.value(g)  # raises TruncationError if the table is too small
    space = TruncatedMapSpace(
        seed, radius, translate_radius, offset_radius, source_gens, target_gens
    )
    space._build()
    return space


# ---------------------------------------------------------------------------
# checks


def check_lipschitz_closure(space: TruncatedMapSpace) -> CheckResult:
    """Every member germ satisfies the seed's two-sided Lipschitz bound.

    A member built from the seed s with provenance (g0, delta) is
    psi(h) = delta s(g0^-1)^-1 s(g0^-1 h) for h in B(R), with g0 in B(R_t).
    Both word metrics are left-invariant, so d(psi(a), psi(b)) equals
    d(s(g0^-1 a), s(g0^-1 b)) and d(a, b) equals d(g0^-1 a, g0^-1 b): every
    ratio that the member's own pair sweep computes is the ratio of a pair
    of B(R + R_t) under the seed.  This is the finite form of G x H acting
    by isometries on the space of C-bi-Lipschitz maps.

    So the seed is swept once over B(R + R_t) against the constant C; that
    sweep is an independent exact check of C.  If it passes, a member that
    is the translate its provenance names (:func:`_is_named_translate`)
    passes on that certificate.  Every other member -- no provenance, a
    table that does not match, a provenance that reads the seed outside
    B(R + R_t), or every member when the seed sweep fails -- gets its own
    full pair sweep, and its first violating pair is its witness.
    """
    constant = space.lipschitz_constant()
    reach = space.radius + space.translate_radius
    certificate = is_bilipschitz_on_ball(
        space._seed_value, reach, constant, space.source_gens, space.target_gens
    )
    witnesses = []
    for germ in space.members:
        if certificate.passed and _is_named_translate(space, germ):
            continue
        report = is_bilipschitz_on_ball(
            germ.value, germ.radius, constant, space.source_gens, space.target_gens
        )
        if not report.passed:
            witnesses.append((germ, report.witnesses[0]))
    return CheckResult(
        name="lipschitz-closure",
        checked=len(space.members),
        witnesses=witnesses,
        coverage={"R": space.radius, "R_t": space.translate_radius},
        notes=f"constant {float(constant):.4g}",
    )


def _is_named_translate(space: TruncatedMapSpace, germ: MapGerm) -> bool:
    """The germ's table is the seed translate its provenance names, and that
    translate reads the seed only inside B(R + R_t)."""
    if germ.provenance is None:
        return False
    g0, delta = germ.provenance
    if space.source_gens.word_length(g0) + germ.radius > space.radius + space.translate_radius:
        return False
    return np.array_equal(germ.table, space.translate_table(g0, delta, germ.radius))


def _slice_stack(space: TruncatedMapSpace) -> np.ndarray:
    """The slice members' tables on B(R), stacked as
    :meth:`TruncatedMapSpace.act_source_rows` takes them.  ``_build`` gives
    every member radius R; a member of another radius is refused with
    ValueError."""
    if any(germ.radius != space.radius for germ in space.slice_members):
        raise ValueError(f"a slice member's radius is not R = {space.radius}")
    return np.stack([germ.table for germ in space.slice_members])


def _agree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For two stacks of tables on one ball, whether each pair of tables is equal."""
    return (a == b).reshape(len(a), -1).all(axis=1)


def check_action_law(space: TruncatedMapSpace, window: int) -> CheckResult:
    """(g h) . psi == g . (h . psi) wherever both sides are defined.

    The law holds for every function psi inside the radius, not only for
    translates of a bi-Lipschitz seed: with (g . psi)(k) =
    psi(g^-1)^-1 psi(g^-1 k), both sides give psi(h^-1 g^-1)^-1
    psi(h^-1 g^-1 k) at k, in any group.  So no input can make it fail; it
    tests the implementation, not the input: the index chains of the
    normalized action (the cocycle read at ``position(R, g^-1)`` and the
    gather through ``shifted(R, R - |g|, g)``) and its truncation radii.

    It works on the slice stacked as one array of tables on B(R)
    (:meth:`TruncatedMapSpace.act_source_rows`).  h . Psi is computed once
    per h, and (g h) . Psi once per distinct product g h; for each pair,
    (g h) . Psi and g . (h . Psi) come from their own index chains, the
    first is restricted to B(R - |g| - |h|) as :meth:`MapGerm.matches`
    restricts it, and every member is compared at once.  Witnesses come
    member by member, each member's in pair order.
    """
    gens = space.source_gens
    identity = gens.group.identity()
    pairs = list(itertools.product(gens.ball(window), repeat=2))
    checked = 0
    found = []  # (member position, pair position, witness)
    stack, radius = _slice_stack(space), space.radius
    moved = {
        h: space.act_source_rows(h, stack, radius)[1]
        for h in gens.ball(window)
        if gens.word_length(h) <= radius
    }
    products = {}  # g h -> (g h) . Psi
    for pair, (g, h) in enumerate(pairs):
        reach = radius - gens.word_length(g) - gens.word_length(h)
        if reach < 0:
            continue
        gh = g * h
        combined = products.get(gh)
        if combined is None:
            combined = products[gh] = space.act_source_rows(gh, stack, radius)[1]
        combined = combined[:, gens.shifted(radius - gens.word_length(gh), reach, identity)]
        stepwise = space.act_source_rows(g, moved[h], radius - gens.word_length(h))[1]
        checked += len(stack)
        for member in np.flatnonzero(~_agree(combined, stepwise)):
            found.append((member, pair, (g, h, space.slice_members[member])))
    found.sort(key=lambda entry: entry[:2])
    return CheckResult(
        name="action-law",
        checked=checked,
        witnesses=[witness for *_, witness in found],
        coverage={"W": window},
    )


def check_cocycle_identity(space: TruncatedMapSpace, cocycle, radius: int) -> CheckResult:
    """cocycle(g h, psi) == cocycle(g, h . psi) * cocycle(h, psi), exhaustively.

    For the orbit cocycle the identity holds for every function psi inside
    the radius: with cocycle(g, psi) = psi(g^-1)^-1, the right side is
    psi(h^-1 g^-1)^-1 psi(h^-1) psi(h^-1)^-1 = psi((g h)^-1)^-1.  Past a
    germ's radius the cocycle reads its provenance instead, so a slice
    member whose table is not the translate its provenance names fails
    where g h, or g on h . psi, reaches past the radius.  Inside it
    (2 ``radius`` <= R) the check tests the implementation only: the
    gathers, the truncation radii and the ``--inject-corruption`` override.

    ``cocycle`` is the space's orbit morphism, overrides and all; any other
    is refused with ValueError.  It is exact at every g for a global seed,
    and for a table seed ``evaluate`` raises :class:`TruncationError` past
    a germ.  The slice is one stack on B(R) and each h makes one
    :meth:`TruncatedMapSpace.act_source_rows`: cocycle(h, psi) is its
    cocycle row, cocycle(g h, psi) the inverted table row at
    ``position(R, (g h)^-1)`` and cocycle(g, h . psi) the inverted acted
    row at ``position(R - |h|, g^-1)``, by :func:`_row_law`, every member
    compared at once for every g with |g| + |h| <= R.  Only the cases past
    the radius, or with g, h or g h an override's element, go through
    ``evaluate``, with h . psi (one ``act_source``) and cocycle(h, psi)
    computed once per (psi, h).  Witnesses come member by member, each
    member's in (g, h) order.  The coverage key ``table_radius`` (2
    ``radius``, the reach of g h) keeps its name from when cocycles were
    stored tables, so reports keep their bytes.
    """
    if getattr(cocycle, "evaluator", None) != space.orbit_cocycle:
        raise ValueError("the cocycle identity reads the space's own orbit morphism")
    ball = space.source_gens.ball(radius)
    overridden = {g for g, *_ in cocycle.overrides}
    failed, scalar = _identity_on_rows(space, ball, _slice_stack(space), overridden)
    witnesses = []
    for psi, found in zip(space.slice_members, failed):
        found += _identity_by_evaluate(space, cocycle, ball, psi, scalar)
        witnesses += [(ball[i], ball[j], psi) for i, j in sorted(found)]
    return CheckResult(
        name="cocycle-identity",
        checked=len(space.slice_members) * len(ball) ** 2,
        witnesses=witnesses,
        coverage={"R": radius, "table_radius": 2 * radius},
    )


def _identity_on_rows(space, ball, stack, overridden) -> tuple:
    """The cocycle identity of the orbit cocycle on the slice stack: per
    member, the (g, h) positions found failing on the rows; and the cases
    left to ``evaluate``, ordered by h."""
    gens = space.source_gens
    radius = space.radius
    lengths = [gens.word_length(g) for g in ball]
    # Each side is a product of at most three table entries.
    invert, multiply = _row_law(space.target_gens.group, stack, 3)
    failed = [[] for _ in stack]
    scalar = []
    for j, h in enumerate(ball):
        right, moved = space.act_source_rows(h, stack, radius)
        reach = radius - lengths[j]
        rows = []
        for i, g in enumerate(ball):
            if lengths[i] > reach or (overridden and {g, h, g * h} & overridden):
                scalar.append((i, j))
            else:
                rows.append(i)
        if not rows:
            continue
        left = invert(stack[:, [gens.position(radius, (ball[i] * h).inverse()) for i in rows]])
        middle = invert(moved[:, [gens.position(reach, ball[i].inverse()) for i in rows]])
        agree = (left == multiply(middle, right[:, np.newaxis])).reshape(len(stack), len(rows), -1)
        for member, row in zip(*np.nonzero(~agree.all(axis=2))):
            failed[member].append((rows[row], j))
    return failed, scalar


def _identity_by_evaluate(space, cocycle, ball, psi, cases) -> list:
    """The (g, h) positions among ``cases`` (ordered by h) where the
    identity fails at psi, every value read through ``evaluate``."""
    failed = []
    for j, group in itertools.groupby(cases, key=lambda case: case[1]):
        h = ball[j]
        acted = space.act_source(h, psi)
        right = cocycle.evaluate(h, psi)
        for i, _ in group:
            g = ball[i]
            if cocycle.evaluate(g * h, psi) != cocycle.evaluate(g, acted) * right:
                failed.append((i, j))
    return failed


def check_fundamental_domain(space: TruncatedMapSpace, window: int) -> CheckResult:
    """Windowed orbits of members meet the slice exactly once, both actions.

    Source-side uniqueness is checked for every member (a corrupted table
    can send two points to e); on the target side lambda delta = e has the
    one solution delta^-1, so only membership of that hit in the slice is
    checked.  Existence is asserted for the members whose predicted slice
    hit lies inside the window (computed through the seed when it is
    globally invertible).

    A source hit g . omega of a member with provenance (g0, delta) has
    provenance (g g0, e).  When g g0 lies outside B(R_t) no enumerated slice
    member can be that hit, so a hit with no match passes exactly when it is
    the seed translate (g g0, e) names (:func:`_is_named_translate`): the
    provenance argument of the Lipschitz closure.  That translate reads the
    seed only inside B(R + R_t), since |g g0| + R - |g| <= R + R_t, so table
    seeds pass the same way.  A hit with |g g0| <= R_t that is its named
    translate always has an enumerated match.
    """
    if window > space.radius:
        raise TruncationError("window exceeds the truncation radius")
    ball = space.source_gens.ball(window)
    identity_target = space.target_gens.group.identity()
    checked = 0
    witnesses = []
    interior_checked = 0
    for omega in space.members:
        hits = []
        for g in ball:
            if omega.value(g.inverse()) == identity_target:
                # omega(g^-1) = e, so the source action of g adds no offset
                moved = space._act_one(g, omega)
                if space.find_slice_match(moved) is None and not _is_named_translate(space, moved):
                    witnesses.append(("source-hit-not-in-slice", g, omega))
                hits.append(g)
        checked += 1
        if len(hits) > 1:
            witnesses.append(("source-multiple-hits", omega, hits))
        expected = _predicted_source_hit(space, omega)
        if expected is not None and space.source_gens.word_length(expected) <= window:
            interior_checked += 1
            if len(hits) != 1:
                witnesses.append(("source-missing-hit", omega, expected))

        # Target direction: the unique candidate is the inverse of the value
        # at the identity; it hits inside the window iff that value is short.
        delta = omega.value_at_identity()
        if space.target_gens.word_length(delta) <= window:
            interior_checked += 1
            rows = _times(delta.inverse(), omega.table)
            normalized = MapGerm(omega.gens, omega.radius, omega.group, rows)
            if space.find_slice_match(normalized) is None:
                witnesses.append(("target-hit-not-in-slice", delta, omega))
    return CheckResult(
        name="fundamental-domain",
        checked=checked,
        witnesses=witnesses,
        coverage={"W": window, "interior": interior_checked},
    )


def _predicted_source_hit(space: TruncatedMapSpace, omega: MapGerm):
    # The g with omega(g^-1) = e is the backward cocycle at the identity.
    try:
        return space.global_backward_cocycle(space.target_gens.group.identity(), omega)
    except TruncationError:
        return None


def check_orbit_equality(space: TruncatedMapSpace, psi: MapGerm, window: int) -> CheckResult:
    """The windowed source orbit of a slice point equals its target orbit.

    Source germs g . psi correspond to target germs lam . psi at
    lam = psi(g^-1)^-1; at truncation the two germ sets agree verbatim.
    The sweep also round-trips each forward cocycle value through the
    backward cocycle.
    """
    source_orbit = {}
    for g in space.source_gens.ball(window):
        germ = space.act_source(g, psi)
        source_orbit[germ.key()] = g
    target_orbit = {}
    for h in space.source_gens.ball(window):
        lam = psi.value(h).inverse()
        germ = space.act_target(lam, psi)
        target_orbit[germ.key()] = lam

    consistent = 0
    witnesses = []
    for g in space.source_gens.ball(window):
        lam = space.orbit_cocycle(g, psi)
        back = space.backward_cocycle(lam, psi)
        consistent += 1
        if back != g:
            witnesses.append(("cocycle-roundtrip", g, lam, back))
    if set(source_orbit) != set(target_orbit):
        witnesses.append(
            (
                "orbit-sets-differ",
                sorted(map(repr, source_orbit.values())),
                sorted(map(repr, target_orbit.values())),
            )
        )
    return CheckResult(
        name="orbit-equality",
        checked=len(source_orbit) + consistent,
        witnesses=witnesses,
        coverage={
            "W": window,
            "source_orbit": len(source_orbit),
            "target_orbit": len(target_orbit),
            "source_set": sorted(repr(g) for g in source_orbit.values()),
            "target_set": sorted(repr(lam) for lam in target_orbit.values()),
        },
    )


# ---------------------------------------------------------------------------
# freeness-forcing product


def force_freeness(space: TruncatedMapSpace, odometer: OdometerSpace, window: int) -> CheckResult:
    """Certify window-freeness of the diagonal product with an odometer.

    The odometer must have one coordinate per source and target lattice
    coordinate; the source group moves the germ and adds (g, cocycle value)
    on the odometer side, which destroys every finite-window fixed point.
    Every non-identity g of the window ball moves every (slice member,
    odometer zero) pair.  The slice is one stack of tables on B(R) and each
    g acts on the whole stack at once (one
    :meth:`TruncatedMapSpace.act_source_rows` per g, through the same index
    chains as ``act_source``); witnesses come in (g, member) order.

    A witness needs g to fix the odometer zero.  On the base-2 odometer of
    depth N with 2^N > W that the CLI builds (N = max(3, W.bit_length())), every
    g != e of B(W) has a coordinate 0 < |g_i| < 2^N and moves the zero, so
    the check passes whatever the germs are; only a too-shallow odometer
    makes it fail.
    """
    src = space.source_gens.group
    tgt = space.target_gens.group
    if not isinstance(src, LatticeGroup) or not isinstance(tgt, LatticeGroup):
        raise ValueError("freeness forcing is implemented for lattice groups")
    if odometer.dimension != src.dimension + tgt.dimension:
        raise ValueError(
            f"odometer dimension {odometer.dimension} != "
            f"{src.dimension} + {tgt.dimension}"
        )
    gens = space.source_gens
    identity = gens.group.identity()
    zero = odometer.zero()
    checked = 0
    witnesses = []
    stack, radius = _slice_stack(space), space.radius
    for g in gens.ball(window):
        if g.is_identity():
            continue
        cocycle, moved = space.act_source_rows(g, stack, radius)
        fixed = _agree(moved, stack[:, gens.shifted(radius, radius - gens.word_length(g), identity)])
        for member, psi in enumerate(space.slice_members):
            lam = tuple(cocycle[member].tolist())
            checked += 1
            if odometer_add(zero, tuple(g.coords) + lam, odometer) == zero and fixed[member]:
                witnesses.append((g, psi, zero))
    return CheckResult(
        name="forced-freeness",
        checked=checked,
        witnesses=witnesses,
        coverage={"W": window, "pairs": len(space.slice_members)},
    )
