"""Germ operations agree with their dict form.

``RefGerm`` and ``RefSpace`` are the dict germs of the translate space: a
germ is a dict from the elements of B(radius), in ball order, to target
elements, and every operation builds or scans such dicts one entry at a
time.  The package's germs must give the same tables, radii, provenances,
keys, key order, matches, partial inverses and slice matches on every space
below, member by member and over the window ball.
"""
from fractions import Fraction

import pytest

from orbitlab import linalg
from orbitlab.groups import FreeGroup, LatticeGroup
from orbitlab.mapspace import (
    FloorMapSeed,
    IdentitySeed,
    MapGerm,
    TableSeed,
    TruncationError,
    build_translate_space,
)
from orbitlab.shears import realize_bilipschitz

ACCEPTANCE_3X3 = "-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5"
HUGE = "1 100000000000000000000; 0 1"


class RefGerm:
    """A map from a source ball into the target group, as a dict."""

    def __init__(self, gens, radius, table, provenance=None):
        self.gens = gens
        self.radius = radius
        self.table = table
        self.provenance = provenance

    def value(self, g):
        try:
            return self.table[g]
        except KeyError:
            raise TruncationError(f"germ of radius {self.radius} undefined at {g!r}") from None

    def value_at_identity(self):
        return self.table[self.gens.group.identity()]

    def is_normalized(self):
        return self.value_at_identity().is_identity()

    def key(self):
        items = sorted(self.table.items(), key=lambda kv: kv[0].sort_key())
        return (self.radius, tuple((g.sort_key(), v.sort_key()) for g, v in items))

    def matches(self, other):
        r = min(self.radius, other.radius)
        return all(self.table[g] == other.table[g] for g in self.gens.ball(r))


def germ_values(germ):
    """A germ's table as a dict over B(radius), in ball order."""
    return {g: germ.value(g) for g in germ.gens.ball(germ.radius)}


def as_ref(germ):
    return RefGerm(germ.gens, germ.radius, germ_values(germ), germ.provenance)


class RefSpace:
    """The germ operations of a translate space on dict germs."""

    def __init__(self, space):
        self.space = space
        self.gens = space.source_gens
        self.seed = space.seed.value

    def translate_table(self, g0, delta, radius):
        prefix = delta * self.seed(g0.inverse()).inverse()
        return {h: prefix * self.seed(g0.inverse() * h) for h in self.gens.ball(radius)}

    def build(self):
        """Every (g0, delta) germ, the first of each key kept, in key order."""
        space = self.space
        by_key = {}
        for g0 in self.gens.ball(space.translate_radius):
            for delta in space.target_gens.ball(space.offset_radius):
                table = self.translate_table(g0, delta, space.radius)
                germ = RefGerm(self.gens, space.radius, table, (g0, delta))
                by_key.setdefault(germ.key(), germ)
        members = tuple(sorted(by_key.values(), key=RefGerm.key))
        return members, tuple(m for m in members if m.is_normalized())

    def raw_translate(self, g, lam, germ):
        """((g, lam) psi)(h) = lam psi(g^-1 h): the reference that both
        normalized actions of the package are compared through."""
        step = self.gens.word_length(g)
        if step > germ.radius:
            raise TruncationError(f"domain exhausted translating by {g!r}")
        table = {h: lam * germ.value(g.inverse() * h) for h in self.gens.ball(germ.radius - step)}
        provenance = None
        if germ.provenance is not None:
            provenance = (g * germ.provenance[0], table[self.gens.group.identity()])
        return RefGerm(self.gens, germ.radius - step, table, provenance)

    def act_source(self, g, germ):
        if self.gens.word_length(g) > germ.radius:
            raise TruncationError(f"domain exhausted acting by {g!r}")
        return self.raw_translate(g, germ.value(g.inverse()).inverse(), germ)

    def partial_inverse(self, germ, target_value):
        for g, v in germ.table.items():
            if v == target_value:
                return g
        raise TruncationError(f"{target_value!r} not in germ image at this truncation")

    def act_target(self, lam, germ):
        return self.raw_translate(self.partial_inverse(germ, lam.inverse()).inverse(), lam, germ)

    def find_slice_match(self, germ, slice_members):
        for index, member in enumerate(slice_members):
            if member.matches(germ):
                return index
        return None


def outcome(call):
    """A germ as (radius, items in ball order, provenance, key); any other
    value as itself; a TruncationError as its message."""
    try:
        result = call()
    except TruncationError as exc:
        return ("TruncationError", str(exc))
    if isinstance(result, (MapGerm, RefGerm)):
        ref = result if isinstance(result, RefGerm) else as_ref(result)
        return (ref.radius, list(ref.table.items()), ref.provenance, ref.key())
    return result


def nielsen_space():
    F2 = FreeGroup(2)
    images = {1: "a", -1: "A", 2: "ab", -2: "BA"}

    def nielsen(word):
        out = F2.identity()
        for letter in word.letters:
            out = out * F2.word(images[letter])
        return out

    table = {w: nielsen(w) for w in F2.standard_generators().ball(4)}
    return build_translate_space(TableSeed(table, F2, F2), 2, 2, offset_radius=1)


def cross_space(source, target, value):
    """A table seed from one group into another, on B(5) of the source."""
    table = {g: value(g) for g in source.standard_generators().ball(5)}
    return build_translate_space(TableSeed(table, source, target), 3, 2, offset_radius=1)


def power_of_a(n):
    F1 = FreeGroup(1)
    return F1.word("a" * n if n >= 0 else "A" * -n)


def exponent_sum(word):
    return LatticeGroup(1).element((sum(word.letters),))


def matrix_space(text, radius, translate_radius, offset_radius):
    f = realize_bilipschitz(linalg.parse_matrix(text), Fraction("1e-9"))
    return build_translate_space(FloorMapSeed(f), radius, translate_radius, offset_radius)


SPACES = {
    # (space, window W)
    "shear_space": (lambda: build_translate_space(
        FloorMapSeed(realize_bilipschitz([["1", "0.5"], ["0", "1"]])), 6, 6, offset_radius=2), 2),
    "cli_shear_space": (lambda: matrix_space("1 0.5; 0 1", 4, 3, 1), 1),
    "identity_z1": (lambda: build_translate_space(IdentitySeed(LatticeGroup(1)), 3, 3, offset_radius=1), 2),
    "identity_z2": (lambda: build_translate_space(IdentitySeed(LatticeGroup(2)), 3, 3, offset_radius=2), 2),
    "identity_z3": (lambda: build_translate_space(IdentitySeed(LatticeGroup(3)), 3, 2, offset_radius=2), 2),
    "acceptance_3x3": (lambda: matrix_space(ACCEPTANCE_3X3, 3, 2, 1), 1),
    "huge_coefficient": (lambda: matrix_space(HUGE, 2, 1, 1), 1),
    "nielsen_f2": (nielsen_space, 1),
    # a lattice source with free-group values, and the other way round
    "cross_z1_f1": (lambda: cross_space(LatticeGroup(1), FreeGroup(1), lambda g: power_of_a(g.coords[0])), 2),
    "cross_f1_z1": (lambda: cross_space(FreeGroup(1), LatticeGroup(1), exponent_sum), 2),
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def spaces(request):
    build, window = SPACES[request.param]
    space = build()
    return space, RefSpace(space), window


def test_members_and_slice_in_key_order(spaces):
    space, ref, _ = spaces
    members, slice_members = ref.build()
    assert [outcome(lambda m=m: m) for m in space.members] == [outcome(lambda m=m: m) for m in members]
    assert [m.provenance for m in space.slice_members] == [m.provenance for m in slice_members]
    for germ in space.members:
        assert len(germ.table) == len(space.source_gens.ball(space.radius))


def test_translate_table_is_the_dict_translate(spaces):
    space, ref, _ = spaces
    for g0 in space.source_gens.ball(space.translate_radius):
        for delta in space.target_gens.ball(1):
            table = space.translate_table(g0, delta, space.radius)
            expected = ref.translate_table(g0, delta, space.radius)
            values = germ_values(MapGerm(space.source_gens, space.radius, space.target_gens.group, table))
            assert list(values.items()) == list(expected.items())
            assert values == expected and len(table) == len(expected)


def test_actions_agree_over_the_window(spaces):
    space, ref, window = spaces
    ref_slice = ref.build()[1]
    target_ball = space.target_gens.ball(window)
    ball = space.source_gens.ball(window)
    acted = []
    for germ in space.members:
        dict_germ = as_ref(germ)
        for g in ball:
            by_space = outcome(lambda: space.act_source(g, germ))
            assert by_space == outcome(lambda: ref.act_source(g, dict_germ))
            if isinstance(by_space[0], int):
                moved = space.act_source(g, germ)
                acted.append(moved)
                assert moved.matches(germ) == as_ref(moved).matches(dict_germ)
                assert germ.matches(moved) == dict_germ.matches(as_ref(moved))
                match = space.find_slice_match(moved)
                index = None if match is None else space.slice_members.index(match)
                assert index == ref.find_slice_match(as_ref(moved), ref_slice)
            lam = outcome(lambda: germ.value(g).inverse())
            assert lam == outcome(lambda: dict_germ.value(g).inverse())
            if not isinstance(lam, tuple):
                assert outcome(lambda: space.act_target(lam, germ)) == outcome(
                    lambda: ref.act_target(lam, dict_germ)
                )
        for lam in target_ball:
            assert outcome(lambda: space.act_target(lam, germ)) == outcome(
                lambda: ref.act_target(lam, dict_germ)
            )
            assert outcome(lambda: space.partial_inverse(germ, lam)) == outcome(
                lambda: ref.partial_inverse(dict_germ, lam)
            )
    # key equality and key order over every acted germ
    keys = [m.key() for m in acted]
    ref_keys = [as_ref(m).key() for m in acted]
    order = sorted(range(len(acted)), key=keys.__getitem__)
    assert order == sorted(range(len(acted)), key=ref_keys.__getitem__)
    for i in range(0, len(acted), 7):
        for j in range(len(acted)):
            assert (keys[i] == keys[j]) == (ref_keys[i] == ref_keys[j])
            assert (acted[i] == acted[j]) == (ref_keys[i] == ref_keys[j])


def test_non_injective_germ_inverts_to_its_first_preimage(spaces):
    # a corrupted member that sends two points to one value: the partial
    # inverse is the first of them in ball order
    space, ref, _ = spaces
    germ = space.members[-1]
    table = germ_values(germ)
    points = list(table)
    first, later = points[1], points[-1]
    table[later] = table[first]
    bad = MapGerm.from_dict(germ.gens, germ.radius, table, germ.provenance)
    assert space.partial_inverse(bad, table[first]) == ref.partial_inverse(as_ref(bad), table[first]) == first
    assert germ_values(bad) == table
    assert bad != germ and not bad.matches(germ)
