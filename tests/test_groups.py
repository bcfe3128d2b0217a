import functools
import itertools
import json
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitlab import groups
from orbitlab.groups import (
    BALL_BUDGET,
    PAIR_BUDGET,
    BudgetExceeded,
    FreeGroup,
    GeneratingSet,
    LatticeGroup,
    PairSweep,
    is_bilipschitz_on_ball,
    lattice_ball_size,
    sweep_pairs,
)

Z1 = LatticeGroup(1)
Z2 = LatticeGroup(2)
F2 = FreeGroup(2)


def oracle_generators(group):
    """The standard generators, built apart from ``GeneratingSet``: +-e_i on
    Z^d, each letter and its inverse on F_k."""
    if isinstance(group, LatticeGroup):
        return [group.basis_vector(i, s) for i in range(group.dimension) for s in (1, -1)]
    letters = "abcdefghijklmnopqrstuvwxyz"[: group.rank]
    return [group.word(c) for c in letters + letters.upper()]


def bfs_ball_oracle(group, radius):
    """Independent layer-by-layer Cayley ball, kept separate from the library
    BFS: each element of B(radius) with the first layer that reaches it, its
    word length."""
    generators = oracle_generators(group)
    layer = {group.identity(): 0}
    frontier = [group.identity()]
    for k in range(1, radius + 1):
        reached = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in layer:
                    layer[h] = k
                    reached.append(h)
        frontier = reached
    return layer


def oracle_ball(group, radius):
    """B(radius) of the oracle, in ``sort_key`` order."""
    return tuple(sorted(bfs_ball_oracle(group, radius), key=lambda g: g.sort_key()))


def check_against_the_oracle(group, radius):
    """The library's generators, every ball up to ``radius`` (contents and
    order) and each element's word length, the first oracle layer that
    reaches it; returns the oracle's layers."""
    S = group.standard_generators()
    assert S.elements == tuple(sorted(oracle_generators(group), key=lambda g: g.sort_key()))
    for r in range(radius + 1):
        assert S.ball(r) == oracle_ball(group, r)
    layer = bfs_ball_oracle(group, radius)
    for g, k in layer.items():
        assert S.word_length(g) == k
    return layer


class TestElements:
    def test_lattice_multiply(self):
        assert (Z2.element((1, 2)) * Z2.element((3, -1))).coords == (4, 1)

    def test_word_multiply_cancels(self):
        assert F2.word("ab") * F2.word("Ba") == F2.word("aa")

    def test_identity_law(self):
        g = Z2.element((5, -3))
        assert g * Z2.identity() == g
        w = F2.word("abA")
        assert w * F2.identity() == w

    def test_lattice_inverse(self):
        assert Z2.element((2, -3)).inverse().coords == (-2, 3)

    def test_word_inverse(self):
        assert F2.word("ab").inverse() == F2.word("BA")
        assert F2.identity().inverse() == F2.identity()

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Z2.element((1, 0)) * LatticeGroup(3).element((1, 0, 0))
        with pytest.raises(ValueError):
            Z2.element((1, 0)) * F2.word("a")

    def test_json_roundtrip(self):
        assert F2.word("abA").to_json() == "abA"

    @given(st.lists(st.sampled_from("aAbB"), max_size=12))
    def test_words_stay_reduced(self, symbols):
        word = F2.identity()
        for symbol in symbols:
            word = word * F2.word(symbol)
        for a, b in zip(word.letters, word.letters[1:]):
            assert a != -b


class TestGeneratingSet:
    def test_ball_z1(self):
        S = Z1.standard_generators()
        assert [g.coords[0] for g in S.ball(2)] == [-2, -1, 0, 1, 2]

    def test_ball_z2_radius1(self):
        assert len(Z2.standard_generators().ball(1)) == 5

    def test_ball_f2_radius2(self):
        S = F2.standard_generators()
        assert len(S.ball(2)) == 17
        assert S.ball(2) == oracle_ball(F2, 2)

    def test_word_length_lattice(self):
        S = Z2.standard_generators()
        assert S.word_length(Z2.element((2, -1))) == 3
        assert S.word_length(Z2.identity()) == 0

    def test_word_length_free(self):
        S = F2.standard_generators()
        assert S.word_length(F2.word("abA")) == 3
        assert S.word_length(F2.identity()) == 0

    def test_bfs_equals_l1_on_ball6(self):
        layer = check_against_the_oracle(Z2, 6)
        assert all(g.l1_norm() == k for g, k in layer.items())

    def test_bfs_equals_reduced_length(self):
        layer = check_against_the_oracle(F2, 4)
        assert all(len(w.letters) == k for w, k in layer.items())

    # Z^1-Z^4 and F_1-F_3 with the two above, each to a radius its oracle
    # enumerates quickly
    @pytest.mark.parametrize("group, radius", [
        (Z1, 8), (LatticeGroup(3), 4), (LatticeGroup(4), 3), (FreeGroup(1), 8), (FreeGroup(3), 3),
    ], ids=["Z1", "Z3", "Z4", "F1", "F3"])
    def test_other_ranks_match_the_oracle(self, group, radius):
        check_against_the_oracle(group, radius)

    def test_only_a_group_has_generators(self):
        assert GeneratingSet(Z2).elements == Z2.standard_generators().elements
        with pytest.raises(TypeError, match="no standard generators"):
            GeneratingSet([Z1.element((1,)), Z1.element((-1,))])

    def test_budget_exceeded(self):
        S = Z1.standard_generators()
        with pytest.raises(BudgetExceeded):
            S.ball(BALL_BUDGET + 1)

    @pytest.mark.parametrize("make", [
        Z2.standard_generators,
        F2.standard_generators,
    ], ids=["Z2", "F2"])
    def test_kept_balls_equal_fresh_ones_in_any_order(self, make):
        S = make()
        radii = list(range(6, -1, -1)) + list(range(7))
        asked = [S.ball(r) for r in radii]
        assert asked == [make().ball(r) for r in radii]

    def test_word_metric(self):
        S = Z2.standard_generators()
        assert S.word_metric(Z2.identity(), Z2.element((2, -1))) == 3
        g = Z2.element((1, 1))
        assert S.word_metric(g, g) == 0

    def test_left_invariance(self):
        S = Z2.standard_generators()
        ball = S.ball(4)
        for k in (Z2.element((3, -2)), Z2.element((-1, 4))):
            for g, h in itertools.islice(itertools.combinations(ball, 2), 200):
                assert S.word_metric(k * g, k * h) == S.word_metric(g, h)


# One standard set per rank, so the BFS memo is shared across examples.
STANDARD = {d: LatticeGroup(d).standard_generators() for d in (1, 2, 3)}


@functools.cache
def oracle_lengths(d):
    # every g^-1 h of two points of [-3, 3]^d lies in B(6 d)
    return bfs_ball_oracle(LatticeGroup(d), 6 * d)


class TestClosedFormWordMetric:
    """``word_metric`` on a lattice reads the L1 distance off the
    coordinates; the product route and the oracle must agree with it."""

    @settings(deadline=None)
    @given(st.data())
    def test_agrees_with_the_product_and_bfs_routes(self, data):
        d = data.draw(st.sampled_from(sorted(STANDARD)))
        S = STANDARD[d]
        coords = st.tuples(*[st.integers(-3, 3)] * d)
        g = S.group.element(data.draw(coords))
        h = S.group.element(data.draw(coords))
        distance = S.word_metric(g, h)
        assert distance == S.word_length(g.inverse() * h) == oracle_lengths(d)[g.inverse() * h]

    def test_elements_of_another_group_are_rejected(self):
        S = Z2.standard_generators()
        Z3 = LatticeGroup(3)
        for g, h in (
            (Z3.element((1, 0, 0)), Z3.identity()),
            (Z2.identity(), Z3.element((1, 0, 0))),
            (F2.word("a"), Z2.identity()),
            (Z2.identity(), F2.word("a")),
        ):
            with pytest.raises(ValueError, match="different group"):
                S.word_metric(g, h)

    def test_an_equal_group_object_is_the_same_group(self):
        S = Z2.standard_generators()
        assert S.word_metric(LatticeGroup(2).element((3, -1)), Z2.element((0, 1))) == 5
        assert LatticeGroup(2).element((3, -1)) == Z2.element((3, -1))

    def test_equality_across_dimensions_is_false(self):
        assert Z1.element((0,)) != Z2.element((0, 0))
        assert Z2.identity() != LatticeGroup(3).identity()
        assert Z1.element((1,)) != F2.word("a")


class TestBallIndex:
    """Ball positions: where an element sits in ball order."""

    @pytest.mark.parametrize("d, radius", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_positions_follow_ball_order(self, d, radius):
        # every point of the box around B(radius) is found at its place in
        # ball(radius), or at -1 outside it
        group = LatticeGroup(d)
        S = group.standard_generators()
        ball = S.ball(radius)
        box = list(itertools.product(range(-radius - 1, radius + 2), repeat=d))
        expected = [ball.index(group.element(v)) if sum(map(abs, v)) <= radius else -1 for v in box]
        assert [S.position(radius, group.element(v)) for v in box] == expected

    def test_shifted_is_the_translated_ball(self):
        S = Z2.standard_generators()
        ball = S.ball(5)
        for g in S.ball(2):
            expected = [ball.index(g.inverse() * h) for h in S.ball(3)]
            assert S.shifted(5, 3, g).tolist() == expected

    def test_position_of_a_foreign_or_far_element_is_minus_one(self):
        S = Z2.standard_generators()
        assert S.position(3, LatticeGroup(3).identity()) == -1
        assert S.position(3, F2.word("a")) == -1
        assert S.position(3, Z2.element((10**30, 0))) == -1
        assert S.position(3, (0, 0)) == -1
        assert F2.standard_generators().position(3, Z2.identity()) == -1

    @pytest.mark.parametrize("name", ["z3", "rank11"])
    def test_ball_coords_are_the_ball_in_order(self, name):
        S = {
            "z3": LatticeGroup(3).standard_generators(),
            "rank11": LatticeGroup(11).standard_generators(),
        }[name]
        radius = 2
        coords = S.ball_coords(radius)
        # the rung of the largest coordinate
        assert coords.dtype == np.int32 and not coords.flags.writeable
        assert coords.tolist() == [list(g.coords) for g in S.ball(radius)]
        assert S.ball_coords(radius) is coords
        # g^-1 B(0) is g^-1, found by coordinates
        ball = S.ball(radius)
        for g in ball:
            if S.word_length(g) == radius:
                assert [ball[i] for i in S.shifted(radius, 0, g)] == [g.inverse()]

    @pytest.mark.parametrize("name", ["rank11", "free"])
    def test_every_generating_set_has_positions(self, name):
        # lattices of any rank and free groups (where g^-1 h is not h^-1 g)
        # place their elements alike
        S = {
            "rank11": LatticeGroup(11).standard_generators(),
            "free": F2.standard_generators(),
        }[name]
        ball, big = S.ball(2), S.ball(3)
        where = {h: i for i, h in enumerate(big)}
        assert [S.position(2, g) for g in ball] == list(range(len(ball)))
        for g in S.ball(1):
            assert S.shifted(3, 2, g).tolist() == [where[g.inverse() * h] for h in ball]


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shifted_points_are_the_ball_positions(self, d):
        # on standard lattice generators each shifted point is at the
        # position of g^-1 h in B(radius); every radius <= 6, every r and
        # every g with r + |g| <= radius
        S = LatticeGroup(d).standard_generators()
        for radius in range(7):
            for r in range(radius + 1):
                for g in S.ball(radius - r):
                    positions = [S.position(radius, g.inverse() * h) for h in S.ball(r)]
                    assert S.shifted(radius, r, g).tolist() == positions

    @pytest.mark.parametrize("name", ["z1", "z3", "free"])
    def test_shifted_refuses_a_translate_past_the_ball(self, name):
        # a point outside the ball has no position, so r + |g| > radius is
        # refused with ValueError before any point is placed
        S = {
            "z1": Z1.standard_generators(),
            "z3": LatticeGroup(3).standard_generators(),
            "free": F2.standard_generators(),
        }[name]
        for radius in range(4):
            for r in range(radius + 1):
                for g in S.ball(radius - r + 1):
                    if S.word_length(g) == radius - r + 1:
                        with pytest.raises(ValueError, match="is not inside"):
                            S.shifted(radius, r, g)


class TestLatticeBallSize:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_counts_the_enumerated_ball(self, d):
        S = LatticeGroup(d).standard_generators()
        for radius in range(5 if d < 4 else 4):
            assert lattice_ball_size(d, radius) == len(S.ball(radius))

    def test_pair_budget_edges(self):
        # every Z^1 and Z^2 ball up to the ball budget fits; Z^3 stops at 13
        def pairs(d, radius):
            n = lattice_ball_size(d, radius)
            return n * (n - 1) // 2

        assert pairs(2, BALL_BUDGET) == 2_231_328 <= PAIR_BUDGET
        assert pairs(3, 12) <= PAIR_BUDGET < pairs(3, 13) == 5_453_253


class TestConcurrency:
    def test_memoized_bfs_is_thread_safe(self):
        import concurrent.futures

        S = Z2.standard_generators()
        jobs = [6, 5, 4, 6, 3, 6, 5, 6] * 4
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            sizes = list(pool.map(lambda r: len(S.ball(r)), jobs))
        expected = {3: 25, 4: 41, 5: 61, 6: 85}
        assert sizes == [expected[r] for r in jobs]

    def test_concurrent_balls_match_serial(self):
        # a short switch interval lets threads interleave inside one BFS
        # layer; every ball, kept or fresh, must still be the serial one
        import concurrent.futures
        import sys

        jobs = [5, 3, 6, 4, 6, 2, 5, 6] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for make in (F2.standard_generators, Z2.standard_generators) * 3:
                S = make()
                with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(S.ball, r) for r in jobs]
                    balls = [f.result(timeout=60) for f in futures]
                serial = make()
                assert balls == [serial.ball(r) for r in jobs]
        finally:
            sys.setswitchinterval(interval)


class TestMetricLaws:
    @pytest.mark.parametrize("S", [Z2.standard_generators(), F2.standard_generators()],
                             ids=["Z2", "F2"])
    def test_triangle_inequality_ball3(self, S):
        ball = S.ball(3)
        for g, h in itertools.product(ball, repeat=2):
            assert S.word_length(g * h) <= S.word_length(g) + S.word_length(h)

    @pytest.mark.parametrize("S", [Z2.standard_generators(), F2.standard_generators()],
                             ids=["Z2", "F2"])
    def test_inverse_symmetry_ball5(self, S):
        for g in S.ball(5):
            assert S.word_length(g.inverse()) == S.word_length(g)

    def test_associativity_ball3(self):
        ball = Z2.standard_generators().ball(3)
        for a, b, c in itertools.islice(itertools.product(ball, repeat=3), 3000):
            assert (a * b) * c == a * (b * c)
        wball = F2.standard_generators().ball(2)
        for a, b, c in itertools.product(wball, repeat=3):
            assert (a * b) * c == a * (b * c)


class TestBiLipschitzCheck:
    def test_identity_map(self):
        S = Z2.standard_generators()
        report = is_bilipschitz_on_ball(lambda g: g, 3, 1, S, S)
        assert report.passed
        assert report.coverage["lower"] == 1 and report.coverage["upper"] == 1

    def test_floor_shear_map_passes(self):
        S = Z2.standard_generators()
        f = lambda g: Z2.element((g.coords[0], g.coords[1] + g.coords[0] // 2))
        report = is_bilipschitz_on_ball(f, 6, 4, S, S)
        assert report.passed
        assert 0 < report.coverage["lower"] <= report.coverage["upper"] < 4

    def test_constant_map_fails(self):
        S = Z2.standard_generators()
        report = is_bilipschitz_on_ball(lambda g: Z2.identity(), 1, 5, S, S)
        assert not report.passed
        assert report.witnesses
        assert report.coverage["lower"] == 0

    def test_undefined_map_raises(self):
        S = Z2.standard_generators()
        table = {Z2.identity(): Z2.identity()}
        with pytest.raises(ValueError, match="undefined"):
            is_bilipschitz_on_ball(table.__getitem__, 1, 2, S, S)


def reference_bilipschitz(f, radius, constant, source, target):
    """Per-pair Fraction comparisons and float ratios: the form the integer
    cross-multiplication in ``is_bilipschitz_on_ball`` must agree with."""
    c = Fraction(constant)
    ratios, witness = [], None
    for a, b in itertools.combinations(source.ball(radius), 2):
        d_src = source.word_metric(a, b)
        d_tgt = target.word_metric(f(a), f(b))
        ratios.append(d_tgt / d_src)
        if witness is None and not (d_src <= c * d_tgt and d_tgt <= c * d_src):
            witness = (a, b)
    return witness, min(ratios), max(ratios)


class TestBiLipschitzExactBoundary:
    # on B(1) of Z: -1 -> 1, 0 -> 0, 1 -> 2 has ratios 1, 1/2 and 2
    FOLD = {-1: 1, 0: 0, 1: 2}

    def fold(self, g):
        return Z1.element((self.FOLD[g.coords[0]],))

    def test_ratio_equal_to_fraction_constant_passes(self):
        S = Z1.standard_generators()
        report = is_bilipschitz_on_ball(self.fold, 1, Fraction(2), S, S)
        assert report.passed
        assert report.coverage["lower"] == 0.5 and report.coverage["upper"] == 2

    def test_constant_just_below_the_lower_ratio_fails_at_that_pair(self):
        # 2 - 10^-30 rounds to 2.0 as a float; only exact arithmetic sees it
        S = Z1.standard_generators()
        report = is_bilipschitz_on_ball(self.fold, 1, 2 - Fraction(1, 10**30), S, S)
        assert not report.passed
        assert report.witnesses == [(Z1.element((-1,)), Z1.element((1,)))]

    def test_constant_just_below_the_upper_ratio_fails_at_that_pair(self):
        S = Z1.standard_generators()
        double = lambda g: Z1.element((2 * g.coords[0],))
        assert is_bilipschitz_on_ball(double, 1, Fraction(2), S, S).passed
        report = is_bilipschitz_on_ball(double, 1, 2 - Fraction(1, 10**30), S, S)
        assert report.witnesses == [(Z1.element((-1,)), Z1.element((0,)))]

    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=13, max_size=13),
        st.one_of(
            st.fractions(min_value=Fraction(1, 4), max_value=4),
            st.floats(min_value=0.25, max_value=4),
        ),
    )
    def test_agrees_with_per_pair_fractions(self, images, constant):
        S = Z2.standard_generators()
        table = dict(zip(S.ball(2), (Z2.element(v) for v in images)))
        report = is_bilipschitz_on_ball(table.__getitem__, 2, constant, S, S)
        witness, lower, upper = reference_bilipschitz(table.__getitem__, 2, constant, S, S)
        assert report.witnesses == ([] if witness is None else [witness])
        assert (report.coverage["lower"], report.coverage["upper"]) == (lower, upper)


def reference_sweep(source, target, radius, images, constant):
    """The per-pair sweep as a Fraction reference: each pair's ratio as a
    Fraction, kept when it is strictly below (above) the least (greatest)
    so far, and the first pair outside [1/C, C].  Also the min and max of the
    per-pair float ratios, the bytes a report's ``lower``/``upper`` must have."""
    c = None if constant is None else Fraction(constant)
    lower = upper = witness = None
    checked = 0
    floats = []
    for (a, fa), (b, fb) in itertools.combinations(zip(source.ball(radius), images), 2):
        d_src = source.word_metric(a, b)
        d_tgt = target.word_metric(fa, fb)
        ratio = Fraction(d_tgt, d_src)
        floats.append(d_tgt / d_src)
        if lower is None or ratio < Fraction(lower[0], lower[1]):
            lower = (d_tgt, d_src, a, b)
        if upper is None or ratio > Fraction(upper[0], upper[1]):
            upper = (d_tgt, d_src, a, b)
        checked += 1
        if witness is None and c is not None and not (d_src <= c * d_tgt and d_tgt <= c * d_src):
            witness = (a, b)
    return PairSweep(checked, lower, upper, witness), min(floats, default=None), max(floats, default=None)


# constants just off a small ratio, by less than any float can show
NEAR_RATIOS = st.builds(
    lambda q, k, sign: q + sign * Fraction(1, 10**k),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=12),
    st.integers(17, 40),
    st.sampled_from([-1, 1]),
)


class TestLatticePairSweep:
    """``sweep_pairs`` compares pairs as arrays, on lattices and free groups
    alike; it must give what the per-pair Fraction loop gives, in every
    field, for any block size."""

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_agrees_with_the_per_pair_reference(self, data):
        d = data.draw(st.integers(1, 3), label="source rank")
        radius = data.draw(st.integers(0, {1: 6, 2: 3, 3: 2}[d]), label="radius")
        S = LatticeGroup(d).standard_generators()
        T = LatticeGroup(data.draw(st.integers(1, 3), label="target rank")).standard_generators()
        n = len(S.ball(radius))
        # a large scale or offset puts the coordinates past the int64 bound
        scale = data.draw(st.sampled_from([1, 1, 3, 10**20]), label="scale")
        offset = data.draw(st.sampled_from([0, 0, 2**61, -(10**20)]), label="offset")
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(-4, 4)] * T.group.dimension), min_size=n, max_size=n
            ),
            label="images",
        )
        images = [T.group.element(scale * c + offset for c in row) for row in rows]
        constant = data.draw(
            st.one_of(
                st.none(),
                st.fractions(min_value=Fraction(1, 4), max_value=4),
                st.floats(min_value=0.25, max_value=4),
                NEAR_RATIOS,
            ),
            label="constant",
        )
        # blocks of a few pairs end inside rows of the upper triangle
        block = data.draw(st.sampled_from([1, 2, 5, 7, 13, 4096]), label="block")
        expected, lower, upper = reference_sweep(S, T, radius, images, constant)
        with patch.object(groups, "SWEEP_BLOCK", block):
            assert sweep_pairs(S, T, radius, images, constant) == expected
            if constant is not None:
                report = is_bilipschitz_on_ball(dict(zip(S.ball(radius), images)).__getitem__,
                                                radius, constant, S, T)
        if constant is not None:
            assert report.checked == expected.checked
            assert report.passed == (expected.witness is None)
            assert report.witnesses == ([] if expected.witness is None else [expected.witness])
            assert json.dumps(report.coverage) == json.dumps(
                {"R": radius, "constant": float(constant), "lower": lower, "upper": upper}
            )

    def test_past_int64_the_sweep_is_exact(self):
        # images 10^20 apart: d_tgt * block leaves int64, so the arrays hold
        # Python integers; a constant one part in 10^30 too small fails
        S = Z1.standard_generators()
        images = [Z1.element((10**20 * g.coords[0],)) for g in S.ball(2)]
        exact = Fraction(10**20)
        sweep = sweep_pairs(S, Z1.standard_generators(), 2, images, exact)
        assert sweep.witness is None and sweep.lower[:2] == sweep.upper[:2] == (10**20, 1)
        tight = sweep_pairs(S, Z1.standard_generators(), 2, images, exact - Fraction(1, 10**30))
        assert tight.witness == (Z1.element((-2,)), Z1.element((-1,)))

    def test_free_groups_take_the_same_blocked_sweep(self):
        # a free group as source, target or both: the one blocked sweep, with
        # reduced lengths of a^-1 b in place of L1 distances, for any block size
        F = F2.standard_generators()
        Z = Z2.standard_generators()
        nielsen = {1: "a", -1: "A", 2: "ab", -2: "BA"}
        for source, target, images, constant in (
            (F, F, list(F.ball(2)), 4),
            (F, F, [F2.word("".join(nielsen[x] for x in w.letters)) for w in F.ball(2)], 2),
            (F, Z, [Z2.element((len(w.letters), 0)) for w in F.ball(2)], 4),
            (Z, F, [F2.word("a" * abs(sum(g.coords))) for g in Z.ball(2)], 4),
        ):
            expected = reference_sweep(source, target, 2, images, constant)[0]
            for block in (1, 5, 13, 4096):
                with patch.object(groups, "SWEEP_BLOCK", block):
                    assert sweep_pairs(source, target, 2, images, constant) == expected
                    assert sweep_pairs(source, target, 2, images) == expected._replace(witness=None)

    def test_an_image_outside_the_target_group_is_refused(self):
        F = F2.standard_generators()
        Z = Z2.standard_generators()
        with pytest.raises(ValueError, match="different group"):
            sweep_pairs(Z, F, 1, list(Z.ball(1)))
        with pytest.raises(ValueError, match="different group"):
            sweep_pairs(F, Z, 1, list(F.ball(1)))

    def test_a_disagreement_with_word_metric_raises(self, monkeypatch):
        # every pair the result names is measured again by the group's own
        # metric: a metric the arrays do not follow is caught
        S = Z2.standard_generators()
        images = list(S.ball(2))
        plain = GeneratingSet.word_metric
        monkeypatch.setattr(GeneratingSet, "word_metric", lambda self, g, h: plain(self, g, h) + 1)
        with pytest.raises(RuntimeError, match="disagrees with word_metric"):
            sweep_pairs(S, S, 2, images)
