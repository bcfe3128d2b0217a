"""The exact integer kernels on the realize path agree with the
element-at-a-time references of ``kernel_reference``: the compiled
floor-map program, the translate space built in one gather, the
multiplicativity check on integer minors and the Bareiss determinant.
Each comparison runs under every forced rung of ``linalg.rung``.  The last
tests pin the cut: the build makes no ``translate_table`` call, the check
reads each minor once, and the scalar paths are gone from the package.
"""
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kernel_reference import build_members, fold, fraction_det, multiplicativity, unfold
from test_ladder import RUNGS, force, matrix_space, nielsen_space  # noqa: F401  (force is a fixture)

import orbitlab
from orbitlab import invariants, linalg
from orbitlab.groups import FreeGroup, LatticeGroup
from orbitlab.invariants import InducedAlgebraMap, multiplicativity_check
from orbitlab.mapspace import FloorMapSeed, IdentitySeed, TableSeed, TruncatedMapSpace, build_translate_space
from orbitlab.shears import FloorMap, Shear, SignFlip, box_points, realize_bilipschitz

ROOT = Path(__file__).resolve().parent.parent


def benchmark_matrices(seed: int) -> list:
    """The 20 matrices of one ``realize-recovery`` repetition."""
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.recovery_matrices(seed)


def table_space():
    """A table seed from Z^2 into Z^3, on B(R + R_t) = B(5)."""
    Z2, Z3 = LatticeGroup(2), LatticeGroup(3)
    table = {g: Z3.element((g.coords[0] + 2 * g.coords[1], -g.coords[1], 3 * g.coords[0]))
             for g in Z2.standard_generators().ball(5)}
    return build_translate_space(TableSeed(table, Z2, Z3), 3, 2, offset_radius=1)


def free_to_lattice_space():
    """The exponent sum of F_1 into Z^1 as a table seed."""
    F1, Z1 = FreeGroup(1), LatticeGroup(1)
    table = {w: Z1.element((sum(w.letters),)) for w in F1.standard_generators().ball(5)}
    return build_translate_space(TableSeed(table, F1, Z1), 3, 2, offset_radius=1)


def realize_space(matrix):
    return build_translate_space(FloorMapSeed(realize_bilipschitz(matrix)), 2, 2, offset_radius=0)


BUILD_SPACES = {
    "half-shear-4-3-1": lambda: matrix_space("1 0.5; 0 1", 4, 3, 1),
    "half-shear-8-8-3": lambda: matrix_space("1 0.5; 0 1", 8, 8, 3),
    "acceptance-3x3-3-2-1": lambda: matrix_space("-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5", 3, 2, 1),
    "identity-z1": lambda: build_translate_space(IdentitySeed(LatticeGroup(1)), 3, 3, offset_radius=1),
    "identity-z2": lambda: build_translate_space(IdentitySeed(LatticeGroup(2)), 3, 3, offset_radius=2),
    "identity-z3": lambda: build_translate_space(IdentitySeed(LatticeGroup(3)), 3, 2, offset_radius=2),
    "nielsen-f2": nielsen_space,
    "shear-10^20": lambda: matrix_space("1 100000000000000000000; 0 1", 2, 1, 1),
    "table-z2-z3": table_space,
    "table-f1-z1": free_to_lattice_space,
}


def members(space) -> list:
    return [(germ.provenance, germ.key()) for germ in space.members]


@RUNGS
@pytest.mark.parametrize("name", list(BUILD_SPACES))
def test_the_build_agrees_with_one_translate_table_per_pair(force, name, dtype):
    # table values, provenance and member order; the slice is the members
    # with offset e, in member order
    force(dtype)
    space = BUILD_SPACES[name]()
    expected = build_members(space)
    assert members(space) == expected
    assert [germ.provenance for germ in space.slice_members] == [
        provenance for provenance, _ in expected if provenance[1].is_identity()
    ]


@RUNGS
def test_the_realize_spaces_agree_with_one_translate_table_per_pair(force, dtype):
    force(dtype)
    for matrix in benchmark_matrices(3):
        space = realize_space(matrix)
        assert members(space) == build_members(space)


def test_object_rows_deduplicate_by_value():
    # on the 10^20 shear the rows are Python integers: equal tables of
    # different g0 are one base, so 5 members and not one per (g0, delta)
    space = BUILD_SPACES["shear-10^20"]()
    assert space.members[0].table.dtype == object
    assert len(space.members) == len(build_members(space)) == 5


# -- the compiled program


PROGRAMS = {
    "half-shear": ([Shear(0, 1, Fraction(1, 2))], 2),
    "negative-thirds-and-flips": (
        [SignFlip(1), Shear(1, 0, Fraction(-7, 3)), Shear(0, 1, Fraction(5, 3)), SignFlip(0)], 2
    ),
    "acceptance-3x3": (
        realize_bilipschitz(linalg.parse_matrix("-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5")).ops, 3
    ),
    "shear-10^20": ([Shear(0, 1, 10**20)], 2),
    "10^20-over-3": ([Shear(1, 0, Fraction(10**20, 3)), SignFlip(1), Shear(0, 1, Fraction(-1, 10**20))], 2),
    "seed-523-matrix-13": (
        realize_bilipschitz(linalg.parse_matrix("11/4 5/2 21/8; 39/16 -11/4 1/16; -11/4 2 -1/2")).ops, 3
    ),
}


@RUNGS
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_the_program_agrees_with_the_per_op_fold(force, name, dtype):
    # a point, its inverse and the array path, on a box and on far points
    force(dtype)
    ops, d = PROGRAMS[name]
    f = FloorMap(ops, d)
    points = np.concatenate([box_points(3, d), box_points(1, d) * 10**9])
    images = f.apply_array(points).tolist()
    for v, image in zip(points.tolist(), images):
        assert f(v) == fold(f, v) == tuple(image)
        assert f.inverse(v) == unfold(f, v)
        assert f.inverse(f(v)) == tuple(v)


OPS = st.one_of(
    st.builds(
        lambda i, j, p, q: Shear(i, (i + j) % 3, Fraction(p, q)),
        st.integers(0, 2),
        st.integers(1, 2),
        st.sampled_from([-(10**20), -7, -1, 1, 2, 5, 10**20]),
        st.sampled_from([1, 2, 3, 16, 10**20 + 1]),
    ),
    st.builds(SignFlip, st.integers(0, 2)),
)


@settings(deadline=None, max_examples=100)
@given(st.lists(OPS, max_size=8), st.lists(st.tuples(*[st.integers(-(10**6), 10**6)] * 3), min_size=1, max_size=5))
def test_drawn_programs_agree_with_the_per_op_fold(ops, points):
    f = FloorMap(ops, 3)
    images = f.apply_array(np.array(points, dtype=np.int64)).tolist()
    for v, image in zip(points, images):
        assert f(v) == fold(f, v) == tuple(image)
        assert f.inverse(f(v)) == v == unfold(f, fold(f, v))


# -- multiplicativity on integer minors, and the one determinant


def rational_matrices(seed: int, count: int) -> list:
    """Matrices of dimension 1 to 4 with small rational entries, some of
    them singular, some with a zero leading pivot."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        d = 1 + k % 4
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7, 12])) for _ in range(d)]
            for _ in range(d)
        ]
        if k % 5 == 0:
            rows[0][0] = Fraction(0)
        if k % 7 == 0 and d > 1:
            rows[-1] = list(rows[0])
        out.append(rows)
    return out


def outcomes(result):
    return result.passed, result.checked, result.witnesses, result.to_json()


CONTROLS = {
    # the acceptance control and the one-part-in-10^13 control
    "acceptance": ([[1, 2, 0], [0, 1, 0], [1, 0, 1]], (0, 1), (0, 1), 99),
    "ten-trillionth": ([[1, 1], [0, 1]], (0, 1), (0, 1), 1 + Fraction(1, 10**13)),
}


@RUNGS
def test_multiplicativity_agrees_with_the_exterior_algebra(force, dtype):
    force(dtype)
    for rows in rational_matrices(41, 40) + benchmark_matrices(3):
        induced = InducedAlgebraMap(rows)
        assert outcomes(multiplicativity_check(induced)) == outcomes(multiplicativity(induced))
        assert multiplicativity_check(induced).passed


@pytest.mark.parametrize("name", list(CONTROLS))
def test_the_corrupted_controls_fail_with_the_reference_witnesses(name):
    matrix, subset, target, value = CONTROLS[name]
    bad = InducedAlgebraMap(matrix).corrupted(subset, target, value)
    result = multiplicativity_check(bad)
    assert not result.passed
    assert outcomes(result) == outcomes(multiplicativity(bad))


def test_corruptions_on_rational_matrices_fail_as_the_reference_does():
    # the entry is read as given and scaled by L^|S|: a value off the true
    # minor, a zero, a target of another degree, and the true minor itself,
    # which must pass
    rng = random.Random(43)
    for rows in rational_matrices(42, 24):
        d = len(rows)
        induced = InducedAlgebraMap(rows)
        subsets = [s for size in range(1, d + 1) for s in itertools.combinations(range(d), size)]
        subset = rng.choice(subsets)
        target = rng.choice(list(itertools.combinations(range(d), len(subset))))
        minor = fraction_det([[rows[r][c] for c in subset] for r in target])
        for where, value in (
            (target, Fraction(rng.randint(-5, 5), 7)),
            (tuple(range(len(subset))), 0),
            (rng.choice(subsets), 1),
            (target, minor),
        ):
            bad = induced.corrupted(subset, where, value)
            assert outcomes(multiplicativity_check(bad)) == outcomes(multiplicativity(bad))
        assert multiplicativity_check(bad).passed


def test_bareiss_agrees_with_fraction_elimination():
    for rows in rational_matrices(44, 80):
        assert linalg.det(linalg.as_matrix(rows)) == fraction_det(rows)
    # integer rows, as the minors are read, and the empty matrix
    rng = random.Random(45)
    for d in range(6):
        rows = [[rng.randint(-10**12, 10**12) for _ in range(d)] for _ in range(d)]
        assert linalg.det(rows) == fraction_det(rows)
    assert linalg.det([]) == 1


# -- the cut


def test_the_build_makes_no_translate_table_call(monkeypatch):
    calls = []
    original = TruncatedMapSpace.translate_table

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(TruncatedMapSpace, "translate_table", counted)
    for build in (BUILD_SPACES["half-shear-8-8-3"], nielsen_space, table_space):
        build()
    realize_space(benchmark_matrices(3)[0])
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_multiplicativity_reads_each_minor_once(monkeypatch, d):
    # one determinant per (T, S) of equal size: sum_k C(d, k)^2 = C(2d, d)
    calls = []
    original = linalg.det
    monkeypatch.setattr(linalg, "det", lambda a: calls.append(len(a)) or original(a))
    rows = rational_matrices(46, 4)[d - 1]
    assert multiplicativity_check(InducedAlgebraMap(rows)).checked == 3**d
    assert len(calls) == math.comb(2 * d, d)


def test_the_scalar_paths_left_the_package():
    for name in ("ExteriorElement", "wedge"):
        assert not hasattr(invariants, name) and not hasattr(orbitlab, name)
    assert not hasattr(InducedAlgebraMap, "apply")
    for op in (Shear, SignFlip):
        assert not hasattr(op, "apply_int") and not hasattr(op, "unapply_int")
