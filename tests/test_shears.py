import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitlab import linalg, shears
from orbitlab.groups import LatticeGroup, is_bilipschitz_on_ball
from orbitlab.mapspace import FloorMapSeed, build_translate_space
from orbitlab.morphisms import orbit_morphism
from orbitlab.shears import (
    DISTANCE_PROBES,
    FloorMap,
    Shear,
    SignFlip,
    bounded_distance_constant,
    box_points,
    check_box_budget,
    decompose_unimodular,
    product_matrix,
    realize_bilipschitz,
)


def elementary_matrix(op, d):
    """The d x d linear part of one op: the identity with the shear's
    coefficient at (i, j), or with -1 at (i, i) for a sign flip."""
    rows = [list(row) for row in linalg.identity(d)]
    if isinstance(op, Shear):
        rows[op.i][op.j] = op.coeff
    else:
        rows[op.i][op.i] = Fraction(-1)
    return tuple(tuple(row) for row in rows)


def random_unimodular(rng, d, max_shears=10, quarter_grid=True):
    """A product of <= max_shears floor-able shears and occasional sign flips."""
    m = linalg.identity(d)
    for _ in range(rng.randint(1, max_shears)):
        i, j = rng.sample(range(d), 2)
        num = rng.choice([k for k in range(-8, 9) if k != 0])
        lam = Fraction(num, 4) if quarter_grid else Fraction(num, rng.choice([1, 2, 3, 4, 5]))
        m = linalg.mat_mul(m, elementary_matrix(Shear(i, j, lam), d))
        if rng.random() < 0.2:
            m = linalg.mat_mul(m, elementary_matrix(SignFlip(rng.randrange(d)), d))
    return m


class TestFloorShear:
    # Each op on its own, as a one-op map.
    def test_integer_coefficient_exact(self):
        assert FloorMap([Shear(1, 0, 1)], 2)((3, 4)) == (3, 7)

    def test_half_coefficient_floors(self):
        assert FloorMap([Shear(1, 0, Fraction(1, 2))], 2)((3, 4)) == (3, 5)

    def test_negative_coefficient_floors_toward_minus_infinity(self):
        assert FloorMap([Shear(1, 0, Fraction(-1, 2))], 2)((-3, 0)) == (-3, 1)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            Shear(1, 1, Fraction(1, 2))

    def test_unapply_undoes(self):
        sh = FloorMap([Shear(0, 1, Fraction(-7, 3))], 2)
        for v in [(-5, 9), (0, 0), (13, -4)]:
            assert sh.inverse(sh(v)) == v

    def test_json_is_one_based(self):
        assert Shear(0, 1, Fraction(1, 2)).to_json() == {"shear": [1, 2, "0.5"]}
        assert SignFlip(0).to_json() == {"sign_flip": 1}
        # the coefficient text reads back exactly
        assert linalg.as_scalar(Shear(0, 1, Fraction(1, 2)).to_json()["shear"][2]) == Fraction(1, 2)


class TestDecompose:
    def test_identity_empty(self):
        assert decompose_unimodular(linalg.identity(3)) == []

    def test_single_shear_passthrough(self):
        ops = decompose_unimodular([["1", "0.5"], ["0", "1"]])
        assert ops == [Shear(0, 1, Fraction(1, 2))]

    def test_row_swap_alphabet_on_permutations(self):
        # swaps must come out as three shears plus a sign flip, exactly
        for perm in ([[0, 1], [1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]):
            mat = linalg.as_matrix(perm)
            ops = decompose_unimodular(mat)
            assert linalg.max_abs_diff(product_matrix(ops, len(mat)), mat) == 0
            assert all(isinstance(op, (Shear, SignFlip)) for op in ops)
            shears = sum(isinstance(op, Shear) for op in ops)
            flips = sum(isinstance(op, SignFlip) for op in ops)
            assert shears % 3 == 0 and flips >= 1

    def test_reconstruction_exact_on_random_products(self):
        rng = random.Random(404)
        for d in (2, 3):
            for _ in range(25):
                m = random_unimodular(rng, d, quarter_grid=False)
                ops = decompose_unimodular(m)
                assert linalg.max_abs_diff(product_matrix(ops, d), m) == 0

    def test_det_not_one_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            decompose_unimodular([[2, 0], [0, 1]])

    def test_refusal_names_any_exact_determinant(self):
        # past the float range, and a tolerance no float spells exactly
        with pytest.raises(ValueError, match=f"determinant {10**400} is not [+]-1 within 1/3$"):
            decompose_unimodular([["1e400", 0], [0, 1]], Fraction(1, 3))
        with pytest.raises(ValueError, match="determinant 0.5 is not [+]-1 within 0.000000001$"):
            decompose_unimodular([["0.5", 0], [0, 1]])

    def test_det_minus_one_handled(self):
        m = linalg.as_matrix([["0.5", "0"], ["0", "-2"]])
        ops = decompose_unimodular(m)
        assert linalg.max_abs_diff(product_matrix(ops, 2), m) == 0


def reference_product_matrix(ops, d):
    """The fold ``product_matrix`` replaced: one exact matrix product per op."""
    out = linalg.identity(d)
    for op in ops:
        out = linalg.mat_mul(out, elementary_matrix(op, d))
    return out


@st.composite
def op_lists(draw):
    """A dimension and a list of shears (any nonzero rational coefficient)
    and sign flips in it; in dimension 1 only flips."""
    d = draw(st.integers(1, 4))
    flip = st.builds(SignFlip, st.integers(0, d - 1))
    if d == 1:
        return d, draw(st.lists(flip, max_size=6))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool)
    pair = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)
    shear = st.builds(lambda ij, c: Shear(ij[0], ij[1], c), pair, coeff)
    return d, draw(st.lists(st.one_of(shear, flip), max_size=16))


class TestProductMatrix:
    @settings(deadline=None, max_examples=200)
    @given(op_lists())
    def test_column_operations_match_the_matrix_fold(self, drawn):
        d, ops = drawn
        product = product_matrix(ops, d)
        assert product == reference_product_matrix(ops, d)
        assert all(isinstance(x, Fraction) for row in product for x in row)


class TestFloorMap:
    def test_identity_map(self):
        f = realize_bilipschitz(linalg.identity(2))
        assert f((5, -7)) == (5, -7)
        cert = bounded_distance_constant(f, linalg.identity(2), 25)
        assert cert.constant == 0

    def test_integer_shear_exact(self):
        f = realize_bilipschitz([[1, 1], [0, 1]])
        cert = bounded_distance_constant(f, [[1, 1], [0, 1]], 25)
        assert cert.constant == 0

    def test_half_shear_bounded_by_one(self):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        cert = bounded_distance_constant(f, [["1", "0.5"], ["0", "1"]], 50)
        assert 0 < cert.constant <= 1
        # |floor(x/2) - x/2| < 1 at every probe radius
        assert all(v <= 1 for v in cert.by_radius.values())

    def test_distance_stable_across_radii(self):
        rng = random.Random(11)
        m = random_unimodular(rng, 2)
        f = realize_bilipschitz(m)
        cert = bounded_distance_constant(f, m, 50)
        values = [cert.by_radius[r] for r in (10, 25, 50)]
        assert values == sorted(values)           # nested boxes
        assert values[2] <= values[0] * 3 + 2     # no runaway growth

    def test_certificate_is_exact_and_serialises_to_floats(self):
        m = [["1", "0.3"], ["0.5", "1.15"]]
        cert = bounded_distance_constant(realize_bilipschitz(m), m, 25)
        assert isinstance(cert.constant, Fraction)
        assert all(isinstance(c, Fraction) for c in cert.by_radius.values())
        assert cert.constant == cert.by_radius[25]
        data = cert.to_json()
        assert data["constant"] == float(cert.constant)
        assert data["by_radius"] == {str(r): float(c) for r, c in sorted(cert.by_radius.items())}

    @pytest.mark.parametrize("d", [1, 3])
    def test_inverse_refuses_wrong_dimension(self, d):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        with pytest.raises(ValueError, match="vector has wrong dimension"):
            f.inverse(tuple(range(1, d + 1)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_apply_array_refuses_wrong_dimension(self, d):
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        with pytest.raises(ValueError, match="vector has wrong dimension"):
            f.apply_array(np.arange(2 * d, dtype=np.int64).reshape(2, d))

    def test_inverse_roundtrip_box20(self):
        rng = random.Random(12)
        for d in (2, 3):
            m = random_unimodular(rng, d)
            f = realize_bilipschitz(m)
            for v in box_points(4 if d == 3 else 20, d).tolist():
                v = tuple(int(c) for c in v)
                assert f.inverse(f(v)) == v
                assert f(f.inverse(v)) == v

    def test_apply_array_matches_scalar(self):
        rng = random.Random(13)
        m = random_unimodular(rng, 2)
        f = realize_bilipschitz(m)
        pts = box_points(6, 2)
        images = f.apply_array(pts)
        for row, img in zip(pts.tolist(), images.tolist()):
            assert f(tuple(row)) == tuple(int(c) for c in img)

    def test_apply_array_overflow_fallback_is_exact(self):
        # a coefficient too large for the int64 path must reroute to exact
        # Python integers and agree with scalar evaluation
        coeff = Fraction(2**61 + 9, 3)
        assert coeff.denominator == 3
        f = FloorMap([Shear(0, 1, coeff)], 2)
        pts = box_points(3, 2)
        images = f.apply_array(pts)
        assert images.dtype == object
        for row, img in zip(pts.tolist(), images.tolist()):
            assert f(tuple(row)) == tuple(int(c) for c in img)

    @pytest.mark.parametrize("peak, dtype", [(2**30 - 1, np.int32), (2**30, np.int64)], ids=["int32", "int64"])
    def test_apply_array_int32_boundary_is_exact(self, peak, dtype):
        # on the radius-1 box, v_0 += p v_1 grows the bound of v_0 from 1 to
        # 1 + p + 1, so p = peak - 2 puts the worst intermediate at ``peak``
        f = FloorMap([Shear(0, 1, Fraction(peak - 2))], 2)
        assert f._bound_chain([1, 1]) == (dtype, [peak, 1])
        pts = box_points(1, 2)
        images = f.apply_array(pts)
        assert images.dtype == dtype
        assert images.tolist() == reference_apply_array(f, pts).tolist()

    def test_distance_constant_huge_denominators(self):
        # float-origin coefficients have 2^52-scale denominators; the exact
        # slow path must still produce the certificate
        import math

        rot = [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
        f = realize_bilipschitz(rot)
        cert = bounded_distance_constant(f, rot, 25)
        assert cert.constant > 0
        assert cert.by_radius[10] <= cert.by_radius[25]

    def test_two_sided_metric_bound_ball8(self):
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        m = [["1", "0.5"], ["0", "1"]]
        f = realize_bilipschitz(m)
        wrapped = lambda g: Z2.element(f(g.coords))
        report = is_bilipschitz_on_ball(wrapped, 8, 4, S, S)
        assert report.passed
        assert report.coverage["lower"] > 0


def reference_apply_array(f, points):
    """Per-row exact evaluation: the form ``apply_array``'s object path replaced."""
    return np.array([f(tuple(row)) for row in points.tolist()], dtype=object)


def reference_box(radius, d):
    """The box [-radius, radius]^d in the order ``box_points`` must keep,
    built without it: last coordinate fastest."""
    return [list(v) for v in itertools.product(range(-radius, radius + 1), repeat=d)]


def reference_certificate(f, matrix, radius):
    """Per-row exact gaps: the loop ``bounded_distance_constant``'s object
    path replaced.  Returns the exact maximum per reported radius and the
    first point where the maximum over the whole box is attained."""
    a = linalg.as_matrix(matrix)
    points = reference_box(radius, len(a))
    images = reference_apply_array(f, np.array(points)).tolist()
    common_den = math.lcm(*(x.denominator for row in a for x in row))
    int_a = [[int(x * common_den) for x in row] for row in a]
    gaps = []
    for row, img in zip(points, images):
        scaled = [
            common_den * int(iv) - sum(e * int(c) for e, c in zip(arow, row))
            for iv, arow in zip(img, int_a)
        ]
        gaps.append(max(abs(s) for s in scaled))
    exact = {
        r: Fraction(max(g for g, row in zip(gaps, points) if max(map(abs, row)) <= r), common_den)
        for r in sorted({p for p in DISTANCE_PROBES if p <= radius} | {radius})
    }
    return exact, tuple(points[gaps.index(max(gaps))])


def swept_certificate(f, matrix, radius):
    """The certificate of ``f``, the dtypes of the blocks that its sweep
    passed to ``apply_array``, and the number of points in them."""
    swept = set()
    count = [0]
    honest = f.apply_array

    def spy(points):
        swept.add(points.dtype)
        count[0] += len(points)
        return honest(points)

    f.apply_array = spy
    try:
        return bounded_distance_constant(f, matrix, radius), swept, count[0]
    finally:
        del f.apply_array


def assert_certificate_matches_reference(f, matrix, radius, dtype=None, points=None):
    """The certificate equals the exact reference, witness included; with a
    ``dtype``, its sweep also ran on that dtype alone, and with ``points``,
    it swept exactly that many points."""
    exact, witness = reference_certificate(f, matrix, radius)
    cert, swept, count = swept_certificate(f, matrix, radius)
    assert cert.by_radius == exact
    assert cert.constant == exact[radius]
    assert cert.witness == witness
    if dtype is not None:
        assert swept == {np.dtype(dtype)}
    if points is not None:
        assert count == points


def assert_matches_reference(f, matrix, radius, dtype):
    points = box_points(radius, len(matrix))
    images = f.apply_array(points)
    assert images.dtype == dtype
    assert images.tolist() == reference_apply_array(f, points).tolist()
    assert_certificate_matches_reference(f, matrix, radius, dtype)


# The three sweep dtypes, narrowest first.
WIDTH = (np.int32, np.int64, object)
RUNGS = pytest.mark.parametrize("dtype", WIDTH, ids=["int32", "int64", "object"])
PROVEN = FloorMap._bound_chain


def force_rung(monkeypatch, dtype):
    """Run both sweeps no narrower than ``dtype``: the bound chain names the
    wider of ``dtype`` and the rung it proves, and keeps its image bounds.
    A sweep wider than the proven rung is always exact."""

    def widened(self, bounds):
        rung, images = PROVEN(self, bounds)
        return max(rung, dtype, key=WIDTH.index), images

    monkeypatch.setattr(FloorMap, "_bound_chain", widened)


def sweep_rung(f, radius, dtype):
    """The dtype of a box sweep of ``f`` forced to ``dtype``: the wider of
    ``dtype`` and the rung the bound chain proves for the box."""
    return max(PROVEN(f, [max(radius, 1)] * f.dimension)[0], dtype, key=WIDTH.index)


class TestVectorisedSweepMatchesPerRow:
    @RUNGS
    def test_random_unimodular(self, monkeypatch, dtype):
        force_rung(monkeypatch, dtype)
        rng = random.Random(17)
        for d, radius in ((2, 12), (3, 5)):
            for quarter_grid in (True, False):
                for _ in range(4):
                    m = random_unimodular(rng, d, quarter_grid=quarter_grid)
                    # every one of these maps fits int32 on its own bound
                    assert_matches_reference(realize_bilipschitz(m), m, radius, dtype)

    @RUNGS
    @pytest.mark.parametrize("d, radius", [(2, 0), (2, 7), (2, 30), (3, 3)])
    def test_radii_around_the_probes(self, monkeypatch, dtype, d, radius):
        # radius 0 and 7 lie below every probe, 30 between two, and 3 in 3D
        # below all of them; the nested maxima come from slices of the grid
        force_rung(monkeypatch, dtype)
        rng = random.Random(100 * d + radius)
        for _ in range(3):
            m = random_unimodular(rng, d, quarter_grid=False)
            f = realize_bilipschitz(m)
            assert_matches_reference(f, m, radius, sweep_rung(f, radius, dtype))

    @pytest.mark.parametrize(
        "matrix",
        [
            [["1", "0.1234567890123456789"], ["0", "1"]],
            [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]],
        ],
        ids=["wide-decimal", "float-rotation"],
    )
    def test_wide_coefficients_take_the_exact_path(self, matrix):
        assert_matches_reference(realize_bilipschitz(matrix), matrix, 12, object)

    @pytest.mark.parametrize(
        "coeff, radius",
        [("0.1234567890123456789", 0), ("0.12345678901234567890123", 0), ("1e-22", 5)],
    )
    def test_denominators_and_numerators_past_int64(self, coeff, radius):
        # a denominator or numerator past 2^63 must keep the sweep off int64
        # even where the coordinates are tiny (at radius 0 they are all 0)
        m = [["1", coeff], ["0", "1"]]
        cert = bounded_distance_constant(realize_bilipschitz(m), m, radius)
        exact, witness = reference_certificate(realize_bilipschitz(m), m, radius)
        assert cert.constant == exact[radius]
        assert cert.witness == witness

    @RUNGS
    @pytest.mark.parametrize("layout", ["c-ordered", "box-view", "int32", "strided"])
    def test_apply_array_input_layouts(self, monkeypatch, dtype, layout):
        force_rung(monkeypatch, dtype)
        f = realize_bilipschitz(random_unimodular(random.Random(18), 3, quarter_grid=False))
        box = box_points(4, 3)
        points = {
            "c-ordered": np.array(box.tolist()),
            "box-view": box,
            "int32": box.astype(np.int32),
            "strided": box[::3],
        }[layout]
        before = points.copy()
        images = f.apply_array(points)
        assert images.shape == points.shape
        assert images.dtype == dtype
        assert images.tolist() == reference_apply_array(f, points).tolist()
        assert points.dtype == before.dtype and np.array_equal(points, before)

    def test_box_over_budget_refused_before_any_point(self):
        check_box_budget(50, 3)  # 1,030,301 points: the default 3x3 box fits
        with pytest.raises(ValueError, match=r"box \[-50, 50\]\^4 has 104060401 points, over budget 1048576"):
            box_points(50, 4)


def block_sizes(radius, d):
    """Sweep block sizes that cut the box after 1 and 7 points and just under
    and just over one trailing slab (the points sharing a first coordinate)."""
    slab = (2 * radius + 1) ** (d - 1)
    return sorted({1, 7, max(slab - 1, 1), slab + 1})


def last_point_witness(d, radius):
    """A floor map and a matrix whose gap is largest only at (R, ..., R):
    f floors v_{d-1} / 2 into v_0, and the matrix adds eps * sum(v) to row 0,
    so for odd R the gap at v is |frac(v_{d-1} / 2) + eps * sum(v)|."""
    assert radius % 2 == 1
    f = FloorMap([Shear(0, d - 1, Fraction(1, 2))], d)
    eps = Fraction(1, 1000)
    matrix = [[x + eps for x in f.target[0]], *f.target[1:]]
    return f, matrix


class TestSweepBlocks:
    """The certificate does not depend on where the sweep's blocks end."""

    @RUNGS
    @pytest.mark.parametrize("d, radius", [(1, 0), (1, 9), (2, 0), (2, 6), (3, 0), (3, 3)])
    def test_random_maps(self, monkeypatch, dtype, d, radius):
        force_rung(monkeypatch, dtype)
        rng = random.Random(1000 * d + radius)
        if d == 1:
            matrices = [[["1"]], [["-1"]]]
        else:
            matrices = [random_unimodular(rng, d, quarter_grid=grid) for grid in (True, False)]
        for block in block_sizes(radius, d):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            for m in matrices:
                f = realize_bilipschitz(m)
                rung = sweep_rung(f, radius, dtype)
                assert f.apply_array(box_points(radius, d)).dtype == rung
                assert_certificate_matches_reference(f, m, radius, rung)

    @RUNGS
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_witness_is_the_first_point(self, monkeypatch, dtype, d):
        # every gap ties at 0, so the witness is the box's first point
        force_rung(monkeypatch, dtype)
        radius = 4
        identity = linalg.identity(d)
        for block in block_sizes(radius, d):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            cert, swept, _ = swept_certificate(realize_bilipschitz(identity), identity, radius)
            assert swept == {np.dtype(dtype)}
            assert cert.constant == 0 and set(cert.by_radius.values()) == {0}
            assert cert.witness == (-radius,) * d

    @RUNGS
    @pytest.mark.parametrize("d", [2, 3])
    def test_witness_in_the_last_block(self, monkeypatch, dtype, d):
        force_rung(monkeypatch, dtype)
        radius = 3
        f, matrix = last_point_witness(d, radius)
        for block in block_sizes(radius, d):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            assert_certificate_matches_reference(f, matrix, radius, dtype)
            assert bounded_distance_constant(f, matrix, radius).witness == (radius,) * d

    @pytest.mark.parametrize(
        "coeff, radius",
        [("0.1234567890123456789", 0), ("0.12345678901234567890123", 0), ("1e-22", 5)],
    )
    def test_denominators_and_numerators_past_int64(self, monkeypatch, coeff, radius):
        m = [["1", coeff], ["0", "1"]]
        for block in block_sizes(radius, 2):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            assert_certificate_matches_reference(realize_bilipschitz(m), m, radius)

    def test_gap_past_int32_with_images_inside(self, monkeypatch):
        # the half shear's images on the radius-3 box fit int32, but the
        # matrix's denominator 2^30 scales the gaps (up to 8 unscaled) past
        # 2^31: the sweep runs on int64 and still equals the exact reference
        f = FloorMap([Shear(0, 1, Fraction(1, 2))], 2)
        matrix = [[1, 3 + Fraction(1, 2**30)], [0, 1]]
        radius = 3
        assert f.apply_array(box_points(radius, 2)).dtype == np.int32
        for block in block_sizes(radius, 2):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            assert_certificate_matches_reference(f, matrix, radius, np.int64)

    def test_one_dimensional_box_across_default_blocks(self):
        # 80,001 points: the default block size cuts this box three times
        # where the matrix is not the map's product (-1.5 against the flip);
        # against -1 itself the gap has period 1 and one point is swept
        radius = 40000
        assert 2 * radius + 1 > 2 * shears._SWEEP_BLOCK
        for m in ([["-1"]], [["-1.5"]]):
            assert_certificate_matches_reference(realize_bilipschitz([["-1"]]), m, radius)

    def test_memory_stays_at_the_block_scale(self):
        # the matrix differs from the ops' product in every column, so the
        # whole 99^3 box is swept; as int64 rows it is 23 MB, and the sweep
        # holds one int32 maximum per point (3.9 MB) and a few blocks
        radius = 49
        f, m = last_point_witness(3, radius)
        tracemalloc.start()
        try:
            _, swept, count = swept_certificate(f, m, radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert swept == {np.dtype(np.int32)}
        assert count == (2 * radius + 1) ** 3
        assert peak < 8 * 2**20, peak


def exact_gap(f, a, v):
    """f(v) - A v, exactly, for a lattice point v."""
    return tuple(fv - sum(x * c for x, c in zip(row, v)) for fv, row in zip(f(v), a))


def shifted(v, k, n):
    return tuple(c + n * (i == k) for i, c in enumerate(v))


def chain():
    """v_1 += floor(v_0 / 2), then v_0 += floor(v_1 / 2): in product order
    the second shear comes first.  Its periods are (4, 2)."""
    return FloorMap([Shear(0, 1, Fraction(1, 2)), Shear(1, 0, Fraction(1, 2))], 2)


def wrapped_shear():
    return FloorMap([Shear(0, 1, Fraction(3, 28))], 2)


def realized(text, radius, tol=shears.DEFAULT_TOL):
    a = linalg.parse_matrix(text)
    return realize_bilipschitz(a, tol), a, radius


# (floor map, matrix, radius) and the sub-box the certificate sweeps: one
# side of min(N_k, 2R+1) per coordinate k where column k of the ops' product
# is column k of the matrix, and 2R+1 where it is not.
PERIOD_CASES = {
    # P_0 = 2R+1 = 3 (N_0 = 4), P_1 = 2 < 3
    "chain-R1": (lambda: (chain(), chain().target, 1), (3, 2)),
    # both periods below 2R+1 = 7
    "chain-R3": (lambda: (chain(), chain().target, 3), (4, 2)),
    "quarter-shear-R2": (lambda: realized("1 0.25; 0 1", 2), (1, 4)),
    # v_0 += floor(3 v_1 / 28): at R = 26 the residues of [-10, 10] mod 28
    # wrap, and the probe's maximum 27/28, at v_1 = 9 only, lies past the wrap
    "wrapped-probe": (lambda: (wrapped_shear(), wrapped_shear().target, 26), (1, 28)),
    # periods (2, 20): all of Z^2 is swept from R = 10 on
    "periods-2-20-R12": (lambda: realized("1 0.3; 0.5 1.15", 12), (2, 20)),
    "periods-2-20-R0": (lambda: realized("1 0.3; 0.5 1.15", 0), (1, 1)),
    # the matrix differs from the ops' product in every column
    "last-point-2d": (lambda: (*last_point_witness(2, 3), 3), (7, 7)),
    "last-point-3d": (lambda: (*last_point_witness(3, 3), 3), (7, 7, 7)),
    # a determinant within tol of 1: the product differs from the matrix in
    # column 1 only, so column 0 keeps its period 2
    "det-within-tol": (lambda: realized("1 0.3; 0.5 1.1500000001", 5, Fraction(1, 10**9)), (2, 11)),
    "d1-flip": (lambda: (realize_bilipschitz([["-1"]]), [["-1"]], 9), (1,)),
    "d1-not-the-product": (lambda: (realize_bilipschitz([["-1"]]), [["-1.5"]], 9), (19,)),
    "random-3d-R0": (lambda: realized("-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5", 0), (1, 1, 1)),
}


class TestPeriods:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_gap_repeats_after_one_period(self, data):
        d = data.draw(st.sampled_from([2, 3]))
        m = random_unimodular(random.Random(data.draw(st.integers(0, 2**32))), d)
        f = realize_bilipschitz(m)
        a = linalg.as_matrix(m)
        dens = math.prod(op.coeff.denominator for op in f.ops if isinstance(op, Shear))
        v = tuple(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d)))
        for k in range(d):
            n, column = f.period(k)
            assert dens % n == 0
            assert column == tuple(row[k] for row in a)
            assert f(shifted(v, k, n)) == tuple(x + n * c for x, c in zip(f(v), column))
            assert exact_gap(f, a, shifted(v, k, n)) == exact_gap(f, a, v)

    def test_coefficient_denominators_are_not_a_period(self):
        # every coefficient has denominator 2, but the second shear reads
        # v_1 after the first moved it by v_0 / 2: along e_0 the floor
        # argument moves by 1/4 per step, so the period is 4, not 2
        f = chain()
        assert [f.period(k)[0] for k in range(2)] == [4, 2]
        a = f.target
        assert a == ((Fraction(5, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
        witness = (0, 0)
        assert exact_gap(f, a, witness) == (0, 0)
        assert exact_gap(f, a, shifted(witness, 0, 2)) == (Fraction(-1, 2), 0)
        assert exact_gap(f, a, shifted(witness, 0, 4)) == (0, 0)

    @RUNGS
    @pytest.mark.parametrize("case", PERIOD_CASES, ids=list(PERIOD_CASES))
    def test_one_period_per_coordinate_is_the_whole_box(self, monkeypatch, dtype, case):
        build, shape = PERIOD_CASES[case]
        f, matrix, radius = build()
        force_rung(monkeypatch, dtype)
        total, slab = math.prod(shape), math.prod(shape[1:])
        for block in sorted({1, 7, max(slab - 1, 1), slab + 1, total}):
            monkeypatch.setattr(shears, "_SWEEP_BLOCK", block)
            rung = sweep_rung(f, radius, dtype)
            assert_certificate_matches_reference(f, matrix, radius, rung, points=total)


class TestBox:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box_points_order(self, d):
        for radius in range(4):
            points = box_points(radius, d)
            assert points.dtype == np.int64
            assert points.tolist() == reference_box(radius, d)

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda f: box_points(-1, 2),
            lambda f: bounded_distance_constant(f, linalg.identity(2), -1),
        ],
        ids=["box_points", "bounded_distance_constant"],
    )
    def test_negative_radius_refused(self, sweep):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            sweep(realize_bilipschitz(linalg.identity(2)))


class TestChainBound:
    def test_cocycle_chain_growth(self):
        # cocycle values along products of generators grow at most C per step
        Z2 = LatticeGroup(2)
        S = Z2.standard_generators()
        f = realize_bilipschitz([["1", "0.5"], ["0", "1"]])
        space = build_translate_space(FloorMapSeed(f), 6, 2, offset_radius=0)
        table = orbit_morphism(space)
        constant = 0
        for s in S.elements:
            for psi in space.slice_members:
                constant = max(constant, S.word_length(table.evaluate(s, psi)))
        rng = random.Random(15)
        for _ in range(50):
            n = rng.randint(1, 5)
            word = [rng.choice(S.elements) for _ in range(n)]
            g = Z2.identity()
            for s in word:
                g = g * s
            psi = rng.choice(space.slice_members)
            value = table.evaluate(g, psi)
            assert S.word_length(value) <= constant * n
