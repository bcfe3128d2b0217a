import random

import pytest

from orbitlab import fullgroup
from orbitlab.fullgroup import (
    FullGroupElement,
    ad_realization_check,
    compose,
    conjugate_by_translation,
    spatial_realization_gap,
)
from orbitlab.odometer import Cylinder, OdometerSpace, odometer_add


def random_residue_element(rng, space):
    """A random piecewise translation permuting residue classes mod p^m.

    Depth-m cylinders are exactly residue classes mod p^m (digits are
    least-significant first), so x -> x + (sigma(r) - r + p^m t) on class r
    is bijective for any permutation sigma and integers t.
    """
    p = space.bases[0]
    m = rng.randint(1, min(3, space.depth))
    image = list(range(p**m))
    rng.shuffle(image)
    pieces = []
    for residue in range(p**m):
        shift = image[residue] - residue + (p**m) * rng.randint(-2, 2)
        pieces.append((Cylinder((space.digits_of(residue, 0, m),)), (shift,)))
    return FullGroupElement.make(space, pieces)


SPACE = OdometerSpace((2,), 5)
POINTS = list(SPACE.all_points())


class TestMake:
    def test_identity_single_piece(self):
        e = FullGroupElement.identity(SPACE)
        assert all(e.apply(x) == x for x in POINTS)

    def test_depth1_swap(self):
        sp = OdometerSpace((2,), 3)
        swap = FullGroupElement.make(
            sp, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (-1,))]
        )
        zero = sp.zero()
        assert swap.apply(zero).residues == (1,)
        assert swap.apply(sp.point_from_values((1,))).residues == (0,)

    def test_overlapping_domains_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FullGroupElement.make(
                SPACE, [(SPACE.whole_space(), (1,)), (SPACE.whole_space(), (2,))]
            )

    def test_non_bijective_rejected(self):
        # both depth-1 classes land on the odd class
        with pytest.raises(ValueError, match="bijective"):
            FullGroupElement.make(
                SPACE, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (0,))]
            )

    def test_incomplete_domain_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            FullGroupElement.make(SPACE, [(Cylinder(((0,),)), (0,))])


class TestAlgebra:
    def test_translation_composition(self):
        t1 = FullGroupElement.translation(SPACE, (1,))
        t2 = FullGroupElement.translation(SPACE, (2,))
        assert compose(t2, t1) == FullGroupElement.translation(SPACE, (3,))

    def test_swap_squares_to_identity(self):
        sp = OdometerSpace((2,), 3)
        swap = FullGroupElement.make(
            sp, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (-1,))]
        )
        assert compose(swap, swap) == FullGroupElement.identity(sp)

    def test_compose_matches_pointwise(self):
        rng = random.Random(5)
        elements = [random_residue_element(rng, SPACE) for _ in range(8)]
        for t in elements:
            for u in elements:
                c = compose(t, u)
                assert all(c.apply(x) == t.apply(u.apply(x)) for x in POINTS)

    def test_inverse_is_two_sided(self):
        rng = random.Random(6)
        identity = FullGroupElement.identity(SPACE)
        for _ in range(10):
            t = random_residue_element(rng, SPACE)
            assert compose(t, t.inverse()) == identity
            assert compose(t.inverse(), t) == identity

    def test_double_inverse_pointwise(self):
        rng = random.Random(7)
        t = random_residue_element(rng, SPACE)
        tt = t.inverse().inverse()
        assert all(tt.apply(x) == t.apply(x) for x in POINTS)

    def test_associativity_pointwise(self):
        rng = random.Random(8)
        a, b, c = (random_residue_element(rng, SPACE) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert all(left.apply(x) == right.apply(x) for x in POINTS)

    def test_measure_multiset_preserved(self):
        rng = random.Random(9)
        for _ in range(10):
            t = random_residue_element(rng, SPACE)
            domains = sorted(cl.measure(SPACE) for cl, _ in t.pieces)
            images = sorted(cl.translate(g, SPACE).measure(SPACE) for cl, g in t.pieces)
            assert domains == images

    def test_orbit_preservation_bookkeeping(self):
        # the applied point always equals x shifted by the piece label
        rng = random.Random(10)
        t = random_residue_element(rng, SPACE)
        for x in POINTS:
            assert t.apply(x) == odometer_add(x, t.label_at(x), SPACE)


class TestAdRealization:
    def test_identity_element_trivial(self):
        result = ad_realization_check([(0,)], [FullGroupElement.identity(SPACE)], SPACE)
        assert result.passed and not result.witnesses

    def test_swap_conjugated_by_one(self):
        sp = OdometerSpace((2,), 3)
        swap = FullGroupElement.make(
            sp, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (-1,))]
        )
        assert ad_realization_check([(1,)], [swap], sp).passed

    def test_random_sample_all_small_shifts(self):
        rng = random.Random(11)
        sample = [random_residue_element(rng, SPACE) for _ in range(5)]
        for vec in ((1,), (-1,), (2,), (-2,)):
            result = ad_realization_check([vec], sample, SPACE)
            assert result.passed, (vec, result.witnesses)

    def test_corrupted_conjugate_fails(self):
        rng = random.Random(12)
        t = random_residue_element(rng, SPACE)
        conj = conjugate_by_translation(t, (1,))
        corrupted = FullGroupElement(
            SPACE, tuple((cl, (label[0] + 4,)) for cl, label in conj.pieces)
        )
        assert spatial_realization_gap(corrupted, t, (1,), SPACE) is not None


    def test_corrupted_conjugate_fails_the_check_with_witness(self, monkeypatch):
        rng = random.Random(12)
        sample = [random_residue_element(rng, SPACE) for _ in range(3)]
        honest = fullgroup.conjugate_by_translation

        def corrupted(t, vector):
            conj = honest(t, vector)
            return FullGroupElement(
                SPACE, tuple((cl, (label[0] + 4,)) for cl, label in conj.pieces)
            )

        monkeypatch.setattr(fullgroup, "conjugate_by_translation", corrupted)
        result = ad_realization_check([(1,), (-2,)], sample, SPACE)
        assert not result.passed
        assert result.checked == 2 * 3
        assert len(result.witnesses) == 2 * 3
        vector, t, x = result.witnesses[0]
        assert vector == (1,) and t is sample[0] and x in POINTS


class TestSerialization:
    def test_records_carry_cylinder_and_label(self):
        sp = OdometerSpace((2,), 3)
        swap = FullGroupElement.make(
            sp, [(Cylinder(((0,),)), (1,)), (Cylinder(((1,),)), (-1,))]
        )
        data = swap.to_json()
        assert {"cylinder": [[1]], "label": [-1]} in data
        assert {"cylinder": [[0]], "label": [1]} in data
