import random
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import linalg


class TestParsing:
    def test_decimal_strings_exact(self):
        assert linalg.as_scalar("0.5") == Fraction(1, 2)
        assert linalg.as_scalar("-1.25") == Fraction(-5, 4)
        assert linalg.as_scalar("1e-9") == Fraction(1, 10**9)

    def test_float_is_its_binary_rational(self):
        assert linalg.as_scalar(0.5) == Fraction(1, 2)
        assert linalg.as_scalar(0.1) == Fraction(0.1)

    @pytest.mark.parametrize("text", ["1/0", "0/0", " -3/0 "])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            linalg.as_scalar(text)
        with pytest.raises(ValueError, match="zero denominator"):
            linalg.parse_matrix(f"1 {text}; 0 1")

    def test_parse_matrix(self):
        m = linalg.parse_matrix("1 0.5; 0 1")
        assert m == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            linalg.parse_matrix("1 2; 3")

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            linalg.parse_matrix("1 2; ; 3 4")


class TestArithmetic:
    def test_det_matches_numpy_on_random_integer_matrices(self):
        rng = random.Random(31)
        for d in (2, 3, 4):
            for _ in range(20):
                rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
                exact = linalg.det(linalg.as_matrix(rows))
                approx = np.linalg.det(np.array(rows, dtype=float))
                assert abs(float(exact) - approx) < 1e-6

    def test_inverse_roundtrip(self):
        rng = random.Random(32)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            m = linalg.as_matrix(rows)
            if linalg.det(m) == 0:
                continue
            assert linalg.mat_mul(m, linalg.inverse(m)) == linalg.identity(3)

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(linalg.as_matrix([[1, 2], [2, 4]]))

    def test_mat_vec(self):
        m = linalg.parse_matrix("1 0.5; 0 1")
        assert linalg.mat_vec(m, (2, 4)) == (Fraction(4), Fraction(4))

    def test_norms(self):
        m = linalg.as_matrix([[1, -2], [3, 1]])
        assert linalg.max_abs(m) == 3
        assert linalg.row_sum_norm(m) == 4
        assert linalg.max_abs_diff(m, linalg.identity(2)) == 3

    def test_is_integral(self):
        assert linalg.is_integral(linalg.as_matrix([[1, -3], [0, 2]]))
        assert not linalg.is_integral(linalg.parse_matrix("1 0.5; 0 1"))


class TestRendering:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1, 2), "0.5"),
            (Fraction(-5, 4), "-1.25"),
            (Fraction(3), "3"),
            (Fraction(-3, 2), "-1.5"),
            (Fraction(1, 3), "1/3"),
            (Fraction(7, 50), "0.14"),
            (Fraction(-1, 8), "-0.125"),
        ],
    )
    def test_scalar_to_str(self, value, expected):
        assert linalg.scalar_to_str(value) == expected

    def test_rendering_roundtrips(self):
        rng = random.Random(33)
        for _ in range(100):
            value = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            assert linalg.as_scalar(linalg.scalar_to_str(value)) == value

    def test_matrix_to_json(self):
        m = linalg.parse_matrix("1 0.5; 0 1")
        assert linalg.matrix_to_json(m) == [["1", "0.5"], ["0", "1"]]
