"""Exact matrix arithmetic over rationals, and the one integer width ladder.

Matrices are tuples of tuples of Fractions.  Floats are converted to the
binary rational they already are, so every code path downstream is exact;
decimal strings ("0.5") parse to the rational they denote.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions, decimal strings and floats to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(as_scalar(x) for x in row) for row in rows)
    if not out or any(len(row) != len(out) for row in out):
        raise ValueError("matrix must be square and nonempty")
    return out


def parse_matrix(text: str) -> Matrix:
    """Parse "1 0.5; 0 1": rows split on ';', entries on whitespace."""
    rows = [chunk.split() for chunk in text.split(";")]
    if any(not row for row in rows):
        raise ValueError(f"empty row in matrix spec {text!r}")
    return as_matrix(rows)


def identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    d = len(a)
    vv = [as_scalar(x) for x in v]
    return tuple(sum(a[i][k] * vv[k] for k in range(d)) for i in range(d))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free Gaussian elimination."""
    d = len(a)
    m = [list(row) for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(d):
        pivot_row = next((r for r in range(c, d) if m[r][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot = m[c][c]
        result *= pivot
        for r in range(c + 1, d):
            factor = m[r][c] / pivot
            for k in range(c, d):
                m[r][k] -= factor * m[c][k]
    return sign * result


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    d = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(a)]
    for c in range(d):
        pivot_row = next((r for r in range(c, d) if m[r][c] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(d):
            if r != c and m[r][c] != 0:
                factor = m[r][c]
                m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[d:]) for row in m)


def max_abs_diff(a: Matrix, b: Matrix) -> Fraction:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def max_abs(a: Matrix) -> Fraction:
    return max(abs(x) for row in a for x in row)


def row_sum_norm(a: Matrix) -> Fraction:
    """Operator norm for the sup-norm on vectors: max absolute row sum."""
    return max(sum(abs(x) for x in row) for row in a)


def is_integral(a: Matrix) -> bool:
    return all(x.denominator == 1 for row in a for x in row)


def is_unimodular(a: Matrix) -> bool:
    """An integer matrix with determinant +-1: an automorphism of Z^d."""
    return is_integral(a) and abs(det(a)) == 1


def scalar_to_str(x: Fraction) -> str:
    """Render exactly: finite decimal when the denominator is 2^a 5^b, else "p/q"."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(twos, fives)
    scaled = x.numerator * 10**shift // x.denominator
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-shift]}.{text[-shift:]}" if shift else f"{sign}{text}"


def matrix_to_json(a: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in a]


# The ladder every integer array takes its dtype from: int32 and int64, each
# with the bound its values stay below, so that a sum or difference of two of
# them, or a negation, still fits; then exact Python integers (dtype=object).
RUNGS = ((np.int32, 1 << 30), (np.int64, 1 << 62))
WIDTHS = (*(dtype for dtype, _ in RUNGS), object)


def rung(peak: int) -> type:
    """The narrowest dtype of the ladder that holds magnitudes up to ``peak``,
    the largest an array op can produce, stated before the op computes."""
    return next((dtype for dtype, limit in RUNGS if peak < limit), object)


def array_bound(values: np.ndarray) -> int:
    """max(|x| for x in values), at least 1, read off the array's min and max."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)), 1)
