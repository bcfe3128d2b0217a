"""Finitely generated groups as metric spaces.

Two concrete families are supported: free abelian lattices Z^d (elements are
integer vectors) and free groups F_k (elements are reduced words).  The
``GeneratingSet`` of a group's standard generators turns it into a metric
space: word lengths in closed form, Cayley balls by breadth-first search.
Exact sweeps over all pairs of a ball certify bi-Lipschitz behaviour of maps
on those balls.

All values are immutable; the only mutable state is the per-generating-set
BFS memo, with the balls, ball coordinates and ball positions it has served.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import linalg
from .checks import CheckResult

_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"

# The largest ball radius a generating set enumerates.
BALL_BUDGET = 32

# The most pairs of points one sweep over a ball may compare.
PAIR_BUDGET = 2**22

# The pairs a lattice pair sweep compares in one array step.
SWEEP_BLOCK = 4096


class BudgetExceeded(RuntimeError):
    """A ball past ``BALL_BUDGET`` was asked for."""


class LatticeGroup:
    """The lattice Z^d under componentwise addition."""

    __slots__ = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.dimension = dimension

    def __eq__(self, other):
        return isinstance(other, LatticeGroup) and other.dimension == self.dimension

    def __hash__(self):
        return hash(("lattice", self.dimension))

    def __repr__(self):
        return f"LatticeGroup({self.dimension})"

    def identity(self) -> "LatticeElement":
        return LatticeElement(self, (0,) * self.dimension)

    def element(self, coords: Iterable[int]) -> "LatticeElement":
        return LatticeElement(self, tuple(int(c) for c in coords))

    def basis_vector(self, i: int, scale: int = 1) -> "LatticeElement":
        coords = [0] * self.dimension
        coords[i] = scale
        return LatticeElement(self, tuple(coords))

    def standard_generators(self) -> "GeneratingSet":
        return GeneratingSet(self)


def _same_group(a, b) -> bool:
    # Elements of one group nearly always share the group object; the
    # identity test spares the structural comparison on every product.
    return a is b or a == b


class LatticeElement:
    __slots__ = ("group", "coords")

    def __init__(self, group: LatticeGroup, coords: tuple[int, ...]):
        if len(coords) != group.dimension:
            raise ValueError(f"expected {group.dimension} coordinates, got {len(coords)}")
        self.group = group
        self.coords = coords

    def __mul__(self, other: "LatticeElement") -> "LatticeElement":
        if not isinstance(other, LatticeElement) or not _same_group(other.group, self.group):
            raise ValueError("cannot multiply elements of different groups")
        return LatticeElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "LatticeElement":
        return LatticeElement(self.group, tuple(-a for a in self.coords))

    __invert__ = inverse

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def l1_norm(self) -> int:
        return sum(abs(c) for c in self.coords)

    def sort_key(self):
        return (0, self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeElement)
            and _same_group(other.group, self.group)
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"({', '.join(map(str, self.coords))})"


class FreeGroup:
    """The free group on ``rank`` generators; elements are reduced words."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if not 1 <= rank <= len(_SYMBOLS):
            raise ValueError(f"free group rank must be between 1 and {len(_SYMBOLS)}")
        self.rank = rank

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and other.rank == self.rank

    def __hash__(self):
        return hash(("free", self.rank))

    def __repr__(self):
        return f"FreeGroup({self.rank})"

    def identity(self) -> "FreeWord":
        return FreeWord(self, ())

    def word(self, text: str) -> "FreeWord":
        """Parse "abA": lowercase letters are generators, uppercase their inverses."""
        letters = []
        for ch in text:
            idx = _SYMBOLS.find(ch.lower())
            if idx < 0 or idx >= self.rank:
                raise ValueError(f"unknown generator symbol {ch!r}")
            letters.append(idx + 1 if ch.islower() else -(idx + 1))
        return FreeWord(self, _reduce(letters))

    def standard_generators(self) -> "GeneratingSet":
        return GeneratingSet(self)


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class FreeWord:
    """A reduced word; letters are signed 1-based generator indices."""

    __slots__ = ("group", "letters")

    def __init__(self, group: FreeGroup, letters: tuple[int, ...]):
        self.group = group
        self.letters = letters

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord) or not _same_group(other.group, self.group):
            raise ValueError("cannot multiply elements of different groups")
        return FreeWord(self.group, _reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(self.group, tuple(-x for x in reversed(self.letters)))

    __invert__ = inverse

    def is_identity(self) -> bool:
        return not self.letters

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and _same_group(other.group, self.group)
            and other.letters == self.letters
        )

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return self.to_json() or "e"

    def to_json(self) -> str:
        return "".join(
            _SYMBOLS[abs(s) - 1] if s > 0 else _SYMBOLS[abs(s) - 1].upper()
            for s in self.letters
        )


class GeneratingSet:
    """The standard generators of a group, and its word metric.

    On Z^d these are the +-e_i, on F_k the letters a, ..., and their
    inverses; ``elements`` lists them in ``sort_key`` order.  Word metrics
    from any two finite generating sets of a group are bi-Lipschitz
    equivalent, so no quasi-isometry verdict depends on this choice.

    Word lengths take closed forms: the L1 norm on Z^d and the reduced word
    length on F_k.  On Z^d :meth:`word_metric` takes the L1 distance of the
    two coordinate tuples without building g^-1 h.  Balls are enumerated by
    breadth-first search; the BFS memo grows on demand up to
    ``BALL_BUDGET``, and a larger radius raises :class:`BudgetExceeded`.
    Each ball is sorted once and kept, since B(r) never changes once the
    memo has reached r.

    :meth:`position` and :meth:`shifted` place elements in a ball's order,
    which is how germ tables store one value per ball element, through one
    dict of positions per ball.  On a lattice an element is found by its
    coordinates: :meth:`ball_coords` keeps each ball as one integer array,
    so g^-1 B(r) is one subtraction from it.
    """

    def __init__(self, group):
        if isinstance(group, LatticeGroup):
            gens = [group.basis_vector(i, s) for i in range(group.dimension) for s in (1, -1)]
        elif isinstance(group, FreeGroup):
            gens = [FreeWord(group, (s * (i + 1),)) for i in range(group.rank) for s in (1, -1)]
        else:
            raise TypeError(f"no standard generators for {group!r}")
        self.group = group
        self.elements = tuple(sorted(gens, key=lambda e: e.sort_key()))
        self._lengths: dict = {group.identity(): 0}
        self._frontier: list = [group.identity()]
        self._explored = 0
        self._balls: dict = {}  # radius -> sorted ball
        self._by_coords = isinstance(group, LatticeGroup)
        self._where: dict = {}  # radius -> {point: position in B(r)}
        self._coords: dict = {}  # radius -> B(r) as an integer coordinate array
        self._shifts: dict = {}  # (radius, r, point of g) -> positions of g^-1 B(r) in B(radius)
        # Guards the memo: a layer half grown by one thread must not be read
        # or grown again by another, and a kept ball is never recomputed.
        self._lock = threading.RLock()

    def _expand(self, radius: int):
        """Grow the BFS memo to the given radius; returns the memo dict."""
        with self._lock:
            while self._explored < radius and self._frontier:
                next_frontier = []
                for g in self._frontier:
                    for s in self.elements:
                        h = g * s
                        if h not in self._lengths:
                            self._lengths[h] = self._explored + 1
                            next_frontier.append(h)
                self._frontier = next_frontier
                self._explored += 1
        return self._lengths

    def ball(self, radius: int) -> tuple:
        """All elements of word length <= radius, in ``sort_key`` order."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius > BALL_BUDGET:
            raise BudgetExceeded(f"radius {radius} exceeds budget {BALL_BUDGET}")
        ball = self._balls.get(radius)
        if ball is None:
            with self._lock:
                lengths = self._expand(radius)
                members = [g for g, n in lengths.items() if n <= radius]
                ball = self._balls[radius] = tuple(sorted(members, key=lambda e: e.sort_key()))
        return ball

    def _point(self, g):
        # What a ball position is found by: coordinates on a lattice.
        return g.coords if self._by_coords else g

    def _positions(self, radius: int) -> dict:
        where = self._where.get(radius)
        if where is None:
            ball = self.ball(radius)
            where = self._where[radius] = {self._point(g): i for i, g in enumerate(ball)}
        return where

    def position(self, radius: int, g) -> int:
        """The position of g in ``ball(radius)``; -1 outside it or the group."""
        if not _same_group(getattr(g, "group", None), self.group):
            return -1
        return self._positions(radius).get(self._point(g), -1)

    def ball_coords(self, radius: int) -> np.ndarray:
        """B(radius) of a lattice as a read-only (n, d) array of coordinates,
        in ``ball(radius)`` order, on the rung of its largest coordinate."""
        coords = self._coords.get(radius)
        if coords is None:
            rows = [g.coords for g in self.ball(radius)]
            dtype = linalg.rung(max(map(abs, itertools.chain(*rows))))
            coords = np.array(rows, dtype=dtype).reshape(len(rows), -1)
            coords.flags.writeable = False
            self._coords[radius] = coords
        return coords

    def shifted(self, radius: int, r: int, g) -> np.ndarray:
        """The positions in B(radius) of g^-1 h for h in B(r), in ``ball(r)``
        order; r + |g| <= radius, and a larger r + |g| is refused with
        ValueError.  At the identity: B(r) inside B(radius).  Every point is
        looked up in the ball's positions."""
        key = (radius, r, self._point(g))
        found = self._shifts.get(key)
        if found is None:
            if r + self.word_length(g) > radius:
                raise ValueError(f"{g!r}^-1 B({r}) is not inside B({radius})")
            where = self._positions(radius)
            if self._by_coords:
                points = self.ball_coords(r) - np.array(g.coords, dtype=linalg.rung(max(map(abs, g.coords))))
                found = [where[p] for p in map(tuple, points.tolist())]
            else:
                g_inv = g.inverse()
                found = [where[g_inv * h] for h in self.ball(r)]
            found = self._shifts[key] = np.array(found, dtype=np.intp)
        return found

    def word_length(self, g) -> int:
        """The L1 norm on Z^d, the reduced word length on F_k."""
        if not _same_group(g.group, self.group):
            raise ValueError("element belongs to a different group")
        return g.l1_norm() if self._by_coords else len(g.letters)

    def word_metric(self, g, h) -> int:
        """Left-invariant distance: the length of g^-1 h."""
        if self._by_coords:
            if not (_same_group(g.group, self.group) and _same_group(h.group, self.group)):
                raise ValueError("element belongs to a different group")
            return sum(map(abs, map(operator.sub, h.coords, g.coords)))
        return self.word_length(g.inverse() * h)


def lattice_ball_size(dimension: int, radius: int) -> int:
    """|B(radius)| for the standard generators of Z^d, without enumerating
    it: the points with k nonzero coordinates number 2^k C(d, k) C(radius, k)."""
    return sum(
        2**k * math.comb(dimension, k) * math.comb(radius, k)
        for k in range(min(dimension, radius) + 1)
    )


class PairSweep(NamedTuple):
    """What one sweep over the pairs of a ball found, in
    ``itertools.combinations`` order of ``ball(radius)``.

    ``lower`` and ``upper`` are (d_tgt, d_src, a, b) for the first pair whose
    distance ratio d_tgt / d_src is the least (the greatest) over the ball,
    None when the ball has one point.  ``witness`` is the first pair (a, b)
    outside the constant's two-sided bound, or None.
    """

    checked: int
    lower: tuple | None
    upper: tuple | None
    witness: tuple | None


def sweep_pairs(
    source: GeneratingSet, target: GeneratingSet, radius: int, images: list, constant=None
) -> PairSweep:
    """Compare each pair a, b of B(radius) under ``source`` with its images
    under ``target``; ``images`` lists f(g) in ``ball(radius)`` order.  With
    a ``constant`` C, the pair fails unless
    C^-1 d(a, b) <= d(f a, f b) <= C d(a, b).  C = num / den exactly (a float
    constant by its binary value), so both sides are integer
    cross-multiplications.

    Between two lattices, with every image in the target lattice, both word
    metrics are L1 distances of coordinates and :func:`_lattice_sweep`
    compares the pairs as arrays.  Where a free group takes part each pair
    takes two :meth:`GeneratingSet.word_metric` calls.  Both give the same
    sweep.
    """
    bounds = None if constant is None else Fraction(constant).as_integer_ratio()
    if source._by_coords and target._by_coords and all(
        _same_group(getattr(v, "group", None), target.group) for v in images
    ):
        return _lattice_sweep(source, target, radius, images, bounds)
    return _word_metric_sweep(source, target, radius, images, bounds)


def _within(d_src: int, d_tgt: int, bounds: tuple) -> bool:
    num, den = bounds
    return d_src * den <= num * d_tgt and d_tgt * den <= num * d_src


def _word_metric_sweep(source, target, radius, images, bounds) -> PairSweep:
    # The extremes as exact (d_tgt, d_src) pairs, compared by
    # cross-multiplication (every d_src is positive).
    lower = upper = witness = None
    checked = 0
    for (a, fa), (b, fb) in itertools.combinations(zip(source.ball(radius), images), 2):
        d_src = source.word_metric(a, b)
        d_tgt = target.word_metric(fa, fb)
        if lower is None:
            lower = upper = (d_tgt, d_src, a, b)
        elif d_tgt * lower[1] < lower[0] * d_src:
            lower = (d_tgt, d_src, a, b)
        elif d_tgt * upper[1] > upper[0] * d_src:
            upper = (d_tgt, d_src, a, b)
        checked += 1
        if witness is None and bounds is not None and not _within(d_src, d_tgt, bounds):
            witness = (a, b)
    return PairSweep(checked, lower, upper, witness)


def _lattice_sweep(source, target, radius, images, bounds) -> PairSweep:
    """The pair sweep on coordinate arrays, on the rung of its largest key.

    The pairs go by in blocks of ``SWEEP_BLOCK`` in combinations order.  The
    points and their images are held as (d, n) arrays, one row per
    coordinate, the layout of ``shears.bounded_distance_constant``; a
    block's L1 distances are sums of one gather per coordinate row
    (:func:`_column_l1`), on the sweep's rung for the images.  Per
    source distance s <= 2 radius the least and the greatest target distance
    are kept, each with the first pair that attains it, as one key d_tgt *
    pairs + pair index (+ pairs - 1 - pair index for the greatest), cast to
    the sweep's rung so that ``ufunc.at`` keeps its fast, uncast loop.  The
    extreme ratios are then chosen among those at most 2 radius candidates as
    exact Fractions.  A pair fails C = num / den exactly when its target
    distance leaves [ceil(s den / num), floor(s num / den)]; the thresholds
    are computed per s on Python integers, so no array multiplies C.

    Each pair the result names is measured again with ``word_metric``, and a
    disagreement raises RuntimeError.
    """
    members = source.ball(radius)
    n = len(members)
    total = n * (n - 1) // 2
    rows = [v.coords for v in images]
    # cap exceeds every target distance, so every key is below cap * total.
    cap = 2 * target.group.dimension * max((abs(c) for row in rows for c in row), default=0) + 1
    dtype = linalg.rung(cap * (total + 1))
    points = np.ascontiguousarray(source.ball_coords(radius).T)
    values = np.array(rows, dtype=dtype).reshape(n, -1).T.copy()
    size = 2 * radius + 1
    least = np.full(size, cap * total, dtype=dtype)
    most = np.full(size, -1, dtype=dtype)
    if bounds is not None:
        num, den = bounds
        low_ok = np.array([min(-(-s * den // num), cap) for s in range(size)], dtype=dtype)
        high_ok = np.array([min(s * num // den, cap) for s in range(size)], dtype=dtype)
    failed = None
    # Row i of the upper triangle starts at pair index starts[i].
    starts = np.arange(n, dtype=np.int64)
    starts = starts * (2 * n - 1 - starts) // 2
    for start in range(0, total, SWEEP_BLOCK):
        pair = np.arange(start, min(start + SWEEP_BLOCK, total))
        i = np.searchsorted(starts, pair, side="right") - 1
        j = pair - starts[i] + i + 1
        d_src = _column_l1(points, i, j).astype(np.intp, copy=False)
        d_tgt = _column_l1(values, i, j)
        np.minimum.at(least, d_src, (d_tgt * total + pair).astype(dtype, copy=False))
        np.maximum.at(most, d_src, (d_tgt * total + (total - 1 - pair)).astype(dtype, copy=False))
        if bounds is not None and failed is None:
            bad = np.flatnonzero((d_tgt < low_ok[d_src]) | (d_tgt > high_ok[d_src]))
            if len(bad):
                failed = start + int(bad[0])

    def remeasured(index, agrees):
        # (d_tgt, d_src, a, b) of pair ``index``, by the group's own metric
        i = int(np.searchsorted(starts, index, side="right")) - 1
        j = index - int(starts[i]) + i + 1
        a, b = members[i], members[j]
        d_src = source.word_metric(a, b)
        d_tgt = target.word_metric(images[i], images[j])
        if not agrees(d_src, d_tgt):
            raise RuntimeError(f"lattice pair sweep disagrees with word_metric at {a!r}, {b!r}")
        return d_tgt, d_src, a, b

    lower = upper = witness = None
    least, most = least.tolist(), most.tolist()
    present = [s for s in range(1, size) if most[s] >= 0]
    if present:
        s = min(present, key=lambda s: (Fraction(least[s] // total, s), least[s] % total))
        t, index = divmod(least[s], total)
        lower = remeasured(index, lambda d_src, d_tgt: (d_src, d_tgt) == (s, t))
        s = max(present, key=lambda s: (Fraction(most[s] // total, s), most[s] % total))
        t, index = divmod(most[s], total)
        upper = remeasured(total - 1 - index, lambda d_src, d_tgt: (d_src, d_tgt) == (s, t))
    if failed is not None:
        witness = remeasured(failed, lambda d_src, d_tgt: not _within(d_src, d_tgt, bounds))[2:]
    return PairSweep(total, lower, upper, witness)


def _column_l1(columns: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The L1 distances of points i and j, with the points stored as one row
    per coordinate, summed on the rows' own dtype."""
    total = np.abs(columns[0][i] - columns[0][j])
    for column in columns[1:]:
        total += np.abs(column[i] - column[j])
    return total


def _ratio(extreme: tuple | None) -> float | None:
    # int / int division rounds correctly and monotonically, so the floats
    # reported are the min and max of the per-pair float ratios.
    return None if extreme is None else extreme[0] / extreme[1]


def is_bilipschitz_on_ball(
    f: Callable,
    radius: int,
    constant: float,
    source: GeneratingSet,
    target: GeneratingSet,
) -> CheckResult:
    """Check C^-1 d(g,h) <= d(f g, f h) <= C d(g,h) for all pairs in the ball,
    by one :func:`sweep_pairs` over B(radius) (on arrays between lattices).

    ``checked`` counts the pairs of distinct ball elements.  The first pair
    violating one of the two inequalities is the witness.  ``coverage``
    holds the radius, the constant and the empirical distortion range:
    ``lower``/``upper`` are the min and max of d(f(g), f(h)) / d(g, h).
    Raises ValueError if ``f`` is undefined on some ball element.
    """
    if constant <= 0:
        raise ValueError("Lipschitz constant must be positive")
    images = []
    for g in source.ball(radius):
        try:
            images.append(f(g))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"map undefined on ball element {g!r}: {exc}") from exc
    sweep = sweep_pairs(source, target, radius, images, constant)
    return CheckResult(
        name="bilipschitz",
        checked=sweep.checked,
        witnesses=[] if sweep.witness is None else [sweep.witness],
        coverage={
            "R": radius,
            "constant": float(constant),
            "lower": _ratio(sweep.lower),
            "upper": _ratio(sweep.upper),
        },
    )
