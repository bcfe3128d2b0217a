"""Finitely generated groups as metric spaces.

Two concrete families are supported: free abelian lattices Z^d (elements are
integer vectors) and free groups F_k (elements are reduced words).  A
``GeneratingSet`` turns a group into a metric space: it enumerates Cayley
balls by breadth-first search, memoizes word lengths, and certifies
bi-Lipschitz behaviour of maps on those balls.

All values are immutable; the only mutable state is the per-generating-set
BFS memo.
"""
from __future__ import annotations

import itertools
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterable

from .checks import CheckResult

_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"

# The largest ball radius a generating set enumerates.
BALL_BUDGET = 32


class BudgetExceeded(RuntimeError):
    """The BFS search budget ran out before the requested element was reached."""


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
        gens = [self.basis_vector(i, s) for i in range(self.dimension) for s in (1, -1)]
        return GeneratingSet(gens)


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

    def to_json(self):
        return list(self.coords)


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

    def generator(self, i: int) -> "FreeWord":
        if not 0 <= i < self.rank:
            raise ValueError(f"generator index {i} out of range")
        return FreeWord(self, (i + 1,))

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
        gens = [FreeWord(self, (s * (i + 1),)) for i in range(self.rank) for s in (1, -1)]
        return GeneratingSet(gens)


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
    """A finite symmetric generating set with BFS word metrics.

    Word lengths are exact minimal factorization lengths.  The BFS memo grows
    on demand up to ``BALL_BUDGET``; asking for an element beyond that radius
    raises :class:`BudgetExceeded`.  Each ball is sorted once and kept, since
    B(r) never changes once the memo has reached r.  For the standard
    generators of Z^d (resp. F_k) a closed form is used: the L1 norm (resp.
    the reduced word length).  On Z^d it also serves :meth:`word_metric`, which takes the L1
    distance of the two coordinate tuples without building g^-1 h.  The BFS
    route stays available through :meth:`bfs_word_length` and the closed
    forms are cross-checked against it in the test suite.
    """

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("generating set must be nonempty")
        group = elements[0].group
        if any(e.group != group for e in elements):
            raise ValueError("generators must belong to one group")
        if any(e.is_identity() for e in elements):
            raise ValueError("generating set must not contain the identity")
        pool = set(elements)
        if {e.inverse() for e in elements} != pool:
            raise ValueError("generating set must be symmetric")
        self.group = group
        self.elements = tuple(sorted(pool, key=lambda e: e.sort_key()))
        self._is_standard = self._detect_standard()
        self._lengths: dict = {group.identity(): 0}
        self._frontier: list = [group.identity()]
        self._explored = 0
        self._balls: dict = {}  # radius -> sorted ball
        # Guards the memo: a layer half grown by one thread must not be read
        # or grown again by another, and a kept ball is never recomputed.
        self._lock = threading.RLock()
        self._check_generates()

    def _detect_standard(self) -> bool:
        if isinstance(self.group, LatticeGroup):
            expected = {
                self.group.basis_vector(i, s)
                for i in range(self.group.dimension)
                for s in (1, -1)
            }
            return set(self.elements) == expected
        expected = {
            FreeWord(self.group, (s * (i + 1),))
            for i in range(self.group.rank)
            for s in (1, -1)
        }
        return set(self.elements) == expected

    def _check_generates(self) -> None:
        # Generation is only certified at ball scale: for lattices the BFS
        # ball must reach every vector of L1 norm <= 2.  Standard sets are
        # exempt (they generate by construction).
        if self._is_standard or not isinstance(self.group, LatticeGroup):
            return
        radius = 2
        reached = set(self._expand(min(radius * 4, BALL_BUDGET)))
        d = self.group.dimension
        for coords in itertools.product(range(-radius, radius + 1), repeat=d):
            if sum(abs(c) for c in coords) <= radius:
                if self.group.element(coords) not in reached:
                    raise ValueError(
                        f"set does not generate at ball scale: {coords} unreached"
                    )

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
        """All elements of word length <= radius, in deterministic (lexicographic) order."""
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

    def bfs_word_length(self, g) -> int:
        """Word length by pure BFS, ignoring closed forms (budget applies)."""
        if not _same_group(g.group, self.group):
            raise ValueError("element belongs to a different group")
        lengths = self._lengths
        if g in lengths:
            return lengths[g]
        radius = self._explored
        while radius < BALL_BUDGET:
            radius += 1
            lengths = self._expand(radius)
            if g in lengths:
                return lengths[g]
        raise BudgetExceeded(f"{g!r} not reached within radius {BALL_BUDGET}")

    def word_length(self, g) -> int:
        if not _same_group(g.group, self.group):
            raise ValueError("element belongs to a different group")
        if self._is_standard:
            if isinstance(g, LatticeElement):
                return g.l1_norm()
            return len(g.letters)
        return self.bfs_word_length(g)

    def word_metric(self, g, h) -> int:
        """Left-invariant distance: the length of g^-1 h."""
        if self._is_standard and isinstance(self.group, LatticeGroup):
            if not (_same_group(g.group, self.group) and _same_group(h.group, self.group)):
                raise ValueError("element belongs to a different group")
            return sum(map(abs, map(operator.sub, h.coords, g.coords)))
        return self.word_length(g.inverse() * h)

    def to_json(self):
        return [e.to_json() for e in self.elements]


def is_bilipschitz_on_ball(
    f: Callable,
    radius: int,
    constant: float,
    source: GeneratingSet,
    target: GeneratingSet,
) -> CheckResult:
    """Check C^-1 d(g,h) <= d(f g, f h) <= C d(g,h) for all pairs in the ball.

    ``checked`` counts the pairs of distinct ball elements.  The first pair
    violating one of the two inequalities is the witness.  ``coverage``
    holds the radius, the constant and the empirical distortion range:
    ``lower``/``upper`` are the min and max of d(f(g), f(h)) / d(g, h).
    Raises ValueError if ``f`` is undefined on some ball element.
    """
    if constant <= 0:
        raise ValueError("Lipschitz constant must be positive")
    # C = num / den exactly (a float constant by its binary value), so both
    # inequalities are integer cross-multiplications.
    num, den = Fraction(constant).as_integer_ratio()
    members = source.ball(radius)
    images = {}
    for g in members:
        try:
            images[g] = f(g)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"map undefined on ball element {g!r}: {exc}") from exc
    # The extreme distortions as exact (d_tgt, d_src) pairs; int / int division
    # rounds correctly and monotonically, so the floats reported are the
    # min and max of the per-pair float ratios.
    lower = upper = None
    witnesses = []
    checked = 0
    for a, b in itertools.combinations(members, 2):
        d_src = source.word_metric(a, b)
        d_tgt = target.word_metric(images[a], images[b])
        if lower is None:
            lower = upper = (d_tgt, d_src)
        elif d_tgt * lower[1] < lower[0] * d_src:
            lower = (d_tgt, d_src)
        elif d_tgt * upper[1] > upper[0] * d_src:
            upper = (d_tgt, d_src)
        checked += 1
        if not witnesses and not (d_src * den <= num * d_tgt and d_tgt * den <= num * d_src):
            witnesses.append((a, b))
    return CheckResult(
        name="bilipschitz",
        passed=not witnesses,
        checked=checked,
        witnesses=witnesses,
        coverage={
            "R": radius,
            "constant": float(constant),
            "lower": None if lower is None else lower[0] / lower[1],
            "upper": None if upper is None else upper[0] / upper[1],
        },
    )
