"""Outcome spaces, distributions, statistical distance, and simplex grids.

Everything here is exact by default: weights are `fractions.Fraction` (or
ints), sums are checked for equality rather than closeness, and the two
statistical-distance computations (half-L1 and max-over-events) agree as
integers, not merely to a tolerance.  Float weights are tolerated for
values produced by the multiplicative-weights constructors; validation
then falls back to a 1e-12 absolute tolerance, and every audit reads such
a point as its exact value (`_exact_ratios`).

Statistical distance between finite distributions p and q is

    delta(p, q) = max_A |p(A) - q(A)| = (1/2) * sum_a |p(a) - q(a)|,

the maximum running over all event subsets A of the common support.  The
library computes the half-L1 form; the subset-enumeration form is a test
oracle (`tests/oracles.py`).

A coordinate grid with denominator m is the set of points of the outcome
simplex whose coordinates are multiples of 1/m.  It covers the simplex to
statistical distance (l-1)/m, contains C(m+l-1, l-1) points, and nearest-
point rounding onto it is largest-remainder apportionment, so predictors
can be discretized without materializing the grid.  There is one rounding
rule: a prediction rounds as its exact value.  `_exact_ratios` gives that
value as integer ratios, without building a Fraction, and
`SimplexGrid._round_ratios` rounds those ratios by integer floor division;
`SimplexGrid.round_dist` and `audits._Prepared` both go through the pair.
Grid points are told apart and ordered by those ratios too
(`_sorted_ratios`), so no Fraction is hashed or compared to do it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    EnumerationLimitError,
    PrecisionTooCoarseError,
    SupportMismatchError,
)

FLOAT_SUM_TOL = 1e-12

BINARY_LABELS = ("0", "1")


def is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exactify(x) -> Fraction:
    """Convert to Fraction without rounding: floats map to their exact binary value."""
    if isinstance(x, (float, int)):  # before Fraction, whose ABC check is slow
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise DomainError(f"cannot interpret {x!r} as a number")


def _exact_ratios(dist: "OutcomeDist") -> tuple:
    """The weights of `dist.as_exact()` as reduced (numerator, denominator)
    pairs, computed on integers alone.

    An exact point is taken as it is.  Otherwise the weights' exact values
    (floats by `as_integer_ratio`, over powers of two) are put over their
    least common denominator and the first largest absorbs the deficit
    1 - sum, which must leave it nonnegative.
    """
    if dist.is_exact:
        return tuple(w.as_integer_ratio() for w in dist.weights)
    ratios = []
    for w in dist.weights:
        if not isinstance(w, (float, int, Fraction)):  # Fraction last: an ABC check
            raise DomainError(f"cannot interpret {w!r} as a number")
        ratios.append(w.as_integer_ratio())
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    deficit = den - sum(nums)
    if deficit:
        i = nums.index(max(nums))
        num = nums[i] + deficit
        if num < 0:
            raise DomainError("cannot exactify: weights too far from the simplex")
        g = math.gcd(num, den)
        ratios[i] = (num // g, den // g)
    return tuple(ratios)


def _sorted_ratios(keys) -> list:
    """Tuples of reduced (numerator, denominator) pairs in the exact
    lexicographic order of their values: over the lcm L of every
    denominator the numerators are integers, ordered as the values are."""
    L = math.lcm(*(d for key in keys for _, d in key))
    return sorted(keys, key=lambda key: [n * (L // d) for n, d in key])


def _largest_remainder(ratios, m: int) -> tuple:
    """Largest-remainder apportionment of m units by exact weights.

    `ratios` are (numerator, denominator) pairs summing to 1.  Each
    coordinate gets its floor (n * m) // d, and the m - sum(floors) units
    left go to the largest remainders (n * m) % d, compared over a common
    denominator; equal remainders go to the earlier coordinate.
    """
    den = math.lcm(*(d for _, d in ratios))
    out, rems = [], []
    for n, d in ratios:
        q, r = divmod(n * m, d)
        out.append(q)
        rems.append(r * (den // d))
    # a stable sort keeps equal remainders in coordinate order
    for i in sorted(range(len(out)), key=rems.__getitem__, reverse=True)[:m - sum(out)]:
        out[i] += 1
    return tuple(out)


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite ordered set of outcome labels; the order breaks all ties."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise DomainError("an outcome space needs at least 2 outcomes")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("outcome labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown outcome label {label!r}") from None

    @property
    def is_binary(self) -> bool:
        return self.labels == BINARY_LABELS or set(self.labels) == {"0", "1"}


def binary_space() -> OutcomeSpace:
    return OutcomeSpace(BINARY_LABELS)


@dataclass(frozen=True)
class OutcomeDist:
    """A point of the outcome simplex: one weight per label, summing to 1."""

    space: OutcomeSpace
    weights: tuple
    _exact: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.space.size:
            raise DomainError("weight count does not match the outcome space")
        exact = all(is_exact_number(w) for w in self.weights)
        object.__setattr__(self, "_exact", exact)
        total = sum(self.weights)
        for w in self.weights:
            if w < 0:
                raise DomainError(f"negative outcome weight {w}")
        if exact:
            if total != 1:
                raise DomainError(f"outcome weights sum to {total}, expected exactly 1")
        elif abs(total - 1) > FLOAT_SUM_TOL:
            raise DomainError(f"outcome weights sum to {total}, expected 1 within 1e-12")

    @classmethod
    def from_mapping(cls, space: OutcomeSpace, mapping: Mapping) -> "OutcomeDist":
        return cls(space, tuple(mapping.get(o, 0) for o in space.labels))

    @classmethod
    def point_mass(cls, space: OutcomeSpace, label) -> "OutcomeDist":
        i = space.index(label)
        return cls(space, tuple(1 if j == i else 0 for j in range(space.size)))

    @classmethod
    def uniform(cls, space: OutcomeSpace) -> "OutcomeDist":
        return cls(space, tuple(Fraction(1, space.size) for _ in space.labels))

    @classmethod
    def bernoulli(cls, p) -> "OutcomeDist":
        """Binary distribution with mass p on label "1"."""
        return cls(binary_space(), (1 - p, p))

    def weight(self, label):
        return self.weights[self.space.index(label)]

    @property
    def is_exact(self) -> bool:
        """Every weight is an int or a Fraction; decided once, at construction."""
        return self._exact

    def p_one(self):
        """Mass on label "1" of a binary distribution."""
        if not self.space.is_binary:
            raise DomainError("p_one is only defined for binary outcome spaces")
        return self.weight("1")

    def as_exact(self) -> "OutcomeDist":
        """This point with exact weights: itself when its weights are exact.

        Floats summing to ~1 rarely sum to exactly 1 as rationals; the
        deficit is absorbed by the largest coordinate (see `_exact_ratios`).
        """
        if self.is_exact:
            return self
        return OutcomeDist(self.space, tuple(Fraction(n, d) for n, d in _exact_ratios(self)))

    def __repr__(self):
        pairs = ", ".join(f"{o}:{w}" for o, w in zip(self.space.labels, self.weights))
        return f"OutcomeDist({pairs})"


# ---------------------------------------------------------------------------
# Statistical distance
# ---------------------------------------------------------------------------


def _as_table(p) -> dict:
    if isinstance(p, OutcomeDist):
        return dict(zip(p.space.labels, p.weights))
    if isinstance(p, Mapping):
        return dict(p)
    raise DomainError(f"expected OutcomeDist or mapping, got {type(p).__name__}")


def _check_same_support(tp: dict, tq: dict):
    if set(tp) != set(tq):
        only_p = set(tp) - set(tq)
        only_q = set(tq) - set(tp)
        raise SupportMismatchError(
            f"supports differ: only-left={sorted(map(repr, only_p))}, "
            f"only-right={sorted(map(repr, only_q))}"
        )


def stat_distance(p, q):
    """Half-L1 statistical distance between two finite distributions.

    Accepts OutcomeDist values or mappings (joint tables keyed by atoms).
    Both arguments must be defined over the same support set.
    """
    tp, tq = _as_table(p), _as_table(q)
    _check_same_support(tp, tq)
    total = sum(abs(tp[a] - tq[a]) for a in tp)
    return total / 2 if isinstance(total, float) else Fraction(total) / 2


# ---------------------------------------------------------------------------
# Simplex grids and rounding
# ---------------------------------------------------------------------------

GRID_MATERIALIZE_LIMIT = 200_000


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` nonnegative parts, first part largest first.

    The resulting order is descending-lexicographic on the weight tuple,
    which for binary spaces lists the grid ascending in the "1"-coordinate.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class SimplexGrid:
    """A finite covering of the outcome simplex.

    `points` is the canonical ordered list for explicit grids; coordinate
    grids with too many points to materialize carry `points=None` together
    with their `denominator`, and answer rounding queries combinatorially.
    `eta` is a verified covering radius: every distribution lies within
    statistical distance eta of some grid point.
    """

    space: OutcomeSpace
    points: tuple | None
    eta: Fraction
    denominator: int | None = None
    _point_of: dict = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def coordinate(cls, space: OutcomeSpace, denominator: int) -> "SimplexGrid":
        if denominator < 1:
            raise PrecisionTooCoarseError(f"grid denominator {denominator} < 1")
        ell = space.size
        eta = Fraction(ell - 1, denominator) if ell > 1 else Fraction(0)
        count = math.comb(denominator + ell - 1, ell - 1)
        points = None
        if count <= GRID_MATERIALIZE_LIMIT:
            points = tuple(
                OutcomeDist(space, tuple(Fraction(c, denominator) for c in comp))
                for comp in _compositions(denominator, ell)
            )
        return cls(space=space, points=points, eta=eta, denominator=denominator)

    @classmethod
    def from_points(cls, points: Sequence[OutcomeDist], eta) -> "SimplexGrid":
        points = tuple(points)
        if not points:
            raise DomainError("a grid needs at least one point")
        space = points[0].space
        if any(p.space != space for p in points):
            raise DomainError("grid points must share one outcome space")
        return cls(space=space, points=points, eta=Fraction(eta))

    @property
    def size(self) -> int:
        if self.points is not None:
            return len(self.points)
        ell = self.space.size
        return math.comb(self.denominator + ell - 1, ell - 1)

    @property
    def is_coordinate(self) -> bool:
        return self.denominator is not None

    def round_dist(self, dist: OutcomeDist) -> OutcomeDist:
        """The grid point nearest `dist.as_exact()` in statistical distance,
        earliest point on ties: a float prediction rounds as its exact value."""
        if dist.space != self.space:
            raise DomainError("distribution and grid live on different outcome spaces")
        return self._round_ratios(_exact_ratios(dist))

    def _round_ratios(self, ratios) -> OutcomeDist:
        """`round_dist` of the exact point whose weights are `ratios`.

        On a coordinate grid, largest-remainder apportionment is the L1
        projection onto the integer simplex; ties bump earlier coordinates,
        matching the canonical descending-lex point order (verified against
        `_round_scan` in tests).  A materialized grid returns its own point.
        """
        if not self.is_coordinate:
            return self._round_scan(tuple(Fraction(n, d) for n, d in ratios))
        m = self.denominator
        comp = _largest_remainder(ratios, m)
        if self.points is None:
            return OutcomeDist(self.space, tuple(Fraction(c, m) for c in comp))
        if self._point_of is None:
            object.__setattr__(self, "_point_of", dict(
                zip(_compositions(m, self.space.size), self.points)))
        return self._point_of[comp]

    def _round_scan(self, weights) -> OutcomeDist:
        """The first point nearest the exact `weights` in L1 distance."""
        # min keeps the earliest of equally near points
        return min(self.points, key=lambda g: sum(abs(a - exactify(b))
                                                  for a, b in zip(weights, g.weights)))

    def iter_points(self) -> Iterable[OutcomeDist]:
        if self.points is not None:
            return iter(self.points)
        raise EnumerationLimitError(
            f"grid with {self.size} points is not materialized; iterate refused"
        )


def make_coordinate_grid(space_or_ell, epsilon) -> SimplexGrid:
    """Coordinate grid at denominator m = floor((1/(e*eps) - 1) * (l - 1)).

    Covers the simplex to eta = (l-1)/m and has at most eps^(1-l) points.
    Raises PrecisionTooCoarseError when epsilon is too large for m >= 1.
    """
    space = space_or_ell
    if isinstance(space_or_ell, int):
        space = OutcomeSpace(tuple(str(i) for i in range(space_or_ell)))
    ell = space.size
    eps = float(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    m = math.floor((1.0 / (math.e * eps) - 1.0) * (ell - 1))
    if m < 1:
        raise PrecisionTooCoarseError(
            f"epsilon={eps} gives denominator m={m} < 1 for {ell} outcomes"
        )
    return SimplexGrid.coordinate(space, m)


def make_grid_with_denominator(space: OutcomeSpace, denominator: int) -> SimplexGrid:
    """Coordinate grid with an explicitly chosen denominator."""
    return SimplexGrid.coordinate(space, denominator)


def verify_covering_radius(grid: SimplexGrid, steps: int = 100) -> Fraction:
    """Exhaustively check eta on a rational mesh; returns the worst distance seen.

    Only implemented for 2- and 3-outcome spaces, which is where the grids
    are small enough for the check to be meaningful.
    """
    ell = grid.space.size
    worst = Fraction(0)
    if ell == 2:
        mesh = [(Fraction(i, steps), Fraction(steps - i, steps)) for i in range(steps + 1)]
    elif ell == 3:
        mesh = [
            (Fraction(i, steps), Fraction(j, steps), Fraction(steps - i - j, steps))
            for i in range(steps + 1)
            for j in range(steps + 1 - i)
        ]
    else:
        raise DomainError("covering verification is implemented for 2 and 3 outcomes only")
    for weights in mesh:
        f = OutcomeDist(grid.space, weights)
        g = grid.round_dist(f)
        d = stat_distance(f, g)
        if d > worst:
            worst = d
    if worst > grid.eta:
        raise DomainError(f"covering radius violated: found distance {worst} > eta {grid.eta}")
    return worst
