"""Differential tests of the integer exactify and rounding kernels.

`core._exact_ratios` gives the exact value of a prediction as integer
ratios, and `core._largest_remainder` apportions a grid denominator by
integer floor division.  Both are checked against the Fraction versions in
`tests/oracles.py` (the arithmetic they replace) and, on small grids,
against a scan of every grid point.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifair import (
    OutcomeDist,
    OutcomeSpace,
    Predictor,
    SimplexGrid,
    make_grid_with_denominator,
)
from multifair.core import _exact_ratios, _largest_remainder
from multifair.errors import DomainError
from oracles import as_exact_fraction_oracle, round_coordinate_fraction

SPACES = {ell: OutcomeSpace(tuple(str(i) for i in range(ell))) for ell in (2, 3, 8)}
SCAN_LIMIT = 400  # grids up to this many points are also checked by a full scan
# Larger grids are checked unmaterialized: the apportionment is the same, and
# materializing the l = 8 grids up to m = 12 would take seconds.
MATERIALIZE_LIMIT = 7000
GRIDS = {}


def _split(draw, total, k):
    """k nonnegative integers summing to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@st.composite
def predictions(draw, space, m):
    """A point of the simplex as the library meets it.

    Exact points sit on multiples of 1/(k m), so remainders tie exactly;
    float points are floats of such multiples (on or within float error of
    a rounding boundary) or small integers normalised in floating point,
    whose exact sum is rarely 1, with repeated largest coordinates.
    """
    ell = space.size
    kind = draw(st.sampled_from(("exact", "boundary", "normalised")))
    if kind == "normalised":
        raw = draw(st.lists(st.integers(0, 4), min_size=ell, max_size=ell)
                   .filter(lambda r: sum(r) > 0))
        total = sum(raw)
        return OutcomeDist(space, tuple(a / total for a in raw))
    den = m * draw(st.sampled_from((1, 2, 3, 7)))
    counts = _split(draw, den, ell)
    if kind == "exact":
        return OutcomeDist(space, tuple(Fraction(c, den) for c in counts))
    return OutcomeDist(space, tuple(float(Fraction(c, den)) for c in counts))


def _grid(ell, m):
    """The coordinate grid, built once and shared by every example."""
    if (ell, m) not in GRIDS:
        if math.comb(m + ell - 1, ell - 1) <= MATERIALIZE_LIMIT:
            GRIDS[ell, m] = make_grid_with_denominator(SPACES[ell], m)
        else:
            GRIDS[ell, m] = SimplexGrid(SPACES[ell], None, Fraction(ell - 1, m), m)
    return GRIDS[ell, m]


@st.composite
def rounding_cases(draw):
    ell = draw(st.sampled_from((2, 3, 8)))
    m = draw(st.integers(1, 12))
    return _grid(ell, m), draw(predictions(SPACES[ell], m))


def _ratios(dist):
    return tuple(x.as_integer_ratio() for x in dist.weights)


@settings(max_examples=200, deadline=None)
@given(rounding_cases())
@example((_grid(3, 2), OutcomeDist(SPACES[3], (3 / 7, 3 / 7, 1 / 7))))
@example((_grid(2, 6), OutcomeDist.bernoulli(1 / 12)))
def test_integer_kernels_equal_the_fraction_oracles(case):
    grid, dist = case
    exact = as_exact_fraction_oracle(dist)
    assert _exact_ratios(dist) == _ratios(exact)
    assert dist.as_exact() == exact and repr(dist.as_exact()) == repr(exact)
    if dist.is_exact:
        assert dist.as_exact() is dist
    want = round_coordinate_fraction(grid, exact)
    m = grid.denominator
    assert _largest_remainder(_ratios(exact), m) == tuple(int(w * m) for w in want.weights)
    got = grid.round_dist(dist)
    assert got == want and repr(got) == repr(want)
    if grid.points is None:
        return
    assert any(p is got for p in grid.points)  # the grid's own point object
    if grid.size <= SCAN_LIMIT:
        scan = SimplexGrid.from_points(grid.points, grid.eta)
        assert scan._round_scan(exact.weights) == want
        assert scan.round_dist(dist) == want


def test_kernel_cases_cover_deficits_and_ties():
    """The explicit examples above reach the branches they are there for."""
    # normalised floats with two largest coordinates and a nonzero deficit
    tied = OutcomeDist(SPACES[3], (3 / 7, 3 / 7, 1 / 7))
    assert sum(Fraction(w) for w in tied.weights) != 1
    assert as_exact_fraction_oracle(tied).weights[0] != Fraction(3 / 7)
    # a float boundary point whose deficit decides the rounding
    d = OutcomeDist.bernoulli(1 / 12)
    assert sum(Fraction(w) for w in d.weights) != 1
    # exact ties on remainders: 1/4 of 2 units leaves remainders 1/2 and 1/2
    assert _largest_remainder(((1, 4), (3, 4)), 2) == (1, 1)
    assert _largest_remainder(((3, 8), (3, 8), (1, 4)), 2) == (1, 1, 0)
    assert _largest_remainder(((1, 4), (3, 8), (3, 8)), 2) == (0, 1, 1)


def _unchecked(space, weights):
    """An OutcomeDist that skipped validation (and so counts as inexact)."""
    dist = object.__new__(OutcomeDist)
    object.__setattr__(dist, "space", space)
    object.__setattr__(dist, "weights", tuple(weights))
    return dist


def _outcome(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 8)).flatmap(
    lambda ell: st.lists(st.one_of(st.floats(0, 2), st.fractions(0, 2, max_denominator=12)),
                         min_size=ell, max_size=ell)))
@example([0.75, 0.75, 0.75])
@example([1.5, 1.5])
@example([Fraction(2, 3), 0.5, 0.5])
def test_exactify_raises_where_the_fraction_oracle_does(weights):
    dist = _unchecked(SPACES[len(weights)], weights)
    want = _outcome(lambda: _ratios(as_exact_fraction_oracle(dist)))
    assert _outcome(lambda: _exact_ratios(dist)) == want
    got = _outcome(dist.as_exact)
    assert (got if got is DomainError else _ratios(got)) == want


@pytest.mark.parametrize("weights", [[0.75, 0.75, 0.75], [1.5, 1.5], [0.5, 1.0, 0.75]])
def test_exactify_refuses_points_far_from_the_simplex(weights):
    dist = _unchecked(SPACES[len(weights)], weights)
    with pytest.raises(DomainError):
        _exact_ratios(dist)
    with pytest.raises(DomainError):
        dist.as_exact()
    with pytest.raises(DomainError):
        as_exact_fraction_oracle(dist)


def test_exactify_refuses_non_numbers():
    with pytest.raises(DomainError):
        _exact_ratios(_unchecked(SPACES[2], ["1", 0.5]))


def test_predictor_as_exact_returns_itself_when_exact():
    space = SPACES[2]
    exact = Predictor({"a": OutcomeDist(space, (Fraction(1, 3), Fraction(2, 3))),
                       "b": OutcomeDist(space, (1, 0))})
    assert exact.as_exact() is exact
    mixed = Predictor({**exact.values, "c": OutcomeDist(space, (0.1, 0.9))})
    out = mixed.as_exact()
    assert out.values["a"] is exact.values["a"]
    assert out.values["c"] == as_exact_fraction_oracle(mixed.values["c"])
