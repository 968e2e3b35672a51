import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    OutcomeDist,
    OutcomeSpace,
    SimplexGrid,
    binary_space,
    discretize,
    fixture_two_point,
    make_coordinate_grid,
    make_grid_with_denominator,
    stat_distance,
    verify_covering_radius,
)
from multifair.errors import (
    DomainError,
    EnumerationLimitError,
    ConditioningMismatchError,
    PrecisionTooCoarseError,
    SupportMismatchError,
)
from oracles import (
    conditional_distance_profile,
    joint_tables,
    projection,
    stat_distance_subset_oracle,
)


def bern(p):
    return OutcomeDist.bernoulli(F(p))


# ---------------------------------------------------------------------------
# statistical distance
# ---------------------------------------------------------------------------


def test_stat_distance_identity():
    d = bern(F(1, 3))
    assert stat_distance(d, d) == 0


def test_stat_distance_disjoint_point_masses():
    assert stat_distance(bern(0), bern(1)) == 1


def test_stat_distance_half_quarter():
    # brute-force max over the 4 events of a 2-atom support gives the same 1/4
    p, q = bern(F(1, 2)), bern(F(1, 4))
    assert stat_distance(p, q) == F(1, 4)
    assert stat_distance_subset_oracle(p, q) == F(1, 4)


def test_stat_distance_support_mismatch():
    with pytest.raises(SupportMismatchError):
        stat_distance({"a": F(1)}, {"b": F(1)})


def test_subset_oracle_limit():
    big_p = {i: F(1, 23) for i in range(23)}
    with pytest.raises(EnumerationLimitError):
        stat_distance_subset_oracle(big_p, big_p)


rational = st.integers(0, 12)


@st.composite
def dist_pair(draw, atoms=5):
    def one():
        raw = [draw(rational) for _ in range(atoms)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        return {i: F(a, total) for i, a in enumerate(raw)}
    return one(), one()


@settings(max_examples=60, deadline=None)
@given(dist_pair())
def test_oracle_matches_half_l1(pq):
    p, q = pq
    assert stat_distance(p, q) == stat_distance_subset_oracle(p, q)


@settings(max_examples=60, deadline=None)
@given(dist_pair(), dist_pair())
def test_symmetry_and_triangle(pq, rs):
    p, q = pq
    r, _ = rs
    assert stat_distance(p, q) == stat_distance(q, p)
    assert stat_distance(p, r) <= stat_distance(p, q) + stat_distance(q, r)


# ---------------------------------------------------------------------------
# conditional profiles
# ---------------------------------------------------------------------------


def test_conditional_profile_identical_joints():
    t = {("a", 0): F(1, 2), ("b", 1): F(1, 2)}
    prof = conditional_distance_profile(t, dict(t))
    assert prof == {0: 0, 1: 0}


def test_conditional_profile_two_point_fixture():
    pop, _, pred = fixture_two_point()
    tilde, star = joint_tables(pop, pred, [projection(pred)])
    # reorder keys to (outcome, prediction) so the prediction conditions
    tx = {(o, v): m for (v, o), m in tilde.items()}
    ty = {(o, v): m for (v, o), m in star.items()}
    prof = conditional_distance_profile(tx, ty)
    assert set(prof.values()) == {F(1, 2)}
    # law of total probability: mixture of the profile equals the joint distance
    zmass = {}
    for (o, v), m in ty.items():
        zmass[v] = zmass.get(v, 0) + m
    keys = set(tx) | set(ty)
    joint_delta = sum(abs(tx.get(k, 0) - ty.get(k, 0)) for k in keys) / 2
    assert sum(prof[v] * zmass[v] for v in prof) == joint_delta


def test_conditional_profile_marginal_mismatch():
    with pytest.raises(ConditioningMismatchError):
        conditional_distance_profile({("a", 0): F(1)}, {("a", 1): F(1)})


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_binary_grid_denominator_four():
    grid = make_grid_with_denominator(binary_space(), 4)
    assert [p.p_one() for p in grid.points] == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert grid.eta == F(1, 4)
    assert grid.size == 5


def test_coordinate_grid_point_count_formula():
    for ell, eps in [(2, 0.05), (3, 0.08), (4, 0.12)]:
        grid = make_coordinate_grid(ell, eps)
        m = grid.denominator
        assert grid.size == math.comb(m + ell - 1, ell - 1)
        assert grid.size <= eps ** (1 - ell) + 1e-9
        assert grid.eta == F(ell - 1, m)


def test_coordinate_grid_too_coarse():
    with pytest.raises(PrecisionTooCoarseError):
        make_coordinate_grid(2, 0.5)


def test_covering_radius_verified_small():
    g2 = make_grid_with_denominator(binary_space(), 4)
    worst = verify_covering_radius(g2, steps=100)
    assert worst <= F(1, 8)  # half the step, well under eta = 1/4
    g3 = make_grid_with_denominator(OutcomeSpace(("a", "b", "c")), 3)
    assert verify_covering_radius(g3, steps=30) <= g3.eta


def test_round_dist_matches_scan_with_ties():
    space3 = OutcomeSpace(("a", "b", "c"))
    grid = make_grid_with_denominator(space3, 3)
    scan = SimplexGrid.from_points(grid.points, grid.eta)
    for i in range(0, 13):
        for j in range(0, 13 - i):
            f = OutcomeDist(space3, (F(i, 12), F(j, 12), F(12 - i - j, 12)))
            assert grid.round_dist(f) == scan.round_dist(f)


def test_lazy_grid_counts_without_materializing():
    grid = make_coordinate_grid(8, 0.1)
    assert grid.points is None
    assert grid.size == math.comb(grid.denominator + 7, 7)
    with pytest.raises(EnumerationLimitError):
        list(grid.iter_points())
    # rounding still works combinatorially
    space = OutcomeSpace(tuple(str(i) for i in range(8)))
    d = OutcomeDist(space, tuple([F(1, 8)] * 8))
    r = grid.round_dist(d)
    assert sum(r.weights) == 1
    assert all(w.denominator in (1, grid.denominator) or
               grid.denominator % w.denominator == 0 for w in r.weights)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_fixed_point():
    pop, _, pred = fixture_two_point()
    grid = SimplexGrid.from_points([bern(0), bern(1)], eta=F(1, 2))
    assert discretize(pred, grid).values == pred.values


def test_discretize_nearest_and_tiebreak():
    grid = make_grid_with_denominator(binary_space(), 4)
    from multifair import Predictor
    p = Predictor({"x": bern(F(3, 10)), "y": bern(F(3, 8))})
    out = discretize(p, grid)
    assert out.values["x"].p_one() == F(1, 4)       # 0.3 rounds to 0.25
    assert out.values["y"].p_one() == F(1, 4)       # midpoint tie: earliest point


def test_round_dist_rounds_the_exact_value_of_a_float_prediction():
    # 1/12 lies halfway between the points 0 and 1/6; as floats the two
    # coordinates sum to a little less than 1, and the exact value that
    # as_exact makes of them rounds to (1, 0), the point members read
    grid = make_grid_with_denominator(binary_space(), 6)
    d = OutcomeDist.bernoulli(1 / 12)
    assert sum(F(w) for w in d.weights) != 1
    assert grid.round_dist(d) == grid.round_dist(d.as_exact()) == bern(0)
    from multifair import Predictor
    assert discretize(Predictor({"x": d}), grid).values["x"] == bern(0)


def test_outcome_dist_validation():
    with pytest.raises(DomainError):
        OutcomeDist(binary_space(), (F(1, 2), F(1, 4)))
    with pytest.raises(DomainError):
        OutcomeDist(binary_space(), (F(-1, 2), F(3, 2)))
    with pytest.raises(DomainError):
        OutcomeSpace(("a",))


def test_oracle_matches_half_l1_float_backend():
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        raw = rng.random(k)
        raw2 = rng.random(k)
        p = {i: float(v) for i, v in enumerate(raw / raw.sum())}
        q = {i: float(v) for i, v in enumerate(raw2 / raw2.sum())}
        assert abs(stat_distance(p, q) - stat_distance_subset_oracle(p, q)) <= 1e-12


def test_covering_radius_of_formula_grids():
    assert verify_covering_radius(make_coordinate_grid(2, 0.05), steps=100) \
        <= make_coordinate_grid(2, 0.05).eta
    g3 = make_coordinate_grid(3, 0.12)
    assert verify_covering_radius(g3, steps=24) <= g3.eta
