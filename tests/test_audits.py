import math
from fractions import Fraction as F

import numpy as np
import pytest

from multifair import (
    Hypothesis,
    HypothesisClass,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_strict_multi_calibration,
    check_conditional,
    constant_predictor,
    discretize,
    fixture_grid_population,
    fixture_two_point,
    grid_fixture_mc_closed_form,
    grid_fixture_smc_closed_form,
    indicator_all,
    make_grid_with_denominator,
    random_instance,
    violation_profile,
    binary_space,
)
from multifair.errors import DomainError
from oracles import joint_tables, projection, stat_distance_subset_oracle


def test_ground_truth_audits_all_zero():
    rng = np.random.default_rng(0)
    pop, cls, _ = random_instance(rng, 7, 3, 4)
    gt = pop.ground_truth_predictor()
    assert audit_multi_accuracy(pop, gt, cls).value == 0
    assert audit_multi_calibration(pop, gt, cls).value == 0
    assert audit_strict_multi_calibration(pop, gt, cls).value == 0
    assert audit_calibration(pop, gt) == 0


def test_two_point_fixture_values():
    pop, cls, pred = fixture_two_point()
    assert audit_multi_accuracy(pop, pred, cls).value == 0
    assert audit_multi_calibration(pop, pred, cls).value == F(1, 2)
    assert audit_multi_calibration(pop, pred, cls).value > F(1, 3)
    assert audit_calibration(pop, pred) == F(1, 2)


def test_two_point_constant_marginal_predictor_is_calibrated():
    pop, _, _ = fixture_two_point()
    const = constant_predictor(pop, pop.outcome_marginal())
    assert audit_calibration(pop, const) == 0


def test_multi_accuracy_matches_subset_oracle():
    rng = np.random.default_rng(1)
    pop, cls, pred = random_instance(rng, 8, 3, 3)
    rep = audit_multi_accuracy(pop, pred, cls)
    worst = 0
    for h in cls:
        tilde, star = joint_tables(pop, pred, [projection(h)])
        keys = set(tilde) | set(star)
        tp = {k: tilde.get(k, 0) for k in keys}
        tq = {k: star.get(k, 0) for k in keys}
        worst = max(worst, stat_distance_subset_oracle(tp, tq))
    assert rep.value == worst


def test_grid_fixture_audit_closed_forms():
    m = 50
    pop, cls, pred = fixture_grid_population(m)
    assert audit_multi_calibration(pop, pred, cls).value == F(1, 100)
    smc = audit_strict_multi_calibration(pop, pred, cls).value
    assert smc == F(41650, 125000)
    assert smc == grid_fixture_smc_closed_form(m)


def test_grid_fixture_small_m_sweep():
    for m in range(2, 10):
        pop, cls, pred = fixture_grid_population(m)
        assert audit_multi_calibration(pop, pred, cls).value == \
            grid_fixture_mc_closed_form(m)
        assert audit_strict_multi_calibration(pop, pred, cls).value == \
            grid_fixture_smc_closed_form(m)


def test_monotone_chain_small_sweep():
    rng = np.random.default_rng(2)
    for _ in range(25):
        pop, cls, pred = random_instance(rng, int(rng.integers(2, 10)),
                                         int(rng.integers(2, 4)),
                                         int(rng.integers(1, 5)))
        ma = audit_multi_accuracy(pop, pred, cls).value
        mc = audit_multi_calibration(pop, pred, cls).value
        smc = audit_strict_multi_calibration(pop, pred, cls).value
        assert ma <= mc <= smc


def test_strict_at_least_mc_on_fixture():
    pop, cls, pred = fixture_grid_population(6)
    assert audit_strict_multi_calibration(pop, pred, cls).value >= \
        audit_multi_calibration(pop, pred, cls).value


def test_audit_report_breakdown_recomputes_value():
    rng = np.random.default_rng(3)
    pop, cls, pred = random_instance(rng, 6, 2, 4)
    rep = audit_multi_calibration(pop, pred, cls)
    assert rep.value == max(rep.breakdown.values())
    assert rep.breakdown[rep.witness] == rep.value
    srep = audit_strict_multi_calibration(pop, pred, cls)
    assert srep.value == sum(r["mass"] * r["value"] for r in srep.breakdown.values())


def test_float_backend_close_to_rational():
    rng = np.random.default_rng(4)
    pop, cls, pred = random_instance(rng, 8, 3, 3)
    exact = audit_multi_calibration(pop, pred, cls).value
    approx = audit_multi_calibration(pop, pred, cls, backend="float").value
    assert abs(float(exact) - approx) < 1e-9


# ---------------------------------------------------------------------------
# covariance audit
# ---------------------------------------------------------------------------


def test_covariance_constant_hypothesis_zero():
    pop, _, pred = fixture_two_point()
    const = HypothesisClass((indicator_all(pop),))
    assert audit_covariance_mc(pop, pred, const).value == 0


def test_covariance_zero_on_singleton_levels():
    # injective ground-truth predictor: every level set is one individual
    rng = np.random.default_rng(5)
    pop, cls, _ = random_instance(rng, 6, 2, 3)
    values = {j: OutcomeDist.bernoulli(F(i + 1, pop.size + 1))
              for i, j in enumerate(pop.ids)}
    pred = Predictor(values)
    assert audit_covariance_mc(pop, pred, cls).value == 0


def test_covariance_bounded_by_multi_calibration():
    rng = np.random.default_rng(6)
    for _ in range(15):
        pop, cls, pred = random_instance(rng, 7, 2, 3, binary_hypotheses=False)
        cov = audit_covariance_mc(pop, pred, cls).value
        mc = audit_multi_calibration(pop, pred, cls).value
        assert cov <= mc


def test_covariance_requires_binary_outcomes():
    rng = np.random.default_rng(7)
    pop, cls, pred = random_instance(rng, 5, 3, 2)
    with pytest.raises(DomainError):
        audit_covariance_mc(pop, pred, cls)


# ---------------------------------------------------------------------------
# violation profiles and conditional checks
# ---------------------------------------------------------------------------


def test_violation_profile_two_point():
    pop, cls, pred = fixture_two_point()
    prof = violation_profile(pop, pred, cls)
    assert prof.value("all", F(0)) == F(1, 2)
    assert prof.value("all", F(1)) == F(1, 2)


def test_violation_profile_grid_matches_level_distance():
    m = 5
    pop, cls, pred = fixture_grid_population(m)
    prof = violation_profile(pop, pred, cls)
    for k in range(1, m + 1):
        v = F(k, m)
        # delta((c, modeled), (c, true) | level) = 2 v (1 - v); the one-sided
        # violation nabla at (c_k, v) is v(1 - v) / Pr[c_k = 1 | level]... the
        # direct conditional: Pr[o*=1 | c_k=1, level k] = 1, so nabla = 1 - v.
        assert prof.value(f"c{k}", v) == 1 - v


def test_violation_profile_zero_for_injective_truth():
    rng = np.random.default_rng(8)
    pop, cls, _ = random_instance(rng, 6, 2, 3)
    values = {j: OutcomeDist.bernoulli(F(i + 1, pop.size + 2))
              for i, j in enumerate(pop.ids)}
    pop2 = type(pop)(space=pop.space, ids=pop.ids, weight=pop.weight, p_true=values)
    prof = violation_profile(pop2, Predictor(values), cls)
    assert all(v == 0 for v in prof.entries.values())


def test_conditional_checks_pass_on_ground_truth():
    rng = np.random.default_rng(9)
    pop, cls, _ = random_instance(rng, 6, 2, 3)
    gt = pop.ground_truth_predictor()
    for kind in ("MA", "MC", "SMC"):
        assert check_conditional(pop, gt, cls, F(1, 100), kind).passed


def test_conditional_two_point_examples():
    pop, cls, pred = fixture_two_point()
    res_mc = check_conditional(pop, pred, cls, F(3, 10), "MC")
    assert not res_mc.passed  # both level slices have violation 1/2 > 0.3
    res_ma = check_conditional(pop, pred, cls, F(3, 10), "MA")
    assert res_ma.passed  # conditional outcome-frequency gap is 0


def _cbrt_upper(x: F) -> F:
    r = F(math.ceil(float(x) ** (1 / 3) * 10 ** 9), 10 ** 9)
    while r ** 3 < x:
        r += F(1, 10 ** 9)
    return r


def _sqrt_upper(x: F) -> F:
    r = F(math.ceil(math.sqrt(float(x)) * 10 ** 9), 10 ** 9)
    while r ** 2 < x:
        r += F(1, 10 ** 9)
    return r


def test_definition_bridge_forward_and_reverse():
    rng = np.random.default_rng(10)
    for _ in range(12):
        pop, cls, pred = random_instance(rng, int(rng.integers(3, 8)), 2,
                                         int(rng.integers(1, 4)),
                                         complement_closed=True)
        ma = audit_multi_accuracy(pop, pred, cls).value
        mc = audit_multi_calibration(pop, pred, cls).value
        smc = audit_strict_multi_calibration(pop, pred, cls).value
        if 0 < ma < 1:
            assert check_conditional(pop, pred, cls, _sqrt_upper(ma), "MA").passed
        if 0 < mc < 1:
            assert check_conditional(pop, pred, cls, _cbrt_upper(mc), "MC").passed
        if 0 < smc < 1:
            assert check_conditional(pop, pred, cls, _cbrt_upper(smc), "SMC").passed
        # reverse direction at a few epsilon values
        for eps in (F(1, 10), F(1, 4), F(1, 2)):
            if check_conditional(pop, pred, cls, eps, "MA").passed:
                assert ma <= 2 * eps
            if check_conditional(pop, pred, cls, eps, "MC").passed:
                assert mc <= 4 * eps
            if check_conditional(pop, pred, cls, eps, "SMC").passed:
                assert smc <= 3 * eps


def test_discretization_inequality_exact():
    rng = np.random.default_rng(11)
    grid = make_grid_with_denominator(binary_space(), 8)
    for _ in range(20):
        pop, cls, pred = random_instance(rng, int(rng.integers(2, 9)), 2,
                                         int(rng.integers(1, 4)))
        phat = discretize(pred, grid)
        lhs = audit_strict_multi_calibration(pop, phat, cls).value
        rhs = grid.size * audit_multi_calibration(pop, pred, cls).value + grid.eta
        assert lhs <= rhs


def test_conditional_requires_binary():
    rng = np.random.default_rng(12)
    pop, cls, pred = random_instance(rng, 5, 3, 2)
    with pytest.raises(DomainError):
        check_conditional(pop, pred, cls, F(1, 10), "MA")


def _empty_set(pop):
    return Hypothesis("empty", (0, 1), {j: 0 for j in pop.ids})


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("kind", ["MA", "MC", "SMC"])
def test_conditional_skips_zero_mass_sets(kind, backend):
    pop, cls, pred = fixture_two_point()
    alone = HypothesisClass((_empty_set(pop),))
    assert check_conditional(pop, pred, alone, 0, kind, backend).passed
    # adding a zero-mass set changes no verdict and no first violation
    both = HypothesisClass(cls.hypotheses + (_empty_set(pop),))
    for eps in (0, F(3, 10)):
        plain = check_conditional(pop, pred, cls, eps, kind, backend)
        padded = check_conditional(pop, pred, both, eps, kind, backend)
        assert (padded.passed, padded.first_violation) == (plain.passed, plain.first_violation)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_conditional_checks_pass_the_truth_under_float_weights_below_one(backend):
    """Weights 0.1, 0.2 and 0.7 sum to 1.0 as floats but to just below 1
    exactly, so the levels' masses total just below D; the truth passes
    every kind at eps 0 (SMC compares the mass outside V with eps)."""
    ids = ("a", "b", "c")
    weight = dict(zip(ids, (0.1, 0.2, 0.7)))
    assert sum(map(F, weight.values())) < 1
    truth = {j: OutcomeDist.bernoulli(F(k + 1, 4)) for k, j in enumerate(ids)}
    pop = PopulationInstance(binary_space(), ids, weight, truth)
    cls = HypothesisClass((indicator_all(pop),))
    gt = pop.ground_truth_predictor()
    for kind in ("MA", "MC", "SMC"):
        res = check_conditional(pop, gt, cls, 0, kind, backend)
        assert res.passed and res.first_violation is None, kind
    assert check_conditional(pop, gt, cls, 0, "SMC", backend).witness == [0.75, 0.5, 0.25]


@pytest.mark.parametrize("kind", ["MA", "MC", "SMC"])
def test_conditional_rejects_negative_epsilon(kind):
    pop, cls, pred = fixture_two_point()
    for backend in ("rational", "float"):
        with pytest.raises(DomainError):
            check_conditional(pop, pred, cls, F(-1, 10), kind, backend)
