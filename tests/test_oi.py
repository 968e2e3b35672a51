from fractions import Fraction as F

import numpy as np
import pytest

from multifair import (
    Distinguisher,
    OutcomeDist,
    Predictor,
    SimplexGrid,
    audit_multi_calibration,
    audit_oi,
    audit_oi_mc_bruteforce,
    audit_strict_multi_calibration,
    best_response,
    binary_space,
    discretize,
    fixture_grid_population,
    fixture_two_point,
    grid_fixture_mc_closed_form,
    grid_fixture_smc_closed_form,
    make_family,
    make_grid_with_denominator,
    oi_advantage,
    random_instance,
)
from multifair.errors import ConstructionError, DomainError, EnumerationLimitError
from multifair.oi import monomial_multisets


def identity_grid():
    return SimplexGrid.from_points(
        [OutcomeDist.bernoulli(F(0)), OutcomeDist.bernoulli(F(1))], eta=F(1, 2))


def test_advantage_zero_on_ground_truth():
    rng = np.random.default_rng(0)
    pop, cls, _ = random_instance(rng, 6, 2, 2)
    gt = pop.ground_truth_predictor()
    grid = identity_grid()
    fam = make_family("mc", hypotheses=cls, grid=grid)
    d, adv = best_response(pop, gt, fam)
    assert adv == 0
    assert audit_oi(pop, gt, fam).value == 0


def test_constant_distinguisher_zero_advantage():
    pop, _, pred = fixture_two_point()
    one = Distinguisher("const", lambda j, o, p: 1)
    assert oi_advantage(pop, pred, one) == 0


def test_unknown_backend_rejected():
    pop, cls, pred = fixture_two_point()
    grid = identity_grid()
    fam = make_family("mc", hypotheses=cls, grid=grid)
    with pytest.raises(DomainError):
        audit_oi(pop, pred, fam, backend="ratonal")
    with pytest.raises(DomainError):
        best_response(pop, pred, fam, backend="ratonal")
    with pytest.raises(DomainError):
        audit_oi_mc_bruteforce(pop, pred, cls, grid, backend="ratonal")


def test_two_point_cell_advantage_quarter():
    pop, _, pred = fixture_two_point()
    grid = identity_grid()
    def fn(j, o, p, _g=grid):
        return 1 if (o == "1" and _g.round_dist(p.values[j].as_exact()).p_one() == 1) else 0
    d = Distinguisher("o1-and-phat1", fn)
    assert oi_advantage(pop, pred, d) == F(1, 4)


def test_two_point_mc_best_response_event():
    pop, cls, pred = fixture_two_point()
    fam = make_family("mc", hypotheses=cls, grid=identity_grid())
    d, adv = best_response(pop, pred, fam)
    assert adv == F(1, 2)
    assert adv == audit_oi(pop, pred, fam).value
    cells = {(y, o, tuple(float(w) for w in g)) for y, o, g in d.payload["event_cells"]}
    # the positive-mass event: (1, outcome 0, level 0) and (1, outcome 1, level 1)
    assert cells == {(1, "0", (1.0, 0.0)), (1, "1", (0.0, 1.0))}
    assert oi_advantage(pop, pred, d) == F(1, 2)


def test_mc_audit_equals_mc_of_discretized_when_grid_valued():
    m = 5
    pop, cls, pred = fixture_grid_population(m)
    grid = make_grid_with_denominator(pop.space, m)
    fam = make_family("mc", hypotheses=cls, grid=grid)
    # the fixture predictor is already grid valued, so equality is exact
    assert audit_oi(pop, pred, fam).value == \
        audit_multi_calibration(pop, pred, cls).value == grid_fixture_mc_closed_form(m)
    fam_smc = make_family("smc", hypotheses=cls, grid=grid)
    assert audit_oi(pop, pred, fam_smc).value == \
        audit_strict_multi_calibration(pop, pred, cls).value == \
        grid_fixture_smc_closed_form(m)
    # the same identities on discretized random predictors with more outcomes
    rng = np.random.default_rng(11)
    for ell, m in ((3, 2), (3, 3), (8, 1), (8, 2)):
        for _ in range(3):
            pop, cls, pred = random_instance(rng, 12, ell, 3)
            grid = make_grid_with_denominator(pop.space, m)
            phat = discretize(pred, grid)
            assert audit_oi(pop, phat, make_family("mc", hypotheses=cls, grid=grid)).value == \
                audit_multi_calibration(pop, phat, cls).value
            assert audit_oi(pop, phat, make_family("smc", hypotheses=cls, grid=grid)).value == \
                audit_strict_multi_calibration(pop, phat, cls).value


@pytest.mark.parametrize("ell", [2, 3, 8])
def test_float_oi_audits_close_to_rational(ell):
    rng = np.random.default_rng(100 + ell)
    for _ in range(4):
        pop, cls, pred = random_instance(rng, 10, ell, 3)
        grid = make_grid_with_denominator(pop.space, 2)
        fams = [make_family(k, hypotheses=cls, grid=grid) for k in ("basic", "mc", "smc")]
        fams.append(make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space))
        for fam in fams:
            exact = audit_oi(pop, pred, fam).value
            approx = audit_oi(pop, pred, fam, backend="float").value
            assert isinstance(approx, (int, float))
            assert abs(float(exact) - approx) < 1e-9


def test_mc_audit_eta_slack_in_general():
    rng = np.random.default_rng(1)
    grid = make_grid_with_denominator(binary_space(), 4)
    for _ in range(10):
        pop, cls, pred = random_instance(rng, 6, 2, 3)
        fam = make_family("mc", hypotheses=cls, grid=grid)
        oi_val = audit_oi(pop, pred, fam).value
        phat = discretize(pred, grid)
        mc_hat = audit_multi_calibration(pop, phat, cls).value
        assert abs(oi_val - mc_hat) <= grid.eta
        assert mc_hat <= oi_val + grid.eta


def test_mc_closed_form_equals_bruteforce_oracle():
    rng = np.random.default_rng(2)
    grid = SimplexGrid.from_points(
        [OutcomeDist.bernoulli(F(0)), OutcomeDist.bernoulli(F(1, 2)),
         OutcomeDist.bernoulli(F(1))], eta=F(1, 4))
    for _ in range(10):
        pop, cls, pred = random_instance(rng, 5, 2, 2)
        fam = make_family("mc", hypotheses=cls, grid=grid)
        assert audit_oi(pop, pred, fam).value == \
            audit_oi_mc_bruteforce(pop, pred, cls, grid)


def test_basic_family_member_count_and_audit():
    rng = np.random.default_rng(3)
    pop, cls, pred = random_instance(rng, 5, 2, 3)
    grid = make_grid_with_denominator(binary_space(), 4)
    fam = make_family("basic", hypotheses=cls, grid=grid)
    assert fam.member_count() == 3 * 2 * 2 * 5  # |C| |Y| outcomes |G| = 60
    members = fam.members()
    assert len(members) == 60
    rep = audit_oi(pop, pred, fam)
    worst = max(abs(oi_advantage(pop, pred, d)) for d in members)
    assert rep.value == worst
    d, adv = best_response(pop, pred, fam)
    assert adv == worst
    assert abs(oi_advantage(pop, pred, d)) == worst


def test_basic_best_response_with_no_nonzero_cell():
    # under the ground truth no cell of any hypothesis gets a nonzero mass
    pop, cls, _ = fixture_two_point()
    gt = pop.ground_truth_predictor()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    d, adv = best_response(pop, gt, fam)
    assert adv == 0 and isinstance(adv, F)
    assert oi_advantage(pop, gt, d) == 0
    assert d.payload["event_cells"] == [(0, "0", (1, 0))]


def test_implicit_family_counts():
    rng = np.random.default_rng(4)
    _, cls, _ = random_instance(rng, 4, 2, 3)
    grid = make_grid_with_denominator(binary_space(), 4)
    mc = make_family("mc", hypotheses=cls, grid=grid)
    assert mc.member_count() == 3 * 2 ** (2 * 2 * 5)
    smc = make_family("smc", hypotheses=cls, grid=grid)
    assert smc.member_count() == 3 ** 5 * 2 ** (2 * 2 * 5)
    with pytest.raises(EnumerationLimitError):
        mc.members()


def test_lowdegree_counts_and_degenerate_k1():
    assert len(monomial_multisets(4, 2)) == 5  # constant plus 4 coordinates
    assert len(monomial_multisets(4, 1)) == 1
    rng = np.random.default_rng(5)
    pop, cls, pred = random_instance(rng, 5, 4, 2)
    fam = make_family("lowdegree", hypotheses=cls, degree=1, outcome_space=pop.space)
    assert fam.member_count() == 2 * 4 * 1
    # degree < 1 means the constant monomial: members are per-outcome indicators
    rep = audit_oi(pop, pred, fam)
    worst = 0
    for h in cls:
        for o_idx, o in enumerate(pop.space.labels):
            total = sum(F(pop.weight[j]) * h.values[j] *
                        (F(pred.values[j].weights[o_idx]) -
                         F(pop.p_true[j].weights[o_idx])) for j in pop.ids)
            worst = max(worst, abs(total))
    assert rep.value == worst


def test_lowdegree_uses_raw_predictions():
    # the monomial is evaluated on the raw prediction, not a rounded one
    rng = np.random.default_rng(6)
    pop, cls, pred = random_instance(rng, 4, 2, 2)
    fam = make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    d, adv = best_response(pop, pred, fam)
    assert adv == abs(oi_advantage(pop, pred, d))


def test_sample_access_probe():
    pop, cls, pred = fixture_two_point()
    grid = identity_grid()
    fam = make_family("basic", hypotheses=cls, grid=grid)
    other = Predictor({"0": pred.values["0"], "1": OutcomeDist.bernoulli(F(1, 3))})
    for d in fam.members():
        for o in pop.space.labels:
            assert d.evaluate("0", o, pred) == d.evaluate("0", o, other)


def test_theorem_basic_family_bound():
    # strict audit of the rounded predictor <= |Y| l |G| / 2 * basic audit + eta
    rng = np.random.default_rng(7)
    grid = make_grid_with_denominator(binary_space(), 2)
    for _ in range(10):
        pop, cls, pred = random_instance(rng, 5, 2, 2)
        fam = make_family("basic", hypotheses=cls, grid=grid)
        basic = audit_oi(pop, pred, fam).value
        phat = discretize(pred, grid)
        smc_hat = audit_strict_multi_calibration(pop, phat, cls).value
        bound = F(2 * 2 * grid.size, 2) * basic + grid.eta
        assert smc_hat <= bound


def test_family_validation_errors():
    rng = np.random.default_rng(8)
    _, cls, _ = random_instance(rng, 4, 2, 2)
    with pytest.raises(ConstructionError):
        make_family("mc", hypotheses=cls)  # grid missing
    with pytest.raises(ConstructionError):
        make_family("lowdegree", hypotheses=cls, degree=0,
                    outcome_space=binary_space())
    with pytest.raises(ConstructionError):
        make_family("explicit")


def test_negation_closure_flags():
    rng = np.random.default_rng(9)
    _, cls, _ = random_instance(rng, 4, 2, 2)
    grid = identity_grid()
    assert make_family("mc", hypotheses=cls, grid=grid).negation_closed
    assert make_family("smc", hypotheses=cls, grid=grid).negation_closed
    assert not make_family("basic", hypotheses=cls, grid=grid).negation_closed


def test_sample_access_probe_mc_and_lowdegree():
    pop, cls, pred = fixture_two_point()
    grid = identity_grid()
    fam = make_family("mc", hypotheses=cls, grid=grid)
    d, _ = best_response(pop, pred, fam)
    other = Predictor({"0": pred.values["0"], "1": OutcomeDist.bernoulli(F(2, 5))})
    for o in pop.space.labels:
        assert d.evaluate("0", o, pred) == d.evaluate("0", o, other)
    fam2 = make_family("lowdegree", hypotheses=cls, degree=2,
                       outcome_space=pop.space)
    d2, _ = best_response(pop, pred, fam2)
    for o in pop.space.labels:
        assert d2.evaluate("0", o, pred) == d2.evaluate("0", o, other)
