"""Property tests of the population audits on hypothesis-drawn random instances."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    HypothesisClass,
    LossFunction,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_oi,
    audit_strict_multi_calibration,
    best_response,
    binary_space,
    check_conditional,
    discretize,
    fixture_grid_population,
    indicator_all,
    make_family,
    make_grid_with_denominator,
    oi_advantage,
    omni_audit,
    omni_bound_check,
    random_instance,
    violation_profile,
    zero_one_loss,
)
from multifair import audits
from multifair.audits import _prepared
from multifair.errors import DomainError
from oracles import _to_float
from test_audit_oracles import covariance_oracle
from test_oi_golden import KINDS as OI_KINDS
from test_oi_golden import _family as oi_family
from test_oi_golden import float_truth_instances

TOL = 1e-9


@st.composite
def instances(draw, binary_outcomes=False):
    """A small random instance; half the time its predictor is rounded to a
    coarse grid so that levels hold several individuals."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 7))
    ell = 2 if binary_outcomes else draw(st.sampled_from((2, 3)))
    binary = draw(st.booleans())
    pop, cls, pred = random_instance(np.random.default_rng(seed), n, ell,
                                     draw(st.integers(1, 3)), binary_hypotheses=binary)
    if draw(st.booleans()):
        pred = discretize(pred, make_grid_with_denominator(pop.space, 2))
    return pop, cls, pred


@settings(max_examples=40, deadline=None)
@given(instances())
def test_ma_mc_smc_chain(inst):
    pop, cls, pred = inst
    ma = audit_multi_accuracy(pop, pred, cls).value
    mc = audit_multi_calibration(pop, pred, cls).value
    smc = audit_strict_multi_calibration(pop, pred, cls).value
    assert 0 <= ma <= mc <= smc <= 1


def _close(exact, approx):
    return abs(float(exact) - approx) <= TOL


@settings(max_examples=40, deadline=None)
@given(instances())
def test_float_backend_agrees_with_rational(inst):
    pop, cls, pred = inst
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration):
        exact = audit(pop, pred, cls)
        approx = audit(pop, pred, cls, "float")
        assert _close(exact.value, approx.value)
        if audit is not audit_strict_multi_calibration:
            assert all(_close(exact.breakdown[k], approx.breakdown[k]) for k in exact.breakdown)


@settings(max_examples=40, deadline=None)
@given(instances(binary_outcomes=True))
def test_float_violation_profile_agrees_with_rational(inst):
    pop, cls, pred = inst
    if not cls.is_binary:
        return
    exact = violation_profile(pop, pred, cls).entries
    approx = violation_profile(pop, pred, cls, "float").entries
    assert len(exact) == len(approx)
    for (name, level), value in exact.items():
        assert _close(value, approx[(name, float(level))])


@pytest.mark.xfail(strict=True, reason=(
    "the rational covariance audit reports E|Cov| divided by the common "
    "denominator D; see test_audit_oracles"))
def test_float_covariance_agrees_with_rational():
    for seed in range(20):
        pop, cls, pred = random_instance(np.random.default_rng(seed), 6, 2, 3,
                                         binary_hypotheses=seed % 2 == 0)
        pred = discretize(pred, make_grid_with_denominator(pop.space, 2))
        exact = audit_covariance_mc(pop, pred, cls)
        approx = audit_covariance_mc(pop, pred, cls, "float")
        assert all(_close(exact.breakdown[k], approx.breakdown[k]) for k in exact.breakdown)


@st.composite
def float_predictor_instances(draw):
    """A random instance, a grid of denominator m, and a float predictor whose
    coordinates are floats of multiples of 1/(2m): each lies on, or within
    float error of, a boundary between two grid points."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 7))
    ell = draw(st.sampled_from((2, 3)))
    m = draw(st.sampled_from((2, 3, 5, 6)))
    pop, cls, _ = random_instance(np.random.default_rng(seed), n, ell, draw(st.integers(1, 3)))
    values = {}
    for j in pop.ids:
        cuts = sorted(draw(st.lists(st.integers(0, 2 * m), min_size=ell - 1, max_size=ell - 1)))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [2 * m])]
        values[j] = OutcomeDist(pop.space, tuple(float(Fraction(c, 2 * m)) for c in counts))
    return pop, cls, Predictor(values), make_grid_with_denominator(pop.space, m)


@settings(max_examples=60, deadline=None)
@given(float_predictor_instances())
def test_float_oi_audits_agree_with_rational_on_float_predictors(inst):
    # both backends round a float prediction as its exact value, so they
    # condition on the same grid points
    pop, cls, pred, grid = inst
    for kind in ("basic", "mc", "smc"):
        fam = make_family(kind, hypotheses=cls, grid=grid)
        assert _close(audit_oi(pop, pred, fam).value, audit_oi(pop, pred, fam, "float").value)
        for backend in ("rational", "float"):
            d, adv = best_response(pop, pred, fam, backend)
            assert _close(oi_advantage(pop, pred, d), adv)
            assert float(oi_advantage(pop, pred, d)) == float(adv)


def _assert_rounded(approx, exact):
    """`approx` is `exact` with every Fraction in it, dict keys included,
    replaced by its float(), compared with ==; everything else is equal and
    of the same type."""
    if isinstance(exact, Fraction):
        assert type(approx) is float and approx == float(exact), (approx, exact)
    elif isinstance(exact, OutcomeDist):
        assert type(approx) is OutcomeDist and approx.space == exact.space
        _assert_rounded(approx.weights, exact.weights)
    elif isinstance(exact, (list, tuple)):
        assert type(approx) is type(exact) and len(approx) == len(exact)
        for a, e in zip(approx, exact):
            _assert_rounded(a, e)
    elif isinstance(exact, dict):
        assert type(approx) is dict and len(approx) == len(exact)
        for (ka, va), (ke, ve) in zip(approx.items(), exact.items()):
            _assert_rounded(ka, ke)
            _assert_rounded(va, ve)
    elif dataclasses.is_dataclass(exact):
        assert type(approx) is type(exact)
        for f in dataclasses.fields(exact):
            _assert_rounded(getattr(approx, f.name), getattr(exact, f.name))
    else:
        assert type(approx) is type(exact) and approx == exact, (approx, exact)


def _families(pop, cls):
    grid = make_grid_with_denominator(pop.space, 2)
    fams = [make_family(kind, hypotheses=cls, grid=grid) for kind in ("basic", "mc", "smc")]
    fams.append(make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space))
    fams.append(make_family("explicit", members=fams[0].members()[:12]))
    return fams


@settings(max_examples=40, deadline=None)
@given(instances())
def test_float_results_are_the_rational_results_rounded(inst):
    pop, cls, pred = inst
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration):
        _assert_rounded(audit(pop, pred, cls, "float"), audit(pop, pred, cls))
    _assert_rounded(audit_calibration(pop, pred, "float"), audit_calibration(pop, pred))
    for fam in _families(pop, cls):
        _assert_rounded(audit_oi(pop, pred, fam, "float"), audit_oi(pop, pred, fam))
        d, adv = best_response(pop, pred, fam)
        fd, fadv = best_response(pop, pred, fam, "float")
        assert fd.name == d.name and repr(fd.payload) == repr(d.payload)
        _assert_rounded(fadv, adv)
        assert fadv == float(oi_advantage(pop, pred, fd))


@settings(max_examples=40, deadline=None)
@given(instances(binary_outcomes=True), st.sampled_from((0, Fraction(1, 10), 0.25)))
def test_binary_float_results_are_the_rational_results_rounded(inst, eps):
    pop, cls, pred = inst
    cov = audit_covariance_mc(pop, pred, cls, "float")
    for name, value in covariance_oracle(pop, pred, cls).items():
        assert cov.breakdown[name] == float(value)
    assert cov.value == max(cov.breakdown.values())
    if not cls.is_binary:
        return
    _assert_rounded(violation_profile(pop, pred, cls, "float"), violation_profile(pop, pred, cls))
    for kind in ("MA", "MC", "SMC"):
        _assert_rounded(check_conditional(pop, pred, cls, eps, kind, "float"),
                        check_conditional(pop, pred, cls, eps, kind))


def test_float_reports_keep_entries_whose_keys_round_to_one_float():
    """Levels 1/3 and 1/3 + 10^-30 round to one float.  The float violation
    profile and SMC breakdown keep both entries, under their exact keys,
    with every value rounded."""
    ids = ("a", "b")
    half = Fraction(1, 2)
    pop = PopulationInstance(binary_space(), ids, dict.fromkeys(ids, half),
                             dict.fromkeys(ids, OutcomeDist.bernoulli(half)))
    low = Fraction(1, 3)
    pred = Predictor({"a": OutcomeDist.bernoulli(low),
                      "b": OutcomeDist.bernoulli(low + Fraction(1, 10**30))})
    cls = HypothesisClass((indicator_all(pop),))
    for audit, entries in ((violation_profile, lambda r: r.entries),
                           (audit_strict_multi_calibration, lambda r: r.breakdown)):
        exact = entries(audit(pop, pred, cls))
        rounded = entries(audit(pop, pred, cls, "float"))
        assert len(exact) == 2 and len({_to_float(k) for k in exact}) == 1
        assert list(rounded) == list(exact)
        assert repr(list(rounded.values())) == repr([_to_float(v) for v in exact.values()])


@functools.cache
def _scale_instance(name):
    """Instances with hundreds of levels: 8 outcomes (142-bit D), 3000
    individuals, the int64 grid fixture, and a predictor whose levels
    include the int point masses (1, 0) and (0, 1)."""
    if name == "rand600x8":
        return random_instance(np.random.default_rng(81), 600, 8, 4)
    if name == "rand3000x2":
        return random_instance(np.random.default_rng(82), 3000, 2, 8)
    if name == "grid50":
        return fixture_grid_population(50)
    pop, cls, pred = random_instance(np.random.default_rng(83), 600, 2, 4)
    values = {j: OutcomeDist.point_mass(pop.space, "01"[k % 2]) if k % 3 else pred.values[j]
              for k, j in enumerate(pop.ids)}
    return pop, cls, Predictor(values)


def _fields(r) -> list:
    """The repr of each field of a report, and of each (key, value) of a dict field."""
    out = []
    for f in dataclasses.fields(r):
        x = getattr(r, f.name)
        out += list(map(repr, x.items())) if isinstance(x, dict) else [repr(x)]
    return out


def _assert_population_reports_rounded(pop, cls, pred, epsilons):
    """Each population audit's float report is `_to_float` of its rational
    report, by repr; the rational covariance report is E|Cov| / D (ROADMAP
    item 1), so it is multiplied by D before rounding."""
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration):
        assert _fields(audit(pop, pred, cls, "float")) == _fields(_to_float(audit(pop, pred, cls)))
    assert repr(audit_calibration(pop, pred, "float")) == repr(
        _to_float(audit_calibration(pop, pred)))
    assert type(audit_calibration(pop, pred, "float")) is float
    if not pop.space.is_binary:
        return
    D = _prepared(pop, pred).D
    cov = audit_covariance_mc(pop, pred, cls)
    cov = dataclasses.replace(cov, value=cov.value * D,
                              breakdown={k: v * D for k, v in cov.breakdown.items()})
    assert _fields(audit_covariance_mc(pop, pred, cls, "float")) == _fields(_to_float(cov))
    assert _fields(violation_profile(pop, pred, cls, "float")) == _fields(
        _to_float(violation_profile(pop, pred, cls)))
    for eps in epsilons:
        for kind in ("MA", "MC", "SMC"):
            assert _fields(check_conditional(pop, pred, cls, eps, kind, "float")) == _fields(
                _to_float(check_conditional(pop, pred, cls, eps, kind)))


@pytest.mark.parametrize("name", ("rand600x8", "rand3000x2", "grid50", "ints600x2"))
def test_float_reports_are_the_rational_reports_rounded_at_scale(name):
    """Each population audit's float report is `_to_float` of its rational
    report, by repr (`_assert_population_reports_rounded`).  On the binary
    instances every conditional kind fails at eps 1/100 and passes at 1/2."""
    pop, cls, pred = _scale_instance(name)
    if name == "ints600x2":
        assert {0, 1} <= {w for level in _prepared(pop, pred).levels for w in level.weights
                          if type(w) is int}
    _assert_population_reports_rounded(pop, cls, pred, (
        Fraction(1, 100), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)))


def _omni_losses(space):
    """The zero-one loss and a loss on the actions 0 and 1 with costs in sixths."""
    costs = {(o, a): Fraction((3 * i + 2 * a + 1) % 7, 6)
             for i, o in enumerate(space.labels) for a in (0, 1)}
    return [zero_one_loss(space), LossFunction("sixths", space, (0, 1), costs)]


def test_population_audits_round_where_they_make_each_number():
    """No report is rounded after it is made: `multifair.audits` keeps no
    `_to_float` or `_rounding`.  Every float report, of the population
    audits, of `audit_oi` and `best_response` for every family kind and of
    `omni_bound_check`, is its rational report passed once through the
    oracle `_to_float`, by repr, with the same exact member; and the float
    bound check decides `bound_holds` as the rational one does."""
    assert not hasattr(audits, "_to_float") and not hasattr(audits, "_rounding")
    pop, cls, pred = random_instance(np.random.default_rng(84), 40, 2, 3)
    _assert_population_reports_rounded(pop, cls, pred, (Fraction(1, 10),))
    for pop, cls, m, pred in [(pop, cls, 2, pred), *float_truth_instances()]:
        for kind in OI_KINDS:
            fam = oi_family(kind, pop, cls, m)
            assert _fields(audit_oi(pop, pred, fam, "float")) == _fields(
                _to_float(audit_oi(pop, pred, fam)))
            d, adv = best_response(pop, pred, fam)
            fd, fadv = best_response(pop, pred, fam, "float")
            assert repr((fd.name, fd.payload, fd.negated, fadv)) == repr(
                (d.name, d.payload, d.negated, _to_float(adv)))
        losses = _omni_losses(pop.space)
        check = omni_bound_check(pop, pred, losses, cls)
        fcheck = omni_bound_check(pop, pred, losses, cls, "float")
        assert fcheck["bound_holds"] is check["bound_holds"]
        assert _fields(fcheck.pop("report")) == _fields(_to_float(check.pop("report")))
        assert repr(fcheck) == repr(_to_float(check))


def _oi_call(call, kind):
    return lambda pop, cls, pred, b: call(pop, pred, oi_family(kind, pop, cls, 2), b)


BACKEND_CALLS = {
    "ma": lambda pop, cls, pred, b: audit_multi_accuracy(pop, pred, cls, b),
    "mc": lambda pop, cls, pred, b: audit_multi_calibration(pop, pred, cls, b),
    "smc": lambda pop, cls, pred, b: audit_strict_multi_calibration(pop, pred, cls, b),
    "calibration": lambda pop, cls, pred, b: audit_calibration(pop, pred, b),
    "covariance": lambda pop, cls, pred, b: audit_covariance_mc(pop, pred, cls, b),
    "violation_profile": lambda pop, cls, pred, b: violation_profile(pop, pred, cls, b),
    **{f"check_conditional-{kind}": (
        lambda pop, cls, pred, b, kind=kind: check_conditional(pop, pred, cls, Fraction(1, 10),
                                                               kind, b))
       for kind in ("MA", "MC", "SMC")},
    **{f"audit_oi-{kind}": _oi_call(audit_oi, kind) for kind in OI_KINDS},
    **{f"best_response-{kind}": _oi_call(best_response, kind) for kind in OI_KINDS},
    "omni_audit": lambda pop, cls, pred, b: omni_audit(pop, pred, _omni_losses(pop.space),
                                                       cls, b),
    "omni_bound_check": lambda pop, cls, pred, b: omni_bound_check(
        pop, pred, _omni_losses(pop.space), cls, b),
}


@pytest.mark.parametrize("call", BACKEND_CALLS.values(), ids=list(BACKEND_CALLS))
def test_every_backend_taking_call_refuses_an_unknown_backend(call):
    pop, cls, pred = random_instance(np.random.default_rng(85), 6, 2, 2)
    for backend in ("rational", "float"):
        call(pop, cls, pred, backend)
    with pytest.raises(DomainError, match="unknown backend 'decimal'"):
        call(pop, cls, pred, "decimal")
