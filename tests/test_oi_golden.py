"""Golden outputs of the OI reduction.

Each case runs `oi._reduce` for one family kind on fixed seeded instances
with 0/1 classes, and pins the sha256 of the `repr` of (value, witness,
breakdown, member name, payload, advantage).  Every instance is reduced
twice: with its own exact predictor and with that predictor after one MWU
step, whose predictions are floats.  The digests were recorded before the
one cell-table kernel and the event members built from its rows went in;
any change to a value, a witness, a tie-break or a member's payload shows
up here.  The float backend is pinned to the same records: its report and
advantage are the exact ones passed once through `oracles._to_float`, and
its member is the exact one.

A second case pins the event families on populations whose truth rows
are floats whose exact values do not sum to 1, under exact and float
weights; its digests were recorded when the population table began to
read each truth row as a prediction is read (`core._exact_ratios`, whose
first largest weight absorbs the deficit), so that every (level, y)
block of the cell table sums to 0.  The properties that rely on that
are asserted on the same instances below.
"""

import hashlib

import numpy as np
import pytest

from multifair import (
    LossTable,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    audit_multi_calibration,
    audit_oi,
    audit_strict_multi_calibration,
    best_response,
    discretize,
    make_family,
    make_grid_with_denominator,
    mwu_rule,
    oi_advantage,
    random_instance,
    update,
)
from multifair.audits import _prepared
from multifair.oi import Distinguisher, _reduce
from oracles import _to_float, audit_oi_mc_bruteforce

GOLDEN = {
    "basic": "182ce2555164dda1e4a80d30f5a28a39d1c41125e0be8d31f665df8b3524b104",
    "mc": "f7b088713f7178ef950e116b793f23ff378721044dbdd6bf30af125c3746d174",
    "smc": "ab7bb04664dba1f99be5b58b0a74d5e45849927644f246a665452a878b538ea9",
    "lowdegree": "41033063bab133c61b7636b5308925f9daddbeebc28feb513f408c2c540a8eb7",
    "explicit": "36d219de7ec485de8f2305503786c557e4173e98f186be037ffa06eaa1c9845d",
}

FLOAT_TRUTH_GOLDEN = {
    "basic": "992acac7c6edbb15176221ccadc536c7b50fa998d40c833081eb5c9896b67bac",
    "mc": "afe3f4c6a8bc496bafe9533e2028b79cad26d80ea9bc23abff00c78a5b847f18",
    "smc": "3fb56f9ed92109eb61c0da3292b65da84e1f33f2e242c3c566705f4b3f408c61",
}

KINDS = ("basic", "mc", "smc", "lowdegree", "explicit")

# float truth rows; the exact values of all but (0.3, 0.3, 0.4) miss 1 by 2^-55 or 2^-54
FLOAT_ROWS = {2: ((0.1, 0.9), (0.3, 0.7), (0.2, 0.8)),
              3: ((0.1, 0.2, 0.7), (0.6, 0.3, 0.1), (0.3, 0.3, 0.4))}


def _one_vertex(j, o, p):
    """1 at the first outcome when it carries at least half of p_j's mass."""
    d = p.values[j]
    return 1 if o == d.space.labels[0] and 2 * d.weights[0] >= 1 else 0


def _family(kind, pop, cls, m):
    grid = make_grid_with_denominator(pop.space, m)
    if kind == "lowdegree":
        return make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    if kind == "explicit":
        basic = make_family("basic", hypotheses=cls, grid=grid).members()
        return make_family("explicit", members=basic + [Distinguisher("half", _one_vertex)])
    return make_family(kind, hypotheses=cls, grid=grid)


def _instances():
    for seed, (n, ell, nh, m) in enumerate(((8, 2, 3, 4), (12, 3, 4, 2), (10, 4, 2, 2))):
        pop, cls, pred = random_instance(np.random.default_rng([seed, 47]), n, ell, nh)
        yield pop, cls, m, pred
        yield pop, cls, m, _stepped(pop, pred)


def float_truth_instances():
    """(pop, cls, m, predictor) on random instances whose truth rows are
    replaced by `FLOAT_ROWS`, under their exact weights and under float
    weights (k + 1) / T, whose exact sum misses 1 (by -2^-55 for n = 8).  Each
    is reduced with its exact predictor, that predictor after one MWU
    step, and the ground truth, whose exact ratios absorb the rows'
    float deficit, so its table is not zero."""
    for seed, (n, ell, nh, m) in enumerate(((8, 2, 3, 4), (9, 3, 3, 2), (7, 3, 2, 3))):
        pop, cls, pred = random_instance(np.random.default_rng([seed, 53]), n, ell, nh)
        rows = FLOAT_ROWS[ell]
        truth = {j: OutcomeDist(pop.space, rows[k % len(rows)]) for k, j in enumerate(pop.ids)}
        total = n * (n + 1) // 2
        float_weight = {j: (k + 1) / total for k, j in enumerate(pop.ids)}
        for weight in (pop.weight, float_weight):
            fpop = PopulationInstance(pop.space, pop.ids, weight, truth)
            for p in (pred, _stepped(fpop, pred), fpop.ground_truth_predictor()):
                yield fpop, cls, m, p


def _stepped(pop, pred):
    """The predictor after one multiplicative-weights step: float predictions."""
    rule = mwu_rule(pop.space, 0.3)
    loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(pop.space.size)))
    return Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})


def _records(kind, backend, instances=_instances):
    """Per instance: (value, witness, breakdown, member name, payload,
    advantage) of the audit and best response under the backend."""
    records = []
    for pop, cls, m, pred in instances():
        fam = _family(kind, pop, cls, m)
        if backend == "rational":
            report, d, adv = _reduce(_prepared(pop, pred, fam.grid), fam)
        else:
            report = audit_oi(pop, pred, fam, backend)
            d, adv = best_response(pop, pred, fam, backend)
        records.append((report.value, report.witness, report.breakdown, d.name, d.payload, adv))
    return records


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_oi_reduction_is_pinned(kind, backend):
    exact = _records(kind, "rational")
    if backend == "rational":
        assert hashlib.sha256(repr(exact).encode()).hexdigest() == GOLDEN[kind]
        return
    want = [(*_to_float((value, witness, breakdown)), name, payload, _to_float(adv))
            for value, witness, breakdown, name, payload, adv in exact]
    assert repr(_records(kind, "float")) == repr(want)


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("kind", ["basic", "mc", "smc"])
def test_oi_reduction_on_float_truths_is_pinned(kind, backend):
    exact = _records(kind, "rational", float_truth_instances)
    if backend == "rational":
        assert hashlib.sha256(repr(exact).encode()).hexdigest() == FLOAT_TRUTH_GOLDEN[kind]
        return
    want = [(*_to_float((value, witness, breakdown)), name, payload, _to_float(adv))
            for value, witness, breakdown, name, payload, adv in exact]
    assert repr(_records(kind, "float", float_truth_instances)) == repr(want)


# The three properties below need every (level, y) block of the cell table to
# sum to 0, which holds on float truths because a truth row is read as a
# prediction is read; reading its raw binary value broke each of them.


def test_best_response_attains_the_audit_on_float_truths():
    """The best response's own advantage is the audit value: a complement
    1 - A is priced at -Delta_A, which needs the table to sum to 0."""
    for kind in KINDS:
        for pop, cls, m, pred in float_truth_instances():
            fam = _family(kind, pop, cls, m)
            d, adv = best_response(pop, pred, fam)
            assert oi_advantage(pop, pred, d) == adv == audit_oi(pop, pred, fam).value


def test_oi_event_families_equal_mc_and_smc_on_grid_valued_float_truths():
    """OI-mc = MC and OI-smc = SMC on grid-valued predictors."""
    for pop, cls, m, pred in float_truth_instances():
        grid = make_grid_with_denominator(pop.space, m)
        phat = discretize(pred, grid)
        assert audit_oi(pop, phat, make_family("mc", hypotheses=cls, grid=grid)).value == \
            audit_multi_calibration(pop, phat, cls).value
        assert audit_oi(pop, phat, make_family("smc", hypotheses=cls, grid=grid)).value == \
            audit_strict_multi_calibration(pop, phat, cls).value


def test_mc_audit_equals_the_event_enumeration_on_float_truths():
    """The mc closed form equals the literal max over every event, on the
    binary float-truth instances at grid denominator 1 (8 cells; the
    others pass the oracle's cap)."""
    checked = 0
    for pop, cls, _, pred in float_truth_instances():
        if pop.space.size != 2:
            continue
        grid = make_grid_with_denominator(pop.space, 1)
        assert audit_oi(pop, pred, make_family("mc", hypotheses=cls, grid=grid)).value == \
            audit_oi_mc_bruteforce(pop, pred, cls, grid)
        checked += 1
    assert checked == 6
