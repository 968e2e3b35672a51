from fractions import Fraction as F

import numpy as np
import pytest

from multifair import (
    HypothesisClass,
    Hypothesis,
    LossFunction,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    audit_calibration,
    audit_multi_accuracy,
    binary_space,
    fixture_two_point,
    omni_audit,
    omni_bound_check,
    post_process,
    random_instance,
    zero_one_loss,
)
from multifair.errors import DomainError, RangeMismatchError


def test_post_process_majority():
    loss = zero_one_loss(binary_space())
    assert post_process(loss, OutcomeDist.bernoulli(F(7, 10))) == "1"
    assert post_process(loss, OutcomeDist.bernoulli(F(2, 10))) == "0"


def test_post_process_point_mass_unique_zero():
    space = binary_space()
    table = {("0", "a"): F(1, 2), ("0", "b"): F(1, 4),
             ("1", "a"): F(3, 4), ("1", "b"): F(0)}
    loss = LossFunction("custom", space, ("a", "b"), table)
    assert post_process(loss, OutcomeDist.bernoulli(F(1))) == "b"


def test_post_process_tie_breaks_to_first_action():
    loss = zero_one_loss(binary_space())
    assert post_process(loss, OutcomeDist.bernoulli(F(1, 2))) == "0"


def test_post_process_invariant_under_affine_rescale():
    space = binary_space()
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = {(o, y): F(int(rng.integers(0, 9)), 16)
               for o in space.labels for y in ("a", "b", "c")}
        loss = LossFunction("l", space, ("a", "b", "c"), raw)
        scaled = LossFunction("l2", space, ("a", "b", "c"),
                              {k: v / 2 + F(1, 4) for k, v in raw.items()})
        d = OutcomeDist.bernoulli(F(int(rng.integers(0, 17)), 16))
        assert post_process(loss, d) == post_process(scaled, d)


def test_omni_ground_truth_zero():
    rng = np.random.default_rng(1)
    pop, cls, _ = random_instance(rng, 6, 2, 3)
    gt = pop.ground_truth_predictor()
    rep = omni_audit(pop, gt, [zero_one_loss(pop.space)], cls)
    assert rep.value == 0


def test_omni_bayes_rule_in_class_ties_at_zero():
    # population with deterministic outcomes; the class contains the true rule
    space = binary_space()
    ids = ("a", "b")
    pop = type(fixture_two_point()[0])(
        space=space, ids=ids,
        weight={"a": F(1, 2), "b": F(1, 2)},
        p_true={"a": OutcomeDist.bernoulli(F(0)), "b": OutcomeDist.bernoulli(F(1))})
    bayes = Hypothesis("bayes", (0, 1), {"a": 0, "b": 1})
    cls = HypothesisClass((bayes,))
    gt = pop.ground_truth_predictor()
    rep = omni_audit(pop, gt, [zero_one_loss(space)], cls)
    assert rep.value == 0
    assert rep.breakdown[("zero-one", "bayes")] == 0


def test_omni_two_point_fixture_bound():
    pop, cls, pred = fixture_two_point()
    loss = zero_one_loss(pop.space)
    rep = omni_audit(pop, pred, [loss], cls)
    cal = audit_calibration(pop, pred)
    ma = audit_multi_accuracy(pop, pred, cls).value
    assert rep.value <= cal + ma
    chk = omni_bound_check(pop, pred, [loss], cls)
    assert chk["bound_holds"]


def test_omni_bound_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pop, cls, pred = random_instance(
            rng, int(rng.integers(2, 10)), 2, int(rng.integers(1, 5)))
        losses = [zero_one_loss(pop.space)]
        chk = omni_bound_check(pop, pred, losses, cls)
        assert chk["omni_audit"] <= chk["calibration"] + chk["multi_accuracy"]


def test_calibration_transfer_at_zero():
    # 0-calibrated: post-processed loss agrees on modeled and true outcomes
    rng = np.random.default_rng(3)
    pop, cls, _ = random_instance(rng, 5, 2, 2)
    gt = pop.ground_truth_predictor()
    assert audit_calibration(pop, gt) == 0
    loss = zero_one_loss(pop.space)
    post = {j: post_process(loss, gt.values[j]) for j in pop.ids}
    true_side = sum(F(pop.weight[j]) * sum(
        F(pop.p_true[j].weights[o]) * loss.cost(pop.space.labels[o], post[j])
        for o in range(2)) for j in pop.ids)
    modeled_side = sum(F(pop.weight[j]) * sum(
        F(gt.values[j].weights[o]) * loss.cost(pop.space.labels[o], post[j])
        for o in range(2)) for j in pop.ids)
    assert true_side == modeled_side


def test_range_mismatch_error():
    rng = np.random.default_rng(4)
    pop, _, pred = random_instance(rng, 4, 2, 1)
    bad = Hypothesis("bad", ("x", "y"), {j: "x" for j in pop.ids})
    cls = HypothesisClass((bad,))
    with pytest.raises(RangeMismatchError):
        omni_audit(pop, pred, [zero_one_loss(pop.space)], cls)


def test_loss_validation():
    space = binary_space()
    with pytest.raises(DomainError):
        LossFunction("bad", space, ("a",), {("0", "a"): F(3, 2), ("1", "a"): F(0)})
    with pytest.raises(DomainError):
        LossFunction("missing", space, ("a", "b"), {("0", "a"): F(1, 2)})


def test_covariance_omniprediction_numerical_check():
    # one shared prediction level, zero calibration error, zero conditional
    # covariance against a non-constant real-valued hypothesis, and a loss
    # convex in the action: the post-processed predictor beats the hypothesis
    space = binary_space()
    ids = ("a", "b", "c")
    third = F(1, 3)
    pop = type(fixture_two_point()[0])(
        space=space, ids=ids,
        weight={j: third for j in ids},
        p_true={"a": OutcomeDist.bernoulli(F(1, 5)),
                "b": OutcomeDist.bernoulli(F(2, 5)),
                "c": OutcomeDist.bernoulli(F(3, 5))})
    from multifair import Predictor, audit_covariance_mc
    pred = Predictor({j: OutcomeDist.bernoulli(F(2, 5)) for j in ids})
    assert audit_calibration(pop, pred) == 0
    c = Hypothesis("balanced", (F(0), F(2, 5), F(1, 2), F(2, 3), F(1)),
                   {"a": F(1, 2), "b": F(1), "c": F(1, 2)})
    cls = HypothesisClass((c,))
    assert audit_covariance_mc(pop, pred, cls).value == 0
    actions = (F(0), F(2, 5), F(1, 2), F(2, 3), F(1))
    table = {}
    for o in space.labels:
        ov = F(int(o))
        for y in actions:
            table[(o, y)] = (y - ov) ** 2  # squared loss, convex in the action
    sq = LossFunction("squared", space, actions, table)
    rep = omni_audit(pop, pred, [sq], cls)
    assert rep.value == 0
    assert all(gap <= 0 for gap in rep.breakdown.values())


def test_losses_sharing_a_name_are_rejected():
    # keyed by name, the second loss's gaps used to overwrite the first's
    pop, cls, pred = fixture_two_point()
    loss = zero_one_loss(pop.space)
    other = LossFunction("zero-one", pop.space, ("0", "1"),
                         {("0", "0"): F(0), ("0", "1"): F(1, 2),
                          ("1", "0"): F(1), ("1", "1"): F(0)})
    for losses in ([other, loss], [loss, loss]):
        with pytest.raises(DomainError):
            omni_audit(pop, pred, losses, cls)
        with pytest.raises(DomainError):
            omni_bound_check(pop, pred, losses, cls)


def test_bound_check_prepares_once_and_matches_the_separate_audits(monkeypatch):
    """The three audits of one bound check share one exact prepared
    population, and report what the three separate calls report."""
    from multifair import audits

    builds = []
    init = audits._Prepared.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[:1])
        init(self, *args, **kwargs)
    monkeypatch.setattr(audits._Prepared, "__init__", counted)
    rng = np.random.default_rng(4)
    for n, ell in ((12, 2), (40, 3)):
        pop, cls, pred = random_instance(rng, n, ell, 3)
        losses = [zero_one_loss(pop.space)]
        builds.clear()
        chk = omni_bound_check(pop, pred, losses, cls)
        assert len(builds) == 1
        omni = omni_audit(pop, pred, losses, cls)
        assert repr(chk["report"]) == repr(omni) and chk["report"].breakdown == omni.breakdown
        assert chk["omni_audit"] == omni.value and chk["witness"] == omni.witness
        assert chk["calibration"] == audit_calibration(pop, pred)
        assert chk["multi_accuracy"] == audit_multi_accuracy(pop, pred, cls).value
        assert chk["bound_holds"] == (omni.value <= chk["calibration"] + chk["multi_accuracy"])
        # the separate calls, and a float audit, read the bound check's build
        assert audit_multi_accuracy(pop, pred, cls, "float").value == \
            float(chk["multi_accuracy"])
        assert len(builds) == 1
    # the memo is kept per population and predictor object: another
    # population with the same ids, or another predictor, gets its own build,
    # which equals the build of a fresh predictor with the same values
    reordered = PopulationInstance(pop.space, pop.ids[::-1], pop.weight, pop.p_true)
    other = Predictor({j: pop.p_true[j] for j in pop.ids})
    for p, q in ((reordered, pred), (pop, other), (pop, pred)):
        builds.clear()
        got = (audit_calibration(p, q), omni_audit(p, q, losses, cls))
        assert builds == [(p,)] and q._prepared[0] is p
        twin = Predictor(dict(q.values))
        want = (audit_calibration(p, twin), omni_audit(p, twin, losses, cls))
        assert repr(got) == repr(want) and got[1].breakdown == want[1].breakdown
