import functools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    Distinguisher,
    Hypothesis,
    HypothesisClass,
    LossTable,
    OutcomeDist,
    OutcomeSpace,
    Predictor,
    SimplexGrid,
    audit_multi_calibration,
    audit_oi,
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
    mwu_rule,
    oi_advantage,
    random_instance,
    stat_distance,
    update,
)
from multifair.audits import _prepared
from multifair.errors import ConstructionError, DomainError, EnumerationLimitError
from multifair.oi import (
    _reduce,
    mc_event_distinguisher,
    monomial_distinguisher,
    monomial_multisets,
    negate,
)
from oracles import audit_oi_mc_bruteforce, first_reached_cell
from test_oi_golden import float_truth_instances
from test_prepared import _predictor, populations


def _value_at(d, pop, pred, j, o, rows=None):
    """The member's value at (j, o) on the raw predictor, looked up by id and
    label in `rows`, its per-individual rows, which are evaluated here when
    not given."""
    rows = d.values(pop, pred) if rows is None else rows
    return rows[pop.ids.index(j)][pop.space.index(o)]


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oi_mc_and_smc_equal_mc_and_smc_on_grid_valued_predictors(data):
    """The generated form of the seeded identities above: exact, MWU-stepped
    and shared predictions discretized onto a denominator-2 or -3 grid,
    against a class of 2- or 3-valued hypotheses."""
    pop = data.draw(populations())
    grid = make_grid_with_denominator(pop.space, data.draw(st.sampled_from((2, 3))))
    phat = discretize(_predictor(data.draw, pop), grid)
    values = tuple(range(data.draw(st.sampled_from((2, 3)))))
    cls = HypothesisClass(tuple(
        Hypothesis(f"c{k}", values, {j: data.draw(st.sampled_from(values)) for j in pop.ids})
        for k in range(data.draw(st.integers(1, 3)))))
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
            assert _value_at(d, pop, pred, "0", o) == _value_at(d, pop, other, "0", o)


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
        assert _value_at(d, pop, pred, "0", o) == _value_at(d, pop, other, "0", o)
    fam2 = make_family("lowdegree", hypotheses=cls, degree=2,
                       outcome_space=pop.space)
    d2, _ = best_response(pop, pred, fam2)
    for o in pop.space.labels:
        assert _value_at(d2, pop, pred, "0", o) == _value_at(d2, pop, other, "0", o)


@functools.lru_cache(maxsize=None)
def _nearest_point(grid, dist):
    """The first grid point of least statistical distance to the exactified dist."""
    return min(grid.iter_points(), key=lambda g: stat_distance(dist.as_exact(), g))


def _oracle_value(d, pop, cls, grid, j, o, pred):
    """A member's value at (j, o), read literally off its payload."""
    payload = d.payload
    by_name = {h.name: h for h in cls}
    if "monomial_indices" in payload:
        h = by_name[payload["hypothesis"]]
        v = 0
        if o == payload["outcome"]:
            v = h.values[j]
            for i in payload["monomial_indices"]:
                v = v * pred.values[j].weights[i]
    else:
        point = tuple(_nearest_point(grid, pred.values[j]).weights)
        if "assignment" in payload:
            name = payload["assignment"].get(str(point))
        else:
            name = payload["hypothesis"]
        cells = {(y, oo, tuple(w)) for y, oo, w in payload["event_cells"]}
        v = int(name is not None and (by_name[name].values[j], o, point) in cells)
    return 1 - v if payload.get("negated") else v


@pytest.mark.parametrize("ell", [2, 3, 8])
def test_population_evaluation_matches_payload_oracle(ell):
    rng = np.random.default_rng(200 + ell)
    for _ in range(2):
        pop, cls, pred = random_instance(rng, 8, ell, 3)
        grid = make_grid_with_denominator(pop.space, 2)
        # one MWU step leaves float predictions whose exact sums miss 1
        rule = mwu_rule(pop.space, 0.7)
        losses = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        fpred = Predictor({j: update(rule, pred.values[j], losses) for j in pop.ids})
        assert any(sum(F(w) for w in fpred.values[j].weights) != 1 for j in pop.ids)
        fam_low = make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
        for p in (pred, fpred):
            members = [best_response(pop, p, make_family(k, hypotheses=cls, grid=grid))[0]
                       for k in ("basic", "mc", "smc")]
            members += [best_response(pop, p, fam_low)[0]] + fam_low.members()
            # the payload marks a negation but not how many: complement each once
            members += [negate(d) for d in members if not d.payload.get("negated")]
            for d in members:
                rows = d.values(pop, p)
                for j, row in zip(pop.ids, rows):
                    for o, v in zip(pop.space.labels, row):
                        want = _oracle_value(d, pop, cls, grid, j, o, p)
                        assert v == want and _value_at(d, pop, p, j, o, rows) == want, (d.name, j, o)


def test_negate_complements_and_double_negation_restores():
    rng = np.random.default_rng(12)
    pop, cls, pred = random_instance(rng, 6, 3, 2)
    grid = make_grid_with_denominator(pop.space, 2)
    explicit = Distinguisher("o0", lambda j, o, p: F(1, 3) if o == "0" else 0)
    members = [explicit,
               best_response(pop, pred, make_family("mc", hypotheses=cls, grid=grid))[0],
               make_family("lowdegree", hypotheses=cls, degree=2,
                           outcome_space=pop.space).members()[4]]
    for d in members:
        once, twice = negate(d), negate(negate(d))
        base = d.values(pop, pred)
        assert once.values(pop, pred) == [[1 - v for v in row] for row in base]
        assert twice.values(pop, pred) == base
        assert once.payload["negated"] is True and twice.payload["negated"] is True
        assert once.name == f"not:{d.name}"
        assert oi_advantage(pop, pred, once) == -oi_advantage(pop, pred, d)


def test_basic_member_names_carry_the_grid_point():
    # members that differ only in their grid point used to share a name, and
    # the explicit audit, keyed by name, collapsed them into one entry
    pop, cls, pred = random_instance(np.random.default_rng(32), 6, 2, 2)
    grid = make_grid_with_denominator(pop.space, 3)
    basic = make_family("basic", hypotheses=cls, grid=grid)
    members = basic.members()
    assert len(members) == 32 and len({d.name for d in members}) == 32
    explicit = make_family("explicit", members=members)
    true_max = max(abs(oi_advantage(pop, pred, d)) for d in members)
    assert true_max == F(2173, 12600)
    assert audit_oi(pop, pred, explicit).value == audit_oi(pop, pred, basic).value == true_max
    d, adv = best_response(pop, pred, basic)
    assert d.name in {m.name for m in members} and adv == true_max
    assert best_response(pop, pred, explicit)[0].name == d.name


def test_explicit_family_rejects_duplicate_member_names():
    pop, cls, _ = random_instance(np.random.default_rng(32), 6, 2, 2)
    d = make_family("basic", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 3)
                    ).members()[0]
    with pytest.raises(ConstructionError):
        make_family("explicit", members=[d, d])


def test_explicit_construction_reports_the_true_final_audit():
    from multifair import construct_exact
    for seed in range(6):
        pop, cls, _ = random_instance(np.random.default_rng(900 + seed), 5, 2, 2)
        members = make_family("basic", hypotheses=cls,
                              grid=make_grid_with_denominator(pop.space, 3)).members()
        out, tr = construct_exact(pop, make_family("explicit", members=members), F(1, 20))
        assert tr.final_audit == max(abs(oi_advantage(pop, out, d)) for d in members)


def test_float_oi_audit_rounds_like_the_rational_one():
    # the float audits used to round the raw floats while members and the
    # rational audits round their exact values, so on this constructed
    # predictor the float mc audit read other levels than its own member
    from multifair import construct_exact, pgd_rule
    pop, cls, _ = random_instance(np.random.default_rng([11, 5]), 9, 8, 4)
    grid = make_grid_with_denominator(pop.space, 2)
    pred, _ = construct_exact(pop, make_family("mc", hypotheses=cls, grid=grid), F(1, 10),
                              rule=pgd_rule(pop.space, 0.1 / 8))
    for kind in ("basic", "mc", "smc"):
        fam = make_family(kind, hypotheses=cls, grid=grid)
        exact = audit_oi(pop, pred, fam).value
        assert abs(float(exact) - audit_oi(pop, pred, fam, "float").value) < 1e-9
        d, adv = best_response(pop, pred, fam, "float")
        assert abs(float(oi_advantage(pop, pred, d)) - adv) < 1e-9
        assert abs(float(exact) - adv) < 1e-9


@pytest.mark.parametrize("ell", [2, 3, 8])
def test_audit_value_is_the_advantage_of_the_best_response(ell):
    # every family kind, both backends, an exact predictor and a float one a
    # multiplicative-weights step away: the audit value is the advantage that
    # best_response reports, and its member attains that advantage
    rng = np.random.default_rng(300 + ell)
    for _ in range(2):
        pop, cls, pred = random_instance(rng, 8, ell, 3)
        grid = make_grid_with_denominator(pop.space, 2)
        losses = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        fpred = Predictor({j: update(mwu_rule(pop.space, 0.7), pred.values[j], losses)
                           for j in pop.ids})
        fams = [make_family(k, hypotheses=cls, grid=grid) for k in ("basic", "mc", "smc")]
        fams.append(make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space))
        fams.append(make_family("explicit", members=fams[0].members()[:12]))
        for p in (pred, fpred):
            for fam in fams:
                value = audit_oi(pop, p, fam).value
                d, adv = best_response(pop, p, fam)
                assert adv == value >= 0 and oi_advantage(pop, p, d) == adv, fam.kind
                fvalue = audit_oi(pop, p, fam, "float").value
                d, fadv = best_response(pop, p, fam, "float")
                assert abs(fvalue - fadv) < 1e-12 and fadv >= 0, fam.kind
                assert abs(float(oi_advantage(pop, p, d)) - fadv) < 1e-12, fam.kind


def test_event_member_needs_a_population_prepared_for_its_grid():
    pop, cls, pred = random_instance(np.random.default_rng(13), 5, 2, 2)
    grid = make_grid_with_denominator(pop.space, 2)
    d = make_family("basic", hypotheses=cls, grid=grid).members()[0]
    # builds for no grid and for an equal grid are in the predictor's memo
    # first: an equal grid is still another grid, keyed by identity
    others = [_prepared(pop, pred, g) for g in (None, make_grid_with_denominator(pop.space, 2))]
    rows = d.values(pop, pred)
    assert len(rows) == len(pop.ids)
    prep = _prepared(pop, pred, grid)
    assert prep.grid is grid and all(o is not prep and o.grid is not grid for o in others)
    assert rows == d.values(pop, Predictor(dict(pred.values)))


def _stepped(pop, pred, eta):
    """The predictor after one multiplicative-weights step: float predictions."""
    loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(pop.space.size)))
    return Predictor({j: update(mwu_rule(pop.space, eta), d, loss)
                      for j, d in pred.values.items()})


def _literal_event_member(kind, prep, cls, grid):
    """The mc or smc best response built from the cell table by literal loops.

    The positive cells of each level go through `mc_event_distinguisher`
    (mc) or an explicit per-level grouping under the level's chosen
    hypothesis (smc).  Ties go to the first hypothesis, as in the audit.
    """
    ys, table = prep.cell_tables(cls, prep.diff)
    tables = table.tolist()
    ell, labels = prep.pop.space.size, prep.pop.space.labels

    def positive(row, point):
        return [(ys[i // ell], labels[i % ell], point) for i, x in enumerate(row) if x > 0]

    def positive_sum(row):
        return sum(x for x in row if x > 0)

    if kind == "mc":
        score = [sum(positive_sum(row) for row in t) for t in tables]
        c = score.index(max(score))
        cells = [cell for point, row in zip(prep.points, tables[c])
                 for cell in positive(row, point)]
        return mc_event_distinguisher(cls.hypotheses[c], cells, grid)
    events, assignment, cells = {}, {}, []
    for v, (point, rk) in enumerate(zip(prep.points, prep.level_ratios)):
        sums = [positive_sum(t[v]) for t in tables]
        c = sums.index(max(sums))
        assignment[str(point)] = cls.hypotheses[c].name
        level_cells = positive(tables[c][v], point)
        for y, o, _ in level_cells:
            events.setdefault(rk, (cls.hypotheses[c], set()))[1].add((y, o))
        cells += level_cells
    return Distinguisher("level-assigned-event", grid=grid, events=events,
                         payload={"assignment": assignment, "event_cells": sorted(cells)})


def _event_member_cases():
    """(pop, cls, m, predictor, moved): random instances with their exact
    and stepped predictors, then the float-truth populations of
    `test_oi_golden`, under exact and float weights; `moved` is a float
    predictor the member was not scored on."""
    for seed, (n, ell, nh, m) in enumerate(((6, 2, 2, 3), (9, 2, 4, 4), (12, 3, 3, 2),
                                            (10, 8, 3, 2))):
        pop, cls, pred = random_instance(np.random.default_rng([seed, 61]), n, ell, nh)
        moved = _stepped(pop, pred, 0.5)
        for p in (pred, _stepped(pop, pred, 0.3)):
            yield pop, cls, m, p, moved
    for pop, cls, m, p in float_truth_instances():
        yield pop, cls, m, p, _stepped(pop, p, 0.5)


@pytest.mark.parametrize("kind", ["mc", "smc"])
def test_event_members_built_from_rows_equal_literal_builds(kind):
    # the reduction groups the positive cells of each table row into its
    # member's events; a literal build from the same table must agree in
    # events, payload and values, also on a population of float predictions
    # it was not scored on.  Each (level, y) block sums to 0, on float truths
    # too, which are read as a prediction is read; the value must be the
    # positive cells' sum, the literal member's advantage.
    for pop, cls, m, p, moved in _event_member_cases():
        grid = make_grid_with_denominator(pop.space, m)
        fam = make_family(kind, hypotheses=cls, grid=grid)
        report, d, adv = _reduce(_prepared(pop, p, fam.grid), fam)
        want = _literal_event_member(kind, _prepared(pop, p, grid), cls, grid)
        assert d.events == want.events
        assert d.name == want.name and repr(d.payload) == repr(want.payload)
        assert d.values(pop, p) == want.values(pop, p)
        assert d.values(pop, moved) == want.values(pop, moved)
        assert report.value == adv == oi_advantage(pop, p, want)


def test_basic_audit_is_the_largest_member_advantage_on_float_truths():
    # float truth rows and float weights enter by their exact binary values
    for pop, cls, m, p in float_truth_instances():
        fam = make_family("basic", hypotheses=cls, grid=make_grid_with_denominator(pop.space, m))
        report, _, adv = _reduce(_prepared(pop, p, fam.grid), fam)
        assert report.value == adv == max(abs(oi_advantage(pop, p, e)) for e in fam.members())


def _binary_witness_cases():
    """(pop, cls, m, predictor) on binary outcomes, where the exact truths
    tie (y, "0", level) against (y, "1", level): random instances with
    their exact, stepped and ground-truth predictors (the last reaches no
    cell), then the binary float-truth populations."""
    for seed, (n, nh, m) in enumerate(((6, 2, 1), (9, 4, 4), (12, 3, 2), (20, 5, 3))):
        pop, cls, pred = random_instance(np.random.default_rng([seed, 67]), n, 2, nh)
        for p in (pred, _stepped(pop, pred, 0.3), pop.ground_truth_predictor()):
            yield pop, cls, m, p
    yield from ((pop, cls, m, p) for pop, cls, m, p in float_truth_instances()
                if pop.space.size == 2)


def test_basic_witness_is_the_first_reached_cell():
    # the literal walk over (individual, outcome) contributions in population
    # and label order picks the same (level, cell) of the best hypothesis
    for pop, cls, m, p in _binary_witness_cases():
        grid = make_grid_with_denominator(pop.space, m)
        fam = make_family("basic", hypotheses=cls, grid=grid)
        report, d, _ = _reduce(_prepared(pop, p, fam.grid), fam)
        prep = _prepared(pop, p, grid)
        ys, table = prep.cell_tables(cls, prep.diff)
        c = [h.name for h in cls].index(report.witness)
        per_level = table[c].tolist()
        v, i = first_reached_cell(prep, ys, cls.hypotheses[c], per_level,
                                  max(abs(x) for row in per_level for x in row))
        ell = pop.space.size
        assert d.payload["event_cells"] == [(ys[i // ell], pop.space.labels[i % ell],
                                             prep.points[v])]


@pytest.mark.parametrize("seed,n,degree,step", [(1, 7, 2, True), (10, 7, 3, False),
                                                (22, 10, 2, False)])
def test_lowdegree_float_value_is_the_advantage_of_its_member(seed, n, degree, step):
    # with real-valued classes the float audit used to sum (diff * c) * m
    # while the member's advantage sums diff * (c * m): on these instances
    # the two differed in the last bit.  The audit scores each member as its
    # advantage sums it, and the float value is that advantage rounded.
    pop, cls, pred = random_instance(np.random.default_rng([seed, 53]), n, 2, 3,
                                     binary_hypotheses=False)
    if step:
        pred = _stepped(pop, pred, 0.3)
    fam = make_family("lowdegree", hypotheses=cls, degree=degree, outcome_space=pop.space)
    report, d, adv = _reduce(_prepared(pop, pred, fam.grid), fam)
    w = report.witness
    h = next(h for h in cls if h.name == w["hypothesis"])
    member = monomial_distinguisher(h, w["outcome"], w["monomial_indices"])
    assert report.value == adv == abs(oi_advantage(pop, pred, member))
    assert report.breakdown[h.name] == report.value
    freport = audit_oi(pop, pred, fam, "float")
    assert freport.value == best_response(pop, pred, fam, "float")[1] == float(adv)
    assert freport.breakdown[h.name] == float(adv)


def _literal_lowdegree(pop, pred, fam):
    """(value, breakdown, first maximizer, its signed advantage) from
    `oi_advantage` of every member of `fam.members()`, in member order:
    (hypothesis, outcome, monomial)."""
    advs = [(d, oi_advantage(pop, pred, d)) for d in fam.members()]
    value = max(abs(a) for _, a in advs)
    breakdown = {h.name: max(abs(a) for d, a in advs if d.payload["hypothesis"] == h.name)
                 for h in fam.hypotheses}
    d, adv = next((d, a) for d, a in advs if abs(a) == value)
    return value, breakdown, d, adv


# (seed, individuals, outcomes, hypotheses, 0/1 class, degree, MWU-stepped,
# weight denominator); a denominator of 2 leaves individuals of weight zero
LOWDEGREE_CASES = (
    (0, 9, 2, 3, True, 1, False, 16),
    (1, 9, 2, 3, False, 2, True, 16),
    (2, 10, 2, 2, True, 3, False, 2),
    (3, 8, 3, 2, False, 3, True, 16),
    (4, 10, 3, 3, True, 2, False, 2),
    (5, 8, 3, 2, True, 1, True, 2),
    (6, 6, 8, 2, True, 3, True, 2),
    (7, 7, 8, 2, False, 1, False, 16),
    (8, 8, 8, 2, False, 2, True, 2),
)


@pytest.mark.parametrize("seed,n,ell,nh,binary,degree,step,wden", LOWDEGREE_CASES)
def test_lowdegree_audit_is_the_literal_per_member_maximum(seed, n, ell, nh, binary, degree,
                                                           step, wden):
    pop, cls, pred = random_instance(np.random.default_rng([seed, 67]), n, ell, nh,
                                     binary_hypotheses=binary, weight_denominator=wden)
    assert (0 in pop.weight.values()) == (wden == 2)
    if step:
        pred = _stepped(pop, pred, 0.3)
    fam = make_family("lowdegree", hypotheses=cls, degree=degree, outcome_space=pop.space)
    value, breakdown, d, adv = _literal_lowdegree(pop, pred, fam)
    report = audit_oi(pop, pred, fam)
    assert report.value == value
    assert list(report.breakdown.items()) == list(breakdown.items())
    assert report.witness == {key: d.payload[key]
                              for key in ("hypothesis", "outcome", "monomial_indices")}
    member, badv = best_response(pop, pred, fam)
    want = negate(d) if adv < 0 else d
    assert (member.name, member.payload, badv) == (want.name, want.payload, abs(adv))
    freport = audit_oi(pop, pred, fam, "float")
    assert freport.value == best_response(pop, pred, fam, "float")[1] == float(value)
    assert freport.breakdown == {name: float(x) for name, x in breakdown.items()}


def test_lowdegree_members_read_each_value_as_the_range_value_it_equals():
    # floats equal to exact range values: the cell table groups c(j) = 0.5
    # with y = 1/2, so a member is priced, and evaluated, at y
    pop, _, pred = random_instance(np.random.default_rng(5), 8, 2, 1)
    rng = (0, F(1, 2), 1)
    exact = HypothesisClass(tuple(Hypothesis(f"h{k}", rng, {j: rng[(i * k + 1) % 3]
                                                           for i, j in enumerate(pop.ids)})
                                  for k in range(3)))
    floats = HypothesisClass(tuple(Hypothesis(h.name, h.range_values,
                                              {j: float(v) for j, v in h.values.items()})
                                   for h in exact))
    fams = [make_family("lowdegree", hypotheses=c, degree=2, outcome_space=pop.space)
            for c in (exact, floats)]
    value, breakdown, d, adv = _literal_lowdegree(pop, pred, fams[1])
    assert _literal_lowdegree(pop, pred, fams[0])[:2] == (value, breakdown)
    report = audit_oi(pop, pred, fams[1])
    assert (report.value, report.breakdown) == (value, breakdown)
    assert best_response(pop, pred, fams[1])[1] == abs(adv)


@pytest.mark.parametrize("labels", [("0", "1", "2"), ("a", "b"), ("1", "0")])
def test_lowdegree_family_on_another_outcome_space_is_refused(labels):
    # a larger family space would index past the population's outcomes, and
    # a relabelled one of the same size would score one outcome and name another
    pop, cls, pred = random_instance(np.random.default_rng(3), 6, 2, 2)
    fam = make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=OutcomeSpace(labels))
    with pytest.raises(DomainError, match="outcome spaces"):
        audit_oi(pop, pred, fam)
    with pytest.raises(DomainError, match="outcome spaces"):
        best_response(pop, pred, fam)
