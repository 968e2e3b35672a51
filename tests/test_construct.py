import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from multifair import (
    Hypothesis,
    HypothesisClass,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    SimplexGrid,
    audit_oi,
    best_response,
    binary_space,
    construct_exact,
    construct_low_degree,
    construct_sampled,
    fixture_two_point,
    indicator_all,
    make_family,
    make_grid_with_denominator,
    mwu_rule,
    oi_advantage,
    pgd_rule,
    random_instance,
    sample,
    select_distinguisher_randomized,
    vc_dimension,
    wal_erm,
    wal_sample_count,
)
import multifair.construct as construct_module
from multifair.audits import _Prepared, _prepared
from multifair.construct import loss_from_distinguisher
from multifair.errors import DomainError, EnumerationLimitError, InputError
from multifair.oi import Distinguisher, DistinguisherFamily, _oriented, negate
from multifair.population import _draw
import oracles
from oracles import empirical_advantages
from test_prepared import _count_builds


def identity_grid():
    return SimplexGrid.from_points(
        [OutcomeDist.bernoulli(F(0)), OutcomeDist.bernoulli(F(1))], eta=F(1, 2))


# ---------------------------------------------------------------------------
# exact construction
# ---------------------------------------------------------------------------


def test_exact_ground_truth_start_returns_unchanged():
    pop, cls, _ = fixture_two_point()
    fam = make_family("mc", hypotheses=cls, grid=identity_grid())
    gt = pop.ground_truth_predictor()
    out, tr = construct_exact(pop, fam, F(1, 20), rule=mwu_rule(pop.space, 0.05),
                              initial=gt)
    assert tr.iteration_count == 0
    assert out.values == gt.values


def test_exact_two_point_reaches_target():
    pop, cls, _ = fixture_two_point()
    fam = make_family("mc", hypotheses=cls, grid=identity_grid())
    out, tr = construct_exact(pop, fam, F(1, 20), rule=mwu_rule(pop.space, 0.05))
    assert tr.final_audit <= F(1, 20)


def test_exact_respects_iteration_bound_ell8():
    rng = np.random.default_rng(0)
    cap = math.ceil(2 * math.log(8) / 0.01)
    assert cap == 416
    for seed in range(4):
        pop, cls, _ = random_instance(np.random.default_rng(seed), 8, 8, 3)
        grid = make_grid_with_denominator(pop.space, 2)
        fam = make_family("mc", hypotheses=cls, grid=grid)
        out, tr = construct_exact(pop, fam, F(1, 10), rule=mwu_rule(pop.space, 0.1))
        assert tr.iteration_count <= cap
        assert tr.final_audit <= F(1, 10)
        assert audit_oi(pop, out, fam).value == tr.final_audit


def test_exact_pgd_also_terminates():
    pop, cls, _ = random_instance(np.random.default_rng(5), 6, 2, 2)
    fam = make_family("mc", hypotheses=cls, grid=identity_grid())
    rule = pgd_rule(pop.space, 0.1 / 2)
    out, tr = construct_exact(pop, fam, F(1, 10), rule=rule)
    assert tr.final_audit <= F(1, 10)
    assert tr.iteration_count <= math.ceil(2 * 2 / 0.01)


def test_transcript_length_bounds_description():
    pop, cls, _ = random_instance(np.random.default_rng(6), 6, 4, 3)
    grid = make_grid_with_denominator(pop.space, 2)
    fam = make_family("mc", hypotheses=cls, grid=grid)
    out, tr = construct_exact(pop, fam, F(1, 8), rule=mwu_rule(pop.space, 1 / 8))
    assert tr.iteration_count <= math.ceil(tr.iteration_bound) + 1
    assert len(tr.iterations) == tr.iteration_count


def _iterate_family(kind, pop, cls):
    """An exact-construction family of the given kind on a denominator-2 grid;
    "explicit" is one callable member that reads the predictor."""
    if kind == "lowdegree":
        return make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    if kind == "explicit":
        h = cls.hypotheses[0]

        def top_outcome(j, o, p):
            """c(j) on the first most likely outcome of p_j, 0 elsewhere."""
            d = p.values[j]
            return h.values[j] if d.weights.index(max(d.weights)) == d.space.index(o) else 0
        return make_family("explicit", members=[Distinguisher("top-outcome", top_outcome)])
    return make_family(kind, hypotheses=cls, grid=make_grid_with_denominator(pop.space, 2))


def _iterate_instance(kind):
    seed = ["basic", "mc", "smc", "lowdegree", "explicit"].index(kind)
    pop, cls, _ = random_instance(np.random.default_rng([seed, 41]), 8, 4, 3)
    return pop, _iterate_family(kind, pop, cls)


@pytest.mark.parametrize("kind", ["basic", "mc", "smc", "lowdegree", "explicit"])
def test_event_iterates_prepare_the_population_once(kind, monkeypatch):
    pop, fam = _iterate_instance(kind)
    builds, groupings = _count_builds(monkeypatch)
    _, tr = construct_exact(pop, fam, F(1, 40), rule=mwu_rule(pop.space, 1 / 40))
    assert tr.iteration_count > 0
    # one build per best response, every iterate's and the final audit's, and
    # no grouping on another grid: an event member's loss table reads that
    # build, and a monomial or explicit member's reads the raw predictor
    # without one
    assert [g for _, _, g in builds] == [fam.grid] * (tr.iteration_count + 1)
    assert groupings == [fam.grid] * (tr.iteration_count + 1)


def test_exact_mc_construction_hashes_and_compares_no_fraction(monkeypatch):
    """Levels, event members and their rows are keyed and ordered by
    integer ratios: an mc construction on a coordinate grid, at the
    benchmark's shape, never hashes a Fraction or tests two for equality."""
    pop, cls, _ = random_instance(np.random.default_rng([3, 41]), 10, 8, 3)
    fam = make_family("mc", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 2))
    rules = [mwu_rule(pop.space, 1 / 10), pgd_rule(pop.space, 1 / 80)]
    calls = Counter()
    for name in ("__hash__", "__eq__"):
        original = getattr(F, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(F, name, counted)
    for rule in rules:
        _, tr = construct_exact(pop, fam, F(1, 10), rule=rule)
        assert tr.iteration_count > 0
    assert calls == Counter()


@pytest.mark.parametrize("rule_kind", ["mwu", "pgd"])
@pytest.mark.parametrize("kind", ["basic", "mc", "smc"])
def test_reused_loss_tables_equal_the_float_prep_tables(kind, rule_kind, monkeypatch):
    pop, fam = _iterate_instance(kind)
    rule = mwu_rule(pop.space, 1 / 40) if rule_kind == "mwu" else pgd_rule(pop.space, 1 / 160)
    members = []
    checked = []
    reduce, apply_update = construct_module._reduce, construct_module._apply_update

    def reduce_spy(*args):
        out = reduce(*args)
        members.append(out[1])
        return out

    def apply_spy(pop, predictor, rule, losses):
        want = loss_from_distinguisher(members[-1], pop, predictor)
        assert [[v.hex() for v in t.values] for t in losses] == \
            [[v.hex() for v in t.values] for t in want]
        checked.append(members[-1].name)
        return apply_update(pop, predictor, rule, losses)
    monkeypatch.setattr(construct_module, "_reduce", reduce_spy)
    monkeypatch.setattr(construct_module, "_apply_update", apply_spy)
    _, tr = construct_exact(pop, fam, F(1, 40), rule=rule)
    assert len(checked) == tr.iteration_count > 0


def _zero_mixed(j, o, p):
    """An explicit member whose rows are equal up to the sign of a zero:
    -0.0 or 0.0 at the first outcome by the parity of the individual, 1/2
    elsewhere."""
    if o == p.values[j].space.labels[0]:
        return -0.0 if int(j[1:]) % 2 else 0.0
    return 0.5


def _update_cases():
    """(pop, predictor, rule, member): an instance with zero-weight
    individuals (weight denominator 3), under mwu and pgd, at three
    predictors: the rule's start (one object), exact predictions that are
    one new object per individual (equal values, distinct objects), and
    float predictions after two updates.  Each predictor meets the best
    responses of the five family kinds, their negations, and an explicit
    member with -0.0 values."""
    pop, cls, pred = random_instance(np.random.default_rng(61), 14, 3, 3,
                                     weight_denominator=3)
    assert any(w == 0 for w in pop.weight.values())
    ell = pop.space.size
    copies = Predictor({j: OutcomeDist(pop.space, tuple((w + F(1, ell)) / 2
                                                        for w in pred.values[j].weights))
                        for j in pop.ids})
    assert len(set(copies.values.values())) < len(pop.ids)
    families = [_iterate_family(kind, pop, cls)
                for kind in ("basic", "mc", "smc", "lowdegree", "explicit")]
    for rule in (mwu_rule(pop.space, 0.2), pgd_rule(pop.space, 0.05)):
        stepped = copies
        for _ in range(2):
            d, _ = best_response(pop, stepped, families[1])
            stepped = oracles.apply_update_per_individual(
                pop, stepped, rule, oracles.loss_tables_per_individual(d, pop, stepped))
        for predictor in (Predictor({j: rule.initial for j in pop.ids}), copies, stepped):
            members = [best_response(pop, predictor, fam)[0] for fam in families]
            members += [negate(d) for d in members]
            members.append(Distinguisher("zero-mixed", _zero_mixed))
            for d in members:
                yield pop, predictor, rule, d


def test_distinct_updates_equal_the_per_individual_oracles():
    """Loss tables, the update and the divergence bound equal their
    per-individual oracles by repr."""
    kinds, negated = set(), 0
    for pop, predictor, rule, d in _update_cases():
        losses = loss_from_distinguisher(d, pop, predictor)
        want = oracles.loss_tables_per_individual(d, pop, predictor)
        assert repr(losses) == repr(want)
        assert len({id(t) for t in losses}) == len(set(repr(t) for t in want))
        assert repr(construct_module._apply_update(pop, predictor, rule, losses)) == \
            repr(oracles.apply_update_per_individual(pop, predictor, rule, want))
        assert repr(construct_module._initial_divergence(pop, predictor, rule)) == \
            repr(oracles.initial_divergence_per_individual(pop, predictor, rule))
        kinds.add((rule.kind, d.events is not None, d.monomial is not None))
        negated += d.negated
    assert len(kinds) == 6 and negated > 0


def test_event_rows_are_shared_per_level_and_value():
    """An event member's rows are one list per (level, hypothesis value)."""
    for pop, predictor, _, d in _update_cases():
        if d.events is None:
            continue
        rows = d.values(pop, predictor)
        assert rows == oracles.member_rows_per_individual(d, pop, predictor)
        prep = _prepared(pop, predictor, d.grid)
        blocks = {}
        for j, level, row in zip(pop.ids, prep.level_of.tolist(), rows):
            h = (d.events.get(prep.level_ratios[level]) or (None,))[0]
            blocks.setdefault((level, h.values[j] if h else None), set()).add(id(row))
        assert all(len(ids) == 1 for ids in blocks.values())


def test_updates_run_once_per_distinct_prediction_and_loss_row(monkeypatch):
    """On every iterate the rule runs once per distinct (prediction value,
    loss row), and every predictor, the final one too, holds one object
    per distinct value."""
    pop, cls, _ = random_instance(np.random.default_rng(29), 200, 3, 4)
    fam = make_family("mc", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 3))
    calls, expected = [], []
    apply_update, update = construct_module._apply_update, construct_module.update

    def apply_spy(pop, predictor, rule, losses):
        values = [predictor.values[j] for j in pop.ids]
        assert len({id(p) for p in values}) == len(set(values))
        expected.append(len({(p.weights, loss.values) for p, loss in zip(values, losses)}))
        calls.append(0)
        return apply_update(pop, predictor, rule, losses)

    def update_spy(*args):
        calls[-1] += 1
        return update(*args)
    monkeypatch.setattr(construct_module, "_apply_update", apply_spy)
    monkeypatch.setattr(construct_module, "update", update_spy)
    out, tr = construct_exact(pop, fam, F(1, 200), rule=mwu_rule(pop.space, 1 / 200))
    assert tr.iteration_count == len(calls) > 10
    assert calls == expected
    assert sum(calls) < tr.iteration_count * len(pop.ids) // 4
    final = list(out.values.values())
    assert len({id(p) for p in final}) == len(set(final)) < len(pop.ids)


# ---------------------------------------------------------------------------
# weak agnostic learner
# ---------------------------------------------------------------------------


def test_wal_sample_count_formula():
    n = wal_sample_count(0.2, 0.1, 50)
    assert n == math.ceil(8 * math.log(2 * 50 / 0.1) / 0.01)


def test_wal_erm_empty_samples():
    pop, cls, pred = fixture_two_point()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    with pytest.raises(InputError):
        wal_erm(fam, 3 * 0.2 / 4, _draw(pop, np.random.default_rng(0), 0), pop, pred)


def test_wal_erm_finds_planted_advantage():
    # family {A, 1-A} with true advantage 0.4 is found on most seeds
    pop, cls, pred = fixture_two_point()
    grid = identity_grid()

    def fn(j, o, p, _g=grid):
        # accepts iff prediction rounds to 1 and outcome is 1: advantage 1/4...
        return 1 if (o == "1" and _g.round_dist(p.values[j].as_exact()).p_one() == 1) else 0

    base = Distinguisher("planted", fn)
    fam = make_family("explicit", members=[base])
    true_adv = oi_advantage(pop, pred, base)
    assert true_adv == F(1, 4)
    n, threshold = wal_sample_count(0.2, 0.1, 2), 3 * 0.2 / 4
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = _draw(pop, rng, n)
        found = wal_erm(fam, threshold, draws, pop, pred)
        if found is not None and abs(found[1]) > threshold:
            hits += 1
    assert hits >= 18


def test_wal_erm_mostly_silent_on_ground_truth():
    pop, cls, _ = fixture_two_point()
    gt = pop.ground_truth_predictor()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    n = wal_sample_count(0.2, 0.1, 2 * fam.member_count())
    quiet = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        draws = _draw(pop, rng, n)
        found = wal_erm(fam, 3 * 0.2 / 4, draws, pop, gt)
        if found is None or abs(oi_advantage(pop, gt, found[0])) <= 0.1:
            quiet += 1
    assert quiet >= 18


def _empirical_population(pop, samples):
    """The population of a sample list, counted literally: each individual
    weighs its share of the draws and has the outcome law of its own
    draws; an undrawn individual weighs 0 and keeps its truth."""
    drawn, pairs = Counter(j for j, _ in samples), Counter(samples)
    weight = {j: F(drawn[j], len(samples)) for j in pop.ids}
    truth = {j: OutcomeDist(pop.space, tuple(F(pairs[j, o], drawn[j]) for o in pop.space.labels))
             if drawn[j] else pop.p_true[j] for j in pop.ids}
    return PopulationInstance(pop.space, pop.ids, weight, truth)


def _erm_cases(instances=None):
    """(pop, family, predictor): basic, lowdegree and explicit families on
    each (pop, cls) of `instances`, by default a binary and a 4-outcome
    random instance of 8 individuals and 3 hypotheses, at the uniform start
    and after two MWU steps.  The explicit family holds a callable that
    reads the predictor, then the basic members."""
    if instances is None:
        instances = [random_instance(np.random.default_rng(seed), 8, ell, 3)[:2]
                     for ell, seed in ((2, 5), (4, 123))]
    for pop, cls in instances:
        basic = make_family("basic", hypotheses=cls,
                            grid=make_grid_with_denominator(pop.space, 2))
        own = Distinguisher("own-weight", lambda j, o, p: p.values[j].weight(o))
        families = [basic,
                    make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space),
                    make_family("explicit", members=[own] + basic.members())]
        rule = mwu_rule(pop.space, 0.3)
        start = stepped = Predictor({j: rule.initial for j in pop.ids})
        for _ in range(2):
            d, _ = best_response(pop, stepped, basic)
            stepped = construct_module._apply_update(
                pop, stepped, rule, loss_from_distinguisher(d, pop, stepped))
        for fam in families:
            for pred in (start, stepped):
                yield pop, fam, pred


def test_empirical_masses_equal_the_fraction_population():
    """The learner's masses, read off the integer counts, prepare the same
    arrays as the empirical population built by Fractions, undrawn
    individuals included, and draws taken twice each, whose counts share
    a factor with n that a vertex predictor leaves out of D."""
    undrawn = 0
    for pop, fam, pred in _erm_cases():
        vertex = Predictor(dict.fromkeys(pop.ids, OutcomeDist.point_mass(pop.space, "0")))
        for n, seed, times, p in ((3, 0, 1, pred), (40, 1, 1, pred), (3000, 2, 1, pred),
                                  (40, 3, 2, pred), (40, 3, 2, vertex)):
            idx, o_idx = (np.tile(a, times) for a in _draw(pop, np.random.default_rng(seed), n))
            prep = _Prepared(pop, p, fam.grid,
                             masses=construct_module._empirical_masses(pop, idx, o_idx))
            want = _Prepared(oracles.empirical_population_fraction(pop, idx, o_idx), p,
                             fam.grid)
            assert prep.D == want.D
            for name in ("star", "diff", "mass", "level_of"):
                got, exp = getattr(prep, name), getattr(want, name)
                assert got.dtype == exp.dtype and got.tolist() == exp.tolist()
            assert (prep.level_ratios, prep.points, prep.level_weight) == \
                (want.level_ratios, want.points, want.level_weight)
            undrawn += len(pop.ids) - len(set(idx.tolist()))
    assert undrawn > 0


def test_wal_erm_is_the_first_maximizer_of_the_float_loop():
    """On seeded draws, the learner returns the exact best response on the
    empirical population, with its orientation, or None when its advantage
    is at most the threshold.  The first member of largest exact
    |advantage| there is the per-member float loop's
    (`oracles.empirical_advantages`) first maximizer up to its rounding: the
    first member within 1e-15 of the loop's largest |advantage|.  (On
    binary instances (y, "0", level) and (y, "1", level) tie exactly, and
    the loop's last bits may order them either way.)  The learner's
    advantage is the exact one rounded once, within 1e-15 of the loop's."""
    outcomes, loop_ties = Counter(), 0
    for pop, fam, pred in _erm_cases():
        members = fam.members()
        for n, seed, eps in ((40, 0, 0.3), (400, 1, 0.1), (3000, 2, 0.05), (3000, 3, 0.6)):
            threshold = 3 * eps / 4
            samples = sample(pop, np.random.default_rng(seed), n)
            found = wal_erm(fam, threshold, _draw(pop, np.random.default_rng(seed), n), pop, pred)
            emp = _empirical_population(pop, samples)
            exact = [oi_advantage(emp, pred, d) for d in members]
            first = max(range(len(members)), key=lambda i: abs(exact[i]))
            advs = empirical_advantages(members, pop, pred, samples)
            top = max(map(abs, advs))
            assert first == next(i for i, a in enumerate(advs) if abs(a) >= top - 1e-15)
            loop_ties += abs(advs[first]) != top
            outcomes[fam.kind, found is None] += 1
            if abs(exact[first]) <= threshold:
                assert found is None
                continue
            _, want_adv = _oriented(members[first], advs[first])
            want, _ = best_response(emp, pred, fam)
            d, adv = found
            assert (d.name, d.negated) == (want.name, want.negated)
            assert type(adv) is float
            assert adv == float(oi_advantage(emp, pred, d)) == abs(float(exact[first]))
            assert abs(adv - want_adv) <= 1e-15
    assert set(outcomes) == {(kind, none) for kind in ("basic", "lowdegree", "explicit")
                             for none in (True, False)}
    assert loop_ties > 0  # the cases reach a tie the loop orders by its last bits


def _first_one_instances():
    """A binary and a 4-outcome random population of 4 individuals, with one
    hypothesis that is 1 on the first individual only.  Population order
    reaches a y = 1 cell first, where `members()` lists the y = 0 cells
    first, so the two orders break a tie between them apart."""
    for ell in (2, 4):
        pop, _, _ = random_instance(np.random.default_rng([ell, 73]), 4, ell, 1)
        first = Hypothesis("first", (0, 1), {j: int(j == pop.ids[0]) for j in pop.ids})
        yield pop, HypothesisClass([first])


def test_wal_erm_is_the_empirical_best_response():
    """With a tiny threshold, the learner returns the exact best response
    (`best_response`) on the empirical population of its draws, member and
    orientation, with that member's advantage as a float, over small draws
    of basic, lowdegree and explicit families on binary and 4-outcome
    instances, at the uniform start and after MWU steps.  That is not
    always the first member of largest |advantage| in `members()` order:
    ties at the largest |advantage| go the way the exact best response
    breaks them."""
    kinds, other_first = Counter(), 0
    for pop, fam, pred in itertools.chain(_erm_cases(), _erm_cases(_first_one_instances())):
        members = fam.members()
        for n, seed in itertools.product((5, 20, 100), range(3)):
            idx, o_idx = _draw(pop, np.random.default_rng([seed, 71]), n)
            emp = oracles.empirical_population_fraction(pop, idx, o_idx)
            want, want_adv = best_response(emp, pred, fam)
            found = wal_erm(fam, 0.75e-12, (idx, o_idx), pop, pred)
            kinds[fam.kind, pop.space.size] += 1
            if want_adv == 0:
                assert found is None
                continue
            d, adv = found
            assert (d.name, d.negated) == (want.name, want.negated)
            assert type(adv) is float and adv == float(want_adv)
            exact = [oi_advantage(emp, pred, e) for e in members]
            first = max(range(len(members)), key=lambda i: abs(exact[i]))
            first_d, _ = _oriented(members[first], exact[first])
            other_first += (first_d.name, first_d.negated) != (want.name, want.negated)
    assert set(kinds) == {(kind, ell) for kind in ("basic", "lowdegree", "explicit")
                          for ell in (2, 4)}
    assert other_first > 0


# ---------------------------------------------------------------------------
# sampled construction
# ---------------------------------------------------------------------------


def test_sampled_runs_list_no_members(monkeypatch):
    """Basic and lowdegree runs read the learner's member off the cell table
    and never materialize the family."""
    def refuse(self):
        raise AssertionError("members() called")

    monkeypatch.setattr(DistinguisherFamily, "members", refuse)
    pop, cls, _ = random_instance(np.random.default_rng(123), 8, 4, 6)
    fam = make_family("basic", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 2))
    _, tr = construct_sampled(pop, fam, 0.15, beta=0.05, rng=np.random.default_rng(7))
    assert tr.iteration_count > 0
    pop, cls, _ = random_instance(np.random.default_rng([2, 7]), 6, 4, 2)
    _, tr = construct_low_degree(pop, cls, 2, 0.1, mode="sampled",
                                 rng=np.random.default_rng(0), beta=0.1)
    assert tr.iteration_count > 0


@pytest.mark.parametrize("kind", ["mc", "smc", "basic"])
def test_sampled_refuses_mc_and_smc_before_drawing(kind):
    """Also a basic family on a grid too large to materialize (869,648,208
    points), whose members cannot be listed either."""
    outcomes, m = (8, 60) if kind == "basic" else (2, 2)
    pop, cls, _ = random_instance(np.random.default_rng(9), 6, outcomes, 2)
    fam = make_family(kind, hypotheses=cls, grid=make_grid_with_denominator(pop.space, m))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(EnumerationLimitError):
        construct_sampled(pop, fam, 0.2, rng=rng)
    assert rng.bit_generator.state == state


def test_sampled_refuses_an_mc_family_whose_count_has_too_many_digits():
    """On 4,001 binary grid points the mc member count 2^16004 has more
    digits than Python turns into a string; the refusal must not try to."""
    pop, cls, _ = fixture_two_point()
    fam = make_family("mc", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 4000))
    with pytest.raises(EnumerationLimitError):
        construct_sampled(pop, fam, 0.2, rng=np.random.default_rng(3))


def test_exact_audit_reads_a_basic_family_on_an_unmaterialized_grid():
    pop, cls, pred = random_instance(np.random.default_rng(9), 6, 8, 2)
    fam = make_family("basic", hypotheses=cls, grid=make_grid_with_denominator(pop.space, 60))
    assert fam.grid.points is None
    value = audit_oi(pop, pred, fam).value
    d, adv = best_response(pop, pred, fam)
    assert value == adv == abs(oi_advantage(pop, pred, d)) > 0


def test_sampled_ground_truth_start_immediate():
    pop, cls, _ = fixture_two_point()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    # uniform start equals the fixture truth, so the learner finds nothing
    out, tr = construct_sampled(pop, fam, 0.2, beta=0.05,
                                rng=np.random.default_rng(0), seed=0)
    assert tr.iteration_count == 0
    assert tr.succeeded


def test_sampled_records_sample_counts():
    rng = np.random.default_rng(123)
    pop, cls, _ = random_instance(rng, 8, 4, 6)
    grid = make_grid_with_denominator(pop.space, 2)
    fam = make_family("basic", hypotheses=cls, grid=grid)
    n_expected = wal_sample_count(0.15, 0.05, 2 * fam.member_count())
    out, tr = construct_sampled(pop, fam, 0.15, beta=0.05,
                                rng=np.random.default_rng(7), seed=7)
    assert tr.final_audit <= F(15, 100) or not tr.succeeded
    for rec in tr.iterations:
        assert rec.samples_drawn == n_expected
    assert tr.sample_count >= n_expected  # at least the final silent call


def test_sampled_iteration_cap_formula():
    # the recorded soft cap is the halved-advantage form 8 ln(l) / eps^2
    rng = np.random.default_rng(9)
    pop, cls, _ = random_instance(rng, 6, 4, 3)
    grid = make_grid_with_denominator(pop.space, 2)
    fam = make_family("basic", hypotheses=cls, grid=grid)
    out, tr = construct_sampled(pop, fam, 0.15, beta=0.05,
                                rng=np.random.default_rng(11), seed=11)
    assert tr.iteration_bound == math.ceil(8 * math.log(4) / 0.15 ** 2)
    assert tr.iteration_count <= tr.iteration_bound


# ---------------------------------------------------------------------------
# randomized selection
# ---------------------------------------------------------------------------


def test_select_distinguisher_round_count():
    # rounds = ceil(8 ln(1/beta))
    assert math.ceil(8 * math.log(1 / 0.1)) == 19
    assert construct_module._select_rounds(0.1) == 19


@pytest.mark.parametrize("beta", [0.5, 0.1, 0.05, 0.01, 1e-9])
def test_selection_guarantee_follows_from_its_round_count(beta):
    """All rounds miss, each with probability at most 15/16, with
    probability (15/16)^rounds <= beta^(8 ln(16/15)), about beta^0.52: the
    bound the docstring states, and more than beta, which the round count
    does not reach."""
    rounds = construct_module._select_rounds(beta)
    miss = (15 / 16) ** rounds
    assert miss <= beta ** (8 * math.log(16 / 15)) * (1 + 1e-12)
    assert miss > beta
    if beta == 0.05:
        assert rounds == 24 and round(miss, 2) == 0.21


def test_select_distinguisher_fixture_and_ground_truth():
    pop, cls, pred = fixture_two_point()
    grid = identity_grid()
    eps_prime = F(1, 32)  # 0.5 / (8 sqrt(2 |G|)) with |G| = 2
    hits = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = select_distinguisher_randomized(pop, pred, cls, eps_prime, 0.1, rng, grid)
        if d is not None and oi_advantage(pop, pred, d) > 0:
            hits += 1
    assert hits >= 5
    gt = pop.ground_truth_predictor()
    quiet = 0
    for seed in range(6):
        rng = np.random.default_rng(50 + seed)
        d = select_distinguisher_randomized(pop, gt, cls, eps_prime, 0.1, rng, grid)
        if d is None or abs(oi_advantage(pop, gt, d)) <= eps_prime / 2:
            quiet += 1
    assert quiet >= 5


def test_select_requires_binary():
    rng = np.random.default_rng(0)
    pop, cls, pred = random_instance(rng, 4, 3, 2)
    with pytest.raises(DomainError):
        select_distinguisher_randomized(pop, pred, cls, F(1, 8), 0.1, rng,
                                        make_grid_with_denominator(pop.space, 2))


@pytest.mark.parametrize("eps_prime, beta", [
    (F(1, 32), 0), (F(1, 32), 1), (F(1, 32), 2), (0, 0.1), (F(-1, 32), 0.1)])
def test_select_rejects_beta_outside_unit_interval_and_nonpositive_eps(eps_prime, beta):
    # before these were checked: ZeroDivisionError at beta = 0 or eps' = 0, a math
    # domain error at beta >= 1, and a member of zero advantage at eps' < 0
    pop, cls, pred = fixture_two_point()
    with pytest.raises(DomainError):
        select_distinguisher_randomized(pop, pred, cls, eps_prime, beta,
                                        np.random.default_rng(0), identity_grid())


# ---------------------------------------------------------------------------
# low-degree construction and VC helper
# ---------------------------------------------------------------------------


def test_vc_dimension_bruteforce():
    rng = np.random.default_rng(2)
    pop, _, _ = random_instance(rng, 4, 2, 1)
    from multifair import Hypothesis
    ids = list(pop.ids)
    # all 16 boolean functions on 4 points shatter everything: VC = 4
    full = HypothesisClass(tuple(
        Hypothesis(f"h{k}", (0, 1), {ids[i]: (k >> i) & 1 for i in range(4)})
        for k in range(16)))
    assert vc_dimension(full) == 4
    single = HypothesisClass((indicator_all(pop),))
    assert vc_dimension(single) == 0


def test_low_degree_exact_k1_marginal_matching():
    rng = np.random.default_rng(3)
    pop, _, _ = random_instance(rng, 6, 4, 1)
    cls = HypothesisClass((indicator_all(pop),))
    out, tr = construct_low_degree(pop, cls, 1, F(1, 10))
    fam = make_family("lowdegree", hypotheses=cls, degree=1, outcome_space=pop.space)
    assert audit_oi(pop, out, fam).value <= F(1, 10)
    truth = pop.outcome_marginal()
    for o in range(pop.space.size):
        got = sum(F(pop.weight[j]) * F(out.values[j].weights[o]) for j in pop.ids)
        assert abs(got - F(truth.weights[o])) <= F(1, 10)


def test_low_degree_ground_truth_immediate():
    rng = np.random.default_rng(4)
    pop, cls, _ = random_instance(rng, 5, 2, 2)
    fam = make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    gt = pop.ground_truth_predictor()
    out, tr = construct_exact(pop, fam, F(1, 10), rule=mwu_rule(pop.space, 0.1),
                              initial=gt)
    assert tr.iteration_count == 0


def test_low_degree_iteration_bound_scales_with_log_ell():
    eps = F(1, 5)
    counts = {}
    for ell in (4, 8):
        pop, cls, _ = random_instance(np.random.default_rng(ell), 6, ell, 2)
        out, tr = construct_low_degree(pop, cls, 2, eps)
        cap = math.ceil(2 * math.log(ell) / float(eps) ** 2)
        assert tr.iteration_count <= cap
        counts[ell] = cap
    assert counts[8] / counts[4] == pytest.approx(math.log(8) / math.log(4), abs=0.02)


def test_sampled_failure_path_carries_transcript(monkeypatch):
    """A learner that always fires runs the loop to its hard cap
    ceil(32 ln 2 / eps^2) and one draw past it; the failure carries the
    transcript up to the last iterate.  The loop passes the learner the
    threshold 3 eps / 4."""
    import multifair.construct as construct_mod
    from multifair.errors import SampledRunFailureError

    pop, cls, pred = fixture_two_point()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    stubborn = fam.members()[0]
    thresholds, iterates = set(), []

    def always_fires(family, threshold, samples, pop_, predictor):
        thresholds.add(threshold)
        return stubborn, 1.0

    def spy(*args):
        iterates.append(apply_update(*args))
        return iterates[-1]

    apply_update = construct_mod._apply_update
    monkeypatch.setattr(construct_mod, "wal_erm", always_fires)
    monkeypatch.setattr(construct_mod, "_apply_update", spy)
    with pytest.raises(SampledRunFailureError) as exc:
        construct_mod.construct_sampled(pop, fam, 0.5, beta=0.05,
                                        rng=np.random.default_rng(0), seed=0)
    tr = exc.value.transcript
    cap = math.ceil(32 * math.log(2) / 0.5 ** 2)
    assert tr is not None and tr.succeeded is False
    assert tr.iteration_count == len(iterates) == cap
    assert tr.final_predictor is iterates[-1]
    assert tr.sample_count == (cap + 1) * wal_sample_count(0.5, 0.05, 2 * fam.member_count())
    assert thresholds == {3 * 0.5 / 4}


def test_exact_regret_bound_cap_raises(monkeypatch):
    """A best response that always clears eps drives ceil(bound) + 1
    updates; the next one would pass the regret bound and raises
    InternalInvariantError instead."""
    from multifair.errors import InternalInvariantError

    pop, cls, _ = random_instance(np.random.default_rng(5), 6, 2, 2)
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    stubborn, eps = fam.members()[0], F(1, 4)
    rule = mwu_rule(pop.space, float(eps))
    start = Predictor({j: rule.initial for j in pop.ids})
    bound = construct_module.iteration_bound_exact(pop, start, rule, eps)
    updates = []

    def spy(*args):
        updates.append(args)
        return apply_update(*args)

    apply_update = construct_module._apply_update
    monkeypatch.setattr(construct_module, "_reduce",
                        lambda prep, family: (None, stubborn, 2 * eps))
    monkeypatch.setattr(construct_module, "_apply_update", spy)
    with pytest.raises(InternalInvariantError, match="regret bound"):
        construct_exact(pop, fam, eps, rule=rule)
    assert bound > 10
    assert len(updates) == math.ceil(bound) + 1


@pytest.mark.parametrize("mode, epsilon, beta, message", [
    *((mode, eps, 0.05, "epsilon must be positive and finite")
      for mode in ("exact", "sampled") for eps in (0, -0.1, float("nan"), float("inf"))),
    *((mode, 0.2, beta, "failure probability must lie in")
      for mode in ("sampled", "lowdegree") for beta in (0, 1, -0.5, float("inf"), float("nan"))),
])
def test_constructors_refuse_bad_epsilon_and_beta_before_drawing(mode, epsilon, beta, message):
    """Before any build or draw: 0, negative, NaN and infinite eps used to
    raise ZeroDivisionError (sampled at 0), the threshold's message
    (sampled, negative or infinite), a bare ValueError (exact, NaN) or
    OverflowError (exact, infinite); a beta of 0, negative, infinite or
    NaN used to fail in the sample count's arithmetic."""
    pop, cls, _ = fixture_two_point()
    fam = make_family("basic", hypotheses=cls, grid=identity_grid())
    rule = mwu_rule(pop.space, 0.1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=message):
        if mode == "exact":
            construct_exact(pop, fam, epsilon, rule=rule)
        elif mode == "sampled":
            construct_sampled(pop, fam, epsilon, rule=rule, beta=beta, rng=rng)
        else:
            construct_low_degree(pop, cls, 1, epsilon, mode="sampled", rng=rng, beta=beta,
                                 rule=rule)
    assert rng.bit_generator.state == state


def test_pgd_accepts_arbitrary_start():
    pop, cls, _ = random_instance(np.random.default_rng(21), 5, 2, 2)
    fam = make_family("mc", hypotheses=cls, grid=identity_grid())
    start = Predictor({j: OutcomeDist.bernoulli(F(9, 10)) for j in pop.ids})
    rule = pgd_rule(pop.space, 0.05)
    out, tr = construct_exact(pop, fam, F(1, 10), rule=rule, initial=start)
    assert tr.final_audit <= F(1, 10)


def test_mwu_transcripts_not_longer_than_pgd_on_suite():
    # at 8 outcomes the entropy geometry converges in fewer updates
    eps = F(1, 8)
    mwu_total = 0
    pgd_total = 0
    for seed in range(6):
        pop, cls, _ = random_instance(np.random.default_rng(400 + seed), 8, 8, 3)
        grid = make_grid_with_denominator(pop.space, 2)
        fam = make_family("mc", hypotheses=cls, grid=grid)
        _, tr_m = construct_exact(pop, fam, eps,
                                  rule=mwu_rule(pop.space, float(eps)))
        _, tr_p = construct_exact(pop, fam, eps,
                                  rule=pgd_rule(pop.space, float(eps) / 8))
        mwu_total += tr_m.iteration_count
        pgd_total += tr_p.iteration_count
    assert mwu_total <= pgd_total


def test_low_degree_sampled_mode_counts():
    from multifair.construct import low_degree_sample_count
    from multifair.oi import monomial_multisets
    rng = np.random.default_rng(77)
    pop, cls, _ = random_instance(rng, 5, 2, 2)
    vc = vc_dimension(cls)
    n = low_degree_sample_count(0.2, 0.1, vc, 2, 2)
    m_k = len(monomial_multisets(2, 2))
    assert n == math.ceil(8 * (vc + math.log(2 * 2 * m_k / 0.1)) / 0.01)
    out, tr = construct_low_degree(pop, cls, 2, 0.2, mode="sampled",
                                   rng=np.random.default_rng(1), beta=0.1)
    for rec in tr.iterations:
        assert rec.samples_drawn == n
    fam = make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    assert audit_oi(pop, out, fam).value <= F(2, 10) or not tr.succeeded


def test_post_update_audit_snapshots_recorded():
    pop, cls, _ = random_instance(np.random.default_rng(88), 6, 4, 3)
    grid = make_grid_with_denominator(pop.space, 2)
    fam = make_family("mc", hypotheses=cls, grid=grid)
    out, tr = construct_exact(pop, fam, F(1, 8), rule=mwu_rule(pop.space, 1 / 8))
    if tr.iterations:
        assert all(r.post_update_audit is not None for r in tr.iterations)
        assert tr.iterations[-1].post_update_audit == tr.final_audit
