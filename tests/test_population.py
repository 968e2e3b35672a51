from fractions import Fraction as F

import numpy as np
import pytest

from multifair import (
    HypothesisClass,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    binary_space,
    close_under_complement,
    fixture_grid_population,
    fixture_two_point,
    grid_fixture_mc_closed_form,
    grid_fixture_smc_closed_form,
    indicator_all,
    joint_tables,
    random_instance,
    sample,
)
from multifair import serialize
from multifair.errors import DomainError


def test_weights_must_sum_to_one():
    space = binary_space()
    with pytest.raises(DomainError):
        PopulationInstance(space, ("a", "b"),
                           {"a": F(1, 2), "b": F(1, 3)},
                           {"a": OutcomeDist.bernoulli(F(1, 2)),
                            "b": OutcomeDist.bernoulli(F(1, 2))})


def test_joint_table_marginal_mixture():
    pop, _, pred = fixture_two_point()
    tilde, star = joint_tables(pop, pred)
    assert tilde == {("0",): F(1, 2), ("1",): F(1, 2)}
    assert star == {("0",): F(1, 2), ("1",): F(1, 2)}
    assert sum(tilde.values()) == 1 and sum(star.values()) == 1


def test_joint_table_two_point_prediction_tuple():
    pop, _, pred = fixture_two_point()
    tilde, _ = joint_tables(pop, pred, [pred.as_projection()])
    zero, one = OutcomeDist.bernoulli(F(0)), OutcomeDist.bernoulli(F(1))
    assert tilde == {(zero, "0"): F(1, 2), (one, "1"): F(1, 2)}


def test_ground_truth_joints_coincide():
    rng = np.random.default_rng(4)
    pop, cls, _ = random_instance(rng, 6, 3, 2)
    gt = pop.ground_truth_predictor()
    for h in cls:
        tilde, star = joint_tables(pop, gt, [h.as_projection(), gt.as_projection()])
        assert tilde == star


def test_sample_empty_and_point_mass():
    pop, _, _ = fixture_two_point()
    rng = np.random.default_rng(0)
    assert sample(pop, rng, 0) == []
    space = binary_space()
    point = PopulationInstance(space, ("only",), {"only": F(1)},
                               {"only": OutcomeDist.bernoulli(F(1, 2))})
    draws = sample(point, np.random.default_rng(1), 50)
    assert all(j == "only" for j, _ in draws)


def test_sample_empirical_frequency():
    pop, _, _ = fixture_two_point()
    draws = sample(pop, np.random.default_rng(12345), 10_000)
    freq = sum(1 for _, o in draws if o == "1") / 10_000
    assert abs(freq - 0.5) < 0.02  # three sigma of a fair coin at n = 10^4


def test_sample_deterministic_given_seed():
    pop, _, _ = fixture_two_point()
    a = sample(pop, np.random.default_rng(9), 100)
    b = sample(pop, np.random.default_rng(9), 100)
    assert a == b


def test_two_point_fixture_shape():
    pop, cls, pred = fixture_two_point()
    assert pop.size == 2
    assert len(cls) == 1
    assert pred.values["0"].p_one() == 0 and pred.values["1"].p_one() == 1
    assert all(pop.p_true[j].p_one() == F(1, 2) for j in pop.ids)


def test_grid_fixture_shape_and_closed_forms():
    m = 7
    pop, cls, pred = fixture_grid_population(m)
    assert pop.size == m * m
    assert len(cls) == m
    # closed form (m^2 - 1) / (3 m^2) for the strict sum
    assert grid_fixture_smc_closed_form(m) == F(m * m - 1, 3 * m * m)
    assert grid_fixture_mc_closed_form(m) == max(
        2 * F(k, m) * (1 - F(k, m)) / m for k in range(1, m + 1))


def test_complement_closure():
    rng = np.random.default_rng(3)
    _, cls, _ = random_instance(rng, 5, 2, 3)
    closed = close_under_complement(cls)
    assert closed.closed_under_complement
    tables = {tuple(sorted(h.values.items())) for h in closed}
    for h in closed:
        assert tuple(sorted(h.complement().values.items())) in tables


def test_instance_serialization_round_trip():
    rng = np.random.default_rng(11)
    pop, cls, pred = random_instance(rng, 6, 3, 3)
    doc = serialize.instance_to_json(pop, cls, pred)
    pop2, cls2, pred2 = serialize.instance_from_json(doc)
    assert pop2.ids == pop.ids
    assert all(pop2.weight[j] == pop.weight[j] for j in pop.ids)
    assert all(pop2.p_true[j] == pop.p_true[j] for j in pop.ids)
    assert [h.name for h in cls2] == [h.name for h in cls]
    assert all(cls2.hypotheses[i].values == cls.hypotheses[i].values
               for i in range(len(cls)))
    assert all(pred2.values[j] == pred.values[j] for j in pop.ids)


def test_number_round_trip_rationals():
    for x in [F(1, 3), F(41650, 125000), F(1, 2), F(7, 10), F(22, 7), F(0)]:
        assert serialize.parse_number(serialize.number_to_string(x)) == x


def test_hypothesis_rejects_off_range_values():
    with pytest.raises(DomainError):
        from multifair import Hypothesis
        Hypothesis("bad", (0, 1), {"x": 2})


def test_hypothesis_class_rejects_duplicate_names():
    from multifair import Hypothesis
    pop, cls, _ = random_instance(np.random.default_rng(0), 4, 2, 2)
    h0, h1 = cls.hypotheses
    with pytest.raises(DomainError, match="c0"):
        HypothesisClass((h0, Hypothesis(h0.name, h1.range_values, h1.values)))


def test_indicator_all_is_constant_one():
    pop, _, _ = fixture_two_point()
    h = indicator_all(pop)
    assert all(h.values[j] == 1 for j in pop.ids)
