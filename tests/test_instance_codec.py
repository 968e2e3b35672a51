"""The instance layer against its references: `random_instance` against the
scalar draw loop, the memoized parse against a parse of every value on its
own, and JSON round trips of instances, predictors and partitions."""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    Hypothesis,
    HypothesisClass,
    OutcomeDist,
    PopulationInstance,
    Predictor,
    VertexPartition,
    binary_space,
    random_instance,
)
from multifair import serialize
from multifair.errors import InputError
from oracles import (
    instance_from_json_oracle,
    instance_to_json_oracle,
    random_instance_scalar_oracle,
)


def _outcome(fn, *args, **kwargs):
    """("ok", repr of the result), or the exception's type and message."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as e:  # noqa: BLE001 - every failure is compared
        return type(e), str(e)


# ---------------------------------------------------------------------------
# random_instance draws the scalar loop's stream
# ---------------------------------------------------------------------------


def _prefixed_rng(seed, prefix):
    """A generator advanced by `prefix` bounded 32-bit draws, so that an odd
    prefix leaves PCG64's buffered half-word set."""
    rng = np.random.default_rng(seed)
    for _ in range(prefix):
        rng.integers(0, 7)
    return rng


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prefix=st.integers(0, 3),
       n=st.integers(1, 40), ell=st.integers(2, 8), h=st.integers(1, 4),
       denominator=st.sampled_from((1, 2, 3, 16, 4096, 2**33)),
       binary=st.booleans(), closed=st.booleans())
def test_random_instance_draws_the_scalar_stream(seed, prefix, n, ell, h, denominator,
                                                 binary, closed):
    kwargs = dict(n_hypotheses=h, binary_hypotheses=binary, complement_closed=closed,
                  weight_denominator=denominator)
    rng, ref_rng = _prefixed_rng(seed, prefix), _prefixed_rng(seed, prefix)
    got = _outcome(random_instance, rng, n, ell, **kwargs)
    want = _outcome(random_instance_scalar_oracle, ref_rng, n, ell, **kwargs)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if got[0] == "ok":
        assert (random_instance(_prefixed_rng(seed, prefix), n, ell, **kwargs)
                == random_instance_scalar_oracle(_prefixed_rng(seed, prefix), n, ell, **kwargs))


@pytest.mark.parametrize("denominator,ell", [(1, 2), (2, 2), (2, 3), (3, 2), (16, 8)])
def test_random_instance_with_many_zero_rows(denominator, ell):
    # at denominator 2 and two outcomes a quarter of the rows are zero, so
    # the draw takes hundreds of blocks, each ending in a rewind
    rng, ref_rng = np.random.default_rng([denominator, ell]), np.random.default_rng(
        [denominator, ell])
    got = random_instance(rng, 600, ell, 2, weight_denominator=denominator)
    want = random_instance_scalar_oracle(ref_rng, 600, ell, 2,
                                         weight_denominator=denominator)
    assert got == want and repr(got) == repr(want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_instance_builds_each_distinct_row_once():
    pop, _, pred = random_instance(np.random.default_rng(5), 500, 2, 2, weight_denominator=3)
    dists = list(pop.p_true.values()) + list(pred.values.values())
    assert len({id(d) for d in dists}) == len(set(dists)) < 10
    assert len({id(w) for w in pop.weight.values()}) == len(set(pop.weight.values())) <= 3


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def _integral_as_int(cls):
    """The class as the parser reads it back: a hypothesis value that is a
    whole number is an int, so Fraction(1, 1) returns as 1."""
    def norm(v):
        return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
    return HypothesisClass(
        tuple(Hypothesis(h.name, tuple(map(norm, h.range_values)),
                         {j: norm(v) for j, v in h.values.items()}) for h in cls),
        closed_under_complement=cls.closed_under_complement)


def _assert_round_trip(pop, cls, pred):
    doc = serialize.instance_to_json(pop, cls, pred)
    back = serialize.instance_from_json(json.loads(json.dumps(doc)))
    assert back == (pop, cls, pred)
    assert repr(back) == repr((pop, _integral_as_int(cls), pred))
    assert serialize.instance_to_json(*back) == doc


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), ell=st.integers(2, 8),
       h=st.integers(1, 3), denominator=st.sampled_from((1, 2, 3, 16)),
       binary=st.booleans(), closed=st.booleans())
def test_random_instances_round_trip(seed, n, ell, h, denominator, binary, closed):
    pop, cls, pred = random_instance(
        np.random.default_rng(seed), n, ell, h, binary_hypotheses=binary,
        complement_closed=closed and binary, weight_denominator=denominator)
    _assert_round_trip(pop, cls, pred)


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, 3), min_size=1, max_size=12), copies=st.booleans())
def test_shared_distributions_round_trip(picks, copies):
    # individuals share distribution objects, or hold equal distinct copies
    pool = [OutcomeDist.bernoulli(Fraction(k, 4)) for k in range(4)]
    ids = tuple(f"i{pos}" for pos in range(len(picks)))

    def dist(k):
        return OutcomeDist.bernoulli(Fraction(k, 4)) if copies else pool[k]
    pop = PopulationInstance(binary_space(), ids, {j: Fraction(1, len(ids)) for j in ids},
                             {j: dist(k) for j, k in zip(ids, picks)})
    pred = Predictor({j: dist(3 - k) for j, k in zip(ids, picks)})
    cls = HypothesisClass((Hypothesis("c", (0, 1), {j: k % 2 for j, k in zip(ids, picks)}),),
                          closed_under_complement=False)
    _assert_round_trip(pop, cls, pred)
    back_pop = serialize.instance_from_json(serialize.instance_to_json(pop))[0]
    assert len({id(d) for d in back_pop.p_true.values()}) == len(set(picks))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), ell=st.integers(2, 8))
def test_predictors_round_trip(seed, n, ell):
    pop, _, pred = random_instance(np.random.default_rng(seed), n, ell, 1,
                                   weight_denominator=3)
    doc = serialize.predictor_to_json(pred)
    back = serialize.predictor_from_json(pop.space, json.loads(json.dumps(doc)))
    assert back == pred and repr(back) == repr(pred)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(12)), st.lists(st.integers(1, 11), max_size=5, unique=True))
def test_partitions_round_trip(order, cuts):
    bounds = [0, *sorted(cuts), 12]
    p = VertexPartition(tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])))
    back = serialize.partition_from_json(json.loads(json.dumps(serialize.partition_to_json(p))))
    assert back == p and repr(back) == repr(p)


def _mixed_instance():
    """Float and int masses, equal values of different types, and a
    hypothesis value True, which no emitter accepts."""
    space = binary_space()
    ids = ("a", "b", "c", "d")
    half = OutcomeDist(space, (0.5, 0.5))
    pop = PopulationInstance(space, ids, {"a": 0.25, "b": Fraction(1, 4), "c": 0.25, "d": 0.25},
                             {"a": half, "b": OutcomeDist(space, (Fraction(1, 2), Fraction(1, 2))),
                              "c": OutcomeDist(space, (1, 0)), "d": half})
    pred = Predictor({j: OutcomeDist(space, (0.1, 0.9)) for j in ids})
    cls = HypothesisClass((Hypothesis("c", (0, 1, 0.5), {"a": 1, "b": 1, "c": 0.5, "d": 0}),))
    bad = HypothesisClass((Hypothesis("t", (0, 1), {"a": 1, "b": True, "c": 0, "d": 1}),))
    return pop, cls, pred, bad


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), ell=st.integers(2, 8),
       denominator=st.sampled_from((1, 2, 16)), binary=st.booleans(), closed=st.booleans())
def test_emit_matches_the_per_individual_emit(seed, n, ell, denominator, binary, closed):
    pop, cls, pred = random_instance(
        np.random.default_rng(seed), n, ell, 2, binary_hypotheses=binary,
        complement_closed=closed and binary, weight_denominator=denominator)
    for args in ((pop,), (pop, cls), (pop, None, pred), (pop, cls, pred)):
        assert serialize.instance_to_json(*args) == instance_to_json_oracle(*args)
    assert serialize.predictor_to_json(pred) == instance_to_json_oracle(pop, None, pred)[
        "predictor"]


def test_emit_of_mixed_values_matches_the_per_individual_emit():
    pop, cls, pred, bad = _mixed_instance()
    got = serialize.instance_to_json(pop, cls, pred)
    assert json.dumps(got) == json.dumps(instance_to_json_oracle(pop, cls, pred))
    assert (_outcome(serialize.instance_to_json, pop, bad)
            == _outcome(instance_to_json_oracle, pop, bad)
            == (InputError, "booleans are not numbers here"))


def test_emitted_distributions_are_separate_dicts():
    pop, cls, pred = random_instance(np.random.default_rng(2), 40, 2, 1, weight_denominator=2)
    doc = serialize.instance_to_json(pop, cls, pred)
    entries = [ind["p_true"] for ind in doc["individuals"]] + list(doc["predictor"].values())
    assert len({id(e) for e in entries}) == len(entries) > len(set(pop.p_true.values()))


# ---------------------------------------------------------------------------
# The memoized parse against the parse of every value on its own
# ---------------------------------------------------------------------------

# JSON values in every accepted spelling, and values no reader accepts
NUMBERS = (0, 1, True, False, 1.0, 0.0, -0.0, "0", "1", "1/2", "0.5", " 1/2 ", "-1/2",
           "1/0", "abc", None, [], ["1/2"], {}, float("inf"), float("nan"))
TOKENS = (0, 1, True, False, 1.0, "0", "1", "1/2", "2/4", "a", "", None, [0], {"a": 1})
RANGES = (["0", "1"], [0, 1], [True, False], ["0", "1/2", "1"], [1.0, 0], ["a", "b"],
          [[0]], "01")
# groups of JSON values that are equal and hash alike in Python (1, 1.0 and
# true) but parse differently, so that one document holds several of them
NUMBER_TWINS = ([1, 0, True, False], [1, 0, 1.0, 0.0], [0, False, -0.0, "0", 1])
TOKEN_TWINS = ([1, True, 1.0], [0, False, 0.0], [1, 0, True, False])


def _dists(labels):
    a, b = labels[0], labels[-1]
    return ({a: 1, b: 0}, {a: True, b: False}, {a: 1.0, b: 0.0}, {a: "1", b: "0"},
            {a: "1/2", b: "1/2"}, {a: 0.5, b: 0.5}, {b: "1"}, {a: "1/2"}, {"zz": "1"},
            ["1/2", "1/2"], "1", None, {a: ["1"], b: "0"}, {a: {"x": 1}, b: "0"},
            {a: "-1", b: "2"}, {a: "1/0", b: "1"}, {a: "1", b: "0", "zz": "0"})


def _dist_twins(labels):
    a, b = labels[0], labels[-1]
    return ([{a: 1, b: 0}, {a: True, b: False}], [{a: 1, b: 0}, {a: 1.0, b: 0.0}],
            [{a: "1", b: "0"}, {a: 1, b: 0}, {a: True, b: False}],
            [{a: "1/2", b: "1/2"}, ["1/2", "1/2"]])


def _palette(draw, pool, twins):
    """The few values one document draws from: most often a group of twins,
    else up to three values of the pool, so that values repeat within the
    document."""
    twin = st.sampled_from(twins)
    return draw(st.one_of(twin, twin, st.lists(st.sampled_from(pool), min_size=1, max_size=3)))


def _rare(draw, value, alternatives):
    """`value`, or one of `alternatives` one draw in eight."""
    return draw(st.sampled_from(alternatives)) if draw(st.integers(0, 7)) == 0 else value


@st.composite
def instance_documents(draw):
    labels = _rare(draw, ["0", "1"], (["a", "b", "c"], ["0"], [0, 1], ["0", "0"], "01"))
    string_labels = [str(o) for o in labels] if isinstance(labels, list) else []
    string_labels = string_labels or ["0", "1"]
    dists = _palette(draw, _dists(string_labels), _dist_twins(string_labels))
    numbers = _palette(draw, NUMBERS, NUMBER_TWINS)
    tokens = _palette(draw, TOKENS, TOKEN_TWINS)
    n = draw(st.integers(1, 4))
    even = draw(st.integers(0, 3)) > 0  # weights that sum to 1, bar a rare bad one
    ids = [_rare(draw, f"x{i}", ("x0", 0, None, ["x"])) for i in range(n)]
    individuals = []
    for j in ids:
        weight = (_rare(draw, f"1/{n}", numbers) if even
                  else draw(st.sampled_from(numbers)))
        ind = {"id": j, "weight": weight, "p_true": draw(st.sampled_from(dists))}
        if draw(st.integers(0, 15)) == 0:
            del ind[draw(st.sampled_from(("id", "weight", "p_true")))]
        individuals.append(ind)
    doc = {"outcomes": labels, "individuals": individuals}
    if draw(st.booleans()):
        hyps = []
        for c in range(draw(st.integers(0, 2))):
            values = {str(j): draw(st.sampled_from(tokens)) for j in ids
                      if draw(st.integers(0, 9))}
            hyps.append({"name": _rare(draw, f"c{c}", ("c0", 5, None)),
                         "range": draw(st.sampled_from(RANGES)),
                         "values": _rare(draw, values, ([0, 1],))})
        doc["hypotheses"] = hyps
        doc["closed_under_complement"] = draw(st.sampled_from((False, True, None, 1)))
    if draw(st.booleans()):
        doc["predictor"] = _rare(draw, {str(j): draw(st.sampled_from(dists)) for j in ids},
                                 ([{"0": "1"}],))
    return doc


@st.composite
def valid_documents(draw):
    """A random instance's document, with its values spelt in other accepted
    forms: plain JSON integers and floats for whole and dyadic values."""
    pop, cls, pred = random_instance(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 12)),
        draw(st.integers(2, 4)), draw(st.integers(1, 3)),
        binary_hypotheses=draw(st.booleans()), weight_denominator=2)
    doc = serialize.instance_to_json(pop, cls, pred)
    respell = {"0": 0, "1": 1, "0.5": 0.5, "0.25": 0.25}
    for ind in doc["individuals"]:
        if draw(st.booleans()):
            ind["p_true"] = {o: respell.get(v, v) for o, v in ind["p_true"].items()}
    return doc


@settings(max_examples=1000, deadline=None)
@given(st.one_of(instance_documents(), valid_documents()))
def test_parse_matches_the_per_value_parse(doc):
    got = _outcome(serialize.instance_from_json, copy.deepcopy(doc))
    want = _outcome(instance_from_json_oracle, copy.deepcopy(doc))
    assert got == want


@pytest.mark.parametrize("doc", [
    # one distribution spelt with integers, then with booleans
    {"outcomes": ["0", "1"],
     "individuals": [{"id": "a", "weight": "1/2", "p_true": {"0": 1, "1": 0}},
                     {"id": "b", "weight": "1/2", "p_true": {"0": True, "1": False}}]},
    # the weight 1 after a weight true
    {"outcomes": ["0", "1"],
     "individuals": [{"id": "a", "weight": True, "p_true": {"0": "1"}},
                     {"id": "b", "weight": 1, "p_true": {"0": "1"}}]},
    # a hypothesis value true next to 1, 1.0 and "1"
    {"outcomes": ["0", "1"],
     "individuals": [{"id": j, "weight": "1/4", "p_true": {"0": "1"}} for j in "abcd"],
     "hypotheses": [{"name": "c", "range": [0, 1, True],
                     "values": {"a": 1, "b": True, "c": "1", "d": 0}}]},
    {"outcomes": ["0", "1"],
     "individuals": [{"id": j, "weight": "1/2", "p_true": {"0": "1"}} for j in "ab"],
     "hypotheses": [{"name": "c", "range": [0, 1], "values": {"a": 1, "b": 1.0}}]},
])
def test_parse_keeps_json_types_apart(doc):
    got = _outcome(serialize.instance_from_json, copy.deepcopy(doc))
    assert got == _outcome(instance_from_json_oracle, copy.deepcopy(doc))


def test_hypothesis_value_true_parses_as_true():
    doc = {"outcomes": ["0", "1"],
           "individuals": [{"id": j, "weight": "1/2", "p_true": {"0": "1"}} for j in "ab"],
           "hypotheses": [{"name": "c", "range": [0, 1], "values": {"a": True, "b": 1}}]}
    _, cls, _ = serialize.instance_from_json(copy.deepcopy(doc))
    values = cls.hypotheses[0].values
    assert values["a"] is True and type(values["b"]) is int
    assert repr(cls) == repr(instance_from_json_oracle(doc)[1])
