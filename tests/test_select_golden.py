"""Golden results of the randomized distinguisher selection.

Each case runs `select_distinguisher_randomized` with a seeded generator
and pins what the call returned, the member's name, `repr` of its payload
(whose event cells are sorted) and its `negated` flag, or None, together
with the generator's state after the call, so a change to the draws, to
their order or to the learner's choice shows.  At eps' of 1/5 and 1/6 a
few random instances sit near the learner's threshold, where drawing the
modeled outcome before the true one changes the member returned.  The cases are the two-point
fixture of acceptance criterion 8 against its predictor and against its
ground truth; random binary instances with plain and complement-closed
classes at grid denominators 1, 2 and 4; predictors one multiplicative-
weights step away from a random one, whose predictions are floats; and the
m = 6 grid fixture.

The file `select_golden.json` was recorded before the selection drew
through `population._draw`, with

    PYTHONPATH=src python tests/test_select_golden.py
"""

import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from multifair import (
    LossTable,
    OutcomeDist,
    Predictor,
    SimplexGrid,
    fixture_grid_population,
    fixture_two_point,
    make_grid_with_denominator,
    mwu_rule,
    random_instance,
    select_distinguisher_randomized,
    update,
)

GOLDEN_PATH = Path(__file__).with_name("select_golden.json")
BETA = 0.1


def _identity_grid():
    return SimplexGrid.from_points(
        [OutcomeDist.bernoulli(F(0)), OutcomeDist.bernoulli(F(1))], eta=F(1, 2))


def _fixture(seed, truth):
    pop, cls, pred = fixture_two_point()
    if truth:
        pred = pop.ground_truth_predictor()
    return pop, pred, cls, F(1, 16), _identity_grid(), seed


def _random(i, m):
    rng = np.random.default_rng([29, i])
    n, k = int(rng.integers(5, 41)), int(rng.integers(2, 5))
    pop, cls, pred = random_instance(rng, n, 2, k, complement_closed=i % 2 == 1)
    eps = (F(1, 4), F(1, 5), F(1, 6))[i % 3]
    return pop, pred, cls, eps, make_grid_with_denominator(pop.space, m), 100 * i + m


def _after_mwu_step(i, m):
    """A random predictor after one multiplicative-weights step against a
    loss that varies by individual: float predictions off every grid."""
    pop, cls, pred = random_instance(np.random.default_rng([31, i]), 12, 2, 3)
    rule = mwu_rule(pop.space, step_size=0.5)
    losses = [LossTable(pop.space, (k % 3 / 2, 1 - k % 2)) for k in range(len(pop.ids))]
    stepped = Predictor({j: update(rule, pred.values[j], loss)
                         for j, loss in zip(pop.ids, losses)})
    return pop, stepped, cls, F(1, 8), make_grid_with_denominator(pop.space, m), i + m


def _grid_fixture(eps, seed):
    pop, cls, pred = fixture_grid_population(6)
    return pop, pred, cls, eps, make_grid_with_denominator(pop.space, 6), seed


CASES = {
    **{f"fixture-predictor-seed{s}": lambda s=s: _fixture(s, False) for s in range(5)},
    **{f"fixture-truth-seed{s}": lambda s=s: _fixture(50 + s, True) for s in range(5)},
    **{f"random{i}-m{m}": lambda i=i, m=m: _random(i, m)
       for i in range(12) for m in (1, 2, 4)},
    **{f"mwu{i}-m{m}": lambda i=i, m=m: _after_mwu_step(i, m)
       for i in range(2) for m in (1, 2, 4)},
    **{f"grid6-eps{e.denominator}-seed{s}": lambda e=e, s=s: _grid_fixture(e, s)
       for e in (F(1, 8), F(1, 16)) for s in range(2)},
}


def _record(key):
    pop, pred, cls, eps, grid, seed = CASES[key]()
    rng = np.random.default_rng(seed)
    d = select_distinguisher_randomized(pop, pred, cls, eps, BETA, rng, grid)
    member = None if d is None else {
        "name": d.name, "payload": repr(d.payload), "negated": d.negated}
    return {"member": member, "state": rng.bit_generator.state}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    members = [rec["member"] for rec in golden.values()]
    # both outcomes are pinned, and members on a complement hypothesis
    assert any(m is None for m in members)
    assert any(m is not None and "'hypothesis': 'not:" in m["payload"] for m in members)


@pytest.mark.parametrize("key", list(CASES))
def test_selection_is_pinned(key, golden):
    assert _record(key) == golden[key]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({key: _record(key) for key in CASES}, indent=1) + "\n")
