"""Golden outputs of the OI reduction.

Each case runs `oi._reduce` for one family kind under one backend on
fixed seeded instances with 0/1 classes, and pins the sha256 of the
`repr` of (value, witness, breakdown, member name, payload, advantage).
Every instance is reduced twice: with its own exact predictor and with
that predictor after one MWU step, whose predictions are floats.  The
digests were recorded before the one cell-table kernel and the event
members built from its rows went in; any change to a value, a witness, a
tie-break or a member's payload shows up here.
"""

import hashlib

import numpy as np
import pytest

from multifair import (
    LossTable,
    Predictor,
    make_family,
    make_grid_with_denominator,
    mwu_rule,
    random_instance,
    update,
)
from multifair.oi import Distinguisher, _reduce

GOLDEN = {
    "basic-rational":
        "182ce2555164dda1e4a80d30f5a28a39d1c41125e0be8d31f665df8b3524b104",
    "basic-float":
        "c1d179929830705e7869503da3fc420dcd456afae3388fe21bb228e03b0c048f",
    "mc-rational":
        "f7b088713f7178ef950e116b793f23ff378721044dbdd6bf30af125c3746d174",
    "mc-float":
        "d2bb1ad60a484d366b5578ce198dad7fc2e5508b845ca84f44866868acec0942",
    "smc-rational":
        "ab7bb04664dba1f99be5b58b0a74d5e45849927644f246a665452a878b538ea9",
    "smc-float":
        "5ee63bfc8162336f0635838e5079e29efb8b7f4476213acb1a21ce2efa484dc2",
    "lowdegree-rational":
        "41033063bab133c61b7636b5308925f9daddbeebc28feb513f408c2c540a8eb7",
    "lowdegree-float":
        "4bbf1269a433c14ab66457d8b4cd232bacc6dcb67512e4ffe165322f346dada3",
    "explicit-rational":
        "36d219de7ec485de8f2305503786c557e4173e98f186be037ffa06eaa1c9845d",
    "explicit-float":
        "10e9f3b6211a7455047fc4e58a1d9b016b4e158a1c6e1d9f2734fb202b72fdff",
}

KINDS = ("basic", "mc", "smc", "lowdegree", "explicit")


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
        rule = mwu_rule(pop.space, 0.3)
        loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        stepped = Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})
        yield pop, cls, m, pred
        yield pop, cls, m, stepped


def _digest(kind, backend):
    records = []
    for pop, cls, m, pred in _instances():
        report, d, adv, _ = _reduce(pop, pred, _family(kind, pop, cls, m), backend)
        records.append((report.value, report.witness, report.breakdown, d.name, d.payload, adv))
    return hashlib.sha256(repr(records).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_oi_reduction_is_pinned(kind, backend):
    assert _digest(kind, backend) == GOLDEN[f"{kind}-{backend}"]
