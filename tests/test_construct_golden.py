"""Golden transcripts of the exact constructor.

Each case runs `construct_exact` on a fixed seeded instance and pins the
sha256 of the `repr` of its output predictor, iteration records and final
audit.  The digests were recorded before the integer rounding kernels and
the reuse of the best response's prepared population went in; any change
to a float or rational value a constructor produces shows up here.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from multifair import (
    construct_exact,
    make_family,
    make_grid_with_denominator,
    mwu_rule,
    pgd_rule,
    random_instance,
)
from multifair.oi import Distinguisher

EPS = Fraction(1, 40)

GOLDEN = {
    "basic-mwu":
        "2975c318e984a8a50f3dedd9566fbb85aaf0a5d32508b8949ef0f8b25135a658",
    "basic-pgd":
        "79471b5d399d39099a935ed472165d4ea299f915d423110d8669a321754e7a4a",
    "mc-mwu":
        "67fd907aeb209cc9e9bc3c13e89dc0160ba3c61f312990a79c0183fea5a32227",
    "mc-pgd":
        "c975d89839bebafc1ee6a5cc9b1013c60009cb450b7de0b21c98e719ccc9ca72",
    "smc-mwu":
        "773a7e505d945f6a44d4f656a7f3c8e8f80919925c454969c40e4a5a0ebd4966",
    "smc-pgd":
        "9af16a976e0888ca5dcf8c39b21173ac01b9b22bebae203211d235961c2c0653",
    "lowdegree-mwu":
        "f1be6ea97ee0b146d5e3cf0807ceba1e76772dc9adc68d3e28e5b9e74b9f3792",
    "lowdegree-pgd":
        "372f15c8dd5bb6d51d474043feb5b1ff37d99c6f98c5f9722057471d9b2a2af1",
    "explicit-mwu":
        "592a358a0ec88ba73ec16b31518b467a6f230b9fb288f69d156d2eab1e751794",
    "explicit-pgd":
        "17e0ee1846ba23b9c8ce508f15fd01c9abfd5e79585dfe17e70a319071d2afef",
}


def _rounds_to_vertex(j, o, p):
    """1 when p_j rounds onto a vertex of the denominator-2 grid and o is the
    vertex's outcome; a callable member that reads the raw predictor."""
    point = make_grid_with_denominator(p.values[j].space, 2).round_dist(p.values[j])
    return 1 if point.weight(o) == 1 else 0


def _family(kind, pop, cls):
    grid = make_grid_with_denominator(pop.space, 2)
    if kind == "lowdegree":
        return make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)
    if kind == "explicit":
        basic = make_family("basic", hypotheses=cls, grid=grid).members()
        return make_family("explicit", members=basic + [Distinguisher("vertex", _rounds_to_vertex)])
    return make_family(kind, hypotheses=cls, grid=grid)


def _transcript_digest(kind, rule_kind):
    seed = ["basic", "mc", "smc", "lowdegree", "explicit"].index(kind)
    pop, cls, _ = random_instance(np.random.default_rng([seed, 41]), 8, 4, 3)
    if rule_kind == "mwu":
        rule = mwu_rule(pop.space, step_size=float(EPS))
    else:
        rule = pgd_rule(pop.space, step_size=float(EPS) / pop.space.size)
    out, tr = construct_exact(pop, _family(kind, pop, cls), EPS, rule=rule)
    text = repr((out, tr.iterations, tr.final_audit))
    return hashlib.sha256(text.encode()).hexdigest(), tr.iteration_count


@pytest.mark.parametrize("rule_kind", ["mwu", "pgd"])
@pytest.mark.parametrize("kind", ["basic", "mc", "smc", "lowdegree", "explicit"])
def test_construct_exact_transcript_is_pinned(kind, rule_kind):
    digest, iterations = _transcript_digest(kind, rule_kind)
    assert iterations > 0
    assert digest == GOLDEN[f"{kind}-{rule_kind}"]
