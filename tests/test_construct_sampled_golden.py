"""Golden transcripts of the sample-based constructor.

Each case runs `construct_sampled` on a fixed instance with a seeded
sampler and pins what the run decided: the witness of every iteration,
the iteration count, the per-call sample counts and the exact final
audit.  The empirical advantages (each iteration's `advantage` and
`post_update_audit`) are pinned to within 1e-15, since the learner may
round them differently in their last bits.  The cases are the instance
of acceptance criterion 7 under its seeds 0-19 and under the 24 sampler
seeds of the construct-exact benchmark, a low-degree family and an
explicit family with a callable member, three seeds each.

The file `construct_sampled_golden.json` was recorded before the learner
read the cell table of the empirical population, with

    PYTHONPATH=src python tests/test_construct_sampled_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from multifair import (
    construct_low_degree,
    construct_sampled,
    make_family,
    make_grid_with_denominator,
    random_instance,
)
from multifair.oi import Distinguisher

GOLDEN_PATH = Path(__file__).with_name("construct_sampled_golden.json")
EPS, BETA = 0.15, 0.05
BENCH_SLOTS = [10 * r + 9 for r in range(24)]  # construct-exact's sampled slots


def _criterion_7():
    pop, cls, _ = random_instance(np.random.default_rng(123), 8, 4, 6)
    return pop, cls


def _basic_run(rng, seed=None):
    pop, cls = _criterion_7()
    grid = make_grid_with_denominator(pop.space, 2)
    fam = make_family("basic", hypotheses=cls, grid=grid)
    return construct_sampled(pop, fam, EPS, beta=BETA, rng=rng, seed=seed)


def _lowdegree_run(seed):
    pop, cls, _ = random_instance(np.random.default_rng([2, 7]), 6, 4, 2)
    return construct_low_degree(pop, cls, 2, 0.1, mode="sampled",
                                rng=np.random.default_rng(seed), beta=0.1)


def _rounds_to_vertex(j, o, p):
    """1 when p_j rounds onto a vertex of the denominator-2 grid and o is the
    vertex's outcome; a callable member that reads the predictor."""
    point = make_grid_with_denominator(p.values[j].space, 2).round_dist(p.values[j])
    return 1 if point.weight(o) == 1 else 0


def _explicit_run(seed):
    pop, cls = _criterion_7()
    grid = make_grid_with_denominator(pop.space, 1)
    basic = make_family("basic", hypotheses=cls, grid=grid).members()
    fam = make_family("explicit", members=[Distinguisher("vertex", _rounds_to_vertex)] + basic)
    return construct_sampled(pop, fam, EPS, beta=BETA, rng=np.random.default_rng(seed),
                             seed=seed)


CASES = {
    **{f"criterion7-seed{s}": lambda s=s: _basic_run(np.random.default_rng(s), s)
       for s in range(20)},
    **{f"criterion7-bench{i}": lambda i=i: _basic_run(np.random.default_rng([0, 2, i]))
       for i in BENCH_SLOTS},
    **{f"lowdegree-seed{s}": lambda s=s: _lowdegree_run(s) for s in range(3)},
    **{f"explicit-seed{s}": lambda s=s: _explicit_run(s) for s in range(3)},
}


def _record(key):
    _, tr = CASES[key]()
    return {
        "witnesses": [repr(rec.witness) for rec in tr.iterations],
        "iterations": tr.iteration_count,
        "samples_drawn": [rec.samples_drawn for rec in tr.iterations],
        "sample_count": tr.sample_count,
        "succeeded": tr.succeeded,
        "final_audit": str(Fraction(tr.final_audit)),
        "advantages": [float(rec.advantage) for rec in tr.iterations],
        "post_update_audits": [float(rec.post_update_audit) for rec in tr.iterations],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert sum(rec["iterations"] for rec in golden.values()) > len(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_sampled_transcript_is_pinned(key, golden):
    got, want = _record(key), golden[key]
    for name in ("witnesses", "iterations", "samples_drawn", "sample_count", "succeeded",
                 "final_audit"):
        assert got[name] == want[name], name
    for name in ("advantages", "post_update_audits"):
        assert got[name] == pytest.approx(want[name], rel=0, abs=1e-15), name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({key: _record(key) for key in CASES}, indent=1) + "\n")
