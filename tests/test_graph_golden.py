"""Golden outputs of the exact multi-part graph checks and the refiner.

Each case runs `check_intermediate`, `max_st_irregularity` or
`refine_intermediate` on a fixed seeded planted graph and pins the sha256
of the `repr` of its result: the report, the (value, S, T) triple, or the
final partition with the transcript.  The n = 14 shapes are the checked
partitions of the graph-regularity benchmark, and the refines run on
planted n = 12 graphs.  The digests were recorded before the partition
scan moved onto the grid of its parts' local T-masks; any change to a
value or to the witness a scan picks shows up here.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from multifair import (
    DiGraph,
    VertexPartition,
    check_intermediate,
    max_st_irregularity,
    refine_intermediate,
)

EPS = Fraction(1, 5)

GOLDEN = {
    "7-7:max-st":
        "b0849b74ed34061ba478857254d43e4883861965bd8c460de2b7e9d3a4187478",
    "7-7:check-int":
        "e502fa911005f091ae78e42531f0a5867d476503c00bc5d58d2978ac27ff3ea0",
    "7-7:check-int-float":
        "239380963f5da919b7bb941aa6879771b3c7c6ec5b73d02e46578b76579c1280",
    "5-5-4:max-st":
        "0ca9f83072302bc0b7e3da5a681052737397fd72f8c0007aebaae7ec59c60b21",
    "5-5-4:check-int":
        "27af1edf9b0b07e6d51462aeec6f82d65aa875c84816be439c2b6633a08b4f6a",
    "5-5-4:check-int-float":
        "a056cddd2a4e9942a004d0ab82cae643e4ea09d1617afd5886620dfb1a8d7249",
    "4-4-3-3:max-st":
        "494bbd7401ad85af181b6279ec4818b307f9cba17276c174739f34941f73e962",
    "4-4-3-3:check-int":
        "f9d52e2d8ada363b1402f58b42eacbdbea12c50ac9b54e5b030880b6ccdfe0b8",
    "4-4-3-3:check-int-float":
        "2f273058853b04452f9d1da18960f09f665d3a5feac36ad3068e5825891f5b9c",
    "6-6:refine":
        "e904fce196dc880bd9d3bff09a7c83fda4ebf405e40de3008ff33046ffecb2f9",
    "4-4-4:refine":
        "9915569bb11f3ccb8fd1f5260335f4eda69e0bf162b70ed2917d006098445b96",
}


def planted_graph(rng, sizes, p_in=0.85, p_out=0.15):
    """A digraph with planted blocks of the given sizes, and that partition."""
    n = sum(sizes)
    perm = rng.permutation(n)
    block = np.empty(n, dtype=np.int64)
    parts = []
    start = 0
    for b, size in enumerate(sizes):
        members = sorted(int(v) for v in perm[start:start + size])
        parts.append(tuple(members))
        block[members] = b
        start += size
    adj = rng.random((n, n)) < np.where(block[:, None] == block[None, :], p_in, p_out)
    np.fill_diagonal(adj, False)
    return DiGraph(n, frozenset(map(tuple, np.argwhere(adj).tolist()))), \
        VertexPartition(tuple(parts))


CHECK_SHAPES = {"7-7": (7, 7), "5-5-4": (5, 5, 4), "4-4-3-3": (4, 4, 3, 3)}
REFINE_SHAPES = {"6-6": (6, 6), "4-4-4": (4, 4, 4)}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _check_digests(name):
    shape = CHECK_SHAPES[name]
    g, p = planted_graph(np.random.default_rng([16, len(shape), shape[0]]), shape)
    return {"max-st": _digest(max_st_irregularity(g, p)),
            "check-int": _digest(check_intermediate(g, p, EPS)),
            "check-int-float": _digest(check_intermediate(g, p, 0.3))}


@pytest.mark.parametrize("name", list(CHECK_SHAPES))
def test_multi_part_checks_are_pinned(name):
    for kind, digest in _check_digests(name).items():
        assert digest == GOLDEN[f"{name}:{kind}"], kind


@pytest.mark.parametrize("name", list(REFINE_SHAPES))
def test_refine_is_pinned(name):
    shape = REFINE_SHAPES[name]
    g, _ = planted_graph(np.random.default_rng([16, 12, len(shape)]), shape, 0.8, 0.25)
    p, tr = refine_intermediate(g, EPS)
    assert p.size > 1 and tr.steps
    assert _digest((p, tr)) == GOLDEN[f"{name}:refine"]
