"""Finite population instances, predictors, hypothesis classes, and fixtures.

A population instance is the explicit joint law of (individual, true
outcome): an ordered list of individuals with marginal weights plus, for
each individual, the conditional outcome distribution.  A predictor is a
total map from individuals to outcome distributions; its modeled outcome
is the synthetic outcome drawn from that distribution.  Everything is
immutable and exact; randomness only enters through explicitly passed
numpy generators.

The two fixtures at the bottom are the standard separation instances: the
two-point population where a predictor is perfectly multi-accurate but
badly multi-calibrated, and the m-by-m grid population whose per-level
violations have the closed forms 2v(1-v), making audits checkable symbol
by symbol.

A population keeps one exact integer table of its masses, built on first
use and then shared by every exact audit of that population (see
`PopulationInstance._exact_table`), a hypothesis class the y-index array
of its last population (`HypothesisClass._y_index`), and a predictor its
prepared populations for its last population, one per grid
(`audits._prepared`).  None is rebuilt, so all rely on immutability:
weight, truth, hypothesis value and predictor value maps must not be
mutated after construction, or later audits read the old values.

`random_instance` costs per distinct value: each phase of its draws is a
vector call, and individuals with equal distributions or masses share one
object.  Its draws consume the generator exactly as one scalar call per
row or value would, so an instance is a function of the generator state
alone, the same as when it was drawn value by value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    OutcomeDist,
    OutcomeSpace,
    SimplexGrid,
    _exact_ratios,
    binary_space,
    exactify,
    is_exact_number,
)
from .errors import DomainError

# beyond this, exact arrays hold Python ints, not int64: the rows a cell
# table sums total at most 4D <= 2^62 in absolute value (`audits._Prepared`)
_NUMPY_SAFE_LIMIT = 1 << 60


@dataclass(frozen=True)
class PopulationInstance:
    """Joint law of (individual, true outcome) over an explicit finite population."""

    space: OutcomeSpace
    ids: tuple
    weight: dict  # id -> marginal mass
    p_true: dict  # id -> OutcomeDist, the conditional outcome law
    _table: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if not self.ids:
            raise DomainError("population must have at least one individual")
        if set(self.weight) != set(self.ids) or set(self.p_true) != set(self.ids):
            raise DomainError("weights and true conditionals must cover exactly the ids")
        total = sum(self.weight[j] for j in self.ids)
        exact = all(is_exact_number(self.weight[j]) for j in self.ids)
        if any(self.weight[j] < 0 for j in self.ids):
            raise DomainError("negative population weight")
        if exact and total != 1:
            raise DomainError(f"population weights sum to {total}, expected exactly 1")
        if not exact and abs(total - 1) > 1e-12:
            raise DomainError("population weights must sum to 1 within 1e-12")
        for j in self.ids:
            if self.p_true[j].space != self.space:
                raise DomainError("true conditional on a different outcome space")

    @property
    def size(self) -> int:
        return len(self.ids)

    def _exact_table(self) -> tuple:
        """(weights, star, D_pop), built on the first call and then reused.

        `weights[pos]` is the reduced (numerator, denominator) of w_j for the
        pos-th id, and `star[pos, o]` the integer D_pop * w_j * p*_j(o), where
        D_pop is the least common denominator of those reduced products.
        `star` is an `_int_array`.  A float weight enters by its exact binary
        value, and a truth row as a prediction does: by `_exact_ratios`,
        once per distinct row object, so each row sums to 1 exactly.
        """
        if self._table is None:
            weights = tuple(exactify(self.weight[j]).as_integer_ratio() for j in self.ids)
            truths = list(map(self.p_true.__getitem__, self.ids))
            distinct = dict(zip(map(id, truths), truths))  # identity keys: truths keeps them
            ratios = {i: _exact_ratios(d) for i, d in distinct.items()}
            star, D = _scaled_products(weights, list(map(ratios.__getitem__, map(id, truths))))
            object.__setattr__(self, "_table", (weights, _int_array(star, D), D))
        return self._table

    def ground_truth_predictor(self) -> "Predictor":
        return Predictor({j: self.p_true[j] for j in self.ids})

    def outcome_marginal(self) -> OutcomeDist:
        ws = [sum(self.weight[j] * self.p_true[j].weights[o] for j in self.ids)
              for o in range(self.space.size)]
        return OutcomeDist(self.space, tuple(ws))


def _scaled_products(weights, rows, base=1):
    """(numerators, D) for the products w_j * x_j(o) of integer ratios.

    Each product is reduced by a gcd, D is the lcm of `base` and the
    reduced denominators, and numerators[pos][o] is the product times D.
    """
    cells = []
    for (a, b), row in zip(weights, rows):
        out = []
        for c, e in row:
            num, den = a * c, b * e
            g = math.gcd(num, den)
            out.append((num // g, den // g))
        cells.append(out)
    D = math.lcm(base, *{den for row in cells for _, den in row})
    return [[num * (D // den) for num, den in row] for row in cells], D


def _int_array(rows, D) -> np.ndarray:
    """Integer rows over a common denominator D: int64 while D <= 2^60, else object."""
    return np.array(rows, dtype=np.int64 if D <= _NUMPY_SAFE_LIMIT else object)


@dataclass(frozen=True)
class Predictor:
    """Total map from individuals to outcome distributions.  It caches its
    prepared populations (`audits._prepared`), so `values` must not be
    mutated."""

    values: dict  # id -> OutcomeDist
    _prepared: tuple = field(default=None, init=False, compare=False, repr=False)

    def value(self, j) -> OutcomeDist:
        try:
            return self.values[j]
        except KeyError:
            raise DomainError(f"predictor undefined on individual {j!r}") from None

    def check_total(self, pop: PopulationInstance):
        missing = [j for j in pop.ids if j not in self.values]
        if missing:
            raise DomainError(f"predictor missing individuals: {missing[:5]}")

    def as_exact(self) -> "Predictor":
        """This predictor with exact predictions: itself when they all are."""
        if all(d.is_exact for d in self.values.values()):
            return self
        return Predictor({j: d.as_exact() for j, d in self.values.items()})


def constant_predictor(pop: PopulationInstance, dist: OutcomeDist) -> Predictor:
    return Predictor({j: dist for j in pop.ids})


def discretize(predictor: Predictor, grid: SimplexGrid) -> Predictor:
    """Round every prediction to its nearest grid point (earliest point on ties)."""
    cache: dict = {}
    out = {}
    for j, d in predictor.values.items():
        if d not in cache:
            cache[d] = grid.round_dist(d)
        out[j] = cache[d]
    return Predictor(out)


@dataclass(frozen=True)
class Hypothesis:
    """A function from individuals to a finite ordered range."""

    name: str
    range_values: tuple
    values: dict  # id -> range element

    def __post_init__(self):
        object.__setattr__(self, "range_values", tuple(self.range_values))
        allowed = set(self.range_values)
        bad = {v for v in self.values.values() if v not in allowed}
        if bad:
            raise DomainError(f"hypothesis {self.name}: values outside range: {bad}")

    def value(self, j):
        try:
            return self.values[j]
        except KeyError:
            raise DomainError(f"hypothesis {self.name} undefined on {j!r}") from None

    @property
    def is_binary(self) -> bool:
        return set(self.range_values) <= {0, 1}

    def complement(self, name=None) -> "Hypothesis":
        if not self.is_binary:
            raise DomainError("complement is only defined for 0/1-valued hypotheses")
        return Hypothesis(
            name or f"not:{self.name}",
            self.range_values if set(self.range_values) == {0, 1} else (0, 1),
            {j: 1 - v for j, v in self.values.items()},
        )


@dataclass(frozen=True)
class HypothesisClass:
    """Hypotheses over one range.  Like `PopulationInstance` it caches an
    array (`_y_index`), so its hypotheses' value maps must not be mutated."""

    hypotheses: tuple
    closed_under_complement: bool = False
    _index: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.hypotheses:
            raise DomainError("hypothesis class must be nonempty")
        names = set()
        for h in self.hypotheses:
            if h.name in names:
                raise DomainError(f"two hypotheses are named {h.name!r}")
            names.add(h.name)
        rng = self.hypotheses[0].range_values
        if any(h.range_values != rng for h in self.hypotheses):
            raise DomainError("all hypotheses in a class must share one range")
        if self.closed_under_complement:
            if not all(h.is_binary for h in self.hypotheses):
                raise DomainError("complement closure only makes sense for 0/1 ranges")
            tables = {tuple(sorted(h.values.items())) for h in self.hypotheses}
            for h in self.hypotheses:
                comp = tuple(sorted(h.complement().values.items()))
                if comp not in tables:
                    raise DomainError(f"class not closed under complement at {h.name}")

    def __iter__(self):
        return iter(self.hypotheses)

    def __len__(self):
        return len(self.hypotheses)

    @property
    def range_values(self) -> tuple:
        return self.hypotheses[0].range_values

    def _y_index(self, ids: tuple) -> np.ndarray:
        """[c, pos]: the index in `range_values` of hypothesis c's value at
        ids[pos].  Kept until a call passes another tuple than `ids`, which
        the cache holds, so the identity key cannot be reused."""
        if self._index is None or self._index[0] is not ids:
            y_idx = {y: i for i, y in enumerate(self.range_values)}
            index = np.array([list(map(y_idx.__getitem__, map(h.values.__getitem__, ids)))
                              for h in self.hypotheses], dtype=np.intp)
            object.__setattr__(self, "_index", (ids, index))
        return self._index[1]

    @property
    def is_binary(self) -> bool:
        return all(h.is_binary for h in self.hypotheses)


def indicator_all(pop: PopulationInstance, name: str = "all") -> Hypothesis:
    """The constant-1 set indicator over the whole population."""
    return Hypothesis(name, (0, 1), {j: 1 for j in pop.ids})


def close_under_complement(cls: HypothesisClass) -> HypothesisClass:
    """Extend a 0/1 class with the missing pointwise complements."""
    return HypothesisClass(tuple(_with_complements(cls.hypotheses)),
                           closed_under_complement=True)


def _with_complements(hypotheses) -> list:
    """The hypotheses, then the pointwise complement of each whose table is
    not there yet, in order."""
    seen = {tuple(sorted(h.values.items())) for h in hypotheses}
    out = list(hypotheses)
    for h in hypotheses:
        comp = h.complement()
        key = tuple(sorted(comp.values.items()))
        if key not in seen:
            seen.add(key)
            out.append(comp)
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(pop: PopulationInstance, rng: np.random.Generator, n: int) -> list:
    """n i.i.d. draws of (individual, outcome); deterministic given the generator state."""
    idx, o_idx = _draw(pop, rng, n)
    labels = pop.space.labels
    return [(pop.ids[i], labels[o]) for i, o in zip(idx.tolist(), o_idx.tolist())]


def _draw(pop: PopulationInstance, rng: np.random.Generator, n: int) -> tuple:
    """The draws of `sample` as (individual positions, outcome indices), two
    int arrays; n = 0 draws nothing and leaves the generator as it was."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    weights = np.array([float(pop.weight[j]) for j in pop.ids], dtype=float)
    idx = rng.choice(len(pop.ids), size=n, p=weights / weights.sum())
    return idx, _draw_outcomes(rng, _cumulative([pop.p_true[j] for j in pop.ids])[idx])


def _cumulative(dists) -> np.ndarray:
    """Cumulative outcome probabilities as floats, one row per distribution."""
    return np.cumsum(np.array([[float(w) for w in d.weights] for d in dists], dtype=float),
                     axis=1)


def _draw_outcomes(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """One outcome index per cumulative row, from one uniform draw each: the
    number of entries below the draw, clamped to the last outcome for rows
    whose float total falls short of 1."""
    u = rng.random(len(rows))
    return np.minimum((rows < u[:, None]).sum(axis=1), rows.shape[1] - 1)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def fixture_two_point():
    """Two individuals, fair-coin outcomes, and the identity predictor.

    The predictor predicts 0 on individual "0" and 1 on individual "1"
    while the truth is Bernoulli(1/2) everywhere; jointly with the class
    {1_X} this is multi-accurate with slack 0 yet multi-calibrated only
    with slack 1/2.
    """
    space = binary_space()
    half = Fraction(1, 2)
    ids = ("0", "1")
    pop = PopulationInstance(
        space=space,
        ids=ids,
        weight={j: half for j in ids},
        p_true={j: OutcomeDist.bernoulli(half) for j in ids},
    )
    cls = HypothesisClass((indicator_all(pop),))
    predictor = Predictor({
        "0": OutcomeDist.bernoulli(Fraction(0)),
        "1": OutcomeDist.bernoulli(Fraction(1)),
    })
    return pop, cls, predictor


def fixture_grid_population(m: int):
    """The m-by-m population separating multi-calibration from its strict form.

    Individuals are pairs (r, c) in [m] x [m], the true outcome is
    1[r >= c], the predictor outputs r/m, and hypothesis k indicates
    {r = k and c <= k}.  Per level v = k/m the conditional violation of
    c_k is exactly 2v(1-v); every other hypothesis is silent there.
    """
    if m < 2:
        raise DomainError("grid fixture needs m >= 2")
    space = binary_space()
    ids = tuple(f"{r},{c}" for r in range(1, m + 1) for c in range(1, m + 1))
    w = Fraction(1, m * m)
    weight = {j: w for j in ids}
    truth = [OutcomeDist.bernoulli(Fraction(b)) for b in (0, 1)]
    levels = [OutcomeDist.bernoulli(Fraction(r, m)) for r in range(1, m + 1)]
    p_true = {}
    values = {}
    for r in range(1, m + 1):
        for c in range(1, m + 1):
            j = f"{r},{c}"
            p_true[j] = truth[r >= c]
            values[j] = levels[r - 1]
    pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
    hyps = []
    zeros = dict.fromkeys(ids, 0)
    for k in range(1, m + 1):
        hv = dict(zeros)
        hv.update((f"{k},{c}", 1) for c in range(1, k + 1))
        hyps.append(Hypothesis(f"c{k}", (0, 1), hv))
    return pop, HypothesisClass(tuple(hyps)), Predictor(values)


def grid_fixture_mc_closed_form(m: int) -> Fraction:
    """max_k 2(k/m)(1-k/m)/m, the multi-calibration audit of the grid fixture."""
    return max(2 * Fraction(k, m) * (1 - Fraction(k, m)) / m for k in range(1, m + 1))


def grid_fixture_smc_closed_form(m: int) -> Fraction:
    """sum_k 2(k/m)(1-k/m)/m, the strict audit of the grid fixture; tends to 1/3."""
    return sum((2 * Fraction(k, m) * (1 - Fraction(k, m)) / m for k in range(1, m + 1)),
               Fraction(0))


# ---------------------------------------------------------------------------
# Random instances for tests and the CLI fixture command
# ---------------------------------------------------------------------------


def random_instance(rng: np.random.Generator, n_individuals: int, n_outcomes: int = 2,
                    n_hypotheses: int = 3, binary_hypotheses: bool = True,
                    complement_closed: bool = False, weight_denominator: int = 16):
    """Random exact-rational instance: population, hypothesis class, predictor.

    Weights and conditionals are built from small random integers so all
    denominators stay tame under the exact backend.  A mass vector is k
    integers in [0, weight_denominator) over their sum; an all-zero draw
    puts 1 on one coordinate, drawn next.  The draws are, in order: the
    individual weights, the truth rows, the predictor rows, then each
    hypothesis (one value in {0, 1}, or in {0, 1/8, ..., 1}, per
    individual).  Each phase is drawn by vector calls that consume the
    generator exactly as one scalar call per row or value would (see
    `_draw_rows`), so an instance depends only on the generator state and
    the generator ends in the same state.  Individuals with equal
    distributions share one `OutcomeDist`, and equal masses one Fraction.
    """
    if n_individuals < 1:
        raise DomainError("a random instance needs at least one individual")
    if n_outcomes == 2:
        space = binary_space()
    else:
        space = OutcomeSpace(tuple(str(i) for i in range(n_outcomes)))
    ids = tuple(f"x{i}" for i in range(n_individuals))

    fraction = functools.cache(Fraction)  # one object per distinct mass

    def masses(row):
        row = row.tolist()
        total = sum(row)
        return tuple(fraction(a, total) for a in row)

    weight = dict(zip(ids, masses(_draw_rows(rng, weight_denominator, 1, n_individuals)[0])))
    rows = _draw_rows(rng, weight_denominator, 2 * n_individuals, n_outcomes)
    # a row over its gcd is the same distribution: one key per distribution
    rows, row_of = np.unique(rows // np.gcd.reduce(rows, axis=1, keepdims=True),
                             axis=0, return_inverse=True)
    dists = [OutcomeDist(space, masses(row)) for row in rows]
    row_of = row_of.reshape(-1).tolist()
    p_true = dict(zip(ids, map(dists.__getitem__, row_of[:n_individuals])))
    predictor = Predictor(dict(zip(ids, map(dists.__getitem__, row_of[n_individuals:]))))
    denom = 8
    if binary_hypotheses:
        range_values = value_of = (0, 1)
        high = 2
    else:
        range_values = value_of = tuple(Fraction(i, denom) for i in range(denom + 1))
        high = denom + 1
    draws = rng.integers(0, high, size=(max(n_hypotheses, 0), n_individuals))
    hyps = [Hypothesis(f"c{h}", range_values, dict(zip(ids, map(value_of.__getitem__, row))))
            for h, row in enumerate(draws.tolist())]
    cls = HypothesisClass(tuple(hyps))
    if complement_closed:
        cls = close_under_complement(cls)
    pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
    return pop, cls, predictor


def _draw_rows(rng: np.random.Generator, high, n_rows: int, k: int) -> np.ndarray:
    """`n_rows` rows of k integers in [0, high), as a loop drawing
    `rng.integers(0, high, size=k)` per row draws them, where an all-zero
    row is followed by `rng.integers(0, k)`, the coordinate set to 1.

    A vector call consumes the generator as the same values drawn one call
    at a time, so rows are drawn in blocks.  A block ends at its first zero
    row: the generator is put back to the block's start, only the rows up
    to the zero row are drawn again, and then its coordinate.  The next
    block is a few times the rows just taken, so that frequent zero rows
    cost one short block each rather than a redraw of all that is left.
    For high == 1 every row is zero and draws nothing, so only the
    coordinates are drawn.
    """
    out = np.zeros((n_rows, k), dtype=np.int64)
    if high == 1:
        out[np.arange(n_rows), rng.integers(0, k, size=n_rows)] = 1
        return out
    start, block = 0, n_rows
    while start < n_rows:
        state = rng.bit_generator.state
        rows = rng.integers(0, high, size=(min(block, n_rows - start), k))
        zero = np.flatnonzero(~rows.any(axis=1))
        taken = int(zero[0]) + 1 if len(zero) else len(rows)
        if taken < len(rows):
            rng.bit_generator.state = state
            rows = rng.integers(0, high, size=(taken, k))
        if len(zero):
            rows[-1, rng.integers(0, k)] = 1
            block = 4 * taken
        else:
            block *= 2
        out[start:start + taken] = rows
        start += taken
    return out
