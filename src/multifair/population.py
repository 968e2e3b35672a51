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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    OutcomeDist,
    OutcomeSpace,
    SimplexGrid,
    binary_space,
    is_exact_number,
)
from .errors import DomainError


@dataclass(frozen=True)
class PopulationInstance:
    """Joint law of (individual, true outcome) over an explicit finite population."""

    space: OutcomeSpace
    ids: tuple
    weight: dict  # id -> marginal mass
    p_true: dict  # id -> OutcomeDist, the conditional outcome law

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

    def ground_truth_predictor(self) -> "Predictor":
        return Predictor({j: self.p_true[j] for j in self.ids})

    def outcome_marginal(self) -> OutcomeDist:
        ws = [sum(self.weight[j] * self.p_true[j].weights[o] for j in self.ids)
              for o in range(self.space.size)]
        return OutcomeDist(self.space, tuple(ws))


@dataclass(frozen=True)
class Predictor:
    """Total map from individuals to outcome distributions."""

    values: dict  # id -> OutcomeDist

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
        return Predictor({j: d.as_exact() for j, d in self.values.items()})

    def as_projection(self):
        """Projection onto the prediction value itself (usable in joint tables)."""
        return lambda j: self.values[j]


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

    def as_projection(self):
        return lambda j: self.values[j]


@dataclass(frozen=True)
class HypothesisClass:
    hypotheses: tuple
    closed_under_complement: bool = False

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

    @property
    def is_binary(self) -> bool:
        return all(h.is_binary for h in self.hypotheses)


def indicator_all(pop: PopulationInstance, name: str = "all") -> Hypothesis:
    """The constant-1 set indicator over the whole population."""
    return Hypothesis(name, (0, 1), {j: 1 for j in pop.ids})


def close_under_complement(cls: HypothesisClass) -> HypothesisClass:
    """Extend a 0/1 class with the missing pointwise complements."""
    tables = {tuple(sorted(h.values.items())): h for h in cls.hypotheses}
    out = list(cls.hypotheses)
    for h in cls.hypotheses:
        comp = h.complement()
        key = tuple(sorted(comp.values.items()))
        if key not in tables:
            tables[key] = comp
            out.append(comp)
    return HypothesisClass(tuple(out), closed_under_complement=True)


# ---------------------------------------------------------------------------
# Joint tables and sampling
# ---------------------------------------------------------------------------


def joint_tables(pop: PopulationInstance, predictor: Predictor, projections=()) -> tuple:
    """Exact joint laws of (projections..., outcome) under modeled and true outcomes.

    Returns a pair (modeled, true) of tables keyed by tuples whose last
    coordinate is the outcome label.  Masses in each table sum to exactly 1
    under the rational backend.
    """
    predictor.check_total(pop)
    tilde: dict = {}
    star: dict = {}
    for j in pop.ids:
        w = pop.weight[j]
        if w == 0:
            continue
        prefix = tuple(proj(j) for proj in projections)
        pd = predictor.values[j]
        td = pop.p_true[j]
        for o_idx, o in enumerate(pop.space.labels):
            key = prefix + (o,)
            mt = w * pd.weights[o_idx]
            ms = w * td.weights[o_idx]
            if mt != 0:
                tilde[key] = tilde.get(key, 0) + mt
            if ms != 0:
                star[key] = star.get(key, 0) + ms
    return tilde, star


def sample(pop: PopulationInstance, rng: np.random.Generator, n: int) -> list:
    """n i.i.d. draws of (individual, outcome); deterministic given the generator state."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    if n == 0:
        return []
    weights = np.array([float(pop.weight[j]) for j in pop.ids], dtype=float)
    weights = weights / weights.sum()
    idx = rng.choice(len(pop.ids), size=n, p=weights)
    cum = np.cumsum(
        np.array([[float(w) for w in pop.p_true[j].weights] for j in pop.ids], dtype=float),
        axis=1,
    )
    u = rng.random(n)
    rows = cum[idx]
    o_idx = (rows < u[:, None]).sum(axis=1)
    o_idx = np.minimum(o_idx, pop.space.size - 1)
    labels = pop.space.labels
    return [(pop.ids[i], labels[o]) for i, o in zip(idx.tolist(), o_idx.tolist())]


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
    p_true = {}
    values = {}
    for r in range(1, m + 1):
        level = OutcomeDist.bernoulli(Fraction(r, m))
        for c in range(1, m + 1):
            j = f"{r},{c}"
            p_true[j] = OutcomeDist.bernoulli(Fraction(1 if r >= c else 0))
            values[j] = level
    pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
    hyps = []
    for k in range(1, m + 1):
        hv = {}
        for r in range(1, m + 1):
            for c in range(1, m + 1):
                hv[f"{r},{c}"] = 1 if (r == k and c <= k) else 0
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
    denominators stay tame under the exact backend.
    """
    if n_outcomes == 2:
        space = binary_space()
    else:
        space = OutcomeSpace(tuple(str(i) for i in range(n_outcomes)))
    ids = tuple(f"x{i}" for i in range(n_individuals))

    def random_masses(k):
        raw = [int(a) for a in rng.integers(0, weight_denominator, size=k)]
        if sum(raw) == 0:
            raw[int(rng.integers(0, k))] = 1
        total = sum(raw)
        return [Fraction(a, total) for a in raw]

    weights = random_masses(n_individuals)
    weight = dict(zip(ids, weights))
    p_true = {j: OutcomeDist(space, tuple(random_masses(n_outcomes))) for j in ids}
    predictor = Predictor({j: OutcomeDist(space, tuple(random_masses(n_outcomes))) for j in ids})
    hyps = []
    for h in range(n_hypotheses):
        if binary_hypotheses:
            vals = {j: int(rng.integers(0, 2)) for j in ids}
            hyps.append(Hypothesis(f"c{h}", (0, 1), vals))
        else:
            denom = 8
            vals = {j: Fraction(int(rng.integers(0, denom + 1)), denom) for j in ids}
            rng_vals = tuple(Fraction(i, denom) for i in range(denom + 1))
            hyps.append(Hypothesis(f"c{h}", rng_vals, vals))
    cls = HypothesisClass(tuple(hyps))
    if complement_closed:
        cls = close_under_complement(cls)
    pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
    return pop, cls, predictor
