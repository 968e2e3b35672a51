"""Exact audits of the statistical-distance fairness definitions.

Each audit reduces to joint-table arithmetic.  For a hypothesis c, the
multi-accuracy distance is delta((c_i, modeled outcome), (c_i, true
outcome)); multi-calibration appends the prediction itself to the tuple;
the strict variant reverses the quantifiers, taking the expectation over
prediction level sets of the per-level worst case over hypotheses:

    MA(c)  = delta((c_i, ~o_i), (c_i, o*_i))
    MC(c)  = delta((c_i, ~o_i, p_i), (c_i, o*_i, p_i))
    SMC    = E_level[ max_c delta((c_i, ~o_i), (c_i, o*_i) | level) ]

All masses are scaled by one common denominator D so the inner
accumulation is pure integer arithmetic; a value is only converted back to
a Fraction at the very end.  Level-set identity is exact equality of
prediction values.  Every audit computes exactly: the float backend
returns the exact result with each Fraction rounded once to its nearest
float (`_to_float`), so a float value is `float()` of its rational twin.

Every audit reads its prepared population from `_prepared`, which keeps
them on the predictor: one mass build per (population, predictor), and
one level grouping of those masses per grid object (or none), so the
audits, OI reductions and member evaluations of one predictor share the
masses, and a grid only regroups the levels.  Every audit here, the
generated-family OI audits in `oi` and the omniprediction audit in `omni`
each make one call of `_Prepared.cell_tables`, which sums per-individual rows
of scaled masses per (hypothesis, level, hypothesis value y) in one numpy
kernel over the columnar arrays of `_Prepared` and the class's cached
y-index array, in int64 while D <= 2^40 and in Python ints beyond.  The
audits differ only in the rows they pass and in how they reduce the
table:

    MA, MC, SMC, OI families   diff: modeled - true mass per outcome
    covariance                 (mass, true-one mass); E[c] and E[c o*]
                               are y-weighted sums over the range
    violation, conditional     (mass, true-one mass, modeled - true one mass)
                               in the column of y = 1
    omniprediction             star: true mass per outcome

The OI event families build the table on the levels of the grid-rounded
predictor: the mc OI audit is the multi-calibration distance over those
levels, with the modeled mass still taken from the raw predictor.
The level part of `_Prepared` maps a predictor onto a grid for every
audit and distinguisher evaluation: it rounds each distinct exact
prediction once, as `SimplexGrid.round_dist` does, and members read the
points it keeps.

The chain MA <= MC <= SMC holds exactly on every instance, as does the
discretization inequality SMC(rounded p) <= |grid| * MC(p) + eta.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .core import OutcomeDist, SimplexGrid, _exact_ratios, exactify
from .errors import DomainError, InternalInvariantError
from .population import (
    HypothesisClass,
    PopulationInstance,
    Predictor,
    _int_array,
    _scaled_products,
    indicator_all,
)


@dataclass
class AuditReport:
    kind: str
    value: object  # Fraction (rational backend) or its float
    witness: object  # hypothesis name, or (name, level value), or None
    breakdown: dict  # per-hypothesis values (MA/MC), per-level records (SMC)

    def __repr__(self):
        return f"AuditReport({self.kind}, value={self.value}, witness={self.witness})"


@dataclass
class ViolationProfile:
    """Per (hypothesis, level value) calibration violations for binary instances."""

    entries: dict  # (hypothesis name, level value) -> violation in [0, 1]

    def value(self, name, level):
        return self.entries[(name, level)]


@dataclass
class ConditionalCheckResult:
    kind: str
    passed: bool
    witness: object
    first_violation: object = None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class _Prepared:
    """Instance + predictor flattened into integer mass arrays, grouped
    into levels.

    The mass part depends on (population, predictor) alone: per individual
    j and outcome o, the integer D * w_j * p*_j(o) of the truth
    (`star[pos, o]`), the signed difference D * w_j * (p_j(o) - p*_j(o))
    of the predictor against it (`diff[pos, o]`), and `mass[pos]`, the
    `star` row summed, where D is the least common denominator of every
    such product.  It is built from integers alone, per distinct value:
    each distinct prediction object is exactified once, keyed by `id()`
    (`core._exact_ratios`), the truth comes from the population's cached
    integer array over its own denominator D_pop, and each distinct
    (weight, prediction) pair of objects gets one row of gcd-reduced
    products, which `diff` gathers by an int pair index; D = lcm(D_pop,
    the reduced predictor denominators).  The arrays are int64 while
    D <= 2^40, Python ints (object) beyond.

    The level part depends on the grid (`_group`), and `on` regroups the
    same masses on another grid.  Levels group individuals by exact
    prediction value or, with a grid, by grid-rounded value, which is what
    the OI event families condition on.  Each exact value is rounded once,
    on its integer ratios, and levels are told apart by their reduced
    integer ratios (`level_ratios`), so no Fraction is hashed.  `grid` is
    that grid (or None), `points[level]` each level's weight tuple,
    `level_of[pos]` each individual's level (an int array) and
    `level_weight` each level's scaled mass.  Neither part refers to the
    predictor (see `_prepared`).  `to_value` and `to_mass` convert scaled
    sums back to Fractions over D.
    """

    def __init__(self, pop: PopulationInstance, predictor: Predictor,
                 grid: SimplexGrid | None = None):
        predictor.check_total(pop)
        self.pop = pop
        self.ids = pop.ids
        dists = list(map(predictor.values.__getitem__, pop.ids))
        weights = list(map(pop.weight.__getitem__, pop.ids))
        dist_ids = list(map(id, dists))
        distinct = dict(zip(dist_ids, dists))  # in first-occurrence order
        # identity keys: each row is built once per distinct pair of objects
        pairs = list(zip(map(id, weights), dist_ids))
        pair_keys, pair_of = _first_index(pairs)

        key_of = {i: _exact_ratios(d) for i, d in distinct.items()}
        w_ratios, star, D_pop = pop._exact_table()
        w_of = dict(zip(pairs, w_ratios))  # in the order of pair_keys
        rows, self.D = _scaled_products(w_of.values(), [key_of[i] for _, i in w_of], D_pop)
        tilde = _int_array(rows, self.D)
        self.star = np.asarray(star, dtype=tilde.dtype) * (self.D // D_pop)
        self.diff = tilde[pair_of] - self.star
        self.mass = self.star.sum(axis=1)

        self._first = {}  # exact value -> its first prediction, in population order
        for i, d in distinct.items():
            self._first.setdefault(key_of[i], d)
        index = {key: k for k, key in enumerate(self._first)}
        self._value_of = np.array([index[key_of[i]] for _, i in pair_keys],
                                  dtype=np.intp)[pair_of]
        self._group(grid)

    def _group(self, grid):
        """Set the level part for `grid` from the exact values alone."""
        if grid is not None and grid.space != self.pop.space:
            raise DomainError("distribution and grid live on different outcome spaces")
        self.grid = grid
        # a level is one value, kept as its first occurrence, ordered by
        # (float, exact) pairs, which is the exact order since rounding to
        # float is monotone; n / d is the correctly rounded float of n/d
        if grid is None:
            level_rep = [d.as_exact() for d in self._first.values()]
            rep_keys = list(self._first)
        else:
            level_rep = [grid._round_ratios(key) for key in self._first]
            rep_keys = [tuple(x.as_integer_ratio() for x in d.weights) for d in level_rep]
        levels = {}
        for rk, d in zip(rep_keys, level_rep):
            levels.setdefault(rk, d)
        self.level_ratios = sorted(levels, key=lambda rk: [(n / d, x) for (n, d), x
                                                           in zip(rk, levels[rk].weights)])
        self.levels = [levels[rk] for rk in self.level_ratios]
        self.points = [tuple(d.weights) for d in self.levels]
        idx = {rk: i for i, rk in enumerate(self.level_ratios)}
        self.level_of = np.array([idx[rk] for rk in rep_keys], dtype=np.intp)[self._value_of]
        level_weight = np.zeros(len(self.levels), dtype=self.star.dtype)
        np.add.at(level_weight, self.level_of, self.mass)
        self.level_weight = level_weight.tolist()

    def on(self, grid) -> "_Prepared":
        """A shallow copy sharing these mass arrays, with levels on `grid`."""
        prep = copy.copy(self)
        prep._group(grid)
        return prep

    def cell_tables(self, cls: HypothesisClass, rows):
        """Sums of per-individual rows per (hypothesis, level, y).

        `rows[pos]` holds k scaled masses for individual pos (an array, k
        columns).  Returns (ys, table) with ys the class's range in order
        and table[c, level, y * k + i] the sum of rows[pos][i] over the
        level's members on which hypothesis c takes the y-th value.  The
        module docstring lists the rows each audit passes.

        One `np.add.at` per hypothesis, on the class's y-index array, adds
        into each cell.  The table has the dtype of `star`; `.tolist()`
        gives Python ints.  Int64 rows must have absolute values summing to
        at most 2D in each column, as the masses and mass differences
        callers pass do, so no partial sum (nor the sum of a table's
        |cells|) can overflow; other rows raise InternalInvariantError.
        """
        ys = list(cls.range_values)
        ny, nv = len(ys), len(self.levels)
        rows = np.asarray(rows, dtype=self.star.dtype)
        k = rows.shape[1]
        # exact: float sums of nonnegative integers below 2^53 do not round,
        # and a sum past 2^53 cannot round back to 2D <= 2^41 or below
        if rows.dtype == np.int64 and (abs(rows.astype(float)).sum(axis=0) > 2 * self.D).any():
            raise InternalInvariantError("int64 cell-table rows sum beyond 2D in a column")
        y_index = cls._y_index(self.ids)
        flat = rows.reshape(-1)
        base = self.level_of * ny
        cells = np.arange(k)
        table = np.zeros((len(y_index), nv * ny * k), dtype=rows.dtype)
        for acc, y in zip(table, y_index):
            np.add.at(acc, (((base + y) * k)[:, None] + cells).reshape(-1), flat)
        return ys, table.reshape(len(y_index), nv, ny * k)

    def to_value(self, scaled_total):
        """Convert an accumulated |scaled mass| total into the distance value."""
        return Fraction(scaled_total, 2 * self.D)

    def to_mass(self, scaled):
        """Convert an accumulated scaled mass into a probability mass."""
        return Fraction(scaled, self.D)


def _first_index(keys) -> tuple:
    """(distinct, of): the distinct keys in first-occurrence order, and the
    int array of each key's position among them."""
    index = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


def _to_float(x):
    """x with every Fraction in it replaced by its correctly rounded float.

    This is the float backend: every audit computes exactly, and a float
    result is the exact one passed through here once.  It maps reports,
    dicts (keys too), lists, tuples and points; ints, strings and
    everything else are kept.  Dict keys that round to one float keep
    their exact form, so no entry is lost; their values are rounded.
    """
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, OutcomeDist):
        return OutcomeDist(x.space, _to_float(x.weights))
    if isinstance(x, (tuple, list)):
        return type(x)(map(_to_float, x))
    if isinstance(x, dict):
        # a key keeps its exact form where rounding would merge it with another
        keys = list(map(_to_float, x))
        count = Counter(keys)
        return {fk if count[fk] == 1 else k: _to_float(v)
                for k, fk, v in zip(x, keys, x.values())}
    if isinstance(x, (AuditReport, ViolationProfile, ConditionalCheckResult)):
        return replace(x, **{f.name: _to_float(getattr(x, f.name)) for f in fields(x)})
    return x


def _rounding(backend):
    """What a backend does to an exact result: nothing under "rational",
    `_to_float` under "float"; DomainError for any other backend."""
    if backend == "rational":
        return lambda x: x
    if backend == "float":
        return _to_float
    raise DomainError(f"unknown backend {backend!r}")


def _prepared(pop, predictor, grid=None) -> _Prepared:
    """`_Prepared(pop, predictor, grid)`, built once and kept on the predictor.

    The memo (`Predictor._prepared`) holds one population, compared by
    identity like the ids of `HypothesisClass._y_index`, and one build per
    grid object (None for no grid), keyed by its `id`: a build holds its
    grid, so the key is not reused while it is kept.  Only the first build
    scales the masses; every later one is its `on(grid)`, sharing them.  A
    call with another population starts a new memo.  A build holds no
    reference to the predictor, so predictor, memo and builds form no
    reference cycle.
    """
    memo = predictor._prepared
    if memo is None or memo[0] is not pop:
        memo = (pop, {})
        object.__setattr__(predictor, "_prepared", memo)
    builds = memo[1]
    if id(grid) not in builds:
        builds[id(grid)] = (next(iter(builds.values())).on(grid) if builds
                            else _Prepared(pop, predictor, grid))
    return builds[id(grid)]


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def audit_multi_accuracy(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c delta((c_i, modeled), (c_i, true)); the predictor is multi-accurate
    with slack eps iff the value is <= eps."""
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    ys, table = prep.cell_tables(cls, prep.diff)
    totals = np.abs(table.sum(axis=1)).sum(axis=1).tolist()
    breakdown = {h.name: prep.to_value(t) for h, t in zip(cls, totals)}
    witness = max(breakdown, key=lambda k: breakdown[k])
    return rounded(AuditReport("multi-accuracy", breakdown[witness], witness, breakdown))


def audit_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c delta((c_i, modeled, p_i), (c_i, true, p_i))."""
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    ys, table = prep.cell_tables(cls, prep.diff)
    totals = np.abs(table).sum(axis=(1, 2)).tolist()
    breakdown = {h.name: prep.to_value(t) for h, t in zip(cls, totals)}
    witness = max(breakdown, key=lambda k: breakdown[k])
    return rounded(AuditReport("multi-calibration", breakdown[witness], witness, breakdown))


def audit_strict_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """E over level sets of the per-level worst hypothesis distance."""
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    ys, table = prep.cell_tables(cls, prep.diff)
    per_level = np.abs(table).sum(axis=2)  # [c, v]: hypothesis c's scaled distance on level v
    best_c = per_level.argmax(axis=0).tolist()  # the first worst hypothesis per level
    best = per_level.max(axis=0).tolist()
    breakdown = {}
    witness = None
    worst = None
    for v, (c, scaled) in enumerate(zip(best_c, best)):
        level_value = prep.levels[v]
        mass = prep.to_mass(prep.level_weight[v])
        contribution = prep.to_value(scaled)
        record = {
            "level": level_value,
            "mass": mass,
            # conditional distance delta(. | level); its mass-weighted sum is
            # the audit value
            "value": contribution / mass if mass else contribution,
            "hypothesis": cls.hypotheses[c].name,
        }
        breakdown[tuple(level_value.weights)] = record
        if worst is None or contribution > worst:
            worst = contribution
            witness = (cls.hypotheses[c].name, level_value)
    return rounded(AuditReport("strict-multi-calibration", prep.to_value(sum(best)), witness,
                               breakdown))


def audit_calibration(pop, predictor, backend="rational"):
    """delta((modeled, p_i), (true, p_i)); equals multi-calibration against {1_X}."""
    cls = HypothesisClass((indicator_all(pop),))
    return audit_multi_calibration(pop, predictor, cls, backend).value


def audit_covariance_mc(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c E|Cov(c_i, o*_i | p_i)| for real-valued hypotheses on binary outcomes."""
    if not pop.space.is_binary:
        raise DomainError("covariance-based audit requires binary outcomes")
    for h in cls:
        if any(not (0 <= exactify(v) <= 1) for v in h.range_values):
            raise DomainError(f"hypothesis {h.name}: range must lie in [0, 1]")
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    one = pop.space.index("1")
    ys, table = prep.cell_tables(cls, np.stack([prep.mass, prep.star[:, one]], axis=1))
    # the range over its common denominator Y: y = ny / Y
    ratios = [exactify(y).as_integer_ratio() for y in ys]
    Y = math.lcm(*(d for _, d in ratios))
    ny = [n * (Y // d) for n, d in ratios]
    breakdown = {}
    for h, per_level in zip(cls, table.tolist()):
        total = Fraction(0)
        for mass, cells in zip(prep.level_weight, per_level):
            if mass == 0:
                continue
            # Y times the scaled masses of c * o* and of c, and the scaled
            # mass of o* = 1, on the level: all ints
            a = sum(y * x for y, x in zip(ny, cells[1::2]))
            b = sum(y * x for y, x in zip(ny, cells[0::2]))
            c = sum(cells[1::2])
            # the level's E|Cov| term, mass * |a/mass - (b/mass)(c/mass)| / (Y D)
            total += Fraction(abs(a * mass - b * c), Y * mass * prep.D)
        breakdown[h.name] = total
    if backend == "rational":
        # Known defect (ROADMAP item 1): the rational report is E|Cov| / D, kept while pinned
        breakdown = {name: value / prep.D for name, value in breakdown.items()}
    witness = max(breakdown, key=lambda k: breakdown[k])
    return rounded(AuditReport("covariance-multi-calibration", breakdown[witness], witness,
                               breakdown))


# ---------------------------------------------------------------------------
# Violations and conditional (original-style) definitions
# ---------------------------------------------------------------------------


def _require_binary(pop, cls):
    if not pop.space.is_binary:
        raise DomainError("this operation requires binary outcomes")
    if not cls.is_binary:
        raise DomainError("this operation requires 0/1-valued hypotheses")


def _binary_level_stats(prep, cls):
    """Per (c, level), integer-scaled, for the set S that c indicates: (mass of
    S, true-one mass of S, modeled-minus-true one mass of S) in the level."""
    one = prep.pop.space.index("1")
    rows = np.stack([prep.mass, prep.star[:, one], prep.diff[:, one]], axis=1)
    ys, table = prep.cell_tables(cls, rows)
    if 1 not in ys:
        return [[(0, 0, 0)] * len(prep.levels) for _ in cls]
    base = 3 * ys.index(1)
    return table[:, :, base:base + 3].tolist()


def _nabla(prep, v, ones, mass):
    """|Pr[o* = 1 | S, level v] - v| from the scaled (true-one mass, mass) of S."""
    return abs(Fraction(ones, mass) - prep.levels[v].p_one())


def violation_profile(pop, predictor, cls, backend="rational") -> ViolationProfile:
    """nabla_{S,v} = |Pr[o*=1 | i in S, p_i = v] - v| for every positive-mass pair.

    Pairs whose conditioning event has zero mass are omitted, not reported
    as zero.
    """
    _require_binary(pop, cls)
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    stats = _binary_level_stats(prep, cls)
    entries = {}
    for h, per_level in zip(cls, stats):
        for v, (mass, ones, _) in enumerate(per_level):
            if mass == 0:
                continue
            entries[(h.name, prep.levels[v].p_one())] = _nabla(prep, v, ones, mass)
    return rounded(ViolationProfile(entries))


def check_conditional(pop, predictor, cls, epsilon, kind, backend="rational") -> ConditionalCheckResult:
    """The subpopulation-conditional forms of the three definitions.

    kind "MA": every indicated set S with Pr[S] >= eps has conditional
    outcome-frequency gap at most eps.

    kind "MC": for every such S there must be S' of conditional mass at
    least 1 - eps on which all violations are small; the canonical witness
    is the union of the level slices of S with nabla_{S,v} <= eps.

    kind "SMC": there must be a set V of prediction values of mass at
    least 1 - eps such that on each level in V every S that is eps-large
    conditionally has nabla_{S,v} <= eps.  The canonical witness is the set
    of all such levels.

    Conditioning events of zero mass are skipped: they constrain nothing,
    even at eps = 0.  A negative eps raises DomainError.
    """
    _require_binary(pop, cls)
    if kind not in ("MA", "MC", "SMC"):
        raise DomainError(f"unknown conditional kind {kind!r}")
    rounded = _rounding(backend)
    prep = _prepared(pop, predictor)
    eps = exactify(epsilon)
    if eps < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    return rounded(_conditional(prep, cls, eps, kind))


def _conditional(prep, cls, eps, kind) -> ConditionalCheckResult:
    stats = _binary_level_stats(prep, cls)
    if kind == "MA":
        for h, per_level in zip(cls, stats):
            mass = sum(m for m, _, _ in per_level)
            if mass == 0 or mass < eps * prep.D:
                continue
            # modeled-minus-true one mass of S; its |.| / Pr[S] is the gap
            excess = sum(e for _, _, e in per_level)
            gap = abs(Fraction(excess, mass))
            if gap > eps:
                return ConditionalCheckResult(kind, False, None, (h.name, None, gap))
        return ConditionalCheckResult(kind, True, None)

    if kind == "MC":
        witness = {}
        for h, per_level in zip(cls, stats):
            mass = sum(m for m, _, _ in per_level)
            if mass < eps * prep.D:
                continue
            good_levels = []
            good_mass = 0
            for v, (m, o, _) in enumerate(per_level):
                if m == 0:
                    continue
                if _nabla(prep, v, o, m) <= eps:
                    good_levels.append(prep.levels[v].p_one())
                    good_mass += m
            if good_mass < (1 - eps) * mass:
                bad = [prep.levels[v].p_one() for v, (m, _, _) in enumerate(per_level)
                       if m > 0 and prep.levels[v].p_one() not in good_levels]
                return ConditionalCheckResult(kind, False, None,
                                              (h.name, bad[0] if bad else None, None))
            witness[h.name] = good_levels
        return ConditionalCheckResult(kind, True, witness)

    # SMC: canonical V = levels on which every conditionally-large S is good.
    good_v = []
    good_mass = 0
    first_bad = None
    for v, level_mass in enumerate(prep.level_weight):
        if level_mass == 0:
            continue
        vv = prep.levels[v].p_one()
        ok = True
        for h, per_level in zip(cls, stats):
            m, o, _ = per_level[v]
            if m == 0 or m < eps * level_mass:
                continue
            nab = _nabla(prep, v, o, m)
            if nab > eps:
                ok = False
                if first_bad is None:
                    first_bad = (h.name, vv, nab)
                break
        if ok:
            good_v.append(vv)
            good_mass += level_mass
    if good_mass >= (1 - eps) * prep.D:
        return ConditionalCheckResult(kind, True, good_v)
    return ConditionalCheckResult(kind, False, None, first_bad)
