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
accumulation, and every witness, pass or fail, is integer arithmetic.
Level-set identity is exact equality of prediction values.  Each reported
number is made once from two integers a and b (`_ratio`): Fraction(a, b),
or under the float backend a / b, which is `float(Fraction(a, b))` bit for
bit, so a float report is its rational twin with each number rounded once.
The OI audits and best responses (`oi`) and the omniprediction audit
(`omni`) make their numbers the same way; no report is rounded after it
is made.  The covariance audit is the one exception in value: its
rational report is E|Cov| / D, a known defect, and its float report
E|Cov| rounded.

Every audit reads its prepared population from `_prepared`, which keeps
them on the predictor: one mass build per (population, predictor), and
one level grouping of those masses per grid object (or none), so the
audits, OI reductions and member evaluations of one predictor share the
masses, and a grid only regroups the levels.  Every audit here, the
generated-family OI audits in `oi` and the omniprediction audit in `omni`
each make one call of `_Prepared.cell_tables`, which sums per-individual rows
of scaled masses per (hypothesis, level, hypothesis value y) in one numpy
kernel over the columnar arrays of `_Prepared` and the class's cached
y-index array, in int64 while D <= 2^60 and in Python ints beyond.  The
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
import operator
import sys
from collections import Counter
from dataclasses import dataclass
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
    D <= 2^60, Python ints (object) beyond: the rows a cell table sums
    total at most 4D <= 2^62 in absolute value (times the exact sum of the
    weights, within 1e-12 of 1 for float weights; see `cell_tables`).

    The level part depends on the grid (`_group`), and `on` regroups the
    same masses on another grid.  Levels group individuals by exact
    prediction value or, with a grid, by grid-rounded value, which is what
    the OI event families condition on.  Each exact value is rounded once,
    on its integer ratios, and levels are told apart by their reduced
    integer ratios (`level_ratios`), so no Fraction is hashed.  `grid` is
    that grid (or None), `points[level]` each level's weight tuple,
    `level_of[pos]` each individual's level (an int array) and
    `level_weight` each level's scaled mass.  Neither part refers to the
    predictor (see `_prepared`).  `reported` gives the levels as a float
    report rounds them.

    `masses`, when given, replaces the population's table: (weight keys,
    weight ratios, star, D_pop), one key and one reduced ratio per
    individual, with star and D_pop as in `_exact_table`.  Individuals
    with equal keys must have equal ratios.  The sampled learner passes
    the masses of the empirical population of its draws this way; the
    population then gives only the individuals and the outcome space.
    """

    def __init__(self, pop: PopulationInstance, predictor: Predictor,
                 grid: SimplexGrid | None = None, masses=None):
        predictor.check_total(pop)
        self.pop = pop
        self.ids = pop.ids
        dists = list(map(predictor.values.__getitem__, pop.ids))
        if masses is None:
            weights = list(map(pop.weight.__getitem__, pop.ids))
            # identity keys: the population keeps its weight objects alive
            masses = (map(id, weights), *pop._exact_table())
        w_keys, w_ratios, star, D_pop = masses
        dist_ids = list(map(id, dists))
        distinct = dict(zip(dist_ids, dists))  # in first-occurrence order
        # each row is built once per distinct (weight, prediction object) pair
        pairs = list(zip(w_keys, dist_ids))
        pair_keys, pair_of = _first_index(pairs)

        key_of = {i: _exact_ratios(d) for i, d in distinct.items()}
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
        self._rounded = None

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
        at most 2D in each column, and to at most 2^63 - 1 in all, so no
        partial sum, cell or sum of a table's |cells| can overflow; other
        rows raise InternalInvariantError.  The rows callers pass total at
        most 4D <= 2^62: `diff` 2D, `star` D, (mass, true-one mass) 2D and
        (mass, true-one mass, modeled - true one mass) 3D.
        """
        ys = list(cls.range_values)
        ny, nv = len(ys), len(self.levels)
        rows = np.asarray(rows, dtype=self.star.dtype)
        k = rows.shape[1]
        if rows.dtype == np.int64:
            col = _column_magnitudes(rows)
            if any(c > 2 * self.D for c in col) or sum(col) >= 1 << 63:
                raise InternalInvariantError("int64 cell-table rows sum beyond 2D in a "
                                             "column or beyond 2^63 - 1 in all")
        y_index = cls._y_index(self.ids)
        flat = rows.reshape(-1)
        # [pos, i]: the cell (level * ny + y) * k + i of y = 0, then y * k on
        cells = (self.level_of * (ny * k))[:, None] + np.arange(k)
        table = np.zeros((len(y_index), nv * ny * k), dtype=rows.dtype)
        for acc, yk in zip(table, y_index * k):
            np.add.at(acc, (cells + yk[:, None]).reshape(-1), flat)
        return ys, table.reshape(len(y_index), nv, ny * k)

    def reported(self, backend):
        """(levels, points) as a `backend` report gives them, made once per
        grouping: under "float" each Fraction weight n/d is rounded to n / d
        and an int weight is kept, and a rounded point that would merge with
        another keeps its exact form, as a dict key does."""
        if backend == "rational":
            return self.levels, self.points
        if self._rounded is None:
            levels = [OutcomeDist(d.space, tuple(n / q if isinstance(w, Fraction) else w
                                                 for w, (n, q) in zip(d.weights, rk)))
                      for d, rk in zip(self.levels, self.level_ratios)]
            self._rounded = levels, _unmerged(self.points, [tuple(d.weights) for d in levels])
        return self._rounded


def _column_magnitudes(rows) -> list:
    """Per column of the int64 array `rows` (r x k), the sum of |x| as a
    Python int, exactly: each |x| is read as a uint64 (so int64 min counts
    2^63), and its two 32-bit halves are summed in one pass over uint64
    accumulators, which hold up to 2^32 rows."""
    r, k = rows.shape
    halves = np.ascontiguousarray(np.abs(rows)).view(np.uint32).reshape(r, k, 2)
    sums = halves.sum(axis=0, dtype=np.uint64)
    lo, hi = (0, 1) if sys.byteorder == "little" else (1, 0)
    return [(h << 32) + low for low, h in zip(sums[:, lo].tolist(), sums[:, hi].tolist())]


def _first_index(keys) -> tuple:
    """(distinct, of): the distinct keys in first-occurrence order, and the
    int array of each key's position among them."""
    index = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


def _unmerged(exact, rounded) -> list:
    """Each rounded key, or its exact key where rounding merges it with another."""
    count = Counter(rounded)
    return [r if count[r] == 1 else e for e, r in zip(exact, rounded)]


def _ratio(backend):
    """How a `backend` report makes the number a / b of two ints: Fraction,
    or under "float" int / int, which CPython rounds correctly; DomainError
    for any other backend."""
    if backend == "rational":
        return Fraction
    if backend == "float":
        return operator.truediv
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
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    ys, table = prep.cell_tables(cls, prep.diff)
    totals = np.abs(table.sum(axis=1)).sum(axis=1).tolist()
    return _max_report("multi-accuracy", cls, ratio, totals, 2 * prep.D)


def audit_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c delta((c_i, modeled, p_i), (c_i, true, p_i))."""
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    ys, table = prep.cell_tables(cls, prep.diff)
    totals = np.abs(table).sum(axis=(1, 2)).tolist()
    return _max_report("multi-calibration", cls, ratio, totals, 2 * prep.D)


def _max_report(kind, cls, ratio, totals, den) -> AuditReport:
    """The report of max_c totals[c] / den; the first largest total names the witness."""
    breakdown = {h.name: ratio(t, den) for h, t in zip(cls, totals)}
    witness = cls.hypotheses[totals.index(max(totals))].name
    return AuditReport(kind, breakdown[witness], witness, breakdown)


def audit_strict_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """E over level sets of the per-level worst hypothesis distance."""
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    levels, points = prep.reported(backend)
    ys, table = prep.cell_tables(cls, prep.diff)
    per_level = np.abs(table).sum(axis=2)  # [c, v]: hypothesis c's scaled distance on level v
    best_c = per_level.argmax(axis=0).tolist()  # the first worst hypothesis per level
    best = per_level.max(axis=0).tolist()
    names = [cls.hypotheses[c].name for c in best_c]
    D = prep.D
    # the conditional distance delta(. | level) is the scaled distance over
    # 2 * the level's scaled mass; its mass-weighted sum is the audit value
    breakdown = {point: {"level": level, "mass": ratio(m, D),
                         "value": ratio(s, 2 * m if m else 2 * D), "hypothesis": name}
                 for point, level, m, s, name
                 in zip(points, levels, prep.level_weight, best, names)}
    v = best.index(max(best))  # the first level of largest contribution
    return AuditReport("strict-multi-calibration", ratio(sum(best), 2 * D),
                       (names[v], levels[v]), breakdown)


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
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    one = pop.space.index("1")
    ys, table = prep.cell_tables(cls, np.stack([prep.mass, prep.star[:, one]], axis=1))
    # the range over its common denominator Y: y = ny / Y
    ratios = [exactify(y).as_integer_ratio() for y in ys]
    Y = math.lcm(*(d for _, d in ratios))
    ny = np.array([n * (Y // d) for n, d in ratios], dtype=object)
    table = table.astype(object)
    # [c, v]: Y times the scaled masses of c * o* and of c, and the scaled
    # mass of o* = 1, on level v
    a, b, c = table[:, :, 1::2] @ ny, table[:, :, 0::2] @ ny, table[:, :, 1::2].sum(axis=2)
    mass = np.array(prep.level_weight, dtype=object)
    # each level's E|Cov| term, mass * |a/mass - (b/mass)(c/mass)| / (Y D), over Y D L
    L = math.lcm(*(m for m in prep.level_weight if m))
    scale = np.array([L // m if m else 0 for m in prep.level_weight], dtype=object)
    totals = (abs(a * mass - b * c) * scale).sum(axis=1).tolist()
    # Known defect (ROADMAP item 1): the rational report is E|Cov| / D, kept while pinned
    den = Y * prep.D * L * (prep.D if backend == "rational" else 1)
    return _max_report("covariance-multi-calibration", cls, ratio, totals, den)


# ---------------------------------------------------------------------------
# Violations and conditional (original-style) definitions
# ---------------------------------------------------------------------------


def _require_binary(pop, cls):
    if not pop.space.is_binary:
        raise DomainError("this operation requires binary outcomes")
    if not cls.is_binary:
        raise DomainError("this operation requires 0/1-valued hypotheses")


def _binary_level_stats(prep, cls, backend):
    """Arrays [c, level] of Python ints for the set S that c indicates: its
    scaled mass and modeled-minus-true one mass in the level, and nabla_{S,v}
    as |ones * q - n * mass| over mass * q for the level's Pr[o = 1] = n / q
    (0 / 0 where S has no mass); then those Pr[o = 1] as `backend` reports them."""
    one = prep.pop.space.index("1")
    rows = np.stack([prep.mass, prep.star[:, one], prep.diff[:, one]], axis=1)
    ys, table = prep.cell_tables(cls, rows)
    if 1 in ys:
        base = 3 * ys.index(1)
        stats = table[:, :, base:base + 3].astype(object)
    else:
        stats = np.zeros((len(cls), len(prep.levels), 3), dtype=object)
    mass, ones, excess = stats.transpose(2, 0, 1)
    n, q = np.array([rk[one] for rk in prep.level_ratios], dtype=object).T
    ps = [d.weights[one] for d in prep.reported(backend)[0]]
    return mass, excess, abs(ones * q - n * mass), mass * q, ps


def violation_profile(pop, predictor, cls, backend="rational") -> ViolationProfile:
    """nabla_{S,v} = |Pr[o*=1 | i in S, p_i = v] - v| for every positive-mass pair.

    Pairs whose conditioning event has zero mass are omitted, not reported
    as zero.
    """
    _require_binary(pop, cls)
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    mass, _, num, den, ps = _binary_level_stats(prep, cls, backend)
    pairs = list(zip(*(i.tolist() for i in np.nonzero(mass))))
    names = [h.name for h in cls]
    keys = [(names[c], ps[v]) for c, v in pairs]
    values = [ratio(num[c, v], den[c, v]) for c, v in pairs]
    entries = dict(zip(keys, values))
    if len(entries) < len(keys):  # rounding merged keys: those keep their exact form
        exact = [(names[c], prep.levels[v].p_one()) for c, v in pairs]
        entries = dict(zip(_unmerged(exact, keys), values))
    return ViolationProfile(entries)


def check_conditional(pop, predictor, cls, epsilon, kind, backend="rational") -> ConditionalCheckResult:
    """The subpopulation-conditional forms of the three definitions.

    kind "MA": every indicated set S with Pr[S] >= eps has conditional
    outcome-frequency gap at most eps.

    kind "MC": for every such S there must be S' of conditional mass at
    least 1 - eps on which all violations are small; the canonical witness
    is the union of the level slices of S with nabla_{S,v} <= eps.

    kind "SMC": there must be a set V of prediction values, outside which
    the mass is at most eps, such that on each level in V every S that is
    eps-large conditionally has nabla_{S,v} <= eps.  The canonical witness
    is the set of all such levels.

    Conditioning events of zero mass are skipped: they constrain nothing,
    even at eps = 0.  A negative eps raises DomainError.  Every comparison
    with eps is made on integers.
    """
    _require_binary(pop, cls)
    if kind not in ("MA", "MC", "SMC"):
        raise DomainError(f"unknown conditional kind {kind!r}")
    ratio = _ratio(backend)
    prep = _prepared(pop, predictor)
    en, ed = exactify(epsilon).as_integer_ratio()  # eps = en / ed
    if en < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    mass, excess, num, den, ps = _binary_level_stats(prep, cls, backend)
    names = [h.name for h in cls]
    if kind == "MA":
        for name, m, e in zip(names, mass.sum(axis=1).tolist(), excess.sum(axis=1).tolist()):
            # S is eps-large and its gap |modeled - true one mass| / Pr[S] exceeds eps
            if m and m * ed >= en * prep.D and abs(e) * ed > en * m:
                return ConditionalCheckResult(kind, False, None, (name, None, ratio(abs(e), m)))
        return ConditionalCheckResult(kind, True, None)

    if kind == "MC":
        witness = {}
        good = (num * ed <= en * den) & (mass > 0)  # [c, v]: nabla_{S,v} <= eps
        for name, ms, gs in zip(names, mass.tolist(), good.tolist()):
            total = sum(ms)
            if total * ed < en * prep.D:
                continue
            if sum(m for m, g in zip(ms, gs) if g) * ed < (ed - en) * total:
                # the first level of S that is not good: one is, as eps >= 0
                v = next(v for v, (m, g) in enumerate(zip(ms, gs)) if m and not g)
                return ConditionalCheckResult(kind, False, None, (name, ps[v], None))
            witness[name] = [p for p, g in zip(ps, gs) if g]
        return ConditionalCheckResult(kind, True, witness)

    # SMC: canonical V = levels on which every conditionally-large S is good.
    level_weight = prep.level_weight
    # [c, v]: S is conditionally eps-large on level v and nabla_{S,v} > eps
    bad = ((mass > 0) & (mass * ed >= en * np.array(level_weight, dtype=object))
           & (num * ed > en * den))
    cols = bad.T.tolist()
    good = [v for v, (lw, col) in enumerate(zip(level_weight, cols)) if lw and True not in col]
    # the mass outside V, not D minus V's mass: float weights may total just below 1
    if sum(lw for lw, col in zip(level_weight, cols) if True in col) * ed <= en * prep.D:
        return ConditionalCheckResult(kind, True, [ps[v] for v in good])
    # the mass outside V exceeds eps * D >= 0, so some level of positive mass is bad
    v = next(v for v, col in enumerate(cols) if True in col)
    c = cols[v].index(True)
    return ConditionalCheckResult(kind, False, None,
                                  (names[c], ps[v], ratio(num[c, v], den[c, v])))
