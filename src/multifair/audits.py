"""Exact audits of the statistical-distance fairness definitions.

Each audit reduces to joint-table arithmetic.  For a hypothesis c, the
multi-accuracy distance is delta((c_i, modeled outcome), (c_i, true
outcome)); multi-calibration appends the prediction itself to the tuple;
the strict variant reverses the quantifiers, taking the expectation over
prediction level sets of the per-level worst case over hypotheses:

    MA(c)  = delta((c_i, ~o_i), (c_i, o*_i))
    MC(c)  = delta((c_i, ~o_i, p_i), (c_i, o*_i, p_i))
    SMC    = E_level[ max_c delta((c_i, ~o_i), (c_i, o*_i) | level) ]

Under the rational backend all masses are scaled by one common denominator
D so the inner accumulation is pure integer arithmetic; a value is only
converted back to a Fraction at the very end.  Level-set identity is exact
equality of prediction values.  The float backend uses the same algorithms
on floats and clusters prediction values within 1e-9.

Every audit here, the OI event-family audits in `oi` and the
omniprediction audit in `omni` each make one call of
`_Prepared.cell_tables`, which sums per-individual rows of scaled masses
per (hypothesis, level, hypothesis value y) in one numpy kernel over the
columnar arrays of `_Prepared` and the class's cached y-index array; the
backend picks only its dtype: float64, int64 while D <= 2^40, and Python
ints beyond.  The audits differ only in the rows they pass and in how
they reduce the table:

    MA, MC, SMC, OI families   diff: modeled - true mass per outcome
    covariance                 (mass, true-one mass); E[c] and E[c o*]
                               are y-weighted sums over the range
    violation, conditional     (mass, true-one mass, modeled - true one mass)
                               in the column of y = 1
    omniprediction             star: true mass per outcome

The OI event families build the table on the levels of the grid-rounded
predictor: the mc OI audit is the multi-calibration distance over those
levels, with the modeled mass still taken from the raw predictor.
`_Prepared(grid=...)` maps a predictor onto a grid for every audit and
distinguisher evaluation: it rounds each distinct prediction once, by
`SimplexGrid.round_dist`, under either backend, and members read the
points it keeps.

The chain MA <= MC <= SMC holds exactly on every instance, as does the
discretization inequality SMC(rounded p) <= |grid| * MC(p) + eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import FLOAT_GROUP_TOL, OutcomeDist, SimplexGrid, _exact_ratios, exactify
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
    value: object  # Fraction (rational backend) or float
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
    """Instance + predictor flattened into integer (or float) mass arrays.

    Exact mode stores, per individual j and outcome o, the integer
    D * w_j * p*_j(o) of the truth (`star[pos, o]`) and the signed
    difference D * w_j * (p_j(o) - p*_j(o)) of the predictor against it
    (`diff[pos, o]`), where D is the least common denominator of every such
    product.  It is built from integers alone: each prediction's exact
    value comes as integer ratios (`core._exact_ratios`), the truth comes
    from the population's cached integer array over its own denominator
    D_pop, each w_j p_j(o) is reduced by a gcd, and D = lcm(D_pop, the
    reduced predictor denominators), the same D as the lcm over every
    reduced product.  `mass[pos]` is the `star` row summed.  The arrays
    are int64 while D <= 2^40, Python ints (object) beyond, float64 in
    float mode.

    The build costs per distinct value, not per individual.  Each distinct
    prediction object is exactified once, keyed by `id()`, and the
    products are reduced into one row per distinct (weight, prediction)
    pair of objects, which `diff` gathers by an int pair index.  Float mode
    computes float(w) * float(x) once per distinct (weight, prediction) and
    (weight, truth) pair, the same operations as per individual, and sums
    `mass` and `level_weight` in column and population order, as literal
    loops do, so no float moves.

    Levels group individuals by prediction value.  With a grid they group
    by the grid-rounded prediction instead, which is what the OI event
    families condition on; the modeled mass still comes from the raw
    predictor.  Each distinct prediction object is keyed once, by its
    integer ratios in exact mode; only one representative per key is
    rounded (on the integer ratios of its exact value, under either
    backend) or clustered, and levels are told apart by their integer
    ratios, so no Fraction is hashed.  `grid` is that grid (or None),
    `points[level]` each level's weight tuple, `level_of[pos]` the int
    array of each individual's level and `level_weight` each level's
    scaled mass.
    `predictor`, the predictor read (exact in exact mode, raw otherwise),
    and `dists`, its predictions, are made on first use: only lowdegree and
    explicit members read them.

    This is the one place that knows the backend.  Float mode stores float
    masses with D = 1.0.  Audits read numbers through `number(x)` and
    `ratio(a, b)`, exact Fractions or floats, and convert scaled sums with
    `to_value` and `to_mass`, both ratios over D.
    """

    def __init__(self, pop: PopulationInstance, predictor: Predictor, exact: bool,
                 grid: SimplexGrid | None = None):
        predictor.check_total(pop)
        if grid is not None and grid.space != pop.space:
            raise DomainError("distribution and grid live on different outcome spaces")
        self.pop = pop
        self.exact = exact
        self.grid = grid
        self.ids = pop.ids
        self._source = predictor
        dists = list(map(predictor.values.__getitem__, pop.ids))
        weights = list(map(pop.weight.__getitem__, pop.ids))
        dist_ids = list(map(id, dists))
        distinct = dict(zip(dist_ids, dists))  # in first-occurrence order
        # identity keys: each row is built once per distinct pair of objects
        pairs = list(zip(map(id, weights), dist_ids))
        pair_keys, pair_of = _first_index(pairs)

        if exact:
            key_of = {i: _exact_ratios(d) for i, d in distinct.items()}
            w_ratios, star, D_pop = pop._exact_table()
            w_of = dict(zip(pairs, w_ratios))  # in the order of pair_keys
            rows, self.D = _scaled_products(w_of.values(), [key_of[i] for _, i in w_of], D_pop)
            tilde = _int_array(rows, self.D)
            self.star = np.asarray(star, dtype=tilde.dtype) * (self.D // D_pop)
        else:
            self.D = 1.0
            truths = list(map(pop.p_true.__getitem__, pop.ids))
            true_keys, true_of = _first_index(list(zip(map(id, weights), map(id, truths))))
            w_float = {i: float(w) for i, w in dict(zip(map(id, weights), weights)).items()}
            floats = {i: tuple(map(float, d.weights))
                      for i, d in {**distinct, **dict(zip(map(id, truths), truths))}.items()}
            tilde, star = (np.array([[w_float[w] * x for x in floats[i]] for w, i in keys])
                           for keys in (pair_keys, true_keys))
            self.star = star[true_of]
            # clustering reads only the floats; a grid rounds the exact value
            key_of = {i: d.weights if grid is not None else floats[i]
                      for i, d in distinct.items()}
        self.diff = tilde[pair_of] - self.star

        first = {}  # key -> its first prediction, in population order
        for i, d in distinct.items():
            first.setdefault(key_of[i], d)
        if grid is not None:
            level_rep = [grid._round_ratios(key if exact else _exact_ratios(d))
                         for key, d in first.items()]
        elif exact:
            level_rep = [d.as_exact() for d in first.values()]
        else:
            level_rep = self._cluster_levels(list(first))
        # a level is one value, kept as its first occurrence: values are told
        # apart by their integer ratios (in exact mode without a grid, the
        # keys themselves) and ordered by (float, exact) pairs, which is their
        # exact order, since rounding to float is monotone; n / d is the
        # correctly rounded float of the ratio
        if exact and grid is None:
            rep_keys = list(first)
        else:
            rep_keys = [tuple(x.as_integer_ratio() for x in d.weights) for d in level_rep]
        levels = {}
        for rk, d in zip(rep_keys, level_rep):
            levels.setdefault(rk, d)
        order = sorted(levels, key=lambda rk: [(n / d, x) for (n, d), x
                                               in zip(rk, levels[rk].weights)])
        self.levels = [levels[rk] for rk in order]
        self.points = [tuple(d.weights) for d in self.levels]
        idx = {rk: i for i, rk in enumerate(order)}
        level_of_key = {key: idx[rk] for key, rk in zip(first, rep_keys)}
        self.level_of = np.array([level_of_key[key_of[i]] for _, i in pair_keys],
                                 dtype=np.intp)[pair_of]
        # sum(row) per individual (0 plus the columns in order), then per
        # level in population order, so float masses keep those loops' bits
        self.mass = sum(self.star.T)
        level_weight = np.zeros(len(self.levels), dtype=self.star.dtype)
        np.add.at(level_weight, self.level_of, self.mass)
        self.level_weight = level_weight.tolist()

    @cached_property
    def predictor(self) -> Predictor:
        return self._source.as_exact() if self.exact else self._source

    @cached_property
    def dists(self) -> list:
        return [self.predictor.values[j] for j in self.ids]

    def _cluster_levels(self, floats):
        """Per distinct float prediction, the representative of its 1e-9 cluster."""
        rep_of = {}
        current = None
        for t in sorted(floats):
            if current is None or max(abs(a - b) for a, b in zip(t, current)) > FLOAT_GROUP_TOL:
                current = t
            rep_of[t] = OutcomeDist(self.pop.space, current)
        return [rep_of[t] for t in floats]

    def cell_tables(self, cls: HypothesisClass, rows):
        """Sums of per-individual rows per (hypothesis, level, y).

        `rows[pos]` holds k scaled masses for individual pos (an array, k
        columns).  Returns (ys, tables) with ys the class's range in order
        and tables[c][level][y * k + i] the sum of rows[pos][i] over the
        level's members on which hypothesis c takes the y-th value.  The
        module docstring lists the rows each audit passes.

        One `np.add.at` per hypothesis, on the class's y-index array, adds
        into each cell in population order, so float sums are those of a
        literal loop to the bit.  The accumulator has the dtype of `star`.
        Int64 rows must have absolute values summing to at most 2D in each
        column, as the masses and mass differences callers pass do, so no
        partial sum can overflow; other rows raise InternalInvariantError.
        Cells come back as Python ints or floats.
        """
        ys = list(cls.range_values)
        ny, nv = len(ys), len(self.levels)
        rows = np.asarray(rows, dtype=self.star.dtype)
        k = rows.shape[1]
        # exact: float sums of nonnegative integers below 2^53 do not round,
        # and a sum past 2^53 cannot round back to 2D <= 2^41 or below
        if rows.dtype == np.int64 and (abs(rows.astype(float)).sum(axis=0) > 2 * self.D).any():
            raise InternalInvariantError("int64 cell-table rows sum beyond 2D in a column")
        flat = rows.reshape(-1)
        base = self.level_of * ny
        cells = np.arange(k)
        out = []
        for y in cls._y_index(self.ids):
            acc = np.zeros(nv * ny * k, dtype=rows.dtype)
            np.add.at(acc, (((base + y) * k)[:, None] + cells).reshape(-1), flat)
            out.append(acc.reshape(nv, ny * k).tolist())
        return ys, out

    def number(self, x):
        """x in the backend's number type: its exact Fraction, or a float."""
        return exactify(x) if self.exact else float(x)

    def ratio(self, a, b):
        """a / b in the backend's number type."""
        return Fraction(a, b) if self.exact else a / b

    def to_value(self, scaled_total):
        """Convert an accumulated |scaled mass| total into the distance value."""
        return self.ratio(scaled_total, 2 * self.D)

    def to_mass(self, scaled):
        """Convert an accumulated scaled mass into a probability mass."""
        return self.ratio(scaled, self.D)


def _first_index(keys) -> tuple:
    """(distinct, of): the distinct keys in first-occurrence order, and the
    int array of each key's position among them."""
    index = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


def _is_exact(backend) -> bool:
    """True for the "rational" backend, False for "float"; DomainError otherwise."""
    if backend not in ("rational", "float"):
        raise DomainError(f"unknown backend {backend!r}")
    return backend == "rational"


def _prepare(pop, predictor, backend, prep=None):
    """(pop, predictor) prepared under the backend, or `prep`, the same already prepared."""
    exact = _is_exact(backend)
    if prep is None:
        return _Prepared(pop, predictor, exact)
    if (prep.pop, prep._source, prep.exact, prep.grid) != (pop, predictor, exact, None):
        raise DomainError("prep was built for another population, predictor or backend")
    return prep


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def audit_multi_accuracy(pop, predictor, cls, backend="rational", *,
                         prep=None) -> AuditReport:
    """max_c delta((c_i, modeled), (c_i, true)); the predictor is multi-accurate
    with slack eps iff the value is <= eps.  `prep` as in `_prepare`."""
    prep = _prepare(pop, predictor, backend, prep)
    ys, tables = prep.cell_tables(cls, prep.diff)
    breakdown = {}
    for h, per_level in zip(cls, tables):
        cells = [sum(col) for col in zip(*per_level)]
        breakdown[h.name] = prep.to_value(sum(abs(x) for x in cells))
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport("multi-accuracy", breakdown[witness], witness, breakdown)


def audit_multi_calibration(pop, predictor, cls, backend="rational", *,
                            prep=None) -> AuditReport:
    """max_c delta((c_i, modeled, p_i), (c_i, true, p_i)); `prep` as in `_prepare`."""
    prep = _prepare(pop, predictor, backend, prep)
    ys, tables = prep.cell_tables(cls, prep.diff)
    breakdown = {}
    for h, per_level in zip(cls, tables):
        breakdown[h.name] = prep.to_value(sum(abs(x) for row in per_level for x in row))
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport("multi-calibration", breakdown[witness], witness, breakdown)


def audit_strict_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """E over level sets of the per-level worst hypothesis distance."""
    return _strict_multi_calibration(_prepare(pop, predictor, backend), cls)


def _strict_multi_calibration(prep, cls) -> AuditReport:
    ys, tables = prep.cell_tables(cls, prep.diff)
    total = 0
    breakdown = {}
    witness = None
    worst = None
    for v in range(len(prep.levels)):
        per_c = [sum(abs(x) for x in tables[c][v]) for c in range(len(cls.hypotheses))]
        best_c = max(range(len(per_c)), key=lambda c: per_c[c])
        total += per_c[best_c]
        level_value = prep.levels[v]
        mass = prep.to_mass(prep.level_weight[v])
        contribution = prep.to_value(per_c[best_c])
        record = {
            "level": level_value,
            "mass": mass,
            # conditional distance delta(. | level); its mass-weighted sum is
            # the audit value
            "value": contribution / mass if mass else contribution,
            "hypothesis": cls.hypotheses[best_c].name,
        }
        breakdown[tuple(level_value.weights)] = record
        if worst is None or contribution > worst:
            worst = contribution
            witness = (cls.hypotheses[best_c].name, level_value)
    return AuditReport("strict-multi-calibration", prep.to_value(total), witness, breakdown)


def audit_calibration(pop, predictor, backend="rational", *, prep=None):
    """delta((modeled, p_i), (true, p_i)); equals multi-calibration against {1_X}."""
    cls = HypothesisClass((indicator_all(pop),))
    return audit_multi_calibration(pop, predictor, cls, backend, prep=prep).value


def audit_covariance_mc(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c E|Cov(c_i, o*_i | p_i)| for real-valued hypotheses on binary outcomes."""
    if not pop.space.is_binary:
        raise DomainError("covariance-based audit requires binary outcomes")
    for h in cls:
        if any(not (0 <= exactify(v) <= 1) for v in h.range_values):
            raise DomainError(f"hypothesis {h.name}: range must lie in [0, 1]")
    prep = _prepare(pop, predictor, backend)
    one = pop.space.index("1")
    ys, tables = prep.cell_tables(cls, np.stack([prep.mass, prep.star[:, one]], axis=1))
    yv = [prep.number(y) for y in ys]
    breakdown = {}
    for h, per_level in zip(cls, tables):
        total = prep.number(0)
        for mass, cells in zip(prep.level_weight, per_level):
            if mass == 0:
                continue
            # scaled masses of c * o*, of c and of o* = 1 on the level
            a = sum(y * x for y, x in zip(yv, cells[1::2]))
            b = sum(y * x for y, x in zip(yv, cells[0::2]))
            c = sum(cells[1::2])
            # E|Cov| contribution: mass * |a/mass - (b/mass)(c/mass)| / D-normalization.
            # Known defect (ROADMAP item 1): mass * D is the right divisor, so the
            # rational backend reports E|Cov| / D (the float one has D = 1); kept
            # while its value is pinned.
            total += prep.ratio(abs(a * mass - b * c), mass * prep.D * prep.D)
        breakdown[h.name] = total
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport("covariance-multi-calibration", breakdown[witness], witness, breakdown)


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
    ys, tables = prep.cell_tables(cls, rows)
    if 1 not in ys:
        return [[(0, 0, 0)] * len(prep.levels) for _ in tables]
    base = 3 * ys.index(1)
    return [[tuple(cells[base:base + 3]) for cells in per_level] for per_level in tables]


def _nabla(prep, v, ones, mass):
    """|Pr[o* = 1 | S, level v] - v| from the scaled (true-one mass, mass) of S."""
    return abs(prep.ratio(ones, mass) - prep.number(prep.levels[v].p_one()))


def violation_profile(pop, predictor, cls, backend="rational") -> ViolationProfile:
    """nabla_{S,v} = |Pr[o*=1 | i in S, p_i = v] - v| for every positive-mass pair.

    Pairs whose conditioning event has zero mass are omitted, not reported
    as zero.
    """
    _require_binary(pop, cls)
    prep = _prepare(pop, predictor, backend)
    stats = _binary_level_stats(prep, cls)
    entries = {}
    for h, per_level in zip(cls, stats):
        for v, (mass, ones, _) in enumerate(per_level):
            if mass == 0:
                continue
            entries[(h.name, prep.levels[v].p_one())] = _nabla(prep, v, ones, mass)
    return ViolationProfile(entries)


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
    prep = _prepare(pop, predictor, backend)
    eps = prep.number(epsilon)
    if eps < 0:
        raise DomainError(f"epsilon must be nonnegative, got {epsilon}")
    stats = _binary_level_stats(prep, cls)

    if kind == "MA":
        for h, per_level in zip(cls, stats):
            mass = sum(m for m, _, _ in per_level)
            if mass == 0 or mass < eps * prep.D:
                continue
            # modeled-minus-true one mass of S; its |.| / Pr[S] is the gap
            excess = sum(e for _, _, e in per_level)
            gap = abs(prep.ratio(excess, mass))
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
