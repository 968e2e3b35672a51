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

The signed cell table of `_Prepared` is shared with the OI event-family
audits in `oi`, which build it on the levels of the grid-rounded
predictor instead: the mc OI audit is the multi-calibration distance over
those levels, with the modeled mass still taken from the raw predictor.

The chain MA <= MC <= SMC holds exactly on every instance, as does the
discretization inequality SMC(rounded p) <= |grid| * MC(p) + eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import OutcomeDist, SimplexGrid, exactify, FLOAT_GROUP_TOL
from .errors import DomainError
from .population import (
    HypothesisClass,
    PopulationInstance,
    Predictor,
    indicator_all,
)

_NUMPY_SAFE_LIMIT = 1 << 40  # beyond this, integer sums stay in pure Python


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

    Exact mode stores, per individual j and outcome o, the integers
    D * w_j * p(o) for both the predictor and the truth, where D is the
    least common denominator of every such product.

    Levels group individuals by prediction value.  With a grid they group
    by the grid-rounded prediction instead, which is what the OI event
    families condition on; the modeled mass still comes from the raw
    predictor.
    """

    def __init__(self, pop: PopulationInstance, predictor: Predictor, exact: bool,
                 grid: SimplexGrid | None = None):
        predictor.check_total(pop)
        self.pop = pop
        self.exact = exact
        self.ids = pop.ids
        ell = pop.space.size
        pred = predictor.as_exact() if exact else predictor
        self.dists = [pred.values[j] for j in pop.ids]

        if exact:
            w = [exactify(pop.weight[j]) for j in pop.ids]
            tilde_fr = [[w[i] * exactify(d.weights[o]) for o in range(ell)]
                        for i, d in enumerate(self.dists)]
            star_fr = [[w[i] * exactify(pop.p_true[j].weights[o]) for o in range(ell)]
                       for i, j in enumerate(pop.ids)]
            D = 1
            for row in tilde_fr:
                for f in row:
                    D = D * f.denominator // math.gcd(D, f.denominator)
            for row in star_fr:
                for f in row:
                    D = D * f.denominator // math.gcd(D, f.denominator)
            self.D = D
            self.tilde = [[int(f * D) for f in row] for row in tilde_fr]
            self.star = [[int(f * D) for f in row] for row in star_fr]
        else:
            self.D = 1.0
            self.tilde = [
                [float(pop.weight[j]) * float(d.weights[o]) for o in range(ell)]
                for j, d in zip(pop.ids, self.dists)
            ]
            self.star = [
                [float(pop.weight[j]) * float(pop.p_true[j].weights[o]) for o in range(ell)]
                for j in pop.ids
            ]
        self.w_int = [sum(row) for row in self.star]
        self.diff = [[t - s for t, s in zip(tr, sr)] for tr, sr in zip(self.tilde, self.star)]

        if grid is not None:
            rounded = {}
            for d in self.dists:
                if d not in rounded:
                    rounded[d] = grid.round_dist(d)
            self.level_dists = [rounded[d] for d in self.dists]
        elif exact:
            self.level_dists = self.dists
        else:
            self.level_dists = self._cluster_levels()

        reps = {}
        order = []
        for d in self.level_dists:
            if d not in reps:
                reps[d] = None
                order.append(d)
        order.sort(key=lambda d: tuple(d.weights))
        self.levels = order
        idx = {d: i for i, d in enumerate(order)}
        self.level_of = [idx[d] for d in self.level_dists]
        self.level_members = [[] for _ in order]
        for pos, li in enumerate(self.level_of):
            self.level_members[li].append(pos)

    def _cluster_levels(self):
        dists = self.dists
        uniq = sorted({tuple(float(w) for w in d.weights) for d in dists})
        rep_of = {}
        current = None
        for t in uniq:
            if current is None or max(abs(a - b) for a, b in zip(t, current)) > FLOAT_GROUP_TOL:
                current = t
            rep_of[t] = current
        reps = {t: OutcomeDist(self.pop.space, rep_of[t]) for t in uniq}
        return [reps[tuple(float(w) for w in d.weights)] for d in dists]

    def hypothesis_index_arrays(self, cls: HypothesisClass):
        """Per hypothesis: y-index per individual, plus the shared y ordering."""
        ys = list(cls.range_values)
        y_idx = {y: i for i, y in enumerate(ys)}
        arrays = []
        for h in cls:
            arrays.append([y_idx[h.values[j]] for j in self.ids])
        return ys, arrays

    def per_cv_tables(self, cls: HypothesisClass):
        """Signed mass differences per (hypothesis, level, y, o), integer-scaled.

        Returns an array-like indexed [c][level][y * ell + o] with entries
        sum over the level's members of (tilde - star).  One pass serves
        the MA, MC, and strict audits alike.
        """
        ell = self.pop.space.size
        ys, y_arrays = self.hypothesis_index_arrays(cls)
        ny = len(ys)
        nc = len(cls.hypotheses)
        nv = len(self.levels)
        n = len(self.ids)
        diff = self.diff

        if self.exact and self.D <= _NUMPY_SAFE_LIMIT and n * ell > 512:
            diff_np = np.asarray(diff, dtype=np.int64).reshape(-1)
            o_part = np.tile(np.arange(ell, dtype=np.int64), n)
            lvl = np.repeat(np.asarray(self.level_of, dtype=np.int64), ell)
            out = []
            for y_arr in y_arrays:
                keys = (lvl * ny + np.repeat(np.asarray(y_arr, dtype=np.int64), ell)) * ell + o_part
                acc = np.zeros(nv * ny * ell, dtype=np.int64)
                np.add.at(acc, keys, diff_np)
                out.append([
                    [int(acc[(v * ny + y) * ell + o]) for y in range(ny) for o in range(ell)]
                    for v in range(nv)
                ])
            return ys, out

        out = []
        for y_arr in y_arrays:
            tables = [[0] * (ny * ell) for _ in range(nv)]
            for pos in range(n):
                row = tables[self.level_of[pos]]
                base = y_arr[pos] * ell
                drow = diff[pos]
                for o in range(ell):
                    row[base + o] += drow[o]
            out.append(tables)
        return ys, out

    def to_value(self, scaled_total):
        """Convert an accumulated |scaled mass| total into the distance value."""
        if self.exact:
            return Fraction(scaled_total, 2 * self.D)
        return scaled_total / 2.0

    def level_value(self, level_index):
        return self.levels[level_index]

    def to_mass(self, scaled):
        """Convert an accumulated scaled mass into a probability mass."""
        return Fraction(scaled, self.D) if self.exact else float(scaled)

    def level_mass(self, level_index):
        return self.to_mass(sum(self.w_int[pos] for pos in self.level_members[level_index]))


def _is_exact(backend) -> bool:
    """True for the "rational" backend, False for "float"; DomainError otherwise."""
    if backend not in ("rational", "float"):
        raise DomainError(f"unknown backend {backend!r}")
    return backend == "rational"


def _prepare(pop, predictor, backend):
    return _Prepared(pop, predictor, exact=_is_exact(backend))


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def audit_multi_accuracy(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c delta((c_i, modeled), (c_i, true)); the predictor is multi-accurate
    with slack eps iff the value is <= eps."""
    prep = _prepare(pop, predictor, backend)
    ys, tables = prep.per_cv_tables(cls)
    breakdown = {}
    for h, per_level in zip(cls, tables):
        cells = [0] * len(per_level[0])
        for row in per_level:
            for i, x in enumerate(row):
                cells[i] += x
        breakdown[h.name] = prep.to_value(sum(abs(x) for x in cells))
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport("multi-accuracy", breakdown[witness], witness, breakdown)


def audit_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c delta((c_i, modeled, p_i), (c_i, true, p_i))."""
    prep = _prepare(pop, predictor, backend)
    ys, tables = prep.per_cv_tables(cls)
    breakdown = {}
    for h, per_level in zip(cls, tables):
        breakdown[h.name] = prep.to_value(sum(abs(x) for row in per_level for x in row))
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport("multi-calibration", breakdown[witness], witness, breakdown)


def audit_strict_multi_calibration(pop, predictor, cls, backend="rational") -> AuditReport:
    """E over level sets of the per-level worst hypothesis distance."""
    prep = _prepare(pop, predictor, backend)
    ys, tables = prep.per_cv_tables(cls)
    total = 0
    breakdown = {}
    witness = None
    worst = None
    for v in range(len(prep.levels)):
        per_c = [sum(abs(x) for x in tables[c][v]) for c in range(len(cls.hypotheses))]
        best_c = max(range(len(per_c)), key=lambda c: per_c[c])
        total += per_c[best_c]
        level_value = prep.level_value(v)
        mass = prep.level_mass(v)
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


def audit_calibration(pop, predictor, backend="rational"):
    """delta((modeled, p_i), (true, p_i)); equals multi-calibration against {1_X}."""
    cls = HypothesisClass((indicator_all(pop),))
    return audit_multi_calibration(pop, predictor, cls, backend=backend).value


def audit_covariance_mc(pop, predictor, cls, backend="rational") -> AuditReport:
    """max_c E|Cov(c_i, o*_i | p_i)| for real-valued hypotheses on binary outcomes."""
    if not pop.space.is_binary:
        raise DomainError("covariance-based audit requires binary outcomes")
    for h in cls:
        if any(not (0 <= exactify(v) <= 1) for v in h.range_values):
            raise DomainError(f"hypothesis {h.name}: range must lie in [0, 1]")
    prep = _prepare(pop, predictor, backend)
    one = pop.space.index("1")
    breakdown = {}
    for h in cls:
        cvals = [exactify(h.values[j]) if prep.exact else float(h.values[j])
                 for j in prep.ids]
        total = Fraction(0) if prep.exact else 0.0
        for v in range(len(prep.levels)):
            members = prep.level_members[v]
            mass = sum(prep.w_int[pos] for pos in members)
            if mass == 0:
                continue
            a = sum(cvals[pos] * prep.star[pos][one] for pos in members)
            b = sum(cvals[pos] * prep.w_int[pos] for pos in members)
            c = sum(prep.star[pos][one] for pos in members)
            # E|Cov| contribution: mass * |a/mass - (b/mass)(c/mass)| / D-normalization
            num = abs(a * mass - b * c)
            if prep.exact:
                total += Fraction(num, mass * prep.D * prep.D)
            else:
                total += num / mass
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
    """Per (c, level): (mass of S in level, true-one mass of S in level), integer-scaled."""
    one = prep.pop.space.index("1")
    stats = []
    for h in cls:
        in_s = [h.values[j] == 1 for j in prep.ids]
        per_level = []
        for v in range(len(prep.levels)):
            mass = 0
            ones = 0
            for pos in prep.level_members[v]:
                if in_s[pos]:
                    mass += prep.w_int[pos]
                    ones += prep.star[pos][one]
            per_level.append((mass, ones))
        stats.append(per_level)
    return stats


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
        for v, (mass, ones) in enumerate(per_level):
            if mass == 0:
                continue
            vv = prep.level_value(v).p_one()
            if prep.exact:
                nab = abs(Fraction(ones, mass) - exactify(vv))
            else:
                nab = abs(ones / mass - float(vv))
            entries[(h.name, vv)] = nab
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
    """
    _require_binary(pop, cls)
    if kind not in ("MA", "MC", "SMC"):
        raise DomainError(f"unknown conditional kind {kind!r}")
    prep = _prepare(pop, predictor, backend)
    one = pop.space.index("1")
    eps = exactify(epsilon) if prep.exact else float(epsilon)
    stats = _binary_level_stats(prep, cls)
    total = prep.D if prep.exact else 1.0

    if kind == "MA":
        for h, per_level in zip(cls, stats):
            mass = sum(m for m, _ in per_level)
            if mass < eps * total:
                continue
            ones = sum(o for _, o in per_level)
            tilde_ones = sum(
                prep.tilde[pos][one]
                for pos, j in enumerate(prep.ids)
                if h.values[j] == 1
            )
            gap = abs(Fraction(ones - tilde_ones, mass)) if prep.exact \
                else abs(ones - tilde_ones) / mass
            if gap > eps:
                return ConditionalCheckResult(kind, False, None, (h.name, None, gap))
        return ConditionalCheckResult(kind, True, None)

    if kind == "MC":
        witness = {}
        for h, per_level in zip(cls, stats):
            mass = sum(m for m, _ in per_level)
            if mass < eps * total:
                continue
            good_levels = []
            good_mass = 0
            for v, (m, o) in enumerate(per_level):
                if m == 0:
                    continue
                vv = prep.level_value(v).p_one()
                nab = abs(Fraction(o, m) - exactify(vv)) if prep.exact \
                    else abs(o / m - float(vv))
                if nab <= eps:
                    good_levels.append(vv)
                    good_mass += m
            if good_mass < (1 - eps) * mass:
                bad = [prep.level_value(v).p_one() for v, (m, _) in enumerate(per_level)
                       if m > 0 and prep.level_value(v).p_one() not in good_levels]
                return ConditionalCheckResult(kind, False, None,
                                              (h.name, bad[0] if bad else None, None))
            witness[h.name] = good_levels
        return ConditionalCheckResult(kind, True, witness)

    # SMC: canonical V = levels on which every conditionally-large S is good.
    good_v = []
    good_mass = 0
    first_bad = None
    for v in range(len(prep.levels)):
        level_mass = sum(prep.w_int[pos] for pos in prep.level_members[v])
        if level_mass == 0:
            continue
        vv = prep.level_value(v).p_one()
        ok = True
        for h, per_level in zip(cls, stats):
            m, o = per_level[v]
            if m < eps * level_mass:
                continue
            nab = abs(Fraction(o, m) - exactify(vv)) if prep.exact else abs(o / m - float(vv))
            if nab > eps:
                ok = False
                if first_bad is None:
                    first_bad = (h.name, vv, nab)
                break
        if ok:
            good_v.append(vv)
            good_mass += level_mass
    if good_mass >= (1 - eps) * total:
        return ConditionalCheckResult(kind, True, good_v)
    return ConditionalCheckResult(kind, False, None, first_bad)
