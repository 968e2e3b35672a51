"""Distinguishers, distinguisher families, advantages, and OI audits.

A distinguisher maps (individual, outcome, predictor) to [0, 1]; its
advantage against a predictor is

    Delta_A = E[A(i, modeled outcome, p)] - E[A(i, true outcome, p)],

kept signed internally.  A predictor is outcome-indistinguishable against
a family with slack eps when every member's |Delta_A| is at most eps.

Four generated family kinds are supported, all sample-access (they read
the predictor only at the individual under consideration):

  basic      single cells 1[(c_j, o, rounded p_j) = a]
  mc         events       1[(c_j, o, rounded p_j) in E]
  smc        per-level hypothesis choice plus an event
  lowdegree  c(j) * (monomial of degree < k in p_j) * 1[o = o0]

The mc and smc families have astronomically many members (every event E
is one member) but their audits never enumerate: for a fixed hypothesis
the best event is the set of cells where the modeled mass exceeds the
true mass, so the maximal advantage is exactly the corresponding
statistical distance.  The literal exhaustive-E maximization is kept as
an oracle for small cell counts.

The basic, mc and smc audits, their best responses and the oracle all
reduce over one signed table, the (modeled - true) mass per (hypothesis,
level, y, outcome) that `audits._Prepared` builds for the statistical-
distance audits, here on the levels of the grid-rounded predictor.  The
lowdegree audit reads the same prepared per-individual mass differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .core import OutcomeDist, OutcomeSpace, SimplexGrid, _max_abs_subset_sum, exactify
from .errors import ConstructionError, EnumerationLimitError
from .audits import AuditReport, _is_exact, _Prepared
from .population import HypothesisClass, PopulationInstance, Predictor

EXPLICIT_AUDIT_LIMIT = 10**6
MC_ORACLE_CELL_LIMIT = 12


@dataclass
class Distinguisher:
    name: str
    fn: object  # callable (j, outcome label, Predictor) -> value in [0, 1]
    access_level: str = "sample-access"
    payload: dict = field(default_factory=dict)

    def evaluate(self, j, o, predictor):
        return self.fn(j, o, predictor)


def negate(d: Distinguisher) -> Distinguisher:
    return Distinguisher(
        name=f"not:{d.name}",
        fn=lambda j, o, p, _f=d.fn: 1 - _f(j, o, p),
        access_level=d.access_level,
        payload={"negated": True, **d.payload},
    )


def monomial_multisets(ell: int, degree_bound: int):
    """Index multisets of every monomial of degree strictly below the bound."""
    out = [()]
    for deg in range(1, degree_bound):
        out.extend(itertools.combinations_with_replacement(range(ell), deg))
    return out


def monomial_value(indices, dist: OutcomeDist):
    v = Fraction(1) if dist.is_exact else 1.0
    for i in indices:
        v = v * dist.weights[i]
    return v


@dataclass
class DistinguisherFamily:
    kind: str  # explicit | basic | mc | smc | lowdegree
    hypotheses: HypothesisClass | None = None
    grid: SimplexGrid | None = None
    degree: int | None = None
    explicit_members: tuple | None = None
    negation_closed: bool = False
    outcome_space: OutcomeSpace | None = None  # lowdegree only; the others use grid.space

    def member_count(self):
        if self.kind == "explicit":
            return len(self.explicit_members)
        nc = len(self.hypotheses)
        ny = len(self.hypotheses.range_values)
        if self.kind == "lowdegree":
            ell = self.outcome_space.size
            return nc * ell * len(monomial_multisets(ell, self.degree))
        ell = self.grid.space.size
        ng = self.grid.size
        if self.kind == "basic":
            return nc * ny * ell * ng
        if self.kind == "mc":
            return nc * (2 ** (ny * ell * ng))
        if self.kind == "smc":
            return (nc ** ng) * (2 ** (ny * ell * ng))
        raise ConstructionError(f"unknown family kind {self.kind!r}")

    def members(self):
        """Materialize the member list; refused for the implicit mc/smc kinds."""
        if self.kind == "explicit":
            return list(self.explicit_members)
        if self.kind == "basic":
            return list(_basic_members(self.hypotheses, self.grid))
        if self.kind == "lowdegree":
            return list(_lowdegree_members(self.hypotheses, self.outcome_space, self.degree))
        raise EnumerationLimitError(
            f"{self.kind} family has {self.member_count()} members; not materializable"
        )


def make_family(kind, hypotheses=None, grid=None, degree=None, members=None,
                outcome_space=None) -> DistinguisherFamily:
    """Build a distinguisher family; validates parameter consistency."""
    if kind == "explicit":
        if not members:
            raise ConstructionError("explicit family needs a member list")
        return DistinguisherFamily(kind="explicit", explicit_members=tuple(members))
    if hypotheses is None:
        raise ConstructionError(f"{kind} family needs a hypothesis class")
    if kind in ("basic", "mc", "smc"):
        if grid is None:
            raise ConstructionError(f"{kind} family needs a simplex grid")
        fam = DistinguisherFamily(
            kind=kind, hypotheses=hypotheses, grid=grid,
            negation_closed=(kind in ("mc", "smc")),
        )
        return fam
    if kind == "lowdegree":
        if degree is None or degree < 1:
            raise ConstructionError("lowdegree family needs degree k >= 1")
        if outcome_space is None:
            raise ConstructionError("lowdegree family needs the outcome space")
        return DistinguisherFamily(kind="lowdegree", hypotheses=hypotheses, degree=degree,
                                   outcome_space=outcome_space)
    raise ConstructionError(f"unknown family kind {kind!r}")


def _basic_members(cls: HypothesisClass, grid: SimplexGrid):
    ell_labels = grid.space.labels
    for h in cls:
        for y in cls.range_values:
            for o in ell_labels:
                for g in grid.iter_points():
                    def fn(j, oo, pred, _h=h, _y=y, _o=o, _g=g, _grid=grid):
                        return 1 if (_h.values[j] == _y and oo == _o
                                     and _grid.round_dist(pred.values[j].as_exact()) == _g) else 0
                    yield Distinguisher(
                        name=f"cell[{h.name},{y},{o}]",
                        fn=fn,
                        payload={"hypothesis": h.name, "event_cells": [(y, o, tuple(g.weights))]},
                    )


def _lowdegree_members(cls: HypothesisClass, space: OutcomeSpace, degree):
    for h in cls:
        for o0 in space.labels:
            for mono in monomial_multisets(space.size, degree):
                def fn(j, oo, pred, _h=h, _o0=o0, _m=mono):
                    if oo != _o0:
                        return 0
                    return _h.values[j] * monomial_value(_m, pred.values[j])
                yield Distinguisher(
                    name=f"mono[{h.name},{o0},{mono}]",
                    fn=fn,
                    payload={"hypothesis": h.name, "monomial_indices": list(mono),
                             "outcome": o0},
                )


def mc_event_distinguisher(h, event, grid: SimplexGrid, name=None) -> Distinguisher:
    """1[(c_j, o, rounded p_j) in E] for an event over (y, outcome, grid point)."""
    ev = frozenset(event)
    def fn(j, o, pred, _h=h, _ev=ev, _grid=grid):
        g = _grid.round_dist(pred.values[j].as_exact())
        return 1 if (_h.values[j], o, tuple(g.weights)) in _ev else 0
    return Distinguisher(
        name=name or f"event[{h.name},|E|={len(ev)}]",
        fn=fn,
        payload={"hypothesis": h.name,
                 "event_cells": sorted((y, o, w) for (y, o, w) in ev)},
    )


def smc_event_distinguisher(assignment, event, grid: SimplexGrid, name=None) -> Distinguisher:
    """Per-level hypothesis assignment with a shared event."""
    ev = frozenset(event)
    amap = dict(assignment)  # grid-point weight tuple -> Hypothesis
    def fn(j, o, pred, _a=amap, _ev=ev, _grid=grid):
        g = tuple(_grid.round_dist(pred.values[j].as_exact()).weights)
        h = _a.get(g)
        if h is None:
            return 0
        return 1 if (h.values[j], o, g) in _ev else 0
    return Distinguisher(
        name=name or "level-assigned-event",
        fn=fn,
        payload={"assignment": {str(k): h.name for k, h in amap.items()},
                 "event_cells": sorted((y, o, w) for (y, o, w) in ev)},
    )


# ---------------------------------------------------------------------------
# Advantage and audits
# ---------------------------------------------------------------------------


def oi_advantage(pop: PopulationInstance, predictor: Predictor, d: Distinguisher,
                 exact: bool = True):
    """Signed advantage Delta_A, an exact expectation difference over the joint."""
    predictor.check_total(pop)
    pred = predictor.as_exact() if exact else predictor
    total = Fraction(0) if exact else 0.0
    for j in pop.ids:
        w = exactify(pop.weight[j]) if exact else float(pop.weight[j])
        if w == 0:
            continue
        pt = pred.values[j].weights
        ps = pop.p_true[j].weights
        for o_idx, o in enumerate(pop.space.labels):
            coef = pt[o_idx] - ps[o_idx]
            if coef == 0:
                continue
            a = d.evaluate(j, o, pred)
            if a != 0:
                v = w * (exactify(coef) * exactify(a) if exact else float(coef) * float(a))
                total += v
    return total


def _mass(prep, scaled):
    """A scaled sum of positive cells as a mass; an empty sum stays the int 0."""
    return prep.to_mass(scaled) if scaled else 0


def _positive_sums(per_level):
    """Per level: the summed positive cells, the mass of that level's best event."""
    return [sum(x for x in row if x > 0) for row in per_level]


def _positive_cells(prep, ys, per_level, levels):
    """The (y, outcome, grid point) cells with positive signed mass on the given levels."""
    ell = prep.pop.space.size
    labels = prep.pop.space.labels
    return [(ys[i // ell], labels[i % ell], tuple(prep.levels[v].weights))
            for v in levels for i, x in enumerate(per_level[v]) if x > 0]


def _smc_choice(prep, tables):
    """Per level: the first hypothesis with the largest positive sum, and that sum."""
    pos = [_positive_sums(per_level) for per_level in tables]
    out = []
    for v in range(len(prep.levels)):
        c = max(range(len(tables)), key=lambda c: pos[c][v])
        out.append((c, pos[c][v]))
    return out


def _first_reached_cell(prep, ys, h, per_level, target):
    """(level, cell) of the first cell with |signed mass| == target.

    Cells are ordered by their earliest nonzero (individual, outcome)
    contribution, in population and label order.  When every contribution
    is zero the first cell of the first level is returned.
    """
    y_idx = {y: i for i, y in enumerate(ys)}
    ell = prep.pop.space.size
    for pos, j in enumerate(prep.ids):
        row = per_level[prep.level_of[pos]]
        base = y_idx[h.values[j]] * ell
        for o, x in enumerate(prep.diff[pos]):
            if x and abs(row[base + o]) == target:
                return prep.level_of[pos], base + o
    return 0, 0


def audit_oi(pop, predictor, family: DistinguisherFamily, backend="rational") -> AuditReport:
    """max_A |Delta_A| over the family, via closed forms for mc/smc/basic."""
    exact = _is_exact(backend)
    if family.kind == "explicit":
        if len(family.explicit_members) > EXPLICIT_AUDIT_LIMIT:
            raise EnumerationLimitError("explicit family too large to audit")
        breakdown = {d.name: abs(oi_advantage(pop, predictor, d, exact=exact))
                     for d in family.explicit_members}
        witness = max(breakdown, key=lambda k: breakdown[k])
        return AuditReport("oi-explicit", breakdown[witness], witness, breakdown)

    if family.kind == "lowdegree":
        return _audit_lowdegree(pop, predictor, family, exact)

    if family.kind not in ("mc", "smc", "basic"):
        raise ConstructionError(f"unknown family kind {family.kind!r}")
    cls = family.hypotheses
    prep = _Prepared(pop, predictor, exact, grid=family.grid)
    _, tables = prep.per_cv_tables(cls)
    if family.kind == "smc":
        choice = _smc_choice(prep, tables)
        per_level_best = {tuple(prep.levels[v].weights): (cls.hypotheses[c].name, _mass(prep, s))
                          for v, (c, s) in enumerate(choice)}
        total = prep.to_mass(sum(s for _, s in choice))
        return AuditReport("oi-smc", total, per_level_best, per_level_best)
    if family.kind == "mc":
        breakdown = {h.name: _mass(prep, sum(_positive_sums(t))) for h, t in zip(cls, tables)}
    else:
        breakdown = {h.name: prep.to_mass(max(abs(x) for row in t for x in row))
                     for h, t in zip(cls, tables)}
    witness = max(breakdown, key=lambda k: breakdown[k])
    return AuditReport(f"oi-{family.kind}", breakdown[witness], witness, breakdown)


def _audit_lowdegree(pop, predictor, family, exact):
    prep = _Prepared(pop, predictor, exact)
    conv = exactify if exact else float
    labels = family.outcome_space.labels
    monos = monomial_multisets(len(labels), family.degree)
    mono_vals = [[conv(monomial_value(mono, d)) for d in prep.dists] for mono in monos]
    breakdown = {}
    witness = None
    best_abs = None
    for h in family.hypotheses:
        cvals = [conv(h.values[j]) for j in prep.ids]
        h_best = None
        for o_idx, o0 in enumerate(labels):
            terms = [(pos, row[o_idx] * c)
                     for pos, (row, c) in enumerate(zip(prep.diff, cvals)) if row[o_idx] and c]
            for mono, mv in zip(monos, mono_vals):
                total = prep.to_mass(sum(t * mv[pos] for pos, t in terms))
                if h_best is None or abs(total) > abs(h_best[0]):
                    h_best = (total, o0, mono)
        breakdown[h.name] = abs(h_best[0])
        if best_abs is None or breakdown[h.name] > best_abs:
            best_abs = breakdown[h.name]
            witness = {"hypothesis": h.name, "outcome": h_best[1],
                       "monomial_indices": list(h_best[2])}
    return AuditReport("oi-lowdegree", best_abs, witness, breakdown)


def best_response(pop, predictor, family: DistinguisherFamily, backend="rational"):
    """A member attaining the audit value, returned with positive advantage.

    When the maximizer's signed advantage is negative the pointwise
    complement 1 - A is returned instead (the structural negation inside
    mc/smc, a wrapper otherwise), so the result is always directly usable
    as a loss table.
    """
    exact = _is_exact(backend)
    if family.kind == "explicit":
        best = None
        for d in family.explicit_members:
            adv = oi_advantage(pop, predictor, d, exact=exact)
            if best is None or abs(adv) > abs(best[1]):
                best = (d, adv)
        d, adv = best
        if adv < 0:
            return negate(d), -adv
        return d, adv

    if family.kind == "lowdegree":
        report = _audit_lowdegree(pop, predictor, family, exact)
        w = report.witness
        h = next(h for h in family.hypotheses if h.name == w["hypothesis"])
        mono = tuple(w["monomial_indices"])
        o0 = w["outcome"]
        def fn(j, oo, pred, _h=h, _o0=o0, _m=mono):
            if oo != _o0:
                return 0
            return _h.values[j] * monomial_value(_m, pred.values[j])
        d = Distinguisher(f"mono[{h.name},{o0},{mono}]", fn,
                          payload={"hypothesis": h.name, "monomial_indices": list(mono),
                                   "outcome": o0})
        adv = oi_advantage(pop, predictor, d, exact=exact)
        if adv < 0:
            return negate(d), -adv
        return d, adv

    if family.kind not in ("mc", "smc", "basic"):
        raise ConstructionError(f"unknown family kind {family.kind!r}")
    cls = family.hypotheses
    prep = _Prepared(pop, predictor, exact, grid=family.grid)
    ys, tables = prep.per_cv_tables(cls)
    if family.kind == "mc":
        pos = [sum(_positive_sums(t)) for t in tables]
        c = max(range(len(cls)), key=lambda c: pos[c])
        cells = _positive_cells(prep, ys, tables[c], range(len(prep.levels)))
        return mc_event_distinguisher(cls.hypotheses[c], cells, family.grid), _mass(prep, pos[c])
    if family.kind == "smc":
        choice = _smc_choice(prep, tables)
        assignment = [(tuple(prep.levels[v].weights), cls.hypotheses[c])
                      for v, (c, _) in enumerate(choice)]
        cells = [cell for v, (c, _) in enumerate(choice)
                 for cell in _positive_cells(prep, ys, tables[c], [v])]
        d = smc_event_distinguisher(assignment, cells, family.grid)
        return d, prep.to_mass(sum(s for _, s in choice))
    # basic: binary instances always tie (y, "0", l) against (y, "1", l), so the
    # first-reached order is what keeps the witness, and with it the
    # constructor transcripts, deterministic and stable.
    peak = [max(abs(x) for row in t for x in row) for t in tables]
    c = max(range(len(cls)), key=lambda c: peak[c])
    h = cls.hypotheses[c]
    v, i = _first_reached_cell(prep, ys, h, tables[c], peak[c])
    ell = pop.space.size
    y, o = ys[i // ell], pop.space.labels[i % ell]
    val = prep.to_mass(tables[c][v][i])
    d = mc_event_distinguisher(h, [(y, o, tuple(prep.levels[v].weights))], family.grid,
                               name=f"cell[{h.name},{y},{o}]")
    if val < 0:
        return negate(d), -val
    return d, val


def audit_oi_mc_bruteforce(pop, predictor, cls, grid, backend="rational"):
    """Literal max over all events E of |Delta| for the mc family; oracle only.

    Enumerates 2^(|Y| * outcomes * |grid|) events, so the cell count is
    capped at 12.
    """
    prep = _Prepared(pop, predictor, _is_exact(backend), grid=grid)
    ys, tables = prep.per_cv_tables(cls)
    ell = pop.space.size
    n_cells = len(ys) * ell * grid.size
    if n_cells > MC_ORACLE_CELL_LIMIT:
        raise EnumerationLimitError(f"{n_cells} cells exceed the oracle cap")
    # cells over the full (y, o, grid) lattice, not just occupied levels
    level_of = {tuple(d.weights): v for v, d in enumerate(prep.levels)}
    best = 0
    for per_level in tables:
        diffs = []
        for i in range(len(ys) * ell):
            for g in grid.iter_points():
                v = level_of.get(tuple(g.weights))
                diffs.append(per_level[v][i] if v is not None else 0)
        best = max(best, _max_abs_subset_sum(diffs))
    return _mass(prep, best)
