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

Members are data, not closures: basic, mc and smc members are events
over (hypothesis value, outcome, grid point) cells, lowdegree members are
(hypothesis, outcome, monomial) triples, and only explicit members carry
a callable.  `Distinguisher.values` evaluates a member on a population:
an event member reads only the levels of the population that
`audits._Prepared` rounded onto its grid; monomial and explicit members
read the predictor they are given, the exact one for an advantage and the
raw one for a loss table.  Every reduction and evaluation reads one
prepared population per (population, predictor, grid), kept on the
predictor by `audits._prepared`.  The sampled constructor's weak learner
is the same reduction on the empirical population of its draws, prepared
apart from that memo: its member is that population's exact best
response, ties and the explicit-family limit included, and its empirical
advantage that member's exact advantage, rounded once.

The mc and smc families have astronomically many members (every event E
is one member) but their audits never enumerate: for a fixed hypothesis
the best event is the set of cells where the modeled mass exceeds the
true mass, so the maximal advantage is exactly the corresponding
statistical distance.  The literal exhaustive-E maximization is a test
oracle for small cell counts (`tests/oracles.py`).

`audit_oi` and `best_response` are two views of one reduction, `_reduce`,
which the exact constructor and the sampled learner call too: it reads
one prepared population (and, for the generated families, builds the cell
table) once per call and returns the audit report together with the
best-responding member and its advantage, which is the audit value.
The generated families and the oracle reduce over one signed table, the
(modeled - true) mass per (hypothesis, level, y, outcome) that
`audits._Prepared` builds for the statistical-distance audits, for the
event families on the levels of the grid-rounded predictor.  The event
families reduce it in numpy: a level's best event is its positive cells,
whose sum is its mass, and an mc or smc member takes one event-map entry
per level with a positive cell.  Every lowdegree advantage is one integer
product of the table with the member's values per (exact level, y).
Explicit members read the prepared per-individual mass differences.
Every value, breakdown entry and advantage is made once from two integers
(`audits._ratio`): an exact Fraction, or under the float backend its
correctly rounded float; a float report keys its levels by the points
`_Prepared.reported` gives, and its member is the exact one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import OutcomeDist, OutcomeSpace, SimplexGrid, exactify
from .errors import ConstructionError, DomainError, EnumerationLimitError
from .audits import AuditReport, _prepared, _ratio
from .population import HypothesisClass, PopulationInstance, Predictor

EXPLICIT_AUDIT_LIMIT = 10**6


@dataclass
class Distinguisher:
    """A family member as data; `payload` is what transcripts record.

    event     `events` maps a point of `grid` (weight tuple) to (c, cells):
              the value at (j, o) is 1[(c(j), o) in cells] for the point
              nearest p_j, and 0 at points without an entry.
    monomial  `monomial` is (c, o0, indices): c(j) * prod_i p_j[i] * 1[o = o0].
    explicit  `fn(j, o, predictor)`.

    A `negated` member takes the value 1 - v.
    """

    name: str
    fn: object = None
    payload: dict = field(default_factory=dict)
    grid: SimplexGrid | None = None
    events: dict | None = None
    monomial: tuple | None = None
    negated: bool = False

    def values(self, pop: PopulationInstance, predictor: Predictor, prep=None):
        """Per individual of `pop`: the member's value at each outcome, in
        label order.  Monomial and explicit members read `predictor` as
        given: the exact predictor for an advantage, on the population or
        on the empirical one of some draws, and the raw one for a loss
        table.  Event members read only the levels of `prep`, the
        population prepared for their grid, by default the one
        `_prepared(pop, predictor, grid)` keeps, and build one row per
        (level, hypothesis value), which the individuals there share: an
        event row is read-only."""
        labels = pop.space.labels
        if self.events is not None:
            if prep is None:
                prep = _prepared(pop, predictor, self.grid)
            entries = [self.events.get(point) or (None, ()) for point in prep.points]
            shared = [{} for _ in entries]  # per level: its rows by hypothesis value
            inside, outside = (0, 1) if self.negated else (1, 0)
            rows = []
            for j, level in zip(prep.ids, prep.level_of.tolist()):
                h, cells = entries[level]
                y = h.values[j] if h is not None else None
                row = shared[level].get(y)
                if row is None:
                    row = shared[level][y] = [inside if (y, o) in cells else outside
                                              for o in labels]
                rows.append(row)
            return rows
        if self.monomial is not None:
            h, o0, mono = self.monomial
            # c(j) as the range value it equals, as the audits read it
            c = dict(zip(h.range_values, h.range_values))
            rows = [[c[h.values[j]] * monomial_value(mono, predictor.values[j]) if o == o0 else 0
                     for o in labels] for j in pop.ids]
        else:
            rows = [[self.fn(j, o, predictor) for o in labels] for j in pop.ids]
        if self.negated:
            return [[1 - v for v in row] for row in rows]
        return rows


def negate(d: Distinguisher) -> Distinguisher:
    """The pointwise complement 1 - A."""
    return replace(d, name=f"not:{d.name}", payload={"negated": True, **d.payload},
                   negated=not d.negated)


def mc_event_distinguisher(h, event, grid: SimplexGrid, name=None) -> Distinguisher:
    """1[(c_j, o, rounded p_j) in E] for an event over (y, outcome, grid point)."""
    events = {}
    for y, o, w in event:
        events.setdefault(tuple(w), (h, set()))[1].add((y, o))
    return _mc_member(h, events, grid, name)


def _mc_member(h, events, grid, name=None) -> Distinguisher:
    """The mc member whose `events` read hypothesis h at every point."""
    size = sum(len(cells) for _, cells in events.values())
    return _event_distinguisher(name or f"event[{h.name},|E|={size}]", events, grid,
                                hypothesis=h.name)


def _event_distinguisher(name, events, grid, **payload) -> Distinguisher:
    """An event member whose payload ends with its (y, outcome, point) cells, sorted."""
    cells = sorted((y, o, point) for point, (_, yo) in events.items() for y, o in yo)
    return Distinguisher(name, payload={**payload, "event_cells": cells}, grid=grid,
                         events=events)


def _basic_member(h, y, o, point, grid) -> Distinguisher:
    """The basic member 1[c_j = y, o, rounded p_j = point]."""
    name = f"cell[{h.name},{y},{o},({','.join(str(w) for w in point)})]"
    return mc_event_distinguisher(h, [(y, o, point)], grid, name=name)


def monomial_distinguisher(h, o0, mono) -> Distinguisher:
    """c(j) * (monomial in p_j) * 1[o = o0]."""
    mono = tuple(mono)
    return Distinguisher(f"mono[{h.name},{o0},{mono}]",
                         payload={"hypothesis": h.name, "monomial_indices": list(mono),
                                  "outcome": o0},
                         monomial=(h, o0, mono))


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
    outcome_space: OutcomeSpace | None = None  # lowdegree only; the others use grid.space

    @property
    def negation_closed(self) -> bool:
        """mc and smc contain every member's complement (the complementary event)."""
        return self.kind in ("mc", "smc")

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

    def check_enumerable(self):
        """Refuse the implicit mc/smc kinds, whose members are never listed,
        and a basic family whose grid is not materialized."""
        if self.kind not in ("explicit", "basic", "lowdegree") or (
                self.kind == "basic" and self.grid.points is None):
            # no count in the message: an mc or smc member count can pass
            # Python's int-to-str digit limit
            raise EnumerationLimitError(f"{self.kind} family members are not materializable")

    def members(self):
        """Materialize the member list; refused for the implicit mc/smc kinds."""
        self.check_enumerable()
        if self.kind == "explicit":
            return list(self.explicit_members)
        cls = self.hypotheses
        if self.kind == "basic":
            return [_basic_member(h, y, o, tuple(g.weights), self.grid)
                    for h in cls for y in cls.range_values
                    for o in self.grid.space.labels for g in self.grid.iter_points()]
        return [monomial_distinguisher(h, o0, mono) for h in cls
                for o0 in self.outcome_space.labels
                for mono in monomial_multisets(self.outcome_space.size, self.degree)]


def make_family(kind, hypotheses=None, grid=None, degree=None, members=None,
                outcome_space=None) -> DistinguisherFamily:
    """Build a distinguisher family; validates parameter consistency."""
    if kind == "explicit":
        if not members:
            raise ConstructionError("explicit family needs a member list")
        names = set()
        for d in members:
            if d.name in names:
                raise ConstructionError(f"two explicit members are named {d.name!r}")
            names.add(d.name)
        return DistinguisherFamily(kind="explicit", explicit_members=tuple(members))
    if hypotheses is None:
        raise ConstructionError(f"{kind} family needs a hypothesis class")
    if kind in ("basic", "mc", "smc"):
        if grid is None:
            raise ConstructionError(f"{kind} family needs a simplex grid")
        return DistinguisherFamily(kind=kind, hypotheses=hypotheses, grid=grid)
    if kind == "lowdegree":
        if degree is None or degree < 1:
            raise ConstructionError("lowdegree family needs degree k >= 1")
        if outcome_space is None:
            raise ConstructionError("lowdegree family needs the outcome space")
        return DistinguisherFamily(kind="lowdegree", hypotheses=hypotheses, degree=degree,
                                   outcome_space=outcome_space)
    raise ConstructionError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# Advantage and audits
# ---------------------------------------------------------------------------


def oi_advantage(pop: PopulationInstance, predictor: Predictor, d: Distinguisher):
    """Signed advantage Delta_A, an exact expectation difference over the
    joint, as a Fraction; `float()` of it is its correctly rounded float."""
    return _advantage(_prepared(pop, predictor, d.grid), predictor.as_exact(), d)


def _advantage(prep, exact, d):
    """Delta_A on a prepared population: its (modeled - true) masses
    weighted by A.  An event member reads the levels of `prep`, which must
    be on its grid, any other member `exact`, the predictor with exact
    predictions."""
    rows = d.values(prep.pop, exact, prep)
    return Fraction(sum(x * exactify(a) for diff, row in zip(prep.diff.tolist(), rows)
                        for x, a in zip(diff, row) if x and a), prep.D)


def _oriented(d, adv):
    """(d, adv) with a nonnegative advantage: the complement 1 - d when adv < 0."""
    return (negate(d), -adv) if adv < 0 else (d, adv)


def _best(d, num, den, ratio):
    """(d, num / den) made by `ratio`, oriented on the integer: the
    complement 1 - d and -num / den when num < 0."""
    d, num = _oriented(d, num)
    return d, ratio(num, den)


def _mass(prep, scaled, ratio=Fraction):
    """A scaled sum of positive cells as a mass made by `ratio`; an empty
    sum stays the int 0 under either backend."""
    return ratio(scaled, prep.D) if scaled else 0


def _positive_events(prep, ys, hypotheses, rows):
    """point -> (hypotheses[v], its positive (y, outcome) cells in rows[v]),
    one entry per level v with a positive cell."""
    ell, labels = prep.pop.space.size, prep.pop.space.labels
    positive = [set() for _ in prep.points]
    for v, i in zip(*(a.tolist() for a in np.nonzero(rows > 0))):  # in row-major order
        positive[v].add((ys[i // ell], labels[i % ell]))
    return {point: (h, cells) for point, h, cells in zip(prep.points, hypotheses, positive)
            if cells}


def _prices(y, values, P):
    """(numerators, denominator) of y * values / P, elementwise; with a
    float y each product is the float `Distinguisher.values` makes."""
    if not isinstance(y, float):
        n, d = exactify(y).as_integer_ratio()
        return values * n, d * P
    ratios = [exactify(m / P * y).as_integer_ratio() for m in values.flat]
    q = math.lcm(*(d for _, d in ratios))
    return np.array([n * (q // d) for n, d in ratios], dtype=object).reshape(values.shape), q


def audit_oi(pop, predictor, family: DistinguisherFamily, backend="rational") -> AuditReport:
    """max_A |Delta_A| over the family, via closed forms for mc/smc/basic."""
    return _reduce(_prepared(pop, predictor, family.grid), family, backend)[0]


def best_response(pop, predictor, family: DistinguisherFamily, backend="rational"):
    """A member attaining the audit value, returned with positive advantage.

    When the maximizer's signed advantage is negative the pointwise
    complement 1 - A is returned instead (the structural negation inside
    mc/smc, a `negated` member otherwise), so the result is always
    directly usable as a loss table.  Under the float backend the member
    is the exact one and only its advantage is a float.
    """
    return _reduce(_prepared(pop, predictor, family.grid), family, backend)[1:]


def _reduce(prep, family, backend="rational"):
    """(audit report, best-responding member, its advantage) for one family
    on `prep`, a population prepared with a predictor on the family's grid
    (none for the lowdegree and explicit kinds): `_prepared(pop, predictor,
    family.grid)`, or the sampled learner's empirical population.

    `prep`, and for the event families one cell table, serves the audit
    and the best response: the audit value is the advantage of the
    member, which is oriented to be nonnegative.  Ties go to the first
    hypothesis, member or cell in order.  Every number is made once by
    `audits._ratio(backend)`, which first refuses an unknown backend.
    """
    ratio = _ratio(backend)
    if family.kind == "explicit":
        members = family.explicit_members
        if len(members) > EXPLICIT_AUDIT_LIMIT:
            raise EnumerationLimitError("explicit family too large to audit")
        # on no grid, an individual's level is its exact prediction
        levels = map(prep.levels.__getitem__, prep.level_of.tolist())
        exact, preps = Predictor(dict(zip(prep.ids, levels))), {id(prep.grid): prep}
        for d in members:
            if id(d.grid) not in preps:
                preps[id(d.grid)] = prep.on(d.grid)
        advs = [_advantage(preps[id(d.grid)], exact, d) for d in members]
        mags = [ratio(abs(a.numerator), a.denominator) for a in advs]
        i = max(range(len(advs)), key=lambda i: abs(advs[i]))
        report = AuditReport("oi-explicit", mags[i], members[i].name,
                             dict(zip((d.name for d in members), mags)))
        return report, *_best(members[i], advs[i].numerator, advs[i].denominator, ratio)

    if family.kind == "lowdegree":
        mags, scale, d, best = _lowdegree_advantages(prep, family)
        breakdown = {h.name: ratio(x, scale) for h, x in zip(family.hypotheses,
                                                             mags.max(axis=1))}
        h, o, mono = d.monomial
        witness = {"hypothesis": h.name, "outcome": o, "monomial_indices": list(mono)}
        report = AuditReport("oi-lowdegree", ratio(abs(best), scale), witness, breakdown)
        return report, *_best(d, best, scale, ratio)

    if family.kind not in ("mc", "smc", "basic"):
        raise ConstructionError(f"unknown family kind {family.kind!r}")
    cls = family.hypotheses
    ys, table = prep.cell_tables(cls, prep.diff)
    # [c, level]: the mass of hypothesis c's best event, its positive cells (a
    # (level, y) block need not sum to 0: a float truth enters by its exact value)
    best = np.maximum(table, 0).sum(axis=2)
    if family.kind == "smc":
        choice = best.argmax(axis=0)  # per level, the first hypothesis of largest mass
        sums = best.max(axis=0).tolist()
        hyps = [cls.hypotheses[c] for c in choice.tolist()]
        per_level_best = {point: (h.name, _mass(prep, s, ratio))
                          for point, h, s in zip(prep.reported(backend)[1], hyps, sums)}
        total = ratio(sum(sums), prep.D)
        events = _positive_events(prep, ys, hyps, table[choice, np.arange(len(hyps))])
        d = _event_distinguisher("level-assigned-event", events, family.grid, assignment={
            str(point): h.name for point, h in zip(prep.points, hyps)})
        return AuditReport("oi-smc", total, per_level_best, per_level_best), d, total

    if family.kind == "mc":
        score = best.sum(axis=1).tolist()
        breakdown = {h.name: _mass(prep, s, ratio) for h, s in zip(cls, score)}
    else:
        score = np.abs(table).max(axis=(1, 2)).tolist()
        breakdown = {h.name: ratio(s, prep.D) for h, s in zip(cls, score)}
    c = score.index(max(score))
    h = cls.hypotheses[c]
    report = AuditReport(f"oi-{family.kind}", breakdown[h.name], h.name, breakdown)
    if family.kind == "mc":
        events = _positive_events(prep, ys, [h] * len(prep.levels), table[c])
        return report, _mc_member(h, events, family.grid), breakdown[h.name]
    # basic: binary instances always tie (y, "0", l) against (y, "1", l); taking the
    # first best cell that a nonzero (individual, outcome) reaches, in population
    # and label order, keeps the witness and the constructor transcripts stable
    ell = prep.pop.space.size
    cells = cls._y_index(prep.ids)[c][:, None] * ell + np.arange(ell)  # [pos, o]: its cell
    reached = (prep.diff != 0) & (np.abs(table[c])[prep.level_of[:, None], cells] == score[c])
    hits = np.flatnonzero(reached)
    if hits.size:
        v, i = int(prep.level_of[hits[0] // ell]), int(cells.flat[hits[0]])
    else:
        v, i = 0, 0  # no contribution is nonzero: the first cell of the first level
    y, o = ys[i // ell], prep.pop.space.labels[i % ell]
    d = _basic_member(h, y, o, prep.points[v], family.grid)
    return report, *_best(d, int(table[c, v, i]), prep.D, ratio)


def _lowdegree_advantages(prep, family):
    """(mags, scale, d, best) on `prep`, prepared with no grid: mags[c,
    o * len(monos) + m] / scale is the |advantage| of the lowdegree member
    (hypothesis c, outcome o, monos[m]), d is the first member of largest
    |advantage| in that order, and best / scale its advantage; mags and
    best are Python ints."""
    if family.outcome_space != prep.pop.space:
        raise DomainError("lowdegree family and population live on different outcome spaces")
    cls = family.hypotheses
    ys, table = prep.cell_tables(cls, prep.diff)
    ell = prep.pop.space.size
    monos = monomial_multisets(ell, family.degree)
    # [mono, level]: the monomial on each exact level times P = L ** top,
    # for the lcm L of the level denominators
    L, top = math.lcm(*(d for rk in prep.level_ratios for _, d in rk)), family.degree - 1
    weights = np.array([[n * (L // d) for n, d in rk] for rk in prep.level_ratios],
                       dtype=object)
    values = np.array([weights[:, list(m)].prod(axis=1) * L ** (top - len(m)) for m in monos])
    # [mono, level, y]: each member's value on a cell (`_prices`), over their lcm Q
    prices = [_prices(y, values, L ** top) for y in ys]
    Q = math.lcm(*(q for _, q in prices))
    nums = np.stack([p * (Q // q) for p, q in prices], axis=2).reshape(len(monos), -1)
    # [c, o, mono]: D * Q times the advantage, in Python ints, since a
    # price numerator times an int64 cell may pass int64
    cells = table.astype(object).reshape(len(cls), len(prep.levels) * len(ys), ell)
    advs = np.matmul(nums, cells).transpose(0, 2, 1).reshape(len(cls), -1)
    mags = np.abs(advs)
    c, k = divmod(int(mags.argmax()), mags.shape[1])
    o, m = divmod(k, len(monos))
    d = monomial_distinguisher(cls.hypotheses[c], prep.pop.space.labels[o], monos[m])
    return mags, prep.D * Q, d, advs[c, k]
