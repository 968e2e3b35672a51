"""Loss families, post-processing, and omniprediction audits.

A loss assigns a cost in [0, 1] to every (outcome, action) pair.  The
post-processing of a predicted distribution v picks the action minimizing
the expected loss under v, first action in order on ties.  A predictor is
an omnipredictor for a loss family and hypothesis class with slack eps if
its post-processed actions lose at most eps more than any hypothesis:

    E[loss(true outcome, post(p_i))] <= E[loss(true outcome, c_i)] + eps.

The audit evaluates this gap exactly for every (loss, hypothesis) pair
from one cell table of true masses per (hypothesis, level, y, outcome),
`audits._Prepared.cell_tables` over the rows `star`.  The audit runs on
integers: a level's weights are put over their common denominator and a
loss's costs over the lcm L of theirs, so the post-processed actions of
all levels are the first argmin of one integer product (level weights) @
(costs)^T (first action on ties, as `post_process` picks it), every
expected loss is a summed elementwise product of the table with cost rows,
an integer over D * L, and gaps are compared as those integer pairs.  Each
reported gap is made once from its two integers (`audits._ratio`): a
Fraction, or under the float backend its correctly rounded float.
`post_process` keeps its Fraction arithmetic, as the scalar API.
Because losses are [0,1]-bounded, the gap is at most the calibration
audit plus the multi-accuracy audit, exactly; `omni_bound_check` verifies
that inequality on any instance, on exact values under either backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audits import AuditReport, _prepared, _ratio, audit_calibration, audit_multi_accuracy
from .core import OutcomeDist, OutcomeSpace, exactify
from .errors import DomainError, RangeMismatchError
from .population import HypothesisClass, PopulationInstance, Predictor


@dataclass(frozen=True)
class LossFunction:
    name: str
    space: OutcomeSpace
    actions: tuple  # finite, ordered
    table: dict  # (outcome label, action) -> cost in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        for o in self.space.labels:
            for y in self.actions:
                if (o, y) not in self.table:
                    raise DomainError(f"loss {self.name}: missing entry ({o!r}, {y!r})")
                v = exactify(self.table[(o, y)])
                if not (0 <= v <= 1):
                    raise DomainError(f"loss {self.name}: entry ({o},{y}) outside [0,1]")

    def cost(self, outcome, action):
        return self.table[(outcome, action)]


def zero_one_loss(space: OutcomeSpace) -> LossFunction:
    """Actions are the outcomes themselves; cost 0 on a match, 1 otherwise."""
    table = {(o, y): Fraction(0) if o == y else Fraction(1)
             for o in space.labels for y in space.labels}
    return LossFunction("zero-one", space, space.labels, table)


def post_process(loss: LossFunction, dist: OutcomeDist):
    """argmin over actions of the expected cost under dist; first action on ties."""
    best = None
    for y in loss.actions:
        exp = sum(exactify(w) * exactify(loss.cost(o, y))
                  for o, w in zip(dist.space.labels, dist.weights))
        if best is None or exp < best[1]:
            best = (y, exp)
    return best[0]


def _action_map(losses, cls: HypothesisClass) -> dict:
    """Match hypothesis range values to loss actions.

    Values must appear in every loss's action set, either directly or via
    their canonical string form (so 0/1-valued hypotheses compose with
    losses whose actions are the labels "0"/"1").
    """
    out = {}
    for loss in losses:
        actions = set(loss.actions)
        for y in cls.range_values:
            if y in actions:
                out[(loss.name, y)] = y
            elif str(y) in actions:
                out[(loss.name, y)] = str(y)
            else:
                raise RangeMismatchError(
                    f"hypothesis value {y!r} is not an action of loss {loss.name}")
    return out


def omni_audit(pop: PopulationInstance, predictor: Predictor, losses,
               cls: HypothesisClass, backend="rational") -> AuditReport:
    """max over (loss, hypothesis) of the post-processing regret, clipped at 0.

    The breakdown keeps the signed per-pair gaps, keyed by (loss name,
    hypothesis name), so loss names must be distinct; the report value
    clips below at zero so it compares directly against a slack eps.  The
    witness is the first largest gap, compared on integers; each number is
    made once under `backend`.
    """
    ratio = _ratio(backend)
    if not losses:
        raise DomainError("an omniprediction audit needs at least one loss")
    names = set()
    for loss in losses:
        if loss.name in names:
            raise DomainError(f"two losses are named {loss.name!r}")
        names.add(loss.name)
    act_of = _action_map(losses, cls)
    prep = _prepared(pop, predictor)
    ell = prep.pop.space.size
    ys, table = prep.cell_tables(cls, prep.star)
    # Python ints: a mass times a cost numerator may pass int64
    table = table.astype(object)
    # scaled true outcome masses per level (any hypothesis splits a level by
    # y), and per (hypothesis, y) at [c, y * ell + o]
    level_true = table[0].reshape(len(prep.levels), len(ys), ell).sum(axis=1)
    y_true = table.sum(axis=1)
    # each level's weights as numerators over their common denominator,
    # which is positive, so they rank actions as the weights do
    ratios = np.array(prep.level_ratios, dtype=object)  # [level, o, (n, d)]
    den = np.lcm.reduce(ratios[:, :, 1], axis=1)
    level_nums = ratios[:, :, 0] * (den[:, None] // ratios[:, :, 1])
    breakdown = {}
    witness = best = None  # best: the largest gap as (numerator, denominator)
    for loss in losses:
        L, costs = _cost_numerators(loss, prep.pop.space.labels)
        # argmin keeps the first action on ties
        post = (level_true * costs[(level_nums @ costs.T).argmin(axis=1)]).sum()
        y_costs = costs[[loss.actions.index(act_of[(loss.name, y)]) for y in ys]].reshape(-1)
        scale = prep.D * L
        for h, h_loss in zip(cls, (y_true * y_costs).sum(axis=1)):
            gap = post - h_loss  # over scale
            breakdown[(loss.name, h.name)] = ratio(gap, scale)
            if best is None or gap * best[1] > best[0] * scale:
                best, witness = (gap, scale), (loss.name, h.name)
    return AuditReport("omniprediction", ratio(max(best[0], 0), best[1]), witness, breakdown)


def _cost_numerators(loss: LossFunction, labels) -> tuple:
    """(L, costs): costs[a, o] is L times the cost of action a on outcome o,
    for the loss's actions in order, an array of Python ints, where L is the
    lcm of the costs' denominators."""
    ratios = [[exactify(loss.cost(o, a)).as_integer_ratio() for o in labels]
              for a in loss.actions]
    L = math.lcm(*(b for row in ratios for _, b in row))
    return L, np.array([[n * (L // b) for n, b in row] for row in ratios], dtype=object)


def omni_bound_check(pop, predictor, losses, cls, backend="rational") -> dict:
    """Verify omni_audit <= calibration + multi-accuracy, exactly, and report
    all three numbers under `backend`; the omni audit's full report is kept
    under "report".  The three audits read one prepared population
    (`audits._prepared`).  `bound_holds` is decided on the exact values: the
    float backend takes it from the rational check."""
    omni = omni_audit(pop, predictor, losses, cls, backend)
    cal = audit_calibration(pop, predictor, backend)
    ma = audit_multi_accuracy(pop, predictor, cls, backend)
    if backend == "rational":
        holds = omni.value <= cal + ma.value
    else:
        holds = omni_bound_check(pop, predictor, losses, cls)["bound_holds"]
    return {
        "omni_audit": omni.value,
        "calibration": cal,
        "multi_accuracy": ma.value,
        "bound_holds": holds,
        "witness": omni.witness,
        "report": omni,
    }
