"""Decision-making update rules and regret measurement.

Two instantiations of the mirror-descent template are provided, matching
the two updates used by every predictor constructor in this package:

    pgd:  D' = proj_simplex(D - eta * L)            (Euclidean geometry)
    mwu:  D'(o) propto D(o) * exp(-eta * L(o))      (entropy geometry)

against loss tables L in [0,1]^outcomes.  Their standard regret bounds,

    pgd:  sum_t <L_t, D_t - x> <= ||x - D_1||^2 / (2 eta) + (eta/2) sum ||L_t||_2^2
    mwu:  sum_t <L_t, D_t - x> <= KL(x || D_1) / eta + (eta/2) sum ||L_t||_inf^2

are exposed as formulas so tests can compare measured regret against them
pathwise.  The dual-norm constant L is sqrt(l) for pgd and 1 for mwu; the
constructors elsewhere use step size eta = advantage / L^2.

Updates run in floating point (the exponential is irrational), which is
why constructors verify their termination contracts by exact re-audits
rather than by exact update arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import OutcomeDist, OutcomeSpace
from .errors import DomainError


@dataclass(frozen=True)
class LossTable:
    space: OutcomeSpace
    values: tuple  # one loss per outcome, each in [0, 1]

    def __post_init__(self):
        # + 0.0 stores -0.0 as 0.0: losses that compare equal make equal tables
        object.__setattr__(self, "values", tuple(float(v) + 0.0 for v in self.values))
        if len(self.values) != self.space.size:
            raise DomainError("loss table length does not match the outcome space")
        if any(v < -1e-12 or v > 1 + 1e-12 for v in self.values):
            raise DomainError("losses must lie in [0, 1]")


@dataclass(frozen=True)
class UpdateRule:
    kind: str  # "pgd" | "mwu"
    step_size: float
    initial: OutcomeDist
    dual_norm_bound: float

    def __post_init__(self):
        if self.kind not in ("pgd", "mwu"):
            raise DomainError(f"unknown update rule {self.kind!r}")
        if self.step_size <= 0:
            raise DomainError("step size must be positive")
        if self.kind == "mwu" and any(float(w) <= 0 for w in self.initial.weights):
            raise DomainError("mwu requires a strictly positive initial distribution")


def pgd_rule(space: OutcomeSpace, step_size: float, initial: OutcomeDist | None = None) -> UpdateRule:
    init = initial if initial is not None else OutcomeDist.uniform(space)
    return UpdateRule("pgd", float(step_size), init, math.sqrt(space.size))


def mwu_rule(space: OutcomeSpace, step_size: float, initial: OutcomeDist | None = None) -> UpdateRule:
    init = initial if initial is not None else OutcomeDist.uniform(space)
    return UpdateRule("mwu", float(step_size), init, 1.0)


def project_simplex(x) -> tuple:
    """Euclidean projection onto the probability simplex (sort-then-threshold).

    Exact in the sense of the KKT conditions: coordinates in the support
    share one uniform shift, the rest are zero.
    """
    v = [float(a) for a in x]
    n = len(v)
    u = sorted(v, reverse=True)
    css = 0.0
    rho = -1
    theta = 0.0
    for i in range(n):
        css += u[i]
        t = (css - 1.0) / (i + 1)
        if u[i] - t > 0:
            rho = i
            theta = t
    if rho < 0:
        # all mass collapses to the largest coordinate
        out = [0.0] * n
        out[max(range(n), key=lambda i: v[i])] = 1.0
        return tuple(out)
    return tuple(max(a - theta, 0.0) for a in v)


def update(rule: UpdateRule, dist: OutcomeDist, loss: LossTable) -> OutcomeDist:
    d = [float(w) for w in dist.weights]
    ls = loss.values
    if rule.kind == "pgd":
        out = project_simplex([a - rule.step_size * b for a, b in zip(d, ls)])
    else:
        scaled = [a * math.exp(-rule.step_size * b) for a, b in zip(d, ls)]
        z = sum(scaled)
        out = tuple(a / z for a in scaled)
    # renormalize away float drift so OutcomeDist validation stays happy
    z = sum(out)
    return OutcomeDist(dist.space, tuple(a / z for a in out))


@dataclass
class RegretResult:
    avg_regret: float
    best_strategy: object
    trajectory: list  # distributions D^(1..T+1)
    per_strategy: dict  # outcome label -> average regret against that pure strategy


def measure_regret(rule: UpdateRule, losses) -> RegretResult:
    """Run the rule against a loss sequence; report regret against every pure strategy."""
    if not losses:
        raise DomainError("need at least one loss table")
    space = rule.initial.space
    d = rule.initial
    trajectory = [d]
    alg_loss = 0.0
    strat_loss = [0.0] * space.size
    for loss in losses:
        alg_loss += sum(float(w) * v for w, v in zip(d.weights, loss.values))
        for o in range(space.size):
            strat_loss[o] += loss.values[o]
        d = update(rule, d, loss)
        trajectory.append(d)
    t = len(losses)
    per = {space.labels[o]: (alg_loss - strat_loss[o]) / t for o in range(space.size)}
    best = max(per, key=lambda k: per[k])
    return RegretResult(per[best], best, trajectory, per)


def regret_bound(rule: UpdateRule, losses, strategy_label) -> float:
    """The closed-form regret bound for one comparator pure strategy."""
    space = rule.initial.space
    o = space.index(strategy_label)
    t = len(losses)
    eta = rule.step_size
    if rule.kind == "pgd":
        dist_sq = sum(
            (float(w) - (1.0 if i == o else 0.0)) ** 2
            for i, w in enumerate(rule.initial.weights)
        )
        grad = sum(sum(v * v for v in loss.values) for loss in losses)
        return (dist_sq / (2 * eta) + eta * grad / 2) / t
    kl = -math.log(float(rule.initial.weights[o]))
    grad = sum(max(abs(v) for v in loss.values) ** 2 for loss in losses)
    return (kl / eta + eta * grad / 2) / t
