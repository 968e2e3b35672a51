"""Predictor construction via no-regret updates.

Every constructor runs one loop, `_run`, with a learner: while the learner
returns a member whose advantage clears its threshold, the loop turns it
into a loss table L_j(o) = A(j, o, p), applies the update rule to every
individual's prediction and records it; a cap on the iterations ends runs
the analysis rules out.  Both learners are the exact best response
(`oi._reduce`), on the true population or on the population of the draws.

The exact learner accepts above eps.  The regret bound of the rule caps
the number of iterations at 2 (L/eps)^2 E[D(p*_i, p_i^(1))]: with
multiplicative weights from the uniform start this is 2 ln(outcomes) /
eps^2, with projected gradient descent 2*outcomes/eps^2.  The final audit
is the value of the last best response, which attains the audit.  An
event member's loss table is read off the prepared population its best
response was scored on, which `audits._prepared` keeps on the predictor:
its values depend only on the grid-rounded levels of the exact
predictions.  Monomial and explicit members read the raw predictor, so
their loss tables take no prepared population at all.

An iterate costs per distinct (prediction, loss row), not per individual:
an event member shares one row per (level, hypothesis value), the loss
builder makes one table per distinct row, and the rule runs once per
distinct (prediction object, loss table) pair, whose individuals share the
result object.  So individuals that start on one prediction object and
keep getting equal rows keep sharing one object, which the next prepared
population exactifies and rounds once.  The regret bound's divergence is
one term per distinct (truth, prediction) pair of objects.

The sampled learner is a weak agnostic learner: empirical-advantage
maximization over a basic, lowdegree or explicit family on

    n = ceil( 8 ln(2|A|/beta) / (eps/2)^2 )

fresh draws per call, accepting a member whose empirical advantage
exceeds 3 eps / 4.  At that sample size a Hoeffding bound puts every
member's empirical advantage within eps/4 of the truth with probability
1 - beta, which makes both weak-learner guarantees hold: a member with
true advantage above eps is found, and an accepted member has true
advantage above eps/2.  Accepted updates of advantage eps/2 drive the
multiplicative-weights potential down fast enough that iterations stay
below ceil(8 ln(outcomes) / eps^2); a hard cap at the quarter-advantage
bound aborts runs whose learner misbehaved (probability <= the failure
budget), returning the transcript for inspection.

The randomized selection procedure avoids enumerating events altogether:
it draws a uniformly random event over {1} x outcomes x grid, draws
(individual, outcome) through `population._draw` and a modeled outcome
for each, labels each draw with the difference of event indicators on
the modeled versus the observed outcome, and asks an ERM learner, one
product over the class and its complements, to correlate with those
labels.  A random event catches a constant fraction of any large
violation, so O(log(1/beta)) rounds suffice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .audits import _Prepared, _prepared
from .core import SimplexGrid, exactify
from .errors import (
    DomainError,
    InputError,
    InternalInvariantError,
    SampledRunFailureError,
)
from .noregret import LossTable, UpdateRule, mwu_rule, update
from .oi import (
    Distinguisher,
    DistinguisherFamily,
    _reduce,
    audit_oi,
    make_family,
    mc_event_distinguisher,
    monomial_multisets,
)
from .population import (
    HypothesisClass,
    PopulationInstance,
    Predictor,
    _cumulative,
    _draw,
    _draw_outcomes,
    _int_array,
    _with_complements,
)


@dataclass
class IterationRecord:
    index: int
    witness: dict
    advantage: object  # exact Fraction in exact mode, float empirical otherwise
    samples_drawn: int = 0
    post_update_audit: object = None


@dataclass
class ConstructionTranscript:
    iterations: list = field(default_factory=list)
    final_predictor: Predictor | None = None
    sample_count: int = 0
    seed: object = None
    iteration_bound: object = None
    final_audit: object = None
    succeeded: bool = True

    @property
    def iteration_count(self):
        return len(self.iterations)


def wal_sample_count(epsilon, beta, member_count) -> int:
    return math.ceil(8 * math.log(2 * member_count / beta) / (float(epsilon) / 2) ** 2)


# ---------------------------------------------------------------------------
# Exact full-information construction
# ---------------------------------------------------------------------------


def loss_from_distinguisher(d: Distinguisher, pop, predictor) -> list:
    """Per individual of the population: the loss table L_j(o) = A(j, o, p).
    Equal rows share one table, built once."""
    tables = {}
    return [tables.get(key) or tables.setdefault(key, LossTable(pop.space, key))
            for key in map(tuple, d.values(pop, predictor))]


def _apply_update(pop, predictor, rule, losses) -> Predictor:
    """The predictor after one step of the rule against the per-individual
    losses.  The rule runs once per distinct (prediction, loss table) pair
    of objects, and the individuals of a pair share the result object."""
    preds = list(map(predictor.values.__getitem__, pop.ids))
    # identity keys: every prediction and loss table stays alive in the lists
    keys = list(zip(map(id, preds), map(id, losses)))
    pairs = dict(zip(keys, zip(preds, losses)))
    steps = {key: update(rule, p, loss) for key, (p, loss) in pairs.items()}
    return Predictor(dict(zip(pop.ids, map(steps.__getitem__, keys))))


def _divergence(rule, truth, prediction) -> float:
    """D(p*, p) in the rule's geometry: KL for mwu, half the squared
    Euclidean distance for pgd."""
    ps = [float(x) for x in truth.weights]
    pt = [float(x) for x in prediction.weights]
    if rule.kind == "mwu":
        return sum(a * math.log(a / b) for a, b in zip(ps, pt) if a > 0)
    return sum((a - b) ** 2 for a, b in zip(ps, pt)) / 2


def _initial_divergence(pop, predictor, rule) -> float:
    """E[D(p*_i, p_i)] in the rule's geometry; the potential that regret
    burns.  Each distinct weight object is read as a float once and each
    distinct (truth, prediction) pair of objects makes one term; the
    weighted terms are summed in population order."""
    # identity keys: the population and the predictor keep the objects alive
    floats, terms, total = {}, {}, 0.0
    for j in pop.ids:
        w = pop.weight[j]
        if id(w) not in floats:
            floats[id(w)] = float(w)
        if floats[id(w)] == 0:
            continue
        truth, p = pop.p_true[j], predictor.values[j]
        key = (id(truth), id(p))
        if key not in terms:
            terms[key] = _divergence(rule, truth, p)
        total += floats[id(w)] * terms[key]
    return total


def iteration_bound_exact(pop, predictor, rule, epsilon) -> float:
    L = rule.dual_norm_bound
    return 2 * (L / float(epsilon)) ** 2 * _initial_divergence(pop, predictor, rule)


def _run(pop, rule, predictor, transcript, learn, n_samples, cap, error):
    """The no-regret loop of every constructor: returns the last iterate and
    advantage.  `learn(predictor)` gives (member or None, advantage) on
    n_samples draws (0 for exact); each advantage is the post-update audit
    of the record before.  Up to `cap` members update every prediction and
    are recorded; one more raises `error`.  Records the final predictor."""
    while True:
        transcript.final_predictor = predictor
        d, adv = learn(predictor)
        transcript.sample_count += n_samples
        if transcript.iterations:
            transcript.iterations[-1].post_update_audit = adv
        if d is None:
            return predictor, adv
        if transcript.iteration_count >= cap:
            transcript.succeeded = False
            raise error
        # an event member reads the prepared population it was scored on
        predictor = _apply_update(pop, predictor, rule,
                                  loss_from_distinguisher(d, pop, predictor))
        transcript.iterations.append(IterationRecord(
            index=transcript.iteration_count + 1, witness=dict(d.payload),
            advantage=adv, samples_drawn=n_samples))


def construct_exact(pop: PopulationInstance, family: DistinguisherFamily, epsilon,
                    rule: UpdateRule | None = None,
                    initial: Predictor | None = None):
    """Full-information construction: exact best responses, no-regret updates.

    Returns a predictor whose exact OI audit against the family is at most
    eps, in under 2 (L/eps)^2 E[D(p*, initial)] iterations.  Exceeding that
    bound raises InternalInvariantError, which the regret analysis rules out.
    """
    if not 0 < epsilon < math.inf:  # NaN is not
        raise DomainError("epsilon must be positive and finite")
    eps = exactify(epsilon)
    if rule is None:
        rule = mwu_rule(pop.space, step_size=float(eps) / 1.0)
    predictor = initial if initial is not None else Predictor(
        {j: rule.initial for j in pop.ids})
    if rule.kind == "mwu":
        for p in {id(p): p for p in map(predictor.values.__getitem__, pop.ids)}.values():
            if any(float(w) <= 0 for w in p.weights):
                raise DomainError("mwu construction needs strictly positive predictions")
    bound = iteration_bound_exact(pop, predictor, rule, eps)
    transcript = ConstructionTranscript(iteration_bound=bound)

    def learn(predictor):
        _, d, adv = _reduce(_prepared(pop, predictor, family.grid), family)
        return (d if adv > eps else None), adv

    error = InternalInvariantError(
        f"construction exceeded its regret bound ({bound:.2f} iterations)")
    predictor, transcript.final_audit = _run(
        pop, rule, predictor, transcript, learn, 0, math.ceil(bound) + 1, error)
    return predictor, transcript


# ---------------------------------------------------------------------------
# Weak agnostic learning over an enumerable family
# ---------------------------------------------------------------------------


def _empirical_masses(pop, idx, o_idx) -> tuple:
    """The n draws (individual positions, outcome indices) as the masses of
    a population, for `_Prepared`: individual i weighs c_i / n and has
    truth n_io / c_i, for c_i draws of i and n_io of (i, o), so its truth
    masses are n_io / n; an undrawn individual weighs 0.  Returns (weight
    keys, weight ratios, star, D_pop), read off the integer counts: each
    reduced ratio c_i / n is its own key, D_pop is n over the gcd h of n
    and every n_io, and star the n_io over h."""
    n, ell = len(idx), pop.space.size
    counts = np.bincount(idx, minlength=len(pop.ids))
    pairs = np.bincount(idx * ell + o_idx, minlength=len(pop.ids) * ell).reshape(-1, ell)
    g = np.gcd(counts, n)  # n for an undrawn individual, whose weight is 0 / 1
    weights = list(zip((counts // g).tolist(), (n // g).tolist()))
    h = math.gcd(n, int(np.gcd.reduce(pairs, axis=None)))
    return weights, weights, _int_array(pairs // h, n // h), n // h


def wal_erm(family, threshold, draws, pop, predictor):
    """Empirical-risk-minimization weak agnostic learner.

    Returns the exact best response (`oi._reduce`) on the empirical
    population of the draws, (individual positions, outcome indices)
    arrays as `population._draw` makes them, with its advantage there as
    a float, when that exceeds the threshold, else None.  So it breaks
    ties as the exact best response does, and refuses what the exact
    audit refuses, such as an explicit family above EXPLICIT_AUDIT_LIMIT.
    At threshold 3 eps / 4 and `wal_sample_count` draws, it satisfies
    both weak-learner guarantees with probability at least 1 - beta.
    """
    idx, o_idx = draws
    if not len(idx):
        raise InputError("empty sample list")
    family.check_enumerable()
    # built directly: the predictor's memo keeps the true population's build
    prep = _Prepared(pop, predictor, family.grid, masses=_empirical_masses(pop, idx, o_idx))
    _, d, adv = _reduce(prep, family)
    if adv > threshold:
        return d, float(adv)
    return None


def _sampled_epsilon(epsilon, beta) -> float:
    """The float eps of a sampled run, once it and beta are in range."""
    eps = float(epsilon)
    if not 0 < eps < math.inf:  # NaN is not
        raise DomainError("epsilon must be positive and finite")
    if not 0 < beta < 1:
        raise DomainError("failure probability must lie in (0, 1)")
    return eps


def construct_sampled(pop, family, epsilon, rule=None, beta=0.05,
                      rng: np.random.Generator | None = None, seed=None,
                      n_samples=None):
    """Sample-based construction through a weak agnostic learner.

    The returned transcript records every accepted distinguisher, the
    per-iteration sample counts, and the final exact audit.  Iterations
    are hard-capped at the quarter-advantage regret bound; exceeding the
    cap raises SampledRunFailureError carrying the transcript (this is
    the probability-beta failure path made explicit).
    """
    eps = _sampled_epsilon(epsilon, beta)
    if rng is None:
        rng = np.random.default_rng(seed)
    if rule is None:
        rule = mwu_rule(pop.space, step_size=eps / 2)
    family.check_enumerable()
    if n_samples is None:
        # ERM searches members and their negations
        n_samples = wal_sample_count(eps, beta, 2 * family.member_count())
    scale = math.log(pop.space.size) if rule.kind == "mwu" else pop.space.size
    soft_cap, hard_cap = (math.ceil(k * scale / eps ** 2) for k in (8, 32))
    transcript = ConstructionTranscript(seed=seed, iteration_bound=soft_cap)

    def learn(predictor):
        return wal_erm(family, 3 * eps / 4, _draw(pop, rng, n_samples), pop,
                       predictor) or (None, 0.0)

    error = SampledRunFailureError(f"exceeded the iteration cap {hard_cap}", transcript)
    predictor, _ = _run(pop, rule, Predictor({j: rule.initial for j in pop.ids}), transcript,
                        learn, n_samples, hard_cap, error)
    transcript.final_audit = audit_oi(pop, predictor, family, backend="rational").value
    return predictor, transcript


# ---------------------------------------------------------------------------
# Randomized distinguisher selection
# ---------------------------------------------------------------------------

SELECT_ROUNDS_FACTOR = 8          # rounds = ceil(8 ln(1/beta))


def _select_rounds(beta) -> int:
    """The number of rounds `select_distinguisher_randomized` runs."""
    return math.ceil(SELECT_ROUNDS_FACTOR * math.log(1 / beta))


def select_distinguisher_randomized(pop, predictor, cls: HypothesisClass, eps_prime,
                                    beta, rng: np.random.Generator,
                                    grid: SimplexGrid):
    """Randomized event selection: returns a member of the mc family of
    `close_under_complement(cls)` or None; its hypothesis may be a
    complement `not:<name>` that is not in `cls`.

    Each round draws a uniformly random event over the (outcome, grid
    point) cells; if some mc-family member has advantage above
    8 sqrt(outcomes * |grid|) times eps_prime, the event keeps enough of
    the advantage with probability at least 1/16 per round, and the
    learner's sample size bounds its error over all rounds by beta.  So a
    member with advantage above eps_prime / 2 is returned with probability
    at least 1 - (15/16)^rounds - beta, for rounds = ceil(8 ln(1/beta)):
    (15/16)^rounds <= beta^(8 ln(16/15)), about beta^0.52 (0.21 at
    beta = 0.05), so this is not 1 - beta.  The class is read only by the
    learner: one product of the 0/1 array of the class and its complements
    with the per-individual label sums, whose first largest entry is
    accepted above 3 eps_prime / 4.
    """
    if not pop.space.is_binary or not cls.is_binary:
        raise DomainError("randomized selection requires binary outcomes and hypotheses")
    if not 0 < beta < 1:
        raise DomainError("failure probability must lie in (0, 1)")
    epsp = float(eps_prime)
    if not epsp > 0:
        raise DomainError(f"eps' must be positive, got {eps_prime}")
    search = _with_complements(cls.hypotheses)
    rounds = _select_rounds(beta)
    n_per_round = math.ceil(
        8 * math.log(2 * len(search) * rounds / beta) / (epsp / 2) ** 2)

    points = [tuple(g.weights) for g in grid.iter_points()]
    cells = [(o, point) for o in pop.space.labels for point in points]
    prep = _prepared(pop, predictor, grid)
    cum_mod = _cumulative([predictor.values[j] for j in pop.ids])
    # a point's cells by its ratios, as `prep.level_ratios` names levels
    point_index = {tuple(x.as_integer_ratio() for x in p): k for k, p in enumerate(points)}
    cell_of = np.array([[o * len(points) + point_index[rk] for o in range(pop.space.size)]
                        for rk in prep.level_ratios])[prep.level_of]
    values = np.array([[float(h.values[j]) for j in pop.ids] for h in search])

    for _ in range(rounds):
        member_bits = rng.integers(0, 2, size=len(cells))
        idx, o_star = _draw(pop, rng, n_per_round)
        o_prime = _draw_outcomes(rng, cum_mod[idx])
        y = member_bits[cell_of[idx, o_prime]] - member_bits[cell_of[idx, o_star]]
        # E[c_x y] per hypothesis; the label sums are integers below 2^53,
        # so the product adds them exactly in any order
        corr = values @ np.bincount(idx, weights=y, minlength=len(pop.ids)) / n_per_round
        best = int(corr.argmax())
        if corr[best] > 3 * epsp / 4:
            event = [(1, o, g) for (o, g), b in zip(cells, member_bits) if b]
            return mc_event_distinguisher(search[best], event, grid)
    return None


# ---------------------------------------------------------------------------
# Low-degree construction and VC helpers
# ---------------------------------------------------------------------------


def vc_dimension(cls: HypothesisClass, limit: int = 16) -> int:
    """Brute-force VC dimension of a 0/1 class over an explicit domain.

    Exponential search; refuses domains larger than `limit` points.
    """
    ids = sorted({j for h in cls for j in h.values})
    if len(ids) > limit:
        raise DomainError(f"VC brute force capped at {limit} domain points")
    best = 0
    for d in range(1, len(ids) + 1):
        found = False
        for subset in itertools.combinations(ids, d):
            patterns = {tuple(h.values[j] for j in subset) for h in cls}
            if len(patterns) == 2 ** d:
                found = True
                break
        if found:
            best = d
        else:
            break
    return best


def low_degree_sample_count(epsilon, beta, vc, ell, degree) -> int:
    """Per-call draws for the low-degree learner: VC of the class plus the
    log of the (outcome, monomial) choices, at the usual Hoeffding scaling."""
    m_k = len(monomial_multisets(ell, degree))
    return math.ceil(
        8 * (vc + math.log(2 * ell * m_k / beta)) / (float(epsilon) / 2) ** 2)


def construct_low_degree(pop, cls, degree, epsilon, mode="exact", rng=None,
                         beta=0.1, rule=None):
    """Constructor against the low-degree family; exact or sampled mode."""
    family = make_family("lowdegree", hypotheses=cls, degree=degree,
                         outcome_space=pop.space)
    if mode == "exact":
        return construct_exact(pop, family, epsilon, rule=rule)
    if mode != "sampled":
        raise DomainError(f"unknown mode {mode!r}")
    n = low_degree_sample_count(_sampled_epsilon(epsilon, beta), beta, vc_dimension(cls),
                                pop.space.size, degree)
    return construct_sampled(pop, family, epsilon, rule=rule, beta=beta, rng=rng,
                             n_samples=n)
