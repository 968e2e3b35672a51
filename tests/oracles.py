"""Brute-force oracles for the tests.

The literal joint tables of a population and a predictor, a rational
report with every number in it rounded (the reference for every float
report), the exact value of a float prediction and its largest-remainder
rounding onto a coordinate grid by Fraction arithmetic, the exact
prepared population built by
Fraction products cell by cell, the prepared population as it was built
one individual at a time (the reference for the build per distinct
value), statistical distance by enumeration of
every event, the mc OI audit by enumeration of every event over the cell
lattice, the basic OI witness by a walk over the individuals in
population and label order, the weak learner's empirical advantages by
a float loop over every member and every draw, the empirical population
of some draws built by Fractions (the reference for the masses read off
the draw counts), a member's values, loss tables, updates and the
constructor's divergence bound one individual at a time (the references
for the constructor's work per distinct value), and the graph
statistics, including the (true - predicted) pair sums delta_{S,T} of a
graph predictor.  The per-hypothesis y-index
lists and the cell table summed by a literal loop over the individuals are
the references for the class-attached index and the `np.add.at` kernel.
The random instance drawn with one
scalar generator call per row or value, and the instance parser that reads
every number and distribution on its own, are the references for the
block-drawn `random_instance` and the memoized parse, and the emitter that
formats every individual's values on its own is the reference for the
memoized emit.  Every edge count in the graph
oracles is a literal scan of `g.edges`, so they share no code path with
the library, which reads every count off the cached adjacency matrix.  The
cut norm, the one-part intermediate scan and the regular-pair check as
they were before `_mask_sums` chunked them (every T-mask at once, and
the S x T loop) are the references for the chunked scans, and the
partition scan with its per-pair "full" or "rows" tables and float-BLAS
products is the reference for the grid scan.  The randomized intermediate
spot check samples S and T rather than enumerating them.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from multifair.audits import (
    AuditReport,
    ConditionalCheckResult,
    ViolationProfile,
    _Prepared,
    _unmerged,
)
from multifair.core import (
    OutcomeDist,
    OutcomeSpace,
    SimplexGrid,
    _as_table,
    _check_same_support,
    _exact_ratios,
    binary_space,
    exactify,
)
from multifair.errors import (
    ConditioningMismatchError,
    DomainError,
    EmptyBlockError,
    EnumerationLimitError,
    InputError,
    InternalInvariantError,
)
from multifair.graph import (
    CheckReport,
    DiGraph,
    VertexPartition,
    _block_edges,
    _popcounts,
    _subset_sum_table,
    _vertex_count,
    _violating_mass,
    cut_oracle,
    pair_id,
)
from multifair.noregret import LossTable, update
from multifair.oi import _mass
from multifair.population import (
    Hypothesis,
    HypothesisClass,
    PopulationInstance,
    Predictor,
    _scaled_products,
    close_under_complement,
)
from multifair.serialize import (
    _object,
    _value_token,
    dist_to_json,
    number_to_string,
    parse_number,
)

SUBSET_ORACLE_LIMIT = 22
MC_ORACLE_CELL_LIMIT = 12


def projection(obj):
    """j -> obj.values[j] for a predictor or a hypothesis: a key of the joint tables."""
    return lambda j: obj.values[j]


def joint_tables(pop, predictor, projections=()) -> tuple:
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


def conditional_distance_profile(joint_x, joint_y) -> dict:
    """Per-condition statistical distances delta(X, Y | Z=z).

    Both tables are keyed by tuples whose last coordinate is the conditioning
    value z.  The Z-marginals must agree exactly; conditions with zero mass
    are excluded from the output.  The profile satisfies

        sum_z profile[z] * Pr[Z=z] = delta((X,Z), (Y,Z)).
    """
    zx, zy = {}, {}
    for key, mass in joint_x.items():
        zx[key[-1]] = zx.get(key[-1], 0) + mass
    for key, mass in joint_y.items():
        zy[key[-1]] = zy.get(key[-1], 0) + mass
    if set(zx) != set(zy) or any(zx[z] != zy[z] for z in zx):
        raise ConditioningMismatchError("conditioning marginals differ between the joints")
    profile = {}
    for z, mass in zx.items():
        if mass == 0:
            continue
        px = {k[:-1]: v for k, v in joint_x.items() if k[-1] == z}
        py = {k[:-1]: v for k, v in joint_y.items() if k[-1] == z}
        keys = set(px) | set(py)
        tot = sum(abs(px.get(k, 0) - py.get(k, 0)) for k in keys)
        if isinstance(tot, float) or isinstance(mass, float):
            profile[z] = tot / (2 * mass)
        else:
            profile[z] = Fraction(tot, 1) / (2 * mass)
    return profile


def as_exact_fraction_oracle(dist: OutcomeDist) -> OutcomeDist:
    """`OutcomeDist.as_exact()` by Fraction arithmetic: each weight at its
    exact value, and the first largest absorbing the deficit 1 - sum."""
    if dist.is_exact:
        return dist
    ws = [exactify(w) for w in dist.weights]
    deficit = 1 - sum(ws)
    if deficit != 0:
        i = max(range(len(ws)), key=lambda j: ws[j])
        ws[i] += deficit
        if ws[i] < 0:
            raise DomainError("cannot exactify: weights too far from the simplex")
    return OutcomeDist(dist.space, tuple(ws))


def round_coordinate_fraction(grid: SimplexGrid, dist: OutcomeDist) -> OutcomeDist:
    """Largest-remainder rounding of an exact `dist` onto a coordinate grid,
    by Fraction remainders; ties bump earlier coordinates."""
    m = grid.denominator
    scaled = [w * m for w in dist.weights]
    floors = [int(x) for x in scaled]  # int() truncates toward zero; weights >= 0
    remainders = [x - f for x, f in zip(scaled, floors)]
    k = m - sum(floors)
    order = sorted(range(len(scaled)), key=lambda i: (-remainders[i], i))
    out = list(floors)
    for i in order[: max(k, 0)]:
        out[i] += 1
    return OutcomeDist(grid.space, tuple(Fraction(c, m) for c in out))


def round_dist_fraction_oracle(grid: SimplexGrid, dist: OutcomeDist) -> OutcomeDist:
    """`grid.round_dist(dist)` with the exact value and the apportionment
    taken by Fraction arithmetic; explicit grids are scanned."""
    exact = as_exact_fraction_oracle(dist)
    if grid.is_coordinate:
        return round_coordinate_fraction(grid, exact)
    return grid._round_scan(exact.weights)


def prepared_fraction_oracle(pop, predictor, grid=None) -> dict:
    """The exact `_Prepared` fields, built by Fraction products cell by cell.

    Every w_j p_j(o) and w_j p*_j(o) is a Fraction, each row, truth or
    prediction, read at its exact value (`as_exact_fraction_oracle`), D is
    the lcm of their denominators, and levels are the distinct (grid-rounded) predictions,
    each kept as its first occurrence in population order.  Returns the
    fields D, star, diff, levels, points, level_of and level_weight.
    """
    ell = pop.space.size
    dists = [as_exact_fraction_oracle(predictor.values[j]) for j in pop.ids]
    w = [exactify(pop.weight[j]) for j in pop.ids]
    tilde_fr = [[w[i] * exactify(d.weights[o]) for o in range(ell)]
                for i, d in enumerate(dists)]
    truths = [as_exact_fraction_oracle(pop.p_true[j]) for j in pop.ids]
    star_fr = [[w[i] * d.weights[o] for o in range(ell)] for i, d in enumerate(truths)]
    D = math.lcm(1, *(f.denominator for rows in (tilde_fr, star_fr)
                      for row in rows for f in row))
    tilde = [[int(f * D) for f in row] for row in tilde_fr]
    star = [[int(f * D) for f in row] for row in star_fr]
    diff = [[t - s for t, s in zip(tr, sr)] for tr, sr in zip(tilde, star)]
    if grid is not None:
        rounded = {d: round_dist_fraction_oracle(grid, d) for d in set(dists)}
        level_dists = [rounded[d] for d in dists]
    else:
        level_dists = dists
    levels = sorted(set(level_dists), key=lambda d: tuple(d.weights))
    idx = {d: i for i, d in enumerate(levels)}
    level_of = [idx[d] for d in level_dists]
    level_weight = [0] * len(levels)
    for li, row in zip(level_of, star):
        level_weight[li] += sum(row)
    return {"D": D, "star": star, "diff": diff, "levels": levels,
            "points": [tuple(d.weights) for d in levels], "level_of": level_of,
            "level_weight": level_weight}


def prepared_per_individual(pop, predictor, grid=None) -> dict:
    """The `_Prepared` fields as the build computed them one individual at
    a time: `_exact_ratios` and the gcd-reduced products per individual,
    levels keyed per individual.  Returns D, star, diff, levels, points,
    level_of and level_weight.
    """
    dists = [predictor.values[j] for j in pop.ids]
    keys = [_exact_ratios(d) for d in dists]
    weights, star, D_pop = pop._exact_table()
    tilde, D = _scaled_products(weights, keys, D_pop)
    scale = D // D_pop
    star = [[x * scale for x in row] for row in star.tolist()]
    diff = [[t - s for t, s in zip(tr, sr)] for tr, sr in zip(tilde, star)]

    first = {}  # key -> its first prediction, in population order
    for key, d in zip(keys, dists):
        first.setdefault(key, d)
    if grid is not None:
        level_rep = [grid._round_ratios(key) for key in first]
    else:
        level_rep = [d.as_exact() for d in first.values()]
    rep_keys = [tuple(x.as_integer_ratio() for x in d.weights) for d in level_rep]
    levels = {}
    for rk, d in zip(rep_keys, level_rep):
        levels.setdefault(rk, d)
    order = sorted(levels, key=lambda rk: [(n / d, x) for (n, d), x
                                           in zip(rk, levels[rk].weights)])
    levels = [levels[rk] for rk in order]
    idx = {rk: i for i, rk in enumerate(order)}
    level_of_key = {key: idx[rk] for key, rk in zip(first, rep_keys)}
    level_of = [level_of_key[key] for key in keys]
    level_weight = [0] * len(levels)
    for li, row in zip(level_of, star):
        level_weight[li] += sum(row)
    return {"D": D, "star": star, "diff": diff, "levels": levels,
            "points": [tuple(d.weights) for d in levels], "level_of": level_of,
            "level_weight": level_weight}


def y_index_per_hypothesis(cls, ids) -> list:
    """Per hypothesis, the list of each individual's position in the range,
    looked up one individual at a time."""
    y_idx = {y: i for i, y in enumerate(cls.range_values)}
    return [[y_idx[h.values[j]] for j in ids] for h in cls]


def cell_tables_loop(ids, level_of, n_levels, cls, rows):
    """`_Prepared.cell_tables` by a literal loop over the individuals, in
    population order: rows[pos] (a list of numbers) is added cell by cell
    into the table of its level and of each hypothesis's value at ids[pos]."""
    ys = list(cls.range_values)
    k = len(rows[0])
    out = []
    for h in cls:
        tables = [[0] * (len(ys) * k) for _ in range(n_levels)]
        for j, level, row in zip(ids, level_of, rows):
            base = ys.index(h.values[j]) * k
            for i, x in enumerate(row):
                tables[level][base + i] += x
        out.append(tables)
    return ys, out


def stat_distance_subset_oracle(p, q):
    """max_A |p(A) - q(A)| by literal enumeration of all 2^|support| events.

    This is the defining form of statistical distance and is kept independent
    of `stat_distance` so the two can check each other.  Supports of more
    than 22 atoms are refused.
    """
    tp, tq = _as_table(p), _as_table(q)
    _check_same_support(tp, tq)
    atoms = list(tp)
    k = len(atoms)
    if k > SUBSET_ORACLE_LIMIT:
        raise EnumerationLimitError(
            f"support of size {k} exceeds the enumeration guard {SUBSET_ORACLE_LIMIT}"
        )
    return _max_abs_subset_sum([tp[a] - tq[a] for a in atoms])


def _max_abs_subset_sum(values):
    """max over all subsets of |sum of the subset|, by literal enumeration.

    A Gray-code walk: exactly one value enters or leaves the subset per
    step.  Returns the int 0 when no subset sum is nonzero.
    """
    best = 0
    acc = 0
    prev = 0
    for g in range(1, 1 << len(values)):
        gray = g ^ (g >> 1)
        changed = gray ^ prev
        idx = changed.bit_length() - 1
        if gray & changed:
            acc += values[idx]
        else:
            acc -= values[idx]
        prev = gray
        mag = abs(acc)
        if mag > best:
            best = mag
    return best


def _to_float(x):
    """x with every Fraction in it replaced by its correctly rounded float.

    It maps reports, dicts (keys too), lists, tuples and points; ints,
    strings and everything else are kept.  Dict keys that round to one
    float keep their exact form, so no entry is lost; their values are
    rounded.  It is the reference for "a float report is its rational
    report rounded once": the library makes each float where it makes the
    number, from the same two integers as its Fraction.
    """
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, OutcomeDist):
        return OutcomeDist(x.space, _to_float(x.weights))
    if isinstance(x, (tuple, list)):
        return type(x)(map(_to_float, x))
    if isinstance(x, dict):
        return dict(zip(_unmerged(x, list(map(_to_float, x))), map(_to_float, x.values())))
    if isinstance(x, (AuditReport, ViolationProfile, ConditionalCheckResult)):
        return dataclasses.replace(x, **{f.name: _to_float(getattr(x, f.name))
                                         for f in dataclasses.fields(x)})
    return x


def audit_oi_mc_bruteforce(pop, predictor, cls, grid, backend="rational"):
    """Literal max over all events E of |Delta| for the mc family.

    Enumerates 2^(|Y| * outcomes * |grid|) events, so the cell count is
    capped at 12.  The float backend rounds the exact maximum.
    """
    if backend not in ("rational", "float"):
        raise DomainError(f"unknown backend {backend!r}")
    prep = _Prepared(pop, predictor, grid=grid)
    ys, table = prep.cell_tables(cls, prep.diff)
    tables = table.tolist()
    ell = pop.space.size
    n_cells = len(ys) * ell * grid.size
    if n_cells > MC_ORACLE_CELL_LIMIT:
        raise EnumerationLimitError(f"{n_cells} cells exceed the oracle cap")
    # cells over the full (y, o, grid) lattice, not just occupied levels
    level_of = {point: v for v, point in enumerate(prep.points)}
    best = 0
    for per_level in tables:
        diffs = []
        for i in range(len(ys) * ell):
            for g in grid.iter_points():
                v = level_of.get(tuple(g.weights))
                diffs.append(per_level[v][i] if v is not None else 0)
        best = max(best, _max_abs_subset_sum(diffs))
    value = _mass(prep, best)
    return _to_float(value) if backend == "float" else value


def first_reached_cell(prep, ys, h, per_level, target):
    """(level, cell) of the basic family's witness, by a walk over the
    individuals: the first cell of `per_level` (one hypothesis's rows of
    the cell table, as lists) with |signed mass| == target that a nonzero
    (individual, outcome) contribution reaches, in population and label
    order.  When every contribution is zero the first cell of the first
    level is returned."""
    y_idx = {y: i for i, y in enumerate(ys)}
    ell = prep.pop.space.size
    for j, level, diff in zip(prep.ids, prep.level_of.tolist(), prep.diff.tolist()):
        row = per_level[level]
        base = y_idx[h.values[j]] * ell
        for o, x in enumerate(diff):
            if x and abs(row[base + o]) == target:
                return level, base + o
    return 0, 0


def empirical_advantages(members, pop, predictor, samples):
    """Per-member empirical advantage over a list of (individual, outcome) samples.

    Uses the conditional expectation over the modeled outcome given the
    sampled individual, an unbiased range-2 estimator that needs no extra
    randomness.  Each advantage is a Python float.
    """
    if not samples:
        raise InputError("empty sample list")
    id_pos = {j: i for i, j in enumerate(pop.ids)}
    n = len(samples)
    counts = np.zeros(len(pop.ids))
    obs_counts = np.zeros((len(pop.ids), pop.space.size))
    o_pos = {o: i for i, o in enumerate(pop.space.labels)}
    for j, o in samples:
        counts[id_pos[j]] += 1
        obs_counts[id_pos[j], o_pos[o]] += 1
    drawn = [i for i in range(len(pop.ids)) if counts[i] != 0]
    pts = [[float(w) for w in predictor.values[pop.ids[i]].weights] for i in drawn]
    out = []
    for d in members:
        modeled = 0.0
        observed = 0.0
        rows = d.values(pop, predictor)
        for i, pt in zip(drawn, pts):
            vals = [float(v) for v in rows[i]]
            modeled += counts[i] * sum(a * b for a, b in zip(vals, pt))
            observed += sum(obs_counts[i, oi] * vals[oi] for oi in range(pop.space.size))
        out.append(float((modeled - observed) / n))
    return out


def member_rows_per_individual(d, pop, predictor) -> list:
    """A member's values per individual, one new row each, read off the
    individual alone: an event member at the grid point its exact
    prediction rounds to (`SimplexGrid.round_dist`), a monomial member at
    its prediction, an explicit member through its callable."""
    labels = pop.space.labels
    rows = []
    for j in pop.ids:
        p = predictor.values[j]
        if d.events is not None:
            point = d.grid.round_dist(p.as_exact()).weights
            h, cells = d.events.get(tuple(x.as_integer_ratio() for x in point), (None, ()))
            y = h.values[j] if h is not None else None
            row = [1 if (y, o) in cells else 0 for o in labels]
        elif d.monomial is not None:
            h, o0, mono = d.monomial
            value = Fraction(1) if p.is_exact else 1.0
            for i in mono:
                value = value * p.weights[i]
            c = h.range_values[h.range_values.index(h.values[j])]
            row = [c * value if o == o0 else 0 for o in labels]
        else:
            row = [d.fn(j, o, predictor) for o in labels]
        rows.append([1 - v for v in row] if d.negated else row)
    return rows


def loss_tables_per_individual(d, pop, predictor) -> list:
    """One loss table L_j(o) = A(j, o, p) per individual, from its own row."""
    return [LossTable(pop.space, tuple(float(v) for v in row))
            for row in member_rows_per_individual(d, pop, predictor)]


def apply_update_per_individual(pop, predictor, rule, losses) -> Predictor:
    """One update per individual, each a new prediction object."""
    return Predictor({j: update(rule, predictor.values[j], loss)
                      for j, loss in zip(pop.ids, losses)})


def initial_divergence_per_individual(pop, predictor, rule) -> float:
    """E[D(p*_i, p_i)] in the rule's geometry, one term per individual."""
    total = 0.0
    for j in pop.ids:
        w = float(pop.weight[j])
        if w == 0:
            continue
        ps = [float(x) for x in pop.p_true[j].weights]
        pt = [float(x) for x in predictor.values[j].weights]
        if rule.kind == "mwu":
            div = sum(a * math.log(a / b) for a, b in zip(ps, pt) if a > 0)
        else:
            div = sum((a - b) ** 2 for a, b in zip(ps, pt)) / 2
        total += w * div
    return total


def empirical_population_fraction(pop, idx, o_idx) -> PopulationInstance:
    """The n draws (individual positions, outcome indices) as a population,
    by Fractions: individual i weighs c_i / n and has truth n_io / c_i, for
    c_i draws of i and n_io of (i, o); an undrawn individual weighs 0 and
    keeps its truth."""
    n, ell = len(idx), pop.space.size
    counts = np.bincount(idx, minlength=len(pop.ids)).tolist()
    pairs = np.bincount(idx * ell + o_idx, minlength=len(pop.ids) * ell).reshape(-1, ell)
    truth = {j: OutcomeDist(pop.space, tuple(Fraction(x, c) for x in row)) if c
             else pop.p_true[j] for j, c, row in zip(pop.ids, counts, pairs.tolist())}
    weight = {j: Fraction(c, n) for j, c in zip(pop.ids, counts)}
    return PopulationInstance(pop.space, pop.ids, weight, truth)


def spot_check_intermediate(g: DiGraph, p: VertexPartition, epsilon,
                            rng: np.random.Generator, samples: int = 2000) -> CheckReport:
    """Randomized, non-exhaustive intermediate check for larger graphs.

    Each sample puts every vertex in S, and independently in T, with
    probability 1/2, so every vertex is reached whatever n is.
    """
    n = _vertex_count(g, p)
    eps = exactify(epsilon)
    e, sizes, _ = _block_edges(g, p)
    size = np.outer(sizes, sizes).astype(object)
    worst = Fraction(0)
    witness = None
    for _ in range(samples):
        S = tuple(np.flatnonzero(rng.integers(0, 2, size=n)).tolist())
        T = tuple(np.flatnonzero(rng.integers(0, 2, size=n)).tolist())
        e_st, s, t = _block_edges(g, p, S, T)
        st = np.outer(s, t).astype(object)
        # |d(S n V_j, T n V_k) - d(V_j, V_k)| > eps, times |S n V_j||T n V_k| > 0
        gap = np.abs(e_st * size - e * st) * eps.denominator
        mass = int(np.where(gap > eps.numerator * st * size, st, 0).sum())
        if mass > worst:
            worst = Fraction(mass)
            witness = (S, T)
    return CheckReport("intermediate-spot", worst <= eps * n * n, witness,
                       eps * n * n - worst, exhaustive=False)


def edge_count_scan(g: DiGraph, S, T) -> int:
    """e(S, T) by a scan over every edge; ids outside the graph match nothing."""
    S, T = set(S), set(T)
    return sum(1 for (u, v) in g.edges if u in S and v in T)


def density_scan(g: DiGraph, S, T) -> Fraction:
    S, T = set(S), set(T)
    if not S or not T:
        raise EmptyBlockError("density undefined for an empty block")
    return Fraction(edge_count_scan(g, S, T), len(S) * len(T))


def st_irregularity_scan(g: DiGraph, X, Y, S, T) -> Fraction:
    """|e(S n X, T n Y) - d(X, Y) |S n X| |T n Y||."""
    X, Y = set(X), set(Y)
    sx, ty = set(S) & X, set(T) & Y
    return abs(edge_count_scan(g, sx, ty) - density_scan(g, X, Y) * len(sx) * len(ty))


def partition_st_irregularity_scan(g: DiGraph, p: VertexPartition, S, T) -> Fraction:
    return sum((st_irregularity_scan(g, a, b, S, T) for a in p.parts for b in p.parts),
               Fraction(0))


def mean_square_density_scan(g: DiGraph, p: VertexPartition) -> Fraction:
    total = sum((density_scan(g, a, b) ** 2 * len(a) * len(b)
                 for a in p.parts for b in p.parts), Fraction(0))
    return total / (p.n * p.n)


def delta_st(g: DiGraph, predictor: Predictor, S, T) -> Fraction:
    """sum over pairs h in S x T of (true - predicted) positive mass."""
    total = Fraction(0)
    edges = g.edges
    for u in set(S):
        for v in set(T):
            truth = Fraction(1 if (u, v) in edges else 0)
            total += truth - exactify(predictor.value(pair_id(u, v)).p_one())
    return total


def delta_st_level(g: DiGraph, predictor: Predictor, S, T, level) -> Fraction:
    """The same sum restricted to pairs predicted exactly `level`."""
    lv = exactify(level)
    total = Fraction(0)
    edges = g.edges
    for u in set(S):
        for v in set(T):
            pv = exactify(predictor.value(pair_id(u, v)).p_one())
            if pv == lv:
                total += Fraction(1 if (u, v) in edges else 0) - pv
    return total


def _mask_to_set(mask: int, universe) -> tuple:
    return tuple(u for i, u in enumerate(universe) if (mask >> i) & 1)


def irregularity_bruteforce(g: DiGraph, X, Y) -> Fraction:
    """Literal double enumeration over all S, T; the oracle for `irregularity`."""
    X, Y = sorted(set(X)), sorted(set(Y))
    if max(len(X), len(Y)) > 6:
        raise EnumerationLimitError("brute-force irregularity capped at 6+6 vertices")
    e_xy = edge_count_scan(g, X, Y)
    scale = len(X) * len(Y)
    best = 0
    for ms in range(1 << len(X)):
        S = _mask_to_set(ms, X)
        for mt in range(1 << len(Y)):
            T = _mask_to_set(mt, Y)
            v = abs(edge_count_scan(g, S, T) * scale - e_xy * len(S) * len(T))
            if v > best:
                best = v
    return Fraction(best, scale)


def max_st_irregularity_sigma_enum(g: DiGraph, p: VertexPartition) -> Fraction:
    """Literal enumeration of all sign patterns sigma over block pairs,
    maximizing the cut value of the sigma-signed residual matrix.  Equals
    `max_st_irregularity` because the maximizing sigma is the sign pattern
    of the restricted block residuals.  The 2^(m^2) loop is capped at
    m = 3 parts.
    """
    m = p.size
    if m > 3:
        raise EnumerationLimitError("sigma enumeration capped at 3 parts")
    n = p.n
    block = p.block_of()
    dens = [[density_scan(g, a, b) for b in p.parts] for a in p.parts]
    residual = [[Fraction(int((u, v) in g.edges)) - dens[block[u]][block[v]]
                 for v in range(n)] for u in range(n)]
    best = Fraction(0)
    for bits in range(1 << (m * m)):
        signed = [[residual[u][v] *
                   (1 if (bits >> (block[u] * m + block[v])) & 1 else -1)
                   for v in range(n)] for u in range(n)]
        _, _, val = cut_oracle(signed, mode="exact")
        if val > best:
            best = val
    return best


# The partition scan as it was before it moved onto the grid of its parts'
# local T-masks: per block pair a "full" scored table, or the "rows" table
# whose columns each T-chunk builds and scores again, both through a float64
# BLAS product checked exact below 2^53.

_CHUNK = 512  # masks per vectorized block of an enumeration loop


def _mask_bits(masks: np.ndarray, width: int) -> np.ndarray:
    """out[c, i] = bit c of masks[i]; a width x len(masks) 0/1 table."""
    return np.stack([(masks >> c) & 1 for c in range(width)], axis=0)


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matmul routed through BLAS; exact because every partial
    sum is below max|a| max|b| * (inner dimension) < 2^53, checked here."""
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[-1]
    if bound >= 1 << 53:
        raise InternalInvariantError(f"integer matmul bound {bound} exceeds 2^53")
    out = a.astype(np.float64) @ b.astype(np.float64)
    return np.rint(out).astype(np.int64)


def _pair_tables(adj: np.ndarray, p: VertexPartition, e_blocks: np.ndarray, score):
    """Per part pair (j, k): the scored table over (local S_j-mask, local
    (T n V_k)-mask) when it has at most 2^22 entries, else the e(S_j, {v})
    row table, whose columns each T-chunk builds and scores itself.

    Full tables are scored in row blocks of at most 2^18 entries, so the
    score's temporaries stay small.
    """
    parts = p.parts
    sizes = [_popcounts(1 << len(a)) for a in parts]
    pair = {}
    for j, a in enumerate(parts):
        for k, b in enumerate(parts):
            row_table = _subset_sum_table(adj[np.ix_(a, b)])  # 2^|a| x |b|
            if len(a) + len(b) > 22:
                pair[(j, k)] = ("rows", row_table)
                continue
            colsel = _mask_bits(np.arange(1 << len(b), dtype=np.int64), len(b))
            scored = np.empty((1 << len(a), 1 << len(b)), dtype=np.int64)
            step = max(1, (1 << 18) >> len(b))
            for r in range(0, 1 << len(a), step):
                st = sizes[j][r:r + step, None] * sizes[k][None, :]
                scored[r:r + step] = score(_int_matmul(row_table[r:r + step], colsel), st,
                                           len(a) * len(b), e_blocks[j, k])
            pair[(j, k)] = ("full", scored)
    return sizes, pair


def partition_scan_pair_tables(g: DiGraph, p: VertexPartition, score):
    """(best, S, T) maximizing sum_j max_{S_j in V_j} sum_k score(...) over T.

    `score(cols, st, size, e)` maps the e(S_j, T n V_k) table of one block
    pair (local S_j-mask x T-mask), its |S_j||T n V_k| products, |V_j||V_k|
    and e(V_j, V_k) to a nonnegative integer table, elementwise.  T-masks
    are scanned in chunks; the first maximizing T wins, and within it the
    first best S_j.
    """
    n = p.n
    parts = p.parts
    m = p.size
    e_blocks, _, _ = _block_edges(g, p)
    sizes, pair = _pair_tables(g.adjacency(), p, e_blocks, score)
    t_masks = np.arange(1 << n, dtype=np.int64)
    sub_idx = [sum(((t_masks >> v) & 1) << bit for bit, v in enumerate(part))
               for part in parts]  # per part k: local index of T n V_k
    chunk = min(_CHUNK, max(64, (1 << 22) // max(1 << len(a) for a in parts)))
    best_val = -1
    best = None
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        width = stop - start
        total = np.zeros(width, dtype=np.int64)
        arg_a = np.zeros((m, width), dtype=np.int64)
        for j in range(m):
            acc = np.zeros(((1 << len(parts[j])), width), dtype=np.int64)
            for k in range(m):
                b_idx = sub_idx[k][start:stop]
                kind, table = pair[(j, k)]
                if kind == "full":
                    acc += table[:, b_idx]
                    continue
                cols = _int_matmul(table, _mask_bits(b_idx, len(parts[k])))
                st = sizes[j][:, None] * sizes[k][b_idx][None, :]
                acc += score(cols, st, len(parts[j]) * len(parts[k]), e_blocks[j, k])
            arg_a[j] = acc.argmax(axis=0)
            total += acc.max(axis=0)
        i = int(total.argmax())
        if total[i] > best_val:
            best_val = int(total[i])
            t_mask = start + i
            s_set = []
            for j in range(m):
                s_set.extend(_mask_to_set(int(arg_a[j][i]), parts[j]))
            best = (tuple(sorted(s_set)), _mask_to_set(t_mask, list(range(n))))
    return best_val, best[0], best[1]


# The scans that `_mask_sums` replaced, kept whole: each holds every T-mask
# (or, for the regular pair, every (S, T) pair of a chunk of S-masks) at once.


def cut_norm_unchunked(mat: np.ndarray):
    """`_cut_norm` with the positive and negative totals of every column mask
    accumulated over blocks of rows: the first maximizing T, its sign
    (+ on a tie) and the rows of that sign."""
    n_rows, n_cols = mat.shape
    pos = np.zeros(1 << n_cols, dtype=np.int64)
    neg = np.zeros(1 << n_cols, dtype=np.int64)
    step = max(1, (1 << 20) >> n_cols)
    for start in range(0, n_rows, step):
        sums = _subset_sum_table(mat[start:start + step].T)  # T-mask x row
        pos += np.maximum(sums, 0).sum(axis=1)
        neg += np.maximum(-sums, 0).sum(axis=1)
    best = np.maximum(pos, neg)
    t_mask = int(best.argmax())
    sign = 1 if pos[t_mask] >= neg[t_mask] else -1
    T = _mask_to_set(t_mask, range(n_cols))
    S = tuple(np.nonzero(sign * mat[:, list(T)].sum(axis=1) > 0)[0].tolist())
    return int(best[t_mask]), S, T


def one_part_scan_unchunked(adj: np.ndarray, eps: Fraction):
    """(mass, S-mask, T-mask) of the one-part intermediate check (the
    `_extreme_scan` of adj) on the whole 2^n x n table of counts e({v}, T)."""
    n = adj.shape[0]
    size = n * n
    e_all = int(adj.sum())
    score = _violating_mass(eps)
    bits = _mask_bits(np.arange(1 << n, dtype=np.int64), n).T  # mask x vertex
    counts = np.sort(_int_matmul(bits, adj.T), axis=1)  # row T: c_v ascending
    zero = np.zeros((1 << n, 1), dtype=np.int64)
    low = np.concatenate([zero, np.cumsum(counts, axis=1)], axis=1)  # s smallest
    high = np.concatenate([zero, np.cumsum(counts[:, ::-1], axis=1)], axis=1)  # s largest
    pops = bits.sum(axis=1)
    st = pops[:, None] * np.arange(n + 1)  # |T| s for every T and s = 0..n
    mass = np.maximum(score(low, st, size, e_all), score(high, st, size, e_all)).max(axis=1)
    t_mask = int(mass.argmax())
    e_s = _int_matmul(bits, adj[:, bits[t_mask] == 1].sum(axis=1))  # e(S, T) per S-mask
    s_mask = int(score(e_s, pops * pops[t_mask], size, e_all).argmax())
    return int(mass[t_mask]), s_mask, t_mask


def check_regular_pair_bruteforce(g: DiGraph, X, Y, epsilon, chunk: int = 64):
    """`check_regular_pair` by scoring every (S, T) pair, a chunk of S-masks
    at a time; the witness is the first violating pair in row-major order."""
    X, Y = sorted(set(X)), sorted(set(Y))
    eps = exactify(epsilon)
    if eps >= 1 or not X or not Y:
        return True, None
    pn, pd = eps.numerator, eps.denominator
    mat = g.adjacency()[np.ix_(X, Y)]
    e_xy = int(mat.sum())
    nx, ny = len(X), len(Y)
    score = _violating_mass(eps)
    table = _subset_sum_table(mat)  # e(S, {col}) for every S-mask
    s_sizes = _popcounts(1 << nx)
    t_sizes = _popcounts(1 << ny)
    s_ok = np.array([s * pd >= pn * nx for s in range(nx + 1)])[s_sizes]
    t_ok = np.array([t * pd >= pn * ny for t in range(ny + 1)])[t_sizes]
    colsel = _mask_bits(np.arange(1 << ny, dtype=np.int64), ny)  # ny x 2^ny
    for start in range(0, 1 << nx, chunk):
        stop = min(start + chunk, 1 << nx)
        e_all = _int_matmul(table[start:stop], colsel)  # chunk x 2^ny
        st = s_sizes[start:stop, None] * t_sizes[None, :]
        viol = ((score(e_all, st, nx * ny, e_xy) > 0)
                & s_ok[start:stop, None] & t_ok[None, :])
        if viol.any():
            si, ti = np.argwhere(viol)[0]
            return False, (_mask_to_set(start + int(si), X), _mask_to_set(int(ti), Y))
    return True, None


def random_instance_scalar_oracle(rng, n_individuals, n_outcomes=2, n_hypotheses=3,
                                  binary_hypotheses=True, complement_closed=False,
                                  weight_denominator=16):
    """`random_instance` drawn one generator call per row or value, with one
    OutcomeDist and one Fraction per individual."""
    if n_individuals < 1:
        raise DomainError("a random instance needs at least one individual")
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


def dist_from_json_oracle(space, doc):
    """One distribution read and validated on its own."""
    if not isinstance(doc, dict) or not doc.keys() <= set(space.labels):
        raise InputError(f"a distribution maps outcomes of {list(space.labels)} to "
                         f"weights, not {doc!r}")
    return OutcomeDist.from_mapping(space, {o: parse_number(v) for o, v in doc.items()})


def instance_from_json_oracle(doc):
    """`instance_from_json` reading every number, distribution and
    hypothesis value on its own, with nothing shared between individuals."""
    try:
        space = OutcomeSpace(tuple(doc["outcomes"]))
        ids = tuple(ind["id"] for ind in doc["individuals"])
        weight = {ind["id"]: parse_number(ind["weight"]) for ind in doc["individuals"]}
        p_true = {ind["id"]: dist_from_json_oracle(space, ind["p_true"])
                  for ind in doc["individuals"]}
        pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
        cls = None
        if doc.get("hypotheses"):
            hyps = []
            for h in doc["hypotheses"]:
                rng = tuple(_value_token(v) for v in h["range"])
                values = {j: _value_token(v)
                          for j, v in _object(h["values"], "hypothesis values").items()}
                missing = [j for j in ids if j not in values]
                if missing:
                    raise InputError(f"hypothesis {h['name']!r} has no value for "
                                     f"individuals {missing[:5]}")
                hyps.append(Hypothesis(h["name"], rng, values))
            cls = HypothesisClass(tuple(hyps),
                                  closed_under_complement=doc.get("closed_under_complement",
                                                                  False))
        predictor = None
        if doc.get("predictor"):
            predictor = Predictor({j: dist_from_json_oracle(space, d)
                                   for j, d in _object(doc["predictor"], "a predictor").items()})
        return pop, cls, predictor
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed instance document: {e}") from None


def instance_to_json_oracle(pop, cls=None, predictor=None):
    """`instance_to_json` formatting every individual's values on its own."""
    doc = {
        "outcomes": [str(o) for o in pop.space.labels],
        "individuals": [
            {
                "id": str(j),
                "weight": number_to_string(Fraction(pop.weight[j])),
                "p_true": dist_to_json(pop.p_true[j]),
            }
            for j in pop.ids
        ],
    }
    if cls is not None:
        doc["hypotheses"] = [
            {
                "name": h.name,
                "range": [number_to_string(v) if isinstance(v, (int, Fraction)) else str(v)
                          for v in h.range_values],
                "values": {str(j): number_to_string(v) if isinstance(v, (int, Fraction))
                           else str(v) for j, v in h.values.items()},
            }
            for h in cls.hypotheses
        ]
        doc["closed_under_complement"] = cls.closed_under_complement
    if predictor is not None:
        doc["predictor"] = {str(j): dist_to_json(d) for j, d in predictor.values.items()}
    return doc
