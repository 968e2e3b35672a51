"""Directed-graph regularity: statistics, checkers, refinement, correspondence.

For vertex sets S, T the edge count e(S, T) and density d(S, T) =
e(S, T)/(|S||T|) drive three nested regularity notions for a partition
P = {V_1..V_m} of the vertices:

  Frieze-Kannan:  |e(S,T) - sum_jk d(V_j,V_k)|S n V_j||T n V_k|| <= eps n^2
                  for all S, T                          (one global bound)
  intermediate:   for all S, T, the combined mass |S n V_j||T n V_k| of
                  block pairs whose (S,T)-restricted density strays from
                  d(V_j,V_k) by more than eps is at most eps n^2
  Szemeredi:      the mass of pairs that are not eps-regular (all large
                  sub-blocks have close density) is at most eps n^2

All checkers are exact over the rationals: comparisons are performed on
integer-scaled quantities, never on floats.  An eps test |r| > eps x size
on an integer r is read off an integer threshold table built in Python
ints (`_eps_thresholds`), so a float eps, whose exact denominator is near
2^54, never enters an int64 product.  Every exact check enumerates T and
maximizes over S in closed form, in one of three kernels.  `_cut_norm`
maximizes |sum_{S x T} M| for the residual matrices of pair irregularity,
the Frieze-Kannan check and the exact cut oracle.  `_partition_scan` uses
that for a fixed T the objective decomposes across parts, so the 4^n
double enumeration collapses to a 2^n scan with an exact maximization per
part; the intermediate check and the (S,T)-irregularity maximizer differ
only in the per-block score they pass to it, and a block pair small enough
to tabulate whole is scored once per scan.  `_one_part_scan` is the
intermediate check on a one-part partition: for a fixed T the extreme
values of e(S, T) over |S| = s are sums of the s smallest and s largest
column counts, so sorting those counts decides every S at once.

The cut oracle stands in for the semidefinite-programming subroutine of
the partition-refinement algorithm.  Its exact mode is `_cut_norm`; its
alternating mode, for larger instances, climbs to a local optimum of the
bilinear form and carries no approximation guarantee.

Refinement repeatedly finds the (S, T) maximizing the partition's
(S,T)-irregularity and, while that exceeds eps n^2 / 2, replaces P by the
common refinement of S, T, and P.  Each accepted step raises the
mean-square block density by at least (irregularity / n^2)^2 > eps^2 / 4,
an exact rational inequality asserted at runtime, so at most 4/eps^2
refinements can ever happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import OutcomeDist, binary_space, exactify
from .errors import (
    DomainError,
    EmptyBlockError,
    EnumerationLimitError,
    InternalInvariantError,
    StructuralFailureError,
)
from .population import Hypothesis, HypothesisClass, PopulationInstance, Predictor

IRREGULARITY_ENUM_LIMIT = 22
REGULAR_PAIR_LIMIT = 14
FK_LIMIT = 20
INTERMEDIATE_LIMIT = 14
CUT_ORACLE_LIMIT = 20
RECTANGLE_CLASS_LIMIT = 6
_CHUNK = 512  # masks per vectorized block of an enumeration loop


@dataclass(frozen=True)
class DiGraph:
    n: int
    edges: frozenset  # ordered pairs (u, v); loops permitted

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u},{v}) outside vertex range [0,{self.n})")

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
        return a

    @classmethod
    def complete(cls, n: int, loops: bool = True) -> "DiGraph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(n)
                                if loops or u != v))

    @classmethod
    def empty(cls, n: int) -> "DiGraph":
        return cls(n, frozenset())


def random_digraph(rng: np.random.Generator, n: int, p: float = 0.5,
                   loops: bool = False) -> DiGraph:
    mat = rng.random((n, n)) < p
    if not loops:
        np.fill_diagonal(mat, False)
    return DiGraph(n, frozenset(map(tuple, np.argwhere(mat).tolist())))


@dataclass(frozen=True)
class VertexPartition:
    parts: tuple  # tuple of sorted vertex tuples; disjoint, covering, nonempty

    def __post_init__(self):
        parts = tuple(tuple(sorted(int(v) for v in p)) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        seen = set()
        for p in parts:
            if not p:
                raise DomainError("partition parts must be nonempty")
            if seen & set(p):
                raise DomainError("partition parts must be disjoint")
            seen |= set(p)
        if seen != set(range(max(seen) + 1)) or min(seen) != 0:
            raise DomainError("partition must cover 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def size(self) -> int:
        return len(self.parts)

    @classmethod
    def trivial(cls, n: int) -> "VertexPartition":
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "VertexPartition":
        return cls(tuple((v,) for v in range(n)))

    def block_of(self) -> list:
        out = [0] * self.n
        for i, p in enumerate(self.parts):
            for v in p:
                out[v] = i
        return out


# ---------------------------------------------------------------------------
# Edge statistics
# ---------------------------------------------------------------------------


def edge_count(g: DiGraph, S, T) -> int:
    S, T = set(S), set(T)
    return sum(1 for (u, v) in g.edges if u in S and v in T)


def _block_edges(adj: np.ndarray, p: VertexPartition) -> np.ndarray:
    """e(V_j, V_k) for every part pair of p, as an m x m array."""
    return np.array([[adj[np.ix_(a, b)].sum() for b in p.parts] for a in p.parts],
                    dtype=np.int64)


def density(g: DiGraph, S, T) -> Fraction:
    S, T = set(S), set(T)
    if not S or not T:
        raise EmptyBlockError("density undefined for an empty block")
    return Fraction(edge_count(g, S, T), len(S) * len(T))


@dataclass(frozen=True)
class EdgeStats:
    count: int
    density: Fraction | None  # None when a side is empty


def edge_stats(g: DiGraph, S, T) -> EdgeStats:
    c = edge_count(g, S, T)
    S, T = set(S), set(T)
    if not S or not T:
        return EdgeStats(count=c, density=None)
    return EdgeStats(count=c, density=Fraction(c, len(S) * len(T)))


def st_irregularity(g: DiGraph, X, Y, S, T) -> Fraction:
    """|e(S n X, T n Y) - d(X, Y) |S n X| |T n Y||, exactly."""
    X, Y = set(X), set(Y)
    if not X or not Y:
        raise EmptyBlockError("irregularity undefined for an empty block")
    sx, ty = set(S) & X, set(T) & Y
    e_xy = edge_count(g, X, Y)
    e_st = edge_count(g, sx, ty)
    return abs(Fraction(e_st * len(X) * len(Y) - e_xy * len(sx) * len(ty),
                        len(X) * len(Y)))


# ---------------------------------------------------------------------------
# Subset-sum tables
# ---------------------------------------------------------------------------


def _subset_sum_table(rows: np.ndarray) -> np.ndarray:
    """out[mask, c] = sum of rows[i, c] over i in mask; 2^len(rows) rows."""
    out = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for r in rows:
        out = np.concatenate([out, out + r])
    return out


def _popcounts(n_masks: int) -> np.ndarray:
    out = np.zeros(n_masks, dtype=np.int64)
    for b in range(max(n_masks - 1, 0).bit_length()):
        out += (np.arange(n_masks) >> b) & 1
    return out


def _mask_to_set(mask: int, universe) -> tuple:
    return tuple(universe[i] for i in range(len(universe)) if (mask >> i) & 1)


def _mask_bits(masks: np.ndarray, width: int) -> np.ndarray:
    """out[c, i] = bit c of masks[i]; a width x len(masks) 0/1 table."""
    return np.stack([(masks >> c) & 1 for c in range(width)], axis=0)


def _eps_thresholds(eps: Fraction, size: int) -> np.ndarray:
    """thr[x] = floor(eps x size), clamped to [-1, size^2], for x = 0..size.

    An integer r in [0, size^2] exceeds eps x size exactly when r > thr[x].
    The table is built in Python ints, so no int64 product involves eps's
    numerator or denominator.
    """
    pn, pd = eps.numerator, eps.denominator
    return np.array([max(-1, min(pn * x * size // pd, size * size)) for x in range(size + 1)],
                    dtype=np.int64)


def _cut_norm(mat: np.ndarray):
    """(value, S, T) maximizing |sum_{S x T} mat| over row sets S and column
    sets T of an integer matrix, exactly.

    Column masks T are enumerated in increasing order while the positive
    and negative row sums over each T accumulate a block of rows at a time
    (at most 2^20 sums, or one row), so memory stays O(2^cols) instead of
    O(rows 2^cols).  The first maximizing T wins, the sign is +
    when the positive total is at least the negative one, and S is the rows
    whose sum over T has that sign strictly.
    """
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


# ---------------------------------------------------------------------------
# Irregularity of a pair
# ---------------------------------------------------------------------------


def irregularity(g: DiGraph, X, Y, want_witness: bool = False):
    """max over S in X, T in Y of |e(S,T) - d(X,Y)|S||T||, exactly.

    The cut norm of the scaled residual adj|X||Y| - e(X,Y) on X x Y, with
    the smaller side enumerated; that side is capped at 22 elements.
    """
    X, Y = sorted(set(X)), sorted(set(Y))
    if not X or not Y:
        raise EmptyBlockError("irregularity undefined for an empty block")
    if min(len(X), len(Y)) > IRREGULARITY_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"both sides exceed {IRREGULARITY_ENUM_LIMIT}; exact irregularity refused")
    swap = len(Y) < len(X)
    small, large = (Y, X) if swap else (X, Y)
    if (1 << len(small)) * len(large) > (1 << 27):
        raise EnumerationLimitError("irregularity table exceeds the memory guard")
    scale = len(X) * len(Y)
    resid = g.adjacency()[np.ix_(X, Y)] * scale - edge_count(g, X, Y)
    best, rows, cols = _cut_norm(resid if swap else resid.T)
    value = Fraction(best, scale)
    if not want_witness:
        return value
    on_small, on_large = [small[i] for i in cols], [large[i] for i in rows]
    S, T = (on_large, on_small) if swap else (on_small, on_large)
    return value, (tuple(S), tuple(T))


def irregularity_bruteforce(g: DiGraph, X, Y) -> Fraction:
    """Literal double enumeration over all S, T; the oracle for `irregularity`."""
    X, Y = sorted(set(X)), sorted(set(Y))
    if max(len(X), len(Y)) > 6:
        raise EnumerationLimitError("brute-force irregularity capped at 6+6 vertices")
    e_xy = edge_count(g, X, Y)
    scale = len(X) * len(Y)
    best = 0
    for ms in range(1 << len(X)):
        S = _mask_to_set(ms, X)
        for mt in range(1 << len(Y)):
            T = _mask_to_set(mt, Y)
            v = abs(edge_count(g, S, T) * scale - e_xy * len(S) * len(T))
            if v > best:
                best = v
    return Fraction(best, scale)


def partition_irregularity(g: DiGraph, p: VertexPartition) -> Fraction:
    return sum((irregularity(g, a, b) for a in p.parts for b in p.parts), Fraction(0))


def partition_st_irregularity(g: DiGraph, p: VertexPartition, S, T) -> Fraction:
    return sum((st_irregularity(g, a, b, S, T) for a in p.parts for b in p.parts),
               Fraction(0))


# ---------------------------------------------------------------------------
# Pairwise regularity and the Szemeredi checker
# ---------------------------------------------------------------------------


def check_regular_pair(g: DiGraph, X, Y, epsilon):
    """Is (X, Y) eps-regular: |d(S,T) - d(X,Y)| <= eps whenever |S| >= eps|X|
    and |T| >= eps|Y|?  Exact; returns (bool, witness-or-None)."""
    X, Y = sorted(set(X)), sorted(set(Y))
    if max(len(X), len(Y)) > REGULAR_PAIR_LIMIT:
        raise EnumerationLimitError(f"regular-pair check capped at {REGULAR_PAIR_LIMIT}")
    eps = exactify(epsilon)
    if eps >= 1:
        return True, None
    pn, pd = eps.numerator, eps.denominator
    mat = g.adjacency()[np.ix_(X, Y)]
    e_xy = int(mat.sum())
    nx, ny = len(X), len(Y)
    size = nx * ny
    thr = _eps_thresholds(eps, size)
    table = _subset_sum_table(mat)  # e(S, {col}) for every S-mask
    s_sizes = _popcounts(1 << nx)
    t_sizes = _popcounts(1 << ny)
    # |S| >= eps |X| and |T| >= eps |Y|, decided per size in Python ints
    s_ok = np.array([s * pd >= pn * nx for s in range(nx + 1)])[s_sizes]
    t_ok = np.array([t * pd >= pn * ny for t in range(ny + 1)])[t_sizes]
    colsel = _mask_bits(np.arange(1 << ny, dtype=np.int64), ny)  # ny x 2^ny
    for start in range(0, 1 << nx, _CHUNK):
        stop = min(start + _CHUNK, 1 << nx)
        e_all = _int_matmul(table[start:stop], colsel)  # chunk x 2^ny
        st = s_sizes[start:stop, None] * t_sizes[None, :]
        viol = ((np.abs(e_all * size - e_xy * st) > thr[st])
                & s_ok[start:stop, None] & t_ok[None, :])
        if viol.any():
            si, ti = np.argwhere(viol)[0]
            return False, (_mask_to_set(start + int(si), X), _mask_to_set(int(ti), Y))
    return True, None


@dataclass
class CheckReport:
    kind: str
    passed: bool
    witness: object
    slack: Fraction  # eps n^2 minus the worst offending quantity (negative on fail)
    exhaustive: bool = True


def check_szemeredi(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """Mass of non-eps-regular part pairs at most eps n^2; exact."""
    eps = exactify(epsilon)
    n = p.n
    bad_mass = 0
    witness = []
    for a in p.parts:
        for b in p.parts:
            ok, w = check_regular_pair(g, a, b, eps)
            if not ok:
                bad_mass += len(a) * len(b)
                witness.append((a, b, w))
    slack = eps * n * n - bad_mass
    return CheckReport("szemeredi", bad_mass <= eps * n * n, witness or None, slack)


# ---------------------------------------------------------------------------
# Frieze-Kannan checker
# ---------------------------------------------------------------------------


def _pair_scale(p: VertexPartition) -> int:
    scale = 1
    for a in p.parts:
        for b in p.parts:
            prod = len(a) * len(b)
            scale = scale * prod // math.gcd(scale, prod)
    return scale


def check_frieze_kannan(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """max_{S,T} |e(S,T) - sum_jk d_jk |S n V_j||T n V_k|| <= eps n^2; exact.

    The cut norm of the residual adjacency minus block density, scaled by
    the common block-size denominator L.
    """
    n = p.n
    if n > FK_LIMIT:
        raise EnumerationLimitError(f"exact Frieze-Kannan check capped at {FK_LIMIT}")
    eps = exactify(epsilon)
    L = _pair_scale(p)
    if L * n * n > (1 << 60):
        raise EnumerationLimitError("block-size denominators too large for exact scan")
    adj = g.adjacency()[:n, :n]
    sizes = np.array([len(a) for a in p.parts], dtype=np.int64)
    d_scaled = _block_edges(adj, p) * (L // np.outer(sizes, sizes))
    block = p.block_of()
    best, S, T = _cut_norm(adj * L - d_scaled[np.ix_(block, block)])
    value = Fraction(best, L)
    passed = value <= eps * n * n
    return CheckReport("frieze-kannan", passed, (S, T), eps * n * n - value)


# ---------------------------------------------------------------------------
# Intermediate checker and the (S,T)-irregularity maximizer
# ---------------------------------------------------------------------------


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


def _partition_scan(g: DiGraph, p: VertexPartition, score):
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
    adj = g.adjacency()
    e_blocks = _block_edges(adj, p)
    sizes, pair = _pair_tables(adj, p, e_blocks, score)
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


def _violating_mass(eps: Fraction):
    """The intermediate check's score: |S_j||T n V_k| where the restricted
    density strays from d(V_j, V_k) by more than eps, else 0."""
    thresholds = {}

    def score(cols, st, size, e):
        if size not in thresholds:
            thresholds[size] = _eps_thresholds(eps, size)
        return np.where(np.abs(cols * size - e * st) > thresholds[size][st], st, 0)
    return score


def _one_part_scan(adj: np.ndarray, eps: Fraction):
    """`_partition_scan` with `_violating_mass(eps)` on the one-part
    partition of the vertices of the n x n matrix adj, in O(2^n n log n).

    For a fixed T write c_v = e({v}, T).  Over |S| = s, e(S, T) ranges
    between the sums of the s smallest and the s largest c_v, and the test
    |e n^2 - E s t| > eps s t n^2 is convex in e, so a violating S of size s
    exists exactly when one of those two sums violates.  T's mass is t
    times the largest such s.  The first T of largest mass wins; for it
    alone the e(S, T) table over S-masks yields the first S-mask of largest
    score, as `_partition_scan` would pick.
    """
    n = adj.shape[0]
    size = n * n
    e_all = int(adj.sum())
    thr = _eps_thresholds(eps, size)
    bits = _mask_bits(np.arange(1 << n, dtype=np.int64), n).T  # mask x vertex
    counts = np.sort(_int_matmul(bits, adj.T), axis=1)  # row T: c_v ascending
    zero = np.zeros((1 << n, 1), dtype=np.int64)
    low = np.concatenate([zero, np.cumsum(counts, axis=1)], axis=1)  # s smallest
    high = np.concatenate([zero, np.cumsum(counts[:, ::-1], axis=1)], axis=1)  # s largest
    pops = bits.sum(axis=1)
    st = pops[:, None] * np.arange(n + 1)  # |T| s for every T and s = 0..n
    lim = thr[st]
    viol = (np.abs(low * size - e_all * st) > lim) | (np.abs(high * size - e_all * st) > lim)
    mass = np.where(viol, st, 0).max(axis=1)
    t_mask = int(mass.argmax())
    e_s = _int_matmul(bits, adj[:, bits[t_mask] == 1].sum(axis=1))  # e(S, T) per S-mask
    st_s = pops * pops[t_mask]
    s_mask = int(np.where(np.abs(e_s * size - e_all * st_s) > thr[st_s], st_s, 0).argmax())
    universe = list(range(n))
    return int(mass[t_mask]), _mask_to_set(s_mask, universe), _mask_to_set(t_mask, universe)


def max_st_irregularity(g: DiGraph, p: VertexPartition):
    """(value, S, T) maximizing sum_jk |e(S n V_j, T n V_k) - d_jk |S n V_j||T n V_k||.

    Exact: a partition scan with the absolute block residual as score.
    """
    n = p.n
    if n > FK_LIMIT:
        raise EnumerationLimitError(f"exact irregularity search capped at {FK_LIMIT}")
    if p.size == 1:
        value, (S, T) = irregularity(g, p.parts[0], p.parts[0], want_witness=True)
        return value, S, T
    L = _pair_scale(p)
    if L * n * n > (1 << 59):
        raise EnumerationLimitError("block-size denominators too large for exact scan")
    best, S, T = _partition_scan(
        g, p, lambda cols, st, size, e: np.abs(cols * L - e * (L // size) * st))
    return Fraction(best, L), S, T


def max_st_irregularity_sigma_enum(g: DiGraph, p: VertexPartition):
    """Validation mode: literal enumeration of all sign patterns sigma over
    block pairs, maximizing the cut value of the sigma-signed residual
    matrix.  Equals `max_st_irregularity` because the maximizing sigma is
    the sign pattern of the restricted block residuals.  Kept small: the
    2^(m^2) loop is capped at m = 3 parts.
    """
    m = p.size
    if m > 3:
        raise EnumerationLimitError("sigma enumeration capped at 3 parts")
    n = p.n
    block = p.block_of()
    dens = {}
    for j, a in enumerate(p.parts):
        for k, b in enumerate(p.parts):
            dens[(j, k)] = density(g, a, b)
    adj = g.adjacency()
    residual = [[exactify(int(adj[u, v])) - dens[(block[u], block[v])]
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


def check_intermediate(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """For all S, T: mass of block pairs that are not (S,T,eps)-regular is
    at most eps n^2.

    Exact.  A one-part partition takes the sorted-count closed form of
    `_one_part_scan`; any other takes `_partition_scan` with the violating
    mass as score.  Both compare against integer threshold tables, so a
    float eps is decided exactly too.  The witness is the first T-mask of
    largest mass and, within it, the first S-mask of largest score.
    """
    n = p.n
    if n > INTERMEDIATE_LIMIT:
        raise EnumerationLimitError(f"exact intermediate check capped at {INTERMEDIATE_LIMIT}")
    eps = exactify(epsilon)
    if p.size == 1:
        best_val, S, T = _one_part_scan(g.adjacency()[:n, :n], eps)
    else:
        best_val, S, T = _partition_scan(g, p, _violating_mass(eps))
    passed = best_val * eps.denominator <= eps.numerator * n * n
    return CheckReport("intermediate", passed, (S, T), eps * n * n - best_val)


def spot_check_intermediate(g: DiGraph, p: VertexPartition, epsilon,
                            rng: np.random.Generator, samples: int = 2000) -> CheckReport:
    """Randomized, non-exhaustive intermediate check for larger graphs."""
    n = p.n
    eps = exactify(epsilon)
    worst = Fraction(0)
    witness = None
    for _ in range(samples):
        s_mask = int(rng.integers(0, 1 << min(n, 62)))
        t_mask = int(rng.integers(0, 1 << min(n, 62)))
        S = _mask_to_set(s_mask, list(range(n)))
        T = _mask_to_set(t_mask, list(range(n)))
        mass = 0
        for a in p.parts:
            for b in p.parts:
                sa = set(S) & set(a)
                tb = set(T) & set(b)
                if not sa or not tb:
                    continue
                gap = abs(density(g, sa, tb) - density(g, a, b))
                if gap > eps:
                    mass += len(sa) * len(tb)
        if mass > worst:
            worst = Fraction(mass)
            witness = (S, T)
    return CheckReport("intermediate-spot", worst <= eps * n * n, witness,
                       eps * n * n - worst, exhaustive=False)


# ---------------------------------------------------------------------------
# Cut oracle
# ---------------------------------------------------------------------------


def _scale_matrix(m_rows):
    """Integer-scale a rational matrix; returns (int64 array, denominator)."""
    fr = [[exactify(x) for x in row] for row in m_rows]
    den = 1
    for row in fr:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    arr = np.array([[int(x * den) for x in row] for row in fr], dtype=np.int64)
    return arr, den


def cut_oracle(m_rows, mode: str = "exact", rng: np.random.Generator | None = None):
    """(S, T, value) for |sum_{S x T} M| over row sets S and column sets T.

    Exact mode attains the maximum: it is `_cut_norm` on the integer-scaled
    matrix, capped at 20 columns.  Alternating mode climbs to a local
    optimum of the bilinear form from a few starts; it guarantees no
    fraction of the maximum.
    """
    m_list = [list(r) for r in m_rows]
    n_rows = len(m_list)
    n_cols = len(m_list[0]) if n_rows else 0
    if mode == "exact":
        if n_cols > CUT_ORACLE_LIMIT:
            raise EnumerationLimitError(f"exact cut oracle capped at {CUT_ORACLE_LIMIT} columns")
        arr, den = _scale_matrix(m_list)
        best, S, T = _cut_norm(arr.reshape(n_rows, n_cols))
        return S, T, Fraction(best, den)

    if mode != "alternating":
        raise DomainError(f"unknown cut oracle mode {mode!r}")
    arr = np.array([[float(x) for x in row] for row in m_list])
    best = (0.0, (), ())

    def climb(t_vec, sign):
        t = t_vec.copy()
        for _ in range(64):
            rows = arr @ t
            s = (sign * rows > 0).astype(float)
            cols = s @ arr
            t_new = (sign * cols > 0).astype(float)
            if np.array_equal(t_new, t):
                break
            t = t_new
        rows = arr @ t
        s = (sign * rows > 0).astype(float)
        val = float(s @ arr @ t)
        return abs(val), tuple(np.nonzero(s)[0].tolist()), tuple(np.nonzero(t)[0].tolist())

    starts = [np.ones(n_cols)]
    if rng is not None:
        starts.extend((rng.random(n_cols) < 0.5).astype(float) for _ in range(4))
    for t0 in starts:
        for sign in (1, -1):
            cand = climb(t0, sign)
            if cand[0] > best[0]:
                best = cand
    S, T = best[1], best[2]
    all_exact = all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
                    for row in m_list for x in row)
    if all_exact:
        val = abs(sum((exactify(m_list[u][v]) for u in S for v in T), Fraction(0)))
    else:
        val = abs(sum(float(m_list[u][v]) for u in S for v in T))
    return S, T, val


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def mean_square_density(g: DiGraph, p: VertexPartition) -> Fraction:
    n = p.n
    total = Fraction(0)
    for a in p.parts:
        for b in p.parts:
            e = edge_count(g, a, b)
            total += Fraction(e * e, len(a) * len(b))
    return total / (n * n)


def common_refinement(p: VertexPartition, S, T) -> VertexPartition:
    S, T = set(S), set(T)
    parts = []
    for part in p.parts:
        cells = {}
        for v in part:
            key = (v in S, v in T)
            cells.setdefault(key, []).append(v)
        parts.extend(tuple(sorted(c)) for _, c in sorted(cells.items()))
    parts.sort(key=lambda c: c[0])
    return VertexPartition(tuple(parts))


@dataclass
class RefineStep:
    index: int
    witness_s: tuple
    witness_t: tuple
    st_irregularity: Fraction
    energy_before: Fraction
    energy_after: Fraction
    parts_after: int
    trigger: str = "irregularity"  # or "definition-check"


@dataclass
class RefineTranscript:
    epsilon: Fraction
    steps: list = field(default_factory=list)
    final_parts: int = 0
    oracle_mode: str = "exact"


def _find_violation(g, p, oracle_mode, rng):
    if oracle_mode == "exact":
        return max_st_irregularity(g, p)
    # alternating: climb on the sign-split bilinear form, then score exactly
    n = p.n
    block = p.block_of()
    dens = {}
    for j, a in enumerate(p.parts):
        for k, b in enumerate(p.parts):
            dens[(j, k)] = density(g, a, b)
    adj = g.adjacency()
    res = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            res[u, v] = float(adj[u, v]) - float(dens[(block[u], block[v])])
    S, T = tuple(range(n)), tuple(range(n))
    for _ in range(16):
        sigma = {}
        for j in range(p.size):
            for k in range(p.size):
                sa = set(S) & set(p.parts[j])
                tb = set(T) & set(p.parts[k])
                if sa and tb:
                    r = edge_count(g, sa, tb) - dens[(j, k)] * len(sa) * len(tb)
                    sigma[(j, k)] = 1 if r >= 0 else -1
                else:
                    sigma[(j, k)] = 1
        signed = res.copy()
        for u in range(n):
            for v in range(n):
                signed[u, v] *= sigma[(block[u], block[v])]
        S2, T2, _ = cut_oracle(signed.tolist(), mode="alternating", rng=rng)
        if (S2, T2) == (S, T):
            break
        S, T = S2, T2
    val = partition_st_irregularity(g, p, S, T)
    return val, S, T


def refine_intermediate(g: DiGraph, epsilon, oracle_mode: str = "exact",
                        rng: np.random.Generator | None = None):
    """Refine from the trivial partition until the partition is
    intermediate-eps-regular.

    The primary loop refines while some (S, T) has partition
    (S,T)-irregularity above eps n^2 / 2; each such step raises the
    mean-square density by at least (found irregularity / n^2)^2 >
    eps^2 / 4, asserted exactly.  Bounding the worst irregularity this way
    does not by itself force the definition-level regularity check, so
    once the primary loop is quiet the exact checker runs and any failing
    witness (S, T) triggers further refinement; such a witness has
    irregularity above eps^2 n^2, so the same energy argument caps those
    steps too.  Beyond the exact checker's size limit only the
    irregularity exit applies.

    Returns (partition, transcript); the transcript labels each step with
    its trigger.
    """
    eps = exactify(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    n = g.n
    p = VertexPartition.trivial(n)
    transcript = RefineTranscript(epsilon=eps, oracle_mode=oracle_mode)
    threshold = eps * n * n / 2
    max_steps = math.ceil(4 / float(eps) ** 2) + math.ceil(1 / float(eps) ** 4) + 2
    step = 0

    def apply(S, T, val, trigger):
        nonlocal p, step
        step += 1
        if step > max_steps:
            raise InternalInvariantError("refinement exceeded the energy-increment cap")
        before = mean_square_density(g, p)
        p2 = common_refinement(p, S, T)
        after = mean_square_density(g, p2)
        if after - before < (val / (n * n)) ** 2:
            raise InternalInvariantError(
                f"energy increment {after - before} below the guaranteed "
                f"{(val / (n * n)) ** 2}")
        transcript.steps.append(RefineStep(
            index=step, witness_s=S, witness_t=T, st_irregularity=val,
            energy_before=before, energy_after=after, parts_after=p2.size,
            trigger=trigger))
        p = p2

    while True:
        val, S, T = _find_violation(g, p, oracle_mode, rng)
        if val > threshold:
            apply(S, T, val, "irregularity")
            continue
        if n > INTERMEDIATE_LIMIT:
            break
        report = check_intermediate(g, p, eps)
        if report.passed:
            break
        S, T = report.witness
        val = partition_st_irregularity(g, p, S, T)
        apply(S, T, val, "definition-check")
    transcript.final_parts = p.size
    return p, transcript


def equivalence_bounds(g: DiGraph, p: VertexPartition, epsilon) -> dict:
    """Numerically verify both directions of the intermediate-regularity
    equivalence on one instance: regularity at eps bounds the worst
    (S,T)-irregularity by 2 eps n^2, and a worst irregularity of eps n^2
    forces regularity at sqrt(eps)."""
    eps = exactify(epsilon)
    n = p.n
    report = {"epsilon": eps}
    check = check_intermediate(g, p, eps)
    worst, S, T = max_st_irregularity(g, p)
    report["intermediate_pass"] = check.passed
    report["max_st_irregularity"] = worst
    if check.passed:
        if worst > 2 * eps * n * n:
            raise InternalInvariantError(
                f"equivalence forward direction violated: {worst} > 2 eps n^2")
        report["forward_verified"] = True
    if worst <= eps * n * n:
        root = rational_sqrt_upper(eps)
        converse = check_intermediate(g, p, root)
        if not converse.passed:
            raise InternalInvariantError("equivalence converse direction violated")
        report["converse_verified"] = True
        report["sqrt_epsilon_bound"] = root
    return report


def rational_sqrt_upper(x: Fraction) -> Fraction:
    """Smallest convenient rational upper bound on sqrt(x); exact when x is
    a perfect rational square."""
    num, den = x.numerator, x.denominator
    s = math.isqrt(num * den)
    if s * s == num * den:
        return Fraction(s, den)
    return Fraction(s + 1, den)


# ---------------------------------------------------------------------------
# Correspondence with population fairness
# ---------------------------------------------------------------------------


def pair_id(u: int, v: int) -> str:
    return f"{u},{v}"


def graph_to_instance(g: DiGraph) -> PopulationInstance:
    """The fairness instance of a graph: individuals are vertex pairs drawn
    uniformly, the outcome is edge membership."""
    n = g.n
    space = binary_space()
    ids = tuple(pair_id(u, v) for u in range(n) for v in range(n))
    w = Fraction(1, n * n)
    edges = g.edges
    return PopulationInstance(
        space=space,
        ids=ids,
        weight={j: w for j in ids},
        p_true={pair_id(u, v): OutcomeDist.bernoulli(Fraction(1 if (u, v) in edges else 0))
                for u in range(n) for v in range(n)},
    )


def rectangle_hypothesis(n: int, S, T, name: str | None = None) -> Hypothesis:
    S, T = set(S), set(T)
    values = {pair_id(u, v): 1 if (u in S and v in T) else 0
              for u in range(n) for v in range(n)}
    return Hypothesis(name or f"rect[{sorted(S)}x{sorted(T)}]", (0, 1), values)


def rectangle_class(g: DiGraph) -> HypothesisClass:
    """Every rectangle indicator 1_{S x T}; explicit, so capped at 6 vertices."""
    if g.n > RECTANGLE_CLASS_LIMIT:
        raise EnumerationLimitError(
            f"explicit rectangle class capped at {RECTANGLE_CLASS_LIMIT} vertices "
            f"(4^n hypotheses); use the closed-form audits beyond that")
    universe = list(range(g.n))
    hyps = []
    for ms in range(1 << g.n):
        S = _mask_to_set(ms, universe)
        for mt in range(1 << g.n):
            T = _mask_to_set(mt, universe)
            hyps.append(rectangle_hypothesis(g.n, S, T, name=f"rect[{ms},{mt}]"))
    return HypothesisClass(tuple(hyps))


def partition_to_predictor(g: DiGraph, p: VertexPartition) -> Predictor:
    """The density predictor: on V_j x V_k it outputs d(V_j, V_k)."""
    block = p.block_of()
    dens = {}
    for j, a in enumerate(p.parts):
        for k, b in enumerate(p.parts):
            dens[(j, k)] = density(g, a, b)
    values = {}
    for u in range(g.n):
        for v in range(g.n):
            values[pair_id(u, v)] = OutcomeDist.bernoulli(dens[(block[u], block[v])])
    return Predictor(values)


def predictor_to_partition(n: int, predictor: Predictor) -> VertexPartition:
    """Recover P from a predictor whose level sets are exactly the blocks of
    P x P; raises StructuralFailureError otherwise, naming the offender."""
    levels: dict = {}
    for u in range(n):
        for v in range(n):
            d = predictor.value(pair_id(u, v))
            levels.setdefault(tuple(d.weights), []).append((u, v))
    row_sets = set()
    col_sets = set()
    products = []
    for key, pairs in levels.items():
        rows = frozenset(u for u, _ in pairs)
        cols = frozenset(v for _, v in pairs)
        if len(pairs) != len(rows) * len(cols):
            raise StructuralFailureError(
                f"level set {key} is not a single product of vertex sets")
        row_sets.add(rows)
        col_sets.add(cols)
        products.append((rows, cols))
    if row_sets != col_sets:
        raise StructuralFailureError("row blocks and column blocks differ")
    blocks = sorted(row_sets, key=lambda s: min(s))
    seen = set()
    for b in blocks:
        if seen & b:
            raise StructuralFailureError("level-set blocks overlap")
        seen |= b
    if seen != set(range(n)):
        raise StructuralFailureError("level-set blocks do not cover the vertices")
    if len(products) != len(blocks) ** 2:
        raise StructuralFailureError(
            "level sets do not tile all block pairs (two blocks share a density)")
    return VertexPartition(tuple(tuple(sorted(b)) for b in blocks))


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


# ---------------------------------------------------------------------------
# Xor product
# ---------------------------------------------------------------------------


def single_edge_gadget() -> DiGraph:
    """Two vertices joined by one undirected edge (both orientations)."""
    return DiGraph(2, frozenset({(0, 1), (1, 0)}))


def xor_product(g1: DiGraph, g2: DiGraph) -> DiGraph:
    """Vertex set V1 x V2; edge iff exactly one factor has the projected edge."""
    n2 = g2.n
    edges = set()
    e1, e2 = g1.edges, g2.edges
    for u1 in range(g1.n):
        for u2 in range(g1.n):
            first = (u1, u2) in e1
            for b1 in range(n2):
                for b2 in range(n2):
                    if first != ((b1, b2) in e2):
                        edges.add((u1 * n2 + b1, u2 * n2 + b2))
    return DiGraph(g1.n * n2, frozenset(edges))


def pair_partition(g1: DiGraph, g2: DiGraph) -> VertexPartition:
    """Blocks {v} x V2 of the product, one per first-factor vertex."""
    n2 = g2.n
    return VertexPartition(tuple(tuple(v * n2 + b for b in range(n2))
                                 for v in range(g1.n)))
