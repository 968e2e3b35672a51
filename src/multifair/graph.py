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

Every edge count is read off the adjacency matrix A that a `DiGraph`
builds once: `edge_count` is 1_S^T A 1_T, and `_block_edges` gives every
block count e(S n V_j, T n V_k) of a partition from part-indicator matrices.

All checkers are exact over the rationals: comparisons are performed on
integer-scaled quantities, never on floats.  Every exact eps test is the
violating-mass score `_violating_mass`: |r| > eps x size on an integer r
is read off an integer threshold table built in Python ints
(`_eps_thresholds`), so a float eps, whose exact denominator is near
2^54, never enters an int64 product.  The exact checks on one block
enumerate one side's masks in the blocks of `_mask_sums` and maximize over
the other side in closed form: `_cut_norm` takes the rows of one sign, for
the cut norms of pair irregularity, the Frieze-Kannan check and the exact
cut oracle; `_extreme_scan` sorts per-element counts, for the one-part
intermediate check and the regular-pair check.  On more parts, for the
intermediate check and the (S,T)-irregularity maximizer, `_partition_scan`
uses that for a fixed T the objective is a sum over parts j of a max over
S_j in V_j: it scores every (S_j, T n V_k) once and takes each part's max
on the grid of local masks (T n V_1, ..., T n V_m), and its witness is the
first best T in mask order, then the first best S_j.

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
_MASK_BLOCK_BITS = 20  # a `_mask_sums` block holds at most 2^20 entries


@dataclass(frozen=True)
class DiGraph:
    """A directed graph on vertices 0..n-1, loops permitted, with its n x n
    int64 adjacency matrix built once at construction and kept read-only."""

    n: int
    edges: frozenset  # ordered pairs (u, v)
    _adj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"vertex count {self.n} is negative")
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in self.edges))
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u},{v}) outside vertex range [0,{self.n})")
            adj[u, v] = 1
        adj.setflags(write=False)
        object.__setattr__(self, "_adj", adj)

    def adjacency(self) -> np.ndarray:
        """The cached read-only adjacency matrix: [u, v] = 1 iff (u, v) is an edge."""
        return self._adj

    @classmethod
    def complete(cls, n: int, loops: bool = True) -> "DiGraph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(n)
                                if loops or u != v))

    @classmethod
    def empty(cls, n: int) -> "DiGraph":
        return cls(n, frozenset())


def random_digraph(rng: np.random.Generator, n: int, p: float = 0.5,
                   loops: bool = False) -> DiGraph:
    if n < 0:
        raise DomainError(f"vertex count {n} is negative")
    if not 0 <= p <= 1:  # NaN fails too
        raise DomainError(f"edge probability {p} is not in [0, 1]")
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
        if not parts:
            raise DomainError("a partition needs at least one part")
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


def _vertex_count(g: DiGraph, p: VertexPartition) -> int:
    """n, after checking that p partitions exactly the vertices of g."""
    if p.n != g.n:
        raise DomainError(f"partition covers {p.n} vertices but the graph has {g.n}")
    return p.n


def _indicator(n: int, X) -> np.ndarray:
    """1_X over vertices 0..n-1; ids of X outside 0..n-1 match no vertex."""
    X = set(X)
    return np.fromiter((v in X for v in range(n)), dtype=np.int64, count=n)


def edge_count(g: DiGraph, S, T) -> int:
    """e(S, T): the edges from S to T, read off the cached adjacency matrix."""
    return int(_indicator(g.n, S) @ g.adjacency() @ _indicator(g.n, T))


def _block_edges(g: DiGraph, p: VertexPartition, S=None, T=None):
    """(e, s, t): e[j, k] = e(S n V_j, T n V_k), s[j] = |S n V_j| and t[k] =
    |T n V_k| (S, T default to all vertices), as e = P_S^T A P_T with the
    n x m part-indicator matrices restricted to S and to T."""
    n = _vertex_count(g, p)
    parts = np.zeros((n, p.size), dtype=np.int64)
    parts[np.arange(n), p.block_of()] = 1
    rows = parts if S is None else parts * _indicator(n, S)[:, None]
    cols = parts if T is None else parts * _indicator(n, T)[:, None]
    return rows.T @ g.adjacency() @ cols, rows.sum(axis=0), cols.sum(axis=0)


def _sum_over_blocks(num: np.ndarray, sizes: np.ndarray) -> Fraction:
    """sum_jk num[j, k] / (|V_j||V_k|), exactly, over the common denominator."""
    lcm = math.lcm(*sizes.tolist())
    w = np.array([lcm // s for s in sizes.tolist()], dtype=object)
    return Fraction(int((num.astype(object) * np.outer(w, w)).sum()), lcm * lcm)


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
    size = len(set(S)) * len(set(T))
    return EdgeStats(count=c, density=Fraction(c, size) if size else None)


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
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.int64)
    for i, r in enumerate(rows):  # doubling: the masks holding row i follow those without
        np.add(out[:1 << i], r, out=out[1 << i:2 << i])
    return out


def _popcounts(n_masks: int) -> np.ndarray:
    out = np.zeros(n_masks, dtype=np.int64)
    for b in range(max(n_masks - 1, 0).bit_length()):
        out += (np.arange(n_masks) >> b) & 1
    return out


def _mask_to_set(mask: int, universe) -> tuple:
    return tuple(universe[i] for i in range(len(universe)) if (mask >> i) & 1)


def _eps_thresholds(eps: Fraction, size: int) -> np.ndarray:
    """thr[x] = floor(eps x size), clamped to [-1, size^2], for x = 0..size.

    An integer r in [0, size^2] exceeds eps x size exactly when r > thr[x].
    The table is built in Python ints, so no int64 product involves eps's
    numerator or denominator.
    """
    pn, pd = eps.numerator, eps.denominator
    return np.array([max(-1, min(pn * x * size // pd, size * size)) for x in range(size + 1)],
                    dtype=np.int64)


def _nonnegative(epsilon) -> Fraction:
    """eps as an exact rational, refusing a negative one."""
    eps = exactify(epsilon)
    if eps < 0:
        raise DomainError(f"epsilon {eps} is negative")
    return eps


def _mask_sums(mat: np.ndarray):
    """Yield (start, sums), sums[i, v] = sum of mat[v, t] over t in column
    mask start + i, in increasing blocks of 2^b masks at multiples of 2^b
    with at most 2^20 entries (or one mask): the low columns' subset-sum
    table plus the row of the high columns' sums.  One block is the table."""
    n_rows, n_cols = mat.shape
    low = min(n_cols, max(0, _MASK_BLOCK_BITS - (max(n_rows, 1) - 1).bit_length()))
    table = _subset_sum_table(mat[:, :low].T)  # low mask x row
    yield 0, table
    for h in range(1, 1 << (n_cols - low)):
        yield h << low, table + mat[:, low:] @ ((h >> np.arange(n_cols - low)) & 1)


def _scan_max(mat: np.ndarray, reduce):
    """(value, mask): the first column mask of mat with the largest
    reduce(start, sums) over the blocks of `_mask_sums(mat)`."""
    best, arg = -1, 0
    for start, sums in _mask_sums(mat):
        values = reduce(start, sums)
        i = int(values.argmax())
        if values[i] > best:
            best, arg = int(values[i]), start + i
    return best, arg


def _cut_norm(mat: np.ndarray):
    """(value, S, T) maximizing |sum_{S x T} mat| over row sets S and column
    sets T of an integer matrix, exactly: the first maximizing T, the sign +
    when the positive row sums over T total at least the negative ones, and
    S the rows of that sign strictly."""
    best, t_mask = _scan_max(  # max(pos, neg) = (pos + neg + |pos - neg|) / 2
        mat, lambda _, sums: (np.abs(sums).sum(axis=1) + np.abs(sums.sum(axis=1))) // 2)
    T = _mask_to_set(t_mask, range(mat.shape[1]))
    rows = mat[:, list(T)].sum(axis=1)
    sign = 1 if rows.sum() >= 0 else -1  # pos - neg
    return best, tuple(np.nonzero(sign * rows > 0)[0].tolist()), T


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


def partition_irregularity(g: DiGraph, p: VertexPartition) -> Fraction:
    return sum((irregularity(g, a, b) for a in p.parts for b in p.parts), Fraction(0))


def partition_st_irregularity(g: DiGraph, p: VertexPartition, S, T) -> Fraction:
    """sum_jk |e(S n V_j, T n V_k) - d(V_j, V_k) |S n V_j||T n V_k||, exactly."""
    e, sizes, _ = _block_edges(g, p)
    e_st, s, t = _block_edges(g, p, S, T)
    return _sum_over_blocks(np.abs(e_st * np.outer(sizes, sizes) - e * np.outer(s, t)), sizes)


# ---------------------------------------------------------------------------
# Pairwise regularity and the Szemeredi checker
# ---------------------------------------------------------------------------


def check_regular_pair(g: DiGraph, X, Y, epsilon):
    """Is (X, Y) eps-regular: |d(S,T) - d(X,Y)| <= eps whenever |S| >= eps|X|
    and |T| >= eps|Y|?  Exact; returns (bool, witness-or-None), the witness
    being the first violating S-mask and, for it, the first T-mask."""
    X, Y = sorted(set(X)), sorted(set(Y))
    if max(len(X), len(Y)) > REGULAR_PAIR_LIMIT:
        raise EnumerationLimitError(f"regular-pair check capped at {REGULAR_PAIR_LIMIT}")
    eps = _nonnegative(epsilon)
    if eps >= 1:
        return True, None
    pn, pd = eps.numerator, eps.denominator
    mat = g.adjacency()[np.ix_(X, Y)]
    e_xy = int(mat.sum())
    nx, ny = len(X), len(Y)
    score = _violating_mass(eps)
    # |S| >= eps |X| and |T| >= eps |Y|, decided per size in Python ints
    s_ok, t_ok = (np.array([k * pd >= pn * m for k in range(m + 1)]) for m in (nx, ny))
    found, s_mask, t_mask = _extreme_scan(  # sums[S, t] = e(S, {t})
        mat.T, lambda *args: score(*args) > 0, nx * ny, e_xy, (s_ok, t_ok))
    if not found:
        return True, None
    return False, (_mask_to_set(s_mask, X), _mask_to_set(t_mask, Y))


@dataclass
class CheckReport:
    kind: str
    passed: bool
    witness: object
    slack: Fraction  # eps n^2 minus the worst offending quantity (negative on fail)
    exhaustive: bool = True


def check_szemeredi(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """Mass of non-eps-regular part pairs at most eps n^2; exact."""
    eps = _nonnegative(epsilon)
    n = _vertex_count(g, p)
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
    """The lcm of the block sizes |V_j||V_k|, which is lcm(|V_j|)^2."""
    return math.lcm(*(len(a) for a in p.parts)) ** 2


def check_frieze_kannan(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """max_{S,T} |e(S,T) - sum_jk d_jk |S n V_j||T n V_k|| <= eps n^2; exact.

    The cut norm of the residual adjacency minus block density, scaled by
    the common block-size denominator L.
    """
    n = _vertex_count(g, p)
    if n > FK_LIMIT:
        raise EnumerationLimitError(f"exact Frieze-Kannan check capped at {FK_LIMIT}")
    eps = _nonnegative(epsilon)
    L = _pair_scale(p)
    if L * n * n > (1 << 60):
        raise EnumerationLimitError("block-size denominators too large for exact scan")
    e, sizes, _ = _block_edges(g, p)
    d_scaled = e * (L // np.outer(sizes, sizes))
    block = p.block_of()
    best, S, T = _cut_norm(g.adjacency() * L - d_scaled[np.ix_(block, block)])
    value = Fraction(best, L)
    passed = value <= eps * n * n
    return CheckReport("frieze-kannan", passed, (S, T), eps * n * n - value)


# ---------------------------------------------------------------------------
# Intermediate checker and the (S,T)-irregularity maximizer
# ---------------------------------------------------------------------------


def _partition_scan(g: DiGraph, p: VertexPartition, score):
    """(best, S, T) maximizing sum_j max_{S_j in V_j} sum_k score(...) over T.

    `score(cols, st, size, e)` maps e(S_j, T n V_k) for local S_j- and
    (T n V_k)-masks, their |S_j||T n V_k|, |V_j||V_k| and e(V_j, V_k) to a
    nonnegative integer table, elementwise.  T is scanned as the grid of
    its parts' local masks T n V_k, whose axes run from the smallest part
    to the largest, so the broadcast sums' inner loops are long.  Each
    part's S_j-masks, in blocks of at most 2^16 grid entries, score
    every T n V_k once and broadcast their sum over the grid, whose max
    over S_j is the part's term.  The first maximizing T in mask order
    wins, and within it the first best S_j, recomputed from one column per
    block pair.
    """
    parts = p.parts
    adj = g.adjacency()
    e_blocks, _, _ = _block_edges(g, p)
    dims = [1 << len(a) for a in parts]
    sizes = [_popcounts(d) for d in dims]
    rows = [[_subset_sum_table(adj[np.ix_(a, b)]) for b in parts]
            for a in parts]  # rows[j][k][S_j, i] = e(S_j, {V_k[i]})
    axes = sorted(range(p.size), key=lambda k: dims[k])  # grid axis i holds part axes[i]
    grid = tuple(dims[k] for k in axes)
    step = max(1, (1 << 16) >> p.n)  # larger blocks made malloc trim and regrow the heap per block
    total = np.zeros(grid, dtype=np.int64)
    for j, a in enumerate(parts):
        best = np.zeros(grid, dtype=np.int64)
        for r in range(0, dims[j], step):
            acc = 0
            for i, k in enumerate(axes):
                cols = _subset_sum_table(rows[j][k][r:r + step].T).T  # S_j x (T n V_k)
                scored = score(cols, sizes[j][r:r + step, None] * sizes[k],
                               len(a) * len(parts[k]), e_blocks[j, k])
                acc = acc + scored.reshape((len(scored),) + (1,) * i + (dims[k],)
                                           + (1,) * (p.size - 1 - i))
            np.maximum(best, acc.max(axis=0), out=best)
        total += best
    t_masks = np.arange(1 << p.n, dtype=np.int64)
    local = [sum(((t_masks >> v) & 1) << bit for bit, v in enumerate(parts[k])) for k in axes]
    total = total.ravel()[np.ravel_multi_index(local, grid)]  # in T-mask order
    t_mask = int(total.argmax())
    S = []
    for j, a in enumerate(parts):
        acc = 0
        for k, b in enumerate(parts):
            in_t = [i for i, v in enumerate(b) if t_mask >> v & 1]
            acc = acc + score(rows[j][k][:, in_t].sum(axis=1), sizes[j] * len(in_t),
                              len(a) * len(b), e_blocks[j, k])
        S.extend(_mask_to_set(int(acc.argmax()), a))
    return int(total[t_mask]), tuple(sorted(S)), _mask_to_set(t_mask, range(p.n))


def _violating_mass(eps: Fraction):
    """The one exact eps test, as a score: |S||T| where a sub-block's density
    e / (|S||T|) strays from its block's E / size by more than eps, else 0.
    With eps >= 0 every violation has |S||T| > 0, so "violates" is score > 0."""
    thresholds = {}

    def score(cols, st, size, e):
        if size not in thresholds:
            thresholds[size] = _eps_thresholds(eps, size)
        return np.where(np.abs(cols * size - e * st) > thresholds[size][st], st, 0)
    return score


def _extreme_scan(mat: np.ndarray, score, size: int, e: int, admissible=None):
    """(mass, A, B): the first column mask A of mat whose mass, the largest
    score of e(A, B) over row masks B, is largest, and for it the first B of
    largest score (as `_partition_scan` picks them on one part).  `score` is
    `_violating_mass(eps)` or its > 0 test; `admissible`, if given, holds
    boolean tables of the allowed |A| and |B|.  Over |B| = s, e(A, B) ranges
    between the sums of the s smallest and s largest counts e(A, {w}), and
    the eps test is convex in e, so those two decide every B of size s."""
    def extreme_mass(start, sums):  # sums[i, w] = e(A, {w}) for A = start + i
        pops = _popcounts(len(sums)) + start.bit_count()
        low = np.cumsum(np.pad(np.sort(sums, axis=1), ((0, 0), (1, 0))), axis=1)  # s smallest
        high = low[:, -1:] - low[:, ::-1]  # s largest: all but the k - s smallest
        st = pops[:, None] * np.arange(low.shape[1])
        mass = np.maximum(score(low, st, size, e), score(high, st, size, e))
        if admissible is not None:
            mass = np.where(admissible[0][pops][:, None] & admissible[1], mass, 0)
        return mass.max(axis=1)

    best, a_mask = _scan_max(mat, extreme_mass)
    A = _mask_to_set(a_mask, range(mat.shape[1]))
    e_b = _subset_sum_table(mat[:, list(A)].sum(axis=1)[:, None])[:, 0]  # e(A, B) per B-mask
    b_sizes = _popcounts(1 << mat.shape[0])
    b_score = score(e_b, len(A) * b_sizes, size, e)
    if admissible is not None:
        b_score = np.where(admissible[1][b_sizes], b_score, 0)
    return best, a_mask, int(b_score.argmax())


def max_st_irregularity(g: DiGraph, p: VertexPartition):
    """(value, S, T) maximizing sum_jk |e(S n V_j, T n V_k) - d_jk |S n V_j||T n V_k||.

    Exact: a partition scan with the absolute block residual as score.
    """
    n = _vertex_count(g, p)
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


def check_intermediate(g: DiGraph, p: VertexPartition, epsilon) -> CheckReport:
    """For all S, T: mass of block pairs that are not (S,T,eps)-regular is
    at most eps n^2.

    Exact, a float eps too: `_extreme_scan` over T on a one-part partition,
    else `_partition_scan`, both with the violating mass as score.  The
    witness is the first T-mask of largest mass and, within it, the first
    S-mask of largest score.
    """
    n = _vertex_count(g, p)
    if n > INTERMEDIATE_LIMIT:
        raise EnumerationLimitError(f"exact intermediate check capped at {INTERMEDIATE_LIMIT}")
    eps = _nonnegative(epsilon)
    if p.size == 1:  # counts e({v}, T) over T-masks
        adj = g.adjacency()
        best_val, t_mask, s_mask = _extreme_scan(adj, _violating_mass(eps), n * n, int(adj.sum()))
        S, T = _mask_to_set(s_mask, range(n)), _mask_to_set(t_mask, range(n))
    else:
        best_val, S, T = _partition_scan(g, p, _violating_mass(eps))
    passed = best_val * eps.denominator <= eps.numerator * n * n
    return CheckReport("intermediate", passed, (S, T), eps * n * n - best_val)


# ---------------------------------------------------------------------------
# Cut oracle
# ---------------------------------------------------------------------------


def _scale_matrix(m_rows):
    """Integer-scale a rational matrix; returns (int64 array, denominator).
    EnumerationLimitError unless the |scaled entries| sum below 2^62, so no
    sum `_cut_norm` forms (at most twice that) overflows int64."""
    fr = [[exactify(x) for x in row] for row in m_rows]
    den = math.lcm(1, *(x.denominator for row in fr for x in row))
    rows = [[int(x * den) for x in row] for row in fr]
    if sum(abs(x) for row in rows for x in row) >= 1 << 62:
        raise EnumerationLimitError("scaled matrix too large for the exact cut oracle")
    return np.array(rows, dtype=np.int64), den


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
    """sum_jk e(V_j, V_k)^2 / (|V_j||V_k| n^2), exactly."""
    e, sizes, _ = _block_edges(g, p)
    return _sum_over_blocks(e * e, sizes) / (p.n * p.n)


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
    block = p.block_of()
    e, sizes, _ = _block_edges(g, p)
    size = np.outer(sizes, sizes)
    res = g.adjacency() - (e / size)[np.ix_(block, block)]
    S = T = tuple(range(p.n))
    for _ in range(16):
        # sigma_jk: the sign of the (S, T)-restricted block residual, + when empty
        e_st, s, t = _block_edges(g, p, S, T)
        sigma = np.where(e_st * size >= e * np.outer(s, t), 1.0, -1.0)
        signed = res * sigma[np.ix_(block, block)]
        S2, T2, _ = cut_oracle(signed.tolist(), mode="alternating", rng=rng)
        if (S2, T2) == (S, T):
            break
        S, T = S2, T2
    return partition_st_irregularity(g, p, S, T), S, T


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
    if oracle_mode not in ("exact", "alternating"):
        raise DomainError(f"unknown cut oracle mode {oracle_mode!r}")
    n = g.n
    p = VertexPartition.trivial(n)
    transcript = RefineTranscript(epsilon=eps, oracle_mode=oracle_mode)
    threshold = eps * n * n / 2
    max_steps = math.ceil(4 / eps ** 2) + math.ceil(1 / eps ** 4) + 2
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
    uniformly, the outcome is edge membership.  Every pair shares one of two
    truth objects, an edge's and a non-edge's."""
    n = g.n
    space = binary_space()
    ids = tuple(pair_id(u, v) for u in range(n) for v in range(n))
    w = Fraction(1, n * n)
    edges = g.edges
    truth = (OutcomeDist.bernoulli(Fraction(0)), OutcomeDist.bernoulli(Fraction(1)))
    return PopulationInstance(
        space=space,
        ids=ids,
        weight={j: w for j in ids},
        p_true={pair_id(u, v): truth[(u, v) in edges] for u in range(n) for v in range(n)},
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
    e, sizes, _ = _block_edges(g, p)
    dens = [[OutcomeDist.bernoulli(Fraction(int(x), int(sj * sk))) for x, sk in zip(row, sizes)]
            for row, sj in zip(e, sizes)]
    block = p.block_of()
    return Predictor({pair_id(u, v): dens[block[u]][block[v]]
                      for u in range(g.n) for v in range(g.n)})


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
    for key, pairs in levels.items():
        rows = frozenset(u for u, _ in pairs)
        cols = frozenset(v for _, v in pairs)
        if len(pairs) != len(rows) * len(cols):
            raise StructuralFailureError(
                f"level set {key} is not a single product of vertex sets")
        row_sets.add(rows)
        col_sets.add(cols)
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
    return VertexPartition(tuple(tuple(sorted(b)) for b in blocks))


# ---------------------------------------------------------------------------
# Xor product
# ---------------------------------------------------------------------------


def single_edge_gadget() -> DiGraph:
    """Two vertices joined by one undirected edge (both orientations)."""
    return DiGraph(2, frozenset({(0, 1), (1, 0)}))


def xor_product(g1: DiGraph, g2: DiGraph) -> DiGraph:
    """Vertex set V1 x V2, vertex (u, b) numbered u n2 + b; edge iff exactly
    one factor has the projected edge."""
    n = g1.n * g2.n
    a1, a2 = g1.adjacency(), g2.adjacency()
    x = (a1[:, None, :, None] ^ a2[None, :, None, :]).reshape(n, n)
    return DiGraph(n, frozenset(map(tuple, np.argwhere(x).tolist())))


def pair_partition(g1: DiGraph, g2: DiGraph) -> VertexPartition:
    """Blocks {v} x V2 of the product, one per first-factor vertex."""
    n2 = g2.n
    return VertexPartition(tuple(tuple(v * n2 + b for b in range(n2))
                                 for v in range(g1.n)))
