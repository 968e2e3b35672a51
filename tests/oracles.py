"""Brute-force graph oracles for the tests.

Every edge count here is a literal scan of `g.edges`, so these oracles
share no code path with the library, which reads every count off the
cached adjacency matrix.
"""

from fractions import Fraction

from multifair.errors import EmptyBlockError, EnumerationLimitError
from multifair.graph import DiGraph, VertexPartition, cut_oracle


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
