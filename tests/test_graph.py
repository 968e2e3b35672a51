from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    DiGraph,
    VertexPartition,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_strict_multi_calibration,
    check_frieze_kannan,
    check_intermediate,
    check_regular_pair,
    check_szemeredi,
    common_refinement,
    cut_oracle,
    density,
    edge_count,
    edge_stats,
    equivalence_bounds,
    graph_to_instance,
    irregularity,
    max_st_irregularity,
    mean_square_density,
    pair_partition,
    partition_irregularity,
    partition_st_irregularity,
    partition_to_predictor,
    predictor_to_partition,
    random_digraph,
    rectangle_class,
    rectangle_hypothesis,
    refine_intermediate,
    single_edge_gadget,
    st_irregularity,
    xor_product,
)
from multifair.graph import (
    _MASK_BLOCK_BITS,
    _extreme_scan,
    _mask_sums,
    _pair_scale,
    _partition_scan,
    _subset_sum_table,
    _violating_mass,
    pair_id,
    rational_sqrt_upper,
)
from multifair.errors import (
    DomainError,
    EmptyBlockError,
    EnumerationLimitError,
    InternalInvariantError,
    StructuralFailureError,
)
from oracles import (
    _int_matmul,
    check_regular_pair_bruteforce,
    cut_norm_unchunked,
    delta_st,
    delta_st_level,
    density_scan,
    edge_count_scan,
    irregularity_bruteforce,
    max_st_irregularity_sigma_enum,
    mean_square_density_scan,
    one_part_scan_unchunked,
    partition_scan_pair_tables,
    partition_st_irregularity_scan,
    spot_check_intermediate,
    st_irregularity_scan,
)


def two_cliques(k=4, loops=False):
    edges = set()
    for base in (0, k):
        for u in range(base, base + k):
            for v in range(base, base + k):
                if loops or u != v:
                    edges.add((u, v))
    return DiGraph(2 * k, frozenset(edges))


# ---------------------------------------------------------------------------
# edge stats
# ---------------------------------------------------------------------------


def test_edge_stats_complete_and_empty():
    g = DiGraph.complete(4)
    assert density(g, range(4), range(4)) == 1
    assert density(g, (0, 1), (2, 3)) == 1
    assert density(DiGraph.empty(4), range(4), range(4)) == 0


def test_edge_stats_four_cycle():
    g = DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    st = edge_stats(g, range(4), range(4))
    assert st.count == 4
    assert st.density == F(1, 4)


def test_density_empty_block_errors_count_still_available():
    g = DiGraph.complete(3)
    with pytest.raises(EmptyBlockError):
        density(g, (), (0, 1))
    assert edge_count(g, (), (0, 1)) == 0
    assert edge_stats(g, (), (0, 1)).density is None


def test_adjacency_is_built_once_and_read_only():
    g = DiGraph(3, frozenset({(0, 1), (2, 2)}))
    a = g.adjacency()
    assert a is g.adjacency() and not a.flags.writeable
    assert a.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        a[0, 0] = 1
    assert g == DiGraph(3, frozenset({(2, 2), (0, 1)})) and hash(g) == hash(DiGraph(3, g.edges))
    for n, edges in ((3, {(0, 3)}), (3, {(-1, 0)}), (3, {(0, 2 ** 70)}), (-1, set())):
        with pytest.raises(DomainError):
            DiGraph(n, frozenset(edges))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyBlockError:
        return "empty"


def test_edge_statistics_match_literal_edge_scan():
    # matrix-backed statistics against a scan of g.edges, on sides that are
    # empty, full, or mix vertices with out-of-range and negative ids
    for n in range(1, 11):
        for seed in range(5):
            rng = np.random.default_rng(100 * n + seed)
            g = random_digraph(rng, n, float(rng.uniform(0.1, 0.9)), loops=bool(seed % 2))
            labels = rng.integers(0, int(rng.integers(1, 4)), size=n).tolist()
            p = VertexPartition(tuple(tuple(v for v in range(n) if labels[v] == b)
                                      for b in sorted(set(labels))))
            pool = list(range(n)) + [-1, -2, n, n + 5]
            sides = [(), tuple(range(n)), (-1, n, n + 5), (0, -1, n, 0)]
            sides += [tuple(int(v) for v in rng.choice(pool, size=int(rng.integers(1, len(pool))),
                                                       replace=False)) for _ in range(4)]
            assert mean_square_density(g, p) == mean_square_density_scan(g, p)
            for S in sides:
                for T in sides:
                    count = edge_count_scan(g, S, T)
                    assert edge_count(g, S, T) == count
                    dens = _outcome(density_scan, g, S, T)
                    assert _outcome(density, g, S, T) == dens
                    st = edge_stats(g, S, T)
                    assert (st.count, st.density) == (count, None if dens == "empty" else dens)
                    assert partition_st_irregularity(g, p, S, T) == \
                        partition_st_irregularity_scan(g, p, S, T)
                    for X, Y in ((p.parts[0], p.parts[-1]), (S, T)):
                        assert _outcome(st_irregularity, g, X, Y, S, T) == \
                            _outcome(st_irregularity_scan, g, X, Y, S, T)


def test_graph_checks_reject_negative_epsilon():
    g = random_digraph(np.random.default_rng(3), 6, 0.5)
    p = VertexPartition(((0, 1, 2), (3, 4, 5)))
    for eps in (F(-1, 10), -0.1):
        with pytest.raises(DomainError):
            check_regular_pair(g, range(3), range(3, 6), eps)
        for q in (p, VertexPartition.trivial(6)):
            for check in (check_szemeredi, check_frieze_kannan, check_intermediate):
                with pytest.raises(DomainError):
                    check(g, q, eps)
    # eps = 0 stays valid: a complete graph is exactly regular
    k = DiGraph.complete(4)
    assert check_regular_pair(k, (0, 1), (2, 3), 0) == (True, None)
    assert check_intermediate(k, VertexPartition.trivial(4), 0).passed
    assert check_intermediate(k, VertexPartition(((0, 1), (2, 3))), 0).passed


# ---------------------------------------------------------------------------
# irregularity
# ---------------------------------------------------------------------------


def test_irregularity_complete_graph_zero():
    g = DiGraph.complete(5)
    assert irregularity(g, range(5), range(5)) == 0


def test_irregularity_single_edge():
    g = DiGraph(2, frozenset({(0, 1)}))
    v = irregularity(g, (0, 1), (0, 1))
    assert v == irregularity_bruteforce(g, (0, 1), (0, 1))
    assert v == F(3, 4)  # S={0}, T={1}: |1 - 1/4| = 3/4


def test_irregularity_matches_bruteforce_random():
    for seed in range(8):
        g = random_digraph(np.random.default_rng(seed), 6, 0.5)
        X, Y = tuple(range(6)), tuple(range(6))
        assert irregularity(g, X, Y) == irregularity_bruteforce(g, X, Y)
        X2, Y2 = (0, 1, 2), (2, 3, 4, 5)
        assert irregularity(g, X2, Y2) == irregularity_bruteforce(g, X2, Y2)


def test_irregularity_witness_attains_value_on_unequal_sides():
    g = random_digraph(np.random.default_rng(12), 9, 0.5)
    for X, Y in (((0, 1, 2), (3, 4, 5, 6, 7, 8)), ((3, 4, 5, 6, 7, 8), (0, 1, 2)),
                 ((0, 4), (1, 2, 3, 4, 5))):
        val, (S, T) = irregularity(g, X, Y, want_witness=True)
        assert val > 0 and val == irregularity_bruteforce(g, X, Y)
        assert set(S) <= set(X) and set(T) <= set(Y)
        assert st_irregularity(g, X, Y, S, T) == val


def test_st_irregularity_properties():
    g = random_digraph(np.random.default_rng(1), 6, 0.5)
    X, Y = (0, 1, 2), (3, 4, 5)
    assert st_irregularity(g, X, Y, (), (3, 4)) == 0
    assert st_irregularity(g, X, Y, range(6), range(6)) == 0  # definition of density
    worst = irregularity(g, X, Y)
    for ms in range(8):
        for mt in range(8):
            S = tuple(x for i, x in enumerate(X) if ms >> i & 1)
            T = tuple(y for i, y in enumerate(Y) if mt >> i & 1)
            assert st_irregularity(g, X, Y, S, T) <= worst


def test_partition_irregularity_trivial_cases():
    g = DiGraph.complete(5)
    p = VertexPartition.trivial(5)
    assert partition_irregularity(g, p) == 0
    assert partition_st_irregularity(g, p, (0, 1), (2, 3)) == 0
    g2 = random_digraph(np.random.default_rng(2), 6, 0.5)
    singles = VertexPartition.singletons(6)
    assert partition_irregularity(g2, singles) == 0


def test_max_st_irregularity_matches_enumeration():
    g = random_digraph(np.random.default_rng(3), 6, 0.5)
    for parts in [((0, 1, 2), (3, 4), (5,)), ((0, 1, 2, 3, 4, 5),),
                  ((0, 3), (1, 4), (2, 5))]:
        p = VertexPartition(parts)
        val, S, T = max_st_irregularity(g, p)
        best = max(
            partition_st_irregularity(
                g, p,
                tuple(i for i in range(6) if ms >> i & 1),
                tuple(i for i in range(6) if mt >> i & 1))
            for ms in range(64) for mt in range(64))
        assert val == best
        assert partition_st_irregularity(g, p, S, T) == val


def test_partition_st_maximized_equals_pair_irregularity_for_trivial():
    g = random_digraph(np.random.default_rng(4), 8, 0.5)
    p = VertexPartition.trivial(8)
    val, S, T = max_st_irregularity(g, p)
    assert val == irregularity(g, range(8), range(8))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def test_regular_pair_complete_and_eps_one():
    g = DiGraph.complete(4)
    assert check_regular_pair(g, range(4), range(4), F(1, 100))[0]
    g2 = random_digraph(np.random.default_rng(5), 6, 0.5)
    assert check_regular_pair(g2, range(6), range(6), 1)[0]


def test_regular_pair_matches_literal_definition_at_float_eps():
    eps = 0.45
    exact = F(eps)
    X, Y = range(6), range(6, 12)
    big = [tuple(v for v in range(6) if mask >> v & 1) for mask in range(64)]
    big = [s for s in big if len(s) >= exact * 6]
    for seed in range(20):
        rng = np.random.default_rng(60 + seed)
        g = random_digraph(rng, 12, float(rng.uniform(0.2, 0.8)))
        adj = g.adjacency()
        d_xy = F(int(adj[:6, 6:].sum()), 36)

        def strays(S, T):
            return abs(F(int(adj[np.ix_(S, T)].sum()), len(S) * len(T)) - d_xy) > exact

        regular = not any(strays(S, [6 + v for v in T]) for S in big for T in big)
        ok, witness = check_regular_pair(g, X, Y, eps)
        assert ok == regular
        if not ok:
            S, T = witness
            assert len(S) >= exact * 6 and len(T) >= exact * 6 and strays(S, T)


def test_regular_pair_half_graph_fails():
    # edges u -> v iff u <= v across the bipartition {0,1} x {2,3}
    g = DiGraph(4, frozenset({(0, 2), (0, 3), (1, 3)}))
    ok, witness = check_regular_pair(g, (0, 1), (2, 3), F(1, 10))
    assert not ok
    S, T = witness
    d_sub = density(g, S, T)
    assert abs(d_sub - density(g, (0, 1), (2, 3))) > F(1, 10)


REGULAR_PAIR_EPS = (0, F(1, 10), F(1, 5), F(1, 3), F(1, 2), 0.2, 0.45, F(9, 10), 1, F(3, 2))


def test_regular_pair_matches_the_brute_force_oracle():
    # disjoint, equal, overlapping and empty sides at every eps, witnesses included
    rng = np.random.default_rng(1500)
    for case in range(300):
        n = int(rng.integers(1, 10))
        g = random_digraph(rng, n, float(rng.choice([0.1, 0.5, 0.9])))
        perm = rng.permutation(n).tolist()
        cut = int(rng.integers(0, n + 1))
        X, Y = [(perm[:cut], perm[cut:]), (perm, perm), (perm[:cut], perm[cut // 2:]),
                (perm[:cut], ())][case % 4]
        eps = REGULAR_PAIR_EPS[case % len(REGULAR_PAIR_EPS)]
        assert check_regular_pair(g, X, Y, eps) == check_regular_pair_bruteforce(g, X, Y, eps)
    g = random_digraph(rng, 4, 0.5)
    for eps in REGULAR_PAIR_EPS:
        for X, Y in (((), ()), ((), (0, 1)), ((0, 1), ())):
            assert check_regular_pair(g, X, Y, eps) == (True, None)


def test_regular_pair_matches_the_brute_force_oracle_at_the_cap():
    # two failing pairs whose first violating S-mask is over 700, and one
    # regular pair, which the oracle must score over all 4^14 (S, T) pairs
    g = random_digraph(np.random.default_rng(1501), 28, 0.5)
    cases = [(range(14), range(14), F(2, 5), False), (range(14), range(14, 28), F(7, 20), False),
             (range(14, 28), range(14), 0.45, True)]
    for X, Y, eps, regular in cases:
        got = check_regular_pair(g, X, Y, eps)
        assert got == check_regular_pair_bruteforce(g, X, Y, eps)
        assert got[0] == regular


def test_checkers_trivial_graphs():
    for g in (DiGraph.complete(6), DiGraph.empty(6)):
        for p in (VertexPartition.trivial(6), VertexPartition.singletons(6),
                  VertexPartition(((0, 1, 2), (3, 4, 5)))):
            assert check_frieze_kannan(g, p, F(1, 100)).passed
            assert check_intermediate(g, p, F(1, 100)).passed
            assert check_szemeredi(g, p, F(1, 100)).passed


def test_singleton_partition_passes_szemeredi():
    g = random_digraph(np.random.default_rng(6), 7, 0.5)
    assert check_szemeredi(g, VertexPartition.singletons(7), F(1, 1000)).passed


def test_fk_fail_witness_matches_pair_irregularity():
    g = random_digraph(np.random.default_rng(7), 10, 0.5)
    p = VertexPartition.trivial(10)
    rep = check_frieze_kannan(g, p, F(1, 100))
    worst = irregularity(g, range(10), range(10))
    # for the trivial partition the FK deviation IS the pair irregularity
    assert rep.slack == F(1, 100) * 100 - worst
    assert not rep.passed
    S, T = rep.witness
    dev = abs(edge_count(g, S, T) - density(g, range(10), range(10)) * len(S) * len(T))
    assert dev == worst


def _violating_mass_literal(g, p, S, T, eps):
    """Mass of the block pairs whose (S, T)-restricted density strays by more than eps."""
    mass = 0
    for a in p.parts:
        for b in p.parts:
            sa, tb = set(S) & set(a), set(T) & set(b)
            if sa and tb and abs(density(g, sa, tb) - density(g, a, b)) > eps:
                mass += len(sa) * len(tb)
    return mass


def test_intermediate_checker_matches_manual_enumeration():
    g = random_digraph(np.random.default_rng(8), 6, 0.5)
    p = VertexPartition(((0, 1), (2, 3), (4, 5)))
    subsets = [{i for i in range(6) if mask >> i & 1} for mask in range(64)]
    for eps in (F(1, 4), 0.2, 0.45):
        rep = check_intermediate(g, p, eps)
        exact = F(eps)  # a float eps is its exact binary value
        worst = max(_violating_mass_literal(g, p, S, T, exact) for S in subsets for T in subsets)
        assert rep.slack == exact * 36 - worst
        assert rep.passed == (worst <= exact * 36)
        assert _violating_mass_literal(g, p, *rep.witness, exact) == worst


def test_intermediate_checker_single_part():
    g = random_digraph(np.random.default_rng(9), 6, 0.5)
    p = VertexPartition.trivial(6)
    for eps in (F(3, 10), 0.2, 0.45):
        rep = check_intermediate(g, p, eps)
        exact = F(eps)
        worst = 0
        for ms in range(1, 64):
            S = tuple(i for i in range(6) if ms >> i & 1)
            for mt in range(1, 64):
                T = tuple(i for i in range(6) if mt >> i & 1)
                if abs(density(g, S, T) - density(g, range(6), range(6))) > exact:
                    worst = max(worst, len(S) * len(T))
        assert rep.slack == exact * 36 - worst


def test_intermediate_float_eps_does_not_overflow():
    # eps = 0.2 exceeds 1/5 by 2^-56, so its violating mass is at most 1/5's;
    # an int64 product with the float's denominator reported 132 against 56
    g = random_digraph(np.random.default_rng(1), 12, 0.5)
    p = VertexPartition.trivial(12)
    as_float = check_intermediate(g, p, 0.2)
    as_fraction = check_intermediate(g, p, F(1, 5))
    assert F(0.2) > F(1, 5)
    assert F(0.2) * 144 - as_float.slack <= F(1, 5) * 144 - as_fraction.slack


def test_one_part_kernel_matches_partition_scan():
    # the sorted-count closed form against the pair-table T-scan it replaced,
    # which takes its "full" pair table up to n = 11 and its "rows" table at n = 12
    for n in range(1, 13):
        for seed in range(2 if n < 11 else 1):
            rng = np.random.default_rng(700 + 10 * n + seed)
            g = random_digraph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
            p = VertexPartition.trivial(n)
            eps_list = {11: (F(1, 5), 0.45), 12: (0.2,)}.get(
                n, (F(1, 5), F(3, 10), F(1, 2), 0.2, 0.45))
            for eps in eps_list:
                exact = F(eps)
                rep = check_intermediate(g, p, eps)
                best, S, T = partition_scan_pair_tables(g, p, _violating_mass(exact))
                assert (rep.passed, rep.slack, rep.witness) == \
                    (best <= exact * n * n, exact * n * n - best, (S, T))


def test_one_part_kernel_spans_several_blocks():
    # at n = 17 a block holds 2^15 T-masks; vertices 0 and 15 are twins, so
    # a T holding just one of them ties with its swap in a later block, and
    # the first must win
    rng = np.random.default_rng(13)
    adj = (rng.random((17, 17)) < 0.5).astype(np.int64)
    adj[15, :], adj[:, 15] = adj[0, :], adj[:, 0]
    adj[15, 15] = adj[0, 15] = adj[15, 0] = adj[0, 0]
    assert 17 << 15 <= 1 << _MASK_BLOCK_BITS < 17 << 16
    for eps in (F(1, 5), F(3, 10)):
        mass, t_mask, s_mask = _extreme_scan(adj, _violating_mass(eps), 17 * 17, int(adj.sum()))
        assert (mass, s_mask, t_mask) == one_part_scan_unchunked(adj, eps)
        assert t_mask & 1 and not t_mask >> 15 & 1


def test_mask_sums_blocks_make_up_the_subset_sum_table():
    rng = np.random.default_rng(1502)
    for rows, cols in ((3, 5), (16, 16), (40, 16), (0, 4), (5, 0), (1, 3)):
        mat = rng.integers(-3, 4, (rows, cols))
        blocks = list(_mask_sums(mat))
        whole = _subset_sum_table(mat.T)
        if rows << cols <= 1 << _MASK_BLOCK_BITS:
            assert len(blocks) == 1
        starts = [start for start, _ in blocks]
        widths = [len(sums) for _, sums in blocks]
        assert starts == [sum(widths[:i]) for i in range(len(blocks))]
        assert all(w == widths[0] and start % w == 0 for start, w in zip(starts, widths))
        assert all(sums.size <= 1 << _MASK_BLOCK_BITS for _, sums in blocks)
        assert np.array_equal(np.concatenate([sums for _, sums in blocks]), whole)
    assert len(list(_mask_sums(np.zeros((40, 16), dtype=np.int64)))) == 4


def test_multi_part_scans_on_rows_pair_tables():
    # one part of 12 of 14 vertices: its pair with itself has 2^24
    # (S_j, T n V_k) scores, which the scan builds a few S_j-masks at a time
    eps = F(1, 5)
    rng = np.random.default_rng(900)
    g = random_digraph(rng, 14, 0.5)
    perm = rng.permutation(14).tolist()
    p = VertexPartition((tuple(perm[:12]), (perm[12],), (perm[13],)))
    value, S, T = max_st_irregularity(g, p)
    assert partition_st_irregularity(g, p, S, T) == value
    rep = check_intermediate(g, p, eps)
    assert _violating_mass_literal(g, p, *rep.witness, eps) == eps * 196 - rep.slack


def _random_partition(rng, n):
    perm = rng.permutation(n).tolist()
    m = int(rng.integers(2, n + 1))
    cuts = sorted(rng.choice(np.arange(1, n), m - 1, replace=False).tolist())
    return VertexPartition(tuple(tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n])))


def _scan_scores(p):
    """The partition scan's three scores: the violating mass at a rational
    and at a float eps, and the L-scaled absolute block residual."""
    L = _pair_scale(p)
    return {"eps 1/5": _violating_mass(F(1, 5)), "eps 0.3": _violating_mass(F(0.3)),
            "residual": lambda cols, st, size, e: np.abs(cols * L - e * (L // size) * st)}


def test_partition_scan_matches_the_pair_table_scan():
    for seed in range(60):
        rng = np.random.default_rng(1600 + seed)
        n = int(rng.integers(2, 11))
        g = random_digraph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
        p = _random_partition(rng, n)
        for name, score in _scan_scores(p).items():
            assert _partition_scan(g, p, score) == partition_scan_pair_tables(g, p, score), \
                (seed, name)
    # the 12-part's pair with itself takes the oracle's "rows" branch
    rng = np.random.default_rng(1660)
    perm = rng.permutation(13).tolist()
    g = random_digraph(rng, 13, 0.5)
    p = VertexPartition((tuple(perm[:12]), (perm[12],)))
    score = _violating_mass(F(1, 5))
    assert _partition_scan(g, p, score) == partition_scan_pair_tables(g, p, score)


def test_partition_scan_ties_go_to_the_first_t_mask():
    # sigma swaps the parts (0, 1, 2) and (3, 4, 5) vertex by vertex and is an
    # automorphism, so T and sigma(T) tie.  The best T is not fixed by sigma:
    # its image comes first on the grid of local masks, where (0, 1, 2) is the
    # major axis of the two, but later in T-mask order, and T must win
    sigma = [3, 4, 5, 0, 1, 2, 6, 7]
    adj = np.random.default_rng(1687).random((8, 8)) < 0.6
    adj |= adj[np.ix_(sigma, sigma)]
    assert np.array_equal(adj[np.ix_(sigma, sigma)], adj)
    g = DiGraph(8, frozenset(map(tuple, np.argwhere(adj).tolist())))
    p = VertexPartition(((6, 7), (0, 1, 2), (3, 4, 5)))
    for name, score in _scan_scores(p).items():
        value, S, T = _partition_scan(g, p, score)
        assert (value, S, T) == partition_scan_pair_tables(g, p, score), name
        image = tuple(sorted(sigma[v] for v in T))
        assert sum(1 << v for v in image) > sum(1 << v for v in T), name


def test_fk_matches_literal_enumeration_on_multi_part_partitions():
    eps = F(1, 20)
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(3, 7))
        g = random_digraph(rng, n, 0.5)
        p = _random_partition(rng, n)
        dens = [[density(g, a, b) for b in p.parts] for a in p.parts]

        def deviation(S, T):
            model = sum(dens[j][k] * len(set(S) & set(a)) * len(set(T) & set(b))
                        for j, a in enumerate(p.parts) for k, b in enumerate(p.parts))
            return abs(edge_count(g, S, T) - model)

        subsets = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
        worst = max(deviation(S, T) for S in subsets for T in subsets)
        rep = check_frieze_kannan(g, p, eps)
        assert rep.slack == eps * n * n - worst
        assert rep.passed == (worst <= eps * n * n)
        assert deviation(*rep.witness) == worst


def test_checker_guards():
    g = DiGraph.complete(21)
    with pytest.raises(EnumerationLimitError):
        check_frieze_kannan(g, VertexPartition.trivial(21), F(1, 2))
    with pytest.raises(EnumerationLimitError):
        check_intermediate(DiGraph.complete(15), VertexPartition.trivial(15), F(1, 2))
    with pytest.raises(EnumerationLimitError):
        check_regular_pair(DiGraph.complete(15), range(15), range(15), F(1, 2))


# ---------------------------------------------------------------------------
# cut oracle
# ---------------------------------------------------------------------------


def test_cut_oracle_constant_matrices():
    ones = [[1] * 5 for _ in range(5)]
    S, T, val = cut_oracle(ones, mode="exact")
    assert val == 25 and len(S) == 5 and len(T) == 5
    zeros = [[0] * 5 for _ in range(5)]
    assert cut_oracle(zeros, mode="exact")[2] == 0


def test_cut_oracle_exact_is_maximal():
    rng = np.random.default_rng(10)
    for rows, cols in ((6, 6), (2, 7), (7, 2), (5, 6)):
        m = (rng.integers(0, 2, (rows, cols)) * 2 - 1).tolist()
        S, T, val = cut_oracle(m, mode="exact")
        best = 0
        for ms in range(1 << rows):
            for mt in range(1 << cols):
                s = [i for i in range(rows) if ms >> i & 1]
                t = [i for i in range(cols) if mt >> i & 1]
                best = max(best, abs(sum(m[u][v] for u in s for v in t)))
        assert val == best
        assert abs(sum(m[u][v] for u in S for v in T)) == val


def test_cut_oracle_spans_several_blocks():
    # a block holds 2^low column masks; column `low`, the lowest block bit,
    # is zero, so T and T + {low} tie across a block boundary and the first
    # must win
    rng = np.random.default_rng(0)
    for rows in (8, 3):
        low = _MASK_BLOCK_BITS - (rows - 1).bit_length()
        m = rng.integers(-3, 4, (rows, 20))
        m[:, low] = 0
        S, T, val = cut_oracle(m.tolist(), mode="exact")
        assert (val, S, T) == cut_norm_unchunked(m)
        assert low not in T and any(t > low for t in T)
        assert abs(m[np.ix_(S, T)].sum()) == val


def test_int_matmul_checks_exactness_bound():
    a, b = np.array([[(1 << 26) - 1, 3]]), np.array([[1 << 26], [5]])
    assert _int_matmul(a, b)[0, 0] == ((1 << 26) - 1) * (1 << 26) + 15
    # max|a| max|b| * inner dimension = 2^26 * 2^26 * 2 = 2^53
    with pytest.raises(InternalInvariantError):
        _int_matmul(a + 1, b)


def test_cut_oracle_alternating_half_guarantee():
    rng = np.random.default_rng(11)
    for seed in range(10):
        r = np.random.default_rng(seed)
        m = (r.integers(0, 2, (8, 8)) * 2 - 1).tolist()
        _, _, exact_val = cut_oracle(m, mode="exact")
        _, _, alt_val = cut_oracle(m, mode="alternating", rng=rng)
        assert alt_val * 2 >= exact_val


def test_cut_oracle_rational_entries():
    m = [[F(1, 3), F(-1, 2)], [F(1, 6), F(1, 4)]]
    S, T, val = cut_oracle(m, mode="exact")
    best = max(abs(sum(m[u][v] for u in s for v in t))
               for s in [(), (0,), (1,), (0, 1)] for t in [(), (0,), (1,), (0, 1)])
    assert val == best


def test_cut_oracle_rejects_matrices_beyond_the_int64_bound():
    """Scaled entries whose |.| sum reaches 2^62 raise instead of wrapping:
    the first matrix's cut norm is about 12, the second's entry 2/3 scales
    past int64 over the common denominator 3 * 2^62."""
    for m in ([[F(2**62 - 1, 2**62)] * 4] * 3, [[F(2, 3), F(1, 2**62)]]):
        with pytest.raises(EnumerationLimitError):
            cut_oracle(m, mode="exact")
    # just below the bound the scan is exact
    S, T, val = cut_oracle([[F(2**62 - 1, 2**62)]], mode="exact")
    assert (S, T, val) == ((0,), (0,), F(2**62 - 1, 2**62))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_complete_graph_untouched():
    g = DiGraph.complete(8)
    p, tr = refine_intermediate(g, F(1, 4))
    assert p.parts == VertexPartition.trivial(8).parts
    assert not tr.steps


def test_refine_two_cliques_separates_at_tight_epsilon():
    g = two_cliques(4)
    p, tr = refine_intermediate(g, F(1, 5))
    assert check_intermediate(g, p, F(1, 5)).passed
    # every part stays within one clique
    for part in p.parts:
        assert all(v < 4 for v in part) or all(v >= 4 for v in part)
    assert len(tr.steps) >= 1
    for s in tr.steps:
        assert s.energy_after - s.energy_before >= (s.st_irregularity / 64) ** 2


def test_refine_passes_check_on_random_graphs():
    for seed in range(4):
        g = random_digraph(np.random.default_rng(seed), 10, 0.5)
        p, tr = refine_intermediate(g, F(1, 4))
        assert check_intermediate(g, p, F(1, 4)).passed
        assert p.size <= 10


def test_refine_alternating_oracle_mode():
    g = two_cliques(4)
    p, tr = refine_intermediate(g, F(1, 5), oracle_mode="alternating",
                                rng=np.random.default_rng(0))
    assert check_intermediate(g, p, F(1, 5)).passed


def test_refine_below_the_float_range():
    # the energy-increment cap is computed from the exact eps: float(eps) is
    # 0.0 at 10^-400, and dividing by it used to raise ZeroDivisionError
    eps = F(1, 10**400)
    g = random_digraph(np.random.default_rng(5), 6, 0.5)
    p, tr = refine_intermediate(g, eps)
    assert check_intermediate(g, p, eps).passed
    assert p.size <= 6 and tr.final_parts == p.size
    for s in tr.steps:
        assert s.energy_after - s.energy_before >= (s.st_irregularity / 36) ** 2


def test_refine_rejects_unknown_oracle_mode():
    # a misspelt mode used to run the alternating heuristic under its own name
    g = random_digraph(np.random.default_rng(0), 8, 0.5)
    with pytest.raises(DomainError):
        refine_intermediate(g, F(1, 5), oracle_mode="exactt")


def test_common_refinement_splits_and_drops_empties():
    p = VertexPartition(((0, 1, 2, 3),))
    p2 = common_refinement(p, {0, 1}, {1, 2})
    assert sorted(p2.parts) == [(0,), (1,), (2,), (3,)]


def test_energy_is_monotone_under_refinement():
    g = random_digraph(np.random.default_rng(12), 8, 0.5)
    p1 = VertexPartition.trivial(8)
    p2 = VertexPartition(((0, 1, 2, 3), (4, 5, 6, 7)))
    p3 = VertexPartition.singletons(8)
    assert mean_square_density(g, p1) <= mean_square_density(g, p2) \
        <= mean_square_density(g, p3)


def test_equivalence_bounds_on_random_graphs():
    for seed in range(6):
        g = random_digraph(np.random.default_rng(seed), 8, 0.5)
        p = VertexPartition(((0, 1, 2, 3), (4, 5), (6, 7)))
        report = equivalence_bounds(g, p, F(1, 4))
        assert "max_st_irregularity" in report
    # singleton partitions have zero irregularity: both directions trivially hold
    g = random_digraph(np.random.default_rng(99), 6, 0.5)
    rep = equivalence_bounds(g, VertexPartition.singletons(6), F(1, 9))
    assert rep["intermediate_pass"]
    assert rep["max_st_irregularity"] == 0
    assert rep.get("converse_verified")


@pytest.mark.parametrize("parts", [((0, 1), (2, 3)), ((0, 1, 2, 3), (4, 5, 6, 7))])
@pytest.mark.parametrize("entry", [
    lambda g, p: check_frieze_kannan(g, p, F(3, 10)),
    lambda g, p: check_intermediate(g, p, F(3, 10)),
    lambda g, p: check_szemeredi(g, p, F(3, 10)),
    lambda g, p: spot_check_intermediate(g, p, F(3, 10), np.random.default_rng(0), 10),
    max_st_irregularity,
    partition_to_predictor,
], ids=["frieze-kannan", "intermediate", "szemeredi", "spot-intermediate",
        "max-st-irregularity", "partition-to-predictor"])
def test_partition_of_another_vertex_count_is_rejected(entry, parts):
    # a 4-vertex partition used to check only the induced subgraph on 0..3,
    # and an 8-vertex one to index past the adjacency matrix
    g = random_digraph(np.random.default_rng(3), 6, 0.5)
    with pytest.raises(DomainError, match="partition covers"):
        entry(g, VertexPartition(parts))


def test_empty_partition_is_rejected():
    with pytest.raises(DomainError):
        VertexPartition(())


def test_random_digraph_rejects_negative_vertex_count():
    with pytest.raises(DomainError):
        random_digraph(np.random.default_rng(0), -1)


def test_rational_sqrt_upper():
    assert rational_sqrt_upper(F(1, 4)) == F(1, 2)
    assert rational_sqrt_upper(F(9, 100)) == F(3, 10)
    r = rational_sqrt_upper(F(1, 2))
    assert r * r >= F(1, 2)


# ---------------------------------------------------------------------------
# correspondence with fairness instances
# ---------------------------------------------------------------------------


def test_graph_to_instance_masses():
    g = DiGraph.empty(3)
    pop = graph_to_instance(g)
    assert pop.size == 9
    assert all(pop.p_true[j].p_one() == 0 for j in pop.ids)
    g2 = DiGraph(2, frozenset({(0, 1)}))
    pop2 = graph_to_instance(g2)
    positives = [j for j in pop2.ids if pop2.p_true[j].p_one() == 1]
    assert positives == [pair_id(0, 1)]


def test_graph_to_instance_shares_two_truth_objects():
    # every pair holds the edge or the non-edge truth object; the values and
    # emitted bytes are those of one Bernoulli built per pair
    from multifair import OutcomeDist, PopulationInstance
    from multifair.serialize import instance_to_json
    g = random_digraph(np.random.default_rng(7), 6, 0.5)
    pop = graph_to_instance(g)
    assert len({id(d) for d in pop.p_true.values()}) == 2
    per_pair = PopulationInstance(pop.space, pop.ids, pop.weight, {
        pair_id(u, v): OutcomeDist.bernoulli(F(int((u, v) in g.edges)))
        for u in range(6) for v in range(6)})
    assert pop.p_true == per_pair.p_true
    assert instance_to_json(pop) == instance_to_json(per_pair)


def test_density_predictor_block_values():
    g = two_cliques(2)  # vertices 0,1 and 2,3, cliques without loops
    p = VertexPartition(((0, 1), (2, 3)))
    pred = partition_to_predictor(g, p)
    assert pred.values[pair_id(0, 1)].p_one() == F(1, 2)  # within-clique density
    assert pred.values[pair_id(0, 2)].p_one() == 0


def test_partition_to_predictor_trivial_cases():
    g = DiGraph.complete(3)
    pred = partition_to_predictor(g, VertexPartition.trivial(3))
    assert all(d.p_one() == 1 for d in pred.values.values())
    g2 = random_digraph(np.random.default_rng(13), 4, 0.5)
    singles = partition_to_predictor(g2, VertexPartition.singletons(4))
    for u in range(4):
        for v in range(4):
            assert singles.values[pair_id(u, v)].p_one() == (1 if (u, v) in g2.edges else 0)


def test_predictor_to_partition_round_trip():
    # all four block densities distinct: 1/4, 1/2, 3/4, 1
    edges = {(0, 1),
             (0, 2), (0, 3),
             (2, 0), (2, 1), (3, 0),
             (2, 2), (2, 3), (3, 2), (3, 3)}
    g = DiGraph(4, frozenset(edges))
    p = VertexPartition(((0, 1), (2, 3)))
    pred = partition_to_predictor(g, p)
    recovered = predictor_to_partition(4, pred)
    assert recovered.parts == p.parts


def test_predictor_to_partition_rejects_shared_density():
    # two cliques: both diagonal blocks have density 1/2, so the level set
    # at 1/2 is a union of two products and recovery must refuse
    g = two_cliques(2)
    pred = partition_to_predictor(g, VertexPartition(((0, 1), (2, 3))))
    with pytest.raises(StructuralFailureError):
        predictor_to_partition(4, pred)


def test_predictor_to_partition_constant_two_vertices():
    from multifair import OutcomeDist, Predictor
    pred = Predictor({pair_id(u, v): OutcomeDist.bernoulli(F(1, 2))
                      for u in range(2) for v in range(2)})
    assert predictor_to_partition(2, pred).parts == ((0, 1),)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_predictor_partition_round_trip(data):
    """With all block-pair densities distinct, the density predictor's level
    sets are the blocks of P x P and recovery returns P.  Otherwise it
    raises, or, when the density is constant on the block pairs of a
    coarser partition Q (an empty graph, say), returns Q: a level set is
    then one block of Q x Q."""
    n = data.draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    g = DiGraph(n, frozenset(data.draw(st.sets(st.tuples(vertex, vertex)))))
    blocks = {}
    for v, label in enumerate(data.draw(st.lists(vertex, min_size=n, max_size=n))):
        blocks.setdefault(label, []).append(v)
    p = VertexPartition(tuple(blocks.values()))
    densities = [F(sum((u, v) in g.edges for u in a for v in b), len(a) * len(b))
                 for a in p.parts for b in p.parts]
    pred = partition_to_predictor(g, p)
    if len(set(densities)) == len(densities):
        assert predictor_to_partition(n, pred) == p
        return
    try:
        q = predictor_to_partition(n, pred)
    except StructuralFailureError:
        return
    assert len(q.parts) < len(p.parts)
    assert all(any(set(a) <= set(b) for b in q.parts) for a in p.parts)
    values = [{pred.values[pair_id(u, v)] for u in a for v in b}
              for a in q.parts for b in q.parts]
    assert all(len(v) == 1 for v in values) and len(set.union(*values)) == len(values)


def test_predictor_to_partition_rejects_union_level_sets():
    from multifair import OutcomeDist, Predictor
    # level sets {0}x{0} u {1}x{1} (value a) and the off-diagonal (value b):
    # a union of two products, not a single product
    a, b = F(1, 3), F(2, 3)
    values = {}
    for u in range(2):
        for v in range(2):
            values[pair_id(u, v)] = OutcomeDist.bernoulli(a if u == v else b)
    with pytest.raises(StructuralFailureError):
        predictor_to_partition(2, Predictor(values))


def test_block_identity_all_subsets_small():
    # residual identity: the level-restricted mass gap equals the block residual
    g = random_digraph(np.random.default_rng(14), 5, 0.5)
    p = VertexPartition(((0, 1), (2, 3), (4,)))
    pred = partition_to_predictor(g, p)
    dens = {}
    for a in p.parts:
        for b in p.parts:
            dens.setdefault(density(g, a, b), []).append((a, b))
    for ms in range(32):
        S = tuple(i for i in range(5) if ms >> i & 1)
        for mt in range(32):
            T = tuple(i for i in range(5) if mt >> i & 1)
            for level, blocks in dens.items():
                lhs = delta_st_level(g, pred, S, T, level)
                rhs = sum(
                    edge_count(g, set(S) & set(a), set(T) & set(b))
                    - density(g, a, b) * len(set(S) & set(a)) * len(set(T) & set(b))
                    for a, b in blocks)
                assert lhs == rhs


def test_density_predictor_multi_accuracy_identity():
    # the rectangle-class audit equals twice the worst |Delta_{S,T}| / n^2:
    # the statistical distance counts the gap once per outcome column and
    # once per hypothesis side, and the global gap Delta_{V,V} vanishes
    g = random_digraph(np.random.default_rng(15), 4, 0.5)
    p = VertexPartition(((0, 1), (2, 3)))
    pred = partition_to_predictor(g, p)
    pop = graph_to_instance(g)
    cls = rectangle_class(g)
    rep = audit_multi_accuracy(pop, pred, cls)
    worst = max(
        abs(delta_st(g, pred,
                     tuple(i for i in range(4) if ms >> i & 1),
                     tuple(i for i in range(4) if mt >> i & 1)))
        for ms in range(16) for mt in range(16))
    assert rep.value == 2 * worst / 16
    assert delta_st(g, pred, range(4), range(4)) == 0


def test_correspondence_regularity_implies_fairness_bounds():
    # exact constant-2 versions of the regularity -> fairness direction
    for seed in range(5):
        g = random_digraph(np.random.default_rng(20 + seed), 6, 0.5)
        p = VertexPartition(((0, 1), (2, 3), (4, 5)))
        pred = partition_to_predictor(g, p)
        pop = graph_to_instance(g)
        cls = rectangle_class(g)
        n2 = 36
        fk = check_frieze_kannan(g, p, F(1, 100))
        fk_worst = F(1, 100) * n2 - fk.slack  # the max FK deviation
        assert audit_multi_accuracy(pop, pred, cls).value == 2 * fk_worst / n2
        st_worst, _, _ = max_st_irregularity(g, p)
        assert audit_multi_calibration(pop, pred, cls).value <= 2 * st_worst / n2
        irr = partition_irregularity(g, p)
        assert audit_strict_multi_calibration(pop, pred, cls).value <= 2 * irr / n2


def test_rectangle_class_guard():
    with pytest.raises(EnumerationLimitError):
        rectangle_class(DiGraph.complete(7))


def test_rectangle_hypothesis_values():
    h = rectangle_hypothesis(3, (0,), (1, 2))
    assert h.values[pair_id(0, 1)] == 1
    assert h.values[pair_id(1, 1)] == 0


# ---------------------------------------------------------------------------
# xor product
# ---------------------------------------------------------------------------


def test_xor_product_empty_and_complete_factors():
    gadget = single_edge_gadget()
    g_empty = DiGraph.empty(3)
    x1 = xor_product(g_empty, gadget)
    # edges exactly where the gadget has them: the b1 != b2 pairs
    assert all((u % 2) != (v % 2) for u, v in x1.edges)
    assert len(x1.edges) == 9 * 2
    g_full = DiGraph.complete(3, loops=True)
    x2 = xor_product(g_full, gadget)
    assert all((u % 2) == (v % 2) for u, v in x2.edges)


def test_xor_product_pair_partition_densities_half():
    for seed in range(4):
        g = random_digraph(np.random.default_rng(seed), 5, 0.5)
        x = xor_product(g, single_edge_gadget())
        p = pair_partition(g, single_edge_gadget())
        for a in p.parts:
            for b in p.parts:
                assert density(x, a, b) == F(1, 2)


def test_xor_product_witness_irregularity():
    for n in (3, 4, 5, 6):
        g = random_digraph(np.random.default_rng(n), n, 0.5)
        x = xor_product(g, single_edge_gadget())
        p = pair_partition(g, single_edge_gadget())
        S = tuple(v * 2 for v in range(n))  # the b = first-gadget-vertex copy
        val = partition_st_irregularity(x, p, S, S)
        assert val == F((2 * n) ** 2, 8)


def test_spot_check_intermediate_labeled_nonexhaustive():
    g = random_digraph(np.random.default_rng(30), 10, 0.5)
    p = VertexPartition.trivial(10)
    rep = spot_check_intermediate(
        g, p, F(9, 10), np.random.default_rng(0), samples=50)
    assert rep.exhaustive is False
    assert rep.kind == "intermediate-spot"


def test_spot_check_intermediate_samples_every_vertex():
    # vertices 0..61 carry no edges, so every block touching them is regular;
    # the only irregular block is a 4-clique inside the part 62..69, which
    # masks drawn below 1 << 62 never reached
    n = 70
    edges = frozenset((u, v) for u in range(62, 66) for v in range(62, 66))
    g = DiGraph(n, edges)
    p = VertexPartition((tuple(range(62)), tuple(range(62, 70))))
    rep = spot_check_intermediate(g, p, F(1, 10000), np.random.default_rng(0), samples=20)
    assert not rep.passed
    S, T = rep.witness
    assert max(S) >= 62 and max(T) >= 62


def test_graph_serialization_round_trip():
    from multifair import serialize
    g = random_digraph(np.random.default_rng(31), 7, 0.4)
    doc = serialize.graph_to_json(g)
    assert serialize.graph_from_json(doc).edges == g.edges
    p = VertexPartition(((0, 2), (1, 3), (4, 5, 6)))
    assert serialize.partition_from_json(serialize.partition_to_json(p)).parts == p.parts
    text = "4 0 1 1 2 2 3"
    gt = serialize.graph_from_text(text)
    assert gt.n == 4 and gt.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_sigma_enumeration_validates_direct_search():
    for seed in range(5):
        g = random_digraph(np.random.default_rng(70 + seed), 6, 0.5)
        for parts in [((0, 1, 2), (3, 4, 5)), ((0, 1), (2, 3), (4, 5)),
                      ((0, 1, 2, 3, 4, 5),)]:
            p = VertexPartition(parts)
            direct, _, _ = max_st_irregularity(g, p)
            assert max_st_irregularity_sigma_enum(g, p) == direct
    with pytest.raises(EnumerationLimitError):
        max_st_irregularity_sigma_enum(
            random_digraph(np.random.default_rng(0), 8, 0.5),
            VertexPartition(((0, 1), (2, 3), (4, 5), (6, 7))))
