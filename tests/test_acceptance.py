"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at run
time.  All audits and graph checks are exact rational computations unless
a line says otherwise.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

import multifair as mf
from oracles import audit_oi_mc_bruteforce, irregularity_bruteforce, stat_distance_subset_oracle


def _report(num, ok, text, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {text} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------


def test_criterion_01_monotone_chain():
    t0 = time.time()
    rng = np.random.default_rng(20260801)
    ok = True
    for _ in range(200):
        pop, cls, pred = mf.random_instance(
            rng,
            n_individuals=int(rng.integers(2, 21)),
            n_outcomes=int(rng.integers(2, 5)),
            n_hypotheses=int(rng.integers(1, 11)),
        )
        ma = mf.audit_multi_accuracy(pop, pred, cls).value
        mc = mf.audit_multi_calibration(pop, pred, cls).value
        smc = mf.audit_strict_multi_calibration(pop, pred, cls).value
        ok = ok and (ma <= mc <= smc)
    _report(1, ok and time.time() - t0 < 30,
            "multi-accuracy <= multi-calibration <= strict, exactly, "
            "on 200 seeded instances", t0)


def test_criterion_02_grid_fixture_closed_forms():
    t0 = time.time()
    pop, cls, pred = mf.fixture_grid_population(50)
    ok = mf.audit_multi_calibration(pop, pred, cls).value == F(1, 100)
    ok &= mf.audit_strict_multi_calibration(pop, pred, cls).value == F(41650, 125000)
    prev = F(0)
    for m in range(10, 61):
        popm, clsm, predm = mf.fixture_grid_population(m)
        smc = mf.audit_strict_multi_calibration(popm, predm, clsm).value
        closed = mf.grid_fixture_smc_closed_form(m)
        ok &= smc == closed == F(m * m - 1, 3 * m * m)
        ok &= prev < smc < F(1, 3)
        prev = smc
    _report(2, ok and time.time() - t0 < 10,
            "grid-fixture audits equal their closed forms at m=50 and are "
            "monotone toward 1/3 over m=10..60", t0)


def test_criterion_03_two_point_fixture():
    t0 = time.time()
    pop, cls, pred = mf.fixture_two_point()
    ma = mf.audit_multi_accuracy(pop, pred, cls).value
    mc = mf.audit_multi_calibration(pop, pred, cls).value
    ok = ma == 0 and mc == F(1, 2) and mc > F(1, 3)
    _report(3, ok and time.time() - t0 < 1,
            "two-point fixture: multi-accuracy exactly 0, multi-calibration "
            "exactly 1/2 (> 1/3)", t0)


def test_criterion_04_discretization_inequality():
    t0 = time.time()
    rng = np.random.default_rng(20260804)
    grid = mf.make_grid_with_denominator(mf.binary_space(), 8)
    ok = grid.size == 9 and grid.eta == F(1, 8)
    for _ in range(100):
        pop, cls, pred = mf.random_instance(
            rng, int(rng.integers(2, 10)), 2, int(rng.integers(1, 5)))
        phat = mf.discretize(pred, grid)
        lhs = mf.audit_strict_multi_calibration(pop, phat, cls).value
        rhs = grid.size * mf.audit_multi_calibration(pop, pred, cls).value + grid.eta
        ok = ok and lhs <= rhs
    _report(4, ok and time.time() - t0 < 30,
            "strict audit of the rounded predictor <= |grid| * MC + eta, "
            "exactly, on 100 binary instances (grid m=8)", t0)


def test_criterion_05_regret_bounds():
    t0 = time.time()
    rng = np.random.default_rng(20260805)
    ok = True
    for make in (mf.mwu_rule, mf.pgd_rule):
        for _ in range(100):
            ell = int(rng.integers(2, 6))
            space = mf.binary_space() if ell == 2 else \
                mf.OutcomeSpace(tuple(str(i) for i in range(ell)))
            t_len = int(rng.integers(1, 1001))
            eta = float(rng.uniform(0.01, 1.0))
            mode = rng.integers(0, 3)
            losses = []
            for i in range(t_len):
                if mode == 0:
                    row = rng.random(ell)
                elif mode == 1:  # adversarial alternation
                    row = np.zeros(ell)
                    row[i % ell] = 1.0
                else:  # spiky adversary
                    row = (rng.random(ell) > 0.5).astype(float)
                losses.append(mf.LossTable(space, tuple(row)))
            rule = make(space, eta)
            res = mf.measure_regret(rule, losses)
            for o in space.labels:
                ok = ok and res.per_strategy[o] <= mf.regret_bound(rule, losses, o) + 1e-9
    _report(5, ok and time.time() - t0 < 30,
            "measured regret <= closed-form mwu/pgd bounds on 100 adversarial "
            "sequences each, tolerance 1e-9", t0)


def test_criterion_06_exact_constructor():
    t0 = time.time()
    cap = math.ceil(2 * math.log(8) / 0.01)
    ok = cap == 416
    eps = F(1, 10)
    for seed in range(50):
        rng = np.random.default_rng(30000 + seed)
        pop, cls, _ = mf.random_instance(rng, int(rng.integers(6, 13)), 8,
                                         int(rng.integers(2, 6)))
        grid = mf.make_grid_with_denominator(pop.space, 2)
        fam = mf.make_family("mc", hypotheses=cls, grid=grid)
        rule = mf.mwu_rule(pop.space, step_size=float(eps))
        out, tr = mf.construct_exact(pop, fam, eps, rule=rule)
        ok = ok and tr.iteration_count <= cap
        ok = ok and tr.final_audit <= eps
        ok = ok and mf.audit_oi(pop, out, fam).value == tr.final_audit
    _report(6, ok and time.time() - t0 < 300,
            "exact mwu constructor: 50 runs at l=8, eps=0.1 terminate within "
            "416 iterations with exact OI audit <= 0.1", t0)


def test_criterion_07_sampled_constructor():
    t0 = time.time()
    eps, beta = 0.15, 0.05
    pop, cls, _ = mf.random_instance(np.random.default_rng(123), 8, 4, 6)
    grid = mf.make_grid_with_denominator(pop.space, 2)
    fam = mf.make_family("basic", hypotheses=cls, grid=grid)
    # ERM searches the family closed under negation; that closure is |A|
    n_formula = math.ceil(8 * math.log(2 * (2 * fam.member_count()) / beta)
                          / (eps / 2) ** 2)
    cap = math.ceil(8 * math.log(4) / eps ** 2)
    ok = cap == 493
    successes = 0
    for seed in range(20):
        out, tr = mf.construct_sampled(pop, fam, eps, beta=beta,
                                       rng=np.random.default_rng(seed), seed=seed)
        ok = ok and all(rec.samples_drawn == n_formula for rec in tr.iterations)
        ok = ok and tr.iteration_count <= cap
        if tr.succeeded and tr.final_audit <= F(3, 20):
            successes += 1
    _report(7, ok and successes >= 18 and time.time() - t0 < 300,
            f"sampled constructor: {successes}/20 seeds end with exact audit "
            f"<= 0.15; per-iteration samples = ceil(8 ln(2|A|/beta)/(eps/2)^2) "
            f"= {n_formula}; iterations <= {cap}", t0)


def test_criterion_08_randomized_selection():
    t0 = time.time()
    pop, cls, pred = mf.fixture_two_point()
    grid = mf.SimplexGrid.from_points(
        [mf.OutcomeDist.bernoulli(F(0)), mf.OutcomeDist.bernoulli(F(1))], eta=F(1, 2))
    eps_prime = F(1, 2) / 16  # 1/2 divided by 8 sqrt(2 |G|) with |G| = 2
    hits = 0
    for seed in range(20):
        d = mf.select_distinguisher_randomized(
            pop, pred, cls, eps_prime, 0.1, np.random.default_rng(seed), grid)
        if d is not None and mf.oi_advantage(pop, pred, d) > 0:
            hits += 1
    gt = pop.ground_truth_predictor()
    quiet = 0
    for seed in range(20):
        d = mf.select_distinguisher_randomized(
            pop, gt, cls, eps_prime, 0.1, np.random.default_rng(1000 + seed), grid)
        if d is None or abs(mf.oi_advantage(pop, gt, d)) <= eps_prime / 2:
            quiet += 1
    _report(8, hits >= 18 and quiet >= 18 and time.time() - t0 < 120,
            f"randomized selection: positive-advantage member on {hits}/20 "
            f"fixture seeds; none-or-harmless on {quiet}/20 ground-truth seeds", t0)


def test_criterion_09_block_identity():
    t0 = time.time()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(40000 + seed)
        g = mf.random_digraph(rng, 6, 0.5)
        # random partition of 6 vertices
        labels = rng.integers(0, int(rng.integers(2, 5)), size=6)
        parts = {}
        for v, b in enumerate(labels.tolist()):
            parts.setdefault(b, []).append(v)
        p = mf.VertexPartition(tuple(tuple(sorted(vs)) for vs in parts.values()))
        pred = mf.partition_to_predictor(g, p)
        adj = g.adjacency()
        # integer-scaled data: level index per vertex pair, scaled densities
        scale = 1
        for a in p.parts:
            for b in p.parts:
                prod = len(a) * len(b)
                scale = scale * prod // math.gcd(scale, prod)
        block_of = p.block_of()
        e_blocks = {}
        dnum = {}
        for j, a in enumerate(p.parts):
            for k, b in enumerate(p.parts):
                e = mf.edge_count(g, a, b)
                e_blocks[(j, k)] = e
                dnum[(j, k)] = e * (scale // (len(a) * len(b)))
        level_of_block = {}
        for key, num in dnum.items():
            level_of_block.setdefault(num, []).append(key)
        masks = [1 << v for v in range(6)]
        for s_mask in range(64):
            s_list = [v for v in range(6) if s_mask >> v & 1]
            for t_mask in range(64):
                t_list = [v for v in range(6) if t_mask >> v & 1]
                lhs = {}
                for u in s_list:
                    row = adj[u]
                    bu = block_of[u]
                    for v in t_list:
                        key = dnum[(bu, block_of[v])]
                        lhs[key] = lhs.get(key, 0) + int(row[v]) * scale - key
                rhs = {}
                for num, blocks in level_of_block.items():
                    total = 0
                    for (j, k) in blocks:
                        sa = [u for u in s_list if block_of[u] == j]
                        tb = [v for v in t_list if block_of[v] == k]
                        if not sa or not tb:
                            continue
                        e = sum(int(adj[u, v]) for u in sa for v in tb)
                        total += e * scale - dnum[(j, k)] * len(sa) * len(tb)
                    if total or num in lhs:
                        rhs[num] = total
                for key in set(lhs) | set(rhs):
                    ok = ok and lhs.get(key, 0) == rhs.get(key, 0)
        if not ok:
            break
    _report(9, ok and time.time() - t0 < 120,
            "level-restricted mass gap equals the summed block residuals for "
            "ALL S,T on 50 seeded n=6 graphs with random partitions", t0)


def test_criterion_10_intermediate_partitioner():
    t0 = time.time()
    eps = F(3, 10)
    parts_cap = min(12, 4 ** int(1 / 0.09))
    ok = True
    for seed in range(20):
        g = mf.random_digraph(np.random.default_rng(50000 + seed), 12, 0.5)
        p, tr = mf.refine_intermediate(g, eps)
        ok = ok and mf.check_intermediate(g, p, eps).passed
        ok = ok and p.size <= parts_cap
        for step in tr.steps:
            ok = ok and (step.energy_after - step.energy_before >= eps * eps / 4)
    _report(10, ok and time.time() - t0 < 300,
            "refinement output passes the exact intermediate check on 20 "
            "seeded G(12, 1/2) graphs at eps=0.3; parts and per-step energy "
            "increments within bounds", t0)


def test_criterion_11_regularity_hierarchy():
    t0 = time.time()
    eps = F(3, 10)
    from multifair.graph import rational_sqrt_upper
    root = rational_sqrt_upper(eps)
    ok = True
    for seed in range(20):
        g = mf.random_digraph(np.random.default_rng(50000 + seed), 12, 0.5)
        p, _ = mf.refine_intermediate(g, eps)
        n2 = 144
        # Szemeredi irregularity form at eps implies intermediate at sqrt(eps)
        irr = mf.partition_irregularity(g, p)
        if irr <= eps * n2:
            ok = ok and mf.check_intermediate(g, p, root).passed
        # triangle inequality: the FK deviation never exceeds the worst
        # (S,T)-irregularity, so intermediate at eps forces FK at 2 eps
        worst_st, _, _ = mf.max_st_irregularity(g, p)
        fk = mf.check_frieze_kannan(g, p, eps)
        fk_worst = eps * n2 - fk.slack
        ok = ok and fk_worst <= worst_st
        if mf.check_intermediate(g, p, eps).passed:
            ok = ok and worst_st <= 2 * eps * n2
            ok = ok and mf.check_frieze_kannan(g, p, 2 * eps).passed
    _report(11, ok and time.time() - t0 < 300,
            "hierarchy on the criterion-10 graphs: Szemeredi irregularity "
            "form -> intermediate at sqrt(eps); intermediate -> Frieze-Kannan "
            "via the exact triangle inequality", t0)


def test_criterion_12_xor_product():
    t0 = time.time()
    ok = True
    gadget = mf.single_edge_gadget()
    for n in (2, 3, 4, 5, 6):
        g = mf.random_digraph(np.random.default_rng(60000 + n), n, 0.5)
        x = mf.xor_product(g, gadget)
        p = mf.pair_partition(g, gadget)
        for a in p.parts:
            for b in p.parts:
                ok = ok and mf.density(x, a, b) == F(1, 2)
        s_prime = tuple(v * 2 for v in range(n))
        val = mf.partition_st_irregularity(x, p, s_prime, s_prime)
        ok = ok and val == F((2 * n) ** 2, 8)
    _report(12, ok and time.time() - t0 < 60,
            "xor-product pair partition: every block density exactly 1/2 and "
            "the b=1 witness gives irregularity exactly |V'|^2/8", t0)


def test_criterion_13_omniprediction():
    t0 = time.time()
    rng = np.random.default_rng(20260813)
    ok = True
    for _ in range(100):
        pop, cls, pred = mf.random_instance(
            rng, int(rng.integers(2, 13)), 2, int(rng.integers(1, 6)))
        chk = mf.omni_bound_check(pop, pred, [mf.zero_one_loss(pop.space)], cls)
        ok = ok and chk["omni_audit"] <= chk["calibration"] + chk["multi_accuracy"]
    pop, cls, _ = mf.random_instance(rng, 6, 2, 3)
    gt = pop.ground_truth_predictor()
    chk = mf.omni_bound_check(pop, gt, [mf.zero_one_loss(pop.space)], cls)
    ok = ok and chk["omni_audit"] == 0 == chk["calibration"] == chk["multi_accuracy"]
    _report(13, ok and time.time() - t0 < 60,
            "omniprediction gap <= calibration + multi-accuracy, exactly, on "
            "100 instances; all three vanish at the ground truth", t0)


def test_criterion_14_oracle_equivalences():
    t0 = time.time()
    rng = np.random.default_rng(20260814)
    ok = True
    # statistical distance vs subset-enumeration oracle, support <= 12
    for _ in range(100):
        k = int(rng.integers(2, 13))
        raw = [int(a) for a in rng.integers(0, 9, size=k)]
        raw[0] = max(raw[0], 1)
        raw2 = [int(a) for a in rng.integers(0, 9, size=k)]
        raw2[0] = max(raw2[0], 1)
        p = {i: F(a, sum(raw)) for i, a in enumerate(raw)}
        q = {i: F(a, sum(raw2)) for i, a in enumerate(raw2)}
        ok = ok and mf.stat_distance(p, q) == stat_distance_subset_oracle(p, q)
    # mc closed form vs exhaustive event enumeration, |Y| l |G| = 12 cells
    grid = mf.SimplexGrid.from_points(
        [mf.OutcomeDist.bernoulli(F(0)), mf.OutcomeDist.bernoulli(F(1, 2)),
         mf.OutcomeDist.bernoulli(F(1))], eta=F(1, 4))
    for case in range(100):
        pop, cls, pred = mf.random_instance(
            np.random.default_rng(70000 + case), int(rng.integers(2, 7)), 2, 2)
        fam = mf.make_family("mc", hypotheses=cls, grid=grid)
        ok = ok and mf.audit_oi(pop, pred, fam).value == \
            audit_oi_mc_bruteforce(pop, pred, cls, grid)
    # irregularity fast enumeration vs naive double enumeration, sides <= 6
    for case in range(100):
        r = np.random.default_rng(80000 + case)
        g = mf.random_digraph(r, 6, float(r.uniform(0.2, 0.8)))
        nx = int(r.integers(2, 7))
        ny = int(r.integers(2, 7))
        X = tuple(sorted(r.choice(6, size=nx, replace=False).tolist()))
        Y = tuple(sorted(r.choice(6, size=ny, replace=False).tolist()))
        ok = ok and mf.irregularity(g, X, Y) == irregularity_bruteforce(g, X, Y)
    _report(14, ok and time.time() - t0 < 180,
            "oracle equivalences: half-L1 vs subset enumeration, closed-form "
            "mc audit vs exhaustive events, fast vs naive irregularity "
            "(100 seeded cases each)", t0)
