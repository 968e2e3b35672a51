"""The benchmark's four workloads: seeded inputs, ops, and output checks.

Every workload is a closed loop: one process, one caller, one op at a
time.  ``WORKLOADS[name](seed, workdir)`` generates the inputs from the
seed alone and returns a Plan whose rounds are lists of Ops.  An op calls the
library (or the CLI in-process) once; its result is summarized and checked
outside the timed region.

Checks have three parts:

* ``verify`` runs on the first occurrence of an op key and asserts an
  identity that holds for any seed (MA <= MC <= SMC, float within 1e-9 of
  rational, the omni bound, constructor final audits, refine outputs that
  pass the exact check, ...).
* ``relations`` compare ops of one round with each other.
* At the default seed every exact summary value must equal the value
  recorded in ``expected.json``.  Witnesses, transcripts and refined
  partitions are never recorded, because tie-breaks may legitimately
  change.

Later occurrences of a key must reproduce the first occurrence's summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import multifair as mf
from multifair import cli, serialize

FLOAT_TOL = 1e-9


class CheckError(Exception):
    """An op returned a wrong result."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    key: str  # names input and call; equal keys must give equal summaries
    run: object  # () -> result; the timed call
    summarize: object  # result -> {name: value}; names starting "_" are not recorded
    verify: object = None  # (result, summary) -> None, raises CheckError


@dataclass
class Plan:
    rounds: list  # list of lists of Op; the timed phase cycles through them
    tail_percentile: float  # op_tail_ms target; lowered when samples are too few
    relations: list = field(default_factory=list)  # (summaries by key) -> [(keys, msg)]
    inputs: dict = field(default_factory=dict)  # input properties for the report
    calibration: str = "python"  # the run.CALIBRATIONS entry whose work resembles the ops

    def warmup(self):
        self.rounds[0][0].run()


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# audit-pop
# ---------------------------------------------------------------------------

AUDIT_EPS = Fraction(1, 10)


def _report_value(report):
    return {"value": report.value}


def _check_unit_interval(result, summary):
    for k, v in summary.items():
        if isinstance(v, (Fraction, float)):
            require(0 <= v <= 1, f"{k}={v} outside [0, 1]")


def _check_omni(result, summary):
    require(summary["holds"] is True, "omni bound reported as failing")
    require(summary["omni"] <= summary["calibration"] + summary["multi_accuracy"],
            "omni audit exceeds calibration + multi-accuracy")


def _audit_ops(tag, pop, cls, pred, grid_denominator, binary, heavy):
    """Op list for one population; heavy=False drops cov, omni and OI."""
    ops = []

    def add(kind, run, summarize=_report_value, verify=_check_unit_interval):
        ops.append(Op(f"{tag}:{kind}", run, summarize, verify))

    add("MA", lambda: mf.audit_multi_accuracy(pop, pred, cls))
    add("MC", lambda: mf.audit_multi_calibration(pop, pred, cls))
    add("SMC", lambda: mf.audit_strict_multi_calibration(pop, pred, cls))
    add("cal", lambda: mf.audit_calibration(pop, pred), lambda v: {"value": v})
    if binary:
        if heavy:
            add("cov", lambda: mf.audit_covariance_mc(pop, pred, cls))
        add("viol", lambda: mf.violation_profile(pop, pred, cls),
            lambda r: {"count": len(r.entries), "sum": sum(r.entries.values(), Fraction(0)),
                       "max": max(r.entries.values())},
            lambda r, s: require(0 <= s["max"] <= 1, "violation outside [0, 1]"))
        for ck in ("MA", "MC", "SMC"):
            add(f"cond{ck}",
                lambda ck=ck: mf.check_conditional(pop, pred, cls, AUDIT_EPS, ck),
                lambda r: {"pass": r.passed}, None)
    if heavy:
        losses = [mf.zero_one_loss(pop.space)]
        add("omni", lambda: mf.omni_bound_check(pop, pred, losses, cls),
            lambda d: {"omni": d["omni_audit"], "calibration": d["calibration"],
                       "multi_accuracy": d["multi_accuracy"], "holds": d["bound_holds"]},
            _check_omni)
    add("fMA", lambda: mf.audit_multi_accuracy(pop, pred, cls, "float"))
    add("fMC", lambda: mf.audit_multi_calibration(pop, pred, cls, "float"))
    add("fSMC", lambda: mf.audit_strict_multi_calibration(pop, pred, cls, "float"))
    if heavy:
        grid = mf.make_grid_with_denominator(pop.space, grid_denominator)
        for fk in ("basic", "mc", "smc"):
            fam = mf.make_family(fk, hypotheses=cls, grid=grid)
            add(f"oi-{fk}", lambda fam=fam: mf.audit_oi(pop, pred, fam))
    return ops


def _audit_relations(tags):
    def rel(values):
        out = []
        for tag in tags:
            v = {k.split(":", 1)[1]: s for k, s in values.items() if k.startswith(tag + ":")}

            def val(kind):
                return v[kind]["value"] if kind in v else None

            chain = [(k, val(k)) for k in ("MA", "MC", "SMC") if val(k) is not None]
            for (ka, a), (kb, b) in zip(chain, chain[1:]):
                if not a <= b:
                    out.append(([f"{tag}:{ka}", f"{tag}:{kb}"], f"{ka} > {kb}"))
            for k in ("MA", "MC", "SMC"):
                if val(k) is not None and val("f" + k) is not None:
                    if abs(float(val(k)) - val("f" + k)) > FLOAT_TOL:
                        out.append(([f"{tag}:{k}", f"{tag}:f{k}"],
                                    f"float {k} differs from rational by more than 1e-9"))
            if "omni" in v:
                om = v["omni"]
                if val("MA") is not None and om["multi_accuracy"] != val("MA"):
                    out.append(([f"{tag}:omni", f"{tag}:MA"], "omni MA differs from MA"))
                if val("cal") is not None and om["calibration"] != val("cal"):
                    out.append(([f"{tag}:omni", f"{tag}:cal"], "omni cal differs from cal"))
            oi = [(k, val(k)) for k in ("oi-basic", "oi-mc", "oi-smc") if val(k) is not None]
            for (ka, a), (kb, b) in zip(oi, oi[1:]):
                if not a <= b:
                    out.append(([f"{tag}:{ka}", f"{tag}:{kb}"], f"{ka} > {kb}"))
        return out
    return rel


def audit_pop(seed, workdir):
    """Single audit calls on three populations plus a low-degree OI audit.

    Random instances take the big-int path (D far above 2^40), the grid
    fixture the int64 numpy path, and the float ops the float backend.
    Covariance, omni and OI audits on the grid fixture cost O(m^3) at
    m=50 (1.5-3 s each) and are measured on the random instances instead.
    """
    rng = _rng(seed, 1)
    r2 = mf.random_instance(rng, 3000, 2, 8)
    r8 = mf.random_instance(rng, 600, 8, 4)
    low = mf.random_instance(rng, 200, 2, 4)
    grid = mf.fixture_grid_population(50)
    ops = []
    ops += _audit_ops("grid50", *grid, None, binary=True, heavy=False)
    ops += _audit_ops("rand3000x2", *r2, 4, binary=True, heavy=True)
    ops += _audit_ops("rand600x8", *r8, 2, binary=False, heavy=True)
    lpop, lcls, lpred = low
    fam = mf.make_family("lowdegree", hypotheses=lcls, degree=2, outcome_space=lpop.space)
    ops.append(Op("rand200x2:oi-lowdegree2", lambda: mf.audit_oi(lpop, lpred, fam),
                  _report_value, _check_unit_interval))
    return Plan(rounds=[ops], tail_percentile=85, relations=[
        _audit_relations(["grid50", "rand3000x2", "rand600x8"])],
        inputs={"rand3000x2": (r2[0], r2[2]), "rand600x8": (r8[0], r8[2]),
                "grid50": (grid[0], grid[2])})


# ---------------------------------------------------------------------------
# construct-exact
# ---------------------------------------------------------------------------

CONSTRUCT_EPS = Fraction(1, 10)
SAMPLED_EPS, SAMPLED_BETA = 0.15, 0.05
CONSTRUCT_ROUND = ("mc-mwu", "mc-mwu", "smc-mwu", "mc-mwu", "mc-pgd",
                   "mc-mwu", "mc-mwu", "smc-mwu", "mc-mwu", "sampled")
CONSTRUCT_ROUNDS = 24


def _construct_summary(result):
    return {"final_audit": Fraction(result[1].final_audit)}


def _exact_construct_op(key, pop, fam, rule):
    def verify(result, summary):
        out, tr = result
        require(tr.final_audit <= CONSTRUCT_EPS, "final audit above eps")
        require(mf.audit_oi(pop, out, fam).value == tr.final_audit,
                "final audit differs from a fresh audit_oi")
        require(tr.iteration_count <= math.ceil(tr.iteration_bound) + 1,
                "iterations beyond the regret bound")
    return Op(key, lambda: mf.construct_exact(pop, fam, CONSTRUCT_EPS, rule=rule),
              _construct_summary, verify)


def _sampled_construct_op(key, pop, fam, sampler_seed):
    n_formula = math.ceil(8 * math.log(2 * (2 * fam.member_count()) / SAMPLED_BETA)
                          / (SAMPLED_EPS / 2) ** 2)

    def run():
        return mf.construct_sampled(pop, fam, SAMPLED_EPS, beta=SAMPLED_BETA,
                                    rng=np.random.default_rng(sampler_seed))

    def verify(result, summary):
        # final audit <= eps holds only with probability 1 - beta, so it is
        # not a correctness check here
        out, tr = result
        require(tr.succeeded, "sampled run reported failure")
        require(all(rec.samples_drawn == n_formula for rec in tr.iterations),
                "per-iteration sample count differs from the Hoeffding formula")
        require(mf.audit_oi(pop, out, fam).value == tr.final_audit,
                "final audit differs from a fresh audit_oi")
    return Op(key, run, _construct_summary, verify)


def construct_exact(seed, workdir):
    """Tiny populations, many constructor iterations: per-iteration overhead.

    Slot i has a fixed shape (6-12 individuals cycling, 2-5 hypotheses,
    8 outcomes, grid denominator 2, eps 1/10) and seeded values, so
    seeds differ in values but not in the size mix.  Of the ten slots of a
    round, two use the smc family and one the pgd rule; the last is a
    sampled run on the instance of acceptance criterion 7 with a seeded
    sampler (random instances there make run time heavy-tailed: up to 3 s).
    """
    # the instance of acceptance criterion 7; only the sampler's seed varies
    pop, cls, _ = mf.random_instance(np.random.default_rng(123), 8, 4, 6)
    grid = mf.make_grid_with_denominator(pop.space, 2)
    sampled = (pop, mf.make_family("basic", hypotheses=cls, grid=grid))
    rounds = []
    for r in range(CONSTRUCT_ROUNDS):
        ops = []
        for s, kind in enumerate(CONSTRUCT_ROUND):
            i = r * len(CONSTRUCT_ROUND) + s
            key = f"slot{i}:{kind}"
            if kind == "sampled":
                ops.append(_sampled_construct_op(key, *sampled, [seed, 2, i]))
                continue
            n = 6 + (3 * i) % 7
            pop, cls, _ = mf.random_instance(_rng(seed, 2, i), n, 8, 2 + i % 4)
            grid = mf.make_grid_with_denominator(pop.space, 2)
            family, rule_kind = kind.split("-")
            fam = mf.make_family(family, hypotheses=cls, grid=grid)
            if rule_kind == "mwu":
                rule = mf.mwu_rule(pop.space, step_size=float(CONSTRUCT_EPS))
            else:
                rule = mf.pgd_rule(pop.space, step_size=float(CONSTRUCT_EPS) / pop.space.size)
            ops.append(_exact_construct_op(key, pop, fam, rule))
        rounds.append(ops)
    return Plan(rounds=rounds, tail_percentile=85)


# ---------------------------------------------------------------------------
# graph-regularity
# ---------------------------------------------------------------------------

GNP_EPS = Fraction(3, 10)
PLANTED_EPS = Fraction(1, 5)
CHECK_EPS = Fraction(1, 5)
CHECK_SHAPES = ((7, 7), (5, 5, 4), (4, 4, 3, 3))
GRAPH_ROUNDS = 12
GNP_GRAPHS = 2


def planted_graph(rng, sizes, p_in=0.85, p_out=0.15):
    """Random digraph with planted blocks of the given sizes, and that partition."""
    n = sum(sizes)
    perm = rng.permutation(n)
    block = np.empty(n, dtype=np.int64)
    parts = []
    start = 0
    for b, size in enumerate(sizes):
        members = sorted(int(v) for v in perm[start:start + size])
        parts.append(tuple(members))
        block[members] = b
        start += size
    prob = np.where(block[:, None] == block[None, :], p_in, p_out)
    adj = rng.random((n, n)) < prob
    np.fill_diagonal(adj, False)
    g = mf.DiGraph(n, frozenset(map(tuple, np.argwhere(adj).tolist())))
    return g, mf.VertexPartition(tuple(parts))


def _refine_op(key, g, eps):
    def summarize(result):
        p, _ = result
        return {"_parts": str(p.parts)}

    def verify(result, summary):
        p, tr = result
        require(mf.check_intermediate(g, p, eps).passed,
                "refine output fails the exact intermediate check")
        require(p.size <= g.n, "more parts than vertices")
        for step in tr.steps:
            require(step.energy_after - step.energy_before >= eps * eps / 4,
                    "refine step below the energy increment")
    return Op(key, lambda: mf.refine_intermediate(g, eps), summarize, verify)


def _check_ops(tag, g, p):
    n2 = g.n * g.n

    def check_summary(rep):
        return {"pass": rep.passed, "slack": rep.slack}

    def verify_int(rep, summary):
        require(summary["slack"] >= 0 if rep.passed else summary["slack"] < 0,
                "pass flag disagrees with slack")
        if rep.passed:
            worst, _, _ = mf.max_st_irregularity(g, p)
            require(worst <= 2 * CHECK_EPS * n2, "intermediate pass but worst > 2 eps n^2")
            require(mf.check_frieze_kannan(g, p, 2 * CHECK_EPS).passed,
                    "intermediate pass but Frieze-Kannan at 2 eps fails")

    def verify_st(result, summary):
        value, S, T = result
        require(mf.partition_st_irregularity(g, p, S, T) == value,
                "witness does not attain the reported irregularity")

    return [
        Op(f"{tag}:check-fk", lambda: mf.check_frieze_kannan(g, p, CHECK_EPS),
           check_summary, None),
        Op(f"{tag}:max-st", lambda: mf.max_st_irregularity(g, p),
           lambda r: {"value": r[0]}, verify_st),
        Op(f"{tag}:check-int", lambda: mf.check_intermediate(g, p, CHECK_EPS),
           check_summary, verify_int),
    ]


def _graph_relations(values):
    """FK deviation <= worst (S,T)-irregularity on each checked partition."""
    out = []
    n2 = sum(CHECK_SHAPES[0]) ** 2
    for key, s in values.items():
        if not key.endswith(":check-fk"):
            continue
        tag = key.rsplit(":", 1)[0]
        st = values.get(f"{tag}:max-st")
        if st is not None and CHECK_EPS * n2 - s["slack"] > st["value"]:
            out.append(([key, f"{tag}:max-st"], "FK deviation above worst irregularity"))
    return out


def graph_regularity(seed, workdir):
    """The graph layer alone: exact scans at n=12 and n=14.

    Single-part scans (the 4^n check inside refine on G(12, 1/2), which
    returns the trivial partition) and multi-part scans (refines of planted
    2- and 3-block graphs, and checks of planted n=14 partitions built
    directly) are separate ops.
    """
    gnp = [mf.random_digraph(_rng(seed, 3, k), 12, 0.5) for k in range(GNP_GRAPHS)]
    rounds = []
    for r in range(GRAPH_ROUNDS):
        ops = []
        for s, shape in enumerate(CHECK_SHAPES):
            g, p = planted_graph(_rng(seed, 4, r, s), shape)
            ops += _check_ops(f"r{r}:n14-{len(shape)}parts", g, p)
        for blocks in (2, 3):
            g, _ = planted_graph(_rng(seed, 5, r, blocks), (12 // blocks,) * blocks)
            ops.append(_refine_op(f"r{r}:planted{blocks}:refine", g, PLANTED_EPS))
        k = r % GNP_GRAPHS
        ops.append(_refine_op(f"gnp{k}:refine", gnp[k], GNP_EPS))
        rounds.append(ops)
    return Plan(rounds=rounds, tail_percentile=80, relations=[_graph_relations],
                calibration="numpy")


# ---------------------------------------------------------------------------
# cli-json
# ---------------------------------------------------------------------------

CLI_READ_INDIVIDUALS = 2000
CLI_WRITE_INDIVIDUALS = 5000


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(key, argv, summarize, verify=None):
    def summarize_checked(result):
        code, text = result
        require(code == 0, f"exit code {code}")
        return summarize(text)
    return Op(key, lambda: _cli(argv), summarize_checked, verify)


def cli_json(seed, workdir):
    """In-process CLI calls: JSON parse and dump around small library calls.

    Reads parse a 2000-individual instance (``audit --kind oi`` parses it
    twice: for the audit and again to build the family); writes emit a
    5000-individual random fixture and a grid fixture.  Graph commands run at n=10 and 12.
    Files live in a directory inside the checkout.
    """
    rng = _rng(seed, 6)
    read = os.path.join(workdir, "read.json")
    rpop, rcls, rpred = mf.random_instance(rng, CLI_READ_INDIVIDUALS, 2, 8)
    _write_json(read, serialize.instance_to_json(rpop, rcls, rpred))
    build = os.path.join(workdir, "construct.json")
    # The first instance of acceptance criterion 6, the same for every seed:
    # one random 8-outcome instance in ten needs no iteration at all, which
    # would move the median op between runs.  Its predictor is unused, but
    # `construct` refuses instance files without one.
    crng = np.random.default_rng(30000)
    cpop, ccls, cpred = mf.random_instance(crng, int(crng.integers(6, 13)), 8,
                                           int(crng.integers(2, 6)))
    _write_json(build, serialize.instance_to_json(cpop, ccls, cpred))
    graphs = {}
    for n, (g, p) in ((10, (mf.random_digraph(rng, 10, 0.5), None)),
                      (12, planted_graph(rng, (4, 4, 4)))):
        path = os.path.join(workdir, f"graph{n}.json")
        _write_json(path, serialize.graph_to_json(g))
        part = None
        if p is not None:
            part = os.path.join(workdir, f"partition{n}.json")
            _write_json(part, serialize.partition_to_json(p))
        graphs[n] = (path, part, g, p or mf.VertexPartition.trivial(n))
    fixture_seed = int(rng.integers(2**31))
    out_random = os.path.join(workdir, "fixture-random.json")
    out_grid = os.path.join(workdir, "fixture-grid.json")

    def file_summary(path):
        def summarize(text):
            with open(path) as fh:
                return {"digest": _digest(json.load(fh))}
        return summarize

    def verify_file(path, make):
        def verify(result, summary):
            with open(path) as fh:
                doc = json.load(fh)
            require(doc == serialize.instance_to_json(*make()),
                    f"{os.path.basename(path)} differs from the library fixture")
        return verify

    def value_summary(conv):
        return lambda text: {"value": conv(json.loads(text)["value"])}

    def verify_float_mc(result, summary):
        exact = mf.audit_multi_calibration(rpop, rpred, rcls).value
        require(abs(float(exact) - summary["value"]) <= FLOAT_TOL,
                "float MC differs from rational by more than 1e-9")

    def verify_oi(result, summary):
        fam = mf.make_family("mc", hypotheses=rcls,
                             grid=mf.make_grid_with_denominator(rpop.space, 2))
        require(mf.audit_oi(rpop, rpred, fam).value == summary["value"],
                "CLI oi audit differs from the library audit")

    def construct_summary(text):
        return {"final_audit": Fraction(json.loads(text)["transcript"]["final_audit"])}

    def verify_construct(result, summary):
        doc = json.loads(result[1])
        out = serialize.predictor_from_json(cpop.space, doc["predictor"])
        fam = mf.make_family("mc", hypotheses=ccls,
                             grid=mf.make_grid_with_denominator(cpop.space, 2))
        require(summary["final_audit"] <= CONSTRUCT_EPS, "final audit above eps")
        require(mf.audit_oi(cpop, out, fam).value == summary["final_audit"],
                "final audit differs from a fresh audit_oi")

    def fk_summary(text):
        doc = json.loads(text)
        return {"pass": doc["pass"], "slack": Fraction(doc["slack"])}

    def correspond_summary(text):
        return {"digest": _digest(json.loads(text))}

    def graph_ops(n):
        path, part, g, p = graphs[n]

        def verify_fk(result, summary):
            worst, _, _ = mf.max_st_irregularity(g, p)
            require(CHECK_EPS * n * n - summary["slack"] <= worst,
                    "FK deviation above worst irregularity")

        def verify_correspond(result, summary):
            pop, _, pred = serialize.instance_from_json(json.loads(result[1]))
            require(pop.size == n * n, "correspondence population is not n^2")
            require(mf.predictor_to_partition(n, pred) == mf.VertexPartition.trivial(n),
                    "partition -> predictor -> partition is not the identity")

        fk_argv = ["graph", path, "--task", "check-fk", "--epsilon", str(CHECK_EPS)]
        if part is not None:
            fk_argv += ["--partition", part]
        return [_cli_op(f"graph{n}-check-fk", fk_argv, fk_summary, verify_fk),
                _cli_op(f"graph{n}-correspond", ["graph", path, "--task", "correspond"],
                        correspond_summary, verify_correspond)]

    ops = [
        _cli_op("fixture-grid", ["fixture", "grid", "--m", "20", "--output", out_grid],
                file_summary(out_grid),
                verify_file(out_grid, lambda: mf.fixture_grid_population(20))),
        _cli_op("audit-mc-float", ["audit", read, "--kind", "mc", "--backend", "float"],
                value_summary(float), verify_float_mc),
        *graph_ops(10),
        _cli_op("construct", ["construct", build, "--epsilon", str(CONSTRUCT_EPS),
                              "--grid-m", "2"], construct_summary, verify_construct),
        *graph_ops(12),
        _cli_op("audit-oi", ["audit", read, "--kind", "oi", "--family", "mc",
                             "--grid-m", "2"],
                value_summary(Fraction), verify_oi),
        _cli_op("fixture-random", ["fixture", "random", "--seed", str(fixture_seed),
                                   "--individuals", str(CLI_WRITE_INDIVIDUALS),
                                   "--outcomes", "2", "--hypotheses", "4",
                                   "--output", out_random],
                file_summary(out_random),
                verify_file(out_random, lambda: mf.random_instance(
                    np.random.default_rng(fixture_seed), CLI_WRITE_INDIVIDUALS, 2, 4))),
    ]
    return Plan(rounds=[ops], tail_percentile=80)


WORKLOADS = {
    "audit-pop": audit_pop,
    "construct-exact": construct_exact,
    "graph-regularity": graph_regularity,
    "cli-json": cli_json,
}
