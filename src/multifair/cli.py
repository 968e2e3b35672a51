"""Batch command-line surface.

One JSON document per invocation on stdout (or --output); logs go to
stderr.  Exit codes: 0 success, 1 I/O or parse failure, 2 domain or
precondition violation, 3 statistical failure of a sampled run.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .audits import (
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_strict_multi_calibration,
    check_conditional,
)
from .construct import construct_exact, construct_sampled
from .core import make_coordinate_grid, make_grid_with_denominator
from .errors import DomainError, InputError, SampledRunFailureError
from .graph import (
    check_frieze_kannan,
    check_intermediate,
    check_szemeredi,
    graph_to_instance,
    partition_to_predictor,
    random_digraph,
    rectangle_class,
    refine_intermediate,
    RECTANGLE_CLASS_LIMIT,
    VertexPartition,
)
from .noregret import mwu_rule, pgd_rule
from .oi import audit_oi, make_family
from .omni import omni_bound_check
from .population import (
    fixture_grid_population,
    fixture_two_point,
    random_instance,
)


def _log(msg):
    print(msg, file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    except ValueError as e:  # an integer past Python's int-to-str digit limit
        raise InputError(f"cannot read {path}: {e}") from None


def _emit(doc, output):
    text = serialize.dump(doc, output)
    if not output:
        print(text)


def _load_instance(path, need_hypotheses=True, need_predictor=True):
    pop, cls, predictor = serialize.instance_from_json(_load_json(path))
    if need_hypotheses and cls is None:
        raise InputError(f"{path} carries no hypotheses")
    if need_predictor and predictor is None:
        raise InputError(f"{path} carries no predictor")
    return pop, cls, predictor


def _float_epsilon(epsilon, x: float) -> float:
    """x, a float computed from the exact epsilon; a positive epsilon whose
    float is 0.0 is refused here, not reported as nonpositive further on."""
    if x == 0 < epsilon:
        raise DomainError("epsilon is positive but below the float range")
    return x


def _family_for(args, pop, cls, epsilon):
    kind = args.family
    if kind == "lowdegree":
        degree = args.degree if args.degree is not None else 1
        return make_family("lowdegree", hypotheses=cls, degree=degree, outcome_space=pop.space)
    if args.grid_m is not None:
        grid = make_grid_with_denominator(pop.space, args.grid_m)
    else:
        grid = make_coordinate_grid(pop.space, _float_epsilon(epsilon, float(epsilon)))
    return make_family(kind, hypotheses=cls, grid=grid)


def cmd_audit(args) -> int:
    pop, cls, predictor = _load_instance(args.instance)
    backend = args.backend
    kind = args.kind
    if kind == "ma":
        report = serialize.report_to_json(audit_multi_accuracy(pop, predictor, cls, backend))
    elif kind == "mc":
        report = serialize.report_to_json(audit_multi_calibration(pop, predictor, cls, backend))
    elif kind == "smc":
        report = serialize.report_to_json(
            audit_strict_multi_calibration(pop, predictor, cls, backend))
    elif kind == "cal":
        report = {"kind": "calibration",
                  "value": serialize.jsonify(audit_calibration(pop, predictor, backend))}
    elif kind == "cov":
        report = serialize.report_to_json(audit_covariance_mc(pop, predictor, cls, backend))
    elif kind == "oi":
        family = _family_for(args, pop, cls, serialize.parse_number(args.epsilon or "0.1"))
        report = serialize.report_to_json(audit_oi(pop, predictor, family, backend))
    elif kind == "omni":
        if not args.losses:
            raise InputError("--kind omni needs --losses")
        losses = serialize.losses_from_json(pop.space, _load_json(args.losses))
        check = omni_bound_check(pop, predictor, losses, cls, backend)
        report = serialize.report_to_json(check.pop("report"))
        report["bound_check"] = serialize.jsonify(check)
    elif kind == "conditional":
        if args.epsilon is None:
            raise InputError("--kind conditional needs --epsilon")
        ck = (args.conditional_kind or "mc").upper()
        res = check_conditional(pop, predictor, cls, serialize.parse_number(args.epsilon),
                                ck, backend)
        report = {"kind": f"conditional-{ck.lower()}", "pass": res.passed,
                  "witness": serialize.jsonify(res.witness),
                  "first_violation": serialize.jsonify(res.first_violation)}
    else:
        raise InputError(f"unknown audit kind {kind!r}")
    _emit(report, args.output)
    return 0


def cmd_construct(args) -> int:
    pop, cls, _ = _load_instance(args.instance, need_predictor=False)
    epsilon = serialize.parse_number(args.epsilon)
    family = _family_for(args, pop, cls, epsilon)
    step = float(epsilon) if args.mode == "exact" else float(epsilon) / 2
    if args.rule == "mwu":
        rule = mwu_rule(pop.space, step_size=_float_epsilon(epsilon, step / 1.0))
    else:
        rule = pgd_rule(pop.space, step_size=_float_epsilon(epsilon, step / pop.space.size))
    if args.mode == "exact":
        predictor, transcript = construct_exact(pop, family, epsilon, rule=rule)
    else:
        rng = np.random.default_rng(args.seed)
        try:
            predictor, transcript = construct_sampled(
                pop, family, epsilon, rule=rule, beta=args.beta, rng=rng,
                seed=args.seed)
        except SampledRunFailureError as e:
            # retain the failed run's transcript before signalling exit 3
            _emit({"failed": True, "transcript": _transcript_json(e.transcript)}, args.output)
            raise
    doc = {
        "predictor": serialize.predictor_to_json(predictor.as_exact()),
        "transcript": _transcript_json(transcript),
    }
    _emit(doc, args.output)
    return 0


def _transcript_json(transcript) -> dict:
    """A constructor transcript as JSON, without its final predictor, which
    the document carries (or a failed run does not certify)."""
    return serialize.jsonify({k: v for k, v in vars(transcript).items()
                              if k != "final_predictor"})


def cmd_graph(args) -> int:
    raw = _load_json(args.graph)
    g = serialize.graph_from_json(raw)
    eps = serialize.parse_number(args.epsilon) if args.epsilon else None
    task = args.task
    if task in ("check-fk", "check-int", "check-sz"):
        if eps is None:
            raise InputError(f"--task {task} needs --epsilon")
        if args.partition:
            partition = serialize.partition_from_json(_load_json(args.partition))
        else:
            partition = VertexPartition.trivial(g.n)
        fn = {"check-fk": check_frieze_kannan, "check-int": check_intermediate,
              "check-sz": check_szemeredi}[task]
        rep = fn(g, partition, eps)
        _emit({"kind": rep.kind, "pass": rep.passed,
               "witness": serialize.jsonify(rep.witness),
               "slack": serialize.jsonify(rep.slack),
               "exhaustive": rep.exhaustive}, args.output)
        return 0
    if task == "refine":
        if eps is None:
            raise InputError("--task refine needs --epsilon")
        rng = np.random.default_rng(args.seed) if args.seed is not None else None
        partition, transcript = refine_intermediate(g, eps, oracle_mode=args.oracle, rng=rng)
        _emit({"partition": serialize.partition_to_json(partition),
               "transcript": serialize.jsonify(transcript)}, args.output)
        return 0
    if task == "correspond":
        pop = graph_to_instance(g)
        if args.partition:
            partition = serialize.partition_from_json(_load_json(args.partition))
        else:
            partition = VertexPartition.trivial(g.n)
        predictor = partition_to_predictor(g, partition)
        cls = rectangle_class(g) if g.n <= RECTANGLE_CLASS_LIMIT else None
        doc = serialize.instance_to_json(pop, cls, predictor)
        if cls is None:
            doc["hypotheses_note"] = (
                "rectangle class left implicit beyond "
                f"{RECTANGLE_CLASS_LIMIT} vertices; audits use closed forms")
        _emit(doc, args.output)
        return 0
    raise InputError(f"unknown graph task {task!r}")


def cmd_omni(args) -> int:
    pop, cls, predictor = _load_instance(args.instance)
    losses = serialize.losses_from_json(pop.space, _load_json(args.losses))
    check = omni_bound_check(pop, predictor, losses, cls)
    report = check.pop("report")
    doc = serialize.jsonify(check)
    doc["report"] = serialize.report_to_json(report)
    _emit(doc, args.output)
    return 0


def cmd_fixture(args) -> int:
    which = args.which
    if which == "two-point":
        pop, cls, predictor = fixture_two_point()
        doc = serialize.instance_to_json(pop, cls, predictor)
    elif which == "grid":
        pop, cls, predictor = fixture_grid_population(args.m)
        doc = serialize.instance_to_json(pop, cls, predictor)
    elif which == "random":
        if args.seed is None:
            raise InputError("fixture random needs --seed")
        rng = np.random.default_rng(args.seed)
        pop, cls, predictor = random_instance(
            rng, args.individuals, n_outcomes=args.outcomes,
            n_hypotheses=args.hypotheses)
        doc = serialize.instance_to_json(pop, cls, predictor)
    elif which == "graph-random":
        if args.seed is None:
            raise InputError("fixture graph-random needs --seed")
        rng = np.random.default_rng(args.seed)
        g = random_digraph(rng, args.n, args.p)
        doc = serialize.graph_to_json(g)
    else:
        raise InputError(f"unknown fixture {which!r}")
    _emit(doc, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multifair",
        description="Exact multi-group fairness audits, predictor construction, "
                    "and graph regularity partitions.")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("audit", help="run a fairness audit on an instance file")
    a.add_argument("instance")
    a.add_argument("--kind", required=True,
                   choices=["ma", "mc", "smc", "cal", "cov", "oi", "omni", "conditional"])
    a.add_argument("--backend", default="rational", choices=["rational", "float"],
                   help="rational prints exact values; float prints each exact value "
                        "rounded once to its nearest float")
    a.add_argument("--epsilon")
    a.add_argument("--conditional-kind", choices=["ma", "mc", "smc"])
    a.add_argument("--family", default="mc",
                   choices=["basic", "mc", "smc", "lowdegree"])
    a.add_argument("--grid-m", type=int)
    a.add_argument("--degree", type=int)
    a.add_argument("--losses")
    a.add_argument("--output")
    a.set_defaults(fn=cmd_audit)

    c = sub.add_parser("construct", help="construct a predictor meeting an OI target")
    c.add_argument("instance")
    c.add_argument("--family", default="mc", choices=["basic", "mc", "smc", "lowdegree"])
    c.add_argument("--epsilon", required=True)
    c.add_argument("--rule", default="mwu", choices=["pgd", "mwu"])
    c.add_argument("--mode", default="exact", choices=["exact", "sampled"],
                   help="sampled mode takes the basic and lowdegree families; "
                        "mc and smc exit 2")
    c.add_argument("--seed", type=int)
    c.add_argument("--beta", type=float, default=0.05,
                   help="failure probability in (0, 1); sampled mode only")
    c.add_argument("--grid-m", type=int)
    c.add_argument("--degree", type=int)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_construct)

    g = sub.add_parser("graph", help="regularity checks, refinement, correspondence")
    g.add_argument("graph")
    g.add_argument("--task", required=True,
                   choices=["check-fk", "check-int", "check-sz", "refine", "correspond"])
    g.add_argument("--epsilon")
    g.add_argument("--partition", help="partition JSON (list of vertex lists)")
    g.add_argument("--oracle", default="exact", choices=["exact", "alternating"])
    g.add_argument("--seed", type=int)
    g.add_argument("--output")
    g.set_defaults(fn=cmd_graph)

    o = sub.add_parser("omni", help="omniprediction audit and bound check")
    o.add_argument("instance")
    o.add_argument("--losses", required=True)
    o.add_argument("--output")
    o.set_defaults(fn=cmd_omni)

    f = sub.add_parser("fixture", help="emit canonical and random instances")
    f.add_argument("which", choices=["two-point", "grid", "random", "graph-random"])
    f.add_argument("--m", type=int, default=10)
    f.add_argument("--seed", type=int)
    f.add_argument("--individuals", type=int, default=8)
    f.add_argument("--outcomes", type=int, default=2)
    f.add_argument("--hypotheses", type=int, default=4)
    f.add_argument("--n", type=int, default=8)
    f.add_argument("--p", type=float, default=0.5)
    f.add_argument("--output")
    f.set_defaults(fn=cmd_fixture)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "construct" and args.mode == "sampled" and args.seed is None:
        _log("error: sampled mode requires --seed")
        return 1
    if getattr(args, "seed", None) is not None and args.seed < 0:
        _log(f"error: --seed must be nonnegative, got {args.seed}")
        return 2
    try:
        return args.fn(args)
    except SampledRunFailureError as e:
        _log(f"sampled run failed: {e}")
        return 3
    except InputError as e:
        _log(f"input error: {e}")
        return 1
    except DomainError as e:
        _log(f"domain error: {e}")
        return 2
    except OverflowError as e:
        _log(f"domain error: a number is beyond the float range: {e}")
        return 2
    except OSError as e:
        _log(f"io error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
