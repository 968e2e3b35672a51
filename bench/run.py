"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from a traced run of one
round.  The line before it records the interpreter, numpy, ``nproc``, the
op count and percentile behind ``op_tail_ms``, the error rate, and the raw
(unscaled) times: end-to-end times are scaled by interleaved calibration
readings (see Clock).  Exit status is 0 whenever a result line is printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
DEFAULT_SEED = 0
SETUP_REPEATS = 3
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Offered percentiles for op_tail_ms; a workload names its target.
TAIL_LADDER = (50, 75, 80, 85)


def metric(name, value, unit):
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
    return name, {"value": value, "unit": unit}


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies, target):
    """(percentile, value, samples beyond) for the highest ladder percentile
    up to target with at least ten samples beyond it; the median if none."""
    values = sorted(latencies)
    best = (50, *percentile(values, 50))
    for pct in TAIL_LADDER:
        value, beyond = percentile(values, pct)
        if pct <= target and beyond >= 10:
            best = (pct, value, beyond)
    return best


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def exact_part(summary):
    """The part of a summary compared with recorded values.

    Floats are left out, and so are entries named with a leading ``_``:
    outputs such as a refined partition that depend on tie-breaks.
    """
    return {k: str(v) for k, v in summary.items()
            if not isinstance(v, float) and not k.startswith("_")}


class Ledger:
    """Every op occurrence and whether its result was right."""

    def __init__(self, expected=None):
        self.expected = expected  # key -> {name: str}, or None off the default seed
        self.values = {}  # key -> summary of the first occurrence
        self.bad = {}  # key -> reason
        self.count = {}

    def record(self, op, result, error):
        self.count[op.key] = self.count.get(op.key, 0) + 1
        if error is not None:
            problem = f"raised {error!r}"
        else:
            try:
                problem = self._check(op, result)
            except Exception as e:  # a wrong result, or a check that cannot run on it
                problem = f"{type(e).__name__}: {e}"
        if problem:
            self.bad.setdefault(op.key, problem)

    def _check(self, op, result):
        summary = op.summarize(result)
        first = self.values.get(op.key)
        if first is not None:
            return None if summary == first else "differs from its first occurrence"
        self.values[op.key] = summary
        if op.verify is not None:
            op.verify(result, summary)
        want = (self.expected or {}).get(op.key)
        got = exact_part(summary)
        if want is not None and got != want:
            return f"{got} != recorded {want}"
        return None

    def relate(self, relations):
        for rel in relations:
            for keys, msg in rel(self.values):
                for k in keys:
                    self.bad.setdefault(k, msg)

    @property
    def attempted(self):
        return sum(self.count.values())

    @property
    def failed(self):
        return sum(c for k, c in self.count.items() if k in self.bad)


class PythonCalibration:
    """Fixed pure-Python work (Fraction and dict operations), about 3.5 ms."""

    nominal = 0.0035  # seconds on a 2-vCPU 2.1 GHz Xeon host at full speed

    def __call__(self):
        t0 = time.perf_counter()
        acc, counts = Fraction(0), {}
        for i in range(1, 600):
            f = Fraction(i, 7 * i + 3)
            acc += f * f
            counts[i % 17] = counts.get(i % 17, 0) + i
        return time.perf_counter() - t0


class NumpyCalibration:
    """Fixed memory-bound numpy work (8 MB int64 adds, a small matmul), about 5 ms."""

    nominal = 0.005  # seconds on a 2-vCPU 2.1 GHz Xeon host between graph ops

    def __init__(self):
        import numpy as np
        self.add = np.add
        self.a = np.arange(1 << 20, dtype=np.int64)
        self.out = np.empty_like(self.a)
        self.m = np.arange(1 << 16, dtype=np.float64).reshape(256, 256)

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(4):
            self.add(self.a, self.a, out=self.out)
        self.m @ self.m
        return time.perf_counter() - t0


class Clock:
    """Times intervals and scales them to the calibration's nominal speed.

    The shared host's speed drifts by up to a third over seconds to
    minutes.  A calibration reading is taken between intervals, and each
    raw time is scaled by the calibration's nominal time over the median
    of the four readings around it (two before, two after): the time the
    interval would take at the speed where the calibration takes its
    nominal time.  A workload names the calibration whose work resembles
    its own (Python object arithmetic, or numpy array passes), because the
    drift differs between them.  A change to the library leaves the
    calibration untouched, so scaled times still move with it.
    """

    def __init__(self, calibration=None):
        self.calibration = calibration or PythonCalibration()
        self.marks = [self.calibration()]
        self.raw = []

    def time(self, fn):
        """Run fn; return (result, error)."""
        start = time.perf_counter()
        try:
            out = fn(), None
        except Exception as e:  # counted as a failed op
            out = None, e
        self.raw.append(time.perf_counter() - start)
        self.marks.append(self.calibration())
        return out

    @property
    def scaled(self):
        m, nominal = self.marks, self.calibration.nominal
        return [raw * nominal / statistics.median(m[max(0, i - 1):i + 3])
                for i, raw in enumerate(self.raw)]


CALIBRATIONS = {"python": PythonCalibration, "numpy": NumpyCalibration}


def run_round(ops, ledger, clock, runner=None):
    """Run one round of ops on the clock; check the results afterwards."""
    results = []
    for op in ops:
        fn = op.run if runner is None else (lambda op=op: runner(op.key, op.run))
        results.append((op, *clock.time(fn)))
    for op, result, error in results:
        ledger.record(op, result, error)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def load_expected(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH, "expected.json")) as fh:
        return json.load(fh)[workload]


def environment():
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def measure(build, seed, seconds, workdir, import_s, expected):
    def set_up():
        plan = build(seed, workdir)
        plan.warmup()
        return plan

    setup = Clock()
    for _ in range(SETUP_REPEATS):
        plan = None  # drop the previous inputs before building new ones
        plan, error = setup.time(set_up)
        if error is not None:
            raise error
    setups = setup.scaled
    ledger = Ledger(expected)
    clock = Clock(CALIBRATIONS[plan.calibration]())
    rounds = 0
    while rounds == 0 or sum(clock.raw) < seconds:
        run_round(plan.rounds[rounds % len(plan.rounds)], ledger, clock)
        rounds += 1
    ledger.relate(plan.relations)
    latencies = clock.scaled
    pct, tail_s, beyond = tail(latencies, plan.tail_percentile)
    error_rate = ledger.failed / ledger.attempted
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = dict([
        metric("setup_s", import_s + statistics.median(setups), "s"),
        metric("ops_per_s", len(latencies) / sum(latencies), "ops/s"),
        metric("op_p50_ms", 1000 * percentile(sorted(latencies), 50)[0], "ms"),
        metric("op_tail_ms", 1000 * tail_s, "ms"),
        metric("ok_rate", 1.0 - error_rate, "ratio"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ])
    info = {"rounds": rounds, "ops": len(latencies), "raw_timed_s": sum(clock.raw),
            "raw_ops_per_s": len(clock.raw) / sum(clock.raw),
            "raw_op_p50_ms": 1000 * statistics.median(clock.raw),
            "setup_samples_s": setups, "import_s": import_s,
            "op_tail": {"percentile": pct, "samples": len(latencies),
                        "samples_beyond": beyond},
            "error_rate": error_rate}
    return ledger, metrics, info


def trace_run(build, seed, workdir, expected):
    from layers import common_denominator, per_layer_metrics
    from spans import Tracer, accounting_error, self_times

    tracer = Tracer()
    with tracer:
        plan = tracer.run_op("setup", lambda: build(seed, workdir))
    ledger = Ledger(expected)
    # The traced run covers the first round.  An untraced pass warms
    # allocator and file caches, a second gives the time to compare with.
    calibration = CALIBRATIONS[plan.calibration]()
    for _ in range(2):
        untraced = Clock(calibration)
        run_round(plan.rounds[0], ledger, untraced)
    traced = Clock(calibration)
    with tracer:
        run_round(plan.rounds[0], ledger, traced, runner=tracer.run_op)
    ledger.relate(plan.relations)
    selfs = self_times(tracer.spans)
    worst = accounting_error(tracer.spans, selfs)
    if worst > 1e-6:
        ledger.bad.setdefault("trace", f"op accounting off by {worst} s")
    values = per_layer_metrics(tracer, selfs, sum(traced.scaled) - sum(untraced.scaled))
    metrics = dict(metric(name, value, unit) for name, (value, unit) in values.items())
    info = {"ops": len(traced.raw), "untraced_s": sum(untraced.raw),
            "traced_s": sum(traced.raw), "accounting_error_s": worst,
            "inputs": {tag: {"individuals": pop.size,
                             "log2_D": math.log2(common_denominator(pop, pred))}
                       for tag, (pop, pred) in plan.inputs.items()}}
    return ledger, metrics, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args):
    clock = Clock()
    workloads = clock.time(lambda: importlib.import_module("workloads"))[0]
    src = os.path.join(ROOT, "src", "")
    if workloads is None or not workloads.mf.__file__.startswith(src):
        sys.exit(f"cannot import multifair from {src}: run from the root of a checkout")
    import_s = clock.scaled[0]
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    expected = load_expected(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        if args.trace:
            ledger, metrics, info = trace_run(build, args.seed, workdir, expected)
        else:
            ledger, metrics, info = measure(build, args.seed, args.seconds, workdir,
                                            import_s, expected)
    info.update(workload=args.workload, seed=args.seed, env=environment(),
                failures=dict(list(ledger.bad.items())[:10]))
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": not ledger.bad, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Pin BLAS to one thread before numpy loads: the graph scans route through
    # BLAS matmul, and a closed-loop benchmark measures one caller on one core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.exit(run(parse_args(sys.argv[1:])))
