"""Span tracing of the library from outside it.

The library has no tracing of its own, so the benchmark wraps public
functions at every place they are looked up: each module global of a
``multifair`` module (including the package namespace) that is bound to
the function, and methods on their class.  A span records name, layer,
start, end, parent span and op id.  Spans stay in memory; per-layer
numbers are computed from them after the traced phase ends.

A layer is one module of ``src/multifair``.  A span's self time is its
duration minus the time covered by its child spans; op spans (layer
``bench``) keep as self time the part of the op no wrapped function ran,
so per op the layers' self times plus that remainder add up to the op's
traced time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (layer, module, qualified name).  Functions called per element from inside
# a loop over JSON values (jsonify, parse_number) are left unwrapped: a span
# per value would cost more than the work it measures.
TRACED = (
    ("population", "multifair.population", "random_instance"),
    ("population", "multifair.population", "fixture_grid_population"),
    ("population", "multifair.population", "sample"),
    ("core", "multifair.core", "SimplexGrid.round_dist"),
    ("core", "multifair.core", "make_grid_with_denominator"),
    ("audits", "multifair.audits", "audit_multi_accuracy"),
    ("audits", "multifair.audits", "audit_multi_calibration"),
    ("audits", "multifair.audits", "audit_strict_multi_calibration"),
    ("audits", "multifair.audits", "audit_calibration"),
    ("audits", "multifair.audits", "audit_covariance_mc"),
    ("audits", "multifair.audits", "violation_profile"),
    ("audits", "multifair.audits", "check_conditional"),
    ("oi", "multifair.oi", "make_family"),
    ("oi", "multifair.oi", "audit_oi"),
    ("oi", "multifair.oi", "best_response"),
    ("noregret", "multifair.noregret", "mwu_rule"),
    ("noregret", "multifair.noregret", "pgd_rule"),
    ("noregret", "multifair.noregret", "update"),
    ("construct", "multifair.construct", "construct_exact"),
    ("construct", "multifair.construct", "construct_sampled"),
    ("construct", "multifair.construct", "loss_from_distinguisher"),
    ("construct", "multifair.construct", "wal_erm"),
    ("graph", "multifair.graph", "random_digraph"),
    ("graph", "multifair.graph", "refine_intermediate"),
    ("graph", "multifair.graph", "check_intermediate"),
    ("graph", "multifair.graph", "max_st_irregularity"),
    ("graph", "multifair.graph", "check_frieze_kannan"),
    ("graph", "multifair.graph", "irregularity"),
    ("graph", "multifair.graph", "edge_count"),
    ("graph", "multifair.graph", "graph_to_instance"),
    ("graph", "multifair.graph", "partition_to_predictor"),
    ("omni", "multifair.omni", "omni_audit"),
    ("omni", "multifair.omni", "omni_bound_check"),
    ("serialize", "multifair.serialize", "instance_from_json"),
    ("serialize", "multifair.serialize", "instance_to_json"),
    ("serialize", "multifair.serialize", "graph_from_json"),
    ("serialize", "multifair.serialize", "graph_to_json"),
    ("serialize", "multifair.serialize", "partition_from_json"),
    ("serialize", "multifair.serialize", "predictor_to_json"),
    ("serialize", "multifair.serialize", "report_to_json"),
    ("serialize", "multifair.serialize", "dump"),
    ("cli", "multifair.cli", "main"),
    ("cli", "multifair.cli", "_load_json"),
)

LAYERS = ("population", "core", "audits", "oi", "noregret", "construct", "graph",
          "omni", "serialize", "cli")

# Functions whose arguments and result the per-layer metrics read.  Only
# references are kept while tracing; they are read after the traced phase.
KEEP_CALL = {"audit_multi_accuracy", "audit_multi_calibration",
             "audit_strict_multi_calibration", "audit_calibration",
             "audit_covariance_mc", "violation_profile", "check_conditional",
             "construct_exact", "construct_sampled", "refine_intermediate",
             "check_intermediate", "max_st_irregularity", "check_frieze_kannan",
             "_load_json", "dump"}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "call")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.call = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped library functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.signatures: dict = {}  # name -> signature, for the KEEP_CALL functions
        self.op = None

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Run one op under a root span of layer ``bench``."""
        self.op = op_id
        span = self._open("op", "bench")
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None

    def _wrap(self, layer, name, fn):
        tracer = self
        keep = name in KEEP_CALL
        if keep:
            self.signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if keep:
                span.call = (args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever a multifair module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "multifair" or n.startswith("multifair.")) and m is not None]
        for layer, modname, qualname in TRACED:
            owner = sys.modules[modname]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer, meth, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, qualname)
            wrapped = self._wrap(layer, qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def arguments(self, span):
        """The traced call's arguments by parameter name, defaults filled in."""
        args, kwargs, _ = span.call
        bound = self.signatures[span.name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Derived numbers
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def accounting_error(spans, selfs):
    """Largest gap, over ops, between an op's traced time and the sum of its
    layers' self times plus the untraced remainder (the op span's self time)."""
    total, parts = {}, {}
    for s, own in zip(spans, selfs):
        if s.layer == "bench":
            total[s.op] = s.duration
        parts[s.op] = parts.get(s.op, 0.0) + own
    return max((abs(total[op] - parts[op]) for op in total), default=0.0)
