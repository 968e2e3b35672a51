"""Per-layer metrics of one traced run, computed from its spans.

Names are ``<layer>.<what>``.  ``*_calls`` count spans; ``*_s`` of a
function is its inclusive time (outermost spans only); ``<layer>.self_s``
(``audits.busy_s`` for the audits layer) is the layer's self time.  Each
metric is reported on every workload, as 0 where the layer does not run.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from spans import LAYERS

# The rational audit kernel stays in int64 numpy up to this common
# denominator (multifair.audits._NUMPY_SAFE_LIMIT) and uses Python ints above.
INT64_PATH_LIMIT = 1 << 40
SCANS = {"check_intermediate", "max_st_irregularity", "check_frieze_kannan"}
PARSERS = {"instance_from_json", "graph_from_json", "partition_from_json"}
# audits.busy_s.<path>: "random" is rational input with D above the limit (the
# big-int path; the random instances here), "grid" rational input with D at or
# below it (the int64 path; the grid fixture), "float" the float backend.
AUDITS_PATHS = ("random", "grid", "float")


def common_denominator(pop, predictor):
    """The D of the rational audit kernel: lcm of every w_j * p(o) denominator."""
    d = 1
    for j in pop.ids:
        w = Fraction(pop.weight[j])
        for dist in (predictor.values[j], pop.p_true[j]):
            for x in dist.weights:
                d = math.lcm(d, (w * Fraction(x)).denominator)
    return d


class _Spans:
    def __init__(self, tracer, selfs):
        self.tracer = tracer
        self.spans = tracer.spans
        self.selfs = selfs

    def named(self, names):
        return [i for i, s in enumerate(self.spans) if s.name in names]

    def calls(self, *names):
        return len(self.named(set(names)))

    def inclusive(self, *names):
        """Time inside the named functions, not counting nested repeats."""
        names = set(names)
        total = 0.0
        for i in self.named(names):
            p = self.spans[i].parent
            while p is not None and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p is None:
                total += self.spans[i].duration
        return total

    def layer_self(self, layer):
        return sum(t for s, t in zip(self.spans, self.selfs) if s.layer == layer)

    def entries(self, layer):
        """Spans where a call enters the layer from outside it."""
        out = []
        for i, s in enumerate(self.spans):
            if s.layer == layer and (s.parent is None
                                     or self.spans[s.parent].layer != layer):
                out.append(i)
        return out

    def entry_of(self, i):
        while True:
            p = self.spans[i].parent
            if p is None or self.spans[p].layer != self.spans[i].layer:
                return i
            i = p

    def results(self, *names):
        return [self.spans[i].call[2] for i in self.named(set(names))
                if self.spans[i].call is not None]


def _audits(sp, m):
    """Audit self time split by the kernel path the input takes."""
    path_of_entry = {}
    denominators = {}
    individuals = 0
    for i in sp.entries("audits"):
        if sp.spans[i].call is None:
            continue
        args = sp.tracer.arguments(sp.spans[i])
        pop = args["pop"]
        individuals += pop.size
        if args["backend"] == "float":
            path_of_entry[i] = "float"
            continue
        key = (id(pop), id(args["predictor"]))
        if key not in denominators:
            denominators[key] = common_denominator(pop, args["predictor"])
        path_of_entry[i] = "grid" if denominators[key] <= INT64_PATH_LIMIT else "random"
    by_path = dict.fromkeys(AUDITS_PATHS, 0.0)
    for i, s in enumerate(sp.spans):
        if s.layer == "audits":
            path = path_of_entry.get(sp.entry_of(i))
            if path is not None:
                by_path[path] += sp.selfs[i]
    busy = sp.layer_self("audits")
    m["audits.calls"] = (len(sp.entries("audits")), "count")
    m["audits.busy_s"] = (busy, "s")
    m["audits.us_per_individual"] = (1e6 * busy / individuals if individuals else 0.0, "us")
    for path in AUDITS_PATHS:
        m[f"audits.busy_s.{path}"] = (by_path[path], "s")


def _graph(sp, m):
    refines = sp.results("refine_intermediate")
    m["graph.refine_calls"] = (sp.calls("refine_intermediate"), "count")
    m["graph.refine_s"] = (sp.inclusive("refine_intermediate"), "s")
    m["graph.refine_steps"] = (sum(len(tr.steps) for _, tr in refines), "count")
    m["graph.parts_final"] = (
        sum(p.size for p, _ in refines) / len(refines) if refines else 0.0, "parts")
    m["graph.check_intermediate_calls"] = (sp.calls("check_intermediate"), "count")
    m["graph.check_intermediate_s"] = (sp.inclusive("check_intermediate"), "s")
    m["graph.max_st_irregularity_calls"] = (sp.calls("max_st_irregularity"), "count")
    m["graph.max_st_irregularity_s"] = (sp.inclusive("max_st_irregularity"), "s")
    m["graph.check_frieze_kannan_s"] = (sp.inclusive("check_frieze_kannan"), "s")
    m["graph.edge_count_calls"] = (sp.calls("edge_count"), "count")
    scan_s = multi_s = 0.0
    masks = 0
    for i in sp.named(SCANS):
        span = sp.spans[i]
        partition = sp.tracer.arguments(span)["p"]
        scan_s += span.duration
        masks += 1 << partition.n
        if partition.size > 1:
            multi_s += span.duration
    m["graph.multi_part_share"] = (multi_s / scan_s if scan_s else 0.0, "ratio")
    # computed, not counted: 2^n T-masks per exact-scan call
    m["graph.t_masks_per_s"] = (masks / scan_s if scan_s else 0.0, "1/s")


def _serialize(sp, m):
    m["serialize.parse_calls"] = (sp.calls(*PARSERS), "count")
    m["serialize.parse_s"] = (sp.inclusive(*PARSERS), "s")
    m["serialize.dump_s"] = (sp.inclusive("dump"), "s")
    m["serialize.bytes_in"] = (sum(
        os.path.getsize(sp.tracer.arguments(sp.spans[i])["path"])
        for i in sp.named({"_load_json"})), "B")
    m["serialize.bytes_out"] = (sum(len(text.encode()) for text in sp.results("dump")), "B")
    parses = {}
    for i in sp.named({"instance_from_json"}):
        op = sp.spans[i].op
        parses[op] = parses.get(op, 0) + 1
    m["serialize.instance_parses_per_op"] = (max(parses.values(), default=0), "count")


def per_layer_metrics(tracer, selfs, overhead_s):
    """Every per-layer metric, as {name: (value, unit)}."""
    sp = _Spans(tracer, selfs)
    m = {}
    m["population.build_s"] = (sp.inclusive("random_instance", "fixture_grid_population"), "s")
    m["population.sample_calls"] = (sp.calls("sample"), "count")
    m["population.sample_s"] = (sp.inclusive("sample"), "s")
    m["core.round_dist_calls"] = (sp.calls("round_dist"), "count")
    m["core.round_dist_s"] = (sp.inclusive("round_dist"), "s")
    _audits(sp, m)
    m["oi.audit_calls"] = (sp.calls("audit_oi"), "count")
    m["oi.audit_s"] = (sp.inclusive("audit_oi"), "s")
    m["oi.best_response_calls"] = (sp.calls("best_response"), "count")
    m["oi.best_response_s"] = (sp.inclusive("best_response"), "s")
    m["noregret.update_calls"] = (sp.calls("update"), "count")
    m["noregret.update_s"] = (sp.inclusive("update"), "s")
    built = sp.results("construct_exact", "construct_sampled")
    m["construct.iterations"] = (sum(tr.iteration_count for _, tr in built), "count")
    m["construct.samples_drawn"] = (sum(tr.sample_count for _, tr in built), "count")
    m["construct.loss_eval_s"] = (sp.inclusive("loss_from_distinguisher"), "s")
    _graph(sp, m)
    m["omni.audit_calls"] = (len(sp.entries("omni")), "count")
    m["omni.audit_s"] = (sp.inclusive("omni_audit", "omni_bound_check"), "s")
    _serialize(sp, m)
    for layer in LAYERS:
        if layer != "audits":
            m[f"{layer}.self_s"] = (sp.layer_self(layer), "s")
    ops = [i for i, s in enumerate(sp.spans) if s.layer == "bench" and s.op != "setup"]
    m["trace.op_s"] = (sum(sp.spans[i].duration for i in ops), "s")
    m["trace.remainder_s"] = (sum(selfs[i] for i in ops), "s")
    m["trace.spans"] = (len(sp.spans), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
