"""The benchmark's trace mode still finds what it wraps.

`bench/spans.py` wraps the library functions its `TRACED` table names,
and `bench/layers.py` reads some of their arguments by parameter name, so
a renamed function or parameter would break `bench/run.py --trace 1`
without failing anything else.  This reads both files with `ast`, without
importing them, and checks that every `TRACED` (module, name) resolves
and that each traced function takes the parameters the per-layer metrics
read: `pop`, `predictor` and `backend` for the audits, `p` for the T-mask
scans and `path` for `cli._load_json`.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _literal(path, name):
    """The literal a module binds to `name` at its top level."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} binds no {name}")


TRACED = _literal(BENCH / "spans.py", "TRACED")
KEEP_CALL = _literal(BENCH / "spans.py", "KEEP_CALL")
SCANS = _literal(BENCH / "layers.py", "SCANS")


def _resolve(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _unresolved(traced):
    missing = []
    for _, module, qualname in traced:
        try:
            _resolve(module, qualname)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{qualname}")
    return missing


def _read_by_keyword(layer, name):
    """The parameters `bench/layers.py` reads from a kept call of `name`."""
    if name not in KEEP_CALL:
        return set()
    if layer == "audits":
        return {"pop", "predictor", "backend"}
    return {"p"} if name in SCANS else {"path"} if name == "_load_json" else set()


def _lacking(layer, name, fn):
    return _read_by_keyword(layer, name) - set(inspect.signature(fn).parameters)


def test_every_traced_function_resolves():
    assert _unresolved(TRACED) == []


def test_the_check_sees_a_renamed_function():
    mutant = [(layer, module, name + "_gone" if name == "audit_oi" else name)
              for layer, module, name in TRACED]
    assert _unresolved(mutant) == ["multifair.oi.audit_oi_gone"]


def test_traced_functions_take_the_parameters_the_metrics_read():
    read = {name: _read_by_keyword(layer, name) for layer, _, name in TRACED}
    assert sum(map(bool, read.values())) == 11  # seven audits, three scans, _load_json
    lacking = {name: _lacking(layer, name, _resolve(module, name))
               for layer, module, name in TRACED}
    assert {name: params for name, params in lacking.items() if params} == {}


def test_the_check_sees_a_renamed_parameter():
    def check_intermediate(g, partition, epsilon):
        return g, partition, epsilon

    assert _lacking("graph", "check_intermediate", check_intermediate) == {"p"}
