"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest -q bench
"""

import dataclasses
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
import multifair as mf  # noqa: E402
from layers import common_denominator  # noqa: E402
from spans import Tracer, accounting_error, self_times  # noqa: E402


@pytest.fixture(scope="module")
def grid_ma(tmp_path_factory):
    plan = workloads.audit_pop(run.DEFAULT_SEED, str(tmp_path_factory.mktemp("w")))
    op = next(op for op in plan.rounds[0] if op.key == "grid50:MA")
    return op, op.run()


def test_recorded_value_passes(grid_ma):
    op, report = grid_ma
    ledger = run.Ledger(run.load_expected("audit-pop", run.DEFAULT_SEED))
    run.run_round([op], ledger, run.Clock())
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_exact_value_off_by_one_unit_is_a_failed_op(grid_ma):
    op, report = grid_ma
    pop, _, pred = mf.fixture_grid_population(50)
    unit = Fraction(1, common_denominator(pop, pred))
    wrong = dataclasses.replace(report, value=report.value + unit)
    ledger = run.Ledger(run.load_expected("audit-pop", run.DEFAULT_SEED))
    run.run_round([dataclasses.replace(op, run=lambda: wrong),
                   dataclasses.replace(op, key="grid50:MA-again")], ledger, run.Clock())
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert list(ledger.bad) == ["grid50:MA"]


def test_later_occurrence_must_repeat_the_first(grid_ma):
    op, report = grid_ma
    wrong = dataclasses.replace(report, value=report.value + Fraction(1, 10**9))
    ledger = run.Ledger()
    run.run_round([op, dataclasses.replace(op, run=lambda: wrong)], ledger, run.Clock())
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_wrong_value_off_the_default_seed_is_caught_by_identities():
    ledger = run.Ledger()
    ledger.values = {"t:MA": {"value": Fraction(1, 3)}, "t:MC": {"value": Fraction(1, 4)},
                     "t:fMC": {"value": 0.25 + 1e-6}}
    ledger.count = dict.fromkeys(ledger.values, 1)
    ledger.relate([workloads._audit_relations(["t"])])
    assert set(ledger.bad) == {"t:MA", "t:MC", "t:fMC"}


def test_metric_names_outside_the_alphabet_are_rejected():
    assert run.metric("audits.busy_s.float", 1.0, "s")[0] == "audits.busy_s.float"
    for bad in ("bad name", "graph/refine", "", "-lead", "x" * 65):
        with pytest.raises(ValueError):
            run.metric(bad, 1.0, "s")


def test_tail_has_ten_samples_beyond_it():
    pct, value, beyond = run.tail([float(i) for i in range(100)], 85)
    assert (pct, value, beyond) == (85, 84.0, 15)
    pct, value, beyond = run.tail([float(i) for i in range(60)], 85)
    assert (pct, beyond) == (80, 12)


def test_tracer_wraps_lookups_accounts_ops_and_restores():
    original = mf.audits.audit_multi_accuracy
    pop, cls, pred = mf.fixture_two_point()
    losses = [mf.zero_one_loss(pop.space)]
    tracer = Tracer()
    with tracer:
        assert mf.omni.audit_multi_accuracy is not original
        tracer.run_op("op", lambda: mf.omni_bound_check(pop, pred, losses, cls))
    assert mf.audit_multi_accuracy is original and mf.omni.audit_multi_accuracy is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["op", "omni_bound_check"]
    assert "audit_multi_accuracy" in names and "audit_calibration" in names
    assert accounting_error(tracer.spans, self_times(tracer.spans)) < 1e-9
