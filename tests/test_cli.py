import json

import pytest

from multifair.cli import main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def two_point(tmp_path):
    out = tmp_path / "tp.json"
    assert main(["fixture", "two-point", "--output", str(out)]) == 0
    return out


def test_fixture_and_audits(two_point, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["audit", str(two_point), "--kind", "mc", "--output", str(rep)]) == 0
    doc = read(rep)
    assert doc["value"] == "0.5"
    assert main(["audit", str(two_point), "--kind", "ma", "--output", str(rep)]) == 0
    assert read(rep)["value"] == "0"
    assert main(["audit", str(two_point), "--kind", "cal", "--output", str(rep)]) == 0
    assert read(rep)["value"] == "0.5"


def test_missing_file_exits_one(tmp_path):
    assert main(["audit", str(tmp_path / "nope.json"), "--kind", "mc"]) == 1


def test_malformed_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["audit", str(bad), "--kind", "mc"]) == 1


def test_domain_error_exits_two(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["fixture", "random", "--seed", "3", "--outcomes", "3",
                 "--output", str(out)]) == 0
    # covariance audit requires binary outcomes
    assert main(["audit", str(out), "--kind", "cov"]) == 2


def test_duplicate_hypothesis_names_exit_two(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["fixture", "random", "--seed", "3", "--hypotheses", "2",
                 "--output", str(out)]) == 0
    doc = read(out)
    doc["hypotheses"][1]["name"] = doc["hypotheses"][0]["name"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", str(out), "--kind", "mc"]) == 2
    err = capsys.readouterr().err
    assert "domain error" in err and "Traceback" not in err


def test_conditional_audit(two_point, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["audit", str(two_point), "--kind", "conditional", "--epsilon", "0.3",
                 "--conditional-kind", "mc", "--output", str(rep)]) == 0
    assert read(rep)["pass"] is False
    assert main(["audit", str(two_point), "--kind", "conditional", "--epsilon", "0.3",
                 "--conditional-kind", "ma", "--output", str(rep)]) == 0
    assert read(rep)["pass"] is True


def test_oi_audit_with_grid(two_point, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["audit", str(two_point), "--kind", "oi", "--family", "mc",
                 "--grid-m", "1", "--output", str(rep)]) == 0
    assert read(rep)["value"] == "0.5"


def test_construct_exact_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["fixture", "random", "--seed", "5", "--individuals", "6",
                 "--outcomes", "4", "--hypotheses", "3", "--output", str(inst)]) == 0
    out = tmp_path / "cons.json"
    assert main(["construct", str(inst), "--family", "mc", "--epsilon", "0.1",
                 "--rule", "mwu", "--mode", "exact", "--grid-m", "2",
                 "--output", str(out)]) == 0
    doc = read(out)
    # re-audit the emitted predictor through the CLI
    inst2 = read(inst)
    inst2["predictor"] = doc["predictor"]
    merged = tmp_path / "merged.json"
    merged.write_text(json.dumps(inst2))
    rep = tmp_path / "rep.json"
    assert main(["audit", str(merged), "--kind", "oi", "--family", "mc",
                 "--grid-m", "2", "--output", str(rep)]) == 0
    from multifair.serialize import parse_number
    assert parse_number(read(rep)["value"]) <= parse_number("0.1")


def test_construct_accepts_instance_without_predictor(two_point, tmp_path):
    doc = read(two_point)
    del doc["predictor"]
    inst = tmp_path / "no_pred.json"
    inst.write_text(json.dumps(doc))
    assert main(["construct", str(inst), "--family", "mc", "--epsilon", "0.2",
                 "--grid-m", "1", "--output", str(tmp_path / "out.json")]) == 0


def test_construct_basic_family_already_indistinguishable(two_point, tmp_path):
    # the uniform start is the truth, so no cell has a nonzero advantage
    out = tmp_path / "out.json"
    assert main(["construct", str(two_point), "--family", "basic", "--epsilon", "0.2",
                 "--grid-m", "1", "--output", str(out)]) == 0
    doc = read(out)["transcript"]
    assert doc["iterations"] == [] and doc["final_audit"] == "0"


def test_construct_sampled_deterministic(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["fixture", "random", "--seed", "2", "--individuals", "6",
                 "--outcomes", "2", "--hypotheses", "2", "--output", str(inst)]) == 0
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["construct", str(inst), "--family", "basic", "--epsilon", "0.2",
                     "--mode", "sampled", "--seed", "7", "--grid-m", "1",
                     "--output", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


def test_construct_sampled_requires_seed(tmp_path):
    inst = tmp_path / "inst.json"
    main(["fixture", "two-point", "--output", str(inst)])
    assert main(["construct", str(inst), "--family", "basic", "--epsilon", "0.2",
                 "--mode", "sampled"]) == 1


def test_graph_commands(tmp_path):
    gpath = tmp_path / "g.json"
    assert main(["fixture", "graph-random", "--seed", "4", "--n", "8",
                 "--output", str(gpath)]) == 0
    rep = tmp_path / "rep.json"
    assert main(["graph", str(gpath), "--task", "check-int", "--epsilon", "0.45",
                 "--output", str(rep)]) == 0
    doc = read(rep)
    assert doc["kind"] == "intermediate"
    assert main(["graph", str(gpath), "--task", "refine", "--epsilon", "0.3",
                 "--output", str(rep)]) == 0
    doc = read(rep)
    parts = doc["partition"]
    assert sorted(v for part in parts for v in part) == list(range(8))


def test_graph_complete_check_passes(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(
        {"n": 4, "edges": [[u, v] for u in range(4) for v in range(4)]}))
    rep = tmp_path / "rep.json"
    assert main(["graph", str(gpath), "--task", "check-int", "--epsilon", "0.1",
                 "--output", str(rep)]) == 0
    assert read(rep)["pass"] is True


def test_graph_correspond(tmp_path):
    gpath = tmp_path / "g.json"
    assert main(["fixture", "graph-random", "--seed", "1", "--n", "4",
                 "--output", str(gpath)]) == 0
    rep = tmp_path / "rep.json"
    assert main(["graph", str(gpath), "--task", "correspond",
                 "--output", str(rep)]) == 0
    doc = read(rep)
    assert len(doc["individuals"]) == 16
    assert "predictor" in doc and "hypotheses" in doc


def test_omni_command(two_point, tmp_path):
    losses = tmp_path / "losses.json"
    losses.write_text(json.dumps([{
        "name": "zero-one",
        "actions": ["0", "1"],
        "table": {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "0"}},
    }]))
    rep = tmp_path / "rep.json"
    assert main(["omni", str(two_point), "--losses", str(losses),
                 "--output", str(rep)]) == 0
    doc = read(rep)
    assert doc["bound_holds"] is True


def test_grid_fixture_emission(tmp_path):
    out = tmp_path / "grid.json"
    assert main(["fixture", "grid", "--m", "5", "--output", str(out)]) == 0
    doc = read(out)
    assert len(doc["individuals"]) == 25
    assert len(doc["hypotheses"]) == 5


def test_smc_and_cov_audit_serialization(two_point, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["audit", str(two_point), "--kind", "smc", "--output", str(rep)]) == 0
    doc = read(rep)
    assert doc["value"] == "0.5"
    assert doc["breakdown"]
    assert main(["audit", str(two_point), "--kind", "cov", "--output", str(rep)]) == 0
    assert read(rep)["kind"] == "covariance-multi-calibration"


def test_float_backend_flag(two_point, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["audit", str(two_point), "--kind", "mc", "--backend", "float",
                 "--output", str(rep)]) == 0
    assert abs(float(read(rep)["value"]) - 0.5) < 1e-9


def test_sampled_failure_exit_three_retains_transcript(tmp_path, monkeypatch):
    import multifair.cli as cli_mod
    from multifair.construct import ConstructionTranscript
    from multifair.errors import SampledRunFailureError

    def always_fails(pop, family, epsilon, rule=None, beta=0.05, rng=None, seed=None):
        tr = ConstructionTranscript(seed=seed, succeeded=False)
        raise SampledRunFailureError("exceeded the iteration cap", tr)

    monkeypatch.setattr(cli_mod, "construct_sampled", always_fails)
    inst = tmp_path / "inst.json"
    main(["fixture", "two-point", "--output", str(inst)])
    out = tmp_path / "out.json"
    code = main(["construct", str(inst), "--family", "basic", "--epsilon", "0.2",
                 "--mode", "sampled", "--seed", "3", "--grid-m", "1",
                 "--output", str(out)])
    assert code == 3
    doc = read(out)
    assert doc["failed"] is True
    assert doc["transcript"]["succeeded"] is False
