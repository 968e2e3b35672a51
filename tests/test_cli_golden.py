"""Golden bytes of the command-line interface.

Each case runs `multifair.cli.main` in process on a fixed argv and pins
its exit code, the sha256 of what it printed (stdout and stderr) and the
sha256 of the file it wrote with `--output`, if any, so a change to any
emitted byte, log line or exit code shows.  Input files are written into
a temporary directory, and its path reads as `{dir}` before hashing.

The cases are every `audit --kind` under both backends, with the four OI
families; `construct` in exact mwu, exact pgd and seeded sampled mode, and
a sampled run that fails (exit 3); each graph task, with a seeded
alternating `refine` and `correspond` at n = 4 and n = 8; `omni`; each
`fixture`; and every row of `test_cli.BAD_INPUTS`, all of which exit 1
or 2.  Argparse usage errors and `--help` are left out.  A last test
checks that a parser choice with no branch in its verb is an input error.

The file `cli_golden.json` was recorded before every verb returned its
document to `main`, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from multifair import cli
from multifair.construct import ConstructionTranscript
from multifair.errors import InputError, SampledRunFailureError
from test_cli import BAD_INPUTS

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")

# Input files, each made by the CLI itself: name -> fixture argv.
FIXTURES = {
    "tp": ["two-point"],
    "grid": ["grid", "--m", "3"],
    "rnd": ["random", "--seed", "5", "--individuals", "6", "--hypotheses", "3"],
    "rnd4": ["random", "--seed", "5", "--individuals", "6", "--outcomes", "4",
             "--hypotheses", "3"],
    "g4": ["graph-random", "--seed", "3", "--n", "4"],
    "g6": ["graph-random", "--seed", "1", "--n", "6"],
    "g8": ["graph-random", "--seed", "2", "--n", "8"],
}
ZERO_ONE = {"name": "zero-one", "actions": ["0", "1"],
            "table": {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "0"}}}
SQUARE = {"name": "square", "actions": ["0", "1/2", "1"],
          "table": {"0": {"0": "0", "1/2": "1/4", "1": "1"},
                    "1": {"0": "1", "1/2": "1/4", "1": "0"}}}
FILES = {"losses": [ZERO_ONE, SQUARE], "part4": [[0, 1], [2, 3]],
         "part6": [[0, 1, 2], [3, 4, 5]],
         "part8": [[0, 1, 2, 3], [4, 5, 6, 7]]}

AUDITS = {"ma": [], "mc": [], "smc": [], "cal": [], "cov": [],
          **{f"oi-{family}": ["--family", family, "--grid-m", "2"]
             for family in ("basic", "mc", "smc", "lowdegree")},
          "oi-mc-epsilon": ["--epsilon", "0.05"],
          "omni": ["--losses", "{losses}"],
          **{f"conditional-{ck}": ["--epsilon", "0.2", "--conditional-kind", ck]
             for ck in ("ma", "mc", "smc")}}
CONSTRUCT = ["construct", "{rnd4}", "--epsilon", "0.1", "--grid-m", "2"]
SAMPLED = ["construct", "{tp}", "--family", "basic", "--epsilon", "0.2", "--grid-m", "1",
           "--mode", "sampled", "--seed", "7"]

CASES = {
    **{f"fixture-{name}": ["fixture", *argv] for name, argv in FIXTURES.items()},
    "fixture-grid-output": ["fixture", "grid", "--m", "4", "--output", "{out}"],
    "fixture-random-output": ["fixture", "random", "--seed", "9", "--outcomes", "3",
                              "--output", "{out}"],
    **{f"audit-{kind}-{inst}-{backend}": [
        "audit", f"{{{inst}}}", "--kind", kind.split("-")[0], "--backend", backend, *extra]
       for kind, extra in AUDITS.items() for inst in ("tp", "rnd")
       for backend in ("rational", "float")},
    "audit-mc-rnd4-output": ["audit", "{rnd4}", "--kind", "mc", "--output", "{out}"],
    "audit-oi-grid": ["audit", "{grid}", "--kind", "oi", "--grid-m", "3"],
    "audit-oi-lowdegree-2-rnd4": ["audit", "{rnd4}", "--kind", "oi", "--family", "lowdegree",
                                  "--degree", "2"],
    **{f"construct-exact-{rule}-{family}": [*CONSTRUCT, "--rule", rule, "--family", family]
       for rule in ("mwu", "pgd") for family in ("mc", "smc", "basic")},
    "construct-exact-lowdegree": ["construct", "{rnd}", "--epsilon", "0.1",
                                  "--family", "lowdegree", "--degree", "2"],
    "construct-exact-output": [*CONSTRUCT, "--rule", "pgd", "--output", "{out}"],
    "construct-sampled": SAMPLED,
    "construct-sampled-pgd-output": [*SAMPLED, "--rule", "pgd", "--output", "{out}"],
    "construct-sampled-fails": SAMPLED,
    "construct-sampled-fails-output": [*SAMPLED, "--output", "{out}"],
    **{f"graph-{task}-{part}": [
        "graph", "{g6}", "--task", task, "--epsilon", "0.3",
        *(["--partition", "{part6}"] if part == "part6" else [])]
       for task in ("check-fk", "check-int", "check-sz") for part in ("trivial", "part6")},
    "graph-check-sz-output": ["graph", "{g6}", "--task", "check-sz", "--epsilon", "0.3",
                              "--output", "{out}"],
    "graph-refine-exact": ["graph", "{g6}", "--task", "refine", "--epsilon", "0.3"],
    **{f"graph-refine-alternating-seed{s}": [
        "graph", "{g8}", "--task", "refine", "--epsilon", "0.3",
        "--oracle", "alternating", "--seed", str(s)] for s in (0, 1)},
    "graph-correspond-4": ["graph", "{g4}", "--task", "correspond"],
    "graph-correspond-4-part": ["graph", "{g4}", "--task", "correspond",
                                "--partition", "{part4}"],
    "graph-correspond-8": ["graph", "{g8}", "--task", "correspond",
                           "--partition", "{part8}"],
    "graph-correspond-8-output": ["graph", "{g8}", "--task", "correspond",
                                  "--output", "{out}"],
    **{f"omni-{inst}": ["omni", f"{{{inst}}}", "--losses", "{losses}"]
       for inst in ("tp", "rnd")},
    "omni-output": ["omni", "{rnd}", "--losses", "{losses}", "--output", "{out}"],
    **{f"bad: {' '.join(argv)}": argv for argv, _ in BAD_INPUTS},
}


def _always_fails(pop, family, epsilon, rule=None, beta=0.05, rng=None, seed=None):
    raise SampledRunFailureError("exceeded the iteration cap",
                                 ConstructionTranscript(seed=seed, succeeded=False))


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _bad_input_files(files):
    """The malformed inputs `test_cli.test_bad_inputs_exit_cleanly` writes.

    A copy of that test's builder: keep the two in step, since a drift shows
    here only as a sha256 mismatch."""
    tp = json.loads(Path(files["tp"]).read_text())
    docs = {"empty": [], "small": [[0, 1], [2, 3]], "large": [[0, 1, 2, 3], [4, 5, 6, 7]],
            "dup": [ZERO_ONE, ZERO_ONE],
            "list_table": [dict(ZERO_ONE, table=[["0", "1"], ["1", "0"]])],
            "list_row": [dict(ZERO_ONE, table={"0": ["0", "1"], "1": {"0": "1", "1": "0"}})],
            "alpha": [["a", 1, 2], [3, 4, 5]], "fractional_part": [[0, 1, 2], [3, 4, 5.5]],
            "boolean_part": [[True, 0, 2], [3, 4, 5]],
            "g_fractional_n": {"n": 3.5, "edges": [[0, 1]]},
            "g_boolean_n": {"n": True, "edges": []},
            "g_fractional_edge": {"n": 3, "edges": [[0, 1.5]]},
            "g_boolean_edge": {"n": 3, "edges": [[True, 2]]}}
    bad = {name: json.loads(json.dumps(tp)) for name in (
        "tp_missing_value", "tp_list_truth", "tp_list_prediction", "tp_unknown_outcome",
        "tp_bool_truth", "tp_bool_weight", "tp_list_truth_repeated", "tp_nan_weight",
        "tp_infinite_truth", "tp_list_values", "tp_list_predictor", "tp_false_closure")}
    del bad["tp_missing_value"]["hypotheses"][0]["values"]["1"]
    bad["tp_list_truth"]["individuals"][0]["p_true"] = ["0.5", "0.5"]
    bad["tp_list_prediction"]["predictor"]["0"] = ["1", "0"]
    bad["tp_unknown_outcome"]["individuals"][0]["p_true"]["2"] = "0"
    first, second = bad["tp_bool_truth"]["individuals"]
    first["p_true"], second["p_true"] = {"0": 1, "1": 0}, {"0": True, "1": False}
    first, second = bad["tp_bool_weight"]["individuals"]
    first["weight"], second["weight"] = 1, True
    second = bad["tp_list_truth_repeated"]["individuals"][1]
    second["p_true"] = list(second["p_true"].values())
    bad["tp_nan_weight"]["individuals"][0]["weight"] = float("nan")
    bad["tp_infinite_truth"]["individuals"][0]["p_true"]["0"] = float("inf")
    hypothesis = bad["tp_list_values"]["hypotheses"][0]
    hypothesis["values"] = list(hypothesis["values"].values())
    bad["tp_list_predictor"]["predictor"] = list(bad["tp_list_predictor"]["predictor"].values())
    bad["tp_false_closure"]["closed_under_complement"] = True
    docs.update(bad)
    return docs, json.dumps(tp).replace('"0.5"', "1" * 5000, 1)


def _write_inputs(directory):
    """Every input file under `directory`, as name -> path."""
    files = {name: str(Path(directory, f"{name}.json")) for name in FIXTURES}
    for name, argv in FIXTURES.items():
        assert _main(["fixture", *argv, "--output", files[name]])[0] == 0
    docs, long_integer = _bad_input_files(files)
    for name, doc in {**FILES, **docs}.items():
        files[name] = str(Path(directory, f"{name}.json"))
        Path(files[name]).write_text(json.dumps(doc))
    files["tp_long_integer"] = str(Path(directory, "tp_long_integer.json"))
    Path(files["tp_long_integer"]).write_text(long_integer)
    files["out"] = str(Path(directory, "out.json"))
    return files


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _record(key, files, directory):
    out = Path(files["out"])
    out.unlink(missing_ok=True)
    argv = [a.format(**files) for a in CASES[key]]
    fails = mock.patch.object(cli, "construct_sampled", _always_fails)
    with fails if key.startswith("construct-sampled-fails") else contextlib.nullcontext():
        code, stdout, stderr = _main(argv)
    printed = json.dumps([stdout, stderr]).replace(json.dumps(str(directory))[1:-1], "{dir}")
    return {"exit": code, "printed": _sha256(printed),
            "output": _sha256(out.read_text()) if out.exists() else None}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    return _write_inputs(directory), directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    codes = {key: rec["exit"] for key, rec in golden.items()}
    assert set(codes.values()) == {0, 1, 2, 3}
    assert all(codes[f"bad: {' '.join(argv)}"] == code for argv, code in BAD_INPUTS)
    assert all(rec["output"] is not None for key, rec in golden.items() if key.endswith("-output"))


@pytest.mark.parametrize("key", list(CASES))
def test_cli_bytes_are_pinned(key, inputs, golden):
    assert _record(key, *inputs) == golden[key]


@pytest.mark.parametrize("argv, field, message", [
    (["audit", "{tp}", "--kind", "ma"], "kind", "unknown audit kind"),
    (["graph", "{g4}", "--task", "refine"], "task", "unknown graph task"),
    (["fixture", "two-point"], "which", "unknown fixture")])
def test_a_choice_without_a_branch_is_an_input_error(argv, field, message, inputs):
    # argparse's choices refuse unknown values first; a choice added to the
    # parser without a branch in its verb must still fail as an input error
    args = cli._PARSER.parse_args([a.format(**inputs[0]) for a in argv])
    setattr(args, field, "unbranched")
    with pytest.raises(InputError, match=message):
        args.fn(args)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        files = _write_inputs(directory)
        GOLDEN_PATH.write_text(json.dumps(
            {key: _record(key, files, directory) for key in CASES}, indent=1) + "\n")
