"""End-to-end command-line checks against the bundled example documents."""

import importlib.util
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import chain3_phi_u, chain3_phi_x

from locrel.cli import main
from locrel.rational import RationalMatrix

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), err
    return code, json.loads(out)


def test_structure_check_corpus(capsys):
    code, doc = run_json(
        capsys, "structure", "check", "--input", str(DATA / "tridiag3.json")
    )
    assert code == 0
    assert doc["structured"] is True
    assert doc["networkRealizable"] is True
    assert doc["tfStructured"] is False


def test_structure_check_rejects_a_partition_without_one_block_per_node(capsys, tmp_path):
    doc = json.loads((DATA / "tridiag3.json").read_text())
    for side in ("in", "out"):
        doc["system"]["partitions"] = {"state": [1, 1, 1], side: [2, 1]}
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "structure", "check", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "one block per node" in err


def test_structure_realize_corpus(capsys):
    code, doc = run_json(
        capsys, "structure", "realize", "--input", str(DATA / "chain3_phi_u_realize.json")
    )
    assert code == 0
    assert doc["structure"]["structured"] is True
    assert doc["structure"]["networkRealizable"] is True
    assert np.asarray(doc["system"]["A"]).shape[0] > 0


def test_relative_check_corpus(capsys):
    code, doc = run_json(
        capsys, "relative", "check", "--input", str(DATA / "ring4_relative_row.json")
    )
    assert code == 0
    assert doc == {"relative": True}


def test_relative_decompose_corpus(capsys):
    code, doc = run_json(
        capsys, "relative", "decompose", "--input", str(DATA / "ring4_relative_row.json")
    )
    assert code == 0
    want = [
        [0.0, -1.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
    assert np.allclose(doc["m"], want, atol=1e-10)
    assert np.allclose(doc["rowSums"], [-2.0, 1.0, 0.0, 1.0], atol=1e-10)


def test_sls_check_corpus(capsys):
    code, doc = run_json(
        capsys, "sls", "check", "--input", str(DATA / "chain3_plant_controller.json")
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["affineResidual"] < 1e-8


def test_sls_check_reads_the_tolerance(capsys):
    path = str(DATA / "chain3_plant_controller.json")
    _, default = run_json(capsys, "sls", "check", "--input", path)
    _, strict = run_json(capsys, "sls", "check", "--input", path, "--tolerance", "-1")
    assert default["ok"] is True and strict["ok"] is False
    assert strict["affineResidual"] == default["affineResidual"]


def test_tolerance_is_an_sls_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consensus", "h2", "--n", "4", "--gamma", "1", "--tolerance", "1e9"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tolerance 1e9" in capsys.readouterr().err


def test_sls_closed_loops_corpus(capsys):
    code, doc = run_json(
        capsys, "sls", "closed-loops", "--input", str(DATA / "chain3_plant_controller.json")
    )
    assert code == 0
    px = RationalMatrix.from_json(doc["phiX"])
    pu = RationalMatrix.from_json(doc["phiU"])
    for s in (1.0, 2.0 + 1.0j):
        assert np.max(np.abs(px.evaluate(s) - chain3_phi_x().evaluate(s))) < 1e-8
        assert np.max(np.abs(pu.evaluate(s) - chain3_phi_u().evaluate(s))) < 1e-8


def test_sls_recover_corpus(capsys):
    code, doc = run_json(
        capsys, "sls", "recover", "--input", str(DATA / "chain3_closed_loops.json")
    )
    assert code == 0
    K = RationalMatrix.from_json(doc["controller"]["matrix"])
    want = np.array(
        [
            [-9.0, 18.0, -6.0],
            [18.0, -13.0, 12.0],
            [-6.0, 12.0, -4.0],
        ]
    )
    assert np.max(np.abs(23.0 * K.evaluate(1.0) - want)) < 1e-8


def test_sls_implement_corpus(capsys):
    code, doc = run_json(
        capsys, "sls", "implement", "--input", str(DATA / "chain3_closed_loops.json")
    )
    assert code == 0
    assert doc["structure"]["structured"] is True


def test_consensus_feasibility_exit_codes(capsys):
    code, doc = run_json(
        capsys, "consensus", "feasibility", "--n", "8", "--b", "1", "--gamma", "1.0"
    )
    assert code == 2
    assert doc["verdict"] == "Infeasible"
    assert doc["rank"] == 7 and doc["threshold"] == 3
    assert np.allclose(doc["witnessRowSums"], 1.0, atol=1e-8)

    code, doc = run_json(
        capsys,
        "consensus",
        "feasibility",
        "--n",
        "8",
        "--b",
        "3",
        "--measure",
        "lr",
    )
    assert code == 0
    assert doc["verdict"] == "PotentiallyFeasible"


def test_consensus_h2_static(capsys):
    code, doc = run_json(
        capsys, "consensus", "h2", "--n", "4", "--gamma", "1.0"
    )
    assert code == 0
    assert doc["h2Squared"] == pytest.approx(4.625, abs=1e-9)


def test_consensus_h2_approximation(capsys):
    code, doc = run_json(
        capsys,
        "consensus",
        "h2",
        "--n",
        "4",
        "--gamma",
        "1.0",
        "--controller",
        "ka",
        "--a",
        "-10",
    )
    assert code == 0
    assert doc["h2Squared"] == pytest.approx(4.775, abs=1e-9)


def test_consensus_h2_ka_needs_pole(capsys):
    code, out, err = run_cli(
        capsys, "consensus", "h2", "--n", "4", "--controller", "ka"
    )
    assert code == 1
    assert "needs its pole" in err


def test_consensus_gap_demo(capsys):
    code, doc = run_json(
        capsys, "consensus", "gap-demo", "--n", "4", "--b", "1", "--gamma", "1.0"
    )
    assert code == 2
    assert doc["verdict"] == "Infeasible"
    assert doc["h2Values"]["ks"] == pytest.approx(4.625, abs=1e-9)
    assert doc["structureWitnesses"]["kaNetworkRealizable"] is True


def test_spatial_feasibility(capsys):
    code, doc = run_json(
        capsys, "spatial", "feasibility", "--d", "1", "--n", "8", "--b", "1"
    )
    assert code == 2
    assert doc["excludedCount"] == 5

    code, out, err = run_cli(
        capsys, "spatial", "feasibility", "--d", "3", "--n", "3", "--b", "1"
    )
    assert code == 1
    assert "error" in err


def test_spatial_h2_corpus(capsys):
    code, doc = run_json(
        capsys, "spatial", "h2", "--input", str(DATA / "kernel_ring8.json")
    )
    assert code == 0
    assert doc["h2Squared"] == pytest.approx(0.625, abs=1e-12)
    assert doc["parsevalH2Squared"] == pytest.approx(0.625, abs=1e-8)
    assert doc["h2"] == pytest.approx(np.sqrt(0.625), abs=1e-12)


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(
        capsys, "consensus", "gap-demo", "--n", "4", "--b", "1", "--gamma", "1.0"
    )
    _, out2, _ = run_cli(
        capsys, "consensus", "gap-demo", "--n", "4", "--b", "1", "--gamma", "1.0"
    )
    assert out1 == out2


def test_csv_output(capsys):
    code, out, err = run_cli(
        capsys,
        "consensus",
        "h2",
        "--n",
        "4",
        "--gamma",
        "1.0",
        "--output",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    key, value = lines[1].split(",")
    assert key == "h2Squared"
    assert float(value) == pytest.approx(4.625, abs=1e-9)


def test_flags_before_and_after_action_word(capsys):
    path = str(DATA / "ring4_relative_row.json")
    _, doc1 = run_json(capsys, "relative", "--input", path, "check")
    _, doc2 = run_json(capsys, "relative", "check", "--input", path)
    assert doc1 == doc2 == {"relative": True}


def test_common_options_before_the_command_word_are_rejected(capsys):
    for flag in (["--output", "csv"], ["--tolerance", "1e-3"], ["--input", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            main([*flag, "consensus", "h2", "--n", "4", "--gamma", "1"])
        assert exc.value.code == 1
        assert "usage: locrel" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "consensus", "h2", "--n", "4", "--gamma", "1", "--output", "csv")
    assert code == 0 and out.splitlines() == ["key,value", "h2Squared,4.625"]


@pytest.mark.parametrize(
    "action, extra, doc",
    [
        ("feasibility", [], {"n": 8, "b": 1}),
        ("feasibility", [], {"n": 8, "b": 1, "measure": "le"}),
        ("h2", ["--gamma", "1"], {"n": 8, "b": 1}),
        ("h2", ["--gamma", "1"], {"n": 8, "c": np.eye(8).tolist()}),
    ],
)
def test_consensus_measure_flag_wins_over_the_document(capsys, tmp_path, action, extra, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for measure in ("le", "lr"):
        _, got = run_json(capsys, "consensus", action, "--input", str(path), "--measure", measure, *extra)
        _, want = run_json(capsys, "consensus", action, "--n", "8", "--b", "1", "--measure", measure, *extra)
        assert got == want


def test_stdin_input(capsys, monkeypatch):
    doc = {"gain": [1.0, -2.0, 1.0]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run_json(capsys, "relative", "check", "--input", "-")
    assert out == {"relative": True}


def test_missing_input_is_an_error(capsys):
    code, out, err = run_cli(capsys, "structure", "check")
    assert code == 1
    assert "needs --input" in err


def test_unreadable_input_is_an_error(capsys):
    code, out, err = run_cli(capsys, "structure", "check", "--input", "no-such.json")
    assert code == 1
    assert "error" in err


def test_unknown_action_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["structure", "destroy"])
    assert exc.value.code == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "locrel.cli", "consensus", "h2", "--n", "4", "--gamma", "1"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).parent.parent),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["h2Squared"] == pytest.approx(4.625, abs=1e-9)


def _fresh_cli(*argv):
    done = subprocess.run(
        [sys.executable, "-m", "locrel.cli", *argv],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
    )
    # bytes, decoded as is: csv rows end in \r\n
    return done.returncode, done.stdout.decode(), done.stderr.decode()


@pytest.mark.parametrize("usage_error", [False, True])
def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys, usage_error):
    # main keeps one parser per process; reusing it changes no output, also
    # after a usage error has exited through _Parser.error
    first = ["relative", "check", "--input", str(DATA / "ring4_relative_row.json")]
    second = ["consensus", "h2", "--n", "4", "--gamma", "1", "--output", "csv"]
    got = [run_cli(capsys, *first)]
    if usage_error:
        with pytest.raises(SystemExit) as exc:
            main(["relative", "destroy"])
        captured = capsys.readouterr()
        got.append((exc.value.code, captured.out, captured.err))
    got.append(run_cli(capsys, *second))
    argvs = [first] + ([["relative", "destroy"]] if usage_error else []) + [second]
    assert got == [_fresh_cli(*argv) for argv in argvs]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    import locrel.cli as cli

    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    try:
        run_cli(capsys, "consensus", "h2", "--n", "4")
        with pytest.raises(SystemExit):
            main(["structure", "destroy"])
        run_cli(capsys, "relative", "check", "--input", str(DATA / "ring4_relative_row.json"))
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", PERFBENCH / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _load_oracles()
CLI_CORPUS = json.loads((PERFBENCH / "cli_expected.json").read_text())


@pytest.mark.parametrize(
    "case", CLI_CORPUS, ids=[" ".join(case["argv"][:2]) + f" {i}" for i, case in enumerate(CLI_CORPUS)]
)
def test_cli_corpus_matches_recorded_outputs(case, capsys):
    # the README commands against the outputs recorded with the benchmark,
    # compared by the benchmark's own rule (floats to 1e-9 relative)
    argv = [arg.replace("{data}", str(PERFBENCH / "data")) for arg in case["argv"]]
    code, out, err = run_cli(capsys, *argv)
    assert code == case["exit"], err
    ORACLES.same_document(json.loads(out), case["stdout"])


def _cli_error(capsys, tmp_path, command, text):
    """Run ``locrel <command> --input`` on a document given as JSON text."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *command.split(), "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    return err


def test_non_finite_coefficients_are_an_error(capsys, tmp_path):
    # json reads 1e999 as inf, which used to make this row "relative": false
    row = '[{"num": [1e999], "den": [1]}, {"num": [-1], "den": [1]}]'
    err = _cli_error(capsys, tmp_path, "relative check", f'{{"matrix": {{"entries": [{row}]}}}}')
    assert "finite" in err
    assert "finite" in _cli_error(capsys, tmp_path, "relative check", '{"gain": [[1e999, 1.0]]}')


@pytest.mark.parametrize(
    "doc",
    ['{"gain": [1, -1, 0], "graph": {"n": 3, "edges": [[0]]}}', '{"gain": [], "graph": {"n": 0}}'],
)
def test_malformed_graph_is_an_error(capsys, tmp_path, doc):
    # an edge that is not a pair, or a graph with no nodes, used to escape as IndexError
    _cli_error(capsys, tmp_path, "relative decompose", doc)


@pytest.mark.parametrize(
    "command, doc",
    [
        ("relative check", {"system": {"A": [], "B": [], "C": [], "D": [[1, -1]]}}),
        ("relative decompose", {"graph": {"n": 3}}),
    ],
)
def test_relative_document_without_a_gain_is_an_error(capsys, tmp_path, command, doc):
    # these used to print the bare missing key: "error: 'gain'"
    err = _cli_error(capsys, tmp_path, command, json.dumps(doc))
    assert "one of: matrix, gain" in err


def test_zero_denominator_is_an_error(capsys, tmp_path):
    row = '[{"num": [1], "den": [0]}, {"num": [-1], "den": [1]}]'
    err = _cli_error(capsys, tmp_path, "relative check", f'{{"matrix": {{"entries": [{row}]}}}}')
    assert "zero" in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("relative decompose", {"gain": [1, -1, 0], "graph": {"n": 3.9}}),
        ("relative decompose", {"gain": [1, -1, 0], "graph": {"n": 3, "edges": [[0.7, 1.2]]}}),
        ("relative decompose", {"gain": [1, -1, 0], "graph": {"n": 3, "edges": [[True, 2]]}}),
        ("structure check", {"pattern": {"graph": {"n": 3}, "rowPartition": [1, 1, True]}}),
        ("structure check", {"pattern": {"graph": {"n": 3}, "colPartition": [1.5, 0.5, 1]}}),
        ("consensus h2", {"n": 4.7}),
        ("consensus feasibility", {"n": 8, "b": 1.5}),
        ("consensus gap-demo", {"n": 8, "b": True}),
        ("spatial feasibility", {"d": 1.5, "n": 8, "b": 1}),
        ("spatial feasibility", {"d": 1, "n": 8.5, "b": 1}),
        ("spatial feasibility", {"d": 1, "n": 8, "b": True}),
        ("spatial h2", {"kernel": {"d": True, "n": 8, "taps": []}}),
        ("spatial h2", {"kernel": {"d": 1, "n": 8.2, "taps": []}}),
        ("spatial h2", {"kernel": {"d": 1, "n": 8, "taps": [{"offset": [0.6], "num": [1], "den": [1, 1]}]}}),
    ],
)
def test_non_integral_counts_are_an_error(capsys, tmp_path, command, doc):
    # each of these used to be truncated: {"n": 4.7} ran as n = 4
    err = _cli_error(capsys, tmp_path, command, json.dumps(doc))
    assert "integer" in err


_RANK_TWO_MEASURE = [[1.0 if i == j else -1.0 / 7.0 for j in range(8)] for i in range(8)]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("consensus h2", {"n": 4, "gamma": True}),
        ("consensus h2", {"n": 4, "gamma": "1"}),
        ("consensus h2", {"n": 4, "controller": "ka", "a": True}),
        ("consensus h2", {"n": 4, "controller": "ka", "a": "-10"}),
        ("consensus gap-demo", {"n": 8, "b": 1, "gamma": False}),
        ("consensus feasibility", {"n": 8, "b": 1, "c": [[True] + row[1:] for row in _RANK_TWO_MEASURE]}),
        ("consensus h2", {"n": 8, "c": [["1"] + row[1:] for row in _RANK_TWO_MEASURE]}),
        ("relative check", {"gain": [[1, True], [0, 0]]}),
        ("relative decompose", {"gain": [1, True, 0], "graph": {"n": 3}}),
        ("sls check", {"plant": {"a": [[False]]}, "controller": {"static": [[-1]]}}),
        ("sls check", {"plant": {"a": [[0]], "b2": [[True]]}, "controller": {"static": [[-1]]}}),
        ("sls closed-loops", {"plant": {"a": [[0]]}, "controller": {"static": [[True]]}}),
    ],
)
def test_boolean_or_string_numbers_are_an_error(capsys, tmp_path, command, doc):
    # each of these used to run: {"n": 4, "gamma": true} as gamma = 1
    err = _cli_error(capsys, tmp_path, command, json.dumps(doc))
    assert "must be a number" in err


@pytest.mark.parametrize(
    "controller, message",
    [
        ({"static": [[-1, 1], [1, -1]]}, "4 x 4"),
        ({"static": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]}, "4 x 4"),
        ({"system": {"A": [[-1]], "B": [[1, -1]], "C": [[1], [-1]], "D": [[0, 0], [0, 0]]}}, "4 x 4"),
        ({"matrix": {"entries": [[{"num": [-1], "den": [1]}]]}}, "gain array or a StateSpace"),
    ],
)
def test_consensus_h2_controller_of_the_wrong_size_is_an_error(capsys, tmp_path, controller, message):
    # a 2-agent gain used to be broadcast against the 4-agent measure and scored 3.75
    doc = json.dumps({"n": 4, "gamma": 1, "controller": controller})
    assert message in _cli_error(capsys, tmp_path, "consensus h2", doc)


@pytest.mark.parametrize(
    "command", ["consensus h2 --n 4", "consensus gap-demo --n 8 --b 1", "consensus feasibility --n 8 --b 1"]
)
@pytest.mark.parametrize("flag, token", [("nan", "NaN"), ("inf", "Infinity"), ("-1", "-1")])
def test_negative_or_non_finite_gamma_is_an_error(capsys, tmp_path, command, flag, token):
    # NaN used to print as the invalid JSON token NaN with exit 0
    code, out, err = run_cli(capsys, *command.split(), "--gamma", flag)
    assert (code, out) == (1, "")
    assert "control weight" in err
    doc = f'{{"n": 8, "b": 1, "gamma": {token}}}'
    assert "control weight" in _cli_error(capsys, tmp_path, command.split(" --")[0], doc)


def test_scalar_tap_offset_is_an_error(capsys, tmp_path):
    kernel = '{"d": 1, "n": 8, "taps": [{"offset": 0, "num": [1], "den": [1, 1]}]}'
    err = _cli_error(capsys, tmp_path, "spatial h2", f'{{"kernel": {kernel}}}')
    assert "offset" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [1e308, 1e200])
def test_a_non_finite_result_is_an_error_not_output(tmp_path, capsys, value, fmt):
    # a tap this large overflows the H2 sums to inf and NaN, which JSON
    # cannot hold: the command fails with one error line and prints nothing
    doc = json.loads((DATA / "kernel_ring8.json").read_text())
    doc["kernel"]["taps"][1]["num"][0] = value
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spatial", "h2", "--input", str(path), "--output", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the result holds a number that is not finite"]


@pytest.mark.parametrize("gamma", ["1e200", "1e308"])
@pytest.mark.parametrize(
    "command", ["consensus h2 --n 4", "consensus gap-demo --n 8 --b 1", "consensus h2 --n 4 --controller ka --a -10"]
)
def test_a_control_weight_past_the_float_range_is_an_error(capsys, command, gamma):
    # the static gain's cost used to end in an OverflowError traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *command.split(), "--gamma", gamma)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the result holds a number that is not finite"]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("structure check", {"pattern": {"graph": {"n": 3}}}, "error: $.system is missing"),
        ("sls check", {"plant": {"a": [[0]]}, "controller": []}, "error: $.controller must be an object, not []"),
        ("sls check", {"plant": {"a": [[0]]}, "controller": {}}, "error: $.controller needs one of: static, system, matrix"),
        ("sls recover", {"closedLoops": {"phiX": {"entries": [[{"num": [1], "den": [1, 1]}]]}}}, "error: $.closedLoops.phiU is missing"),
        ("sls closed-loops", {"plant": {"a": [[0]]}, "controller": {"static": [[-1, 1], [1]]}}, "error: $.controller.static must be a rectangular array"),
        ("consensus h2", {"n": 4, "controller": "kb"}, "error: $.controller must be an object, not 'kb'"),
        ("consensus h2", {"n": 4, "c": [[1, 0], [0, "x"]]}, "error: $.c[1][1] must be a number, not 'x'"),
        ("spatial h2", {"kernel": {"d": 1, "n": 8, "taps": {}}}, "error: $.kernel.taps must be a list, not {}"),
        ("relative decompose", {"gain": [1, -1], "graph": {"n": 2, "edges": [[0, 1e308]]}}, "error: $.graph.edges[0][1] must be an integer"),
    ],
)
def test_a_reading_error_names_the_path_of_the_value(capsys, tmp_path, command, doc, message):
    err = _cli_error(capsys, tmp_path, command, json.dumps(doc))
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_a_null_optional_value_reads_as_unset(capsys, tmp_path):
    # null stands for an unset field: the plant's B2 is the identity, and so on
    path = tmp_path / "doc.json"
    doc = json.loads((DATA / "chain3_plant_controller.json").read_text())
    _, want = run_json(capsys, "sls", "check", "--input", str(DATA / "chain3_plant_controller.json"))
    doc["plant"]["b2"] = None
    path.write_text(json.dumps(doc))
    assert run_json(capsys, "sls", "check", "--input", str(path))[1] == want
    path.write_text(json.dumps({"n": 4, "gamma": None, "measure": None, "controller": None}))
    _, got = run_json(capsys, "consensus", "h2", "--input", str(path))
    assert got == run_json(capsys, "consensus", "h2", "--n", "4")[1]


@pytest.mark.parametrize("n", ["-1", "0", "1", "2"])
def test_consensus_h2_refuses_fewer_than_three_agents(capsys, n):
    # the measure used to be built first, and numpy's own error was printed
    code, out, err = run_cli(capsys, "consensus", "h2", "--n", n)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: need at least 3 agents"]
