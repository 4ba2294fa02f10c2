import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckelat import acceptance, cli, hecke, rootdata


def run(argv):
    return cli.run_capture(argv)


def test_gk_table_csv():
    out, manifest = run(["gk", "--datum", "A1", "--height", "5"])
    lines = out.strip().splitlines()
    assert lines[0] == "coweight,coefficient"
    assert '"(1)",q - 1' in lines
    assert '"(2)",q^2 - q' in lines
    man = json.loads(manifest)
    assert man["subcommand"] == "gk"
    assert man["datum_sha256"]


def test_gk_numeric_q():
    out, _ = run(["gk", "--datum", "A1", "--height", "4", "--q", "3"])
    assert '"(1)",2' in out
    assert '"(2)",6' in out


def test_nu_table():
    out, _ = run(["nu", "--datum", "A2", "--height", "6"])
    lines = out.splitlines()
    assert '"(1,0)",-q + 1' in lines
    assert '"(1,2)",q^3 - q^2 - q + 1' in lines


def test_retract_json():
    out, _ = run(["retract", "--datum", "A2", "--coweight=-1,0"])
    data = json.loads(out)
    assert data["retraction"] == ["0", "0"]
    assert data["linearity_domain"] == [1]


def test_cone_check_pass():
    out, _ = run(["cone-check", "--datum", "G2"])
    assert "fail" not in out


def test_char_pieces():
    out, _ = run(["char", "pieces", "--datum", "A2", "--parabolic", "1"])
    data = json.loads(out)
    assert data == [{"level": "3/2", "weights": [[0, 1], [1, 1]]}]


def test_char_decompose():
    payload = json.dumps([[[0, 0], 1]])
    out, _ = run(["char", "decompose", "--datum", "A2", "--parabolic", "1,2", "--input", payload])
    data = json.loads(out)
    assert data["components"] == [[[0, 0], 1]] and not data["virtual"]


def test_intertwine_roundtrip():
    payload = json.dumps([[[0], 1], [[-1], 2]])
    out, _ = run([
        "intertwine", "--datum", "A1", "--height", "14", "--input", payload, "--roundtrip",
    ])
    assert "roundtrip,pass" in out


def test_oracle_mu_agreement():
    out, _ = run(["oracle-mu", "--group", "SL2", "--coweight", "2", "--q", "3"])
    assert "agreement,pass" in out
    assert "measure,6" in out


def test_weyl_identities_table():
    out, _ = run(["weyl-identities", "--datum", "A2"])
    assert "vanishing-A" in out and "fail" not in out


def test_global_roundtrip_and_conventions():
    payload = json.dumps([[0, 1], [2, -3]])
    out, _ = run(["global-sl2", "roundtrip", "--input", payload, "--window", "5"])
    assert "roundtrip,pass" in out
    out2, _ = run(["global-sl2", "--explain-conventions"])
    assert "modulus" in out2


def test_satake_check():
    out, _ = run(["satake-check", "--datum", "A2", "--height", "6"])
    assert out.count("pass") == 3


def test_satake_check_inverts_only_the_lambda_series_of_each_piece(monkeypatch):
    # mu's inverse comes from nu and the Lambda-ratio side from rank-one factors; the product
    # expansion still inverts one Lambda-series per graded piece (A2 Borel has two)
    calls = []
    invert = hecke.GradedSeries.invert

    def counting_invert(self):
        calls.append(self)
        return invert(self)

    monkeypatch.setattr(hecke.GradedSeries, "invert", counting_invert)
    out, _ = run(["satake-check", "--datum", "A2", "--height", "8"])
    assert out.count("pass") == 3
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["gk", "nu"])
def test_series_at_a_pole_of_q_is_a_usage_error_with_no_output(capsys, command):
    argv = [command, "--datum", "A1", "--height", "3", "--basis", "e", "--q", "0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --q 0 ")
    with pytest.raises(cli.UsageError, match="--q"):
        run(argv)
    # the indicator coefficients are polynomials in q, so q = 0 is a value there
    out, _ = run([command, "--datum", "A1", "--height", "3", "--q", "0"])
    assert out.splitlines() == ["coweight,coefficient", '"(0)",1', f'"(1)",{-1 if command == "gk" else 1}']


@pytest.mark.parametrize("command", ["gk", "nu"])
def test_indicator_table_outside_q_of_q_is_a_usage_error_naming_the_e_basis(capsys, command):
    argv = [command, "--datum", "A2", "--parabolic", "1", "--height", "4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: basis conversion at ") and "--basis e" in captured.err
    out, _ = run([*argv, "--basis", "e"])
    assert out.startswith("coweight,coefficient\n") and len(out.splitlines()) > 2

@pytest.mark.parametrize("word", ["full", "ALL"])
@pytest.mark.parametrize("argv", [
    ["gk", "--datum", "A2", "--height", "4", "--basis", "e"],
    ["cone-check", "--datum", "B2"],
], ids=lambda argv: argv[0])
def test_parabolic_full_is_the_explicit_index_list(argv, word):
    out, _ = run([*argv, "--parabolic", word])
    assert out == run([*argv, "--parabolic", "1,2"])[0]
    assert out != run([*argv, "--parabolic", "1"])[0]


def test_verify_all_exit_code_and_datum_narrowing(monkeypatch, capsys):
    calls, failing = [], set()

    def fake(name):
        @acceptance._timed(name)
        def check(datums=("A2",)):
            calls.append((name, datums))
            acceptance._require(name not in failing, "sabotaged")

        return check

    narrowable, fixed = fake("x. narrowable"), fake("y. fixed")
    monkeypatch.setattr(acceptance, "ALL_CHECKS", [narrowable, fixed])
    monkeypatch.setattr(acceptance, "_DATUM_NARROWABLE", {narrowable})

    assert cli.main(["verify-all"]) == 0
    assert calls == [("x. narrowable", ("A2",)), ("y. fixed", ("A2",))]
    assert [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()] == [
        "[PASS] x. narrowable", "[PASS] y. fixed",
    ]
    calls.clear()
    assert cli.main(["verify-all", "--datum", "A1"]) == 0
    assert calls == [("x. narrowable", ("A1",)), ("y. fixed", ("A2",))]
    capsys.readouterr()
    failing.add("y. fixed")
    assert cli.main(["verify-all"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[PASS] x. narrowable") and out[1].startswith("[FAIL] y. fixed") and out[1].endswith("-- sabotaged")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gk", "--datum", "A1", "--no-such-flag"])
    assert exc.value.code == 2


def test_computation_error_exits_1(tmp_path):
    code = cli.main(["retract", "--datum", "A1", "--coweight", "1,2,3"])
    assert code == 2  # usage error: wrong arity
    code = cli.main(["gk", "--datum", '{"name":"bad","rank":1,"cartan":[[3]],"simple_coroots":[[1]],"simple_roots":[[3]]}'])
    assert code == 1


B4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]


@pytest.mark.parametrize("argv", [["gk"], ["cone-check", "--parabolic", "1,2"]], ids=["gk", "cone-check"])
@pytest.mark.parametrize("cartan", [B4_CARTAN, [list(col) for col in zip(*B4_CARTAN)]], ids=["B4", "C4"])
def test_rank_four_classical_data_from_inline_json_exit_0(capsys, argv, cartan):
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    datum = json.dumps({"name": "rank-4", "rank": 4, "cartan": cartan, "simple_coroots": identity, "simple_roots": cartan})
    assert cli.main([*argv, "--datum", datum]) == 0
    assert "fail" not in capsys.readouterr().out


def test_intertwine_rejects_a_fractional_coordinate(capsys):
    assert cli.main(["intertwine", "--datum", "A1", "--input", "[[[0.5],1]]"]) == 2
    assert "coordinate must be an integer" in capsys.readouterr().err


def test_char_decompose_rejects_a_fractional_multiplicity(capsys):
    argv = ["char", "decompose", "--datum", "A1", "--parabolic", "1", "--input", "[[[0], 1.5]]"]
    assert cli.main(argv) == 2
    assert "multiplicity must be an integer" in capsys.readouterr().err


def test_global_rejects_a_fractional_degree(capsys):
    assert cli.main(["global-sl2", "L", "--input", "[[1.7,1]]"]) == 2
    assert cli.main(["global-sl2", "B", "--input", "[[1,1]]", "--input2", "[[\"1/2\",1]]"]) == 2
    assert "degree must be an integer" in capsys.readouterr().err


def test_oracle_mu_rejects_a_fractional_coordinate(capsys):
    assert cli.main(["oracle-mu", "--group", "SL3", "--coweight", "1.5,0", "--q", "2"]) == 2
    assert "coordinate must be an integer" in capsys.readouterr().err


def test_parabolic_rejects_a_fractional_index(capsys):
    assert cli.main(["gk", "--datum", "A2", "--parabolic", "1.5"]) == 2
    assert "parabolic index must be an integer" in capsys.readouterr().err


def test_manifest_determinism(tmp_path):
    args = ["gk", "--datum", "B2", "--height", "6"]
    out1, man1 = run(args)
    out2, man2 = run(args)
    assert out1 == out2
    assert man1 == man2
    path = tmp_path / "manifest.json"
    code = cli.main(["--manifest", str(path)] + args)
    assert code == 0
    stored = json.loads(path.read_text())
    assert stored == json.loads(man1)


def test_output_ordering_is_canonical():
    out, _ = run(["gk", "--datum", "A2", "--height", "6"])
    rows = [line.split(",", 1)[0] for line in out.strip().splitlines()[1:]]
    assert rows == sorted(rows)


@pytest.mark.parametrize("action", ["lambda", "sym"])
def test_char_piece_is_1_based(capsys, action):
    assert cli.main(["char", action, "--datum", "A2", "--piece", "0"]) == 2
    assert "piece index out of range 1..2" in capsys.readouterr().err
    assert cli.main(["char", action, "--datum", "A2", "--piece", "-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["retract", "--datum", "A2", "--coweight=abc,1"],
    ["retract", "--datum", "A2", "--coweight=1/0,1"],
    ["gk", "--datum", "A1", "--q", "abc"],
    ["global-sl2", "ct", "--q", "abc"],
    ["intertwine", "--datum", "A1", "--input", '[[[0],"x"]]'],
    ["global-sl2", "B", "--input", "[[0,1]]", "--input2", "notjson"],
    ["intertwine", "--datum", "A2", "--input", "[[[0],1]]"],
    ["intertwine", "--datum", "A1", "--input", "[[0,1]]"],
    ["oracle-mu", "--group", "SL3", "--coweight", "1", "--q", "2"],
    ["gk", "--datum", "A2", "--parabolic", "3"],
    ["gk", "--datum", "A1", "--height", "-3"],
    ["nu", "--datum", "A1", "--height", "-1"],
    ["satake-check", "--datum", "A1", "--height", "-1"],
    ["char", "lambda", "--datum", "A2", "--height", "-1"],
    ["intertwine", "--datum", "A1", "--input", "[[[0],1]]", "--height", "-1"],
    ["global-sl2", "L", "--window", "-2"],
    ["global-sl2", "L", "--input", "[[0,1]]", "--q", "1"],
    ["global-sl2", "L", "--input", "[[0,1]]", "--q", "0"],
    ["global-sl2", "B", "--input", "[[0,1]]", "--input2", "[[0,1]]", "--q=-1"],
    ["char", "decompose", "--datum", "A2"],
    ["char", "decompose", "--datum", "A2", "--input", "[[[0,0],1],[1,2,3]]"],
], ids=[
    "coweight-abc", "coweight-1/0", "gk-q-abc", "global-q-abc", "intertwine-value-x", "input2-notjson",
    "intertwine-short-coweight", "intertwine-coweight-not-a-list", "oracle-short-coweight", "parabolic-index-3-of-2",
    "gk-height-negative", "nu-height-negative", "satake-height-negative", "char-height-negative",
    "intertwine-height-negative", "global-window-negative", "global-q-1", "global-q-0", "global-q-minus-1",
    "decompose-needs-input", "decompose-input-not-pairs",
])
def test_malformed_input_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    with pytest.raises(cli.UsageError):
        cli.run_capture(argv)


@pytest.mark.parametrize("argv, flag", [
    (["oracle-mu", "--group", "SL2", "--coweight", "1", "--q", "4"], "--q 4 "),
    (["oracle-mu", "--group", "SL2", "--coweight", "1", "--q", "2", "--precision", "0"], "--precision 0:"),
    (["oracle-mu", "--group", "SL3", "--coweight", "1,1", "--q", "2", "--precision", "0"], "--precision 0:"),
    *[(["global-sl2", action, "--window", "2", "--input", "[[-1,1]]"], "--input:") for action in ("ct", "L", "Linv", "roundtrip")],
    (["global-sl2", "B", "--input", "[[-1,1]]", "--input2", "[[0,1]]"], "--input:"),
    (["global-sl2", "B", "--input", "[[0,1]]", "--input2", "[[-1,1]]"], "--input2:"),
], ids=[
    "oracle-q-not-prime", "oracle-sl2-precision-0", "oracle-sl3-precision-0",
    "global-ct-negative-degree", "global-L-negative-degree", "global-Linv-negative-degree",
    "global-roundtrip-negative-degree", "global-B-negative-degree", "global-B-negative-degree-in-input2",
])
def test_out_of_range_input_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag}")


@pytest.mark.parametrize("argv", [
    ["gk", "--datum", "A1", "--height", "4"],
    ["intertwine", "--datum", "A1", "--input", "[[[0],1]]"],
    ["retract", "--datum", "A2", "--coweight=-1,0"],
    ["weyl-identities", "--datum", "A2"],
], ids=lambda argv: argv[0])
def test_a_datum_command_builds_its_root_datum_once(monkeypatch, argv):
    built = []
    init = rootdata.RootDatum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(rootdata.RootDatum, "__init__", counting_init)
    cli.run_capture(argv)
    assert len(built) == 1


def test_an_unknown_datum_name_is_a_usage_error_that_lists_the_presets(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HECKELAT_DATA_DIR", str(tmp_path))
    assert cli.main(["gk", "--datum", "A9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and all(name in err for name in rootdata.PRESET_NAMES)
    with pytest.raises(cli.UsageError):
        run(["verify-all", "--datum", "A9"])
    # malformed inline JSON is still reported by the datum loader
    assert cli.main(["gk", "--datum", "{not json"]) == 1
    assert '"RootDatumError"' in capsys.readouterr().err


def test_datum_by_name_from_the_data_directory(monkeypatch, tmp_path):
    config = json.dumps(rootdata.load_root_datum("B2").config())
    (tmp_path / "mydatum.json").write_text(config, encoding="utf-8")
    monkeypatch.setenv("HECKELAT_DATA_DIR", str(tmp_path))
    out_named, man_named = run(["gk", "--datum", "mydatum", "--height", "4"])
    out_inline, man_inline = run(["gk", "--datum", config, "--height", "4"])
    assert out_named == out_inline and "coefficient" in out_named
    assert json.loads(man_named)["datum_sha256"] == json.loads(man_inline)["datum_sha256"]


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_process(argv, tmp_path):
    """(exit code, stdout, stderr, manifest or None) of `python -m heckelat.cli` in a new process."""
    manifest = tmp_path / "manifest.json"
    manifest.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "heckelat.cli", "--manifest", str(manifest), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, manifest.read_text() if manifest.exists() else None


def test_one_parser_serves_a_sequence_of_commands_as_fresh_processes_do(capsys, tmp_path):
    runs = [
        ["gk", "--datum", "B2", "--height", "6"],
        ["intertwine", "--datum", "A2", "--parabolic", "1", "--input", "[[[0,0],1],[[-1,0],2]]", "--roundtrip"],
        ["gk", "--datum", "A1", "--basis", "x"],
        ["nu", "--datum", "A1", "--height", "-1"],
        ["nu", "--datum", "A2", "--height", "6", "--q", "3/2"],
    ]
    for argv in runs:
        code, stdout, stderr, manifest = _fresh_process(argv, tmp_path)
        try:
            out, man = cli.run_capture(argv)
        except cli.UsageError as e:
            assert (code, stdout, stderr, manifest) == (2, "", f"usage error: {e}\n", None)
        except SystemExit as e:  # argparse's own usage errors
            assert (code, e.code, stdout, manifest) == (2, 2, "", None)
            assert capsys.readouterr().err == stderr
        else:
            assert (code, stdout, manifest) == (0, out, man + "\n")
    assert cli._parser.cache_info().currsize == 1
