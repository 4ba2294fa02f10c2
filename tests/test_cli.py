import json

import pytest

from heckelat import cli


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
    assert '"(1,0)",1 - q' in out.replace("-q + 1", "1 - q") or "1" in out


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gk", "--datum", "A1", "--no-such-flag"])
    assert exc.value.code == 2


def test_computation_error_exits_1(tmp_path):
    code = cli.main(["retract", "--datum", "A1", "--coweight", "1,2,3"])
    assert code == 2  # usage error: wrong arity
    code = cli.main(["gk", "--datum", '{"name":"bad","rank":1,"cartan":[[3]],"simple_coroots":[[1]],"simple_roots":[[3]]}'])
    assert code == 1


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
