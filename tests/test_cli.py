import json
import math

import pytest

from modsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_invariants_example(capsys):
    data = run_json(capsys, "invariants", "--level", "11", "--format", "json")
    assert data == {"kappa": 12, "n2": 0, "n3": 0, "nInf": 2, "genus": 1}


def test_cosets(capsys):
    data = run_json(capsys, "cosets", "--level", "2")
    assert data["N"] == 2 and len(data["reps"]) == 3


def test_graph(capsys):
    data = run_json(capsys, "graph", "--level", "2")
    assert data["vertices"] == 6
    assert data["edgeFamilies"] == 12 == len(data["edges"])


def test_irreducible_example(capsys):
    data = run_json(capsys, "irreducible", "--level", "2")
    assert data["irreducible"] is True
    assert data["numComponents"] == 1


def test_irreducible_witnesses(capsys):
    data = run_json(capsys, "irreducible", "--level", "2", "--witnesses")
    assert len(data["witnesses"]) == 36


def test_homology(capsys):
    data = run_json(capsys, "homology", "--level", "11")
    assert data["cuspidalDimension"] == 2
    assert data["relativeDimension"] == 3


def test_encode(capsys):
    data = run_json(capsys, "encode", "--level", "11", "--rational", "3/7")
    assert data["entries"] == [[-2, 0], [3, 10]]
    assert data["terminated"] is True


def test_encode_periodic(capsys):
    data = run_json(
        capsys, "encode", "--level", "11", "--period", "1,2", "--depth", "6"
    )
    assert len(data["entries"]) == 6
    assert data["terminated"] is False


def test_pressure_both(capsys):
    data = run_json(
        capsys, "pressure", "--level", "1", "--beta", "1.0",
        "--method", "both", "--depth", "6", "--cutoff", "50",
    )
    assert abs(data["collocation"]["value"]) < 1e-5
    assert abs(data["cylinder"]["value"]) < 0.02
    for rec in data.values():
        assert {"method", "K", "m", "n", "tolerance", "tail"} <= set(rec["provenance"])


def test_beta_and_moments(capsys):
    data = run_json(capsys, "beta", "--level", "11", "--t", "0,0")
    assert abs(data["beta"] - 1.0) < 1e-3
    data = run_json(capsys, "moments", "--level", "11")
    assert abs(data["meanI"] - 2.37314) < 1e-3
    assert max(abs(a) for a in data["alpha"]) < 1e-3


def test_spectrum_json_and_csv(capsys):
    data = run_json(
        capsys, "spectrum", "--level", "11", "--grid=-0.05:0.05:3"
    )
    assert len(data["points"]) == 3
    assert all(p["dimension"] <= 1 + 1e-8 for p in data["points"])
    code, out = run(
        capsys, "spectrum", "--level", "11", "--grid=-0.05:0.05:3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_1,t_2,alpha_1,alpha_2,beta,dimension,method,K,m,tol"
    assert len(lines) == 4


def test_spectrum_alpha_inverse(capsys):
    data = run_json(
        capsys, "spectrum", "--level", "11", "--alpha", "0,0"
    )
    pt = data["points"][0]
    assert abs(pt["dimension"] - 1) < 1e-3


def test_periodic_symbol(capsys):
    data = run_json(
        capsys, "periodic-symbol", "--level", "11",
        "--digits=-1,1,-1,1,-1,1,-1,1,-1,1",
    )
    assert data["numerator"] == [[-2, 1], [1, 1]]
    assert math.isclose(data["denominator"], 10 * math.log((3 + math.sqrt(5)) / 2))


def test_error_record_exit_1(capsys):
    code, out = run(capsys, "invariants", "--level", "0")
    assert code == 1
    rec = json.loads(out)
    assert rec["error"] == "LevelZero" and "detail" in rec


def test_spectrum_wrong_direction_length_exit_1(capsys):
    # 2g = 2 at level 11: a longer direction is refused, not cut to length
    for direction in ("--direction=1", "--direction=1,0,5"):
        code, out = run(
            capsys, "spectrum", "--level", "11", "--grid=-0.1:0.1:2", direction
        )
        assert code == 1
        assert json.loads(out)["error"] == "ValueError"


def test_periodic_symbol_bad_start_exit_1(capsys):
    code, out = run(
        capsys, "periodic-symbol", "--level", "11", "--digits=-1,1", "--start", "99"
    )
    assert code == 1
    assert json.loads(out) == {
        "error": "ValueError", "detail": "coset label 99 out of range for level 11"
    }


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants"])  # missing --level
    assert exc.value.code == 2


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_deterministic_output(capsys):
    a = run(capsys, "homology", "--level", "11")[1]
    b = run(capsys, "homology", "--level", "11")[1]
    assert a == b


def test_csv_significant_digits(capsys):
    code, out = run(capsys, "beta", "--level", "1", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    value = rows["beta"]
    mantissa = value.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 12
