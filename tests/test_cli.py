import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modsym
from modsym import thermo
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


def test_homology_large_level(capsys):
    data = run_json(capsys, "homology", "--level", "420")
    assert data["cuspidalDimension"] == 170


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
    data = run_json(
        capsys, "encode", "--level", "11", "--period", "1,2", "--depth", "0"
    )
    assert data["entries"] == []


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


def test_spectrum_empty_grid_exit_1(capsys):
    code, out = run(capsys, "spectrum", "--level", "11", "--grid=0:0.1:0")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "detail": "grid count must be at least 1, got 0"}


def test_spectrum_failing_point_warns_typed_record(capsys):
    """A grid point whose pressure stays positive up to beta = 8 is left out
    of the points and reported on stderr as an {error, detail, t} record;
    stdout is what the grid without that point prints."""
    assert main(["spectrum", "--level", "11", "--grid=0:40:2"]) == 0
    out, err = capsys.readouterr()
    warning = json.loads(err)["warnings"]["1"]
    assert set(warning) == {"error", "detail", "t"}
    assert warning["error"] == "BracketFailure"
    assert warning["detail"].startswith("no negative pressure up to beta=8.0")
    assert warning["t"] == [40.0, 0.0]
    assert main(["spectrum", "--level", "11", "--grid=0:0:1"]) == 0
    assert capsys.readouterr() == (out, "")


def test_cli_import_leaves_scipy_unloaded():
    """Importing the CLI loads no scipy module."""
    code = "import sys, modsym.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(modsym.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_thermo_commands_leave_scipy_unloaded():
    """The beta root is found by Newton steps and the Hurwitz tails by
    Euler-Maclaurin in modsym, so no thermo command loads any scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(modsym.__file__).parents[1]))
    for argv in (["moments", "--level", "11"],
                 ["spectrum", "--level", "11", "--grid=0:0.1:2"],
                 ["pressure", "--level", "2", "--beta", "1.1", "--method", "both",
                  "--depth", "4", "--cutoff", "40"]):
        code = ("import sys\nfrom modsym.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", argv


@pytest.mark.parametrize("argv, error, detail", [
    (["beta", "--level", "11", "--t=nan,0"], "ValueError", "t must be finite, got [nan, 0.0]"),
    (["pressure", "--level", "11", "--beta", "nan"], "BetaOutOfDomain",
     "beta must lie in (1/2, inf), got nan"),
    (["pressure", "--level", "11", "--beta", "inf"], "BetaOutOfDomain",
     "beta must lie in (1/2, inf), got inf"),
    (["spectrum", "--level", "11", "--grid=0:nan:2"], "ValueError",
     "t must be finite, got [nan, nan]"),
], ids=["beta-t-nan", "pressure-beta-nan", "pressure-beta-inf", "spectrum-grid-nan"])
def test_non_finite_inputs_exit_1(capsys, argv, error, detail):
    """A non-finite t or beta is refused with a typed record before any
    power iteration, and a spectrum grid prints no points."""
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": error, "detail": detail}


def test_pressure_large_beta(capsys, monkeypatch):
    """At beta = 50 the tails have orders 100 to 102; the pressure equals the
    one whose tails are scipy's Hurwitz zeta."""
    from scipy.special import zeta

    value = run_json(capsys, "pressure", "--level", "11", "--beta", "50")["collocation"]["value"]
    assert math.isfinite(value)
    monkeypatch.setattr(thermo, "_class_tail", lambda s, N, q, with_log=False: N ** -s * zeta(s, q))
    oracle = thermo.pressure_collocation(thermo.build_level_data(11), [], 50.0).value
    assert math.isclose(value, oracle, rel_tol=1e-13)


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


@pytest.mark.parametrize("argv", [
    f"{cmd} {flag}".split()
    for cmd in ("encode --level 11 --rational 3/7", "periodic-symbol --level 11 --digits=-1,1")
    for flag in ("--cutoff 5", "--degree 8", "--tol 1e-6", "--tail truncate", "--t 0.1,0")
] + ["periodic-symbol --level 11 --digits=-1,1 --depth 4".split(),
      "spectrum --level 11 --grid=0.05:0.05:1 --t=5,5".split()])
def test_numeric_flags_refused_where_unread(capsys, argv):
    """encode and periodic-symbol read none of the numeric flags and spectrum
    no --t, so argparse refuses them (encode has its own --depth, the orbit
    length)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tolerance_exit_1(capsys, tol):
    code, out = run(capsys, "moments", "--level", "11", "--tol", tol)
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


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
