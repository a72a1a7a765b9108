"""Quick tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Each workload runs one round at a reduced size and passes its checks;
each check rejects a result that is wrong by a small amount; tracing
rebinds every entry point and restores it.  The file is not named
test_*.py, so the package's own test run does not collect it.
"""

import dataclasses
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from modsym import homology, shiftspace, spectrum, thermo  # noqa: E402


def small(name):
    return {
        "spectrum-sweep": lambda: workloads.SpectrumSweep(directions=1),
        "moments-wide": lambda: workloads.MomentsWide(level=11, covering_betas=1),
        "exact-levels": lambda: workloads.ExactLevels(levels=(11, 30), witness_sample=16),
    }[name]()


def one_round(wl, seed=3):
    run = workloads.Run()
    wl.setup()
    wl.round(np.random.default_rng([seed, 0]), run)
    return run


def shifted(fn, field_name, delta, when=lambda *args: True):
    """fn with one float field of its result moved by delta."""
    def wrong(*args):
        out = fn(*args)
        if when(*args):
            out = dataclasses.replace(out, **{field_name: getattr(out, field_name) + delta})
        return out
    return wrong


# --- oracles -------------------------------------------------------------------


@pytest.mark.parametrize("N, expected", [
    (1, dict(kappa=1, n2=1, n3=1, n_inf=1, genus=0)),
    (11, dict(kappa=12, n2=0, n3=0, n_inf=2, genus=1)),
    (47, dict(kappa=48, n2=0, n3=0, n_inf=2, genus=4)),
    (150, dict(kappa=360, n2=0, n3=0, n_inf=24, genus=19)),
])
def test_gamma0_invariants(N, expected):
    assert oracles.gamma0_invariants(N) == expected


def test_bottom_row_actions():
    rows = oracles.BottomRows(7, [(0, 1)] + [(1, d) for d in range(7)])
    assert rows.is_projective_line()
    e = rows.label(1, 3)
    assert rows.s(rows.s(e)) == e                      # S^2 = 1 in PSL2
    assert rows.st(rows.st(rows.st(e))) == e           # (ST)^3 = 1
    assert rows.digit(2, e) == rows.label(3, 2 * 3 - 1)


def test_lyapunov_constant():
    assert abs(oracles.GAUSS_LYAPUNOV - 2.3731382208) < 1e-9


# --- each workload passes its checks at a reduced size ----------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_round_passes(name):
    run = one_round(small(name))
    assert run.problems == []
    failed = [k for k, _, ok in run.ops if not ok]
    assert failed == (["known_failing_point"] if name == "spectrum-sweep" else [])


# --- each check rejects a slightly wrong result -----------------------------------


def test_spectrum_rejects_shifted_beta(monkeypatch):
    wrong = shifted(spectrum.spectrum_point, "beta", 1e-4, lambda level, t, cfg: t[0] > 0)
    monkeypatch.setattr(spectrum, "spectrum_point", wrong)
    problems = one_round(small("spectrum-sweep")).problems
    assert any("beta(-t)" in p for p in problems)
    assert any("grad = alpha" in p for p in problems)


def test_spectrum_rejects_wrong_inversion(monkeypatch):
    def wrong(*args):
        out = legendre(*args)
        return dataclasses.replace(out, t=out.t + 2e-3)
    legendre = spectrum.legendre
    monkeypatch.setattr(spectrum, "legendre", wrong)
    assert any("legendre recovered" in p for p in one_round(small("spectrum-sweep")).problems)


def test_concavity_check_rejects_a_bump():
    run = workloads.Run()
    u = np.array([1.0, 0.0])
    pts = [
        spectrum.SpectrumPoint(np.array([s, 0.0]), np.array([0.1 * s, 0.0]),
                               1 + 0.05 * s * s, 1 - 0.05 * s * s)
        for s in (-0.2, -0.1, 0.0, 0.1, 0.2)
    ]
    workloads.check_line(run, u, pts)
    assert run.problems == []
    pts[1] = dataclasses.replace(pts[1], dimension=pts[1].dimension - 1e-3)
    workloads.check_line(run, u, pts)
    assert any("concave" in p for p in run.problems)


@pytest.mark.parametrize("field_name, delta, message", [
    ("beta", 1e-4, "beta(0)"),
    ("mean_i", 1e-4, "mean_I(0)"),
])
def test_moments_reject_shifted_origin(monkeypatch, field_name, delta, message):
    wrong = shifted(thermo.gibbs_moments, field_name, delta,
                    lambda level, t, cfg: not np.any(t))
    monkeypatch.setattr(thermo, "gibbs_moments", wrong)
    assert any(message in p for p in one_round(small("moments-wide")).problems)


def test_moments_reject_asymmetric_beta(monkeypatch):
    wrong = shifted(thermo.gibbs_moments, "beta", 1e-4, lambda level, t, cfg: t[0] > 0)
    monkeypatch.setattr(thermo, "gibbs_moments", wrong)
    assert any("beta(-t)" in p for p in one_round(small("moments-wide")).problems)


def test_moments_reject_covering_pressure(monkeypatch):
    wrong = shifted(thermo.pressure_collocation, "value", 1e-5,
                    lambda level, *rest: level.level > 1)
    monkeypatch.setattr(thermo, "pressure_collocation", wrong)
    assert any("P_1" in p for p in one_round(small("moments-wide")).problems)


def test_exact_rejects_changed_class_entry(monkeypatch):
    def wrong(table):
        hom = build(table)
        first = hom.classes[0]
        hom.classes[0] = (first[0] + Fraction(1, 2),) + first[1:]
        return hom
    build = homology.build_homology
    monkeypatch.setattr(homology, "build_homology", wrong)
    problems = one_round(small("exact-levels")).problems
    assert any("2-term" in p for p in problems)
    assert any("sum to zero" in p for p in problems)


def test_exact_rejects_flipped_witness_digit(monkeypatch):
    def wrong(graph):
        report = check(graph)
        for key, word in report.witnesses.items():
            if word.entries:
                (d, e), *rest = word.entries
                report.witnesses[key] = dataclasses.replace(word, entries=((d + 1 or 1, e), *rest))
        return report
    check = shiftspace.check_finitely_irreducible
    monkeypatch.setattr(shiftspace, "check_finitely_irreducible", wrong)
    assert any("does not replay" in p for p in one_round(small("exact-levels")).problems)


def test_exact_rejects_wrong_denominator(monkeypatch):
    monkeypatch.setattr(spectrum, "limiting_symbol_periodic",
                        shifted(spectrum.limiting_symbol_periodic, "denominator", 1e-8))
    assert any("denominator" in p for p in one_round(small("exact-levels")).problems)


# --- tracing ----------------------------------------------------------------------


def test_tracing_rebinds_every_binding_and_restores():
    import modsym

    originals = (spectrum.gibbs_moments, thermo.gibbs_moments, modsym.gibbs_moments)
    assert len(set(map(id, originals))) == 1
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert spectrum.gibbs_moments is thermo.gibbs_moments is modsym.gibbs_moments
        assert spectrum.gibbs_moments is not originals[0]
        run = one_round(small("moments-wide"))
    assert (spectrum.gibbs_moments, thermo.gibbs_moments, modsym.gibbs_moments) == originals
    records = tracer.records()
    assert all(r["self_seconds"] <= r["seconds"] + 1e-12 for r in records)
    layers = tracing.layer_totals(records, 0.0, 1)
    assert layers["thermo.assemble_calls"][0] > 0
    # every pressure solve sits under solve_beta, under gibbs_moments (self-check)
    # or directly under the round (covering checks, one at N=11 and one at N=1)
    assert layers["thermo.pressure_calls"][0] == (
        layers["thermo.brent_evals"][0] + layers["thermo.self_check_solves"][0] + 2)
    # the moment self-check costs 2 + 2 * 2g pressure solves per call, 2g = 2
    assert layers["thermo.self_check_solves"][0] == 6 * len(run.times("gibbs_moments"))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-levels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
