import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import modsym
from modsym.contfrac import CFInput, SymbolSequence
from modsym import spectrum
from modsym.psl2 import word_to_matrix
from modsym.spectrum import (
    AlphaOutOfRange,
    NotCyclic,
    OddPeriod,
    birkhoff_partial,
    check_cyclic,
    coset_cycle_word,
    legendre,
    limiting_symbol_periodic,
    spectrum_curve,
    spectrum_point,
)
from modsym.thermo import BracketFailure, MomentCheckError, NumericsConfig, gibbs_moments


def rotate(word: SymbolSequence, i: int) -> SymbolSequence:
    return SymbolSequence(word.entries[i:] + word.entries[:i])


def golden_cycle(level):
    return coset_cycle_word(level, level.table.identity_label(), magnitude=1)


def test_cycle_word_is_cyclic(level11):
    word = golden_cycle(level11)
    check_cyclic(level11, word)
    assert len(word) % 2 == 0


def test_check_cyclic_errors(level11):
    with pytest.raises(OddPeriod):
        check_cyclic(level11, SymbolSequence(((1, 0),)))
    with pytest.raises(NotCyclic):
        check_cyclic(level11, SymbolSequence(()))
    word = golden_cycle(level11)
    broken = SymbolSequence(word.entries[:-1] + (((1, 99)),))
    with pytest.raises(NotCyclic):
        check_cyclic(level11, broken)


def test_periodic_symbol_level1(level1):
    word = coset_cycle_word(level1, 0, magnitude=2)
    val = limiting_symbol_periodic(level1, word)
    assert val.numerator == () and val.value.size == 0
    assert math.isclose(val.denominator, 2 * math.log(3 + 2 * math.sqrt(2)))


def test_periodic_symbol_golden(level11):
    word = golden_cycle(level11)
    val = limiting_symbol_periodic(level11, word)
    # 10-letter cycle: denominator = 5 periods of the golden 2-cycle
    assert math.isclose(val.denominator, 5 * 2 * math.log((3 + math.sqrt(5)) / 2))
    assert val.numerator == (Fraction(-2), Fraction(1))


def test_periodic_symbol_denominator_oracle(level11):
    """Denominator vs high-precision orbit sum of -2 log |x_k| (mpmath)."""
    word = golden_cycle(level11)
    val = limiting_symbol_periodic(level11, word)
    with mpmath.workdps(40):
        phi_inv = (mpmath.sqrt(5) - 1) / 2  # |x| of the all-ones orbit
        oracle = len(word) * (-2) * mpmath.log(phi_inv)
        assert abs(val.denominator - float(oracle)) < 1e-9
    # and vs the trace formula applied to the exact word matrix
    m = word_to_matrix(word.digits())
    tr = abs(m.a + m.d)
    assert abs(
        val.denominator - 2 * math.log((tr + math.sqrt(tr * tr - 4)) / 2)
    ) < 1e-9


def test_periodic_symbol_rotation_invariance(level11):
    word = golden_cycle(level11)
    base = limiting_symbol_periodic(level11, word)
    for i in range(1, len(word), 3):
        rot = limiting_symbol_periodic(level11, rotate(word, i))
        assert math.isclose(rot.denominator, base.denominator)
        # rotation permutes the visited cosets but keeps the period sum
        assert rot.numerator == base.numerator
        assert np.allclose(rot.value, base.value)


def test_periodic_symbol_doubling(level11):
    word = golden_cycle(level11)
    doubled = SymbolSequence(word.entries * 2)
    v1 = limiting_symbol_periodic(level11, word)
    v2 = limiting_symbol_periodic(level11, doubled)
    assert v2.numerator == tuple(2 * c for c in v1.numerator)
    assert math.isclose(v2.denominator, 2 * v1.denominator)
    assert np.allclose(v2.value, v1.value)


def test_birkhoff_partial_converges(level11):
    word = golden_cycle(level11)
    limit = limiting_symbol_periodic(level11, word).value
    x = CFInput(sign=1, period=(1,))  # first digit -1, matching the cycle
    e1 = word.entries[0][1]
    p = len(word)
    errs = []
    for j in (4, 8, 16):
        part = birkhoff_partial(level11, x, e1, j * p, normalizer="convergent")
        errs.append(np.linalg.norm(part - limit))
    assert errs[1] / errs[0] <= 0.6 and errs[2] / errs[1] <= 0.6
    # cylinder normalizer is exact at whole periods
    exact = birkhoff_partial(level11, x, e1, 4 * p, normalizer="cylinder")
    assert np.allclose(exact, limit)


def test_birkhoff_partial_guards(level11):
    x = CFInput(rational=Fraction(3, 7))
    with pytest.raises(ValueError):
        birkhoff_partial(level11, x, 0, 10)  # rational orbit terminates
    with pytest.raises(ValueError):
        birkhoff_partial(
            level11, CFInput(sign=1, period=(1,)), 0, 4, normalizer="bogus"
        )


def test_birkhoff_partial_level1(level1):
    out = birkhoff_partial(level1, CFInput(sign=1, period=(2,)), 0, 6)
    assert out.size == 0


def test_spectrum_point_origin(level11, cfg):
    pt = spectrum_point(level11, [0.0, 0.0], cfg)
    assert np.abs(pt.t).max() == 0
    assert np.abs(pt.alpha).max() < 1e-3
    assert abs(pt.beta - 1) < 1e-3 and abs(pt.dimension - 1) < 1e-3


def test_spectrum_curve_partial_results(level11, cfg):
    """A point whose pressure stays positive up to BETA_MAX is collected as
    an error and the sweep goes on; a non-finite t is refused outright."""
    grid = [np.array([0.0, 0.0]), np.array([0.05, 0.0]), np.array([40.0, 0.0])]
    points, errors = spectrum_curve(level11, grid, cfg)
    assert len(points) == 2
    assert list(errors) == [2]
    assert isinstance(errors[2], BracketFailure)
    with pytest.raises(ValueError, match="t must be finite"):
        spectrum_curve(level11, grid[:2] + [np.array([np.nan, 0.0])], cfg)


def test_spectrum_curve_raises_on_wrong_length_t(level11, cfg):
    with pytest.raises(ValueError, match="t must have length 2"):
        spectrum_curve(level11, [np.array([0.1])], cfg)


def test_spectrum_symmetry_pairs(level11, cfg):
    """alpha(t) - alpha(-t) is aligned with t (monotone gradient of convex fn)."""
    for t in (np.array([0.08, 0.0]), np.array([0.03, -0.06])):
        ap = gibbs_moments(level11, t, cfg).alpha
        am = gibbs_moments(level11, -t, cfg).alpha
        assert float((ap - am) @ t) > 0


def test_legendre_origin(level11, cfg):
    pt = legendre(level11, [0.0, 0.0], cfg)
    assert np.abs(pt.t).max() < 1e-3
    assert abs(pt.dimension - 1) < 1e-3


def test_legendre_round_trip(level11, cfg):
    t0 = np.array([-0.04, 0.07])
    mom = gibbs_moments(level11, t0, cfg)
    pt = legendre(level11, mom.alpha, cfg)
    assert np.abs(pt.t - t0).max() < 1e-3
    assert pt.dimension < 1.0  # strictly below the maximum off the origin


def test_legendre_out_of_range(level11):
    # far outside the gradient range of beta_G
    fast = NumericsConfig(digit_cutoff=80, collocation_degree=16)
    with pytest.raises(AlphaOutOfRange):
        legendre(level11, [50.0, -50.0], fast)


def test_legendre_damps_on_moment_check_error(level11, monkeypatch):
    """A full Newton step whose moments fail their self-check is halved."""
    fast = NumericsConfig(digit_cutoff=80, collocation_degree=16)
    calls = []

    def flaky_moments(level, t, cfg=None):
        calls.append(np.array(t))
        if len(calls) == 2:  # the first trial step, after the moments at t = 0
            raise MomentCheckError("injected")
        return gibbs_moments(level, t, cfg)

    monkeypatch.setattr(spectrum, "gibbs_moments", flaky_moments)
    target = np.array([0.01, 0.005])
    pt = legendre(level11, target, fast)
    assert np.abs(pt.alpha - target).max() <= 1e-6
    assert np.allclose(calls[2], calls[1] / 2)  # the step after it is halved


def test_legendre_level1(level1, cfg):
    pt = legendre(level1, [], cfg)
    assert pt.t.size == 0 and abs(pt.dimension - 1) < 1e-3


def test_coset_cycle_word_rejects_out_of_range_label():
    """A negative start label once looped forever: the cycle from it never
    came back to the wrapped-around label.  Run in a child process with a
    timeout, so a hang fails the test instead of stalling the suite."""
    code = (
        "from modsym import build_level_data, coset_cycle_word\n"
        "try:\n"
        "    coset_cycle_word(build_level_data(11), -1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(modsym.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "coset label -1 out of range for level 11\n"
