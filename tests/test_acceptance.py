"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines
interleaved; the lines also bypass capture under plain ``pytest``.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from modsym.contfrac import CFInput, encode_orbit
from modsym.cosets import CosetTable, subgroup_invariants
from modsym.homology import build_homology, cusp_orbits
from modsym.psl2 import word_to_matrix
from modsym.shiftspace import build_graph, check_finitely_irreducible, is_admissible
from modsym.spectrum import (
    birkhoff_partial,
    coset_cycle_word,
    legendre,
    limiting_symbol_periodic,
    spectrum_point,
)
from modsym.thermo import (
    NumericsConfig,
    beta_hessian,
    gibbs_moments,
    pressure_collocation,
    pressure_cylinder,
    solve_beta,
)


@pytest.fixture(autouse=True)
def _live_report(request):
    """Expose pytest's capture manager so report lines reach the terminal."""
    _report.capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {status}: {desc}{tail}"
    capman = getattr(_report, "capman", None)
    if capman is not None:
        # bypass capture so the line is visible without -s
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, f"criterion {num}: {desc}{tail}"


# --- independent closed-form oracles (recomputed here, not imported) --------


def _oracle_invariants(N):
    primes = sorted({p for p in range(2, N + 1) if N % p == 0 and _is_prime(p)})
    kappa = N
    for p in primes:
        kappa = kappa // p * (p + 1)
    # Elliptic-point counts with the standard conventions: the p = 2 factor
    # of n2 is 1 (symbol 0) and the p = 2 factor of n3 is 0 (symbol -1).
    if N % 4 == 0:
        n2 = 0
    else:
        n2 = 1
        for p in primes:
            n2 *= 1 + (0 if p == 2 else _legendre(-1, p))
    if N % 9 == 0:
        n3 = 0
    else:
        n3 = 1
        for p in primes:
            n3 *= 1 + (-1 if p == 2 else _legendre(-3, p))
    n_inf = sum(_phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    genus12 = 12 + kappa - 3 * n2 - 4 * n3 - 6 * n_inf
    return kappa, n2, n3, n_inf, genus12


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p**0.5) + 1))


def _legendre(a, p):
    """Legendre symbol (a|p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# --- criteria ----------------------------------------------------------------


def test_criterion_01_index():
    t0 = time.time()
    tables = {}
    ok = True
    for N in range(1, 201):
        table = CosetTable(N)
        tables[N] = table
        kappa, *_ = _oracle_invariants(N)
        if table.size != kappa:
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(1, "coset table size = index formula, N <= 200", ok,
            f"{elapsed:.2f}s")
    test_criterion_01_index.tables = tables


def test_criterion_02_counts():
    ok = True
    bad = ""
    for N in range(1, 201):
        inv = subgroup_invariants(N)
        kappa, n2, n3, n_inf, genus12 = _oracle_invariants(N)
        if (inv.kappa, inv.n2, inv.n3, inv.n_inf) != (kappa, n2, n3, n_inf):
            ok, bad = False, f"closed form mismatch at N={N}"
            break
        if genus12 % 12 != 0 or inv.genus != genus12 // 12 or inv.genus < 0:
            ok, bad = False, f"genus defect at N={N}"
            break
    if ok:
        for N in range(1, 101):
            if cusp_orbits(CosetTable(N)).num_orbits != subgroup_invariants(N).n_inf:
                ok, bad = False, f"cusp orbit count mismatch at N={N}"
                break
    _report(2, "n2/n3/nInf/genus closed forms (N<=200) + cusp orbits (N<=100)",
            ok, bad)


def test_criterion_03_irreducibility():
    ok = True
    bad = ""
    for N in range(1, 101):
        table = CosetTable(N)
        report = check_finitely_irreducible(build_graph(table))
        if not report.irreducible:
            ok, bad = False, f"not strongly connected at N={N}"
            break
        if N <= 25:
            for (src, dst), word in report.witnesses.items():
                if not _witness_ok(table, src, dst, word):
                    ok, bad = False, f"witness replay failed at N={N}"
                    break
            if not ok:
                break
    _report(3, "transition graph strongly connected N<=100; witnesses replay N<=25",
            ok, bad)


def _witness_ok(table, src, dst, word):
    if not is_admissible(word, table):
        return False
    # source vertex (e, s) emits digits of sign -s; even index means s = +1
    cur = src // 2
    expect_sign = -1 if src % 2 == 0 else 1
    for d, e in word.entries:
        if e != cur or (d > 0) != (expect_sign > 0):
            return False
        cur = table.tau(d, cur)
        expect_sign = -expect_sign
    if word.entries:
        last = 1 if word.entries[-1][0] > 0 else -1
        return 2 * cur + (last < 0) == dst
    return src == dst


def test_criterion_04_homology_dimensions():
    ok = True
    bad = ""
    data_by_level = {}
    for N in range(1, 51):
        data = build_homology(CosetTable(N))
        data_by_level[N] = data
        inv = data.table.invariants
        if data.presentation.dimension != 2 * inv.genus + inv.n_inf - 1:
            ok, bad = False, f"relative dim mismatch at N={N}"
            break
        if data.cuspidal.dimension != 2 * inv.genus:
            ok, bad = False, f"cuspidal dim mismatch at N={N}"
            break
    _report(4, "homology dims: relative 2g+nInf-1 and cuspidal 2g, N<=50", ok, bad)
    test_criterion_04_homology_dimensions.data = data_by_level


def test_criterion_05_class_sum():
    data_by_level = getattr(test_criterion_04_homology_dimensions, "data", None)
    ok = True
    bad = ""
    for N in range(1, 51):
        data = data_by_level[N] if data_by_level else build_homology(CosetTable(N))
        dims = data.dimension
        total = [Fraction(0)] * dims
        for vec in data.classes:
            for i in range(dims):
                total[i] += vec[i]
        if any(c != 0 for c in total):
            ok, bad = False, f"nonzero class sum at N={N}"
            break
    _report(5, "sum of symbol classes is exactly zero, N<=50", ok, bad)


def test_criterion_06_telescoping():
    rng = random.Random(20260824)
    ok = True
    bad = ""
    for N in (2, 6, 11):
        table = CosetTable(N)
        cusps = cusp_orbits(table)
        for _ in range(1000):
            q = rng.randrange(3, 10**6)
            p = rng.randrange(1, q)
            g = gcd(p, q)
            x = CFInput(rational=Fraction(rng.choice((1, -1)) * (p // g), q // g))
            e1 = rng.randrange(table.size)
            seq = encode_orbit(table, x, e1, 40)
            cosets = list(seq.cosets())
            # e_{k+1} after the final digit
            last_digit, last_e = seq.entries[-1]
            cosets.append(table.tau(last_digit, last_e))
            for ek, ek1 in zip(cosets, cosets[1:]):
                if cusps.cusp_of_zero[ek] != cusps.cusp_of_infinity[ek1]:
                    ok, bad = False, f"telescoping broke at N={N}"
                    break
            if not ok:
                break
        if not ok:
            break
    _report(6, "cusp telescoping cusp0(e_k) = cuspInf(e_{k+1}), 1000 orbits x 3 levels",
            ok, bad)


def test_criterion_07_gauss_pressure(level1, level11, cfg):
    t0 = time.time()
    p1 = pressure_collocation(level1, [], 1.0, cfg).value
    p11 = pressure_collocation(level11, [0.0, 0.0], 1.0, cfg).value
    elapsed = time.time() - t0
    ok = abs(p1) <= 1e-5 and abs(p11) <= 1e-5 and elapsed < 30
    _report(7, "|P(0,1)| <= 1e-5 by collocation for N in {1,11}", ok,
            f"P1={p1:.2e}, P11={p11:.2e}, {elapsed:.2f}s")


def test_criterion_08_beta_origin(level11, cfg):
    b0 = solve_beta(level11, [0.0, 0.0], cfg)
    ok = abs(b0 - 1.0) <= 1e-3
    rng = np.random.default_rng(11)
    worst = np.inf
    if ok:
        for _ in range(20):
            t = rng.uniform(-1, 1, 2)
            t *= rng.uniform(0, 0.2) / max(np.linalg.norm(t), 1e-12)
            bt = solve_beta(level11, t, cfg)
            worst = min(worst, bt)
            if bt < 1.0 - 1e-3:
                ok = False
                break
    _report(8, "beta_G(0) = 1 within 1e-3 and beta_G(t) >= 1 - 1e-3 on 20 samples",
            ok, f"beta0={b0:.6f}, min sampled={worst:.6f}")


def test_criterion_09_alpha_origin(level11, cfg):
    alpha = gibbs_moments(level11, [0.0, 0.0], cfg).alpha
    ok = float(np.abs(alpha).max()) <= 1e-3
    _report(9, "||alpha(0)|| <= 1e-3 at N=11", ok, f"max |alpha| = {np.abs(alpha).max():.2e}")


def test_criterion_10_lyapunov(level1, level11, cfg):
    oracle, err = quad(lambda x: -2 * math.log(x) / ((1 + x) * math.log(2)), 0, 1)
    ok = err < 1e-8 and abs(oracle - 2.37314) <= 1e-3
    vals = {}
    for name, lvl in (("N=1", level1), ("N=11", level11)):
        mean_i = gibbs_moments(lvl, None, cfg).mean_i
        vals[name] = mean_i
        ok = ok and abs(mean_i - 2.37314) <= 1e-3 and abs(mean_i - oracle) <= 1e-3
    _report(10, "meanI(t=0) = 2.37314 within 1e-3 vs quadrature oracle, N in {1,11}",
            ok, f"oracle={oracle:.6f}, " + ", ".join(f"{k}={v:.6f}" for k, v in vals.items()))


def test_criterion_11_estimator_agreement(level2, cfg):
    t0 = time.time()
    cyl_cfg = NumericsConfig(digit_cutoff=30, cylinder_depth=10)
    ok = True
    detail = []
    for beta in (0.8, 1.0, 1.2):
        cyl = pressure_cylinder(level2, [], beta, cyl_cfg).value
        col = pressure_collocation(level2, [], beta, cfg).value
        diff = abs(cyl - col)
        detail.append(f"beta={beta}: diff={diff:.1e}")
        ok = ok and diff <= 0.02
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report(11, "cylinder vs collocation pressure within 0.02 at N=2", ok,
            "; ".join(detail) + f"; {elapsed:.1f}s")


def test_criterion_12_duality_round_trip(level11, cfg):
    rng = np.random.default_rng(12)
    ok = True
    worst_t, worst_res = 0.0, 0.0
    for _ in range(5):
        t0 = rng.uniform(-1, 1, 2)
        t0 *= rng.uniform(0.02, 0.1) / np.linalg.norm(t0)
        mom = gibbs_moments(level11, t0, cfg)
        pt = legendre(level11, mom.alpha, cfg)
        t_err = float(np.abs(pt.t - t0).max())
        res = abs(pt.dimension - (mom.beta - float(t0 @ mom.alpha)))
        worst_t, worst_res = max(worst_t, t_err), max(worst_res, res)
        ok = ok and t_err <= 1e-3 and res <= 1e-6
    _report(12, "legendre(alpha(t)) recovers t within 1e-3, duality residual <= 1e-6",
            ok, f"max t err={worst_t:.1e}, max residual={worst_res:.1e}")


def test_criterion_13_convexity(level11, cfg):
    rng = np.random.default_rng(13)
    ok = True
    worst = np.inf
    for _ in range(10):
        t = rng.uniform(-1, 1, 2)
        t *= rng.uniform(0.0, 0.1) / np.linalg.norm(t)
        H = beta_hessian(level11, t, cfg)
        lam_min = float(np.linalg.eigvalsh(H).min())
        worst = min(worst, lam_min)
        ok = ok and lam_min > 0
    _report(13, "Hessian of beta_G positive definite, 10 samples",
            ok, f"min eigenvalue = {worst:.4f}")


def test_criterion_14_periodic_symbols(level11):
    word = coset_cycle_word(level11, level11.table.identity_label(), magnitude=1)
    val = limiting_symbol_periodic(level11, word)
    ok = any(c != 0 for c in val.numerator)
    # denominator vs trace formula at 40-digit precision
    m = word_to_matrix(word.digits())
    with mpmath.workdps(40):
        tr = mpmath.mpf(abs(m.a + m.d))
        oracle = 2 * mpmath.log((tr + mpmath.sqrt(tr * tr - 4)) / 2)
        den_err = abs(val.denominator - float(oracle))
    ok = ok and den_err <= 1e-9
    # Birkhoff partials with the convergent normalizer: error halves per doubling
    x = CFInput(sign=1, period=(1,))
    e1 = word.entries[0][1]
    p = len(word)
    errs = [
        float(np.linalg.norm(
            birkhoff_partial(level11, x, e1, j * p, normalizer="convergent") - val.value
        ))
        for j in (4, 8, 16)
    ]
    ratios = [errs[1] / errs[0], errs[2] / errs[1]]
    ok = ok and all(r <= 0.6 for r in ratios)
    _report(14, "periodic-word Birkhoff partials converge (ratio <= 0.6); "
            "denominator matches trace formula to 1e-9",
            ok, f"den err={den_err:.1e}, ratios={[round(r, 3) for r in ratios]}")


def test_criterion_15_spectrum_shape(level11, cfg):
    direction = np.array([1.0, 0.0])
    span = np.linspace(-0.3, 0.3, 11)
    pts = [spectrum_point(level11, s * direction, cfg) for s in span]
    dims = np.array([p.dimension for p in pts])
    alphas = np.array([float(p.alpha @ direction) for p in pts])
    # <= 1 everywhere, with a one-ulp allowance for the t=0 node where the
    # exact value is 1 and the discretized beta may overshoot by ~1e-9
    ok = bool(np.all(dims <= 1 + 1e-8))
    # maximum at the node whose alpha is nearest 0
    ok = ok and int(np.argmax(dims)) == int(np.argmin(np.abs(alphas)))
    # concavity of the dimension-vs-alpha profile: divided slopes decrease
    slopes = np.diff(dims) / np.diff(alphas)
    ok = ok and bool(np.all(np.diff(slopes) <= 1e-9))
    _report(15, "11-point spectrum line: dim <= 1, max nearest alpha=0, concave",
            ok, f"max dim={dims.max():.9f}, min d2={np.diff(slopes).min():.2e}")
