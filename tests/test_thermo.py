import json
import math
import os
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import modsym
from modsym.cli import main
from modsym import build_level_data, thermo
from modsym.contfrac import SignedWord
from modsym.shiftspace import TransitionGraph, build_graph
from modsym.thermo import (
    BetaOutOfDomain,
    BracketFailure,
    MomentCheckError,
    NonHyperbolic,
    NumericsConfig,
    OperatorTooLarge,
    TransferOperator,
    beta_hessian,
    gibbs_moments,
    hyperbolic_log_eigenvalue,
    potential_I_on_cylinder,
    pressure_collocation,
    pressure_cylinder,
    solve_beta,
)

GOLDEN_I = 2 * math.log((3 + math.sqrt(5)) / 2)


def dense(S):
    """The operator S as one matrix on [x+; x-], column by column from its applies."""
    n = 2 * S.scalars.size * S.stacks.shape[-1]
    return np.column_stack([thermo._apply(S, unit) for unit in np.eye(n)])


def digit_class(a0, N, K, y):
    """Magnitudes a0, a0 + N, ... up to K of one digit class, and the
    Hurwitz argument q = (a_first + y) / N of the class beyond K."""
    mags = np.arange(a0, K + 1, N, dtype=float)
    return mags, (a0 + N * mags.size + y) / N


def dense_oracle(level, cfg, t, beta, with_log):
    """L on vertex-ordered blocks (vertex (e, +1) is 2e, (e, -1) is 2e+1),
    its class blocks built from scratch and scattered edge by edge."""
    N, K = level.level, cfg.digit_cutoff
    y = thermo._lobatto_nodes(cfg.collocation_degree)
    w = thermo._bary_weights(cfg.collocation_degree)
    D = thermo._diff_matrix(y, w)
    e0 = np.zeros(y.size)
    e0[0] = 1.0
    blocks = {}
    for a0 in range(1, N + 1):
        mags, q = digit_class(a0, N, K, y)
        B = np.zeros((y.size, y.size))
        if mags.size:
            ay = mags[None, :] + y[:, None]
            W = ay ** (-2.0 * beta)
            if with_log:
                W = W * (2.0 * np.log(ay))
            B = np.einsum("ja,jal->jl", W, thermo._bary_rows(1.0 / ay, y, w))
        if cfg.tail_mode == "zeta-tail":
            s0 = 2.0 * beta
            B = B + thermo._class_tail(s0, N, q, with_log)[:, None] * e0[None, :] \
                + thermo._class_tail(s0 + 1.0, N, q, with_log)[:, None] * D[0][None, :] \
                + thermo._class_tail(s0 + 2.0, N, q, with_log)[:, None] * ((D @ D)[0][None, :] / 2.0)
        blocks[a0] = B
    n = y.size
    L = np.zeros((2 * level.table.size * n,) * 2)
    scalars = thermo._coset_scalars(level, thermo._as_t_vector(level, t))
    for src, row in enumerate(build_graph(level.table).edges):
        cols = slice(src * n, (src + 1) * n)
        for dst, digit in row:
            L[dst * n:(dst + 1) * n, cols] += scalars[src // 2] * blocks[abs(digit)]
    return L


def grid_oracle(level, t, beta, cfg):
    """Z_1..Z_n of the grid cylinder iteration, edge by edge over the
    vertex graph, with F on vertices and each family keyed by a0 = abs(digit)."""
    t = thermo._as_t_vector(level, t)
    N, K = level.level, cfg.digit_cutoff
    G = 1025
    y = np.linspace(0.0, 1.0, G)
    dy = y[1] - y[0]
    scalars = thermo._coset_scalars(level, t)
    per_a0 = {}
    for a0 in range(1, N + 1):
        mags, q = digit_class(a0, N, K, y)
        branch = tail = None
        if mags.size:
            ay = mags[:, None] + y[None, :]
            pos = 1.0 / ay / dy
            idx = np.minimum(pos.astype(int), G - 2)
            branch = (ay ** (-2.0 * beta), idx, pos - idx)
        if cfg.tail_mode == "zeta-tail":
            tail = (thermo._class_tail(2.0 * beta, N, q),
                    thermo._class_tail(2.0 * beta + 1.0, N, q))
        per_a0[a0] = (branch, tail)
    edges = build_graph(level.table).edges
    F = np.ones((len(edges), G))
    zs = []
    for _ in range(cfg.cylinder_depth):
        F_new = np.zeros_like(F)
        for src, row in enumerate(edges):
            f = F[src]
            for dst, digit in row:
                branch, tail = per_a0[abs(digit)]
                contrib = np.zeros(G)
                if branch is not None:
                    W, idx, frac = branch
                    contrib += (W * (f[idx] * (1 - frac) + f[idx + 1] * frac)).sum(axis=0)
                if tail is not None:
                    t0, t1 = tail
                    contrib += t0 * f[0] + t1 * ((f[1] - f[0]) / dy)
                F_new[dst] += scalars[src // 2] * contrib
        F = F_new
        zs.append(float(F[:, 0].sum()))
    return zs


def oracle_pm(level, cfg, t, beta, with_log):
    """dense_oracle reordered to [x+; x-], the layout of the applies."""
    kappa, n = level.table.size, cfg.collocation_degree + 1
    L = dense_oracle(level, cfg, t, beta, with_log).reshape(kappa, 2, n, kappa, 2, n)
    return L.transpose(1, 0, 2, 4, 3, 5).reshape(2 * kappa * n, 2 * kappa * n)


def within_rounding(A, L):
    """|A - L| <= n eps |L| entrywise, the bound n eps (|L| @ |x|) at x = unit vectors."""
    return (np.abs(A - L) <= L.shape[0] * np.finfo(float).eps * np.abs(L)).all()


@lru_cache(maxsize=None)
def _level(N):
    return build_level_data(N)


def test_config_validation():
    with pytest.raises(ValueError):
        NumericsConfig(digit_cutoff=0)
    with pytest.raises(ValueError):
        NumericsConfig(tail_mode="nope")
    with pytest.raises(ValueError):
        NumericsConfig(tolerance=-1)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            NumericsConfig(tolerance=tol)


def test_hyperbolic_log_eigenvalue():
    assert math.isclose(hyperbolic_log_eigenvalue(3), math.log((3 + math.sqrt(5)) / 2))
    with pytest.raises(NonHyperbolic):
        hyperbolic_log_eigenvalue(2)
    # huge traces: log lambda ~ log T
    T = 10**200
    assert math.isclose(hyperbolic_log_eigenvalue(T), math.log(10) * 200, rel_tol=1e-12)


def test_potential_on_cylinder_examples():
    assert math.isclose(potential_I_on_cylinder(SignedWord((-1, 1))), GOLDEN_I)
    # (-2, 2): trace +-6, eigenvalue 3 + 2*sqrt(2)
    assert math.isclose(
        potential_I_on_cylinder(SignedWord((-2, 2))), 2 * math.log(3 + 2 * math.sqrt(2))
    )
    # odd word (k): doubled matrix trace k^2 + 2
    val = potential_I_on_cylinder(SignedWord((3,)))
    assert math.isclose(val, math.log((11 + math.sqrt(117)) / 2))


def test_potential_rotation_invariance():
    w = (-1, 2, -3, 1)
    vals = {
        round(potential_I_on_cylinder(SignedWord(w[i:] + w[:i])), 12)
        for i in range(len(w))
    }
    assert len(vals) == 1


def test_potential_guards():
    with pytest.raises(ValueError):
        potential_I_on_cylinder(SignedWord(()))
    with pytest.raises(ValueError):
        potential_I_on_cylinder(SignedWord((1, 2)))


def test_gauss_pressure_zero(level1, cfg):
    assert abs(pressure_collocation(level1, [], 1.0, cfg).value) < 1e-6


def test_beta_domain_guard(level1, cfg):
    with pytest.raises(BetaOutOfDomain):
        pressure_collocation(level1, [], 0.4, cfg)
    with pytest.raises(BetaOutOfDomain):
        pressure_cylinder(level1, [], 0.5, cfg)
    for beta in (math.nan, math.inf):
        with pytest.raises(BetaOutOfDomain, match=r"\(1/2, inf\)"):
            pressure_collocation(level1, [], beta, cfg)
        with pytest.raises(BetaOutOfDomain, match=r"\(1/2, inf\)"):
            pressure_cylinder(level1, [], beta, cfg)


def test_pressure_monotone_in_beta(level11, cfg):
    values = [
        pressure_collocation(level11, [0.03, -0.02], b, cfg).value
        for b in (0.7, 0.9, 1.1, 1.4, 2.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_collocation_matches_gkw_eigenfunction(level1, cfg):
    """At beta=1 the operator fixes 1/(1+y) with eigenvalue 1 (Gauss-Kuzmin)."""
    op = TransferOperator(level1, cfg)
    nodes = op.nodes
    f = 1.0 / (1.0 + nodes)
    vec = np.concatenate([f, f])  # both sign vertices carry the density
    out = thermo._apply(op.assemble([], 1.0), vec)
    assert np.abs(out - vec).max() < 1e-6


def test_edge_classes_partition_the_digits(level1, cfg):
    """Each vertex's outgoing blocks sum to the N=1 block of its sign.

    The classes a0 = 1..N of one source vertex partition the digit
    magnitudes and their zeta tails, so at t = 0 the column of blocks
    under a source vertex sums to the single Gauss block.  A dropped,
    duplicated or misclassed edge family breaks the sum.
    """
    n = cfg.collocation_degree + 1
    ref = dense(TransferOperator(level1, cfg).assemble([], 1.0))
    # column block v is source (v, +1) when v < kappa, else (v - kappa, -1)
    ref_blocks = [ref[:, v * n:(v + 1) * n].reshape(2, n, n).sum(axis=0) for v in (0, 1)]
    for N in (2, 6, 11):
        level = build_level_data(N)
        L = dense(TransferOperator(level, cfg).assemble(np.zeros(level.two_g), 1.0))
        num_v = L.shape[0] // n
        assert num_v == build_graph(level.table).num_vertices
        for v in range(num_v):
            out = L[:, v * n:(v + 1) * n].reshape(num_v, n, n).sum(axis=0)
            expect = ref_blocks[v // level.table.size]
            assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max(), (N, v)


@pytest.mark.parametrize("N", [*range(1, 31), 60, 97])
def test_residue_action_matches_graph_edges(N):
    """The digit action is the vertex graph's edge table: the residue-r
    family leaving (e, -s) ends at coset tau_r(e) with the sign s of its
    digit, in the class abs(digit) - 1, for every e, s and r; each residue
    permutes the cosets."""
    level = _level(N)
    targets, classes = level.table.action, thermo._digit_classes(N)
    kappa = level.table.size
    assert targets.shape == (kappa, N) and classes.shape == (2, N)
    assert (np.sort(targets, axis=0) == np.arange(kappa)[:, None]).all()
    edges = build_graph(level.table).edges
    for e in range(kappa):
        for k, sign in ((0, 1), (1, -1)):
            row = edges[TransitionGraph.vertex_index(e, -sign)]
            assert [dst for dst, _ in row] == [2 * tau + k for tau in targets[e]]
            assert [abs(digit) - 1 for _, digit in row] == classes[k].tolist()


def test_thermo_runs_without_vertex_graph(monkeypatch):
    """Neither pressure estimator builds the vertex graph."""
    def refuse(self):
        raise AssertionError("thermo built a TransitionGraph")

    monkeypatch.setattr(TransitionGraph, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        build_graph(_level(11).table)
    level = build_level_data(11)
    assert abs(gibbs_moments(level, [0.02, -0.01]).beta - 1.0) < 0.01
    cfg = NumericsConfig(digit_cutoff=20, cylinder_depth=3)
    zs = thermo._grid_partition_sums(level, [0.02, -0.01], 1.1, cfg)
    assert zs[-1] < zs[-2]


@pytest.mark.parametrize("N", [1, 2, 6, 11])
@pytest.mark.parametrize("tail", ["zeta-tail", "truncate"])
def test_grid_sums_equal_edge_oracle(N, tail):
    """The grid partition sums over the digit action are the edge-by-edge
    sums over the vertex graph, bit for bit: every sum adds in the same order."""
    level = _level(N)
    t = np.linspace(-0.07, 0.05, level.two_g)
    for K, depth in ((40, 4), (7, 3)):
        cfg = NumericsConfig(digit_cutoff=K, cylinder_depth=depth, tail_mode=tail)
        assert thermo._grid_partition_sums(level, t, 1.1, cfg) == grid_oracle(level, t, 1.1, cfg)


@pytest.mark.parametrize("N", [1, 2, 11])
def test_leading_right_and_left_perron_vectors(N, cfg):
    """leading on L and on L.T each returns a positive eigenvector of its
    matrix, with Perron roots that agree."""
    level = build_level_data(N)
    op = TransferOperator(level, cfg)
    t = np.full(level.two_g, 0.05)
    S = op.assemble(t, 1.0)
    roots = []
    for blocks in (S, S.T):
        lam, h = op.leading(blocks)
        M = dense(blocks)
        assert (h > 0).all()
        assert np.abs(M @ h - lam * h).max() <= 10 * cfg.tolerance * np.abs(h).max()
        roots.append(lam)
    assert abs(roots[0] - roots[1]) <= cfg.tolerance


def test_operator_too_large_refused_before_allocating(level1):
    with pytest.raises(OperatorTooLarge, match=r"N=1: .*2000002x2000002"):
        TransferOperator(level1, NumericsConfig(collocation_degree=10**6))
    assert issubclass(modsym.OperatorTooLarge, MemoryError)


def test_operator_guard_counts_sign_blocks(cfg, monkeypatch):
    """The footprint is the class blocks of both sign blocks, 2 N (m+1)^2
    floats, one kappa N (m+1) gather buffer and the peak of the class
    geometry, N ceil(K/N) (m+1) (4 (m+1) + 8) floats: a memory just above
    it constructs, one just below refuses.  The handle owns the class
    blocks and the kappa coset scalars."""
    npts = cfg.collocation_degree + 1
    for N in (1, 11):
        level = _level(N)
        kappa = level.table.size
        columns = -(-cfg.digit_cutoff // N)
        need = 8 * (2 * N * npts * npts + kappa * N * npts
                    + N * columns * npts * (4 * npts + 8))
        for have, fits in ((need, True), (need - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)
            if fits:
                S = TransferOperator(level, cfg).assemble(np.zeros(level.two_g), 1.0)
                assert S.nbytes == 8 * (2 * N * npts * npts + kappa)
            else:
                with pytest.raises(OperatorTooLarge):
                    TransferOperator(level, cfg)


def test_operator_guard_counts_class_geometry(level1, monkeypatch):
    """At N = 1, m = 24 the class blocks and gather buffer take about 10 kB,
    but K = 10^6 puts 10^6 (m+1)^2 entries in the barycentric rows: the
    guard refuses it against 8.4 GB in __init__, before any array exists."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_050_000}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    thermo._class_geometry.cache_clear()
    with pytest.raises(OperatorTooLarge, match=r"for the class geometry at K=1000000"):
        TransferOperator(level1, NumericsConfig(digit_cutoff=10**6))
    assert thermo._class_geometry.cache_info().currsize == 0


def test_grid_cylinder_guard_refuses_before_allocating(level1, monkeypatch, capsys):
    """At N = 1, depth 2 and K = 10^6 the grid iteration would hold about
    8 x 10^6 x 1025 floats (66 GB): refused against 8.4 GB before any array
    exists, from pressure_cylinder and from the CLI alike.  The footprint is
    8 K + 4 kappa float64 rows of 1025 points: a memory of exactly that runs
    the grid, one byte less refuses."""
    cfg = NumericsConfig(digit_cutoff=20, cylinder_depth=1)
    need = 8 * 1025 * (8 * 20 + 4)
    for have in (need, need - 1):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}.__getitem__)
        if have == need:
            assert len(thermo._grid_partition_sums(level1, [], 1.1, cfg)) == 1
        else:
            with pytest.raises(OperatorTooLarge):
                thermo._grid_partition_sums(level1, [], 1.1, cfg)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_050_000}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(thermo, "_class_magnitudes", None)
    cfg = NumericsConfig(digit_cutoff=10**6, cylinder_depth=2)
    with pytest.raises(OperatorTooLarge, match=r"N=1: the cylinder grid \(1025 points, "
                                               r"digits up to K=1000000\) needs 65600032800 "):
        pressure_cylinder(level1, [], 1.1, cfg)
    argv = "pressure --level 1 --beta 1.1 --method cylinder --depth 2 --cutoff 1000000"
    assert main(argv.split()) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "OperatorTooLarge"


@pytest.mark.parametrize("N", [1, 2, 6, 11])
@pytest.mark.parametrize("tail", ["zeta-tail", "truncate"])
@pytest.mark.parametrize("with_log", [False, True])
def test_sign_blocks_equal_dense_oracle(N, tail, with_log):
    """L and L.T, built column by column from the applies, are the
    edge-by-edge dense L and its transpose within the rounding bound of
    a length-n dot product; the same-sign blocks are exactly zero."""
    level = _level(N)
    cfg = NumericsConfig(tail_mode=tail)
    op = TransferOperator(level, cfg)
    t = np.linspace(-0.07, 0.05, level.two_g)
    half = level.table.size * (cfg.collocation_degree + 1)
    for beta in (0.7, 1.3):
        S = op.assemble(t, beta, with_log)
        L = oracle_pm(level, cfg, t, beta, with_log)
        assert not L[:half, :half].any() and not L[half:, half:].any()
        assert within_rounding(dense(S), L)
        assert within_rounding(dense(S.T), L.T)


@given(N=st.sampled_from([1, 2, 3, 5, 6]), seed=st.integers(0, 2**32 - 1),
       with_log=st.booleans())
@settings(max_examples=25, deadline=None)
def test_block_apply_equals_dense(N, seed, with_log):
    """Applying L matrix-free agrees with the dense oracle L @ x within the
    rounding bound n eps (|L| @ |x|) of a length-n dot product."""
    level = _level(N)
    rng = np.random.default_rng(seed)
    cfg = NumericsConfig()
    op = TransferOperator(level, cfg)
    t, beta = rng.uniform(-0.2, 0.2, level.two_g), rng.uniform(0.6, 2.0)
    S = op.assemble(t, beta, with_log)
    M = oracle_pm(level, cfg, t, beta, with_log)
    x = rng.normal(size=M.shape[0])
    bound = M.shape[0] * np.finfo(float).eps * (np.abs(M) @ np.abs(x))
    assert (np.abs(thermo._apply(S, x) - M @ x) <= bound).all()


def test_level_210_pressure_equals_gauss_pressure(level1, cfg):
    """At t = 0 the coset-constant functions are invariant and the digit
    classes partition the digits, so the pressure at N=210 equals the N=1
    pressure.  Here 2 kappa (m+1) = 28800: the dense sign blocks of L and
    L_log would take 6.6 GB, the class blocks and gather buffer take 26 MB."""
    level = build_level_data(210)
    assert level.table.size == 576
    for beta in (0.8, 1.3):
        gauss = pressure_collocation(level1, [], beta, cfg).value
        assert abs(pressure_collocation(level, [], beta, cfg).value - gauss) <= 1e-9


def test_discretization_stability(level11):
    """Collocation value stable under m -> m+8 and K -> 2K."""
    base = NumericsConfig(digit_cutoff=200, collocation_degree=24)
    finer = NumericsConfig(digit_cutoff=400, collocation_degree=32)
    for beta in (0.8, 1.3):
        a = pressure_collocation(level11, [0.02, 0.01], beta, base).value
        b = pressure_collocation(level11, [0.02, 0.01], beta, finer).value
        assert abs(a - b) < 1e-7


def test_tail_mode_truncate_converges(level1):
    """Truncation approaches the zeta-tail value as K grows.

    The truncation error scales like K^(1-2*beta), so the comparison uses
    beta = 2 where K = 4000 leaves an error far below the assertion.
    """
    ref = pressure_collocation(level1, [], 2.0, NumericsConfig()).value
    big = pressure_collocation(
        level1, [], 2.0, NumericsConfig(digit_cutoff=4000, tail_mode="truncate")
    ).value
    assert abs(ref - big) < 1e-8
    # at beta = 0.9 the truncation error is visible and shrinks with K
    ref9 = pressure_collocation(level1, [], 0.9, NumericsConfig()).value
    errs = [
        abs(
            pressure_collocation(
                level1, [], 0.9, NumericsConfig(digit_cutoff=K, tail_mode="truncate")
            ).value
            - ref9
        )
        for K in (50, 500)
    ]
    assert errs[1] < errs[0]


@pytest.mark.parametrize("N", [1, 11, 60, 420, 840])
def test_hurwitz_values_match_scipy(N):
    """The tails at the Hurwitz arguments of N at K = 200, m = 24 agree
    with scipy's Hurwitz zeta to 2e-15 relative for s from 1.001 to 20."""
    from scipy.special import zeta

    q = thermo._class_geometry(N, 200, 24)[3]
    for s in [1.001, 1.01, 1.1, *np.linspace(1.25, 20.0, 40)]:
        z, _ = thermo._hurwitz(s, q)
        assert np.abs(z / zeta(s, q) - 1.0).max() <= 2e-15, s


def test_hurwitz_log_sums_match_mpmath():
    """The log sums are -d/ds of the Hurwitz zeta: 1e-14 relative against
    mpmath's derivative at 30 digits, where a central difference in s
    is good to about 1e-10."""
    q = np.linspace(0.47, 50.0, 34)
    with mpmath.workdps(30):
        for s in (1.001, 1.4, 2.02, 3.0, 5.5, 9.0):
            _, z_log = thermo._hurwitz(s, q, with_log=True)
            oracle = np.array([float(-mpmath.zeta(s, qi, derivative=1)) for qi in q])
            assert np.abs(z_log / oracle - 1.0).max() <= 1e-14, s


@pytest.mark.parametrize("s", [18.0, 101.0])
def test_hurwitz_large_order_matches_direct_sum(s):
    """At large s q mpmath's Hurwitz zeta is off (by 1.1e-9 relative at
    s = 18, q = 201), so the oracle is the direct sum of 10^4 terms at 30
    digits, whose omitted rest is below 1e-29 relative here."""
    q = np.array([0.24, 3.4, 18.3, 201.0])
    z, z_log = thermo._hurwitz(s, q, with_log=True)
    with mpmath.workdps(30):
        for qi, zi, li in zip(q, z, z_log):
            xs = [mpmath.mpf(qi) + n for n in range(10**4)]
            terms = [x ** -s for x in xs]
            assert abs(zi / float(mpmath.fsum(terms)) - 1.0) <= 2e-15
            oracle = mpmath.fsum(mpmath.log(x) * term for x, term in zip(xs, terms))
            assert abs(li / float(oracle) - 1.0) <= 1e-14


@given(N=st.integers(1, 900), s=st.floats(1.001, 120.0), with_log=st.booleans(),
       q=st.lists(st.floats(0.01, 300.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_class_tail_batch_equals_elementwise(N, s, with_log, q):
    """A batched tail equals the one-element calls bitwise, as the dense
    oracle (one class at a time) and the class blocks (all at once) need."""
    batch = thermo._class_tail(s, N, np.array(q), with_log)
    single = [thermo._class_tail(s, N, np.array([qi]), with_log)[0] for qi in q]
    assert batch.tolist() == single


def test_solve_beta_origin(level11, cfg):
    assert abs(solve_beta(level11, [0.0, 0.0], cfg) - 1.0) < 1e-3


def test_solve_beta_residual(level11, cfg):
    b = solve_beta(level11, [0.04, 0.02], cfg)
    assert abs(pressure_collocation(level11, [0.04, 0.02], b, cfg).value) <= 10 * cfg.tolerance


def brent_root(level, t, cfg):
    """beta_G(t) by bracketed Brent iteration on the collocation pressure."""
    return brentq(lambda beta: pressure_collocation(level, t, beta, cfg).value,
                  0.8, 1.3, xtol=min(cfg.tolerance, 1e-9), rtol=8.9e-16)


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_newton_root_matches_brent_oracle(level11, tol, monkeypatch):
    """The Newton root agrees with Brent's within twice Brent's xtol, in at
    most 10 Perron solves (5 Newton steps of a right and a left vector)."""
    cfg = NumericsConfig(tolerance=tol)
    rng = np.random.default_rng(8)
    solves = []
    leading = TransferOperator.leading

    def counted(self, S):
        solves[-1] += 1
        return leading(self, S)

    for _ in range(30):
        t = rng.uniform(-1, 1, 2)
        t *= rng.uniform(0, 0.2) / np.linalg.norm(t)
        solves.append(0)
        with monkeypatch.context() as m:
            m.setattr(TransferOperator, "leading", counted)
            beta = solve_beta(level11, t, cfg)
        assert abs(beta - brent_root(level11, t, cfg)) <= 2 * min(tol, 1e-9)
    assert max(solves) <= 10


@given(t=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)))
@settings(max_examples=10, deadline=None)
def test_pressure_decreasing_and_convex_in_beta(level11, cfg, t):
    """P(t, .) is strictly decreasing and convex on [0.7, 2], the two facts
    that make the Newton iterates for beta_G climb monotonically to the root."""
    P = np.array([pressure_collocation(level11, t, beta, cfg).value
                  for beta in np.linspace(0.7, 2.0, 27)])
    assert (np.diff(P) < 0).all()
    assert np.diff(P, 2).min() >= -1e-9


def fd_beta_hessian(level, t, cfg):
    """Finite-difference Hessian of beta_G: central differences of alpha(t)."""
    d = level.two_g
    step = 2e-3
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        ap = gibbs_moments(level, t + ei, cfg).alpha
        am = gibbs_moments(level, t - ei, cfg).alpha
        H[:, i] = (ap - am) / (2 * step)
    return (H + H.T) / 2.0


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_beta_hessian_matches_finite_difference_oracle(level11, tol):
    """The implicit-function Hessian agrees with central differences of alpha."""
    cfg = NumericsConfig(tolerance=tol)
    for t in ([0.0, 0.0], [0.05, -0.02], [0.12, -0.16]):
        t = np.array(t)
        diff = beta_hessian(level11, t, cfg) - fd_beta_hessian(level11, t, cfg)
        assert np.abs(diff).max() <= 1e-6


def test_moments_lyapunov_oracle(level1, level11, cfg):
    oracle, err = quad(lambda x: -2 * math.log(x) / ((1 + x) * math.log(2)), 0, 1)
    assert err < 1e-9
    for lvl in (level1, level11):
        mom = gibbs_moments(lvl, None, cfg)
        assert abs(mom.mean_i - oracle) < 1e-3
        assert np.abs(mom.alpha).max() < 1e-3 if lvl.two_g else mom.alpha.size == 0


def test_moments_match_beta_gradient(level11, cfg):
    """alpha(t) equals the finite-difference gradient of beta_G."""
    t = np.array([0.05, -0.02])
    mom = gibbs_moments(level11, t, cfg)
    h = 1e-3
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        grad = (solve_beta(level11, t + e, cfg) - solve_beta(level11, t - e, cfg)) / (2 * h)
        assert abs(grad - mom.alpha[i]) < 1e-3


def test_moment_check_at_known_failing_point(level11):
    """The default self-check once raised here on correct moments: its
    pressures stopped at the 1e-8 tolerance, which the step-1e-4 central
    difference amplified beyond the 1e-6 check."""
    t = (-0.11925892693418495, -0.058193400617569106)
    mom = gibbs_moments(level11, t)
    assert np.abs(mom.alpha).max() < 0.1
    assert issubclass(modsym.MomentCheckError, RuntimeError)
    assert MomentCheckError is modsym.MomentCheckError


def test_cylinder_hand_example(level1):
    """n=1, K=1: Z_1 = 2 exp(-beta * log((3+sqrt 5)/2)), closed form."""
    cfg = NumericsConfig(digit_cutoff=1, cylinder_depth=1)
    lam = (3 + math.sqrt(5)) / 2
    for beta in (0.8, 1.0, 1.7):
        est = pressure_cylinder(level1, [], beta, cfg)
        assert est.provenance["method"] == "cylinder-enumerate"
        assert math.isclose(est.value, math.log(2 * lam**-beta))


def test_cylinder_cross_estimator(level1, cfg):
    cyl_cfg = NumericsConfig(digit_cutoff=50, cylinder_depth=10)
    for beta, tol in ((1.0, 0.02), (2.0, 0.05)):
        cyl = pressure_cylinder(level1, [], beta, cyl_cfg).value
        col = pressure_collocation(level1, [], beta, cfg).value
        assert abs(cyl - col) < tol


def test_cylinder_modes_agree(level2):
    cfg = NumericsConfig(digit_cutoff=6, cylinder_depth=6, tail_mode="truncate")
    e, g = (math.log(zs[-1] / zs[-2]) for zs in (
        thermo._enumerate_partition_sums(level2, [], 1.1, cfg),
        thermo._grid_partition_sums(level2, [], 1.1, cfg)))
    assert abs(e - g) < 0.02


def test_cylinder_provenance(level1):
    cfg = NumericsConfig(digit_cutoff=2, cylinder_depth=3)
    est = pressure_cylinder(level1, [], 1.0, cfg)
    prov = est.provenance
    assert {"method", "K", "m", "n", "tolerance", "tail"} <= set(prov)
    assert len(prov["partition_sums"]) == 3
    assert math.isclose(
        prov["raw_rate"], math.log(prov["partition_sums"][-1]) / 3
    )


def test_bracket_failure(level11):
    # the pressure at t = (40, 0) stays positive up to BETA_MAX
    with pytest.raises(BracketFailure, match="no negative pressure up to beta=8.0"):
        solve_beta(level11, [40, 0])


def test_t_vector_validation(level11, cfg):
    with pytest.raises(ValueError):
        pressure_collocation(level11, [0.1], 1.0, cfg)
    for t in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            solve_beta(level11, t, cfg)
        with pytest.raises(ValueError, match="finite"):
            pressure_cylinder(level11, t, 1.1, NumericsConfig(cylinder_depth=1, digit_cutoff=5))
