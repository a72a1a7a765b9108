"""Pressure, root function beta(t), and Gibbs moments for the decorated shift.

Two estimators are provided.  The main one discretizes the transfer
operator on Chebyshev-Lobatto nodes per (coset, sign) vertex, with the
countable digit tail of each residue class folded in through Hurwitz
zeta values (constant plus linear correction of the interpolant at 0);
its leading eigenvalue gives the pressure.  The second one iterates
finite-depth cylinder partition sums directly (exact enumeration with
per-word hyperbolic traces when the word count is small, otherwise a
uniform-grid function iteration) and serves as an independent
cross-check.  The collocation operator and the grid iteration both read
their edge families from the level's ``shiftspace.TransitionGraph``.
The vertex graph is bipartite in the sign coordinate, so eigen-data is
extracted from the squared operator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta as hurwitz_zeta

from .contfrac import SignedWord
from .cosets import CosetTable
from .homology import HomologyData, build_homology
from .psl2 import word_to_matrix
from .shiftspace import TransitionGraph


class BetaOutOfDomain(ValueError):
    """beta outside the summability half-line (1/2, infinity)."""


class NoConvergence(RuntimeError):
    """Power iteration failed to settle within the iteration cap."""


class BracketFailure(RuntimeError):
    """No sign change of the pressure found on the scanned beta range."""


class NonHyperbolic(ValueError):
    """Periodic word whose matrix has |trace| <= 2."""


class MomentCheckError(RuntimeError):
    """Eigenvector moments disagree with finite differences of the pressure."""


class OperatorTooLarge(MemoryError):
    """The dense collocation matrices would not fit in physical memory."""


ENUM_LIMIT = 2_000_000  # word-count bound for exact cylinder enumeration


@dataclass(frozen=True)
class NumericsConfig:
    digit_cutoff: int = 200          # K: largest digit magnitude summed explicitly
    collocation_degree: int = 24     # m: polynomial degree per vertex
    tolerance: float = 1e-8
    cylinder_depth: int = 10         # n: depth of cylinder partition sums
    tail_mode: str = "zeta-tail"     # or "truncate"
    beta_min: float = 0.52
    beta_max: float = 8.0

    def __post_init__(self):
        if self.digit_cutoff < 1 or self.collocation_degree < 2:
            raise ValueError("cutoff must be >= 1 and degree >= 2")
        if self.tolerance <= 0 or self.cylinder_depth < 1:
            raise ValueError("tolerance must be positive and depth >= 1")
        if self.tail_mode not in ("zeta-tail", "truncate"):
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")

    def provenance(self, method: str, **extra) -> dict:
        rec = {
            "method": method,
            "K": self.digit_cutoff,
            "m": self.collocation_degree,
            "n": self.cylinder_depth,
            "tolerance": self.tolerance,
            "tail": self.tail_mode,
        }
        rec.update(extra)
        return rec


@dataclass
class GibbsMoments:
    mean_j: np.ndarray
    mean_i: float
    alpha: np.ndarray
    beta: float
    provenance: dict


@dataclass
class PressureEstimate:
    value: float
    provenance: dict


@dataclass
class LevelData:
    """Everything the numerics need for one level N."""

    table: CosetTable
    homology: HomologyData
    j_values: np.ndarray  # shape (kappa, 2g), float copies of the exact classes

    @property
    def level(self) -> int:
        return self.table.level

    @property
    def two_g(self) -> int:
        return self.j_values.shape[1]

    @cached_property
    def graph(self) -> TransitionGraph:
        return TransitionGraph(self.table)


def build_level_data(N: int) -> LevelData:
    table = CosetTable(N)
    hom = build_homology(table)
    j = np.array(
        [[float(c) for c in vec] for vec in hom.classes], dtype=float
    ).reshape(table.size, 2 * table.invariants.genus)
    return LevelData(table, hom, j)


def _as_t_vector(level: LevelData, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float)) if t is not None else np.zeros(0)
    if t.size == 0:
        t = np.zeros(level.two_g)
    if t.shape != (level.two_g,):
        raise ValueError(f"t must have length {level.two_g}, got shape {t.shape}")
    return t


def _coset_scalars(level: LevelData, t: np.ndarray) -> np.ndarray:
    """exp((t|J(e))) per coset e, the weight of every edge leaving coset e."""
    return np.exp(level.j_values @ t) if level.two_g else np.ones(level.table.size)


def hyperbolic_log_eigenvalue(trace: int) -> float:
    """log of the larger eigenvalue modulus of a det-1 matrix from its trace."""
    T = abs(trace)
    if T <= 2:
        raise NonHyperbolic(f"|trace| = {T} <= 2")
    if T < 10**12:
        return math.log((T + math.sqrt(T * T - 4)) / 2.0)
    # large traces: avoid squaring overflow, 4/T^2 underflows harmlessly
    ratio = 4.0 / (float(T) * float(T)) if T < 10**150 else 0.0
    return math.log(T) + math.log1p(math.sqrt(1.0 - ratio)) - math.log(2.0)


def potential_I_on_cylinder(word: SignedWord) -> float:
    """Birkhoff sum of the expansion potential at the word's periodic point.

    Odd words are doubled with negated digits to keep the periodic
    extension alternating; the result is still the per-period sum for
    the original length.
    """
    digits = word.digits
    if not digits:
        raise ValueError("empty word has no periodic point")
    if not word.is_alternating:
        raise ValueError("word must alternate in sign")
    m = word_to_matrix(digits)
    return _periodic_log_expansion(m.a, m.b, m.c, m.d, len(digits))


def _periodic_log_expansion(a: int, b: int, c: int, d: int, length: int) -> float:
    """Per-period sum of I at the periodic point of a word with matrix [[a,b],[c,d]].

    For an even word the sum is 2 log lambda, lambda the larger
    eigenvalue of the matrix.  An odd word is doubled with negated
    digits, whose matrix is [[a,-b],[-c,d]] up to overall sign, so the
    doubled word has trace a^2 + d^2 - 2bc.
    """
    if length % 2 == 0:
        return 2.0 * hyperbolic_log_eigenvalue(a + d)
    return hyperbolic_log_eigenvalue(a * a + d * d - 2 * b * c)


# ---------------------------------------------------------------------------
# collocation operator


def _lobatto_nodes(m: int) -> np.ndarray:
    return (1.0 - np.cos(np.pi * np.arange(m + 1) / m)) / 2.0


def _bary_weights(m: int) -> np.ndarray:
    w = np.ones(m + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[m] *= 0.5
    return w


def _bary_rows(points: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Barycentric interpolation rows: out[i] @ f(nodes) = f(points[i])."""
    pts = points.ravel()
    diff = pts[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = weights[None, :] / diff
        rows = r / r.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    if hit.any():
        rows[hit] = 0.0
        rows[hit, exact[hit].argmax(axis=1)] = 1.0
    return rows.reshape(points.shape + (nodes.size,))


def _diff_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix on the given nodes."""
    n = nodes.size
    D = np.zeros((n, n))
    for j in range(n):
        for l in range(n):
            if l != j:
                D[j, l] = (weights[l] / weights[j]) / (nodes[j] - nodes[l])
        D[j, j] = -D[j].sum()
    return D


def _zeta_sprime(s: float, q: np.ndarray) -> np.ndarray:
    # derivative of the Hurwitz zeta in s, by central difference
    h = 1e-6
    return (hurwitz_zeta(s + h, q) - hurwitz_zeta(s - h, q)) / (2 * h)


def _digit_class(a0: int, N: int, K: int, y: np.ndarray):
    """Magnitudes a0, a0 + N, ... up to K of one digit class, and the
    Hurwitz argument q = (a_first + y) / N of the class beyond K."""
    mags = np.arange(a0, K + 1, N, dtype=float)
    a_first = mags[-1] + N if mags.size else float(a0)
    return mags, (a_first + y) / N


def _class_tail(s: float, N: int, q: np.ndarray, with_log: bool = False) -> np.ndarray:
    """Sum over a = a_first, a_first + N, ... of (a + y)^{-s}, or its
    -d/dbeta (for s = 2 beta + j) when log weights are requested."""
    if not with_log:
        return N ** (-s) * hurwitz_zeta(s, q)
    return 2 * math.log(N) * N ** (-s) * hurwitz_zeta(s, q) \
        - 2 * N ** (-s) * _zeta_sprime(s, q)


class TransferOperator:
    """Chebyshev-collocation discretization at one level.

    Functions live on vertex x node; vertex (e, +1) occupies block 2e
    and (e, -1) block 2e+1.  The edge families come from
    ``level.graph``; the block of an edge depends on its digit class
    only through the smallest magnitude a0 = abs(digit), so blocks are
    shared across cosets.  Construction refuses, with
    ``OperatorTooLarge``, a level whose dense L and L_log would not fit
    in physical memory.
    """

    def __init__(self, level: LevelData, cfg: NumericsConfig):
        m = cfg.collocation_degree
        n = 2 * level.table.size * (m + 1)
        need = 2 * 8 * n * n
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise OperatorTooLarge(
                f"N={level.level}: L and L_log ({n}x{n} float64) need {need} bytes, "
                f"physical memory is {have} bytes"
            )
        self.level = level
        self.cfg = cfg
        self.nodes = _lobatto_nodes(m)
        self.weights = _bary_weights(m)
        D = _diff_matrix(self.nodes, self.weights)
        self.d0 = D[0]
        self.d0_2 = (D @ D)[0]
        self.e0 = np.zeros(m + 1)
        self.e0[0] = 1.0
        # sign-class mask: nodes of the +1 vertices 2e
        self.plus_mask = np.repeat(np.arange(2 * level.table.size) % 2 == 0, m + 1)

    @property
    def size(self) -> int:
        return 2 * self.level.table.size * (self.nodes.size)

    def _class_blocks(self, beta: float, with_log: bool):
        """One (m+1)x(m+1) block per smallest magnitude a0 in 1..N."""
        cfg = self.cfg
        N = self.level.level
        K = cfg.digit_cutoff
        y = self.nodes
        npts = y.size
        blocks = {}
        for a0 in range(1, N + 1):
            mags, q = _digit_class(a0, N, K, y)
            B = np.zeros((npts, npts))
            if mags.size:
                ay = mags[None, :] + y[:, None]          # (npts, na)
                W = ay ** (-2.0 * beta)
                if with_log:
                    W = W * (2.0 * np.log(ay))
                R = _bary_rows(1.0 / ay, y, self.weights)  # (npts, na, npts)
                B = np.einsum("ja,jal->jl", W, R)
            if cfg.tail_mode == "zeta-tail":
                # Taylor rows of the interpolant at the branch endpoint 0:
                # f(u) ~ f(0) + u f'(0) + u^2 f''(0) / 2
                s0 = 2.0 * beta
                B = B + _class_tail(s0, N, q, with_log)[:, None] * self.e0[None, :] \
                    + _class_tail(s0 + 1.0, N, q, with_log)[:, None] * self.d0[None, :] \
                    + _class_tail(s0 + 2.0, N, q, with_log)[:, None] * (self.d0_2[None, :] / 2.0)
            blocks[a0] = B
        return blocks

    def assemble(self, t, beta: float, with_log: bool = False) -> np.ndarray:
        if beta <= 0.5:
            raise BetaOutOfDomain(f"beta must exceed 1/2, got {beta}")
        level = self.level
        t = _as_t_vector(level, t)
        blocks = self._class_blocks(beta, with_log)
        npts = self.nodes.size
        L = np.zeros((self.size, self.size))
        scalars = _coset_scalars(level, t)
        for src, row in enumerate(level.graph.edges):
            cols = slice(src * npts, (src + 1) * npts)
            for dst, digit in row:
                L[dst * npts:(dst + 1) * npts, cols] += scalars[src // 2] * blocks[abs(digit)]
        return L

    def leading(self, M: np.ndarray):
        """Perron root lam and positive eigenvector h of M, which is L or,
        for the left vector, L.T.

        Works on M^2, which is block diagonal over the two sign classes,
        then lifts a one-class Perron vector back to an eigenvector of M.
        """
        lam2, v = _square_perron(M, self.cfg.tolerance)
        lam = math.sqrt(lam2)
        v_plus = np.where(self.plus_mask, v, 0.0)
        return lam, v_plus + (M @ v_plus) / lam


def _square_perron(M: np.ndarray, tol: float):
    """Power iteration on M^2: its leading eigenvalue and max-normalized vector."""
    v = np.ones(M.shape[0])
    lam2_old = 0.0
    for _ in range(5000):
        w = M @ (M @ v)
        nrm = w.max()
        if nrm <= 0 or not np.isfinite(nrm):
            raise NoConvergence("iteration lost positivity")
        w /= nrm
        lam2 = nrm
        if abs(lam2 - lam2_old) <= tol * max(lam2, 1e-300) \
                and np.abs(w - v).max() <= 100 * tol:
            return lam2, w
        lam2_old, v = lam2, w
    raise NoConvergence("power iteration cap reached")


def pressure_collocation(level: LevelData, t, beta: float,
                         cfg: NumericsConfig | None = None,
                         _op: TransferOperator | None = None) -> PressureEstimate:
    """Pressure as log of the leading collocation eigenvalue."""
    cfg = cfg or NumericsConfig()
    op = _op or TransferOperator(level, cfg)
    L = op.assemble(t, beta)
    lam, _ = op.leading(L)
    return PressureEstimate(math.log(lam), cfg.provenance("collocation", beta=beta))


def solve_beta(level: LevelData, t, cfg: NumericsConfig | None = None) -> float:
    """Root of P(t, .) = 0, by bracketed Brent iteration."""
    cfg = cfg or NumericsConfig()
    op = TransferOperator(level, cfg)
    evaluated: dict[float, float] = {}

    def P(beta):
        if beta not in evaluated:
            evaluated[beta] = pressure_collocation(level, t, beta, cfg, _op=op).value
        return evaluated[beta]

    lo = max(cfg.beta_min, min(0.8, cfg.beta_max))
    hi = min(cfg.beta_max, 1.3)
    while P(lo) <= 0.0:
        if lo <= cfg.beta_min + 1e-12:
            raise BracketFailure(f"no positive pressure down to beta={lo}: {evaluated}")
        lo = max(cfg.beta_min, lo - 0.15)
    while P(hi) >= 0.0:
        if hi >= cfg.beta_max:
            raise BracketFailure(f"no negative pressure up to beta={hi}: {evaluated}")
        hi = min(cfg.beta_max, hi + 0.5)
    root = brentq(P, lo, hi, xtol=min(cfg.tolerance, 1e-9), rtol=8.9e-16)
    if abs(P(root)) > 10 * max(cfg.tolerance, 1e-12):
        raise BracketFailure(f"residual {P(root)} too large at beta={root}")
    return float(root)


def gibbs_moments(level: LevelData, t, cfg: NumericsConfig | None = None) -> GibbsMoments:
    """Stationary averages of the two potentials at (t, beta_G(t)).

    Computed from left/right Perron vectors by first-order perturbation
    of the leading eigenvalue, then checked against finite differences
    of the pressure (``MomentCheckError`` when they disagree).
    """
    cfg = cfg or NumericsConfig()
    t = _as_t_vector(level, t)
    beta = solve_beta(level, t, cfg)
    op = TransferOperator(level, cfg)
    L = op.assemble(t, beta)
    lam, h = op.leading(L)
    _, nu = op.leading(L.T)
    denom = lam * float(nu @ h)

    L_log = op.assemble(t, beta, with_log=True)
    mean_i = float(nu @ (L_log @ h)) / denom
    if mean_i <= 0:
        raise NoConvergence("nonpositive expansion moment")

    npts = op.nodes.size
    mean_j = np.zeros(level.two_g)
    for i in range(level.two_g):
        scale = np.repeat(np.repeat(level.j_values[:, i], 2), npts)
        mean_j[i] = float(nu @ (L @ (scale * h))) / denom

    _check_moments(level, t, beta, cfg, mean_j, mean_i)

    alpha = mean_j / mean_i
    return GibbsMoments(mean_j, mean_i, alpha, beta,
                        cfg.provenance("collocation-moments", beta=beta))


def _check_moments(level, t, beta, cfg, mean_j, mean_i):
    h = 1e-4
    tol = max(10 * cfg.tolerance, 1e-6)
    # a central difference turns a stopping error eps of each pressure into
    # eps / h in the derivative, so these pressures are solved to h * tol / 10
    fd_cfg = replace(cfg, tolerance=min(cfg.tolerance, h * tol / 10))
    fd_op = TransferOperator(level, fd_cfg)

    def P(tv, bv):
        return pressure_collocation(level, tv, bv, fd_cfg, _op=fd_op).value

    dPdb = (P(t, beta + h) - P(t, beta - h)) / (2 * h)
    if abs(-dPdb - mean_i) > tol * max(1.0, mean_i):
        raise MomentCheckError(
            f"d_beta P = {dPdb} vs -mean_i = {-mean_i} beyond tolerance {tol}"
        )
    for i in range(level.two_g):
        step = np.zeros(level.two_g)
        step[i] = h
        dPdt = (P(t + step, beta) - P(t - step, beta)) / (2 * h)
        if abs(dPdt - mean_j[i]) > tol * max(1.0, abs(mean_j[i])):
            raise MomentCheckError(
                f"d_t{i} P = {dPdt} vs mean_j = {mean_j[i]} beyond tolerance {tol}"
            )


# ---------------------------------------------------------------------------
# cylinder partition sums


def _enumerate_partition_sums(level: LevelData, t, beta, cfg) -> list[float]:
    """Z_1..Z_n by explicit word enumeration with periodic-point weights."""
    t = _as_t_vector(level, t)
    table = level.table
    K = cfg.digit_cutoff
    n = cfg.cylinder_depth
    tJ = level.j_values @ t if level.two_g else np.zeros(table.size)
    z = [0.0] * (n + 1)

    def weight(matrix, depth, sum_tj):
        return math.exp(sum_tj - beta * _periodic_log_expansion(*matrix, depth))

    def descend(e, next_digit_sign_options, matrix, depth, sum_tj):
        if depth == n:
            return
        a, b, c, d = matrix
        for sign in next_digit_sign_options:
            for mag in range(1, K + 1):
                k = sign * mag
                # multiply by S*T^k = [[0,-1],[1,k]]
                new = (b, -a + k * b, d, -c + k * d)
                e_next = table.tau(k, e)
                z[depth + 1] += weight(new, depth + 1, sum_tj + tJ[e])
                descend(e_next, (-sign,), new, depth + 1, sum_tj + tJ[e])

    for e in range(table.size):
        descend(e, (1, -1), (1, 0, 0, 1), 0, 0.0)
    return z[1:]


def _grid_partition_sums(level: LevelData, t, beta, cfg) -> list[float]:
    """Z_1..Z_n by depth-iterating cylinder sums on a uniform grid.

    The edge families come from ``level.graph``, each keyed by the
    smallest magnitude a0 = abs(digit) of its digit class.  Tail
    evaluation happens at the branch endpoint (grid value 0); a zeta
    tail with a linear interpolant correction is applied when the
    configuration asks for it.
    """
    t = _as_t_vector(level, t)
    N = level.level
    K = cfg.digit_cutoff
    G = 1025  # uniform grid points
    y = np.linspace(0.0, 1.0, G)
    dy = y[1] - y[0]
    scalars = _coset_scalars(level, t)

    # per smallest-magnitude class: branch weights with interp indices and
    # fractions, and the zeta-tail coefficients of f(0) and f'(0)
    per_a0 = {}
    for a0 in range(1, N + 1):
        mags, q = _digit_class(a0, N, K, y)
        branch = tail = None
        if mags.size:
            ay = mags[:, None] + y[None, :]
            pos = 1.0 / ay / dy
            idx = np.minimum(pos.astype(int), G - 2)
            branch = (ay ** (-2.0 * beta), idx, pos - idx)
        if cfg.tail_mode == "zeta-tail":
            tail = (_class_tail(2.0 * beta, N, q), _class_tail(2.0 * beta + 1.0, N, q))
        per_a0[a0] = (branch, tail)

    edges = level.graph.edges
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


def pressure_cylinder(level: LevelData, t, beta: float,
                      cfg: NumericsConfig | None = None,
                      mode: str = "auto") -> PressureEstimate:
    """Finite-depth cylinder-sum estimate of the pressure.

    The reported value is the quotient estimate log(Z_n / Z_{n-1}),
    which agrees with (1/n) log Z_n at depth 1 and converges to the
    same limit without the subexponential prefactor; the raw quantity
    is recorded in the provenance.  Exact per-word enumeration is used
    when the admissible word count fits the configured limit, otherwise
    the grid iteration takes over.
    """
    cfg = cfg or NumericsConfig()
    if beta <= 0.5:
        raise BetaOutOfDomain(f"beta must exceed 1/2, got {beta}")
    n = cfg.cylinder_depth
    word_count = 2 * level.table.size * cfg.digit_cutoff ** n
    if mode == "auto":
        mode = "enumerate" if word_count <= ENUM_LIMIT else "grid"
    if mode == "enumerate":
        if word_count > 50 * ENUM_LIMIT:
            raise ValueError(f"enumeration of ~{word_count} words refused")
        zs = _enumerate_partition_sums(level, t, beta, cfg)
    elif mode == "grid":
        zs = _grid_partition_sums(level, t, beta, cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    raw = math.log(zs[-1]) / n
    value = math.log(zs[-1]) - (math.log(zs[-2]) if n > 1 else 0.0)
    prov = cfg.provenance("cylinder-" + mode, beta=beta,
                          raw_rate=raw, partition_sums=zs)
    return PressureEstimate(value, prov)


def beta_hessian(level: LevelData, t, cfg: NumericsConfig | None = None) -> np.ndarray:
    """Finite-difference Hessian of beta_G: central differences of alpha(t)."""
    cfg = cfg or NumericsConfig()
    t = _as_t_vector(level, t)
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
