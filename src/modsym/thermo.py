"""Pressure, root function beta(t), and Gibbs moments for the decorated shift.

Two estimators are provided.  The main one discretizes the transfer
operator on Chebyshev-Lobatto nodes per (coset, sign) vertex, with the
countable digit tail of each residue class folded in through Hurwitz
zeta values (constant plus linear correction of the interpolant at 0);
its leading eigenvalue gives the pressure.  The second one iterates
finite-depth cylinder partition sums directly (exact enumeration with
per-word hyperbolic traces when the word count is small, otherwise a
uniform-grid function iteration) and serves as an independent
cross-check.  Both read the digit action of the level, tau_r of each
residue r from ``CosetTable.action`` and the digit class of each
(residue, sign) from the digit table, and lay out the class magnitudes
alike.  A digit of sign s leaves the sign -s, so the operator has two
nonzero sign blocks, and eigen-data comes from their product, one sign
block of the squared operator.  Neither block is formed: each is applied
from its N digit-class blocks by gathering source cosets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .contfrac import SignedWord
from .cosets import CosetTable
from .homology import HomologyData, build_homology
from .psl2 import word_to_matrix
from .shiftspace import digit_table


class BetaOutOfDomain(ValueError):
    """beta outside the summability half-line (1/2, infinity)."""


class NoConvergence(RuntimeError):
    """Power iteration failed to settle within the iteration cap."""


class BracketFailure(RuntimeError):
    """The pressure stays positive up to BETA_MAX, or the beta root does not settle."""


class NonHyperbolic(ValueError):
    """Periodic word whose matrix has |trace| <= 2."""


class MomentCheckError(RuntimeError):
    """Eigenvector moments disagree with finite differences of the pressure."""


class OperatorTooLarge(MemoryError):
    """The collocation operator or the cylinder grid would not fit in physical memory."""


ENUM_LIMIT = 2_000_000  # word-count bound for exact cylinder enumeration
BETA_MAX = 8.0  # largest beta the root search steps to


@dataclass(frozen=True)
class NumericsConfig:
    digit_cutoff: int = 200          # K: largest digit magnitude summed explicitly
    collocation_degree: int = 24     # m: polynomial degree per vertex
    tolerance: float = 1e-8
    cylinder_depth: int = 10         # n: depth of cylinder partition sums
    tail_mode: str = "zeta-tail"     # or "truncate"

    def __post_init__(self):
        if self.digit_cutoff < 1 or self.collocation_degree < 2:
            raise ValueError("cutoff must be >= 1 and degree >= 2")
        if not 0 < self.tolerance < math.inf or self.cylinder_depth < 1:
            raise ValueError("tolerance must be positive and finite, and depth >= 1")
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
    j_values: np.ndarray  # shape (kappa, 2g), float copies of the integer classes

    @property
    def level(self) -> int:
        return self.table.level

    @property
    def two_g(self) -> int:
        return self.j_values.shape[1]


def build_level_data(N: int) -> LevelData:
    table = CosetTable(N)
    hom = build_homology(table)
    j = np.array(hom.classes, dtype=float).reshape(table.size, 2 * table.invariants.genus)
    return LevelData(table, hom, j)


def _digit_classes(N: int) -> np.ndarray:
    """(2, N): class index abs(digit) - 1 of each ``digit_table(N)`` entry."""
    return np.abs(digit_table(N)) - 1


def _physical_memory() -> int:
    """Bytes of physical memory, the bound of both memory guards."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _as_t_vector(level: LevelData, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float)) if t is not None else np.zeros(0)
    if t.size == 0:
        t = np.zeros(level.two_g)
    if t.shape != (level.two_g,):
        raise ValueError(f"t must have length {level.two_g}, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError(f"t must be finite, got {t.tolist()}")
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


def _class_magnitudes(N: int, K: int):
    """The digit classes a0 = 1..N as one padded layout.

    Returns (mags, valid, first): ``mags[a0 - 1]`` holds a0, a0 + N, ...
    in ceil(K / N) columns, ``valid`` marks the magnitudes up to K, and
    ``first[a0 - 1]`` is the first magnitude beyond K, where the class's
    Hurwitz tail starts.
    """
    mags = np.arange(1.0, N + 1.0)[:, None] + N * np.arange(-(-K // N))
    valid = mags <= K
    return mags, valid, mags[:, 0] + N * valid.sum(axis=1)


# B_2, B_4, ..., B_34 as B_2k / (2k)!: the Euler-Maclaurin coefficients of the
# Hurwitz tails, the last one bounding the first omitted term
_EM_COEFFS = [b / math.factorial(2 * k + 2) for k, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6,
    -23749461029 / 870, 8615841276005 / 14322, -7709321041217 / 510, 2577687858367 / 6))]


def _hurwitz(s: float, q: np.ndarray, with_log: bool = False):
    """The sums over n >= 0 of (q + n)^-s and, with ``with_log`` (else None),
    of log(q + n) (q + n)^-s, elementwise in q > 0, for s > 1.

    Each element sums its terms in order until q + n reaches a shift x0,
    chosen so that the first omitted Euler-Maclaurin term is 2^-56 of the
    leading one, and adds the remainder at that x = q + n,
    x^(1-s) / (s-1) + x^-s / 2 + sum_k B_2k / (2k)! (s)_(2k-1) x^(-s-2k+1),
    or for the log sums its exact -d/ds.  An element's term count depends on
    its own q alone, so a batched call equals the element-wise calls bitwise.
    """
    p = len(_EM_COEFFS) - 1
    log_x0 = (math.log(abs(_EM_COEFFS[p])) + math.lgamma(s + 2 * p + 1) - math.lgamma(s)
              + math.log(s - 1) + 56 * math.log(2)) / (2 * p + 2)
    count = np.maximum(np.ceil(math.exp(log_x0) - q), 0.0)
    n = np.arange(count.max(initial=0.0))
    X = q[..., None] + n
    terms = np.where(n < count[..., None], X ** -s, 0.0)
    # cumulative sums add in order of n, so padding zeros change no element
    direct = terms.cumsum(axis=-1)[..., -1] if n.size else 0.0
    # remainder coefficients c_k = B_2k / (2k)! (s)_(2k-1) and dc_k / ds
    c, dc = [], []
    rising, harmonic = s, 1.0 / s
    for k, b in enumerate(_EM_COEFFS[:p]):
        c.append(b * rising)
        dc.append(b * rising * harmonic)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
        harmonic += 1.0 / (s + 2 * k + 1) + 1.0 / (s + 2 * k + 2)
    x = q + count
    u, x_s = 1.0 / (x * x), x ** -s
    poly = np.polyval(c[::-1], u)
    z = direct + x_s * (x / (s - 1) + 0.5 + poly / x)
    if not with_log:
        return z, None
    log_x = np.log(x)
    direct = (terms * np.log(X)).cumsum(axis=-1)[..., -1] if n.size else 0.0
    rem = x * (log_x / (s - 1) + 1.0 / (s - 1) ** 2) + 0.5 * log_x \
        + (log_x * poly - np.polyval(dc[::-1], u)) / x
    return z, direct + x_s * rem


def _class_tail(s: float, N: int, q: np.ndarray, with_log: bool = False) -> np.ndarray:
    """Sum over a = a_first, a_first + N, ... of (a + y)^{-s}, or its
    -d/dbeta (for s = 2 beta + j) when log weights are requested."""
    z, z_log = _hurwitz(s, q, with_log)
    if not with_log:
        return N ** (-s) * z
    return 2 * N ** (-s) * (math.log(N) * z + z_log)


@lru_cache(maxsize=4)
def _class_geometry(N: int, K: int, m: int):
    """The beta-independent part of the class blocks at (N, K, m).

    Returns (ay, log_weight, R, q, d0, d0_2) over the padded layout of
    ``_class_magnitudes``: ay[a0 - 1, j, a] = a + y_j, log_weight = 2 log ay,
    R the barycentric rows at 1 / ay, zero past the class so that padding
    carries no weight, ``q[a0 - 1]`` the Hurwitz arguments of the class's
    tail, and d0, d0_2 the first rows of the differentiation matrix and of
    its square.  Every caller shares the arrays, so they are read-only.
    """
    y = _lobatto_nodes(m)
    weights = _bary_weights(m)
    D = _diff_matrix(y, weights)
    mags, valid, first = _class_magnitudes(N, K)
    ay = mags[:, None, :] + y[None, :, None]          # (N, npts, ceil(K / N))
    R = np.where(valid[:, None, :, None], _bary_rows(1.0 / ay, y, weights), 0.0)
    arrays = (ay, 2.0 * np.log(ay), R, (first[:, None] + y) / N, D[0], (D @ D)[0])
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class OperatorBlocks:
    """A collocation operator at one (t, beta), applied without forming it.

    Sign block k maps one sign half of x = [x+; x-] to the other: block 0
    is L[+, -] (sources (e, -1)), block 1 is L[-, +] (sources (e, +1)).
    In either block the residue-r edge family carries coset e to
    ``targets[e, r]``, a permutation of the cosets inverted by
    ``sources``, and its block is one class block for every e.
    ``stacks[k]`` holds those N class blocks of block k in residue order,
    each transposed, so block k of L gathers the scaled source cosets and
    multiplies once.  ``T`` is L.T, whose block k is block 1 - k of L
    transposed: it gathers by ``targets``, multiplies by the untransposed
    stack and scales the rows.
    """

    stacks: np.ndarray    # (2, N (m+1), m+1)
    scalars: np.ndarray   # (kappa,): exp((t|J(e))) per source coset e
    sources: np.ndarray   # (kappa, N), shared with the TransferOperator
    targets: np.ndarray   # (kappa, N), shared with the TransferOperator
    transposed: bool = False

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this handle owns: class blocks and scalars."""
        return self.stacks.nbytes + self.scalars.nbytes

    @property
    def T(self) -> "OperatorBlocks":
        """The transposed operator, sharing the index arrays."""
        two, rows, npts = self.stacks.shape
        swapped = self.stacks[::-1].reshape(two, rows // npts, npts, npts)
        return replace(self, stacks=swapped.transpose(0, 1, 3, 2).reshape(two, rows, npts),
                       transposed=not self.transposed)

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """Sign block k applied to x, one sign half of kappa (m+1) entries."""
        kappa = self.scalars.size
        X = x.reshape(kappa, -1)
        if self.transposed:
            gathered = X[self.targets].reshape(kappa, -1)
            return (self.scalars[:, None] * (gathered @ self.stacks[k])).ravel()
        gathered = (self.scalars[:, None] * X)[self.sources].reshape(kappa, -1)
        return (gathered @ self.stacks[k]).ravel()


class TransferOperator:
    """Chebyshev-collocation discretization at one level.

    Functions live on vertex x node as x = [x+; x-], each half with
    cosets in label order and the nodes of one coset contiguous.  The
    edge families come from ``level.table.action``; the block of an edge
    depends on its digit class only through the smallest magnitude
    a0 = abs(digit), so ``assemble`` builds the N class blocks and
    returns an ``OperatorBlocks`` that applies L from them.  Construction
    refuses, with ``OperatorTooLarge``, a level whose class geometry, class
    blocks and gather buffer would not fit in physical memory.
    """

    def __init__(self, level: LevelData, cfg: NumericsConfig):
        npts = cfg.collocation_degree + 1
        kappa, N, K = level.table.size, level.level, cfg.digit_cutoff
        # class blocks of both sign blocks, plus one kappa x N x (m+1) gather buffer
        blocks = 8 * N * npts * (2 * npts + kappa)
        # peak of _class_geometry: forming R, of N ceil(K/N) (m+1)^2 entries, holds
        # three float64 temporaries and a bool mask an entry, next to a few arrays
        # of N ceil(K/N) (m+1) points; 4 floats an entry and 8 a point bound both
        geometry = 8 * N * -(-K // N) * npts * (4 * npts + 8)
        need = blocks + geometry
        have = _physical_memory()
        if need > have:
            n = 2 * kappa * npts
            raise OperatorTooLarge(
                f"N={N}: L ({n}x{n} float64, applied matrix-free) needs {need} bytes, "
                f"{blocks} for its class blocks and gather buffer and {geometry} for "
                f"the class geometry at K={K}, physical memory is {have} bytes"
            )
        self.level = level
        self.cfg = cfg
        self.nodes = _lobatto_nodes(cfg.collocation_degree)
        self.targets, self.residue_class = level.table.action, _digit_classes(N)
        self.sources = np.empty_like(self.targets)
        self.sources[self.targets, np.arange(N)] = np.arange(kappa)[:, None]

    def _class_blocks(self, beta: float, with_log: bool) -> np.ndarray:
        """(N, m+1, m+1): the block of smallest magnitude a0 at index a0 - 1."""
        cfg = self.cfg
        N = self.level.level
        ay, log_weight, R, q, d0, d0_2 = _class_geometry(N, cfg.digit_cutoff,
                                                         cfg.collocation_degree)
        W = ay ** (-2.0 * beta)
        if with_log:
            W = W * log_weight
        blocks = np.einsum("cja,cjal->cjl", W, R)
        if cfg.tail_mode == "zeta-tail":
            # Taylor rows of the interpolant at the branch endpoint 0:
            # f(u) ~ f(0) + u f'(0) + u^2 f''(0) / 2
            s0 = 2.0 * beta
            blocks[:, :, 0] += _class_tail(s0, N, q, with_log)
            blocks += _class_tail(s0 + 1.0, N, q, with_log)[:, :, None] * d0
            blocks += _class_tail(s0 + 2.0, N, q, with_log)[:, :, None] * (d0_2 / 2.0)
        return blocks

    def assemble(self, t, beta: float, with_log: bool = False) -> OperatorBlocks:
        """L (or L_log) at (t, beta), as class blocks applied matrix-free."""
        if not 0.5 < beta < math.inf:  # NaN fails too
            raise BetaOutOfDomain(f"beta must lie in (1/2, inf), got {beta}")
        t = _as_t_vector(self.level, t)
        blocks = self._class_blocks(beta, with_log)
        npts = self.nodes.size
        stacks = blocks.transpose(0, 2, 1)[self.residue_class].reshape(2, -1, npts)
        return OperatorBlocks(stacks, _coset_scalars(self.level, t), self.sources, self.targets)

    def leading(self, S: OperatorBlocks):
        """Perron root lam and positive eigenvector h = [h+; h-] of the
        operator S; pass ``S.T`` for the left vector.

        Power iteration on S_0 S_1, the (+, +) block of S^2, then the
        lift h = [v; S_1 v / lam] of its vector v to an eigenvector of S.
        """
        tol = self.cfg.tolerance
        v = np.ones(self.level.table.size * self.nodes.size)
        lam2_old = 0.0
        for _ in range(5000):
            w = S.apply(0, S.apply(1, v))
            lam2 = w.max()
            if lam2 <= 0 or not np.isfinite(lam2):
                raise NoConvergence("iteration lost positivity")
            w /= lam2
            if abs(lam2 - lam2_old) <= tol * max(lam2, 1e-300) \
                    and np.abs(w - v).max() <= 100 * tol:
                lam = math.sqrt(lam2)
                return lam, np.concatenate([w, S.apply(1, w) / lam])
            lam2_old, v = lam2, w
        raise NoConvergence("power iteration cap reached")


def _apply(S: OperatorBlocks, x: np.ndarray) -> np.ndarray:
    """S @ x for x = [x+; x-]."""
    half = x.size // 2
    return np.concatenate([S.apply(0, x[half:]), S.apply(1, x[:half])])


def pressure_collocation(level: LevelData, t, beta: float,
                         cfg: NumericsConfig | None = None) -> PressureEstimate:
    """Pressure as log of the leading collocation eigenvalue."""
    cfg = cfg or NumericsConfig()
    op = TransferOperator(level, cfg)
    lam, _ = op.leading(op.assemble(t, beta))
    return PressureEstimate(math.log(lam), cfg.provenance("collocation", beta=beta))


@dataclass(frozen=True, eq=False)
class _PerronPair:
    """Leading eigen-data of L at one (t, beta).

    ``S`` and ``S_log`` are L and L_log = -dL/dbeta, ``lam`` the Perron
    root, ``h`` and ``nu`` the right and left Perron vectors scaled so
    that lam (nu | h) = 1, and ``mean_i`` = -dP/dbeta by first-order
    perturbation of lam.
    """

    beta: float
    S: OperatorBlocks
    S_log: OperatorBlocks
    lam: float
    h: np.ndarray
    nu: np.ndarray
    mean_i: float

    @classmethod
    def solve(cls, op: TransferOperator, beta: float, S: OperatorBlocks,
              S_log: OperatorBlocks) -> "_PerronPair":
        lam, h = op.leading(S)
        _, nu = op.leading(S.T)
        nu = nu / (lam * float(nu @ h))
        mean_i = float(nu @ _apply(S_log, h))
        if mean_i <= 0:
            raise NoConvergence("nonpositive expansion moment")
        return cls(beta, S, S_log, lam, h, nu, mean_i)

    @classmethod
    def at(cls, op: TransferOperator, t: np.ndarray, beta: float) -> "_PerronPair":
        return cls.solve(op, beta, op.assemble(t, beta), op.assemble(t, beta, with_log=True))

    def shifted(self, op: TransferOperator, t: np.ndarray) -> "_PerronPair":
        """The pair at (t, beta) for another t: only the coset scalars
        depend on t, so the class blocks are reused as they are."""
        scalars = _coset_scalars(op.level, t)
        return self.solve(op, self.beta, replace(self.S, scalars=scalars),
                          replace(self.S_log, scalars=scalars))

    def mean_j(self, level: LevelData) -> np.ndarray:
        """dP/dt: the averages of the homology potentials J_i."""
        npts = self.h.size // (2 * level.table.size)
        scales = (np.tile(np.repeat(j, npts), 2) for j in level.j_values.T)
        return np.array([float(self.nu @ _apply(self.S, scale * self.h)) for scale in scales])


def _root(op: TransferOperator, t: np.ndarray) -> _PerronPair:
    """Root of P(t, .) = 0 with its Perron pair, by Newton steps
    beta <- beta + P / mean_i from beta = 1.

    P is convex and decreasing in beta, and P(t, 1) >= P(0, 1) = 0 by
    convexity in t with mean_j(0) = 0, so the iterates climb to the root.
    Steps stop at ``BETA_MAX``; ``BracketFailure`` when the root lies
    beyond it.
    """
    cfg = op.cfg
    xtol = min(cfg.tolerance, 1e-9)
    ptol = 10 * max(cfg.tolerance, 1e-12)
    beta = 1.0
    evaluated: dict[float, float] = {}
    for _ in range(100):
        pair = _PerronPair.at(op, t, beta)
        P = evaluated[beta] = math.log(pair.lam)
        step = P / pair.mean_i
        if abs(step) <= xtol and abs(P) <= ptol:
            return pair
        if step > 0 and beta >= BETA_MAX:
            raise BracketFailure(f"no negative pressure up to beta={beta}: {evaluated}")
        beta = min(beta + step, BETA_MAX)
    raise BracketFailure(f"residual {P} too large at beta={pair.beta}")


def solve_beta(level: LevelData, t, cfg: NumericsConfig | None = None) -> float:
    """Root of P(t, .) = 0, by Newton steps on the Perron pair."""
    cfg = cfg or NumericsConfig()
    return _root(TransferOperator(level, cfg), _as_t_vector(level, t)).beta


def gibbs_moments(level: LevelData, t, cfg: NumericsConfig | None = None) -> GibbsMoments:
    """Stationary averages of the two potentials at (t, beta_G(t)).

    Computed from the left/right Perron vectors at the root by
    first-order perturbation of the leading eigenvalue, then checked
    against finite differences of the pressure (``MomentCheckError``
    when they disagree).
    """
    cfg = cfg or NumericsConfig()
    t = _as_t_vector(level, t)
    root = _root(TransferOperator(level, cfg), t)
    mean_j = root.mean_j(level)
    _check_moments(level, t, root, cfg, mean_j)
    return GibbsMoments(mean_j, root.mean_i, mean_j / root.mean_i, root.beta,
                        cfg.provenance("collocation-moments", beta=root.beta))


def _check_moments(level, t, root, cfg, mean_j):
    h = 1e-4
    tol = max(10 * cfg.tolerance, 1e-6)
    beta, mean_i = root.beta, root.mean_i
    # a central difference turns a stopping error eps of each pressure into
    # eps / h in the derivative, so these pressures are solved to h * tol / 10
    fd_cfg = replace(cfg, tolerance=min(cfg.tolerance, h * tol / 10))
    fd_op = TransferOperator(level, fd_cfg)

    def P_of_beta(bv):
        return math.log(fd_op.leading(fd_op.assemble(t, bv))[0])

    def P_of_t(tv):
        # only the coset scalars depend on t: reuse the class blocks at the root
        return math.log(fd_op.leading(replace(root.S, scalars=_coset_scalars(level, tv)))[0])

    dPdb = (P_of_beta(beta + h) - P_of_beta(beta - h)) / (2 * h)
    if abs(-dPdb - mean_i) > tol * max(1.0, mean_i):
        raise MomentCheckError(
            f"d_beta P = {dPdb} vs -mean_i = {-mean_i} beyond tolerance {tol}"
        )
    for i in range(level.two_g):
        step = np.zeros(level.two_g)
        step[i] = h
        dPdt = (P_of_t(t + step) - P_of_t(t - step)) / (2 * h)
        if abs(dPdt - mean_j[i]) > tol * max(1.0, abs(mean_j[i])):
            raise MomentCheckError(
                f"d_t{i} P = {dPdt} vs mean_j = {mean_j[i]} beyond tolerance {tol}"
            )


# ---------------------------------------------------------------------------
# cylinder partition sums


def _enumerate_partition_sums(level: LevelData, t, beta, cfg) -> list[float]:
    """Z_1..Z_n by explicit word enumeration with periodic-point weights."""
    t = _as_t_vector(level, t)
    N, K, n = level.level, cfg.digit_cutoff, cfg.cylinder_depth
    action = level.table.action.tolist()
    tJ = level.j_values @ t if level.two_g else np.zeros(len(action))
    z = [0.0] * (n + 1)

    def weight(matrix, depth, sum_tj):
        return math.exp(sum_tj - beta * _periodic_log_expansion(*matrix, depth))

    def descend(e, next_digit_sign_options, matrix, depth, sum_tj):
        if depth == n:
            return
        a, b, c, d = matrix
        row = action[e]
        for sign in next_digit_sign_options:
            for mag in range(1, K + 1):
                k = sign * mag
                # multiply by S*T^k = [[0,-1],[1,k]]
                new = (b, -a + k * b, d, -c + k * d)
                e_next = row[k % N]
                z[depth + 1] += weight(new, depth + 1, sum_tj + tJ[e])
                descend(e_next, (-sign,), new, depth + 1, sum_tj + tJ[e])

    for e in range(len(action)):
        descend(e, (1, -1), (1, 0, 0, 1), 0, 0.0)
    return z[1:]


def _grid_partition_sums(level: LevelData, t, beta, cfg) -> list[float]:
    """Z_1..Z_n by depth-iterating cylinder sums on a uniform grid.

    The edge families come from ``level.table.action`` and the digit
    classes from ``_class_magnitudes``.  Tail evaluation happens at the
    branch endpoint (grid value 0); a zeta tail with a linear interpolant
    correction is applied when the configuration asks for it.  Refuses,
    with ``OperatorTooLarge``, a grid that would not fit in physical memory.
    """
    t = _as_t_vector(level, t)
    N, K = level.level, cfg.digit_cutoff
    G = 1025  # uniform grid points
    # peak: 8 float64 K x G arrays (branch weights and their temporaries), F and F_new
    need, have = 8 * G * (8 * N * -(-K // N) + 4 * level.table.size), _physical_memory()
    if need > have:
        raise OperatorTooLarge(f"N={N}: the cylinder grid ({G} points, digits up to K={K}) "
                               f"needs {need} bytes, physical memory is {have} bytes")
    y = np.linspace(0.0, 1.0, G)
    dy = y[1] - y[0]
    scalars = _coset_scalars(level, t)

    # per digit class: branch weights with interp indices and fractions,
    # and the zeta-tail coefficients of f(0) and f'(0)
    per_class = []
    for mags, valid, first in zip(*_class_magnitudes(N, K)):
        branch = tail = None
        if valid[0]:
            ay = mags[valid][:, None] + y[None, :]
            pos = 1.0 / ay / dy
            idx = np.minimum(pos.astype(int), G - 2)
            branch = (ay ** (-2.0 * beta), idx, pos - idx)
        if cfg.tail_mode == "zeta-tail":
            q = (first + y) / N
            tail = (_class_tail(2.0 * beta, N, q), _class_tail(2.0 * beta + 1.0, N, q))
        per_class.append((branch, tail))

    targets, classes = level.table.action.tolist(), _digit_classes(N).tolist()
    # F[e, b] on coset e with sign +1 (b = 0) or -1 (b = 1); the digits
    # leaving it have the other sign, those of sign block k = 1 - b
    F = np.ones((len(targets), 2, G))
    zs = []
    for _ in range(cfg.cylinder_depth):
        F_new = np.zeros_like(F)
        for e, row in enumerate(targets):
            for b, k in ((0, 1), (1, 0)):
                f = F[e, b]
                for dst, c in zip(row, classes[k]):
                    branch, tail = per_class[c]
                    contrib = np.zeros(G)
                    if branch is not None:
                        W, idx, frac = branch
                        contrib += (W * (f[idx] * (1 - frac) + f[idx + 1] * frac)).sum(axis=0)
                    if tail is not None:
                        t0, t1 = tail
                        contrib += t0 * f[0] + t1 * ((f[1] - f[0]) / dy)
                    F_new[dst, k] += scalars[e] * contrib
        F = F_new
        zs.append(float(F[:, :, 0].sum()))
    return zs


def pressure_cylinder(level: LevelData, t, beta: float,
                      cfg: NumericsConfig | None = None) -> PressureEstimate:
    """Finite-depth cylinder-sum estimate of the pressure.

    The reported value is the quotient estimate log(Z_n / Z_{n-1}),
    which agrees with (1/n) log Z_n at depth 1 and converges to the
    same limit without the subexponential prefactor; the raw quantity
    is recorded in the provenance.  Exact per-word enumeration is used
    when the admissible word count is at most ``ENUM_LIMIT``, otherwise
    the grid iteration takes over.
    """
    cfg = cfg or NumericsConfig()
    if not 0.5 < beta < math.inf:  # NaN fails too
        raise BetaOutOfDomain(f"beta must lie in (1/2, inf), got {beta}")
    n = cfg.cylinder_depth
    if 2 * level.table.size * cfg.digit_cutoff ** n <= ENUM_LIMIT:
        mode, zs = "enumerate", _enumerate_partition_sums(level, t, beta, cfg)
    else:
        mode, zs = "grid", _grid_partition_sums(level, t, beta, cfg)
    raw = math.log(zs[-1]) / n
    value = math.log(zs[-1]) - (math.log(zs[-2]) if n > 1 else 0.0)
    prov = cfg.provenance("cylinder-" + mode, beta=beta,
                          raw_rate=raw, partition_sums=zs)
    return PressureEstimate(value, prov)


def beta_hessian(level: LevelData, t, cfg: NumericsConfig | None = None) -> np.ndarray:
    """Hessian of beta_G at t, by implicit differentiation of P(t, beta_G(t)) = 0."""
    cfg = cfg or NumericsConfig()
    return _beta_hessian(level, _as_t_vector(level, t), solve_beta(level, t, cfg), cfg)


def _beta_hessian(level: LevelData, t: np.ndarray, beta: float,
                  cfg: NumericsConfig) -> np.ndarray:
    """Hessian of beta_G at t, given beta = beta_G(t).

    With P_beta = -mean_i and alpha = grad beta_G,
    H = (P_tt + P_tbeta alpha^T + alpha P_tbeta^T + P_betabeta alpha alpha^T) / mean_i.
    The second derivatives of P are central differences of the moments
    at fixed beta: P_tt of mean_j and P_tbeta = -d mean_i / dt at t +- d e_k,
    whose operators differ from the one at t only in their coset scalars,
    and P_betabeta = -d mean_i / dbeta from one pair at beta +- d.
    """
    d = 1e-3  # truncation error about 4e-8 at N=11; the moments' stopping error grows by 1/d
    op = TransferOperator(level, cfg)
    pair = _PerronPair.at(op, t, beta)
    alpha = pair.mean_j(level) / pair.mean_i
    P_tt = np.zeros((level.two_g, level.two_g))
    P_tb = np.zeros(level.two_g)
    for k in range(level.two_g):
        step = np.zeros(level.two_g)
        step[k] = d
        plus, minus = pair.shifted(op, t + step), pair.shifted(op, t - step)
        P_tt[:, k] = (plus.mean_j(level) - minus.mean_j(level)) / (2 * d)
        P_tb[k] = -(plus.mean_i - minus.mean_i) / (2 * d)
    plus, minus = _PerronPair.at(op, t, beta + d), _PerronPair.at(op, t, beta - d)
    P_bb = -(plus.mean_i - minus.mean_i) / (2 * d)
    H = (P_tt + np.outer(P_tb, alpha) + np.outer(alpha, P_tb) + P_bb * np.outer(alpha, alpha)) \
        / pair.mean_i
    return (H + H.T) / 2.0
