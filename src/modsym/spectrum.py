"""Multifractal spectrum via the Legendre transform of beta_G.

Forward direction: sweep the parameter t, solve the pressure equation
for beta_G(t) and read off the Gibbs direction alpha(t); each sample is
one point (alpha, beta - (t | alpha)) on the spectrum graph.  Inverse
direction: given a target alpha, a damped Newton iteration on
alpha(t) = alpha recovers the critical t.  The module also evaluates
the limiting homology symbol on periodic words exactly in the numerator
and through the hyperbolic trace formula in the denominator, plus
finite-orbit partial sums for convergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contfrac import CFInput, SignedWord, SymbolSequence, encode_orbit
from .psl2 import convergents
from .thermo import (
    BetaOutOfDomain,
    BracketFailure,
    LevelData,
    MomentCheckError,
    NoConvergence,
    NumericsConfig,
    _as_t_vector,
    _beta_hessian,
    gibbs_moments,
    potential_I_on_cylinder,
)

# Failures of the numerics at one t: a sweep records them per point and
# Newton damps its step on them; anything else is a caller's error.
NUMERIC_FAILURES = (BetaOutOfDomain, BracketFailure, NoConvergence, MomentCheckError)


class AlphaOutOfRange(ValueError):
    """Target alpha not attained by any Gibbs direction alpha(t)."""


class NotCyclic(ValueError):
    """Word cannot be repeated admissibly (sign or coset mismatch at the wrap)."""


class OddPeriod(NotCyclic):
    """Odd-length words cannot alternate in sign across the wrap."""


@dataclass
class SpectrumPoint:
    t: np.ndarray
    alpha: np.ndarray
    beta: float
    dimension: float


@dataclass
class PeriodicSymbolValue:
    """Limiting symbol of the periodic orbit of a cyclic decorated word."""

    word: SymbolSequence
    numerator: tuple[int, ...]        # exact per-period homology sum
    denominator: float                # per-period expansion sum, 2 log(lambda)
    value: np.ndarray


def spectrum_point(level: LevelData, t, cfg: NumericsConfig | None = None) -> SpectrumPoint:
    t = _as_t_vector(level, t)
    mom = gibbs_moments(level, t, cfg)
    dim = mom.beta - float(t @ mom.alpha)
    return SpectrumPoint(t, mom.alpha, mom.beta, dim)


def spectrum_curve(level: LevelData, t_grid, cfg: NumericsConfig | None = None):
    """Spectrum samples over a sequence of t vectors.

    Numeric failures (``NUMERIC_FAILURES``) at a node are collected
    instead of aborting the sweep; returns (points, errors) with errors
    keyed by grid position.  Any other exception, such as a t of the
    wrong length, propagates.
    """
    points: list[SpectrumPoint] = []
    errors: dict[int, Exception] = {}
    for i, t in enumerate(t_grid):
        try:
            points.append(spectrum_point(level, t, cfg))
        except NUMERIC_FAILURES as exc:
            errors[i] = exc
    return points, errors


def legendre(level: LevelData, alpha, cfg: NumericsConfig | None = None) -> SpectrumPoint:
    """Spectrum value at a prescribed alpha, by Newton on alpha(t) = alpha.

    Since alpha = grad beta_G, the Jacobian of alpha(t) is the Hessian of
    beta_G, positive definite in the interior of the spectrum, so Newton
    steps with step halving converge from t = 0 for attainable targets.
    """
    tol = 1e-6
    t_bound = 25.0
    max_iter = 40
    cfg = cfg or NumericsConfig()
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (level.two_g,):
        raise ValueError(f"alpha must have length {level.two_g}")
    t = np.zeros(level.two_g)
    mom = gibbs_moments(level, t, cfg)
    if level.two_g == 0:
        return SpectrumPoint(t, mom.alpha, mom.beta, mom.beta)

    resid = mom.alpha - alpha
    for _ in range(max_iter):
        if np.abs(resid).max() <= tol:
            dim = mom.beta - float(t @ alpha)
            return SpectrumPoint(t, mom.alpha, mom.beta, dim)
        try:
            delta = np.linalg.solve(_beta_hessian(level, t, mom.beta, cfg), -resid)
        except np.linalg.LinAlgError as exc:
            raise AlphaOutOfRange(f"degenerate alpha Jacobian at t={t}") from exc
        lam = 1.0
        improved = False
        while lam >= 1.0 / 32.0:
            t_new = t + lam * delta
            if np.abs(t_new).max() > t_bound:
                lam /= 2.0
                continue
            try:
                mom_new = gibbs_moments(level, t_new, cfg)
            except NUMERIC_FAILURES:
                # stepped outside the numerically tractable region: damp
                lam /= 2.0
                continue
            resid_new = mom_new.alpha - alpha
            if np.abs(resid_new).max() < np.abs(resid).max():
                t, mom, resid = t_new, mom_new, resid_new
                improved = True
                break
            lam /= 2.0
        if not improved:
            raise AlphaOutOfRange(
                f"Newton stalled at t={t}, residual {np.abs(resid).max():.3e}; "
                "alpha is outside the attainable range"
            )
    raise AlphaOutOfRange(f"no convergence to alpha={alpha} in {max_iter} steps")


def check_cyclic(level: LevelData, word: SymbolSequence) -> None:
    """Raise unless the decorated word repeats admissibly."""
    entries = word.entries
    if not entries:
        raise NotCyclic("empty word")
    if len(entries) % 2 == 1:
        raise OddPeriod(f"period length {len(entries)} is odd")
    table = level.table
    for (d1, e1), (d2, e2) in zip(entries, entries[1:] + entries[:1]):
        if d1 == 0 or d1 * d2 >= 0:
            raise NotCyclic(f"signs fail to alternate at digit {d1} -> {d2}")
        if table.tau(d1, e1) != e2:
            raise NotCyclic(
                f"coset decoration breaks: tau_{d1}({e1}) != {e2}"
            )


def limiting_symbol_periodic(level: LevelData,
                             word: SymbolSequence) -> PeriodicSymbolValue:
    """Limiting symbol on the periodic orbit of a cyclic decorated word.

    Numerator: exact sum of the cuspidal classes along the period.
    Denominator: per-period Birkhoff sum of the expansion potential,
    i.e. twice the log of the leading eigenvalue of the period matrix.
    """
    check_cyclic(level, word)
    dims = level.two_g
    numer = [0] * dims
    for _, e in word.entries:
        cls = level.homology.classes[e]
        for i in range(dims):
            numer[i] += cls[i]
    denom = potential_I_on_cylinder(word.word())
    value = np.array(numer, dtype=float) / denom
    return PeriodicSymbolValue(word, tuple(numer), denom, value)


def birkhoff_partial(level: LevelData, x: CFInput, e1: int, n: int,
                     normalizer: str = "cylinder") -> np.ndarray:
    """Partial limiting-symbol quotient after n orbit steps.

    ``normalizer="cylinder"`` divides by the periodic-point Birkhoff sum
    of the length-n prefix cylinder; ``"convergent"`` divides by
    2 log q_n, the denominator growth of the continued fraction, which
    tracks the actual orbit at O(1/n) accuracy.
    """
    word = encode_orbit(level.table, x, e1, n)
    if word.terminated or len(word) < n:
        raise ValueError(f"orbit of {x} leaves the shift space before step {n}")
    dims = level.two_g
    numer = np.zeros(dims)
    for _, e in word.entries:
        numer += level.j_values[e]
    if normalizer == "cylinder":
        denom = potential_I_on_cylinder(word.word())
    elif normalizer == "convergent":
        mags = list(word.word().magnitudes())
        _, q_n = convergents(mags)[-1]
        denom = 2.0 * float(np.log(float(q_n)))
    else:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    return numer / denom


def coset_cycle_word(level: LevelData, e1: int, magnitude: int = 1) -> SymbolSequence:
    """Shortest cyclic decorated word of constant digit magnitude from e1.

    Starts with a negative digit and follows (e, sign) until the starting
    state recurs; the period is automatically even because the sign flips
    every step.
    """
    if magnitude < 1:
        raise ValueError("digit magnitude must be positive")
    table = level.table
    entries = []
    e, sign = e1, -1
    while True:
        d = sign * magnitude
        entries.append((d, e))
        e = table.tau(d, e)
        sign = -sign
        if (e, sign) == (e1, -1):
            break
    word = SymbolSequence(tuple(entries))
    check_cyclic(level, word)
    return word
