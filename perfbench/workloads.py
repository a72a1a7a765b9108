"""The benchmark's workloads: inputs drawn from a seed, timed calls, checks.

Every call into modsym goes through a module attribute (``thermo.gibbs_moments``
and so on) at call time, so a traced run sees the wrapped entry points.
A round is a fixed list of operations; ``Run.call`` times each one and
counts it as failed if it raises.  Checks run between operations, outside
the timed calls, and compare against ``oracles`` or against properties the
method must have.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracles
from modsym import homology, shiftspace, spectrum, thermo
from modsym.cosets import CosetTable


@dataclass
class Run:
    """Timed operations and failed checks of one benchmark run."""

    ops: list = field(default_factory=list)      # (kind, seconds, ok)
    rounds: list = field(default_factory=list)   # seconds of each round's operations
    problems: list = field(default_factory=list)  # failed checks
    errors: list = field(default_factory=list)    # failed operations

    def call(self, kind: str, fn, *args):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            self.ops.append((kind, time.perf_counter() - t0, False))
            self.errors.append(f"{kind} raised {type(exc).__name__}: {exc}")
            return None
        self.ops.append((kind, time.perf_counter() - t0, True))
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def times(self, kind: str) -> list[float]:
        return [s for k, s, ok in self.ops if k == kind and ok]


# Collocation settings of the thermo workloads.  At the default power-iteration
# tolerance 1e-8 the finite-difference self-check of ``gibbs_moments`` fails at
# about one t in 300 (its step 1e-4 turns the stopping error into ~1e-5 against
# a 1e-6 check); at 1e-11 that error is ~1e-8.
NUMERICS = thermo.NumericsConfig(tolerance=1e-11)


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# spectrum-sweep


class SpectrumSweep:
    """Forward spectrum points at N=11 on seeded +-t lines, plus a Legendre inversion."""

    name = "spectrum-sweep"
    main_op = "spectrum_point"
    min_main_ops = 40
    # At the default tolerance this t fails the moment self-check on every
    # run; it is kept as one known-failing operation per round.
    KNOWN_FAILING_T = (-0.11925892693418495, -0.058193400617569106)

    def __init__(self, directions: int = 2):
        self.directions = directions

    def setup(self):
        self.level = thermo.build_level_data(11)
        self.cfg = NUMERICS

    def round(self, rng, run: Run) -> None:
        level, cfg = self.level, self.cfg
        two_g = level.two_g

        def point(t):
            return run.call("spectrum_point", spectrum.spectrum_point, level, t, cfg)

        origin = point(np.zeros(two_g))
        if origin is not None:
            run.check(abs(origin.beta - 1.0) <= 1e-6, f"beta(0) = {origin.beta!r}, not 1")
        base = rng.uniform(0.0, math.pi / self.directions)
        lines = []
        for k in range(self.directions):
            angle = base + k * math.pi / self.directions
            u = np.array([math.cos(angle), math.sin(angle)] + [0.0] * (two_g - 2))
            s1, s2 = rng.uniform(0.05, 0.1), rng.uniform(0.15, 0.25)
            lines.append((u, [point(s * u) if s else origin for s in (-s2, -s1, 0, s1, s2)]))
        run.call("known_failing_point", spectrum.spectrum_point, level,
                 np.array(self.KNOWN_FAILING_T), thermo.NumericsConfig())
        target = lines[int(rng.integers(len(lines)))][1][3]    # the +s1 point
        if target is not None:
            inv = run.call("legendre", spectrum.legendre, level, target.alpha, cfg)
            if inv is not None:
                check_inversion(run, target, inv)
        for u, pts in lines:
            if None not in pts:
                check_line(run, u, pts)


def check_inversion(run: Run, target, inv) -> None:
    err = float(np.abs(inv.t - target.t).max())
    run.check(err <= 1e-3, f"legendre recovered t={inv.t} for t={target.t}")
    dual = abs(inv.dimension - (target.beta - float(target.t @ target.alpha)))
    run.check(dual <= 1e-6, f"duality residual {dual:.2e} at t={target.t}")


def check_line(run: Run, u, pts) -> None:
    """Points at s = -s2, -s1, 0, s1, s2 along the direction u."""
    for p, q in zip(pts, pts[::-1]):
        check_mirror(run, p.t, p, q)
    for p, q in zip(pts, pts[1:]):
        # grad beta_G = alpha, integrated by the trapezoid rule over [t, t']
        dt = q.t - p.t
        gap = (q.beta - p.beta) - 0.5 * float((p.alpha + q.alpha) @ dt)
        h = float(np.linalg.norm(dt))
        run.check(abs(gap) <= 1e-8 + 2e-3 * h ** 3,
                  f"beta increment off grad = alpha by {gap:.2e} on [{p.t}, {q.t}]")
    dims = np.array([p.dimension for p in pts])
    a = np.array([float(p.alpha @ u) for p in pts])
    run.check(bool(np.all(dims <= 1 + 1e-8)), f"dimension above 1 along {u}: {dims.max()!r}")
    run.check(int(np.argmax(dims)) == int(np.argmin(np.abs(a))),
              f"dimension maximum not at the alpha nearest 0 along {u}")
    slopes = np.diff(dims) / np.diff(a)
    run.check(bool(np.all(np.diff(slopes) <= 1e-9)), f"dimension not concave in alpha along {u}")


def check_mirror(run: Run, t, p, q) -> None:
    """beta_G(-t) = beta_G(t) and alpha(-t) = -alpha(t), for results p at t and q at -t."""
    run.check(abs(p.beta - q.beta) <= 1e-7,
              f"beta(t)={p.beta!r} but beta(-t)={q.beta!r} at t={t}")
    run.check(float(np.abs(p.alpha + q.alpha).max()) <= 1e-6,
              f"alpha(-t) != -alpha(t) at t={t}")


# ---------------------------------------------------------------------------
# moments-wide


class MomentsWide:
    """Gibbs moments with the self-check at genus 4 (N=47, 2400x2400 operator)."""

    name = "moments-wide"
    main_op = "gibbs_moments"
    min_main_ops = 1

    def __init__(self, level: int = 47, covering_betas: int = 3):
        self.level_n = level
        self.covering_betas = covering_betas

    def setup(self):
        self.level = thermo.build_level_data(self.level_n)
        self.base = thermo.build_level_data(1)
        self.cfg = NUMERICS

    def round(self, rng, run: Run) -> None:
        level, cfg = self.level, self.cfg
        at0 = run.call("gibbs_moments", thermo.gibbs_moments, level, np.zeros(level.two_g), cfg)
        if at0 is not None:
            run.check(abs(at0.beta - 1.0) <= 1e-6, f"beta(0) = {at0.beta!r}, not 1")
            run.check(float(np.abs(at0.alpha).max()) <= 1e-6, f"alpha(0) = {at0.alpha}")
            run.check(abs(at0.mean_i - oracles.GAUSS_LYAPUNOV) <= 1e-6,
                      f"mean_I(0) = {at0.mean_i!r}, not pi^2/(6 ln 2)")
        t = rng.uniform(0.02, 0.05) * _unit(rng, level.two_g)
        plus, minus = (run.call("gibbs_moments", thermo.gibbs_moments, level, tv, cfg)
                       for tv in (t, -t))
        if plus is not None and minus is not None:
            check_mirror(run, t, plus, minus)
        # the zero potential lifted to the N-fold cover keeps its pressure
        for beta in map(float, rng.uniform(0.7, 1.6, self.covering_betas)):
            wide = run.call("pressure", thermo.pressure_collocation,
                            level, np.zeros(level.two_g), beta, cfg)
            base = run.call("pressure", thermo.pressure_collocation, self.base, [], beta, cfg)
            if wide is not None and base is not None:
                run.check(abs(wide.value - base.value) <= 1e-9,
                          f"P_{level.level}(0,{beta}) = {wide.value!r} "
                          f"but P_1(0,{beta}) = {base.value!r}")


# ---------------------------------------------------------------------------
# exact-levels


class ExactLevels:
    """The exact pipeline at prime and composite levels with kappa from 102 to 360."""

    name = "exact-levels"
    main_op = "level"
    # Three rounds of three levels: the median is then the middle one of the
    # three N=199 samples, taken a round apart.
    min_main_ops = 9
    LEVELS = (101, 199, 150)   # kappa 102, 200, 360

    def __init__(self, levels=LEVELS, witness_sample: int = 64):
        self.levels = levels
        self.witness_sample = witness_sample

    def setup(self):
        pass

    @staticmethod
    def pipeline(N: int, e1: int, magnitude: int):
        table = CosetTable(N)
        report = shiftspace.check_finitely_irreducible(shiftspace.build_graph(table))
        hom = homology.build_homology(table)
        j = np.array([[float(c) for c in v] for v in hom.classes]).reshape(table.size, -1)
        level = thermo.LevelData(table, hom, j)
        word = spectrum.coset_cycle_word(level, e1 % table.size, magnitude)
        return level, report, spectrum.limiting_symbol_periodic(level, word)

    def round(self, rng, run: Run) -> None:
        for N in self.levels:
            e1, magnitude = int(rng.integers(1 << 30)), int(rng.integers(1, 4))
            out = run.call("level", self.pipeline, N, e1, magnitude)
            if out is not None:
                check_level(run, N, *out, e1, magnitude, rng, self.witness_sample)
            # one level's witness words alive at a time, as for a caller of one level
            del out


def check_level(run: Run, N, level, report, periodic, e1, magnitude, rng,
                witness_sample) -> None:
    table, hom = level.table, level.homology
    inv = oracles.gamma0_invariants(N)
    g2 = 2 * inv["genus"]
    run.check(table.size == inv["kappa"], f"N={N}: {table.size} cosets, index {inv['kappa']}")
    run.check(hom.presentation.dimension == g2 + inv["n_inf"] - 1,
              f"N={N}: relative dimension {hom.presentation.dimension}")
    run.check(hom.cuspidal.dimension == g2, f"N={N}: cuspidal dimension {hom.cuspidal.dimension}")
    rows = oracles.BottomRows(N, table.reps)
    run.check(rows.is_projective_line(), f"N={N}: representatives are not P^1(Z/N)")

    classes = hom.classes
    zero = (Fraction(0),) * g2

    def add(*vs):
        return tuple(sum(cs, Fraction(0)) for cs in zip(*vs))

    run.check(add(*classes) == zero, f"N={N}: symbol classes do not sum to zero")
    for e in range(table.size):
        st = rows.st(e)
        if add(classes[e], classes[rows.s(e)]) != zero:
            run.check(False, f"N={N}: 2-term relation fails at coset {e}")
            break
        if add(classes[e], classes[st], classes[rows.st(st)]) != zero:
            run.check(False, f"N={N}: 3-term relation fails at coset {e}")
            break

    run.check(report.irreducible and oracles.strongly_connected(rows),
              f"N={N}: transition graph not strongly connected")
    V = 2 * table.size
    for _ in range(witness_sample):
        src, dst = int(rng.integers(V)), int(rng.integers(V))
        word = report.witnesses.get((src, dst))
        if word is None or not oracles.replays(rows, src, dst, word.entries):
            run.check(False, f"N={N}: witness {src}->{dst} does not replay")
            break

    word = list(periodic.word.entries)
    e1 %= table.size
    run.check(word == oracles.cycle_word(rows, e1, magnitude),
              f"N={N}: cycle word from coset {e1} differs from the digit action")
    run.check(periodic.numerator == add(*(classes[e] for _, e in word)),
              f"N={N}: periodic numerator is not the class sum along the word")
    denom = oracles.trace_denominator([d for d, _ in word])
    run.check(abs(periodic.denominator - denom) <= 1e-9,
              f"N={N}: periodic denominator {periodic.denominator!r}, trace formula {denom!r}")


WORKLOADS = {w.name: w for w in (SpectrumSweep, MomentsWide, ExactLevels)}
