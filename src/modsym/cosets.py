"""Coset space of Gamma_0(N) in PSL2(Z) via the projective line over Z/N.

A coset is named by the canonical form of the bottom row (c : d) of any
representative matrix; two matrices lie in the same coset exactly when
their bottom rows agree projectively mod N.  The table also holds the
digit action tau_r, one read-only array, and the level's invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .psl2 import MoebiusMatrix


class LevelZero(ValueError):
    """Level N must be a positive integer."""


class ZeroDigit(ValueError):
    """tau_k is undefined for k = 0."""


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class SubgroupInvariants:
    """Index, elliptic counts, cusp count and genus of Gamma_0(N)."""

    level: int
    kappa: int
    n2: int
    n3: int
    n_inf: int
    genus: int

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "kappa": self.kappa,
            "n2": self.n2,
            "n3": self.n3,
            "nInf": self.n_inf,
            "genus": self.genus,
        }


def subgroup_invariants(N: int) -> SubgroupInvariants:
    """Evaluate the closed-form invariants of Gamma_0(N)."""
    if N <= 0:
        raise LevelZero(f"level must be positive, got {N}")
    primes = _prime_factors(N)

    kappa = N
    for p in primes:
        kappa = kappa // p * (p + 1)

    if N % 4 == 0:
        n2 = 0
    else:
        n2 = 1
        for p in primes:
            if p == 2:
                sym = 0
            elif p % 4 == 1:
                sym = 1
            else:
                sym = -1
            n2 *= 1 + sym

    if N % 9 == 0:
        n3 = 0
    else:
        n3 = 1
        for p in primes:
            if p == 3:
                sym = 0
            elif p % 3 == 1:
                sym = 1
            else:
                sym = -1
            n3 *= 1 + sym

    n_inf = 0
    for d in range(1, N + 1):
        if N % d == 0:
            n_inf += _euler_phi(gcd(d, N // d))

    # Riemann-Roch combination; always an integer for Gamma_0(N).
    genus_times_12 = 12 + kappa - 3 * n2 - 4 * n3 - 6 * n_inf
    if genus_times_12 % 12 != 0:
        raise AssertionError(f"non-integer genus for N={N}")
    genus = genus_times_12 // 12
    if genus < 0:
        raise AssertionError(f"negative genus for N={N}")
    return SubgroupInvariants(N, kappa, n2, n3, n_inf, genus)


class CosetTable:
    """Indexed enumeration of P^1(Z/N) with the tau-action.

    Representatives are the lexicographically least unit-scalar multiple
    of each projective point, listed in lexicographic order, so the
    basis seen by downstream homology is deterministic.
    """

    def __init__(self, N: int):
        if N <= 0:
            raise LevelZero(f"level must be positive, got {N}")
        self.level = N
        self.invariants = subgroup_invariants(N)
        self._canon: dict[tuple[int, int], int] = {}
        self.reps: list[tuple[int, int]] = []

        units = [u for u in range(1, N) if gcd(u, N) == 1] or [0]
        if N == 1:
            self.reps = [(0, 0)]
            self._canon[(0, 0)] = 0
        else:
            canon = self._canon
            for c in range(N):
                for d in range(N):
                    if (c, d) in canon:
                        continue
                    if gcd(gcd(c, d), N) != 1:
                        canon[(c, d)] = -1
                        continue
                    # lexicographic scan order makes (c, d) the orbit rep
                    idx = len(self.reps)
                    self.reps.append((c, d))
                    for u in units:
                        canon[((u * c) % N, (u * d) % N)] = idx
        if len(self.reps) != self.invariants.kappa:
            raise AssertionError(
                f"P1 enumeration size {len(self.reps)} != index {self.invariants.kappa}"
            )

    @property
    def size(self) -> int:
        return len(self.reps)

    def label_of_row(self, c: int, d: int) -> int:
        """Coset label of the projective point (c : d)."""
        N = self.level
        if N == 1:
            return 0
        idx = self._canon.get((c % N, d % N), -1)
        if idx < 0:
            raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
        return idx

    def coset_of(self, m: MoebiusMatrix) -> int:
        """Label of the coset Gamma_0(N) * m, read off the bottom row."""
        return self.label_of_row(m.c, m.d)

    def identity_label(self) -> int:
        return self.label_of_row(0, 1)

    def check_label(self, e: int) -> int:
        """e, or ValueError when it is not a coset label of this level."""
        if not 0 <= e < len(self.reps):
            raise ValueError(f"coset label {e} out of range for level {self.level}")
        return e

    def _tau_row(self, e: int, digits) -> list[int]:
        """tau_k(e) for each digit k: the label of (d : k*d - c), where (c : d) is rep(e)."""
        c, d = self.reps[e]
        return [self.label_of_row(d, k * d - c) for k in digits]

    @cached_property
    def action(self) -> np.ndarray:
        """The digit action as one read-only (kappa, N) array: ``action[e, r]``
        is tau_r(e), the label of e * S * T^k for every digit k = r mod N."""
        action = np.array([self._tau_row(e, range(self.level)) for e in range(self.size)],
                          dtype=np.int64)
        action.flags.writeable = False
        return action

    def tau(self, k: int, e: int) -> int:
        """Coset action of the digit k: label of e * S * T^k."""
        if k == 0:
            raise ZeroDigit("tau is undefined for digit 0")
        return self._tau_row(self.check_label(e), (k,))[0]

    def right_translate(self, e: int, m: MoebiusMatrix) -> int:
        """Label of rep(e) * m, computed on bottom rows mod N."""
        c, d = self.reps[e]
        return self.label_of_row(c * m.a + d * m.c, c * m.b + d * m.d)

    def to_json_dict(self) -> dict:
        return {
            "N": self.level,
            "reps": [list(r) for r in self.reps],
            "invariants": self.invariants.as_dict(),
        }

