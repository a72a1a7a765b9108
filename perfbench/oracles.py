"""Reference values computed without modsym.

Nothing here imports the package under test: the Gamma_0(N) invariants
come from this file's own factorisation and Legendre symbols, the coset
actions from bottom rows of PSL2(Z) matrices, and the periodic-orbit
denominator from mpmath at 40 digits.
"""

from __future__ import annotations

import math
from math import gcd

import mpmath

# Lyapunov exponent of the Gauss map, the expansion moment of the
# Gauss measure: integral of -2 log x d(mu_Gauss) = pi^2 / (6 ln 2).
GAUSS_LYAPUNOV = math.pi ** 2 / (6.0 * math.log(2.0))


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def gamma0_invariants(N: int) -> dict:
    """Index kappa, elliptic counts n2 and n3, cusp count n_inf and genus g."""
    primes = prime_factors(N)
    kappa = N
    for p in primes:
        kappa = kappa // p * (p + 1)
    n2 = 0
    if N % 4:
        n2 = 1
        for p in primes:
            n2 *= 1 + (0 if p == 2 else legendre_symbol(-1, p))
    n3 = 0
    if N % 9:
        n3 = 1
        for p in primes:
            n3 *= 1 + (-1 if p == 2 else legendre_symbol(-3, p))
    n_inf = sum(totient(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    genus12 = 12 + kappa - 3 * n2 - 4 * n3 - 6 * n_inf
    if genus12 % 12:
        raise ValueError(f"non-integral genus at N={N}")
    return {"kappa": kappa, "n2": n2, "n3": n3, "n_inf": n_inf, "genus": genus12 // 12}


class BottomRows:
    """P^1(Z/N) as bottom rows, with the right actions of S and S T^k.

    ``label`` maps any point to the index of its representative in the
    given list, after scaling by the units of Z/N.
    """

    def __init__(self, N: int, reps):
        self.N = N
        self.reps = [tuple(r) for r in reps]
        self.units = [u for u in range(1, N) if gcd(u, N) == 1] or [1]
        self._index = {}
        for i, (c, d) in enumerate(self.reps):
            for u in self.units:
                self._index[((u * c) % N, (u * d) % N)] = i

    def label(self, c: int, d: int) -> int:
        if self.N == 1:
            return 0
        return self._index[(c % self.N, d % self.N)]

    def is_projective_line(self) -> bool:
        """The representatives are pairwise inequivalent and cover P^1(Z/N)."""
        N = self.N
        points = {
            (c, d) for c in range(N) for d in range(N) if gcd(gcd(c, d), N) == 1
        }
        return len(points) == len(self._index) and points == set(self._index)

    def digit(self, k: int, e: int) -> int:
        """(c : d) . S T^k = (d : k d - c)."""
        c, d = self.reps[e]
        return self.label(d, k * d - c)

    def s(self, e: int) -> int:
        """(c : d) . S = (d : -c)."""
        c, d = self.reps[e]
        return self.label(d, -c)

    def st(self, e: int) -> int:
        return self.digit(1, e)


def strongly_connected(rows: BottomRows) -> bool:
    """Strong connectivity of the (coset, sign) graph, by two reachability sweeps.

    A digit of sign s and residue r leads from (e, -s) to (e . S T^r, s);
    vertex (e, +1) is 2e and (e, -1) is 2e + 1.
    """
    n = len(rows.reps)
    fwd = [[] for _ in range(2 * n)]
    bwd = [[] for _ in range(2 * n)]
    for e in range(n):
        for r in range(rows.N):
            dst = rows.digit(r, e)
            for sign in (1, -1):
                src = 2 * e + (sign > 0)
                tgt = 2 * dst + (sign < 0)
                fwd[src].append(tgt)
                bwd[tgt].append(src)

    def reach(adj):
        seen = [False] * len(adj)
        seen[0] = True
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    return reach(fwd) and reach(bwd)


def replays(rows: BottomRows, src: int, dst: int, entries) -> bool:
    """A witness word of (digit, coset) letters walks from vertex src to dst."""
    cur, sign = src // 2, (1 if src % 2 == 0 else -1)
    for d, e in entries:
        # from (e, s) the next digit has sign -s
        if d == 0 or e != cur or (d > 0) == (sign > 0):
            return False
        cur, sign = rows.digit(d, cur), (1 if d > 0 else -1)
    return 2 * cur + (sign < 0) == dst


def cycle_word(rows: BottomRows, e1: int, magnitude: int) -> list[tuple[int, int]]:
    """Digits +-magnitude with alternating signs, from (e1, first digit < 0) until it recurs."""
    entries, e, sign = [], e1, -1
    while True:
        d = sign * magnitude
        entries.append((d, e))
        e, sign = rows.digit(d, e), -sign
        if (e, sign) == (e1, -1):
            return entries


def trace_denominator(digits) -> float:
    """2 log lambda of S T^{x_1} ... S T^{x_n}, lambda the larger eigenvalue modulus."""
    a, b, c, d = 1, 0, 0, 1
    for k in digits:
        # right-multiply by S T^k = [[0, -1], [1, k]]
        a, b, c, d = b, k * b - a, d, k * d - c
    with mpmath.workdps(40):
        tr = mpmath.mpf(abs(a + d))
        return float(2 * mpmath.log((tr + mpmath.sqrt(tr * tr - 4)) / 2))
