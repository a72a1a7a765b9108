"""Exact arithmetic in PSL2(Z).

Matrices are stored as four Python integers with determinant 1 and a
canonical sign: ``c > 0``, or ``c == 0 and d > 0``.  Negating all four
entries therefore yields the same value, which is what makes this PSL2
rather than SL2.  Points of the projective rational line are reduced
fractions ``num/den`` with ``den >= 0`` and ``(1, 0)`` standing for the
point at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class NonPositiveDigit(ValueError):
    """A continued-fraction digit that should be positive is not."""


@dataclass(frozen=True)
class ExtendedRational:
    """Point of P^1(Q): a reduced fraction, with (1, 0) denoting infinity."""

    num: int
    den: int

    def __post_init__(self):
        num, den = self.num, self.den
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if den == 0:
            num = 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @classmethod
    def infinity(cls) -> "ExtendedRational":
        return cls(1, 0)

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no finite value")
        return Fraction(self.num, self.den)

    def __str__(self):
        if self.is_infinity:
            return "oo"
        return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)


@dataclass(frozen=True)
class MoebiusMatrix:
    """Element of PSL2(Z), sign-normalized, determinant exactly 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant != 1 for {(self.a, self.b, self.c, self.d)}")
        if self.c < 0 or (self.c == 0 and self.d < 0):
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
            object.__setattr__(self, "c", -self.c)
            object.__setattr__(self, "d", -self.d)

    def __mul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        return MoebiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMatrix":
        return MoebiusMatrix(self.d, -self.b, -self.c, self.a)

    def apply(self, x: ExtendedRational) -> ExtendedRational:
        """Projective action on P^1(Q); total, infinity handled projectively."""
        num = self.a * x.num + self.b * x.den
        den = self.c * x.num + self.d * x.den
        return ExtendedRational(num, den)

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = MoebiusMatrix(1, 0, 0, 1)
S = MoebiusMatrix(0, -1, 1, 0)
T = MoebiusMatrix(1, 1, 0, 1)


def translation(k: int) -> MoebiusMatrix:
    """T^k as a matrix."""
    return MoebiusMatrix(1, k, 0, 1)


def st_power(k: int) -> MoebiusMatrix:
    """The product S * T^k."""
    return MoebiusMatrix(0, -1, 1, k)


def word_to_matrix(digits) -> MoebiusMatrix:
    """Cocycle matrix ST^{x_1} ST^{x_2} ... ST^{x_n} of a digit word.

    The empty word gives the identity.  For alternating-sign words the
    bottom row carries the convergent denominators (q_{n-1}, q_n) of
    [|x_1|, ..., |x_n|] up to sign.
    """
    m = IDENTITY
    for k in digits:
        if k == 0:
            raise ValueError("digit 0 is not a valid letter")
        m = m * st_power(k)
    return m


def convergents(digits, n: int | None = None) -> list[tuple[int, int]]:
    """Convergent pairs (p_k, q_k) of a positive-digit continued fraction.

    Seeds are q_0 = p_{-1} = 1 and q_{-1} = p_0 = 0; the returned list
    holds (p_1, q_1), ..., (p_n, q_n).
    """
    digits = list(digits)
    if n is None:
        n = len(digits)
    if n > len(digits):
        raise ValueError("requested more convergents than digits")
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    out = []
    for k in digits[:n]:
        if k <= 0:
            raise NonPositiveDigit(f"digit {k} must be positive")
        p_prev, p = p, k * p + p_prev
        q_prev, q = q, k * q + q_prev
        out.append((p, q))
    return out
