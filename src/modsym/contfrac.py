"""Twisted Gauss map and signed continued-fraction expansions.

Orbits live on [-1, 1]: one step negates the sign and applies the usual
Gauss map to the magnitude, so emitted digit words strictly alternate in
sign.  Inputs are exact: either a rational in (-1, 1) or explicit
(preperiod, period) digit data of an eventually periodic expansion.
Rational orbits hit 0 and terminate; the encoder flags the truncation
rather than erroring, because such points fall outside the shift space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .cosets import CosetTable


class OutOfDomain(ValueError):
    """Point outside the domain of the (twisted) Gauss map."""


@dataclass(frozen=True)
class SignedWord:
    """Finite word of nonzero signed digits."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if any(d == 0 for d in self.digits):
            raise ValueError("digits must be nonzero")

    def __len__(self):
        return len(self.digits)

    @property
    def is_alternating(self) -> bool:
        return all(a * b < 0 for a, b in zip(self.digits, self.digits[1:]))

    def magnitudes(self) -> tuple[int, ...]:
        return tuple(abs(d) for d in self.digits)


@dataclass(frozen=True)
class SymbolSequence:
    """Coset-decorated digit word: entries (digit, coset label)."""

    entries: tuple[tuple[int, int], ...]
    terminated: bool = False

    def __len__(self):
        return len(self.entries)

    def digits(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def cosets(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.entries)

    def word(self) -> SignedWord:
        return SignedWord(self.digits())


@dataclass(frozen=True)
class CFInput:
    """Exact orbit seed: a rational or an eventually periodic expansion.

    For the periodic kind, ``preperiod``/``period`` are the positive
    digits of the continued fraction of |x| and ``sign`` the sign of x.
    """

    rational: Fraction | None = None
    sign: int = 1
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.rational is not None:
            x = self.rational
            if not (0 < abs(x) < 1):
                raise OutOfDomain(f"rational input must lie in (-1,1) minus 0, got {x}")
        else:
            if not self.period:
                raise ValueError("eventually periodic input needs a nonempty period")
            if self.sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            if any(d <= 0 for d in self.preperiod + self.period):
                raise ValueError("CF digits must be positive")

    @property
    def is_rational(self) -> bool:
        return self.rational is not None

    def x_sign(self) -> int:
        if self.is_rational:
            return 1 if self.rational > 0 else -1
        return self.sign

    def digit_stream(self) -> Iterator[int]:
        """Positive CF digits of |x|; finite for rationals."""
        if self.is_rational:
            y = abs(self.rational)
            while y != 0:
                digit, y = gauss_step(y)
                yield digit
        else:
            yield from self.preperiod
            while True:
                yield from self.period

    def to_json_dict(self) -> dict:
        if self.is_rational:
            return {"rational": [self.rational.numerator, self.rational.denominator]}
        return {
            "sign": self.sign,
            "preperiod": list(self.preperiod),
            "period": list(self.period),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CFInput":
        if "rational" in data:
            p, q = data["rational"]
            return cls(rational=Fraction(p, q))
        return cls(
            sign=data.get("sign", 1),
            preperiod=tuple(data.get("preperiod", [])),
            period=tuple(data["period"]),
        )


def gauss_step(x: Fraction) -> tuple[int, Fraction]:
    """One Gauss-map step on (0,1): digit floor(1/x) and remainder 1/x - digit."""
    if not 0 < x < 1:
        raise OutOfDomain(f"gauss_step needs 0 < x < 1, got {x}")
    inv = 1 / x
    digit = inv.numerator // inv.denominator
    return digit, inv - digit


def twisted_gauss(x: Fraction) -> Fraction:
    """x |-> -sign(x) * G(|x|) on (-1,1) minus 0."""
    if not 0 < abs(x) < 1:
        raise OutOfDomain(f"twisted Gauss map needs 0 < |x| < 1, got {x}")
    sign = 1 if x > 0 else -1
    _, rest = gauss_step(abs(x))
    return -sign * rest


def expand(x: CFInput, n: int) -> SignedWord:
    """First n signed digits of the orbit of x; may be shorter for rationals.

    The first digit has sign -sign(x) and signs alternate from there.
    """
    if n < 0:
        raise ValueError("digit count must be nonnegative")
    mags = list(islice(x.digit_stream(), n))
    sign = -x.x_sign()
    digits = []
    for m in mags:
        digits.append(sign * m)
        sign = -sign
    return SignedWord(tuple(digits))


def decorate(table: CosetTable, digits: Iterable[int], e1: int) -> tuple[tuple[int, int], ...]:
    """Entries (d_k, e_k) of a digit word from coset e1, e_{k+1} = tau_{d_k}(e_k)."""
    entries = []
    e = table.check_label(e1)
    for d in digits:
        entries.append((d, e))
        e = table.tau(d, e)
    return tuple(entries)


def encode_orbit(table: CosetTable, x: CFInput, e1: int, n: int) -> SymbolSequence:
    """Coset-decorated orbit prefix (x_k, e_k), e_{k+1} = tau_{x_k}(e_k)."""
    word = expand(x, n)
    terminated = x.is_rational and len(word) < n
    return SymbolSequence(decorate(table, word.digits, e1), terminated=terminated)


def periodic_point_quadratic(period: tuple[int, ...]) -> tuple[int, int, int]:
    """Quadratic a*y^2 + b*y + c = 0 satisfied by y = [period, period, ...].

    The purely periodic value is the attracting fixed point of the
    Moebius map of the period's positive-digit matrix.
    """
    from .psl2 import convergents

    conv = convergents(period)
    p_n, q_n = conv[-1]
    p_prev, q_prev = conv[-2] if len(conv) > 1 else (0, 1)
    # y = (p_n + p_prev*y) / (q_n + q_prev*y)
    return (q_prev, q_n - p_prev, -p_n)
