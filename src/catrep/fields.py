"""Exact scalar arithmetic: prime fields F_p and arbitrary-precision rationals.

Every computation in the package happens over one of these two fields.
Floats carry exact integers only: dense F_p matrix products may run on
float64 under a bound, checked in ``matrices``, that keeps every partial sum
an integer below 2^53.  F_p elements are Python ints in [0, p);
rational elements are Python ints or ``fractions.Fraction`` in lowest terms
(ints stand for integer-valued rationals, which keeps the common case fast).
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction


class RationalOverflowError(Exception):
    """A rational numerator/denominator exceeded the configured bit bound."""


def rational_bit_limit() -> int:
    """Bit bound for rational growth, configurable via CATREP_MAX_RATIONAL_BITS."""
    return int(os.environ.get("CATREP_MAX_RATIONAL_BITS", "8192"))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime p (p < 2^20, so products of residues fit in 2^40)."""

    kind = "fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p}")
        if p >= 1 << 20:
            raise ValueError(f"prime {p} too large (must be < 2^20)")
        self.p = p

    def from_int(self, n: int) -> int:
        # operator.index refuses Fractions and floats instead of reducing them
        return operator.index(n) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    @property
    def name(self) -> str:
        return f"fp:{self.p}"


def _qnorm(x):
    """Normalize a rational value: Fractions with denominator 1 collapse to int.

    type() checks instead of isinstance: Fraction sits under the numbers ABC
    machinery, and these normalizations run on every produced matrix entry.
    """
    if type(x) is Fraction:
        if x.denominator == 1:
            return int(x)
        return x
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"not an exact rational value: {x!r}")


class RationalField:
    """The rationals Q; values are ints or Fractions in lowest terms."""

    kind = "q"

    def from_int(self, n: int):
        return n

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return _qnorm(a + b)

    def mul(self, a, b):
        return _qnorm(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _qnorm(Fraction(1, 1) / a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(a, int) and isinstance(b, int):
            return _qnorm(Fraction(a, b))
        return _qnorm(Fraction(a) / Fraction(b))

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num), int(den))
        return int(text)

    def format(self, a) -> str:
        if isinstance(a, Fraction):
            return f"{a.numerator}/{a.denominator}"
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "RationalField()"

    @property
    def name(self) -> str:
        return "q"


QQ = RationalField()


def parse_field(spec: str):
    """Parse a field spec: ``q`` for the rationals or ``fp:<prime>``."""
    spec = spec.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")


def check_rational_bits(value) -> None:
    """Raise RationalOverflowError if a rational exceeds the configured bit bound."""
    if isinstance(value, Fraction):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    else:
        bits = value.bit_length()
    limit = rational_bit_limit()
    if bits > limit:
        raise RationalOverflowError(
            f"rational entry needs {bits} bits > limit {limit}; "
            "set CATREP_MAX_RATIONAL_BITS to raise the bound"
        )
