"""The two exact fields: prime fields F_p and arbitrary-precision rationals.

Every computation in the package happens over one of these two fields.  A
field object describes its field (its modulus, how to parse and print an
element); the arithmetic itself lives in ``matrices.Mat``.  F_p elements are
Python ints in [0, p); rational elements are Python ints or
``fractions.Fraction`` in lowest terms (ints stand for integer-valued
rationals, which keeps the common case fast).  Floats carry exact integers
only: dense F_p matrix products may run on float64 under a bound, checked in
``matrices``, that keeps every partial sum an integer below 2^53.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction


class RationalOverflowError(Exception):
    """A rational numerator/denominator exceeded the configured bit bound."""


def rational_bit_limit() -> int:
    """Bit bound for rational growth, configurable via CATREP_MAX_RATIONAL_BITS."""
    text = os.environ.get("CATREP_MAX_RATIONAL_BITS", "8192")
    try:
        limit = int(text)
    except ValueError:
        raise ValueError(f"CATREP_MAX_RATIONAL_BITS must be an integer, got {text!r}") from None
    if limit < 1:
        raise ValueError(f"CATREP_MAX_RATIONAL_BITS must be >= 1, got {text!r}")
    return limit


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

    def parse(self, text: str) -> int:
        if "/" in text:
            num, den = text.split("/", 1)
            num, den = int(num), int(den) % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
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
    """Normalize a rational value: Fractions with denominator 1 collapse to
    int, and exact integers of any type (bool, numpy integers) become ints.

    type() checks instead of isinstance: Fraction sits under the numbers ABC
    machinery, and these normalizations run on every produced matrix entry.
    """
    if type(x) is Fraction:
        if x.denominator == 1:
            return int(x)
        return x
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"not an exact rational value: {x!r}") from None


class RationalField:
    """The rationals Q; values are ints or Fractions in lowest terms."""

    kind = "q"

    def from_int(self, n: int):
        return n

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/", 1)
            return _qnorm(Fraction(int(num), int(den)))  # ZeroDivisionError on a zero den
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


def check_rational_bits(value: int, limit: int) -> None:
    """Raise RationalOverflowError if an integer of a fraction-free
    elimination exceeds limit, the bit bound it read once at its start
    (rational_bit_limit)."""
    bits = value.bit_length()
    if bits > limit:
        raise RationalOverflowError(
            f"rational entry needs {bits} bits > limit {limit}; "
            "set CATREP_MAX_RATIONAL_BITS to raise the bound"
        )
