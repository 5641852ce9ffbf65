"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Everything downstream of this module is exact; no floating point is used
for any arithmetic that feeds a reported number.  Rational scalars are
``fractions.Fraction`` (ints are accepted anywhere a rational is), prime
field scalars are plain ints in ``range(p)``.  The hot loops do not go
through :class:`FieldSpec`'s methods: the sparse engine eliminates over
Q on primitive integer rows and over GF(p) with ``% p`` inlined, and the
stretch's union-find keeps int scales, so a ``Fraction`` appears only
where a value is not an integer (a normal form, a scale that does not
divide).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Distinct primes for the open block's prime-field runs, after its run
# over Q; the test suite checks the table blocks over each of them.
MULTI_PRIME_SET = (1_000_003, 1_000_033, 1_000_037)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field of scalars: rationals (p is None) or GF(p)."""

    p: int | None = None

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        """GF(p) for a prime p > 3; GF(2) and GF(3) are refused.

        The relation model's rows sum the arrangements of an occupant
        multiset with coefficient 1; the row of a multiset with a
        repeated letter is a generator divided by 2 or 6, so the model
        spans the ideal only where 2 and 3 are invertible.  This is the
        one place that refuses characteristic 2 and 3.
        """
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p <= 3:
            raise ValueError(f"GF({p}) rejected: characteristic 2 and 3 are not supported")
        return FieldSpec(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def convert(self, x):
        """Map an int or Fraction into this field's scalar representation."""
        if self.p is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    def short_name(self) -> str:
        """Stable token used in cache keys and CSV output."""
        return "rational" if self.p is None else f"prime:{self.p}"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse 'rational' or 'prime:P' (P = 2 and 3 are rejected)."""
        text = text.strip().lower()
        if text in ("rational", "q"):
            return FieldSpec.rational()
        if text.startswith("prime:"):
            return FieldSpec.prime(int(text.split(":", 1)[1]))
        raise ValueError(f"unrecognized field {text!r} (want 'rational' or 'prime:P')")
