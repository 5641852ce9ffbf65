"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Everything downstream of this module is exact; no floating point is used
for any arithmetic that feeds a reported number.  Rational scalars are
``fractions.Fraction`` (ints are accepted anywhere a rational is), prime
field scalars are plain ints in ``range(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Large enough to make rank-drop collisions unlikely, and > 3 so the
# characteristic restriction on the polarized generating sets never bites.
DEFAULT_PRIME = 1_000_003

# Distinct primes for prime-field runs: the three-field cross-check of the
# n=5 table blocks, the no-shortcut zero checks, and the open block.
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
    """The field of scalars: rationals (p is None) or GF(p).

    Primes <= 3 are rejected unless ``allow_small`` is passed to
    :meth:`prime`; the polarized relation sets need characteristic not 2
    or 3, so small primes are opt-in only.
    """

    p: int | None = None

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int, allow_small: bool = False) -> "FieldSpec":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p <= 3 and not allow_small:
            raise ValueError(
                f"GF({p}) rejected by default (characteristic must not be 2 or 3); "
                "pass allow_small=True to override"
            )
        return FieldSpec(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

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

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / a
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # Fermat: a * a^(p-2) = 1
        return pow(a, self.p - 2, self.p)

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
        """Parse 'rational' or 'prime:P'."""
        text = text.strip().lower()
        if text in ("rational", "q"):
            return FieldSpec.rational()
        if text.startswith("prime:"):
            return FieldSpec.prime(int(text.split(":", 1)[1]), allow_small=True)
        raise ValueError(f"unrecognized field {text!r} (want 'rational' or 'prime:P')")


def multi_prime_fields(preferred: FieldSpec | None = None, count: int = 3) -> list[FieldSpec]:
    """Distinct primes > 3 for cross-checking large blocks.

    If ``preferred`` is a prime field it is listed first.
    """
    primes: list[int] = []
    if preferred is not None and preferred.p is not None and preferred.p > 3:
        primes.append(preferred.p)
    for p in MULTI_PRIME_SET:
        if p not in primes:
            primes.append(p)
        if len(primes) == count:
            break
    return [FieldSpec(p) for p in primes[:count]]
