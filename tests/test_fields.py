from fractions import Fraction

import pytest

from gsc.fields import MULTI_PRIME_SET, FieldSpec, is_prime


def test_default_primes_are_prime():
    for p in MULTI_PRIME_SET:
        assert is_prime(p) and p > 3
    assert len(set(MULTI_PRIME_SET)) == 3


def test_small_prime_rejected_without_override():
    with pytest.raises(ValueError):
        FieldSpec.prime(3)
    assert FieldSpec.prime(3, allow_small=True).p == 3
    with pytest.raises(ValueError):
        FieldSpec.prime(6, allow_small=True)


def test_parse_round_trip():
    assert FieldSpec.parse("rational").is_rational
    assert FieldSpec.parse("prime:5").p == 5
    assert FieldSpec.parse(FieldSpec.prime(97).short_name()).p == 97
    with pytest.raises(ValueError):
        FieldSpec.parse("galois:4")


def test_rational_convert_and_ops():
    q = FieldSpec.rational()
    assert q.convert(3) == Fraction(3)
    assert q.characteristic == 0


def test_fraction_conversion_mod_p():
    f = FieldSpec.prime(97)
    v = f.convert(Fraction(3, 4))
    assert v * 4 % 97 == 3
