from fractions import Fraction

import pytest

from gsc.fields import MULTI_PRIME_SET, FieldSpec, is_prime
from gsc.matrix_text import read_matrix_text


def test_default_primes_are_prime():
    for p in MULTI_PRIME_SET:
        assert is_prime(p) and p > 3
    assert len(set(MULTI_PRIME_SET)) == 3


def test_small_prime_rejected_without_override():
    assert FieldSpec.prime(5).p == 5
    with pytest.raises(ValueError):
        FieldSpec.prime(6)


def test_characteristic_2_and_3_are_refused():
    # the relation model spans the ideal only where 2 and 3 are invertible
    for p in (2, 3):
        with pytest.raises(ValueError, match="characteristic 2 and 3"):
            FieldSpec.prime(p)
        with pytest.raises(ValueError, match="characteristic 2 and 3"):
            FieldSpec.parse(f"prime:{p}")
    # a matrix file over GF(3) cannot be read either
    with pytest.raises(ValueError, match="characteristic 2 and 3"):
        read_matrix_text("1 1 3\n1 1 1\n0 0 0\n")
    assert read_matrix_text("1 1 5\n1 1 1\n0 0 0\n").field == FieldSpec.prime(5)


def test_parse_round_trip():
    assert FieldSpec.parse("rational").is_rational
    assert FieldSpec.parse("prime:5").p == 5
    assert FieldSpec.parse(FieldSpec.prime(97).short_name()).p == 97
    with pytest.raises(ValueError):
        FieldSpec.parse("galois:4")


def test_rational_convert_and_ops():
    q = FieldSpec.rational()
    assert q.convert(3) == Fraction(3)
    assert q.is_rational and not FieldSpec.prime(5).is_rational


def test_fraction_conversion_mod_p():
    f = FieldSpec.prime(97)
    v = f.convert(Fraction(3, 4))
    assert v * 4 % 97 == 3
