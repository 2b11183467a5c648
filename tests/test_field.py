import pytest

from fpurity import PrimeField
from fpurity.field import is_prime


def test_rejects_nonprime():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_inverse_exhaustive_small_primes():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101]:
        F = PrimeField(p)
        for a in range(1, p):
            assert (a * F.inv(a)) % p == 1


def test_no_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(0) and not is_prime(9) and not is_prime(91)
