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


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the bases 2, 3, 5, 7 (3215031751), up to 11
        # (2152302898747), 13 (3474749660383), 17 (341550071728321) and 23
        # (3825123056546413051)
        3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
        # Carmichael numbers
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        # squares of primes and products of two large primes
        41**2, (2**31 - 1) ** 2, (2**31 - 1) * (2**32 - 5), (2**61 - 1) * 3,
    ],
)
def test_is_prime_rejects_pseudoprimes_and_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_accepts_primes_near_2_64():
    for n in (2**31 - 1, 2**61 - 1, 2**63 - 25, 2**64 - 59):
        assert is_prime(n)
    assert not is_prime(2**64 - 1) and not is_prime(2**63 - 1)


def test_a_prime_near_2_63_is_refused_promptly():
    # the modulus is prime, so the field's range check refuses it: exit 1
    # without a trial division per odd number below its square root
    import time

    from fpurity.cli import EXIT_USAGE, run

    start = time.perf_counter()
    code, text = run(["nu", "--ring", "p=9223372036854775783; vars=x", "--a", "x", "--emax", "1"])
    assert code == EXIT_USAGE and "2^31" in text
    assert time.perf_counter() - start < 1
