import random

import pytest
import sympy

from gform_lab.arith import _MILLER_RABIN_LIMIT, is_prime

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              62745, 63973, 75361, 101101, 126217, 172081, 188461, 252601, 278545,
              294409, 314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461,
              9999109081, 1436697831295441)
# the least strong pseudoprime to the first k prime bases, k = 1, ..., 12
# (OEIS A014233); the 13th, to the bases up to 41, is the limit of the test
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 341550071728321,
                       3825123056546413051, 3825123056546413051,
                       3825123056546413051, 318665857834031151167461)


def test_is_prime_matches_sympy_on_random_integers():
    rng = random.Random(11)
    for bits in (4, 10, 20, 21, 32, 48, 62, 64, 80):
        for _ in range(300):
            n = rng.getrandbits(bits)
            assert is_prime(n) == sympy.isprime(n), n
    # primes = 1 mod f above 2^62, as the modular embeddings draw them
    for f in (7, 91, 199):
        q = (1 << 62) // f * f + 1
        for _ in range(200):
            assert is_prime(q) == sympy.isprime(q), q
            q += f


def _is_carmichael(n: int) -> bool:
    """Korselt: n squarefree and composite, and ell - 1 | n - 1 for each ell | n."""
    factors = sympy.factorint(n)
    return (len(factors) > 1 and set(factors.values()) == {1}
            and all((n - 1) % (ell - 1) == 0 for ell in factors))


@pytest.mark.parametrize("n", sorted(set(CARMICHAEL + STRONG_PSEUDOPRIMES)))
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert n not in CARMICHAEL or _is_carmichael(n)
    assert is_prime(n) is False


def test_is_prime_small_values_and_non_integers():
    assert [n for n in range(-5, 60) if is_prime(n)] == list(sympy.primerange(0, 60))
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    with pytest.raises(ValueError, match="expected an integer"):
        is_prime(7.5)


def test_is_prime_raises_beyond_its_proven_range():
    # the limit is a strong pseudoprime to all 13 bases: no base decides it
    assert not sympy.isprime(_MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError, match="beyond the range"):
        is_prime(_MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError, match="beyond the range"):
        is_prime(2**89 - 1)  # a Mersenne prime
    # a factor or a base that witnesses compositeness is a proof at any size
    assert is_prime(41 * (2**89 - 1)) is False
    assert is_prime((2**89 - 1) * (2**61 - 1)) is False
    below = max(n for n in range(_MILLER_RABIN_LIMIT - 400, _MILLER_RABIN_LIMIT)
                if sympy.isprime(n))
    assert is_prime(below) is True
