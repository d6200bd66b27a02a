"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod


def as_int(x) -> int:
    """x as an int, for an int or any number equal to one, such as an
    integral Fraction; a ValueError naming x where int(x) would truncate."""
    n = int(x)
    if n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    """Ints or Fractions as integer numerators over the lcm of their
    denominators, in lowest terms: gcd(den, *nums) == 1."""
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


# the first 13 primes; strong probable primality to all of them proves n
# prime for every n below _MILLER_RABIN_LIMIT (Sorenson & Webster 2015,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86), and the
# limit itself is a strong pseudoprime to all 13
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981
_BASES_PRODUCT = prod(_MILLER_RABIN_BASES)
_TRIAL_DIVISION_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Exact primality: trial division below 2^20, above it the strong
    probable-prime test to the first 13 prime bases, which is deterministic
    below _MILLER_RABIN_LIMIT (about 3.3e24). Above that limit a base that
    witnesses compositeness still proves n composite; otherwise it raises
    ValueError instead of guessing."""
    n = as_int(n)
    if n < _TRIAL_DIVISION_LIMIT:
        if n < 4:
            return n > 1
        if n % 2 == 0:
            return False
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    if gcd(n, _BASES_PRODUCT) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is beyond the range of the deterministic primality test")
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, e), ...) of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def moebius(n: int) -> int:
    facs = factorize(n)
    if any(e > 1 for _, e in facs):
        return 0
    return -1 if len(facs) % 2 else 1


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


@lru_cache(maxsize=None)
def primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q."""
    facs = factorize(q)
    if len(facs) != 1 or facs[0][0] == 2:
        raise ValueError(f"{q} is not an odd prime power")
    phi = euler_phi(q)
    checks = [phi // r for r, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, e, q) != 1 for e in checks):
            return g
    raise ArithmeticError(f"no primitive root found mod {q}")


def crt_pair(a: int, m: int, b: int, n: int) -> int:
    """x mod m*n with x = a mod m and x = b mod n, for coprime m, n."""
    if gcd(m, n) != 1:
        raise ValueError("moduli not coprime")
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)


def unit_group_generators(n: int) -> tuple[int, ...]:
    """Generators of (Z/n)^x, one per cyclic factor, each congruent to 1
    modulo the complementary prime-power parts of n."""
    if n <= 2:
        return ()
    gens = []
    for p, e in factorize(n):
        q = p**e
        rest = n // q
        if p == 2:
            local = [] if e == 1 else ([3] if e == 2 else [q - 1, 5])
        else:
            local = [primitive_root(q)]
        for g in local:
            gens.append(crt_pair(g, q, 1, rest) if rest > 1 else g % n)
    return tuple(g for g in gens if g % n != 1)


def units_mod(n: int) -> list[int]:
    if n == 1:
        return [0]
    return [x for x in range(1, n) if gcd(x, n) == 1]


def subgroup_closure(generators, n: int) -> frozenset[int]:
    """Multiplicative closure of the given residues inside (Z/n)^x."""
    gens = [g % n for g in generators]
    for g in gens:
        if gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit mod {n}")
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


@lru_cache(maxsize=None)
def discrete_log_table(g: int, q: int) -> dict[int, int]:
    """dlog base g on (Z/q)^x, for g a generator; raises if g fails to generate."""
    table = {}
    x = 1 % q
    for k in range(euler_phi(q)):
        if x in table:
            raise ValueError(f"{g} does not generate (Z/{q})^x")
        table[x] = k
        x = x * g % q
    return table
