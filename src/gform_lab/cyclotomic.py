"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as an integer numerator vector over the power basis
1, z, ..., z^(phi(n)-1), reduced modulo the n-th cyclotomic polynomial, and
one positive integer denominator: the value is sum(num[i] z^i) / den. After
every operation den > 0 and gcd(den, *num) == 1 (zero is num = 0, den = 1),
so every value has a unique normal form and equality is decidable by
comparing tuples. All arithmetic runs on Python ints and divides out the
content once per result; Fractions appear only at the API edge (the
constructor and the `coeffs` view). The compatible system of roots fixes
zeta_n := zeta_N^(N/n) inside any ambient level N; cross-level operations
raise both operands to the lcm level.

A product of two elements is a polynomial product followed by the
reduction modulo Phi_n. The polynomial product has two kernels, chosen by
the operands. The schoolbook loop costs one multiplication per pair of
nonzero terms. Kronecker substitution packs both numerator vectors into
byte slots wide enough for any product coefficient and multiplies two
large ints once, so CPython's Karatsuba multiplication does the
coefficient products in C, at a packing cost per slot. It is used once
there are at least KRONECKER_MIN_TERMS term products per slot: on dense
values from phi ~ 12 on, never on levels up to 9, and never for a sparse
operand such as a root of unity or a Gaussian period, where the schoolbook
loop is several times faster. The inverse and the norm multiply the Galois
conjugates as a balanced product tree: a running product would multiply an
ever larger partial product by one small conjugate at a time, which
Kronecker substitution cannot speed up. Both run on integer numerators in
`_adjugate`, the one norm kernel, which the group-ring orbit inversion and
the prime-element search call too.

Sums of roots of unity are built by placing exponents (`_place`, used by
`raise_level`, the Galois action, `trace_to_subfield` and the group-ring
character transform) and reduced once. `convolve`, the group-ring product
over cyclotomic coefficients, lifts every coefficient to the lcm level by
strided Kronecker packing, sums the packed products per output index as
ints, and reduces each output once, at the lcm level of the pairs that
reached it: p reductions for a product in Q(zeta_f)[C_p], not p^2
CyclotomicNumber products and sums, with the same result, term for term.

Supported levels are capped (default 200, override with the
GFORM_LAB_MAX_LEVEL environment variable, a positive integer) to keep
exhaustive exact sweeps at desk scale.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import (as_int, divisors, euler_phi, is_prime, moebius, over_common_denominator,
                    primitive_root, subgroup_closure)
from . import linalg

DEFAULT_MAX_LEVEL = 200
MAX_LEVEL_ENV = "GFORM_LAB_MAX_LEVEL"


class LevelBoundError(ValueError):
    """Requested cyclotomic level exceeds the configured cap."""


def max_level() -> int:
    return _parse_max_level(os.environ.get(MAX_LEVEL_ENV))


@lru_cache(maxsize=None)  # a raise is not cached: a malformed value raises on every call
def _parse_max_level(raw: str | None) -> int:
    if not raw:
        return DEFAULT_MAX_LEVEL
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{MAX_LEVEL_ENV} must be a positive integer, got {raw!r}")
    return value


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    if n > max_level():
        raise LevelBoundError(f"level {n} exceeds cap {max_level()} (set {MAX_LEVEL_ENV})")


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (den monic), ascending coeffs."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_n, computed by exact division of
    x^n - 1 by the lower-level cyclotomic polynomials."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_terms(n: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, c_k) of Phi_n below its leading term, so that
    z^phi(n) = -sum c_k z^k."""
    return tuple((k, c) for k, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


def _reduce(n: int, phi: int, raw: list[int]) -> tuple[int, ...]:
    """Power-basis numerator of sum raw[e] z^e for an integer list raw of
    length at least phi (consumed): fold exponents modulo n, since z^n = 1,
    then divide by the monic Phi_n from the top."""
    if len(raw) > n:
        folded = raw[:n]
        for e in range(n, len(raw)):
            folded[e % n] += raw[e]
        raw = folded
    terms = _reduction_terms(n)
    for d in range(len(raw) - 1, phi - 1, -1):
        c = raw[d]
        if c:
            base = d - phi
            for k, ck in terms:
                raw[base + k] -= c * ck
    return tuple(raw[:phi])


# The schoolbook loop forms one product per pair of nonzero terms; Kronecker
# substitution pays a packing and unpacking cost per coefficient slot instead.
# It is the faster one once there are at least this many term products per
# slot (measured on CPython 3.11 over operands of the three benchmark
# workloads and random operands of density 0.05-1 at phi = 12-198).
KRONECKER_MIN_TERMS = 12


def _schoolbook_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the polynomial product of a and b, term by term."""
    raw = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, c) for j, c in enumerate(b) if c]
    for i, ci in enumerate(a):
        if ci:
            for j, cj in b_terms:
                raw[i + j] += ci * cj
    return raw


# Kronecker substitution evaluates integer polynomials at x = 2^(8k), k bytes
# a slot. A slot of k = ceil((bitlen(M) + 1) / 8) bytes keeps every
# coefficient |c| <= M below half = 2^(8k-1). Adding half to every slot
# before packing makes all slots nonnegative, so no borrow or carry crosses a
# slot; it is subtracted again on reading. `_kronecker_product` and
# `convolve` share these three helpers.

def _slot_width(bound: int) -> tuple[int, int]:
    """(k, half) for slots that hold any integer of absolute value <= bound."""
    k = (bound.bit_length() + 8) // 8
    return k, 1 << (8 * k - 1)


def _pack(v, k: int, half: int, stride: int = 1) -> int:
    """sum(v[i] * x^(stride * i)) at x = 2^(8k): v[i] goes to slot stride*i,
    the slots between stay zero."""
    width = k * stride
    biased = b"".join([(c + half).to_bytes(width, "little") for c in v])
    return (int.from_bytes(biased, "little")
            - int.from_bytes(half.to_bytes(width, "little") * len(v), "little"))


def _unpack(x: int, k: int, half: int, m: int, stride: int = 1) -> list[int]:
    """The slots 0, stride, 2*stride, ... below m of a value whose slots
    0..m-1 each hold an integer of absolute value below half."""
    buf = (x + int.from_bytes(half.to_bytes(k, "little") * m, "little")).to_bytes(k * m, "little")
    return [int.from_bytes(buf[i:i + k], "little") - half for i in range(0, k * m, k * stride)]


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the polynomial product of a and b by one integer
    multiplication (Kronecker substitution). Every coefficient is bounded by
    max|a| * max|b| * min(len). Both operands must be nonzero, or the slots
    would not hold the other operand's coefficients."""
    k, half = _slot_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _unpack(_pack(a, k, half) * _pack(b, k, half), k, half, len(a) + len(b) - 1)


def _scaled_terms(values) -> tuple[list, int]:
    """The nonzero entries of values (Fractions and CyclotomicNumbers) over
    one denominator, as (index, flag, level, numerators) with the flag 1 for
    a Fraction and 2 for a CyclotomicNumber, and that denominator."""
    terms = [(i, c) for i, c in enumerate(values) if c]
    den = lcm(*(c.den if isinstance(c, CyclotomicNumber) else c.denominator for _, c in terms))
    out = []
    for i, c in terms:
        if isinstance(c, CyclotomicNumber):
            scale = den // c.den
            out.append((i, 2, c.level, c.num if scale == 1 else [x * scale for x in c.num]))
        else:
            out.append((i, 1, 1, (c.numerator * (den // c.denominator),)))
    return out, den


def convolve(a, b, table) -> list:
    """out[table[i][j]] = sum of a[i] * b[j] over the nonzero a[i] and b[j],
    for sequences of Fractions and CyclotomicNumbers: the product of two
    group-ring elements through their product table, in one packed integer
    convolution.

    Every coefficient is lifted to the ambient level N, the lcm of all
    coefficient levels, by placing exponents (zeta_L^i -> zeta_N^(i N/L), no
    reduction), each operand is scaled to one denominator, and each
    coefficient is packed once into Kronecker slots wide enough for the sum
    of all products that meet at one output. The packed products are
    accumulated per output as ints, and each output is unpacked and reduced
    once, at L_k, the lcm of the levels of the pairs that reached it: its
    exponents are multiples of N/L_k. An output only rational pairs reached
    is a Fraction, one no pair reached is 0. So types, levels and normal
    forms are those of the term-by-term sum of CyclotomicNumber products.
    """
    n = len(table)
    a_terms, a_den = _scaled_terms(a)
    b_terms, b_den = _scaled_terms(b)
    if not a_terms or not b_terms:
        return [0] * n
    ambient = lcm(*(t[2] for t in a_terms), *(t[2] for t in b_terms))
    # an output sums at most min(#a, #b) products of lifted vectors, and a
    # coefficient of one product at most min(length) products of entries
    bound = min(len(a_terms), len(b_terms))
    bound *= min(max(len(v) for *_, v in a_terms), max(len(v) for *_, v in b_terms))
    for terms in (a_terms, b_terms):
        bound *= max(max(max(v), -min(v)) for *_, v in terms) or 1
    k, half = _slot_width(bound)
    a_packed = [(i, flag, level, _pack(v, k, half, ambient // level))
                for i, flag, level, v in a_terms]
    acc = [0] * n
    levels = [1] * n
    reached = [0] * n  # the or of the flags of every factor that reached the output
    for j, fb, lb, v in b_terms:
        pb = _pack(v, k, half, ambient // lb)
        for i, fa, la, pa in a_packed:
            o = table[i][j]
            acc[o] += pa * pb
            levels[o] = lcm(levels[o], la, lb)
            reached[o] |= fa | fb
    # one past the highest lifted exponent of a product
    m = 1 + sum(max((len(v) - 1) * (ambient // level) for _, _, level, v in terms)
                for terms in (a_terms, b_terms))
    den = a_den * b_den
    _check_level(max(levels))
    out = []
    for o in range(n):
        if reached[o] < 2:
            out.append(Fraction(acc[o], den) if reached[o] else 0)
            continue
        level = levels[o]
        phi = euler_phi(level)
        raw = _unpack(acc[o], k, half, m, ambient // level)
        raw += [0] * (phi - len(raw))
        out.append(CyclotomicNumber._raw(level, _reduce(level, phi, raw), den))
    return out


def _balanced_product(factors: list, mul):
    """The product of a nonempty list, multiplied pairwise as a balanced
    tree, so that the two operands of every product are of similar size."""
    while len(factors) > 1:
        paired = [mul(x, y) for x, y in zip(factors[::2], factors[1::2])]
        factors = paired + factors[len(paired) * 2:]
    return factors[0]


def _product(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced numerator of the product of two level-n numerators."""
    phi = len(a)
    # phi < KRONECKER_MIN_TERMS already rules out enough term products,
    # which spares the count on small levels
    kronecker = phi >= KRONECKER_MIN_TERMS and (
        (phi - a.count(0)) * (phi - b.count(0)) >= KRONECKER_MIN_TERMS * phi)
    product = _kronecker_product if kronecker else _schoolbook_product
    return _reduce(n, phi, product(a, b))


def _place(raw: list[int], num, stride: int = 1, shift: int = 0) -> list[int]:
    """Add num[j] at exponent shift + stride*j mod len(raw) for each j; return raw."""
    n = len(raw)
    for j, c in enumerate(num):
        raw[(shift + stride * j) % n] += c
    return raw


def _conjugate(n: int, num: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The numerator of sigma_k(num), zeta -> zeta^k, for a unit k mod n."""
    return _reduce(n, len(num), _place([0] * n, num, k))


@lru_cache(maxsize=None)
def _nontrivial_units(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(2, n) if gcd(k, n) == 1)


def _adjugate(n: int, num: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(conj, N) for a level-n integer numerator num: conj is the product of
    the nontrivial Galois conjugates sigma_k(num), k = 2..n-1 prime to n,
    multiplied as a balanced tree of reduced products, and N is the integer
    conj * num, the norm of num, so that num^-1 = conj / N. An
    ArithmeticError unless that product is a nonzero rational, as it is for
    every nonzero num."""
    factors = [_conjugate(n, num, k) for k in _nontrivial_units(n)]
    conj = (_balanced_product(factors, lambda x, y: _product(n, x, y)) if factors
            else (1,) + (0,) * (len(num) - 1))
    norm = _product(n, conj, num)
    if any(norm[1:]) or not norm[0]:
        raise ArithmeticError("the product of num and its conjugates is not a nonzero rational")
    return conj, norm[0]


@lru_cache(maxsize=None)
def _trace_table(n: int) -> tuple[int, ...]:
    """Tr_{Q(zeta_n)/Q}(zeta_n^j) for j = 0..n-1."""
    phi = euler_phi(n)
    out = []
    for j in range(n):
        d = n // gcd(j, n)
        out.append(moebius(d) * (phi // euler_phi(d)))
    return tuple(out)


class CyclotomicNumber:
    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs):
        _check_level(level)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != euler_phi(level):
            raise ValueError(
                f"need {euler_phi(level)} coefficients at level {level}, got {len(cs)}"
            )
        num, den = over_common_denominator(cs)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def _raw(cls, level: int, num: tuple[int, ...], den: int = 1) -> "CyclotomicNumber":
        """Wrap an integer numerator over den > 0, dividing out their common
        content so the result is in normal form."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(c // g for c in num)
                den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def rational(cls, value, level: int = 1) -> "CyclotomicNumber":
        _check_level(level)
        q = Fraction(value)
        return cls._raw(level, (q.numerator,) + (0,) * (euler_phi(level) - 1), q.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_n^k at level n."""
        raw = [0] * n
        raw[k % n] = 1
        return cls.from_powers(n, raw)

    @classmethod
    def from_powers(cls, level: int, raw, den: int = 1) -> "CyclotomicNumber":
        """sum(raw[e] * zeta^e) / den for integers raw[e], e = 0..level-1, and
        a positive integer den."""
        _check_level(level)
        return cls._raw(level, _reduce(level, euler_phi(level), list(raw)), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- representation plumbing ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(other, 1)
        return None

    def raise_level(self, new_level: int) -> "CyclotomicNumber":
        if new_level == self.level:
            return self
        if new_level % self.level:
            raise ValueError(f"{self.level} does not divide {new_level}")
        _check_level(new_level)
        raw = _place([0] * new_level, self.num, new_level // self.level)
        # Z[zeta_level] = Q(zeta_level) & Z[zeta_new], so the content is kept
        num = _reduce(new_level, euler_phi(new_level), raw)
        return CyclotomicNumber._raw(new_level, num, self.den)

    def lower_level(self, new_level: int) -> "CyclotomicNumber":
        """Rewrite at a divisor level; ValueError if the value is not in the
        smaller field."""
        if new_level == self.level:
            return self
        if self.level % new_level:
            raise ValueError(f"{new_level} does not divide {self.level}")
        cols = [
            CyclotomicNumber.zeta(new_level, j).raise_level(self.level).coeffs
            for j in range(euler_phi(new_level))
        ]
        mat = [[col[i] for col in cols] for i in range(euler_phi(self.level))]
        try:
            sol = linalg.solve(mat, list(self.coeffs))
        except ValueError as exc:
            raise ValueError(f"value is not in Q(zeta_{new_level})") from exc
        return CyclotomicNumber(new_level, sol)

    def _align(self, other: "CyclotomicNumber"):
        n = lcm(self.level, other.level)
        return self.raise_level(n), other.raise_level(n)

    # -- ring and field operations ----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._align(o)
        da, db = a.den, b.den
        if da == db:
            num = tuple(x + y for x, y in zip(a.num, b.num))
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            num = tuple(x * fa + y * fb for x, y in zip(a.num, b.num))
            da *= fa
        return CyclotomicNumber._raw(a.level, num, da)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return CyclotomicNumber._raw(self.level, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber._raw(
                self.level, tuple(c * other.numerator for c in self.num), self.den * other.denominator
            )
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._align(other)
        return CyclotomicNumber._raw(a.level, _product(a.level, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x via the product of the nontrivial Galois conjugates divided by
        the norm, taken on the integer numerator by `_adjugate`. Unlike a
        rational-coefficient Euclidean algorithm this has no intermediate
        coefficient blowup at high degree."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.is_rational():
            return CyclotomicNumber.rational(Fraction(self.den, self.num[0]), self.level)
        n = self.level
        if self.num.count(0) == len(self.num) - 1:
            # (c/den) zeta^k has the inverse (den/c) zeta^(n-k)
            k, c = next((k, c) for k, c in enumerate(self.num) if c)
            raw = [0] * n
            raw[n - k] = self.den if c > 0 else -self.den
            result = CyclotomicNumber.from_powers(n, raw, abs(c))
        else:
            # (num / den)^-1 = den * conj / N
            conj, norm = _adjugate(n, self.num)
            scale = self.den if norm > 0 else -self.den
            result = CyclotomicNumber._raw(n, tuple(c * scale for c in conj), abs(norm))
        if not (result * self).is_one():
            raise ArithmeticError("inverse verification failed")
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero in a cyclotomic field")
            return self * (Fraction(1) / other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, e: int):
        e = as_int(e)
        if e < 0:
            return self.inverse() ** (-e)
        result = CyclotomicNumber.rational(1, self.level)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- Galois action and traces -----------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply the automorphism zeta -> zeta^k; k must be a unit mod level."""
        n = self.level
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit mod {n}")
        # an automorphism of Z[zeta_n] keeps the content
        return CyclotomicNumber._raw(n, _conjugate(n, self.num, k), self.den)

    def trace_to_rational(self) -> Fraction:
        """Trace down to Q."""
        table = _trace_table(self.level)
        return Fraction(sum(c * t for c, t in zip(self.num, table)), self.den)

    def norm_to_rational(self) -> Fraction:
        """Norm down to Q: the norm of the numerator from `_adjugate`, over
        den^phi."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(_adjugate(self.level, self.num)[1], self.den ** len(self.num))

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True iff the value lies in Z[zeta_n] (the full ring of integers)."""
        return self.den == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.level == other.level:
            return self.num == other.num and self.den == other.den
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # values at different levels compare equal; not hashable

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*z{self.level}")
                else:
                    terms.append(f"{c}*z{self.level}^{i}")
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }


def compatible_root(n: int, ambient: int) -> CyclotomicNumber:
    """zeta_n presented inside Q(zeta_ambient), i.e. zeta_ambient^(ambient/n)."""
    if ambient % n:
        raise ValueError(f"{n} does not divide {ambient}")
    return CyclotomicNumber.zeta(ambient, ambient // n)


@lru_cache(maxsize=None)
def prime_element_above(ell: int, level: int) -> "CyclotomicNumber":
    """A generator of a prime ideal over ell in Z[zeta_level], i.e. an
    integral element of norm +/- ell, found by bounded search over small
    coefficient vectors. Requires ell to split completely (ell = 1 mod level),
    which makes the residue degree 1; desk-scale class numbers are trivial so
    a generator of small height exists.

    The primes over ell are (ell, zeta - r) for the primitive level-th roots
    of unity r mod ell, so ell divides N(x) exactly when x(r) = 0 mod ell for
    one of them. A candidate that fails this test cannot have norm +/- ell,
    and only the others have their norm computed."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if level == 1:
        return CyclotomicNumber.rational(ell, 1)
    if ell % level != 1:
        raise ValueError(f"{ell} is not 1 mod {level}; no degree-one prime")
    phi = euler_phi(level)
    # the powers r^i, i < phi, of each primitive level-th root r = z^k mod ell
    z = pow(primitive_root(ell), (ell - 1) // level, ell)
    powers = [[pow(z, k * i, ell) for i in range(phi)] for k in _nontrivial_units(level) + (1,)]
    import itertools

    for height in range(1, ell + 1):
        for coeffs in itertools.product(range(-height, height + 1), repeat=phi):
            if max(abs(c) for c in coeffs) != height:
                continue
            if all(sum(map(operator.mul, coeffs, pw)) % ell for pw in powers):
                continue
            if abs(_adjugate(level, coeffs)[1]) == ell:
                return CyclotomicNumber._raw(level, coeffs)
    raise ArithmeticError(f"no small generator of a prime over {ell} at level {level}")


def trace_to_subfield(x: CyclotomicNumber, subgroup_generators) -> CyclotomicNumber:
    """Sum of sigma_k(x), placed once per k and reduced once, over the
    subgroup of (Z/level)^x generated by the given residues, which fixes it."""
    raw = [0] * x.level
    for k in subgroup_closure(tuple(subgroup_generators), x.level):
        _place(raw, x.num, k)
    return CyclotomicNumber.from_powers(x.level, raw, x.den)
