"""Group algebras RG over exact coefficient rings, stored densely by index.

An element is a tuple over the elements of `group_tables(G)` (identity
first, then exponent order). A rational element holds integer numerators
`num` over one positive `den` in lowest terms; one with a nonzero
CyclotomicNumber coefficient holds its coefficients in `values` instead, and
stays non-rational until `demoted()`. Both forms are canonical, so equality
is structural. The constructor takes a dict {GroupElement: coefficient}, the
one place foreign keys are checked; `coeffs` is the derived dict of nonzero
coefficients. Arithmetic runs on indices through the `group_tables` product
table and inverse permutation. A product of two rational elements is an
integer convolution of their numerators; any other product is one packed
convolution of the coefficients (`cyclotomic.convolve`), which reduces each
output coefficient once. The character (Fourier) transform and its inverse
are one kernel (`_character_sums`): each coefficient is placed at its root
of unity chi(s)^(+-1) = zeta_m^(+-e), and each value is reduced once. The
transform turns convolution into pointwise multiplication, which decides
invertibility; a regular-representation linear solve is an independent oracle.

`try_invert` picks its route from the storage. A rational element takes the
orbit route: QG splits as a product of fields Q(zeta_d), one per rational
orbit of characters (Perlis-Walker), and the Fourier values along an orbit
are Galois conjugates. So it inverts one Fourier value per orbit, at level
d = ord(chi), and returns to QG through traces Tr_{Q(zeta_d)/Q}. The route
runs on integer numerators from end to end: each Fourier sum is reduced
modulo Phi_d, `cyclotomic._adjugate` gives the product conj of its
nontrivial conjugates and its norm N = conj * x, verified to be rational,
so that x^-1 = conj / N, and the traces are integer dot products with the
trace table. It builds no Fraction and no CyclotomicNumber. Any other
element takes the per-character route (`fourier`, one inverse per
character, `fourier_inverse`). Both routes verify the inverse by
multiplying back. The regular-representation oracle fills its integer
matrix for a rational element straight from the product table.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from . import linalg
from .arith import as_int, euler_phi, over_common_denominator
from .cyclotomic import (CyclotomicNumber, _adjugate, _check_level, _place, _reduce,
                         _scaled_terms, _trace_table, convolve)
from .groups import Character, FiniteAbelianGroup, GroupElement, GroupSpecError, group_tables


class NotInvertible(ArithmeticError):
    """The element has no inverse; carries a vanishing character when known."""

    def __init__(self, message: str, character: Character | None = None):
        super().__init__(message)
        self.character = character


def _demote(c):
    """CyclotomicNumber with rational value -> Fraction."""
    if isinstance(c, CyclotomicNumber) and c.is_rational():
        return c.to_rational()
    return c


def _normal_form(values) -> tuple:
    """(num, den, None) if every coefficient is rational, a zero
    CyclotomicNumber included, else (None, None, coefficient tuple)."""
    for c in values:
        if not isinstance(c, (int, Fraction, CyclotomicNumber)):
            raise TypeError(f"unsupported coefficient type {type(c).__name__}")
    out = [0 if isinstance(c, CyclotomicNumber) and c.is_zero() else c for c in values]
    if any(isinstance(c, CyclotomicNumber) for c in out):
        return None, None, tuple(Fraction(c) if isinstance(c, int) else c for c in out)
    num, den = over_common_denominator(out)
    return num, den, None


class GroupRingElement:
    __slots__ = ("group", "num", "den", "values")

    def __init__(self, group: FiniteAbelianGroup, coeffs):
        """From {GroupElement of group: int, Fraction or CyclotomicNumber}."""
        index = group_tables(group).element_index
        values = [0] * len(index)
        for s, c in (coeffs if isinstance(coeffs, dict) else dict(coeffs)).items():
            if (i := index.get(s)) is None:
                raise GroupSpecError("coefficient keyed by a foreign group element")
            values[i] = c
        self._set(group, *_normal_form(values))

    def _set(self, *slots):
        for name, v in zip(self.__slots__, slots):
            object.__setattr__(self, name, v)
        return self

    def __setattr__(self, *_):
        raise AttributeError("GroupRingElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _dense(cls, group, values) -> "GroupRingElement":
        """From one coefficient per element index."""
        return object.__new__(cls)._set(group, *_normal_form(values))

    @classmethod
    def _rational(cls, group, num, den: int = 1) -> "GroupRingElement":
        """From integer numerators per element index over den > 0."""
        g = gcd(den, *num)
        num = tuple(num) if g == 1 else tuple(x // g for x in num)
        return object.__new__(cls)._set(group, num, den // g, None)

    @classmethod
    def zero(cls, group):
        return cls._rational(group, (0,) * group.order)

    @classmethod
    def one(cls, group):
        return cls._rational(group, (1,) + (0,) * (group.order - 1))

    @classmethod
    def scalar(cls, group, c):
        return cls._dense(group, [c] + [0] * (group.order - 1))

    @classmethod
    def from_element(cls, s: GroupElement, c=1):
        return cls(s.group, {s: c})

    # -- basic structure -------------------------------------------------------

    def _coefficients(self) -> tuple:
        """Every coefficient, a Fraction or a CyclotomicNumber, in index order."""
        return self.values if self.num is None else tuple(Fraction(x, self.den) for x in self.num)

    def _terms(self):
        """(GroupElement, coefficient) for each nonzero coefficient, in index order."""
        return ((s, c) for s, c in zip(group_tables(self.group).elements, self._coefficients()) if c)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as a fresh {GroupElement: coefficient} dict."""
        return dict(self._terms())

    def coefficient(self, s: GroupElement):
        if (i := group_tables(self.group).element_index.get(s)) is None:
            raise GroupSpecError(f"{s!r} is not an element of {self.group}")
        return self.values[i] if self.num is None else Fraction(self.num[i], self.den)

    def is_zero(self) -> bool:
        return self.num is not None and not any(self.num)

    def is_rational(self) -> bool:
        return self.num is not None

    def is_integral(self) -> bool:
        return all(c.is_integral() if isinstance(c, CyclotomicNumber) else c.denominator == 1
                   for c in self._coefficients())

    def coefficient_level(self) -> int:
        return lcm(1, *(c.level for c in self.values or () if isinstance(c, CyclotomicNumber)))

    def map_coefficients(self, fn) -> "GroupRingElement":
        """fn applied to every nonzero coefficient."""
        return self._dense(self.group, [fn(c) if c else c for c in self._coefficients()])

    def demoted(self) -> "GroupRingElement":
        return self if self.num is not None else self.map_coefficients(_demote)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise GroupSpecError("group mismatch in group-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        pairs = zip(self._coefficients(), other._coefficients())
        return self._dense(self.group, [x + y for x, y in pairs])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __neg__(self):
        return self._dense(self.group, [-c for c in self._coefficients()])

    def _coerce(self, other):
        if isinstance(other, GroupRingElement):
            return other
        if isinstance(other, GroupElement):
            return GroupRingElement.from_element(other)
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return GroupRingElement.scalar(self.group, other)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        prod = group_tables(self.group).prod
        if self.num is not None and other.num is not None:
            b = [(j, d) for j, d in enumerate(other.num) if d]
            acc = [0] * len(prod)
            for i, c in enumerate(self.num):
                if c:
                    row = prod[i]
                    for j, d in b:
                        acc[row[j]] += c * d
            return self._rational(self.group, acc, self.den * other.den)
        return self._dense(self.group, convolve(self._coefficients(), other._coefficients(), prod))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        e = as_int(e)
        if e < 0:
            return try_invert(self) ** (-e)
        result = GroupRingElement.one(self.group)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _permuted(self, perm) -> "GroupRingElement":
        """The element whose coefficient at index k is this one's at perm[k];
        a permutation keeps the normal form, so nothing is recomputed."""
        num, values = self.num, self.values
        if num is not None:
            num = tuple(num[j] for j in perm)
        else:
            values = tuple(values[j] for j in perm)
        return object.__new__(GroupRingElement)._set(self.group, num, self.den, values)

    def involute(self) -> "GroupRingElement":
        """Coefficient at s moves to s^{-1}; an involution, and for abelian G a
        ring automorphism."""
        return self._permuted(group_tables(self.group).inverse)

    def translate(self, i: int) -> "GroupRingElement":
        """The product with t = elements[i] of `group_tables`: the coefficient
        at s moves to s*t, a permutation of the coefficients with no
        arithmetic."""
        T = group_tables(self.group)
        return self._permuted(T.prod[T.inverse[i]])

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.group != other.group:
            return False
        if self.num is not None and other.num is not None:
            return self.num == other.num and self.den == other.den
        return all(x == y for x, y in zip(self._coefficients(), other._coefficients()))

    __hash__ = None

    def __str__(self) -> str:
        return " + ".join(f"{c}*{s}" for s, c in self._terms()) or "0"

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = []
        for s, c in self._terms():
            rational = not isinstance(c, CyclotomicNumber)
            coeff = f"{c.numerator}/{c.denominator}" if rational else c.to_json()
            terms.append({"element": list(s.exponents), "coeff": coeff})
        return {"group": list(self.group.invariant_factors), "terms": terms}


class FourierVector:
    """Character transform of a group-ring element: chi -> sum_s c_s chi(s)."""

    __slots__ = ("group", "level", "values")

    def __init__(self, group: FiniteAbelianGroup, level: int, values):
        self.group = group
        self.level = level
        self.values = dict(values)

    def __getitem__(self, chi: Character) -> CyclotomicNumber:
        return self.values[chi]

    def __eq__(self, other):
        return (
            isinstance(other, FourierVector)
            and self.group == other.group
            and self.values.keys() == other.values.keys()
            and all(self.values[k] == other.values[k] for k in self.values)
        )


def _character_sums(m: int, level: int, coeffs, rows, scale: int = 1):
    """(N, [sum_j coeffs[j] zeta_m^row[j] / scale for row in rows]) at
    N = lcm(m, level, every coefficient level), over one denominator."""
    terms, den = _scaled_terms(coeffs)
    n = lcm(m, level, *(t[2] for t in terms))
    _check_level(n)
    phi, step = euler_phi(n), n // m
    out = []
    for row in rows:
        raw = [0] * n
        for j, _, lv, v in terms:
            _place(raw, v, n // lv, step * row[j])
        out.append(CyclotomicNumber._raw(n, _reduce(n, phi, raw), den * scale))
    return n, out


def fourier(gamma: GroupRingElement) -> FourierVector:
    """Exact character transform; values live in Q(zeta_L) with
    L = lcm(exp(G), coefficient levels)."""
    G, T = gamma.group, group_tables(gamma.group)
    level, values = _character_sums(G.exponent, 1, gamma._coefficients(), T.value_exponents)
    return FourierVector(G, level, zip(T.characters, values))


def fourier_inverse(vec: FourierVector) -> GroupRingElement:
    """Inverse transform (division by |G|); rational coefficients are demoted
    back to Fractions so round trips are structural identities."""
    G, T = vec.group, group_tables(vec.group)
    exps = [T.value_exponents[T.character_index[chi]] for chi in vec.values]
    rows = [[-e[i] for e in exps] for i in range(G.order)]  # chi(s^-1) = zeta_m^(-e)
    _, values = _character_sums(G.exponent, vec.level, list(vec.values.values()), rows, G.order)
    return GroupRingElement._dense(G, [_demote(v) for v in values])


def try_invert(gamma: GroupRingElement) -> GroupRingElement:
    """Invert via the character transform; raises NotInvertible (carrying the
    first character, in `characters()` order, at which the Fourier value
    vanishes) when some Fourier value is zero. A rational gamma takes one
    Fourier value per rational character orbit, any other gamma one per
    character (see the module docstring). The product with the input is
    verified to be 1 before returning."""
    if gamma.is_rational():
        inv = _invert_by_orbits(gamma)
    else:
        inv = _invert_by_characters(gamma)
    if not (inv * gamma == GroupRingElement.one(gamma.group)):
        raise ArithmeticError("inverse verification failed")
    return inv


def _invert_by_characters(gamma: GroupRingElement) -> GroupRingElement:
    vec = fourier(gamma)
    inv_values = {}
    for chi, v in vec.values.items():
        if v.is_zero():
            raise NotInvertible(f"Fourier value vanishes at {chi}", character=chi)
        inv_values[chi] = v.inverse()
    return fourier_inverse(FourierVector(gamma.group, vec.level, inv_values))


@lru_cache(maxsize=None)
def _trace_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """rows[k][j] = Tr_{Q(zeta_d)/Q}(zeta_d^(j-k)) for k < d and j < phi(d):
    the trace of zeta_d^-k x is the dot product of row k with the numerator
    of x."""
    table = _trace_table(d)
    return tuple(tuple(table[(j - k) % d] for j in range(euler_phi(d))) for k in range(d))


def _invert_by_orbits(gamma: GroupRingElement) -> GroupRingElement:
    """For rational gamma = num / den: the Fourier value at the
    representative chi of each orbit, x / den with x in Z[zeta_d] and
    d = ord(chi), is inverted once, to w = den * conj / N for the adjugate
    conj of x and its norm N = conj * x; the inverse has coefficients
    c_s = (1/|G|) sum over orbits of Tr_{Q(zeta_d)/Q}(chi(s)^-1 * w),
    because the values at the other members chi^k of the orbit are the
    conjugates sigma_k(w). Everything runs on integer numerators."""
    G = gamma.group
    T = group_tables(G)
    terms = [(i, c) for i, c in enumerate(gamma.num) if c]
    inverses = []
    for rep, d in T.orbits:
        # chi(s) = zeta_m^e with (m/d) | e, i.e. zeta_d^(e/(m/d))
        step = G.exponent // d
        exps = T.value_exponents[rep]
        raw = [0] * d
        for i, c in terms:
            raw[exps[i] // step] += c
        x = _reduce(d, euler_phi(d), raw)
        if not any(x):
            chi = T.characters[rep]
            raise NotInvertible(f"Fourier value vanishes at {chi}", character=chi)
        # _adjugate verifies conj * x = N * 1 with N != 0
        conj, norm = _adjugate(d, x)
        inverses.append((step, exps, d, conj, norm))
    common = lcm(*(abs(norm) for *_, norm in inverses))
    acc = [0] * G.order
    for step, exps, d, conj, norm in inverses:
        # traces[k] = (common / N) * sum_j conj[j] * Tr(zeta_d^(j-k))
        #           = common * Tr(zeta_d^-k * conj / N)
        scale = common // norm
        traces = [scale * sum(map(mul, conj, row)) for row in _trace_rows(d)]
        for i, e in enumerate(exps):
            acc[i] += traces[e // step]
    den = gamma.den
    return GroupRingElement._rational(G, [den * a for a in acc], common * G.order)


def is_integral_unit(gamma: GroupRingElement) -> bool:
    """True iff gamma has integral coefficients and an integral inverse."""
    if not gamma.is_integral():
        return False
    try:
        inv = try_invert(gamma)
    except NotInvertible:
        return False
    return inv.is_integral()


class SelfDualityClass(enum.Enum):
    STRICT = "strict"  # gamma * gamma^[-1] = 1
    UNIT_SELF_DUAL = "unit_self_dual"  # gamma * gamma^[-1] an integral unit
    NEITHER = "neither"


def class_membership(gamma: GroupRingElement) -> SelfDualityClass:
    """Classify gamma by the self-duality of the lattice it generates: strict
    when gamma * gamma^[-1] = 1, unit-self-dual when that product is a unit of
    the integral group ring. Raises NotInvertible for non-units of FG."""
    try_invert(gamma)  # membership requires invertibility
    u = gamma * gamma.involute()
    if u == GroupRingElement.one(gamma.group):
        return SelfDualityClass.STRICT
    if is_integral_unit(u):
        return SelfDualityClass.UNIT_SELF_DUAL
    return SelfDualityClass.NEITHER


# ---------------------------------------------------------------------------
# regular representation oracle


def invert_by_linear_solve(gamma: GroupRingElement) -> GroupRingElement:
    """Independent inversion oracle: solve gamma * x = 1 in the regular
    representation over Q by one exact integer elimination. Column j of the
    matrix holds gamma * t_j, which has the coefficient of s at s t_j. A
    rational gamma enters as its |G| integer numerators, entry
    (prod[i][j], j) = num[i], against the right-hand side den * 1.
    Coefficients in Q(zeta_L), L the coefficient level, enter by restriction
    of scalars: each becomes the phi(L) x phi(L) matrix of multiplication by
    it on the power basis, so the system has |G| phi(L) unknowns."""
    G = gamma.group
    T = group_tables(G)
    n = len(T.elements)
    if gamma.is_rational():
        mat = [[0] * n for _ in range(n)]
        for c, row in zip(gamma.num, T.prod):
            if c:
                for j, k in enumerate(row):
                    mat[k][j] = c
        x, den = _solve_regular(mat, gamma.den)
        out = GroupRingElement._rational(G, x, den)
    else:
        level = gamma.coefficient_level()
        phi = euler_phi(level)
        mat = [[0] * (n * phi) for _ in range(n * phi)]
        for c, row in zip(gamma.values, T.prod):
            if not c:
                continue
            # column k of the block of c: the coordinates of c * zeta^k
            if isinstance(c, CyclotomicNumber):
                cols = [(c * CyclotomicNumber.zeta(level, k)).coeffs for k in range(phi)]
            else:
                cols = [[c if r == k else 0 for r in range(phi)] for k in range(phi)]
            block = list(zip(*cols))
            for j, k in enumerate(row):
                for r, block_row in enumerate(block):
                    mat[k * phi + r][j * phi : (j + 1) * phi] = block_row
        x, den = _solve_regular(mat, 1)
        out = GroupRingElement._dense(G, [
            _demote(CyclotomicNumber._raw(level, tuple(x[j * phi : (j + 1) * phi]), den))
            for j in range(n)])
    if not (out * gamma == GroupRingElement.one(G)):
        raise ArithmeticError("linear-solve inverse verification failed")
    return out


def _solve_regular(mat, scale: int) -> tuple[list[int], int]:
    """(numerators, den) of the x with mat @ x = scale * e_0, for e_0 the
    identity at zeta^0; NotInvertible when mat is singular."""
    rhs = [0] * len(mat)
    rhs[0] = scale
    try:
        return linalg._solve(mat, rhs)
    except ValueError as exc:
        raise NotInvertible("regular representation is singular") from exc
