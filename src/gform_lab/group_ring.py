"""Group algebras RG over exact coefficient rings.

Coefficients are Fractions or CyclotomicNumbers (ints are coerced to
Fractions); storage is sparse and canonical, so equality is structural.
The involution sends each group element to its inverse, and the character
(Fourier) transform turns convolution into pointwise multiplication, which
is how invertibility is decided. A regular-representation linear solve is
kept alongside as an independent oracle.

`try_invert` picks its route from the coefficients. A rational element
(every coefficient a Fraction) takes the orbit route: QG splits as a product
of fields Q(zeta_d), one per rational orbit of characters (Perlis-Walker),
and the Fourier values along an orbit are Galois conjugates. So it takes one
Fourier value per orbit, at level d = ord(chi), inverts it once, and returns
to QG through traces Tr_{Q(zeta_d)/Q}. An element with a CyclotomicNumber
coefficient takes the per-character route (`fourier`, one inverse per
character, `fourier_inverse`), because its Fourier values need not be
conjugate. Both routes verify the inverse by multiplying back. Products of
rational elements run on integer numerators over one common denominator.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from . import linalg
from .arith import euler_phi
from .cyclotomic import CyclotomicNumber, _trace_table
from .groups import Character, FiniteAbelianGroup, GroupElement, GroupSpecError, group_tables


class NotInvertible(ArithmeticError):
    """The element has no inverse; carries a vanishing character when known."""

    def __init__(self, message: str, character: Character | None = None):
        super().__init__(message)
        self.character = character


def _coeff(c):
    if isinstance(c, (CyclotomicNumber, Fraction)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, CyclotomicNumber) else c == 0


def _demote(c):
    """CyclotomicNumber with rational value -> Fraction."""
    if isinstance(c, CyclotomicNumber) and c.is_rational():
        return c.to_rational()
    return c


def _coeff_is_integral(c) -> bool:
    if isinstance(c, CyclotomicNumber):
        return c.is_integral()
    return c.denominator == 1


class GroupRingElement:
    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, coeffs):
        cleaned = {}
        for s, c in dict(coeffs).items():
            if not isinstance(s, GroupElement) or s.group != group:
                raise GroupSpecError("coefficient keyed by a foreign group element")
            c = _coeff(c)
            if not _is_zero(c):
                cleaned[s] = c
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, *_):
        raise AttributeError("GroupRingElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def one(cls, group):
        return cls(group, {group.identity(): Fraction(1)})

    @classmethod
    def scalar(cls, group, c):
        return cls(group, {group.identity(): c})

    @classmethod
    def from_element(cls, s: GroupElement, c=1):
        return cls(s.group, {s: c})

    # -- basic structure -------------------------------------------------------

    def coefficient(self, s: GroupElement):
        return self.coeffs.get(s, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(not isinstance(c, CyclotomicNumber) for c in self.coeffs.values())

    def is_integral(self) -> bool:
        return all(_coeff_is_integral(c) for c in self.coeffs.values())

    def coefficient_level(self) -> int:
        out = 1
        for c in self.coeffs.values():
            if isinstance(c, CyclotomicNumber):
                out = lcm(out, c.level)
        return out

    def map_coefficients(self, fn) -> "GroupRingElement":
        return GroupRingElement(self.group, {s: fn(c) for s, c in self.coeffs.items()})

    def demoted(self) -> "GroupRingElement":
        return self.map_coefficients(_demote)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise GroupSpecError("group mismatch in group-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + c
        return GroupRingElement(self.group, out)

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
        return GroupRingElement(self.group, {s: -c for s, c in self.coeffs.items()})

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
        T = group_tables(self.group)
        if self.is_rational() and other.is_rational():
            da, a = _integer_terms(self, T)
            db, b = _integer_terms(other, T)
            acc = [0] * len(T.elements)
            for i, c in a:
                row = T.prod[i]
                for j, d in b:
                    acc[row[j]] += c * d
            den = da * db
            return GroupRingElement(
                self.group, {s: Fraction(v, den) for s, v in zip(T.elements, acc)}
            )
        index = T.element_index
        b = [(index[t], d) for t, d in other.coeffs.items()]
        out = {}
        for s, c in self.coeffs.items():
            row = T.prod[index[s]]
            for j, d in b:
                key = row[j]
                prod = c * d
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return GroupRingElement(self.group, {T.elements[k]: c for k, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int):
        e = int(e)
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

    def involute(self) -> "GroupRingElement":
        """Coefficient at s moves to s^{-1}; an involution, and for abelian G a
        ring automorphism."""
        return GroupRingElement(self.group, {s.inverse(): c for s, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.group != other.group:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[s] == other.coeffs[s] for s in self.coeffs)

    __hash__ = None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].exponents)
        return " + ".join(f"{c}*{s}" for s, c in items)

    __repr__ = __str__

    def to_json(self) -> dict:
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].exponents)
        terms = []
        for s, c in items:
            if isinstance(c, CyclotomicNumber):
                coeff = c.to_json()
            else:
                coeff = f"{c.numerator}/{c.denominator}"
            terms.append({"element": list(s.exponents), "coeff": coeff})
        return {"group": list(self.group.invariant_factors), "terms": terms}


def _integer_terms(x: GroupRingElement, T) -> tuple[int, list[tuple[int, int]]]:
    """(den, [(element index, integer numerator)]) for a rational element:
    x = sum (numerator / den) * elements[index]."""
    den = lcm(*(c.denominator for c in x.coeffs.values()))
    index = T.element_index
    return den, [(index[s], c.numerator * (den // c.denominator)) for s, c in x.coeffs.items()]


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

    def pointwise_mul(self, other: "FourierVector") -> "FourierVector":
        vals = {chi: self.values[chi] * other.values[chi] for chi in self.values}
        return FourierVector(self.group, lcm(self.level, other.level), vals)


def _zeta_powers(m: int, level: int) -> list[CyclotomicNumber]:
    z = [CyclotomicNumber.zeta(level, (level // m) * e) for e in range(m)]
    return z


def fourier(gamma: GroupRingElement) -> FourierVector:
    """Exact character transform; values live in Q(zeta_L) with
    L = lcm(exp(G), coefficient levels)."""
    G = gamma.group
    T = group_tables(G)
    level = lcm(G.exponent, gamma.coefficient_level())
    roots = _zeta_powers(G.exponent, level)
    terms = [(T.element_index[s], c) for s, c in gamma.coeffs.items()]
    values = {}
    for chi, exps in zip(T.characters, T.value_exponents):
        acc = CyclotomicNumber.rational(0, level)
        for i, c in terms:
            acc = acc + roots[exps[i]] * c
        values[chi] = acc
    return FourierVector(G, level, values)


def fourier_inverse(vec: FourierVector) -> GroupRingElement:
    """Inverse transform (division by |G|); rational coefficients are demoted
    back to Fractions so round trips are structural identities."""
    G = vec.group
    T = group_tables(G)
    m = G.exponent
    level = vec.level
    roots = _zeta_powers(m, level)
    terms = [(T.value_exponents[T.character_index[chi]], v) for chi, v in vec.values.items()]
    coeffs = {}
    for i, s in enumerate(T.elements):
        acc = CyclotomicNumber.rational(0, level)
        for exps, v in terms:
            # chi(s^-1) = zeta_m^(-e)
            acc = acc + roots[-exps[i] % m] * v
        coeffs[s] = _demote(acc * Fraction(1, G.order))
    return GroupRingElement(G, coeffs)


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


def _invert_by_orbits(gamma: GroupRingElement) -> GroupRingElement:
    """For rational gamma: the Fourier value at the representative chi of
    each orbit, an element of Q(zeta_d) with d = ord(chi), is inverted once,
    to w; the inverse has coefficients
    c_s = (1/|G|) sum over orbits of Tr_{Q(zeta_d)/Q}(chi(s)^-1 * w),
    because the values at the other members chi^k of the orbit are the
    conjugates sigma_k(w)."""
    G = gamma.group
    T = group_tables(G)
    den, terms = _integer_terms(gamma, T)
    values = []
    for rep, d in T.orbits:
        # chi(s) = zeta_m^e with (m/d) | e, i.e. zeta_d^(e/(m/d))
        step = G.exponent // d
        exps = T.value_exponents[rep]
        raw = [0] * d
        for i, c in terms:
            raw[exps[i] // step] += c
        value = CyclotomicNumber.from_powers(d, raw, den)
        if value.is_zero():
            chi = T.characters[rep]
            raise NotInvertible(f"Fourier value vanishes at {chi}", character=chi)
        values.append((step, exps, value))
    inverses = [(step, exps, value.inverse()) for step, exps, value in values]
    common = lcm(*(w.den for _, _, w in inverses))
    acc = [0] * G.order
    for step, exps, w in inverses:
        # traces[k] = (common / w.den) * sum_j w.num[j] * Tr(zeta_d^(j-k))
        #           = common * Tr(zeta_d^-k * w)
        d, table, scale = w.level, _trace_table(w.level), common // w.den
        traces = [
            scale * sum(c * table[(j - k) % d] for j, c in enumerate(w.num)) for k in range(d)
        ]
        for i, e in enumerate(exps):
            acc[i] += traces[e // step]
    total = common * G.order
    return GroupRingElement(G, {s: Fraction(a, total) for s, a in zip(T.elements, acc)})


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
    representation over Q by one exact integer elimination. Coefficients in
    Q(zeta_L), L the coefficient level, enter by restriction of scalars:
    each becomes the phi(L) x phi(L) matrix of multiplication by it on the
    power basis, so the system has |G| phi(L) unknowns (|G| for a rational
    gamma)."""
    G = gamma.group
    T = group_tables(G)
    level = gamma.coefficient_level()
    phi = euler_phi(level)
    size = len(T.elements) * phi
    mat = [[0] * size for _ in range(size)]
    for s, c in gamma.coeffs.items():
        # column k of the block of c: the coordinates of c * zeta^k
        if isinstance(c, CyclotomicNumber):
            cols = [(c * CyclotomicNumber.zeta(level, k)).coeffs for k in range(phi)]
        else:
            cols = [[c if i == k else 0 for i in range(phi)] for k in range(phi)]
        block = list(zip(*cols))
        # gamma * t_j has c at s t_j = elements[k]
        for j, k in enumerate(T.prod[T.element_index[s]]):
            for i, block_row in enumerate(block):
                mat[k * phi + i][j * phi : (j + 1) * phi] = block_row
    rhs = [0] * size
    rhs[0] = 1  # zeta^0 times the identity, first in enumeration order
    try:
        x = linalg.solve(mat, rhs)
    except ValueError as exc:
        raise NotInvertible("regular representation is singular") from exc
    if phi == 1:
        coeffs = zip(T.elements, x)
    else:
        blocks = (x[j * phi : (j + 1) * phi] for j in range(len(T.elements)))
        coeffs = ((s, _demote(CyclotomicNumber(level, b))) for s, b in zip(T.elements, blocks))
    out = GroupRingElement(G, coeffs)
    if not (out * gamma == GroupRingElement.one(G)):
        raise ArithmeticError("linear-solve inverse verification failed")
    return out
