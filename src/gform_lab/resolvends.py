"""Resolvends of explicit Galois-algebra elements, their reduction mod the
group, inverse and product laws, and the prime-by-prime factorization check
of resolvent ratios.

An algebra element is a field element alpha of a period field K, in period
coordinates, carried by an identification h of Gal(K/Q) with a cyclic group
G; its function table s -> sigma^(h^-1(s))(alpha) shifts the coordinates and
its resolvend is sum_s a(s) s^{-1} over Q(zeta_f). The split algebra (trivial
h) is supported through the indicator of the identity, whose resolvend is 1.

The resolvend identity r(a) r(b)^[-1] = sum_s Tr((s.a) b) s^{-1} has a
cyclotomic side and a rational one. The left side is a group-ring product,
one packed convolution (`cyclotomic.convolve`). The right side, the trace
table, is read off the period coordinates and the integer trace Gram of the
field, which was verified against the cyclotomic trace when the field was
built: it takes no cyclotomic product and no Galois conjugate.
`is_self_dual` decides by both sides, which must agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .arith import is_prime, over_common_denominator
from .cyclotomic import CyclotomicNumber
from .group_ring import (
    GroupRingElement,
    NotInvertible,
    fourier,
    try_invert,
)
from .groups import FiniteAbelianGroup, GroupElement, group_tables
from .number_fields import HomToG, compose_fields
from .record import Record
from .stickelberger import EquivariantMap, det_kernel_basis, transpose_value


class AlgebraElement:
    """Element of the G-Galois algebra attached to a hom h: the period
    coordinates of alpha as integers `num` over one `den` > 0, in lowest terms
    (one coordinate, the value, for the split algebra); `split_identity` gives
    the identity-indicator of the split algebra (h trivial)."""

    __slots__ = ("hom", "group", "num", "den")

    def __init__(self, hom: HomToG | None, alpha, group: FiniteAbelianGroup | None = None):
        self.hom = hom
        if hom is None:
            if group is None:
                raise ValueError("the split algebra needs an explicit group")
            self.group = group
            q = Fraction(alpha)
            self.num, self.den = (q.numerator,), q.denominator
        else:
            self.group = hom.group
            a = alpha if isinstance(alpha, CyclotomicNumber) else CyclotomicNumber.rational(alpha, 1)
            # also the membership check
            self.num, self.den = over_common_denominator(hom.field.coordinates(a))

    @classmethod
    def _from_coordinates(cls, hom: HomToG, num, den: int) -> "AlgebraElement":
        """hom's element with integer period coordinates num over den > 0."""
        g = gcd(den, *num)
        out = cls.__new__(cls)
        out.hom, out.group = hom, hom.group
        out.num, out.den = tuple(x // g for x in num), den // g
        return out

    @classmethod
    def split_identity(cls, group: FiniteAbelianGroup) -> "AlgebraElement":
        return cls(None, 1, group=group)

    @property
    def alpha(self):
        """The field element, the value at the identity."""
        return self.value_at(self.group.identity())

    @property
    def is_split(self) -> bool:
        return self.hom is None

    def value_at(self, s: GroupElement):
        """The function-table value a(s)."""
        if self.is_split:
            return Fraction(self.num[0] if s.is_identity else 0, self.den)
        return self.hom.field.element(self._moved(s), self.den)

    def _moved(self, s: GroupElement) -> tuple[int, ...]:
        """The numerators of sigma^j(alpha), j = h^-1(s)."""
        return self.hom.field.sigma_coords(self.num, self.hom.galois_power(s))

    def act(self, s: GroupElement) -> "AlgebraElement":
        """The group action (s . a)(t) = a(ts); for field algebras this is the
        Galois translate of alpha."""
        if self.is_split:
            raise NotImplementedError("group translates of split elements are not stored")
        return AlgebraElement._from_coordinates(self.hom, self._moved(s), self.den)

    def _same_algebra(self, other: "AlgebraElement") -> None:
        if self.is_split and other.is_split:
            if self.group != other.group:
                raise ValueError("elements carry different groups")
            return
        if self.is_split or other.is_split or self.hom != other.hom:
            raise ValueError("elements live in different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        # a split element has hom None, which equals no HomToG
        return ((self.hom, self.group, self.num, self.den)
                == (other.hom, other.group, other.num, other.den))

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_split:
            return f"AlgebraElement(split over {self.group})"
        return f"AlgebraElement(conductor={self.hom.field.conductor}, alpha={self.alpha})"


def resolvend(a: AlgebraElement) -> GroupRingElement:
    """sum_s a(s) s^{-1} as a group-ring element with cyclotomic coefficients."""
    G = a.group
    coeffs = {}
    for s in G.elements():
        coeffs[s.inverse()] = a.value_at(s)
    return GroupRingElement(G, coeffs)


def is_normal_basis_generator(a: AlgebraElement) -> bool:
    """Whether the algebra is generated by a over the rational group ring,
    i.e. the resolvend r(a) is invertible (all character resolvents nonzero).
    Decided on the trace table T(a) = r(a) r(a)^[-1] (`_trace_table`), a
    rational group-ring element that is invertible exactly when r(a) is."""
    try:
        try_invert(_trace_table(a, a))
    except NotInvertible:
        return False
    return True


def _trace_table(a: AlgebraElement, b: AlgebraElement) -> GroupRingElement:
    """sum_s Tr((s.a) b) s^{-1}. In a field algebra, s.a = sigma^j(a) with
    j = h^-1(s), so the coefficient is sigma_coords(x, j) . (Gram y) for the
    period coordinates x of a and y of b and the integer trace Gram of the
    field, verified against the cyclotomic trace when the field was built.
    The split algebra is supported at the identity, where its trace is the
    value itself."""
    a._same_algebra(b)
    G = a.group
    if a.is_split:
        return GroupRingElement(G, {s.inverse(): Fraction(a.value_at(s) * b.alpha)
                                    for s in G.elements()})
    T = group_tables(G)
    gram_y = linalg.mat_vec(a.hom.field.gram, b.num)
    num = [0] * G.order
    for i, s in enumerate(T.elements):
        num[T.inverse[i]] = sum(u * v for u, v in zip(a._moved(s), gram_y))
    return GroupRingElement._rational(G, num, a.den * b.den)


def resolvend_pairing_identity(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Exact check of r(a) r(b)^[-1] = sum_s Tr((s.a) b) s^{-1}."""
    a._same_algebra(b)
    lhs = resolvend(a) * resolvend(b).involute()
    return lhs.demoted() == _trace_table(a, b)


def is_self_dual(a: AlgebraElement) -> bool:
    """Self-duality of a for the trace form, decided by two independent
    routes that must agree: the Gram route compares the trace table
    sum_s Tr((s.a) a) s^{-1} with 1, that is Tr((s.a) a) = delta(s), and the
    resolvend route checks r(a) r(a)^[-1] = 1 in the group ring. Raises
    AssertionError when they disagree."""
    one = GroupRingElement.one(a.group)
    by_gram = _trace_table(a, a) == one
    r = resolvend(a)
    by_resolvend = r * r.involute() == one
    if by_gram != by_resolvend:
        raise AssertionError("gram and resolvend self-duality routes disagree")
    return by_gram


def _with_resolvend(hom: HomToG, r: GroupRingElement) -> AlgebraElement:
    """The element of hom's algebra whose resolvend is r: its value at the
    identity, verified by recomputing the resolvend exactly."""
    out = AlgebraElement(hom, r.coefficient(hom.group.identity()))
    if resolvend(out) != r:
        raise ArithmeticError("resolvend does not define an algebra element")
    return out


def inverse_resolvend(a: AlgebraElement) -> AlgebraElement:
    """The element of the inverse-identified algebra whose resolvend is the
    inverse of the resolvend r(a). By the pairing identity r(a) r(a)^[-1] is
    the rational trace table T(a), so r(a)^-1 = r(a)^[-1] T(a)^-1 and only T
    is inverted, in QG; the product with r(a) is verified to be 1. Raises
    NotInvertible when r(a), equivalently T(a), is not invertible."""
    if a.is_split:
        return a
    r = resolvend(a)
    r_inv = r.involute() * try_invert(_trace_table(a, a))
    if not (r * r_inv == GroupRingElement.one(a.group)):
        raise ArithmeticError("resolvend inverse verification failed")
    return _with_resolvend(a.hom.inverse_hom(), r_inv)


def product_resolvend(a1: AlgebraElement, a2: AlgebraElement) -> AlgebraElement:
    """The element of the product-identified algebra whose resolvend is
    r(a1) r(a2); the two conductors must be coprime."""
    if a1.group != a2.group:
        raise ValueError("elements carry different groups")
    if a1.is_split:
        return a2
    if a2.is_split:
        return a1
    weights = a1.hom.product_weights(a2.hom)
    composite = compose_fields(a1.hom.field, a2.hom.field, weights=weights)
    h12 = HomToG(composite, a1.group, a1.group.element((1,)))
    return _with_resolvend(h12, resolvend(a1) * resolvend(a2))


class ReducedResolvend:
    """Canonical representative of a resolvend modulo right multiplication by
    group elements: the lexicographically minimal coefficient vector over the
    right orbit."""

    __slots__ = ("representative",)

    def __init__(self, r: GroupRingElement):
        candidates = [r.translate(i) for i in range(r.group.order)]
        self.representative = min(candidates, key=_orbit_key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedResolvend):
            return NotImplemented
        return self.representative == other.representative

    __hash__ = None

    def __repr__(self) -> str:
        return f"ReducedResolvend({self.representative})"


def _orbit_key(r: GroupRingElement):
    """The coefficient vectors of r scaled to one common denominator, which
    orders candidates as their Fraction coefficient vectors do: every
    candidate of an orbit has the same coefficients, so the same scale."""
    level = r.coefficient_level()
    values = []
    for s in r.group.elements():
        c = r.coefficient(s)
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.rational(c, 1)
        values.append(c.raise_level(level))
    den = lcm(*(c.den for c in values))
    return [tuple(x * (den // c.den) for x in c.num) for c in values]


def reduced_resolvend(a: AlgebraElement) -> ReducedResolvend:
    return ReducedResolvend(resolvend(a))


def resolvent_values(a: AlgebraElement) -> dict:
    """Character resolvents (Fourier values of the resolvend)."""
    return fourier(resolvend(a)).values


class FactorizationResult(Record):
    __slots__ = ("passed", "ell", "witness", "details")

    def __init__(self, passed: bool, ell: int, witness: GroupElement | None, details: tuple):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "details", details)


def stickelberger_factorization_check(
    a: AlgebraElement, ell: int | None = None, branch: GroupElement | None = None
) -> FactorizationResult:
    """Evaluate the reduced resolvend of a (a generator of the square root of
    the inverse different, prime conductor) on a kernel basis through its
    character resolvents, divide by the transpose value of the equivariant
    branch map at ell, and require the ratio and its inverse to be algebraic
    integers for every basis vector. Searches the branch element when none is
    given and reports the witness.

    The branch map carries a prime element over ell at the branch element and
    its conjugates along the twist orbit; a bare prime power would only match
    valuations at the single prime of Q(zeta) picked by one embedding.
    Passing the identity as branch means dividing by nothing, the unramified
    shape of the factorization.
    """
    if a.is_split:
        raise ValueError("the split algebra has no ramified prime to factor at")
    K = a.hom.field
    if ell is None:
        if len(K.ramified_primes) != 1:
            raise ValueError("field has several ramified primes; pass ell explicitly")
        ell = K.ramified_primes[0]
    if ell not in K.ramified_primes or not is_prime(ell):
        raise ValueError(f"{ell} is not a ramified prime of the field")
    G = a.group
    values = resolvent_values(a)
    basis = det_kernel_basis(G)
    resolvent_on_basis = []
    for psi in basis:
        acc = CyclotomicNumber.rational(1, 1)
        for chi, n in zip(G.characters(), psi.coeffs):
            if n:
                acc = acc * values[chi] ** n
        resolvent_on_basis.append(acc)

    if branch is not None:
        candidates = [branch]
    else:
        candidates = [s for s in G.elements() if not s.is_identity]
    details = []
    for s in candidates:
        branch_map = None if s.is_identity else EquivariantMap.prime_orbit_map(G, ell, s)
        ok = True
        for psi, rv in zip(basis, resolvent_on_basis):
            ratio = rv if branch_map is None else rv * transpose_value(branch_map, psi).inverse()
            unit = ratio.is_integral() and ratio.inverse().is_integral()
            details.append((tuple(s.exponents), tuple(psi.coeffs), unit))
            if not unit:
                ok = False
                break
        if ok:
            return FactorizationResult(True, ell, s, tuple(details))
    return FactorizationResult(False, ell, None, tuple(details))
