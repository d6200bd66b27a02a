"""Resolvends of explicit Galois-algebra elements, their reduction mod the
group, inverse and product laws, and the prime-by-prime factorization check
of resolvent ratios.

An algebra element is a field element alpha of a period field K, in period
coordinates, carried by an identification h of Gal(K/Q) with a cyclic group
G; its function table s -> sigma^(h^-1(s))(alpha) shifts the coordinates and
its resolvend is sum_s a(s) s^{-1} over Q(zeta_f). The split algebra (trivial
h) is supported through the indicator of the identity, whose resolvend is 1.

The resolvend identity r(a) r(b)^[-1] = sum_s Tr((s.a) b) s^{-1} has a
side in K[G] and a rational one. The right side, the trace table, is read
off the period coordinates and the integer trace Gram of the field, which
was verified against the cyclotomic trace when the field was built. The
left side is decided in F_q[G] (`_resolvend_product_is`): the field's
`ModularEmbedding` reduces O_K modulo a prime q = 1 mod f, which splits
completely, so O_K/qO_K = F_q^p through the p embeddings eta_t -> e_(t+k);
the periods are a Z-basis of O_K by the discriminant certificate, and q
exceeds twice a bound on the period coordinates of the difference of the
two sides, so agreement under every embedding is equality in K[G].
`is_self_dual` decides by both routes, which must agree; the pairing
identity and the inverse law (`inverse_resolvend`, which builds the inverse
element on period coordinates) are certified the same way, and
`product_resolvend` reads its product off the tensor basis of the compositum
and certifies it in integers. None of the four builds a value in Q(zeta_f);
only `resolvend` and the factorization check run on cyclotomic coefficients.
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
    """sum_s a(s) s^{-1} as a group-ring element with cyclotomic coefficients:
    alpha is built once, and a(s) = sigma^j(alpha), j = h^-1(s), is its
    Galois conjugate under zeta_f -> zeta_f^(g^j) for the field's generator g."""
    G = a.group
    if a.is_split:
        return GroupRingElement(G, {s.inverse(): a.value_at(s) for s in G.elements()})
    K = a.hom.field
    alpha = a.alpha
    coeffs = {}
    for s in G.elements():
        j = a.hom.galois_power(s)
        coeffs[s.inverse()] = alpha.galois(pow(K.generator, j, K.conductor)) if j else alpha
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


def _resolvend_product_is(a: AlgebraElement, b: AlgebraElement, target: GroupRingElement,
                          involute: bool) -> bool:
    """Whether r(a) r(b)^[-1] (involute) or r(a) r(b) is the rational
    group-ring element target. Split elements multiply their rational
    resolvends in QG. Elements of field algebras over one field and one
    group (the identifications may differ) are decided exactly in F_q[G]
    under each of the p embeddings phi_k of `ModularEmbedding`.

    With a = x/da and b = y/db on integer period coordinates and
    target = t/dt, the coefficient at u of dt (da db (left - target)) is an
    element X_u of O_K, and phi_k(X_u) is its image mod q, computed from
    phi_k(sigma^m x) = sum_t x_t e_(t+k+m). Each coordinate of a product of
    integer x' and y' is at most table_bound |x'|_1 |y'|_1, so the
    coordinates of X_u are at most
    B = dt |G| table_bound |x|_1 |y|_1 + max|t| da db. The embedding is
    taken with q > 2B (`PeriodField.modular_embedding` takes a larger q or
    raises), so phi_k(X_u) = 0 for every k exactly when X_u = 0."""
    if a.is_split:
        rb = resolvend(b)
        return resolvend(a) * (rb.involute() if involute else rb) == target
    K, G = a.hom.field, a.group
    if b.is_split or b.hom.field is not K or b.group != G:
        raise ValueError("elements live over different fields or groups")
    p = K.degree
    bound = (target.den * G.order * K.table_bound * sum(map(abs, a.num)) * sum(map(abs, b.num))
             + max(map(abs, target.num)) * a.den * b.den)
    emb = K.modular_embedding(bound)
    q = emb.modulus
    xs, ys = emb.images(a.num), emb.images(b.num)
    T = group_tables(G)
    ja = [a.hom.galois_power(s) for s in T.elements]
    jb = [b.hom.galois_power(s) for s in T.elements]
    # where a(s) and b(s) sit: at s^-1 in r(a) and r(b), at s in r(b)^[-1]
    at_a, at_b = T.inverse, (range(len(jb)) if involute else T.inverse)
    rhs = [c * a.den * b.den for c in target.num]
    for k in range(p):
        # the integer convolution of GroupRingElement.__mul__, on residues
        acc = [0] * len(rhs)
        yk = [(l, ys[(k + j) % p]) for l, j in zip(at_b, jb)]
        for i, j in zip(at_a, ja):
            x, row = xs[(k + j) % p], T.prod[i]
            for l, y in yk:
                acc[row[l]] += x * y
        if any((c * target.den - r) % q for c, r in zip(acc, rhs)):
            return False
    return True


def resolvend_pairing_identity(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Exact check of r(a) r(b)^[-1] = sum_s Tr((s.a) b) s^{-1}. The right
    side is the trace table from the integer Gram (`_trace_table`); the left
    side is decided exactly in F_q[G] (`_resolvend_product_is`), or in QG
    for the split algebra."""
    a._same_algebra(b)
    return _resolvend_product_is(a, b, _trace_table(a, b), involute=True)


def is_self_dual(a: AlgebraElement) -> bool:
    """Self-duality of a for the trace form, decided by two independent
    routes that must agree: the Gram route compares the trace table
    sum_s Tr((s.a) a) s^{-1} with 1, that is Tr((s.a) a) = delta(s), and the
    resolvend route checks r(a) r(a)^[-1] = 1, exactly in F_q[G]
    (`_resolvend_product_is`), or in QG for the split algebra. Raises
    AssertionError when they disagree."""
    one = GroupRingElement.one(a.group)
    by_gram = _trace_table(a, a) == one
    by_resolvend = _resolvend_product_is(a, a, one, involute=True)
    if by_gram != by_resolvend:
        raise AssertionError("gram and resolvend self-duality routes disagree")
    return by_gram


def inverse_resolvend(a: AlgebraElement) -> AlgebraElement:
    """The element of the inverse-identified algebra whose resolvend is the
    inverse of the resolvend r(a). By the pairing identity r(a) r(a)^[-1] is
    the rational trace table T(a), so r(a)^-1 = r(a)^[-1] t for t = T(a)^-1,
    and only T is inverted, in QG. The value at the identity of
    r(a)^[-1] t is alpha' = sum_g t_(g^-1) sigma^j(g)(alpha), built on
    period coordinates; r(a) r(alpha') = 1 is then certified exactly in
    F_q[G] (`_resolvend_product_is`), which proves that alpha' has the
    inverse resolvend. A split c has the inverse 1/c. Raises NotInvertible
    when r(a), equivalently T(a), is not invertible."""
    if a.is_split:
        if not a.num[0]:
            raise NotInvertible("the split zero has no inverse")
        inverse = AlgebraElement(None, Fraction(a.den, a.num[0]), group=a.group)
        return a if inverse == a else inverse
    t = try_invert(_trace_table(a, a))
    num = [0] * len(a.num)
    # the involute of t has t_(g^-1) at g
    for g, c in zip(a.group.elements(), t.involute().num):
        if c:
            num = [x + c * y for x, y in zip(num, a._moved(g))]
    out = AlgebraElement._from_coordinates(a.hom.inverse_hom(), num, a.den * t.den)
    if not _resolvend_product_is(a, out, GroupRingElement.one(a.group), involute=False):
        raise ArithmeticError("resolvend inverse verification failed")
    return out


def product_resolvend(a1: AlgebraElement, a2: AlgebraElement) -> AlgebraElement:
    """The element of the product-identified algebra whose resolvend is
    r(a1) r(a2), for coprime conductors; a split factor c has resolvend c.
    K12 is cut out by u1 chi1 + u2 chi2, (u1, u2) = `product_weights`. The
    eta1_a eta2_b are a Q-basis of K1K2 (Washington, GTM 83, ch. 3-4); by the
    CRT each is a sum of zeta_f^(f2 y1 + f1 y2), chi1(y1) = a, chi2(y2) = b,
    in the coset t = u1 (a + c1) + u2 (b + c2) of K12, c1 = chi1(f2),
    c2 = chi2(f1), so eta12_t is the sum over line t. For a1 = x/d1 and
    a2 = y/d2 the coefficient of r(a1) r(a2) at s^-1, sum_r a1(r) a2(r^-1 s),
    has the tensor coordinates sum_r x_(a - j1(r)) y_(b - j2(r^-1 s)) over
    d1 d2 (j = `galois_power`). Certificate, in integers: the lines are the
    cosets of K12 at the CRT points, and for every s these coordinates are
    the line lift of sigma12^(j12(s))(alpha12), which fixes alpha12 and
    checks h12 = h1 h2; else ArithmeticError. No Q(zeta_f) value is built."""
    G = a1.group
    if G != a2.group:
        raise ValueError("elements carry different groups")
    if a1.is_split or a2.is_split:
        c, a = (a1, a2) if a1.is_split else (a2, a1)
        if c == AlgebraElement.split_identity(G):
            return a
        (n,), d = c.num, c.den
        if a.is_split:
            return AlgebraElement(None, Fraction(n * a.num[0], d * a.den), group=G)
        return AlgebraElement._from_coordinates(a.hom, [n * x for x in a.num], d * a.den)
    K1, K2 = a1.hom.field, a2.hom.field
    u1, u2 = a1.hom.product_weights(a2.hom)
    K12 = compose_fields(K1, K2, weights=(u1, u2))
    p, f1, f2 = K12.degree, K1.conductor, K2.conductor
    c1, c2 = K1.character[f2 % f1], K2.character[f1 % f2]
    line = [(u1 * (a + c1) + u2 * (b + c2)) % p for a in range(p) for b in range(p)]
    if line != [K12.character[(f2 * y1 + f1 * y2) % (f1 * f2)]
                for y1 in K1.cosets for y2 in K2.cosets]:
        raise ArithmeticError("the lines are not the cosets of the composite")
    h12, num = HomToG(K12, G, G.element((1,))), {}
    for s in G.elements():
        moved = [(a1._moved(r), a2._moved(r.inverse() * s)) for r in G.elements()]
        tensor = [sum(x[a] * y[b] for x, y in moved) for a in range(p) for b in range(p)]
        # sigma12^j(alpha12) lifts to alpha12_(t - j) on line t
        j = h12.galois_power(s)
        for c, t in zip(tensor, line):
            if num.setdefault((t - j) % p, c) != c:
                raise ArithmeticError("resolvend product is not an element of the composite")
    return AlgebraElement._from_coordinates(h12, [num[t] for t in range(p)], a1.den * a2.den)


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
