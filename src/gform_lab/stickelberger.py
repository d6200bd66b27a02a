"""Centered character pairing, its lattice of integrality, and the transpose
action on equivariant maps.

For odd |G| every value chi(s) has a unique expression zeta_|s|^u with u in
the symmetric window [-(|s|-1)/2, (|s|-1)/2]. The pairing u/|s| extends
bilinearly to QG^ x QG; its linearization psi -> sum_s <psi,s> s is integral
exactly on the kernel of det: ZG^ -> G^, and precomposition with that map
turns a unit-valued equivariant function on G into a function on the kernel
lattice. All identities here are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .arith import as_int, euler_phi, unit_group_generators, units_mod
from .cyclotomic import CyclotomicNumber
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    GroupSpecError,
    group_tables,
)
from .record import Record


def _require_odd(group: FiniteAbelianGroup) -> None:
    if group.order % 2 == 0:
        raise GroupSpecError(f"{group} has even order; the centered pairing needs odd order")


def upsilon(chi: Character, s: GroupElement) -> int:
    """The unique integer u in [-(|s|-1)/2, (|s|-1)/2] with chi(s) = zeta_|s|^u."""
    _require_odd(chi.group)
    if chi.group != s.group:
        raise ValueError("character and element belong to different groups")
    T = group_tables(chi.group)
    return T.upsilon[T.character_index[chi]][T.element_index[s]]


def pairing_char(chi: Character, s: GroupElement) -> Fraction:
    """<chi, s> = upsilon(chi, s) / |s|."""
    return Fraction(upsilon(chi, s), s.order())


class DualLatticeElement(Record):
    """Integer vector over the characters of G (an element of ZG^), stored in
    the canonical character enumeration order."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, coeffs: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", tuple(as_int(c) for c in coeffs))
        if len(self.coeffs) != group.order:
            raise ValueError("coefficient vector does not match the dual group size")

    def __add__(self, other: "DualLatticeElement") -> "DualLatticeElement":
        return DualLatticeElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DualLatticeElement":
        return DualLatticeElement(self.group, tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "DualLatticeElement":
        k = as_int(k)
        return DualLatticeElement(self.group, tuple(k * a for a in self.coeffs))

    def det(self) -> Character:
        """prod chi^{n_chi} in the dual group."""
        G = self.group
        exps = [0] * G.rank
        for chi, n in zip(group_tables(G).characters, self.coeffs):
            for i, a in enumerate(chi.exponents):
                exps[i] += n * a
        return G.character(tuple(exps))

    def conjugate(self) -> "DualLatticeElement":
        """Precompose with chi -> chi^{-1} (the dual-side involution)."""
        conj = group_tables(self.group).conjugate
        return DualLatticeElement(self.group, tuple(self.coeffs[c] for c in conj))

    def galois_act(self, k: int) -> "DualLatticeElement":
        """Canonical action chi -> chi^k induced by zeta -> zeta^k."""
        G = self.group
        if gcd(k, G.exponent) != 1:
            raise ValueError(f"{k} is not a unit mod exp(G)")
        out = [0] * G.order
        for c, n in zip(group_tables(G).power(k), self.coeffs):
            out[c] += n
        return DualLatticeElement(G, tuple(out))


class StickelbergerVector(Record):
    """Rational vector over G (an element of QG), in enumeration order."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def coefficient(self, s: GroupElement) -> Fraction:
        return self.coeffs[group_tables(self.group).element_index[s]]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def twist(self, k: int) -> "StickelbergerVector":
        """Move mass along s -> s^{k^{-1}} (the inverse-cyclotomic action);
        k must be a unit mod exp(G)."""
        G = self.group
        out = [Fraction(0)] * G.order
        for i, c in zip(group_tables(G).power(pow(k, -1, G.exponent)), self.coeffs):
            out[i] += c
        return StickelbergerVector(G, tuple(out))

    def __add__(self, other):
        return StickelbergerVector(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rmul__(self, q) -> "StickelbergerVector":
        q = Fraction(q)
        return StickelbergerVector(self.group, tuple(q * a for a in self.coeffs))


def _image_numerators(group: FiniteAbelianGroup, coeffs) -> list[int]:
    """The integers sum_chi psi_chi * upsilon(chi, s), in element order, for
    the integer coefficients of psi: |s| times the coefficient <psi, s> of s
    in the Stickelberger image of psi."""
    _require_odd(group)
    return [sum(map(mul, coeffs, col)) for col in zip(*group_tables(group).upsilon)]


def _image_exponents(group: FiniteAbelianGroup, coeffs) -> list[int]:
    """The integer exponents n_s of the image sum_s n_s s of the psi with
    these integer coefficients, each numerator divided by |s| exactly; a
    ValueError when psi is outside the determinant kernel, where some
    division leaves a remainder."""
    out = []
    for a, o in zip(_image_numerators(group, coeffs), group_tables(group).orders):
        q, r = divmod(a, o)
        if r:
            raise ValueError("psi is outside the determinant kernel; exponents not integral")
        out.append(q)
    return out


def stickelberger_map(psi: DualLatticeElement) -> StickelbergerVector:
    """psi -> sum_s <psi, s> s as a rational vector over G: the numerators
    are summed as integers, then divided by |s| once per element."""
    orders = group_tables(psi.group).orders
    return StickelbergerVector(
        psi.group,
        tuple(Fraction(a, o) for a, o in zip(_image_numerators(psi.group, psi.coeffs), orders)),
    )


def det_kernel_basis(group: FiniteAbelianGroup) -> list[DualLatticeElement]:
    """Canonical basis (HNF rows) of the kernel of det: ZG^ -> G^.

    The kernel has full rank |G| and index |G| in ZG^; both facts are
    verified when the group's tables are first built.
    """
    return [DualLatticeElement(group, row) for row in group_tables(group).kernel_basis]


def integrality_check(psi: DualLatticeElement) -> bool:
    """Whether the Stickelberger image of psi is integral."""
    return stickelberger_map(psi).is_integral()


class IntegralityCertificate(Record):
    """The lattice of integrality of a group compared with its determinant
    kernel: `lattice` is the canonical basis of L_int, and `counterexample`
    is None exactly when L_int equals the kernel."""

    __slots__ = ("group", "lattice", "counterexample")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        lattice: tuple[tuple[int, ...], ...],
        counterexample: DualLatticeElement | None,
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        psi = self.counterexample
        if psi is None:
            return {"lattice_equals_kernel": True, "index": self.group.order}
        return {
            "lattice_equals_kernel": False,
            "counterexample": list(psi.coeffs),
            "integral": integrality_check(psi),
            "det_trivial": psi.det().is_trivial,
        }


def integrality_certificate(group: FiniteAbelianGroup) -> IntegralityCertificate:
    """Certify, for every psi in Z^n at once, that the Stickelberger image of
    psi is integral exactly when det(psi) = 1.

    The psi with integral image form the lattice L_int = {psi : sum_c psi_c *
    upsilon[c][i] = 0 mod |s_i| for every i}, the preimage of Z under the
    rows m*I and (m/|s_i|) * (upsilon column i) over m = exp(G). Its
    canonical basis is compared with `kernel_basis`, whose index |G| and
    det = 1 on every row are verified; canonical bases are equal exactly when
    the lattices are. When they differ, a basis row of one lies outside the
    other, and the first basis row of either on which integrality_check and
    det disagree is returned as the counterexample."""
    _require_odd(group)
    T = group_tables(group)
    n, m = group.order, group.exponent
    mat = [[m * int(i == j) for j in range(n)] for i in range(n)]
    for i, o in enumerate(T.orders):
        mat.append([row[i] * (m // o) for row in T.upsilon])
    rows, den = linalg.preimage_lattice(mat, m)
    if den != 1:
        raise ArithmeticError("lattice of integrality is not integral")
    lattice = tuple(tuple(row) for row in rows)
    if lattice == T.kernel_basis:
        return IntegralityCertificate(group, lattice, None)
    for row in lattice + T.kernel_basis:
        psi = DualLatticeElement(group, row)
        if integrality_check(psi) != psi.det().is_trivial:
            return IntegralityCertificate(group, lattice, psi)
    raise ArithmeticError("the lattices differ, but no basis row separates integrality from det = 1")


# ---------------------------------------------------------------------------
# equivariant maps and the transpose


class EquivariantMap:
    """Unit-valued map f on G, equivariant for the inverse-cyclotomic twist:
    f(s^(u^-1)) = sigma_u(f(s)) for every u in the acting residue group.

    Values live in a common cyclotomic level L, one per `group_tables`
    element index in `values`; the acting group is generated by residues
    modulo M = lcm(exp(G), L), acting on values through u mod L and on G
    through u mod exp(G), where it permutes the indices. Equivariance and
    nonvanishing are checked at construction.
    """

    def __init__(self, group: FiniteAbelianGroup, values, acting_generators=()):
        """values: {GroupElement: value} or one value per element index, each
        an int, a Fraction or a CyclotomicNumber."""
        T = group_tables(group)
        if isinstance(values, dict):
            values = [values[s] for s in T.elements]
        vals = [CyclotomicNumber.rational(v, 1) if isinstance(v, (int, Fraction)) else v
                for v in values]
        if len(vals) != group.order:
            raise ValueError(f"need {group.order} values, got {len(vals)}")
        level = lcm(1, *(v.level for v in vals))
        self.group = group
        self.level = level
        self.values = tuple(v.raise_level(level) for v in vals)
        m = group.exponent
        self.modulus = lcm(m, level)
        self.acting_generators = tuple(as_int(u) % self.modulus for u in acting_generators)
        for s, v in zip(T.elements, self.values):
            if v.is_zero():
                raise ValueError(f"map vanishes at {s}")
        for u in self.acting_generators:
            if gcd(u, self.modulus) != 1:
                raise ValueError(f"{u} is not a unit mod {self.modulus}")
            k = u % level if level > 1 else 1
            # twist[i] is the index of elements[i]^(u^-1)
            twist = T.power(pow(u, -1, m))
            for s, t, v in zip(T.elements, twist, self.values):
                if not (self.values[t] == v.galois(k)):
                    raise ValueError(f"map is not equivariant at (s={s}, u={u})")

    def __call__(self, s: GroupElement) -> CyclotomicNumber:
        return self.values[group_tables(self.group).element_index[s]]

    @classmethod
    def prime_map(cls, group: FiniteAbelianGroup, ell: int, s: GroupElement) -> "EquivariantMap":
        """The map with value ell at the single element s (s != 1) and 1
        elsewhere; equivariant for the Frobenius residue ell, which requires
        |s| to divide ell - 1."""
        if s.is_identity:
            raise ValueError("the branch element must not be the identity")
        if (ell - 1) % s.order():
            raise ValueError(f"|s| = {s.order()} does not divide {ell} - 1")
        values = [1] * group.order
        values[group_tables(group).element_index[s]] = ell
        m = group.exponent
        return cls(group, values, acting_generators=(ell % m,) if m > 1 else ())

    @classmethod
    def prime_orbit_map(cls, group: FiniteAbelianGroup, ell: int, s: GroupElement) -> "EquivariantMap":
        """The equivariant globalization of the single-prime branch map: the
        value at s is a prime element over ell in Z[zeta_|s|], and the values
        along the twist orbit of s are its Galois conjugates (forced by
        equivariance for the full residue group). Requires |s| to divide
        ell - 1."""
        from .cyclotomic import prime_element_above

        if s.is_identity:
            raise ValueError("the branch element must not be the identity")
        o = s.order()
        if (ell - 1) % o:
            raise ValueError(f"|s| = {o} does not divide {ell} - 1")
        pi = prime_element_above(ell, o)
        index = group_tables(group).element_index
        values: list[CyclotomicNumber | int] = [1] * group.order
        for w in range(1, o):
            if gcd(w, o) == 1:
                values[index[s**w]] = pi.galois(pow(w, -1, o))
        m = group.exponent
        return cls(group, values, acting_generators=unit_group_generators(lcm(m, o)))

    @classmethod
    def random_map(cls, group: FiniteAbelianGroup, rng) -> "EquivariantMap":
        """Random unit-valued equivariant map for the full residue group: pick
        a nonzero value in Q(zeta_|s|) with coefficients in [-4, 4] on one
        representative per twist orbit and propagate along the orbit."""
        m = group.exponent
        T = group_tables(group)
        units = units_mod(m) if m > 1 else [1]
        values: list[CyclotomicNumber | None] = [None] * group.order
        for i, s in enumerate(T.elements):
            if values[i] is not None:
                continue
            o = s.order()
            while True:
                x = CyclotomicNumber(
                    o, [Fraction(rng.randrange(-4, 5)) for _ in range(euler_phi(o))]
                )
                if not x.is_zero():
                    break
            # f(s^w) = sigma_{w^{-1} mod o}(x) for every w coprime to o
            seen_exponents = set()
            for u in units:
                w = pow(u, -1, o) if o > 1 else 0
                if w in seen_exponents:
                    continue
                seen_exponents.add(w)
                values[T.element_index[s**w]] = x.galois(pow(w, -1, o)) if o > 1 else x
        gens = unit_group_generators(m)
        return cls(group, values, acting_generators=gens)


def _split_transpose(f: EquivariantMap, coeffs) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """(prod_{n_s > 0} f(s)^(n_s), prod_{n_s < 0} f(s)^(-n_s)) where the
    image of the psi with these integer coefficients is sum n_s s (psi must
    sit in the determinant kernel so that the exponents are integers).
    Neither product takes an inverse, and a zero exponent vector takes no
    product at all."""
    pos = neg = None
    for v, e in zip(f.values, _image_exponents(f.group, coeffs)):
        if e > 0:
            x = v**e
            pos = x if pos is None else pos * x
        elif e < 0:
            x = v**-e
            neg = x if neg is None else neg * x
    one = CyclotomicNumber._raw(1, (1,))
    return (one if pos is None else pos), (one if neg is None else neg)


def transpose_value(f: EquivariantMap, psi: DualLatticeElement) -> CyclotomicNumber:
    """Value of f after precomposition with the Stickelberger map:
    prod_s f(s)^(n_s) where the image of psi is sum n_s s (psi must sit in the
    determinant kernel so that the exponents are integers, else ValueError).

    The map is linear, so the exponent vector of psi1 + psi2 is the sum of
    theirs, and psi -> transpose_value(f, psi) is a homomorphism from the
    kernel lattice to the units: v(psi1 + psi2) = v(psi1) * v(psi2). The
    exponents are read off integer numerators; the positive and negative
    parts are multiplied out separately, so the value costs at most one
    inverse, whatever the number of negative exponents."""
    pos, neg = _split_transpose(f, psi.coeffs)
    return pos if neg.is_one() else pos * neg.inverse()


def equivariance_check(group: FiniteAbelianGroup, acting_generators) -> bool:
    """Verify on a kernel basis that the Stickelberger map intertwines the
    canonical dual action chi -> chi^k with the inverse twist on G."""
    _require_odd(group)
    basis = det_kernel_basis(group)
    m = group.exponent
    for k in acting_generators:
        k = as_int(k) % m if m > 1 else 1
        if m > 1 and gcd(k, m) != 1:
            raise ValueError(f"{k} is not a unit mod {m}")
        for psi in basis:
            lhs = stickelberger_map(psi.galois_act(k) if m > 1 else psi)
            rhs = stickelberger_map(psi).twist(k)
            if lhs.coeffs != rhs.coeffs:
                return False
    return True


def image_selfdual_check(f: EquivariantMap) -> bool:
    """transpose(f) lands in the strict self-dual class: its value at psi
    times its value at the conjugate of psi is 1 on a kernel basis.

    The Stickelberger map is linear, so v(psi) * v(conj psi) = v(psi + conj
    psi), and the check splits the one value v(psi + conj psi) = p/n into
    its products over positive and negative exponents and decides p == n,
    without a division. This is exactly equivalent because n is a product of
    values of f, and EquivariantMap rejects a vanishing value at
    construction. Since upsilon(chi^-1, s) = -upsilon(chi, s), the exponents
    of psi + conj psi are all zero, and then no product is taken. The basis
    rows and their conjugates are integer `group_tables` rows, read through
    the `conjugate` permutation of the characters."""
    T = group_tables(f.group)
    conj = T.conjugate
    for row in T.kernel_basis:
        pos, neg = _split_transpose(f, [a + row[c] for a, c in zip(row, conj)])
        if not (pos == neg):
            return False
    return True
