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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import euler_phi, unit_group_generators, units_mod
from .cyclotomic import CyclotomicNumber
from .groups import (
    Character,
    EnumerationBoundError,
    FiniteAbelianGroup,
    GroupElement,
    GroupSpecError,
    galois_twist,
    group_tables,
)


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


@dataclass(frozen=True)
class DualLatticeElement:
    """Integer vector over the characters of G (an element of ZG^), stored in
    the canonical character enumeration order."""

    group: FiniteAbelianGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector does not match the dual group size")

    def __add__(self, other: "DualLatticeElement") -> "DualLatticeElement":
        return DualLatticeElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DualLatticeElement":
        return DualLatticeElement(self.group, tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "DualLatticeElement":
        return DualLatticeElement(self.group, tuple(int(k) * a for a in self.coeffs))

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
        T = group_tables(G)
        out = [0] * G.order
        for chi, n in zip(T.characters, self.coeffs):
            out[T.character_index[chi**k]] += n
        return DualLatticeElement(G, tuple(out))


@dataclass(frozen=True)
class StickelbergerVector:
    """Rational vector over G (an element of QG), in enumeration order."""

    group: FiniteAbelianGroup
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def coefficient(self, s: GroupElement) -> Fraction:
        return self.coeffs[group_tables(self.group).element_index[s]]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def twist(self, k: int) -> "StickelbergerVector":
        """Move mass along s -> s^{k^{-1}} (the inverse-cyclotomic action)."""
        G = self.group
        T = group_tables(G)
        out = [Fraction(0)] * G.order
        for s, c in zip(T.elements, self.coeffs):
            out[T.element_index[galois_twist(s, k, -1)]] += c
        return StickelbergerVector(G, tuple(out))

    def __add__(self, other):
        return StickelbergerVector(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rmul__(self, q) -> "StickelbergerVector":
        q = Fraction(q)
        return StickelbergerVector(self.group, tuple(q * a for a in self.coeffs))


def pairing(psi, alpha, group: FiniteAbelianGroup | None = None) -> Fraction:
    """Fully bilinear pairing: psi is a DualLatticeElement or a rational
    coefficient sequence over the characters, alpha a GroupElement, a
    StickelbergerVector, or a rational coefficient sequence over G."""
    if isinstance(psi, DualLatticeElement):
        G = psi.group
        psi_coeffs = [Fraction(c) for c in psi.coeffs]
    else:
        if group is None:
            raise ValueError("raw coefficient vectors need an explicit group")
        G = group
        psi_coeffs = [Fraction(c) for c in psi]
    _require_odd(G)
    if isinstance(alpha, GroupElement):
        return sum(
            (n * pairing_char(chi, alpha) for chi, n in zip(G.characters(), psi_coeffs) if n),
            Fraction(0),
        )
    alpha_coeffs = alpha.coeffs if isinstance(alpha, StickelbergerVector) else alpha
    acc = Fraction(0)
    for s, a in zip(G.elements(), alpha_coeffs):
        a = Fraction(a)
        if a:
            for chi, n in zip(G.characters(), psi_coeffs):
                if n:
                    acc += n * a * pairing_char(chi, s)
    return acc


def _image_numerators(psi: DualLatticeElement) -> list[int]:
    """The integers sum_chi psi_chi * upsilon(chi, s), in element order: |s|
    times the coefficient <psi, s> of s in the Stickelberger image of psi."""
    G = psi.group
    _require_odd(G)
    acc = [0] * G.order
    for row, n in zip(group_tables(G).upsilon, psi.coeffs):
        if n:
            for i, u in enumerate(row):
                acc[i] += n * u
    return acc


def _image_exponents(psi: DualLatticeElement) -> list[int]:
    """The integer exponents n_s of the image sum_s n_s s of psi, each
    numerator divided by |s| exactly; a ValueError when psi is outside the
    determinant kernel, where some division leaves a remainder."""
    out = []
    for a, o in zip(_image_numerators(psi), group_tables(psi.group).orders):
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
        psi.group, tuple(Fraction(a, o) for a, o in zip(_image_numerators(psi), orders))
    )


def det_kernel_basis(group: FiniteAbelianGroup) -> list[DualLatticeElement]:
    """Canonical basis (HNF rows) of the kernel of det: ZG^ -> G^.

    The kernel has full rank |G| and index |G| in ZG^; both facts are
    verified when the group's tables are first built.
    """
    return [DualLatticeElement(group, row) for row in group_tables(group).kernel_basis]


def integrality_check(psi: DualLatticeElement, propcheck: bool = False) -> bool:
    """Whether the Stickelberger image of psi is integral. With propcheck=True
    the equivalence with det(psi) = 1 is asserted as well."""
    integral = stickelberger_map(psi).is_integral()
    if propcheck:
        if integral != psi.det().is_trivial:
            raise AssertionError(
                f"integrality/kernel equivalence fails at {psi.coeffs}"
            )
    return integral


# ---------------------------------------------------------------------------
# equivariant maps and the transpose


class EquivariantMap:
    """Unit-valued map f on G, equivariant for the inverse-cyclotomic twist:
    f(s^(u^-1)) = sigma_u(f(s)) for every u in the acting residue group.

    Values live in a common cyclotomic level L; the acting group is generated
    by residues modulo M = lcm(exp(G), L), acting on values through u mod L
    and on G through u mod exp(G). Equivariance and nonvanishing are checked
    at construction.
    """

    def __init__(self, group: FiniteAbelianGroup, values, acting_generators=()):
        self.group = group
        level = 1
        vals = {}
        for s in group.elements():
            v = values[s]
            if isinstance(v, (int, Fraction)):
                v = CyclotomicNumber.rational(v, 1)
            vals[s] = v
            level = lcm(level, v.level)
        self.level = level
        self.values = {s: v.raise_level(level) for s, v in vals.items()}
        m = group.exponent
        self.modulus = lcm(m, level)
        self.acting_generators = tuple(int(u) % self.modulus for u in acting_generators)
        for s, v in self.values.items():
            if v.is_zero():
                raise ValueError(f"map vanishes at {s}")
        for u in self.acting_generators:
            if gcd(u, self.modulus) != 1:
                raise ValueError(f"{u} is not a unit mod {self.modulus}")
            for s in group.elements():
                t = galois_twist(s, u % m if m > 1 else 1, -1)
                lhs = self.values[t]
                rhs = self.values[s].galois(u % level if level > 1 else 1)
                if not (lhs == rhs):
                    raise ValueError(f"map is not equivariant at (s={s}, u={u})")

    def __call__(self, s: GroupElement) -> CyclotomicNumber:
        return self.values[s]

    @classmethod
    def prime_map(cls, group: FiniteAbelianGroup, ell: int, s: GroupElement) -> "EquivariantMap":
        """The map with value ell at the single element s (s != 1) and 1
        elsewhere; equivariant for the Frobenius residue ell, which requires
        |s| to divide ell - 1."""
        if s.is_identity:
            raise ValueError("the branch element must not be the identity")
        if (ell - 1) % s.order():
            raise ValueError(f"|s| = {s.order()} does not divide {ell} - 1")
        values = {t: Fraction(1) for t in group.elements()}
        values[s] = Fraction(ell)
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
        values: dict[GroupElement, CyclotomicNumber | Fraction] = {
            t: Fraction(1) for t in group.elements()
        }
        for w in range(1, o):
            if gcd(w, o) == 1:
                values[s**w] = pi.galois(pow(w, -1, o))
        m = group.exponent
        return cls(group, values, acting_generators=unit_group_generators(lcm(m, o)))

    @classmethod
    def identity_map(cls, group: FiniteAbelianGroup) -> "EquivariantMap":
        values = {t: Fraction(1) for t in group.elements()}
        gens = unit_group_generators(group.exponent)
        return cls(group, values, acting_generators=gens)

    @classmethod
    def random_map(cls, group: FiniteAbelianGroup, rng, span: int = 4) -> "EquivariantMap":
        """Random unit-valued equivariant map for the full residue group: pick
        a nonzero value in Q(zeta_|s|) on one representative per twist orbit
        and propagate along the orbit."""
        m = group.exponent
        elems = group.elements()
        units = units_mod(m) if m > 1 else [1]
        values: dict[GroupElement, CyclotomicNumber] = {}
        for s in elems:
            if s in values:
                continue
            o = s.order()
            while True:
                x = CyclotomicNumber(
                    o, [Fraction(rng.randrange(-span, span + 1)) for _ in range(euler_phi(o))]
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
                target = s**w
                values[target] = x.galois(pow(w, -1, o)) if o > 1 else x
        gens = unit_group_generators(m)
        return cls(group, values, acting_generators=gens)


def _split_transpose(
    f: EquivariantMap, psi: DualLatticeElement
) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """(prod_{n_s > 0} f(s)^(n_s), prod_{n_s < 0} f(s)^(-n_s)) where the
    image of psi is sum n_s s (psi must sit in the determinant kernel so that
    the exponents are integers). Neither product takes an inverse, and a zero
    exponent vector takes no product at all."""
    pos = neg = None
    for s, e in zip(group_tables(f.group).elements, _image_exponents(psi)):
        if e > 0:
            x = f(s) ** e
            pos = x if pos is None else pos * x
        elif e < 0:
            x = f(s) ** -e
            neg = x if neg is None else neg * x
    one = CyclotomicNumber.rational(1, 1)
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
    pos, neg = _split_transpose(f, psi)
    return pos if neg.is_one() else pos * neg.inverse()


def equivariance_check(group: FiniteAbelianGroup, acting_generators) -> bool:
    """Verify on a kernel basis that the Stickelberger map intertwines the
    canonical dual action chi -> chi^k with the inverse twist on G."""
    _require_odd(group)
    basis = det_kernel_basis(group)
    m = group.exponent
    for k in acting_generators:
        k = int(k) % m if m > 1 else 1
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
    of psi + conj psi are all zero, and then no product is taken."""
    for psi in det_kernel_basis(f.group):
        pos, neg = _split_transpose(f, psi + psi.conjugate())
        if not (pos == neg):
            return False
    return True


# ---------------------------------------------------------------------------
# vectorized sweeps (numpy, exact integer arithmetic)


def _pairing_data(group: FiniteAbelianGroup):
    import numpy as np

    T = group_tables(group)
    ups = np.array(T.upsilon, dtype=np.int64)
    orders = np.array(T.orders, dtype=np.int64)
    char_exps = np.array([list(chi.exponents) for chi in T.characters], dtype=np.int64)
    facs = np.array(list(group.invariant_factors), dtype=np.int64)
    return ups, orders, char_exps, facs


_INT64_MAX = (1 << 63) - 1


def integrality_sweep_exhaustive(
    group: FiniteAbelianGroup, coeff_bound: int, chunk: int = 1 << 18
) -> tuple[int, int]:
    """Exhaustively check, over all psi with coefficients in
    [-coeff_bound, coeff_bound], that the Stickelberger image is integral
    exactly when det(psi) is trivial. Returns (total vectors, kernel hits);
    raises AssertionError on any mismatch. Integer-only numpy arithmetic; a
    sweep whose (2 * coeff_bound + 1)**|G| vectors cannot be indexed in int64
    raises EnumerationBoundError before anything is allocated.
    """
    import numpy as np

    _require_odd(group)
    n = group.order
    width = 2 * coeff_bound + 1
    total = width**n
    if total > _INT64_MAX:
        raise EnumerationBoundError(
            f"sweep of {width}**{n} vectors does not fit int64; lower coeff_bound"
        )
    ups, orders, char_exps, facs = _pairing_data(group)
    hits = 0
    powers = width ** np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        psis = (idx[:, None] // powers[None, :]) % width - coeff_bound
        theta_num = psis @ ups  # numerator of <psi, s> * |s|
        integral = np.all(theta_num % orders[None, :] == 0, axis=1)
        dets = psis @ char_exps
        trivial = np.all(dets % facs[None, :] == 0, axis=1)
        if not np.array_equal(integral, trivial):
            bad = int(np.nonzero(integral != trivial)[0][0])
            raise AssertionError(f"mismatch at psi = {psis[bad].tolist()}")
        hits += int(trivial.sum())
    return total, hits


def integrality_sweep_random(
    group: FiniteAbelianGroup, count: int, coeff_bound: int, rng
) -> tuple[int, int]:
    """Seeded random version of the exhaustive sweep; also cross-checks a few
    vectors against the exact Fraction path."""
    import numpy as np

    _require_odd(group)
    ups, orders, char_exps, facs = _pairing_data(group)
    n = group.order
    psis = np.array(
        [[rng.randrange(-coeff_bound, coeff_bound + 1) for _ in range(n)] for _ in range(count)],
        dtype=np.int64,
    )
    theta_num = psis @ ups
    integral = np.all(theta_num % orders[None, :] == 0, axis=1)
    dets = psis @ char_exps
    trivial = np.all(dets % facs[None, :] == 0, axis=1)
    if not np.array_equal(integral, trivial):
        bad = int(np.nonzero(integral != trivial)[0][0])
        raise AssertionError(f"mismatch at psi = {psis[bad].tolist()}")
    # cross-check a sample against the scalar exact path
    for i in range(0, count, max(1, count // 10)):
        psi = DualLatticeElement(group, tuple(int(x) for x in psis[i]))
        if integrality_check(psi, propcheck=True) != bool(integral[i]):
            raise AssertionError("vectorized sweep disagrees with exact path")
    return count, int(trivial.sum())
