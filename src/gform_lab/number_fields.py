"""Cyclic degree-p subfields of Q(zeta_f) with Gaussian-period bases, exact
fractional-ideal arithmetic, the different, and the square root of its
inverse.

A field is cut out by a surjective character chi: (Z/f)^x -> Z/p (f
squarefree, every prime factor = 1 mod p, p odd and prime to f, so every
ramified prime is tame and totally ramified). The periods eta_j = eta(c_j)
are the orbit sums eta(x) = sum over h in H of zeta_f^(x h), for
H = ker(chi) and c_j = g^j with chi(g) = 1. Their integer multiplication
table comes from Gauss's coset counting, with no product in Q(zeta_f):
eta_i * eta_j = sum over h in H of eta(c_i + c_j h). A unit x lies in the
coset of c_(chi(x)), so eta(x) = eta_(chi(x)); for gcd(x, f) = d > 1, eta(x)
is the integer (phi(d)/p) * mu(f/d) (`_nonunit_period`), whose coordinates
are that integer times mu(f) on every period, since the periods sum to
mu(f). The trace Gram is mu(f) times the row sums of the table. Three exact
certificates hold the table: each row sums to mu(f) * eta_i, sigma shifts it
(T[i+1][j+1] is T[i][j] shifted), and the discriminant identity
disc = f^(p-1), which also certifies that the periods are a Z-basis of the
maximal order.

A field stores no value of Q(zeta_f). Values enter and leave it in closed
form, for the resolvend layer and the independent `trace_gram` route:
eta_t is the indicator of the coset {x unit : chi(x) = t}, so `element`
writes coordinates as one exponent vector; and for x in K,
Tr_K(x eta_j) = Tr(x zeta_f^(c_j)), so `coordinates` takes p dot products
with the cyclotomic trace table and applies the inverse trace Gram (the
trace-dual basis), then requires the exact round trip back to x.

Each field also memoizes one reduction modulo a prime q = 1 mod f above
2^62 (`modular_embedding`, `ModularEmbedding`): omega of exact order f in
F_q sends eta_t to e_t = sum of omega^x over the units x with chi(x) = t,
and the p images eta_t -> e_(t+k) identify O_K/qO_K with F_q^p. The
resolvend layer decides its identities there, exactly, once q exceeds twice
a bound on the coordinates it compares.

Ideals are stored as row-HNF integer matrices over the period basis with a
single positive denominator, so equality of ideals is equality of canonical
forms. Every product is one kernel (`_span_products`): the lattice spanned
by g * b for g in a generating set and b in a basis. An ideal inverse and a
trace dual are preimage lattices (`linalg.preimage_lattice`) of integer rows
over a denominator known in advance: an inverse takes the transposed
multiplication matrices, and a trace dual the ideal rows times the trace
Gram, over the ideal's denominator. Ideals whose canonical form is known,
O, n*O and the coordinate-sum kernels (`_sum_kernel`), are written down
without an HNF.

`build_field` interns its fields: one verified `PeriodField` per (degree,
conductor, generator, character) in a process, so a field requested again,
directly or as the composite of `compose_fields`, is the same object, and
its tables and certificates are built once. The default character of each
(degree, conductor) and its default generator are resolved once too. Like
`group_tables`, both stores are unbounded. A field builds no cyclotomic
value, so no level cap applies to it.

Each field keeps one memo of its ideal layer, filled on first use and shared
by every caller of the interned field: the prime P over each ramified ell,
the pair (different, A), and the A-form of each identification
(`gforms.gform_from_A`). Every ramified prime is tame and totally ramified,
so each P is the kernel of the coordinate sum mod ell, and their product
R = rad(fO) the kernel mod f. alpha = eta_0 - eta_1 has valuation 1 at every
P (`_hilbert_ideals`), so P = (ell, alpha) and R^k = (f, alpha^k) for
1 <= k <= p. Hilbert's formula is then closed: the different is
(f, alpha^(p-1)), and A = R^(-(p-1)/2) = (1/f) (f, alpha^((p+1)/2)) needs no
ideal inversion; each product with such a factor puts 2p rows through an
HNF, not p^2. The checks run once per field, when the memo is filled: each P
has norm ell, P^p = ell*O and P = (ell, alpha); (f, alpha) = R; R^p = f*O;
the different times the trace dual of O is O; and A*A is that trace dual. A
failed check raises and leaves nothing in the memo.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul
from types import MappingProxyType

from . import linalg
from .arith import (
    as_int,
    discrete_log_table,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    moebius,
    over_common_denominator,
    primitive_root,
    units_mod,
)
from .cyclotomic import CyclotomicNumber, _trace_table
from .groups import FiniteAbelianGroup, GroupElement
from .record import Record


class FieldConstructionError(ValueError):
    """Invalid (p, f, character) data for a period field."""


def _nonunit_period(p: int, f: int, d: int) -> int:
    """eta(x) = sum over h in H of zeta_f^(x h) for gcd(x, f) = d > 1: the
    integer (phi(d)/p) * mu(f/d). zeta_f^x is a primitive (f/d)-th root of
    unity, and H maps onto (Z/(f/d))^x with fibres of phi(d)/p elements,
    because chi is nontrivial on the units = 1 mod f/ell for every ell | f;
    the primitive (f/d)-th roots of unity sum to mu(f/d)."""
    return euler_phi(d) // p * moebius(f // d)


class PeriodField:
    """Cyclic degree-p subfield of Q(zeta_f) with its period basis, exact
    integer multiplication table, and trace Gram matrix. The table is counted
    over cosets (eta_i * eta_j = sum over h in H of eta(c_i + c_j h), the
    module docstring gives the rule) and certified by its row sums, its sigma
    shift and the discriminant identity. `build_field` shares one instance
    between callers, so the character is a read-only mapping.

    The field holds integers only: the table, the Gram and its inverse, and
    the cosets. The periods, `element` and `coordinates` build their
    Q(zeta_f) values on each call (the module docstring gives the closed
    forms). det Gram = f^(p-1) != 0 is the certificate that the periods are
    independent, and `coordinates` accepts a value only when its coordinates
    give it back exactly."""

    def __init__(self, degree: int, conductor: int, character: dict[int, int], generator: int):
        self.degree = degree
        self.conductor = conductor
        self.character = MappingProxyType(dict(character))
        self.generator = generator
        self.ramified_primes = tuple(p for p, _ in factorize(conductor))

        p, f = degree, conductor
        H = frozenset(x for x, v in self.character.items() if v == 0)
        if len(H) * p != len(self.character):
            raise FieldConstructionError("character kernel has the wrong index")
        self.subgroup = H
        if self.character.get(generator % f) != 1 % p:
            raise FieldConstructionError("generator must map to 1 under the character")
        self.cosets = tuple(pow(generator, j, f) for j in range(p))

        self._init_tables()
        # the ideal layer, built and verified on first use: ell -> the prime
        # over ell (`prime_above`), "hilbert" -> (different, A), a HomToG ->
        # the A-form of that identification (`gforms.gform_from_A`)
        self._ideal_memo = {}
        # the reduction mod a split prime (`modular_embedding`), on first use
        self._embedding = None

    # -- construction internals ------------------------------------------

    def _init_tables(self):
        p, f = self.degree, self.conductor
        mu = moebius(f)
        # every period has trace mu(f), and 1 = mu(f) * (eta_0 + ... + eta_(p-1))
        self.trace_of_period = mu
        chi = self.character
        nonunit = {d: _nonunit_period(p, f, d) for d in divisors(f)[1:]}
        table = [[None] * p for _ in range(p)]
        for i in range(p):
            ci = self.cosets[i]
            for j in range(i, p):
                cj = self.cosets[j]
                # eta_i * eta_j = sum over h in H of eta(c_i + c_j h)
                entry = [0] * p
                c = 0
                for h in self.subgroup:
                    x = (ci + cj * h) % f
                    k = chi.get(x)
                    if k is None:
                        c += nonunit[gcd(x, f)]
                    else:
                        entry[k] += 1
                table[i][j] = table[j][i] = tuple(e + mu * c for e in entry)
        for i in range(p):
            # eta_i * (eta_0 + ... + eta_(p-1)) = mu(f) * eta_i
            if [sum(col) for col in zip(*table[i])] != [mu * (k == i) for k in range(p)]:
                raise FieldConstructionError(f"row {i} of the table does not sum to mu(f) eta_{i}")
            # sigma(eta_i * eta_j) = eta_(i+1) * eta_(j+1)
            for j in range(p):
                if table[(i + 1) % p][(j + 1) % p] != self.sigma_coords(table[i][j]):
                    raise FieldConstructionError("the table does not commute with sigma")
        self.mult_table = tuple(tuple(row) for row in table)
        # |coordinate t of x * y| <= table_bound * |x|_1 * |y|_1 for integer x, y
        self.table_bound = max(abs(c) for row in table for entry in row for c in entry)
        self.gram = tuple(tuple(mu * sum(entry) for entry in row) for row in table)
        disc = linalg.det([list(r) for r in self.gram])
        if disc != f ** (p - 1):
            raise FieldConstructionError(
                f"discriminant {disc} != {f}^{p-1}; conductor drops or order not maximal"
            )
        self.discriminant = int(disc)
        # the trace-dual basis: x = sum_i (Gram^-1 t)_i eta_i for t_j = Tr(x eta_j)
        self._gram_inverse, self._gram_den = linalg.inverse(self.gram)

    # -- element plumbing ---------------------------------------------------

    @property
    def periods(self) -> tuple[CyclotomicNumber, ...]:
        """eta_0, ..., eta_(p-1) in Q(zeta_f), built on each access."""
        return tuple(self.element(row) for row in linalg.identity_matrix(self.degree))

    def element(self, coords, den: int = 1) -> CyclotomicNumber:
        """sum(coords[t] * eta_t) / den for int or Fraction coords, the
        inverse of `coordinates`. eta_t is the indicator of the coset
        {x unit : chi(x) = t}, so the exponent vector is coords[chi(x)] at
        each unit x."""
        num, scale = over_common_denominator(coords)
        raw = [0] * self.conductor
        for x, t in self.character.items():
            raw[x] = num[t]
        return CyclotomicNumber.from_powers(self.conductor, raw, scale * den)

    def coordinates(self, x: CyclotomicNumber) -> tuple[Fraction, ...]:
        """Period-basis coordinates of x; raises ValueError if x is not in
        the field. For x in K, Tr_K(x eta_j) = Tr(x zeta_f^(c_j)), since eta_j
        is the trace of zeta_f^(c_j) down to K; the coordinates are the
        inverse Gram times these p traces, and must give x back exactly."""
        f = self.conductor
        x = x.raise_level(f)
        table = _trace_table(f)
        traces = [sum(map(mul, x.num, table[c:] + table[:c])) for c in self.cosets]
        w = linalg.mat_vec(self._gram_inverse, traces)
        den = self._gram_den * x.den
        if self.element(w, den) != x:
            raise ValueError("value does not lie in the period field")
        return tuple(Fraction(c, den) for c in w)

    def sigma_coords(self, coords, power: int = 1):
        """sigma^power, sigma: zeta_f -> zeta_f^g, shifts the periods: j -> j + power."""
        p = self.degree
        power %= p
        return tuple(coords[(j - power) % p] for j in range(p))

    def trace(self, x: CyclotomicNumber) -> Fraction:
        """Tr_{K/Q} via the full cyclotomic trace."""
        x = x.raise_level(self.conductor)
        return x.trace_to_rational() * Fraction(self.degree, euler_phi(self.conductor))

    def multiplication_matrix(self, coords):
        """Row t is the coordinate vector of eta_t * x for x with the given
        integer coordinates."""
        p = self.degree
        rows = []
        for t in range(p):
            row = [0] * p
            for u, c in enumerate(coords):
                if c:
                    for k, e in enumerate(self.mult_table[t][u]):
                        row[k] += c * e
            rows.append(row)
        return rows

    def modular_embedding(self, bound: int = 0) -> "ModularEmbedding":
        """The field's reduction mod a prime q with q > 2 * bound and
        q > 2^62, certified when built (`ModularEmbedding`). One is memoized
        per field and reused while its q is large enough; a larger bound
        builds and memoizes one with a larger q, and a bound past the range
        of the deterministic primality test raises ValueError."""
        emb = self._embedding
        if emb is None or emb.modulus <= 2 * bound:
            emb = self._embedding = ModularEmbedding.above(self, max(2 * bound, _EMBEDDING_FLOOR))
        return emb

    def maximal_order(self) -> "FractionalIdeal":
        return FractionalIdeal._canonical(self, linalg.identity_matrix(self.degree), 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodField):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.conductor == other.conductor
            and self.generator == other.generator
            and self.character == other.character
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.conductor, self.generator))

    def __repr__(self) -> str:
        return f"PeriodField(degree={self.degree}, conductor={self.conductor})"


# the least modulus of a field's embedding datum, so that the products of
# typical resolvend checks stay far below it
_EMBEDDING_FLOOR = 1 << 62


class ModularEmbedding(Record):
    """The p embeddings of a period field K into F_q for a prime q = 1 mod f.

    zeta_f -> omega, for omega of exact order f in F_q, is a ring map
    Z[zeta_f] -> F_q, and it sends eta_t to e_t = sum of omega^x over the
    units x with chi(x) = t. Composed with sigma^k it sends eta_t to
    e_(t+k); so x = sum c_t eta_t has the images phi_k(x) = sum c_t e_(t+k)
    for k in Z/p. q = 1 mod f splits completely in Q(zeta_f) (Washington,
    GTM 83, Thm 2.13), hence in K, and the phi_k reduce O_K modulo its p
    primes over q: O_K/qO_K = F_q^p. So an x in O_K with every phi_k(x) = 0
    has period coordinates divisible by q (the periods are a Z-basis of O_K
    by the discriminant certificate), and it is 0 when they are below q/2 in
    absolute value.

    The constructor certifies all of it from integers (`above` tests the
    primality in its search and skips the second test): q is prime by the
    deterministic test and q = 1 mod f; omega^f = 1 and omega^(f/ell) != 1
    for each ell | f; phi_0(1) = mu(f) * sum e_t = 1; phi_0 respects the
    multiplication table, e_i e_j = sum_t T[i][j][t] e_t, so it is a ring
    map on O_K and so is each phi_k, because the table commutes with sigma;
    and sum_k e_(i+k) e_(j+k) is the trace Gram mod q, so the matrix
    (e_(t+k)) has squared determinant f^(p-1) != 0 mod q and x -> (phi_k(x))
    is injective mod q. Every check is exact; a failed one raises."""

    __slots__ = ("modulus", "root", "periods")

    def __init__(self, field: PeriodField, modulus: int, root: int):
        if modulus % field.conductor != 1 or not is_prime(modulus):
            raise ValueError(f"{modulus} is not a prime = 1 mod {field.conductor}")
        self._certify(field, modulus, root)

    def _certify(self, field: PeriodField, q: int, root: int) -> None:
        """Every check but the primality of q, and the slots."""
        p, f = field.degree, field.conductor
        if pow(root, f, q) != 1 or any(pow(root, f // ell, q) == 1 for ell in field.ramified_primes):
            raise ValueError(f"{root} does not have order {f} mod {q}")
        powers = [1] * f
        for x in range(1, f):
            powers[x] = powers[x - 1] * root % q
        e = [0] * p
        for x, t in field.character.items():
            e[t] += powers[x]
        e = tuple(v % q for v in e)
        if field.trace_of_period * sum(e) % q != 1:
            raise ArithmeticError("the embedding does not send 1 to 1")
        for i in range(p):
            for j in range(i, p):
                image = sum(map(mul, field.mult_table[i][j], e))
                trace = sum(e[(i + k) % p] * e[(j + k) % p] for k in range(p))
                if (e[i] * e[j] - image) % q or (trace - field.gram[i][j]) % q:
                    raise ArithmeticError("the embedding does not respect the period tables")
        object.__setattr__(self, "modulus", q)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "periods", e)

    @classmethod
    def above(cls, field: PeriodField, floor: int) -> "ModularEmbedding":
        """The embedding at the least prime q = 1 mod f above floor, with
        omega the first g^((q-1)/f), g = 2, 3, ..., of exact order f."""
        f = field.conductor
        q = floor - floor % f + 1
        while q <= floor or not is_prime(q):
            q += f
        for g in range(2, q):
            root = pow(g, (q - 1) // f, q)
            if all(pow(root, f // ell, q) != 1 for ell in field.ramified_primes):
                # q = 1 mod f, and the search proved it prime
                out = cls.__new__(cls)
                out._certify(field, q, root)
                return out
        raise ArithmeticError(f"no element of order {f} mod {q}")

    def images(self, coords) -> list[int]:
        """phi_m(x) mod q for m in Z/p, for x with the integer coordinates."""
        e, q = self.periods, self.modulus
        return [sum(map(mul, coords, e[m:] + e[:m])) % q for m in range(len(e))]


# every field `build_field` has verified in this process, by (degree,
# conductor, generator, character items)
_FIELDS: dict[tuple, PeriodField] = {}
# the default character of each (degree, conductor) `build_field` was asked
# for, as (character, default generator, character items)
_DEFAULT_CHARACTERS: dict[tuple[int, int], tuple[dict[int, int], int, frozenset]] = {}


def _inadmissible(p: int, f: int | None = None) -> str | None:
    """The first reason the degree p, or the pair (p, f), admits no field
    (p must be an odd prime; f squarefree, at least 3, prime to p, with every
    prime factor 1 mod p), or None if it admits one."""
    if not is_prime(p) or p == 2:
        return f"degree {p} must be an odd prime"
    if f is None:
        return None
    if f < 3:
        return f"conductor {f} is too small"
    if f % p == 0:
        return f"wild prime: {p} divides the conductor {f}"
    if not is_squarefree(f):
        return f"conductor {f} is not squarefree"
    for ell, _ in factorize(f):
        if (ell - 1) % p:
            return f"prime {ell} is not 1 mod {p}; no degree-{p} character of conductor {f}"
    return None


def _resolve_character(p: int, character) -> tuple[int, frozenset]:
    """(default generator, items) of a character onto Z/p: the least unit
    mapped to 1, and the frozen items that key the field store."""
    if set(character.values()) != set(range(p)):
        raise FieldConstructionError("character is not surjective onto Z/p")
    return min(x for x, v in character.items() if v == 1), frozenset(character.items())


def _default_character(p: int, f: int) -> tuple[dict[int, int], int, frozenset]:
    """The canonical character of conductor f onto Z/p, the sum of the
    discrete logarithms to the least primitive root modulo each prime of f,
    with its default generator and items; computed once per (p, f)."""
    if (p, f) not in _DEFAULT_CHARACTERS:
        parts = [(ell, discrete_log_table(primitive_root(ell), ell)) for ell, _ in factorize(f)]
        character = {x: sum(dlog[x % ell] for ell, dlog in parts) % p for x in units_mod(f)}
        _DEFAULT_CHARACTERS[p, f] = (character, *_resolve_character(p, character))
    return _DEFAULT_CHARACTERS[p, f]


def build_field(degree: int, conductor: int, generator: int | None = None,
                character: dict[int, int] | None = None) -> PeriodField:
    """The canonical (or a chosen) cyclic degree-p field of the given
    squarefree conductor inside Q(zeta_f), built and verified once per
    process: an equal request returns the same object."""
    p, f = degree, conductor
    if reason := _inadmissible(p, f):
        raise FieldConstructionError(reason)
    if character is None:
        character, default_generator, items = _default_character(p, f)
    else:
        default_generator, items = _resolve_character(p, character)
    # a generator and its residue mod f give the same cosets, hence one field
    generator = default_generator if generator is None else generator % f
    key = (p, f, generator, items)
    if key not in _FIELDS:
        _FIELDS[key] = PeriodField(p, f, character, generator)
    return _FIELDS[key]


class FractionalIdeal:
    """Full-rank fractional ideal as (1/den) times the row span of a
    canonical HNF integer matrix over the period basis."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: PeriodField, num_rows, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        rows = linalg.hnf([[as_int(x) for x in row] for row in num_rows])
        if len(rows) != field.degree:
            raise ValueError("ideal basis does not have full rank")
        g = den
        for row in rows:
            for c in row:
                g = gcd(g, c)
        if g > 1:
            rows = [[c // g for c in row] for row in rows]
            den //= g
        self.field = field
        self.num = tuple(tuple(r) for r in rows)
        self.den = den

    @classmethod
    def _canonical(cls, field: PeriodField, rows, den: int) -> "FractionalIdeal":
        """The ideal of rows that are already a canonical full-rank HNF with
        gcd(den, *rows) = 1, such as a `linalg.preimage_lattice` result or the
        diagonal of n * O, taken as it is."""
        out = cls.__new__(cls)
        out.field = field
        out.num = tuple(tuple(r) for r in rows)
        out.den = den
        return out

    # -- structure -----------------------------------------------------------

    def basis_elements(self) -> list[CyclotomicNumber]:
        return [self.field.element(row, self.den) for row in self.num]

    def norm(self) -> Fraction:
        # the canonical HNF is upper triangular with a positive diagonal
        d = prod(row[i] for i, row in enumerate(self.num))
        return Fraction(d, self.den**self.field.degree)

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FractionalIdeal)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"FractionalIdeal(den={self.den}, rows={[list(r) for r in self.num]})"

    def to_json(self) -> dict:
        return {"den": self.den, "hnf_rows": [list(r) for r in self.num]}

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        if self.field is not other.field:
            raise ValueError("ideals live in different fields")
        return _span_products(self.field, self.num, self.den, other)

    def __pow__(self, e: int) -> "FractionalIdeal":
        e = as_int(e)
        if e < 0:
            return self.inverse() ** (-e)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self.field.maximal_order() if result is None else result

    def inverse(self) -> "FractionalIdeal":
        """{x : x * I is contained in the maximal order}, computed exactly."""
        K = self.field
        # the multiplication matrices act on column vectors
        stacked = [row for b in self.num for row in linalg.transpose(K.multiplication_matrix(b))]
        rows, den = linalg.preimage_lattice(stacked, self.den)
        out = FractionalIdeal._canonical(K, rows, den)
        prod = out * self
        if prod != K.maximal_order():
            raise ArithmeticError("ideal inverse verification failed")
        return out


def dual_lattice(lattice: FractionalIdeal) -> FractionalIdeal:
    """{x : Tr(x * L) integral} with respect to the trace form."""
    K = lattice.field
    rows, den = linalg.preimage_lattice(linalg.mat_mul(lattice.num, K.gram), lattice.den)
    return FractionalIdeal._canonical(K, rows, den)


def _sum_kernel(field: PeriodField, n: int) -> FractionalIdeal:
    """{sum a_t eta_t : sum a_t = 0 mod n}, for n dividing the conductor f.

    Every ramified ell is tame and totally ramified, so Gal(K/Q) is the
    inertia group of the prime P over ell and acts trivially on O/P = F_ell
    (Serre, Local Fields, ch. IV). The periods are conjugate, hence all
    congruent to one c mod P, and they sum to mu(f) = +/-1, so c is a unit
    and sum a_t eta_t = c * sum a_t mod P: P is the kernel mod ell, of index
    ell. The product of the primes over the ell | n is the kernel mod n.
    Its canonical HNF is written down directly: rows e_t + (n-1) e_(p-1) for
    t < p-1, then n e_(p-1). Callers verify what they take from it."""
    p = field.degree
    rows = [[int(j == t) for j in range(p - 1)] + [n - 1] for t in range(p - 1)]
    rows.append([0] * (p - 1) + [n])
    return FractionalIdeal._canonical(field, rows, 1)


def _scalar_ideal(field: PeriodField, n: int) -> FractionalIdeal:
    """n * O, whose canonical HNF is n times the identity."""
    p = field.degree
    rows = [[n * int(i == j) for j in range(p)] for i in range(p)]
    return FractionalIdeal._canonical(field, rows, 1)


def _span_products(field: PeriodField, gens, den: int, J: FractionalIdeal) -> FractionalIdeal:
    """The lattice spanned by g * b / den, for g in gens (integer period
    coordinates) and b in the basis of J: the product I * J / den when gens
    is a Z-basis of I, and (gens) * J / den when J is an O-module. The one
    product kernel of the ideal layer: `FractionalIdeal.__mul__` passes its
    own rows, the tame layer the two generators (n, alpha^k)."""
    rows = []
    for g in gens:
        rows.extend(linalg.mat_mul(J.num, field.multiplication_matrix(g)))
    return FractionalIdeal(field, rows, den * J.den)


def _uniformizer(field: PeriodField) -> tuple[int, ...]:
    """alpha = eta_0 - eta_1 = (1 - sigma) eta_0, of valuation 1 at the prime
    over every ramified ell (`_hilbert_ideals` gives the argument)."""
    return (1, -1) + (0,) * (field.degree - 2)


def _uniformizer_powers(field: PeriodField, n: int) -> list[tuple[int, ...]]:
    """alpha, alpha^2, ..., alpha^n in period coordinates, from the integer
    table: x * alpha is M^T x for the multiplication matrix M of alpha."""
    alpha = _uniformizer(field)
    times_alpha = linalg.transpose(field.multiplication_matrix(alpha))
    powers = [alpha]
    while len(powers) < n:
        powers.append(tuple(linalg.mat_vec(times_alpha, powers[-1])))
    return powers


def _two_element(field: PeriodField, n: int, x) -> tuple[tuple[int, ...], ...]:
    """The generators (n, x) in period coordinates, with n = n * mu(f) *
    (eta_0 + ... + eta_(p-1))."""
    return ((n * field.trace_of_period,) * field.degree, x)


def prime_above(field: PeriodField, ell: int) -> FractionalIdeal:
    """The unique (totally ramified) prime over a ramified prime ell, the
    kernel of the period-coordinate sum mod ell (`_sum_kernel`). Three exact
    checks certify it: its norm is ell; P^p = ell*O; and it is the ideal
    (ell, alpha) for alpha = eta_0 - eta_1, which has valuation 1 at P
    (`_hilbert_ideals`), so the kernel is an O-module. Computed once per
    field: later calls return the same ideal, and a failed check stores
    nothing."""
    if ell not in field.ramified_primes:
        raise ValueError(f"{ell} is not ramified in this field")
    memo = field._ideal_memo
    if ell in memo:
        return memo[ell]
    ideal = _sum_kernel(field, ell)
    if ideal.norm() != ell:
        raise ArithmeticError(f"prime over {ell} has norm {ideal.norm()}, expected {ell}")
    if ideal**field.degree != _scalar_ideal(field, ell):
        raise ArithmeticError(f"{ell} is not totally ramified; wrong prime over it")
    generators = _two_element(field, ell, _uniformizer(field))
    if _span_products(field, generators, 1, field.maximal_order()) != ideal:
        raise ArithmeticError(f"the prime over {ell} is not the ideal ({ell}, eta_0 - eta_1)")
    memo[ell] = ideal
    return ideal


def _hilbert_ideals(field: PeriodField) -> tuple[FractionalIdeal, FractionalIdeal]:
    """(different, A) of the field as two-element ideals, verified once per
    field.

    alpha = eta_0 - eta_1 = (1 - sigma) eta_0 has valuation 1 at the prime P
    over every ramified ell. O/P = F_ell, so eta_0 = a + x with a in Z and
    x in P. x is not in P^2: otherwise every period, a conjugate of eta_0,
    would lie in Z + P^2 (P is Galois stable), so would O, and O/P^2 would
    have ell elements, not ell^2. The ramification is tame, so sigma acts on
    P/P^2 by a character theta of the inertia group Gal(K/Q) into F_ell^x,
    and theta is faithful, so theta(sigma) != 1 (Serre, Local Fields, IV
    sec. 2). Hence alpha = x - sigma(x) = (1 - theta(sigma)) x mod P^2 lies in
    P and not in P^2.

    With R = rad(fO), f*O = R^p, so R^k is the greatest common divisor
    f*O + alpha^k*O of f and alpha^k for 1 <= k <= p. Hilbert's formula then
    gives the different d = R^(p-1) = (f, alpha^(p-1)), and its square root
    of the inverse, with exponents -(p-1)/2, is
    A = R^(-(p-1)/2) = (1/f) (f, alpha^((p+1)/2)). alpha^k comes from the
    integer table, and every product below has a two-generated factor, so it
    puts 2p rows through an HNF. Four exact checks: (f, alpha) is the
    coordinate-sum kernel mod f (`_sum_kernel`), which makes that kernel an
    O-ideal; d * R == f*O; d * dual(O) == O; and A * A == dual(O). A failed
    check raises and leaves nothing in the memo."""
    memo = field._ideal_memo
    if "hilbert" not in memo:
        p, f = field.degree, field.conductor
        O = field.maximal_order()
        powers = _uniformizer_powers(field, p - 1)
        R = _sum_kernel(field, f)
        if _span_products(field, _two_element(field, f, powers[0]), 1, O) != R:
            raise ArithmeticError(f"rad({f}O) is not the ideal ({f}, eta_0 - eta_1)")
        lower = _two_element(field, f, powers[p - 2])
        if _span_products(field, lower, 1, R) != _scalar_ideal(field, f):
            raise ArithmeticError(f"rad({f}O)^{p} is not {f}O")
        d = _span_products(field, lower, 1, O)
        upper = _two_element(field, f, powers[(p - 1) // 2])
        A = _span_products(field, upper, f, O)
        inverse_different = dual_lattice(O)
        if _span_products(field, lower, 1, inverse_different) != O:
            raise ArithmeticError("Hilbert-formula different disagrees with the trace dual")
        if _span_products(field, upper, f, A) != inverse_different:
            raise ArithmeticError("square of the candidate is not the inverse different")
        memo["hilbert"] = (d, A)
    return memo["hilbert"]


def different(field: PeriodField) -> FractionalIdeal:
    """Product of the ramified primes to the (p-1): tame Hilbert exponents.
    Cross-checked against the dual-lattice characterization: the different
    times the trace-dual of the maximal order is the maximal order."""
    return _hilbert_ideals(field)[0]


def sqrt_inverse_different(field: PeriodField) -> FractionalIdeal:
    """The ideal A with A^2 equal to the inverse different (exponents
    -(p-1)/2 at each ramified prime); the square is verified exactly against
    the trace-dual of the maximal order."""
    return _hilbert_ideals(field)[1]


def trace_gram(field: PeriodField, elements) -> list[list[Fraction]]:
    """Exact matrix Tr(x_i * x_j) for elements of the field."""
    xs = [x.raise_level(field.conductor) for x in elements]
    return [[field.trace(a * b) for b in xs] for a in xs]


def compose_fields(field1: PeriodField, field2: PeriodField,
                   weights: tuple[int, int] = (1, 1)) -> PeriodField:
    """The degree-p field cut out by the weighted product of the two defining
    characters inside Q(zeta_{f1 f2}); conductors must be coprime and both
    weights nonzero mod p."""
    p = field1.degree
    if field2.degree != p:
        raise FieldConstructionError("fields have different degrees")
    f1, f2 = field1.conductor, field2.conductor
    if gcd(f1, f2) != 1:
        raise FieldConstructionError(f"conductor clash: gcd({f1}, {f2}) != 1")
    w1, w2 = weights
    if w1 % p == 0 or w2 % p == 0:
        raise FieldConstructionError("product character has smaller order")
    f = f1 * f2
    character = {}
    for x in units_mod(f):
        character[x] = (w1 * field1.character[x % f1] + w2 * field2.character[x % f2]) % p
    return build_field(p, f, character=character)


class HomToG(Record):
    """Isomorphism from the Galois group of a period field onto a cyclic
    group G of the same odd prime order, pinned by the image of the chosen
    Galois generator sigma."""

    __slots__ = ("field", "group", "sigma_image")

    def __init__(self, field: PeriodField, group: FiniteAbelianGroup, sigma_image: GroupElement):
        p = field.degree
        if group.invariant_factors != (p,):
            raise ValueError(f"group must be cyclic of order {p}")
        if sigma_image.order() != p:
            raise ValueError("sigma must map to a generator")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "sigma_image", sigma_image)

    @classmethod
    def standard(cls, field: PeriodField, group: FiniteAbelianGroup | None = None) -> "HomToG":
        G = group if group is not None else FiniteAbelianGroup((field.degree,))
        return cls(field, G, G.element((1,)))

    def inverse_hom(self) -> "HomToG":
        return HomToG(self.field, self.group, self.sigma_image.inverse())

    def galois_power(self, s: GroupElement) -> int:
        """The exponent a with h(sigma^a) = s."""
        p = self.field.degree
        u = self.sigma_image.exponents[0]
        return s.exponents[0] * pow(u, -1, p) % p

    def product_weights(self, other: "HomToG") -> tuple[int, int]:
        """Character weights realizing the pointwise product of the two
        homomorphisms on the composite field."""
        if self.group != other.group:
            raise ValueError("homomorphisms target different groups")
        return (self.sigma_image.exponents[0], other.sigma_image.exponents[0])
