"""Finite abelian groups, their elements, and root-of-unity valued characters.

A group is an invariant-factor chain d_1 | d_2 | ... | d_k (each >= 2; the
empty chain is the trivial group). Elements and characters are exponent
vectors; character values are never floats, only the exponent e with
chi(s) = zeta_m^e for m = exp(G).

`group_tables(G)` holds, once per group, the enumerations and the integer
tables that the group-ring and Stickelberger layers read: index maps, the
product table, element inversion, character values, character inversion,
element orders, the centered pairing, the rational character orbits and the
determinant-kernel basis. Each table is built on first use.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import linalg
from .arith import as_int
from .record import Record

DEFAULT_ENUMERATION_BOUND = 10_000


class GroupSpecError(ValueError):
    """Invalid invariant-factor data or group spec string."""


class EnumerationBoundError(ValueError):
    """Group too large for an exhaustive enumeration."""


class FiniteAbelianGroup(Record):
    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        facs = tuple(as_int(d) for d in invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise GroupSpecError(f"invariant factor {d} is < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise GroupSpecError(
                    f"invariant factors must form a divisibility chain; {a} does not divide {b}"
                )

    @classmethod
    def from_spec(cls, spec: str) -> "FiniteAbelianGroup":
        """Parse a CLI group spec such as "3" or "3,9"."""
        parts = [s for s in spec.replace(" ", "").split(",") if s]
        if not parts:
            raise GroupSpecError("empty group spec")
        try:
            facs = tuple(int(s) for s in parts)
        except ValueError as exc:
            raise GroupSpecError(f"bad group spec {spec!r}") from exc
        return cls(facs)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, exponents) -> "GroupElement":
        return GroupElement(self, tuple(exponents))

    def character(self, exponents) -> "Character":
        return Character(self, tuple(exponents))

    def elements(self) -> list["GroupElement"]:
        """A fresh list of the elements in `group_tables` order, identity
        first; above DEFAULT_ENUMERATION_BOUND elements `enumerate_elements`
        raises before any table is built."""
        return list(group_tables(self).elements)

    def characters(self) -> list["Character"]:
        return [Character(self, exps) for exps in _exponent_vectors(self)]

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{d}" for d in self.invariant_factors)


def _reduced(group: FiniteAbelianGroup, exponents) -> tuple[int, ...]:
    """The exponents reduced mod the invariant factors; each must be an
    integer (`as_int`, skipped for an int, the hot case)."""
    facs = group.invariant_factors
    if len(exponents) != len(facs):
        raise GroupSpecError(
            f"exponent vector of length {len(exponents)} for rank-{len(facs)} group"
        )
    return tuple((e if type(e) is int else as_int(e)) % d for e, d in zip(exponents, facs))


def _vector_order(group: FiniteAbelianGroup, exponents) -> int:
    o = 1
    for e, d in zip(exponents, group.invariant_factors):
        o = lcm(o, d // gcd(d, e))
    return o


class GroupElement(Record):
    __slots__ = ("group", "exponents")

    def __init__(self, group: FiniteAbelianGroup, exponents: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", _reduced(group, exponents))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        _same_group(self, other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __pow__(self, k: int) -> "GroupElement":
        k = as_int(k)
        return GroupElement(self.group, tuple(e * k for e in self.exponents))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-e for e in self.exponents))

    def order(self) -> int:
        return _vector_order(self.group, self.exponents)

    @property
    def is_identity(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.exponents) + "]"


class Character(Record):
    """Character chi with chi(s) = zeta_m^((m/d_i) * sum a_i e_i mod m)."""

    __slots__ = ("group", "exponents")

    def __init__(self, group: FiniteAbelianGroup, exponents: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", _reduced(group, exponents))

    def __mul__(self, other: "Character") -> "Character":
        _same_group(self, other)
        return Character(
            self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __pow__(self, k: int) -> "Character":
        k = as_int(k)
        return Character(self.group, tuple(a * k for a in self.exponents))

    def inverse(self) -> "Character":
        return Character(self.group, tuple(-a for a in self.exponents))

    def order(self) -> int:
        return _vector_order(self.group, self.exponents)

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        return "chi[" + ",".join(str(a) for a in self.exponents) + "]"


def _same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupSpecError(f"group mismatch: {a.group} vs {b.group}")


def _exponent_vectors(group: FiniteAbelianGroup):
    """The exponent vectors of the group in lexicographic order, zero first;
    an EnumerationBoundError at once above DEFAULT_ENUMERATION_BOUND."""
    if group.order > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"|G| = {group.order} exceeds bound {DEFAULT_ENUMERATION_BOUND}")
    return itertools.product(*(range(d) for d in group.invariant_factors))


def enumerate_elements(group: FiniteAbelianGroup) -> list[GroupElement]:
    """All elements in lexicographic exponent order; the identity comes first."""
    return [GroupElement(group, exps) for exps in _exponent_vectors(group)]


def character_value_exponent(chi: Character, s: GroupElement) -> int:
    """The exponent k with chi(s) = zeta_m^k, m = exp(G)."""
    if chi.group != s.group:
        raise GroupSpecError(f"group mismatch: {chi.group} vs {s.group}")
    m = chi.group.exponent
    acc = 0
    for a, e, d in zip(chi.exponents, s.exponents, chi.group.invariant_factors):
        acc += (m // d) * a * e
    return acc % m


def galois_twist(s: GroupElement, k: int, n_sign: int) -> GroupElement:
    """s -> s^(k^n_sign); the residue k plays the role of a cyclotomic-character
    value mod exp(G), so k must be a unit. n_sign is usually -1, 0 or 1."""
    m = s.group.exponent
    if gcd(k, m) != 1:
        raise ValueError(f"{k} is not a unit mod {m}")
    e = pow(k, n_sign, m) if m > 1 else 0
    return s**e


class GroupTables(Record):
    """Enumerations of G and G^ with their index maps, plus integer tables
    indexed by position in those enumerations (elements in `elements()`
    order, characters in `characters()` order). Compared by identity; the
    tables are cached in the instance `__dict__`."""

    _fields = ("group", "elements", "characters", "element_index", "character_index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        group: FiniteAbelianGroup,
        elements: tuple[GroupElement, ...],
        characters: tuple[Character, ...],
        element_index: dict,
        character_index: dict,
    ):
        self.__dict__.update(group=group, elements=elements, characters=characters,
                             element_index=element_index, character_index=character_index)

    @cached_property
    def prod(self) -> tuple[tuple[int, ...], ...]:
        """prod[i][j] = index of elements[i] * elements[j]."""
        index = self.element_index
        return tuple(
            tuple(index[s * t] for t in self.elements) for s in self.elements
        )

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[i] = index of elements[i]^-1; an involution."""
        return tuple(self.element_index[s.inverse()] for s in self.elements)

    def power(self, e: int) -> tuple[int, ...]:
        """power[i] = index of elements[i]^e (and of characters[i]^e), read
        off the exponent vectors with no hashing: both enumerations are
        lexicographic, so an index is the mixed-radix value of its vector."""
        facs = self.group.invariant_factors
        out = []
        for s in self.elements:
            i = 0
            for x, d in zip(s.exponents, facs):
                i = i * d + x * e % d
            out.append(i)
        return tuple(out)

    @cached_property
    def value_exponents(self) -> tuple[tuple[int, ...], ...]:
        """value_exponents[c][i] = e with characters[c](elements[i]) = zeta_m^e."""
        return tuple(
            tuple(character_value_exponent(chi, s) for s in self.elements)
            for chi in self.characters
        )

    @cached_property
    def conjugate(self) -> tuple[int, ...]:
        """conjugate[c] = index of characters[c]^-1; an involution."""
        index = self.character_index
        return tuple(index[chi.inverse()] for chi in self.characters)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(s.order() for s in self.elements)

    @cached_property
    def upsilon(self) -> tuple[tuple[int, ...], ...]:
        """upsilon[c][i] = the u in [-(o-1)/2, (o-1)/2] with
        characters[c](elements[i]) = zeta_o^u, o = |elements[i]|; odd |G| only."""
        if self.group.order % 2 == 0:
            raise GroupSpecError(
                f"{self.group} has even order; the centered pairing needs odd order"
            )
        m = self.group.exponent
        rows = []
        for exps in self.value_exponents:
            row = []
            for e, o in zip(exps, self.orders):
                # chi(s) is an o-th root of unity, so (m/o) divides e
                u = (e * o // m) % o
                row.append(u - o if u > (o - 1) // 2 else u)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def orbits(self) -> tuple[tuple[int, int], ...]:
        """Rational character orbits {chi^k : gcd(k, d) = 1}, d = ord(chi),
        as (index of chi, d). The representative chi is the first member of
        its orbit in enumeration order, so the orbits are listed in the order
        of their representatives."""
        seen = set()
        out = []
        for i, chi in enumerate(self.characters):
            if chi in seen:
                continue
            d = chi.order()
            seen.update(chi**k for k in range(1, d + 1) if gcd(k, d) == 1)
            out.append((i, d))
        return tuple(out)

    @cached_property
    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Canonical basis (HNF rows) of the kernel of det: ZG^ -> G^,
        psi -> prod chi^(psi_chi). The kernel has full rank |G| and index |G|;
        both facts, and det = 1 on every row, are verified."""
        G = self.group
        n = G.order
        facs = G.invariant_factors
        if not facs:
            return ((1,),)
        # over m = exp(G): an identity block, then the det map, row i of
        # which is the character exponents over the invariant factor d_i
        m = G.exponent
        mat = [[m * int(i == j) for j in range(n)] for i in range(n)]
        for i, d in enumerate(facs):
            mat.append([chi.exponents[i] * (m // d) for chi in self.characters])
        rows, den = linalg.preimage_lattice(mat, m)
        if den != 1:
            raise ArithmeticError("kernel lattice is not integral")
        index = 1
        for i in range(n):
            index *= rows[i][i]
        if index != n:
            raise ArithmeticError(f"kernel index {index} != |G| = {n}")
        for row in rows:
            for i, d in enumerate(facs):
                if sum(c * chi.exponents[i] for c, chi in zip(row, self.characters)) % d:
                    raise ArithmeticError("basis vector escapes the determinant kernel")
        return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None)
def group_tables(group: FiniteAbelianGroup) -> GroupTables:
    """The tables of a group, built once per group and cached."""
    elements = tuple(enumerate_elements(group))
    characters = tuple(group.characters())
    return GroupTables(
        group,
        elements,
        characters,
        {s: i for i, s in enumerate(elements)},
        {chi: i for i, chi in enumerate(characters)},
    )
