import re
from fractions import Fraction
from math import gcd

import pytest

from gform_lab.groups import (
    Character,
    EnumerationBoundError,
    FiniteAbelianGroup,
    GroupSpecError,
    character_value_exponent,
    enumerate_elements,
    galois_twist,
    group_tables,
)
from gform_lab.arith import euler_phi


def test_group_validation():
    FiniteAbelianGroup((3,))
    FiniteAbelianGroup((3, 9))
    FiniteAbelianGroup(())
    with pytest.raises(GroupSpecError):
        FiniteAbelianGroup((1,))
    with pytest.raises(GroupSpecError):
        FiniteAbelianGroup((3, 5))  # 3 does not divide 5


def test_group_rejects_non_integral_invariant_factors():
    # int() would truncate both to 3
    for d in (3.9, Fraction(7, 2)):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {d!r}")):
            FiniteAbelianGroup((d,))
    assert FiniteAbelianGroup((3.0, Fraction(9))) == FiniteAbelianGroup((3, 9))


def test_from_spec():
    assert FiniteAbelianGroup.from_spec("3,9").invariant_factors == (3, 9)
    with pytest.raises(GroupSpecError):
        FiniteAbelianGroup.from_spec("3,5")
    with pytest.raises(GroupSpecError):
        FiniteAbelianGroup.from_spec("")


def test_enumeration_order():
    c3 = FiniteAbelianGroup((3,))
    assert [e.exponents for e in enumerate_elements(c3)] == [(0,), (1,), (2,)]
    c33 = FiniteAbelianGroup((3, 3))
    elems = enumerate_elements(c33)
    assert len(elems) == 9
    assert elems[0].is_identity
    trivial = FiniteAbelianGroup(())
    assert [e.exponents for e in enumerate_elements(trivial)] == [()]


def test_enumeration_bound():
    big = FiniteAbelianGroup((10007,)) if False else FiniteAbelianGroup((101, 101))
    with pytest.raises(EnumerationBoundError):
        enumerate_elements(big)


def test_elements_is_a_fresh_copy_of_the_tables():
    G = FiniteAbelianGroup((3, 9))
    first = G.elements()
    assert first is not G.elements()
    assert first[0].is_identity
    first.reverse()
    first.pop()
    T = group_tables(G)
    assert len(T.elements) == 27 and T.elements[0].is_identity
    assert G.elements() == list(T.elements) == enumerate_elements(G)


def test_elements_bound_is_checked_before_any_table():
    G = FiniteAbelianGroup((101, 101))
    before = group_tables.cache_info().currsize
    for enumerate_ in (G.elements, G.characters):
        with pytest.raises(EnumerationBoundError):
            enumerate_()
    assert group_tables.cache_info().currsize == before


def test_element_arithmetic_and_order():
    g = FiniteAbelianGroup((3, 9))
    s = g.element((1, 2))
    t = g.element((2, 8))
    assert (s * t).exponents == (0, 1)
    assert (s**-1).exponents == s.inverse().exponents == (2, 7)
    assert g.element((0, 3)).order() == 3
    assert g.element((1, 0)).order() == 3
    assert g.element((1, 1)).order() == 9
    assert g.identity().order() == 1


def test_character_values():
    c3 = FiniteAbelianGroup((3,))
    chi = c3.character((1,))
    s = c3.element((1,))
    assert character_value_exponent(chi, s) == 1
    assert character_value_exponent(chi**2, s) == 2
    c9 = FiniteAbelianGroup((9,))
    assert character_value_exponent(c9.character((3,)), c9.element((3,))) == 0


def test_character_bilinearity_exhaustive():
    for facs in [(3,), (9,), (3, 3), (2, 4)]:
        g = FiniteAbelianGroup(facs)
        m = g.exponent
        for chi in g.characters():
            for s in g.elements():
                for t in g.elements():
                    lhs = character_value_exponent(chi, s * t)
                    rhs = character_value_exponent(chi, s) + character_value_exponent(chi, t)
                    assert lhs == rhs % m


def test_dual_pairing_is_perfect():
    for facs in [(3,), (5,), (9,), (3, 3), (2, 4), (7, 7), (100,)]:
        g = FiniteAbelianGroup(facs)
        chars = g.characters()
        for s in g.elements():
            if s.is_identity:
                continue
            assert any(character_value_exponent(chi, s) for chi in chars), (facs, s)


def test_group_mismatch_rejected():
    a = FiniteAbelianGroup((3,))
    b = FiniteAbelianGroup((9,))
    with pytest.raises(GroupSpecError):
        character_value_exponent(a.character((1,)), b.element((1,)))


def test_galois_twist_examples():
    c7 = FiniteAbelianGroup((7,))
    s = c7.element((1,))
    assert galois_twist(s, 2, -1).exponents == (4,)  # 2^{-1} = 4 mod 7
    assert galois_twist(s, 1, 1) == s
    c9 = FiniteAbelianGroup((9,))
    t = c9.element((3,))  # order 3
    assert galois_twist(t, 2, 1).exponents == (6,)
    with pytest.raises(ValueError):
        galois_twist(t, 3, 1)


def test_galois_twist_is_automorphism_and_invertible():
    g = FiniteAbelianGroup((3, 9))
    for k in [2, 4, 5]:
        for s in g.elements():
            for t in g.elements():
                assert galois_twist(s * t, k, 1) == galois_twist(s, k, 1) * galois_twist(t, k, 1)
            assert galois_twist(galois_twist(s, k, -1), k, 1) == s
            assert galois_twist(s, k, 0) == s


TABLE_GROUPS = [(), (3,), (2, 4), (9,), (15,), (3, 3), (3, 9)]


@pytest.mark.parametrize("facs", TABLE_GROUPS)
def test_group_tables_match_direct_computation(facs):
    G = FiniteAbelianGroup(facs)
    T = group_tables(G)
    assert group_tables(G) is T
    assert list(T.elements) == G.elements() == enumerate_elements(G)
    assert list(T.characters) == G.characters()
    assert all(T.element_index[s] == i for i, s in enumerate(T.elements))
    assert all(T.character_index[chi] == i for i, chi in enumerate(T.characters))
    for i, s in enumerate(T.elements):
        assert T.orders[i] == s.order()
        assert T.elements[T.inverse[i]] == s.inverse() and T.inverse[T.inverse[i]] == i
        for j, t in enumerate(T.elements):
            assert T.elements[T.prod[i][j]] == s * t
    m = G.exponent
    for c, chi in enumerate(T.characters):
        for i, s in enumerate(T.elements):
            e = T.value_exponents[c][i]
            assert e == character_value_exponent(chi, s)
            if G.order % 2:
                # upsilon is the centered u with zeta_o^u = zeta_m^e, o = |s|
                o = s.order()
                u = T.upsilon[c][i]
                assert 2 * abs(u) <= o - 1
                assert (u * m - e * o) % (m * o) == 0
    for e in range(-1, 2 * m + 1):
        assert T.power(e) == tuple(T.element_index[s**e] for s in T.elements)
        assert T.power(e) == tuple(T.character_index[chi**e] for chi in T.characters)
    if G.order % 2 == 0:
        with pytest.raises(GroupSpecError):
            T.upsilon


@pytest.mark.parametrize("facs", TABLE_GROUPS)
def test_group_tables_orbits_partition_the_characters(facs):
    G = FiniteAbelianGroup(facs)
    T = group_tables(G)
    covered = []
    for rep, d in T.orbits:
        chi = T.characters[rep]
        assert chi.order() == d
        members = {T.character_index[chi**k] for k in range(1, d + 1) if gcd(k, d) == 1}
        assert len(members) == euler_phi(d)
        assert rep == min(members)  # first in characters() order
        covered += members
    assert sorted(covered) == list(range(G.order))
    assert [rep for rep, _ in T.orbits] == sorted(rep for rep, _ in T.orbits)


def test_powers_reject_a_non_integral_exponent():
    G = FiniteAbelianGroup((9,))
    s, chi = G.element((1,)), G.character((1,))
    with pytest.raises(ValueError, match="expected an integer"):
        s ** Fraction(3, 2)
    with pytest.raises(ValueError, match="expected an integer"):
        chi ** 1.5
    assert s ** Fraction(4, 2) == s * s and chi ** 2.0 == chi * chi


def test_elements_and_characters_reject_non_integral_exponents():
    # int() would truncate 3/2 to 1 and 2.7 to 2
    G = FiniteAbelianGroup((3,))
    for e in (Fraction(3, 2), 2.7):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {e!r}")):
            G.element((e,))
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {e!r}")):
            G.character((e,))
    assert G.element((Fraction(4),)) == G.element((1,)) and G.element((2.0,)) == G.element((2,))
    assert G.character((5.0,)) == G.character((2,))
