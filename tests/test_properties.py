"""Hypothesis property sweeps for the exact-arithmetic cores."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gform_lab.cyclotomic import CyclotomicNumber
import pytest

from gform_lab.group_ring import (
    FourierVector,
    GroupRingElement,
    NotInvertible,
    fourier,
    fourier_inverse,
    invert_by_linear_solve,
    try_invert,
)
from gform_lab.groups import FiniteAbelianGroup
from gform_lab.stickelberger import DualLatticeElement, integrality_check

C9 = FiniteAbelianGroup((9,))
C33 = FiniteAbelianGroup((3, 3))

small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def cyclo(level):
    from gform_lab.arith import euler_phi

    return st.lists(
        small_fractions, min_size=euler_phi(level), max_size=euler_phi(level)
    ).map(lambda cs: CyclotomicNumber(level, cs))


@settings(max_examples=60, deadline=None)
@given(a=cyclo(9), b=cyclo(9), c=cyclo(9))
def test_cyclotomic_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(a=cyclo(7), k=st.sampled_from([1, 2, 3, 4, 5, 6]))
def test_galois_commutes_with_inverse(a, k):
    if a.is_zero():
        return
    assert a.inverse().galois(k) == a.galois(k).inverse()


def group_ring_elements(G):
    elems = G.elements()
    return st.lists(
        st.integers(min_value=-6, max_value=6), min_size=len(elems), max_size=len(elems)
    ).map(lambda cs: GroupRingElement(G, dict(zip(elems, cs))))


@settings(max_examples=40, deadline=None)
@given(a=group_ring_elements(C33), b=group_ring_elements(C33))
def test_involution_is_ring_map(a, b):
    assert (a * b).involute() == a.involute() * b.involute()
    assert (a + b).involute() == a.involute() + b.involute()
    assert a.involute().involute() == a


@settings(max_examples=25, deadline=None)
@given(a=group_ring_elements(C9))
def test_fourier_roundtrip(a):
    assert fourier_inverse(fourier(a)) == a


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-5, max_value=5), min_size=9, max_size=9)
)
def test_integrality_iff_kernel_c33(coeffs):
    psi = DualLatticeElement(C33, tuple(coeffs))
    assert integrality_check(psi) == psi.det().is_trivial


ORBIT_GROUPS = [FiniteAbelianGroup(f) for f in [(3,), (5,), (7,), (9,), (15,), (3, 3), (3, 9)]]


@st.composite
def small_rational_elements(draw):
    """Rational elements with coefficients in [-2, 2] over a group drawn
    from ORBIT_GROUPS; some coefficients have denominators. Half the draws
    are multiplied by the norm element of a cyclic subgroup <s>, s != 1,
    which makes the Fourier values vanish at every character nontrivial on
    s, so the first vanishing character is not the trivial one."""
    G = draw(st.sampled_from(ORBIT_GROUPS))
    coeffs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 1, 1, 2, 3))),
            min_size=G.order,
            max_size=G.order,
        )
    )
    gamma = GroupRingElement(G, dict(zip(G.elements(), coeffs)))
    if draw(st.booleans()):
        s = draw(st.sampled_from(G.elements()[1:]))
        norm = GroupRingElement(G, {s**k: 1 for k in range(s.order())})
        gamma = gamma * norm
    return gamma


@settings(max_examples=120, deadline=None)
@given(gamma=small_rational_elements())
def test_orbit_inversion_matches_both_oracles(gamma):
    """try_invert (orbit route) against the regular-representation solve and
    the per-character transform, on units and on singular elements."""
    G = gamma.group
    vec = fourier(gamma)
    vanishing = [chi for chi in G.characters() if vec[chi].is_zero()]
    if vanishing:
        with pytest.raises(NotInvertible) as info:
            try_invert(gamma)
        assert info.value.character == vanishing[0]
        with pytest.raises(NotInvertible):
            invert_by_linear_solve(gamma)
        return
    inv = try_invert(gamma)
    assert inv == invert_by_linear_solve(gamma)
    per_character = FourierVector(
        G, vec.level, {chi: v.inverse() for chi, v in vec.values.items()}
    )
    assert inv == fourier_inverse(per_character)
