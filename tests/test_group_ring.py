import json
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from gform_lab.arith import euler_phi
from gform_lab.cyclotomic import CyclotomicNumber, convolve, trace_to_subfield
from gform_lab.group_ring import (
    FourierVector,
    GroupRingElement,
    NotInvertible,
    SelfDualityClass,
    _demote,
    _invert_by_characters,
    _invert_by_orbits,
    class_membership,
    fourier,
    fourier_inverse,
    invert_by_linear_solve,
    is_integral_unit,
    try_invert,
)
from gform_lab.groups import FiniteAbelianGroup, GroupElement, GroupSpecError, group_tables

C3 = FiniteAbelianGroup((3,))
C7 = FiniteAbelianGroup((7,))
C9 = FiniteAbelianGroup((9,))
C33 = FiniteAbelianGroup((3, 3))


def rand_element(G, rng, lo=-5, hi=5, ring="Q"):
    coeffs = {}
    for s in G.elements():
        if ring == "Q":
            coeffs[s] = Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, 4))
        else:
            coeffs[s] = rng.randrange(lo, hi + 1)
    return GroupRingElement(G, coeffs)


def test_involution_examples():
    s = C3.element((1,))
    one = GroupRingElement.one(C3)
    assert one.involute() == one
    gs = GroupRingElement.from_element(s)
    assert gs.involute() == GroupRingElement.from_element(s.inverse())
    gamma = 2 + 3 * gs
    assert gamma.involute() == 2 + 3 * GroupRingElement.from_element(C3.element((2,)))


def test_involution_is_ring_automorphism_randomized():
    rng = random.Random(1)
    for G in (C3, C9, C33):
        for _ in range(10):
            a = rand_element(G, rng)
            b = rand_element(G, rng)
            assert (a * b).involute() == a.involute() * b.involute()
            assert a.involute().involute() == a
            assert (a + b).involute() == a.involute() + b.involute()


def test_fourier_trivial_cases():
    one = GroupRingElement.one(C3)
    v = fourier(one)
    assert all(val == 1 for val in v.values.values())
    total = sum(
        (GroupRingElement.from_element(s) for s in C3.elements()),
        GroupRingElement.zero(C3),
    )
    w = fourier(total)
    for chi, val in w.values.items():
        assert val == (3 if chi.is_trivial else 0)


def test_fourier_roundtrip_random():
    rng = random.Random(2)
    for G in (C3, C7, C9, C33):
        for _ in range(5):
            gamma = rand_element(G, rng)
            assert fourier_inverse(fourier(gamma)) == gamma


def pointwise_mul(u: FourierVector, v: FourierVector) -> FourierVector:
    """The product of two character transforms, character by character."""
    vals = {chi: u.values[chi] * v.values[chi] for chi in u.values}
    return FourierVector(u.group, lcm(u.level, v.level), vals)


def test_fourier_turns_convolution_pointwise():
    rng = random.Random(3)
    a = rand_element(C7, rng)
    b = rand_element(C7, rng)
    assert fourier(a * b) == pointwise_mul(fourier(a), fourier(b))


def test_fourier_of_involution_precomposes_inverse():
    rng = random.Random(4)
    for G in (C3, C7, C9, C33):
        gamma = rand_element(G, rng)
        v = fourier(gamma)
        w = fourier(gamma.involute())
        for chi in G.characters():
            assert w[chi] == v[chi.inverse()]


def test_try_invert_examples():
    s = GroupRingElement.from_element(C3.element((1,)))
    assert try_invert(s) == GroupRingElement.from_element(C3.element((2,)))
    total = sum((GroupRingElement.from_element(t) for t in C3.elements()), GroupRingElement.zero(C3))
    with pytest.raises(NotInvertible) as exc:
        try_invert(total)
    assert exc.value.character is not None and not exc.value.character.is_trivial
    gamma = 1 + s - s * s
    inv = try_invert(gamma)
    assert inv * gamma == GroupRingElement.one(C3)


def test_try_invert_matches_linear_solve():
    rng = random.Random(5)
    for G in (C3, C7, C9):
        done = 0
        while done < 8:
            gamma = rand_element(G, rng, ring="Z")
            try:
                inv = try_invert(gamma)
            except NotInvertible:
                continue
            assert inv == invert_by_linear_solve(gamma)
            done += 1


def test_invert_cyclotomic_coefficients():
    z = CyclotomicNumber.zeta(7)
    s = C3.element((1,))
    gamma = GroupRingElement(C3, {C3.identity(): 1 + z, s: z * z})
    inv = try_invert(gamma)
    assert inv * gamma == GroupRingElement.one(C3)
    assert invert_by_linear_solve(gamma) == inv


def test_is_integral_unit():
    s = GroupRingElement.from_element(C3.element((1,)))
    assert is_integral_unit(-s)
    assert not is_integral_unit(GroupRingElement.scalar(C3, 2))
    assert not is_integral_unit(GroupRingElement.scalar(C3, Fraction(1, 2)))
    # 1+s+s^2-s^3 = 1+s+s^2-1 in C3; build in C7 instead where it is honest
    t = GroupRingElement.from_element(C7.element((1,)))
    gamma = 1 + t + t**2 - t**3
    assert is_integral_unit(gamma) == (
        try_invert(gamma).is_integral() if _invertible(gamma) else False
    )


def _invertible(gamma):
    try:
        try_invert(gamma)
        return True
    except NotInvertible:
        return False


def test_class_membership():
    s = GroupRingElement.from_element(C3.element((1,)))
    assert class_membership(s) == SelfDualityClass.STRICT
    assert class_membership(GroupRingElement.scalar(C3, 2)) == SelfDualityClass.NEITHER
    with pytest.raises(NotInvertible):
        class_membership(GroupRingElement.zero(C3))
    # strict elements have character values on the unit circle pairing: v * v(inverse chi) = 1
    v = fourier(s)
    for chi in C3.characters():
        assert v[chi] * v[chi.inverse()] == 1


def test_class_membership_invariant_under_unit_multiplication():
    s = GroupRingElement.from_element(C3.element((1,)))
    gamma = 1 + 2 * s + 2 * s * s
    u = -s  # an integral unit
    assert is_integral_unit(u)
    assert class_membership(gamma * u) == class_membership(gamma)
    assert class_membership(gamma) == SelfDualityClass.NEITHER  # 25 at the trivial character


def test_strict_class_fourier_pairing_random_units():
    # +/- group elements are the easy strict units; check the pairing law on them
    rng = random.Random(6)
    for G in (C3, C9):
        for _ in range(5):
            s = rng.choice(G.elements())
            gamma = GroupRingElement.from_element(s, -1 if rng.random() < 0.5 else 1)
            assert class_membership(gamma) == SelfDualityClass.STRICT
            v = fourier(gamma)
            for chi in G.characters():
                assert v[chi] * v[chi.inverse()] == 1


def test_text_and_json_forms():
    s = GroupRingElement.from_element(C33.element((1, 2)), 3)
    gamma = 2 + s
    assert str(gamma) == "2*[0,0] + 3*[1,2]"
    j = gamma.to_json()
    assert j["group"] == [3, 3]
    assert j["terms"][1]["element"] == [1, 2]
    assert j["terms"][1]["coeff"] == "3/1"


# -- the dense storage against a dict-keyed reference --------------------------


class DictElement:
    """Reference group-ring element keyed by GroupElement: the sparse dict
    storage and the arithmetic the dense storage replaced."""

    def __init__(self, group, coeffs):
        self.group = group
        self.coeffs = {}
        for s, c in coeffs.items():
            c = Fraction(c) if isinstance(c, int) else c
            if not (c.is_zero() if isinstance(c, CyclotomicNumber) else c == 0):
                self.coeffs[s] = c

    def __add__(self, other):
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out[s] + c if s in out else c
        return DictElement(self.group, out)

    def __neg__(self):
        return DictElement(self.group, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for s, c in self.coeffs.items():
            for t, d in other.coeffs.items():
                out[s * t] = out[s * t] + c * d if s * t in out else c * d
        return DictElement(self.group, out)

    def involute(self):
        return DictElement(self.group, {s.inverse(): c for s, c in self.coeffs.items()})

    def __eq__(self, other):
        return set(self.coeffs) == set(other.coeffs) and all(
            c == other.coeffs[s] for s, c in self.coeffs.items()
        )

    def is_rational(self):
        return not any(isinstance(c, CyclotomicNumber) for c in self.coeffs.values())

    def coefficient(self, s):
        return self.coeffs.get(s, Fraction(0))

    def to_json(self):
        terms = []
        for s, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].exponents):
            coeff = c.to_json() if isinstance(c, CyclotomicNumber) else f"{c.numerator}/{c.denominator}"
            terms.append({"element": list(s.exponents), "coeff": coeff})
        return {"group": list(self.group.invariant_factors), "terms": terms}


def _rand_coefficient(rng, kind):
    if kind == "int":
        return rng.randrange(-4, 5)
    if kind == "fraction":
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    if kind == "zero-cyclotomic":
        return CyclotomicNumber.rational(0, 7)
    if kind == "rational-cyclotomic":
        return CyclotomicNumber.rational(Fraction(rng.randrange(1, 5), 2), 9)
    z = CyclotomicNumber.zeta(rng.choice((7, 9)))
    return rng.randrange(-2, 3) + rng.randrange(1, 3) * z ** rng.randrange(1, 6)


def _rand_pair(G, rng, kinds):
    coeffs = {s: _rand_coefficient(rng, rng.choice(kinds)) for s in G.elements()}
    return GroupRingElement(G, coeffs), DictElement(G, coeffs)


def _assert_same(x, ref):
    G = x.group
    for s in G.elements():
        c, r = x.coefficient(s), ref.coefficient(s)
        assert type(c) is type(r) and c == r, (s, c, r)
    assert x.is_rational() == ref.is_rational()
    assert x.coeffs == ref.coeffs
    assert x.to_json() == ref.to_json()


KIND_MIXES = [
    ("int",),
    ("int", "fraction"),
    ("fraction", "zero-cyclotomic"),
    ("int", "rational-cyclotomic"),
    ("int", "fraction", "cyclotomic", "zero-cyclotomic", "rational-cyclotomic"),
]


@pytest.mark.parametrize("G", [C3, C9, C33], ids=str)
def test_dense_storage_matches_dict_reference(G):
    rng = random.Random(21)
    for kinds in KIND_MIXES:
        for _ in range(6):
            a, ra = _rand_pair(G, rng, kinds)
            b, rb = _rand_pair(G, rng, kinds)
            _assert_same(a, ra)
            for x, ref in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                           (a * b, ra * rb), (a.involute(), ra.involute())):
                _assert_same(x, ref)
            assert (a == b) == (ra == rb)
            assert a == GroupRingElement(G, ra.coeffs)


def test_dense_storage_edge_cases():
    e, s = C3.identity(), C3.element((1,))
    # an all-zero cyclotomic coefficient is dropped, so the element is rational
    zero_cyclo = GroupRingElement(C3, {e: 2, s: CyclotomicNumber.rational(0, 7)})
    assert zero_cyclo.is_rational()
    assert zero_cyclo.coeffs == {e: 2}
    assert GroupRingElement(C3, {s: CyclotomicNumber.zeta(7) - CyclotomicNumber.zeta(7)}).is_zero()
    # a nonzero rational-valued cyclotomic coefficient keeps the element
    # non-rational until it is demoted
    cyclo = GroupRingElement(C3, {e: CyclotomicNumber.rational(2, 7)})
    rational = GroupRingElement.scalar(C3, 2)
    assert not cyclo.is_rational() and rational.is_rational()
    assert cyclo == rational and rational == cyclo
    assert cyclo.demoted().is_rational() and cyclo.demoted() == rational
    assert cyclo.to_json() != rational.to_json()
    assert type(cyclo.coefficient(e)) is CyclotomicNumber
    assert type(rational.coefficient(e)) is Fraction
    assert rational != GroupRingElement.scalar(C3, 3)
    # lowest terms: equal values stored over the same denominator
    half = GroupRingElement(C3, {e: Fraction(1, 2), s: Fraction(3, 2)})
    assert (half + half).den == 1 and (half + half).num == (1, 3, 0)
    assert str(GroupRingElement.zero(C3)) == "0"


def test_coeffs_is_a_derived_copy():
    s = C3.element((1,))
    gamma = GroupRingElement(C3, {s: 5})
    gamma.coeffs[s] = 7
    gamma.coeffs[C3.identity()] = 1
    assert gamma == GroupRingElement.from_element(s, 5)
    with pytest.raises(AttributeError):
        gamma.num = (0, 0, 0)


def test_foreign_keys_and_elements_raise_group_spec_error():
    with pytest.raises(GroupSpecError):
        GroupRingElement(C3, {C9.identity(): 1})
    with pytest.raises(GroupSpecError):
        GroupRingElement(C3, {(0,): 1})
    gamma = GroupRingElement.one(C3)
    for foreign in (C9.element((1,)), C33.identity()):
        with pytest.raises(GroupSpecError) as exc:
            gamma.coefficient(foreign)
        assert not isinstance(exc.value, KeyError)
    with pytest.raises(TypeError):
        GroupRingElement(C3, {C3.identity(): 1.5})


# -- operation counts: the rational paths hash no group element ----------------


def _invertible_rational(G, rng):
    while True:
        gamma = rand_element(G, rng)
        try:
            try_invert(gamma)
        except NotInvertible:
            continue
        return gamma


@pytest.mark.parametrize("G", [C9, C33], ids=str)
def test_rational_paths_hash_no_group_element(G, monkeypatch):
    rng = random.Random(22)
    a, b = _invertible_rational(G, rng), rand_element(G, rng)

    def run():
        a * b, a.involute(), try_invert(a), invert_by_linear_solve(a), a.to_json(), str(a)

    run()  # builds every table of group_tables(G) on the way
    calls = []
    original = GroupElement.__hash__

    def counting_hash(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GroupElement, "__hash__", counting_hash)
    GroupRingElement(G, {G.identity(): 1})  # the dict edge does hash
    assert calls
    calls.clear()
    run()
    assert calls == []


# -- the packed convolution against the term-by-term sum -----------------------

C5 = FiniteAbelianGroup((5,))


def _term_by_term(a, b):
    """The product coefficients as sums of CyclotomicNumber products, one
    pair of coefficients at a time: the oracle for `convolve`."""
    prod = group_tables(a.group).prod
    b_terms = [(j, d) for j, d in enumerate(b._coefficients()) if d]
    out = [None] * len(prod)
    for i, c in enumerate(a._coefficients()):
        if c:
            for j, d in b_terms:
                k = prod[i][j]
                out[k] = c * d if out[k] is None else out[k] + c * d
    return [0 if c is None else c for c in out]


def _shape(c):
    """Type, level, numerators and denominator of one coefficient."""
    if isinstance(c, CyclotomicNumber):
        return CyclotomicNumber, c.level, c.num, c.den
    return type(c), c.numerator, c.denominator


def _assert_convolution_matches(a, b):
    expected = _term_by_term(a, b)
    got = convolve(a._coefficients(), b._coefficients(), group_tables(a.group).prod)
    assert [_shape(c) for c in got] == [_shape(c) for c in expected]
    product, reference = a * b, GroupRingElement._dense(a.group, expected)
    assert (product.num, product.den) == (reference.num, reference.den)
    assert [_shape(c) for c in product.values or ()] == [_shape(c) for c in reference.values or ()]
    return got


def _rand_coefficient_at(rng, levels):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    level = rng.choice(levels)
    return CyclotomicNumber(level, [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
                                    for _ in range(euler_phi(level))])


def _rand_cyclotomic_element(G, rng, levels):
    return GroupRingElement._dense(G, [_rand_coefficient_at(rng, levels) for _ in range(G.order)])


@pytest.mark.parametrize("G", [C3, C5, C9, C33], ids=str)
@pytest.mark.parametrize("levels", [(3,), (5,), (9,), (7,), (7, 13), (13, 39), (29, 203), (7, 9)],
                         ids=str)
def test_packed_convolution_matches_the_term_by_term_sum(G, levels, monkeypatch):
    # the C7 Fourier values of a conductor-29 resolvend live at level 203
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "203")
    rng = random.Random(sum(levels) * G.order)
    zero = GroupRingElement.zero(G)
    for _ in range(4):
        a = _rand_cyclotomic_element(G, rng, levels)
        b = _rand_cyclotomic_element(G, rng, levels)
        for x, y in ((a, b), (b, a), (a, b.involute()), (a, rand_element(G, rng)),
                     (rand_element(G, rng), b), (zero, a), (a, zero)):
            _assert_convolution_matches(x, y)
    # every coefficient at its extreme: some output slot reaches the bound the
    # slots are sized for
    for level in levels:
        top = CyclotomicNumber(level, [97] * euler_phi(level))
        full = GroupRingElement._dense(G, [top] * G.order)
        _assert_convolution_matches(full, full)
        _assert_convolution_matches(full, GroupRingElement._dense(G, [Fraction(-89)] * G.order))


def test_packed_convolution_reads_each_output_at_its_own_level():
    z7, z13 = CyclotomicNumber.zeta(7), CyclotomicNumber.zeta(13)
    s = C3.element((1,))
    a = GroupRingElement(C3, {C3.identity(): 2 + z7, s: z13 - 3})
    b = GroupRingElement(C3, {C3.identity(): Fraction(1, 2)})
    got = _assert_convolution_matches(a, b)
    assert [_shape(c)[:2] for c in got] == [(CyclotomicNumber, 7), (CyclotomicNumber, 13), (int, 0)]
    # two levels meeting at one output give their lcm there
    c = GroupRingElement(C3, {C3.identity(): z7, s.inverse(): z13})
    got = _assert_convolution_matches(a, c)
    assert {_shape(x)[1] for x in got} == {91}


def test_packed_convolution_rational_and_cancelling_outputs():
    z = CyclotomicNumber.zeta(7)
    e, s = C3.identity(), C3.element((1,))
    # (z e + z s)(z^-1 e - z^-1 s^2) = 0 e + 1 s - 1 s^2: a zero output and
    # two rational values, all at level 7
    a = GroupRingElement(C3, {e: z, s: z})
    b = GroupRingElement(C3, {e: z.inverse(), s.inverse(): -z.inverse()})
    got = _assert_convolution_matches(a, b)
    assert [_shape(c) for c in got] == [(CyclotomicNumber, 7, (0,) * 6, 1),
                                        (CyclotomicNumber, 7, (1,) + (0,) * 5, 1),
                                        (CyclotomicNumber, 7, (-1,) + (0,) * 5, 1)]
    product = a * b
    assert product.values[0] == 0 and product.values[1].is_rational()
    # an output only rational pairs reach is a Fraction, also when it
    # cancels: e gets 1/2 * 3 + 1 * (-3/2)
    c = GroupRingElement(C3, {e: Fraction(1, 2), s: 1, s.inverse(): z})
    d = GroupRingElement(C3, {e: 3, s.inverse(): Fraction(-3, 2)})
    got = _assert_convolution_matches(c, d)
    assert [_shape(x)[:2] for x in got] == [(Fraction, 0), (CyclotomicNumber, 7),
                                            (CyclotomicNumber, 7)]


def test_a_product_over_c_p_reduces_once_per_output(monkeypatch):
    from gform_lab import cyclotomic

    for G, level in ((C3, 7), (C5, 11)):
        rng = random.Random(level)
        a = GroupRingElement._dense(G, [_rand_coefficient_at(rng, (level,)) or Fraction(1)
                                        for _ in range(G.order)])
        b = GroupRingElement._dense(G, [CyclotomicNumber(level, [rng.randint(-5, 5) for _ in
                                                                 range(euler_phi(level))])
                                        for _ in range(G.order)])
        calls = []
        original = cyclotomic._reduce

        def counting_reduce(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(cyclotomic, "_reduce", counting_reduce)
        a * b
        monkeypatch.undo()
        assert calls == [level] * G.order


@pytest.mark.parametrize("G", [C3, C5, C9, C33], ids=str)
def test_translation_matches_the_convolution_product(G):
    # a translation permutes the coefficients; the product with the group
    # element gives the same types, levels and normal forms
    rng = random.Random(G.order)
    elements = group_tables(G).elements
    cases = [rand_element(G, rng), rand_element(G, rng, ring="Z"), GroupRingElement.zero(G)]
    cases += [_rand_cyclotomic_element(G, rng, levels) for levels in ((7,), (7, 13), (1, 9))]
    cases.append(GroupRingElement._dense(G, [CyclotomicNumber.rational(2, 7)] * G.order))
    for a in cases:
        for i, t in enumerate(elements):
            moved, product = a.translate(i), a * GroupRingElement.from_element(t)
            assert moved == product
            assert (moved.num, moved.den) == (product.num, product.den)
            assert [_shape(c) for c in moved.values or ()] == [
                _shape(c) for c in product.values or ()]
            assert moved.translate(group_tables(G).inverse[i]) == a


# -- the integer orbit route against the regular-representation oracle -------

# every abelian group of odd order up to 27, the trivial group included
ODD_GROUPS_TO_27 = [FiniteAbelianGroup(f) for f in [
    (), (3,), (5,), (7,), (9,), (3, 3), (11,), (13,), (15,), (17,), (19,), (21,), (23,),
    (25,), (5, 5), (27,), (3, 9), (3, 3, 3)]]


def _inverse_or_none(route, gamma):
    try:
        return route(gamma)
    except NotInvertible:
        return None


@pytest.mark.parametrize("G", ODD_GROUPS_TO_27, ids=str)
def test_orbit_route_matches_the_linear_solve_oracle(G):
    rng = random.Random(G.order)
    elems = G.elements()
    units = []
    for _ in range(4):
        gamma = rand_element(G, rng)
        # (1 - g) vanishes at every character trivial on g, and the sum over
        # <g> at every character that is not: both products are singular
        t = rng.choice(elems[1:] or elems)
        g = GroupRingElement.from_element(t)
        orbit_sum = sum((g**k for k in range(t.order())), GroupRingElement.zero(G))
        for candidate in (gamma, gamma * (1 - g), gamma * orbit_sum):
            inv = _inverse_or_none(try_invert, candidate)
            assert inv == _inverse_or_none(invert_by_linear_solve, candidate)
            if inv is not None:
                assert inv * candidate == GroupRingElement.one(G)
                units.append(candidate)
    assert units
    with pytest.raises(NotInvertible):
        try_invert(GroupRingElement.zero(G))
    with pytest.raises(NotInvertible):
        invert_by_linear_solve(GroupRingElement.zero(G))


def _constructions(call, codes) -> int:
    """How many calls of the given code objects `call()` makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("G", [C3, C9, C33, FiniteAbelianGroup((21,))], ids=str)
def test_orbit_route_builds_no_fraction_and_no_cyclotomic_number(G):
    # every Fraction starts in Fraction.__new__ (or the constructor behind it
    # where the Python version has one); every CyclotomicNumber in __init__
    # or _raw
    codes = {Fraction.__new__.__code__, CyclotomicNumber.__init__.__code__,
             CyclotomicNumber._raw.__func__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    rng = random.Random(29)
    gamma = _invertible_rational(G, rng) * Fraction(1, 7)
    assert gamma.den > 1
    # the counter does see both: the per-character route builds them
    assert _constructions(lambda: _invert_by_characters(gamma), codes) > 0
    assert _constructions(lambda: _invert_by_orbits(gamma), codes) == 0
    assert _invert_by_orbits(gamma) == _invert_by_characters(gamma)


def test_both_routes_check_their_inverse_by_multiplying_back(monkeypatch):
    import gform_lab.group_ring as group_ring
    import gform_lab.linalg as linalg

    gamma = _invertible_rational(C9, random.Random(31))
    solve, by_orbits = linalg._solve, group_ring._invert_by_orbits

    def off_by_one(mat, rhs):
        x, den = solve(mat, rhs)
        return [x[0] + den] + x[1:], den

    monkeypatch.setattr(linalg, "_solve", off_by_one)
    with pytest.raises(ArithmeticError, match="linear-solve inverse verification"):
        invert_by_linear_solve(gamma)
    monkeypatch.setattr(group_ring, "_invert_by_orbits", lambda g: by_orbits(g) + 1)
    with pytest.raises(ArithmeticError, match="inverse verification"):
        try_invert(gamma)


# -- the character transform against the term-by-term sum ----------------------

C15 = FiniteAbelianGroup((15,))
C25 = FiniteAbelianGroup((25,))


def _reference_roots(m, level):
    return [CyclotomicNumber.zeta(level, (level // m) * e) for e in range(m)]


def _reference_fourier(gamma):
    """The character transform as a sum of CyclotomicNumber products, one
    coefficient at a time: the oracle for `fourier`."""
    G = gamma.group
    T = group_tables(G)
    level = lcm(G.exponent, gamma.coefficient_level())
    roots = _reference_roots(G.exponent, level)
    terms = [(i, c) for i, c in enumerate(gamma._coefficients()) if c]
    values = {}
    for chi, exps in zip(T.characters, T.value_exponents):
        acc = CyclotomicNumber.rational(0, level)
        for i, c in terms:
            acc = acc + roots[exps[i]] * c
        values[chi] = acc
    return FourierVector(G, level, values)


def _reference_fourier_inverse(vec):
    """The inverse transform as a sum of CyclotomicNumber products: the
    oracle for `fourier_inverse`."""
    G = vec.group
    T = group_tables(G)
    m = G.exponent
    roots = _reference_roots(m, vec.level)
    terms = [(T.value_exponents[T.character_index[chi]], v) for chi, v in vec.values.items()]
    coeffs = []
    for i in range(len(T.elements)):
        acc = CyclotomicNumber.rational(0, vec.level)
        for exps, v in terms:
            # chi(s^-1) = zeta_m^(-e)
            acc = acc + roots[-exps[i] % m] * v
        coeffs.append(_demote(acc * Fraction(1, G.order)))
    return GroupRingElement._dense(G, coeffs)


def _assert_same_element(got, expected):
    shapes = [[_shape(c) for c in x._coefficients()] for x in (got, expected)]
    assert shapes[0] == shapes[1]
    assert (got.num, got.den) == (expected.num, expected.den)
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())


@pytest.mark.parametrize("G", [C3, C7, C9, C33, C15, C25], ids=str)
@pytest.mark.parametrize("level", [1, 3, 4, 5, 7, 12])
def test_transforms_match_the_term_by_term_sums(G, level, monkeypatch):
    # C25 with level-12 coefficients transforms at level 300
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "300")
    rng = random.Random(100 * G.order + level)
    elements = [rand_element(G, rng), rand_element(G, rng, ring="Z"), GroupRingElement.zero(G)]
    if level > 1:
        elements += [_rand_cyclotomic_element(G, rng, (level,)) for _ in range(2)]
    for gamma in elements:
        vec, expected = fourier(gamma), _reference_fourier(gamma)
        assert vec.level == expected.level
        assert list(vec.values) == list(expected.values)
        for chi, v in expected.values.items():
            assert vec[chi].level == v.level
            assert json.dumps(vec[chi].to_json()) == json.dumps(v.to_json())
        _assert_same_element(fourier_inverse(vec), _reference_fourier_inverse(vec))
        # values of other levels, rationals and zeros, on some characters only
        chosen = rng.sample(G.characters(), max(1, G.order - 1))
        values = {chi: _rand_coefficient_at(rng, (level,)) for chi in chosen}
        other = FourierVector(G, vec.level, values)
        _assert_same_element(fourier_inverse(other), _reference_fourier_inverse(other))


@pytest.mark.parametrize("G", [C3, C9, C33, C15], ids=str)
def test_transforms_build_one_cyclotomic_number_per_value_and_no_product(G):
    built = {CyclotomicNumber.__init__.__code__, CyclotomicNumber._raw.__func__.__code__}
    arithmetic = {CyclotomicNumber.__mul__.__code__, CyclotomicNumber.__add__.__code__,
                  CyclotomicNumber.galois.__code__}
    rng = random.Random(47)
    for gamma in (rand_element(G, rng), _rand_cyclotomic_element(G, rng, (4,))):
        vec = fourier(gamma)
        for call in (lambda: fourier(gamma), lambda: fourier_inverse(vec)):
            assert _constructions(call, built) == G.order
            assert _constructions(call, arithmetic) == 0
        # the counters do see the term-by-term sums
        assert _constructions(lambda: _reference_fourier(gamma), arithmetic) > 0
    x = CyclotomicNumber(63, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(36)])
    for gens in ([2], [5], [2, 62], []):
        assert _constructions(lambda: trace_to_subfield(x, gens), built) == 1
        assert _constructions(lambda: trace_to_subfield(x, gens), arithmetic) == 0


def test_power_rejects_a_non_integral_exponent():
    s = GroupRingElement.from_element(C3.element((1,)))
    gamma = 1 + s - s * s
    with pytest.raises(ValueError, match="expected an integer"):
        gamma ** 1.5
    assert gamma ** 2.0 == gamma * gamma
