import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from gform_lab.arith import euler_phi, subgroup_closure

from gform_lab.cyclotomic import (
    CyclotomicNumber,
    LevelBoundError,
    _adjugate,
    compatible_root,
    cyclotomic_polynomial,
    prime_element_above,
    trace_to_subfield,
)

Z = CyclotomicNumber.zeta
Q = CyclotomicNumber.rational


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 9, 12, 21, 30, 91, 105])
def test_cyclotomic_polynomial_against_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 12, 21, 91])
def test_minimal_polynomial_vanishes(n):
    z = Z(n)
    poly = cyclotomic_polynomial(n)
    acc = Q(0, n)
    zp = Q(1, n)
    for c in poly:
        acc = acc + zp * c
        zp = zp * z
    assert acc.is_zero()


def test_basic_identities():
    assert Z(3) + Z(3, 2) == -1
    assert Z(7) * Z(7, 6) == 1
    x = 1 + Z(5)
    assert x * x.inverse() == 1
    assert (Z(7) ** 7) == 1
    assert Z(9) ** -1 == Z(9, 8)


def test_compatible_root():
    assert compatible_root(3, 21) == Z(21, 7)
    assert compatible_root(21, 21) == Z(21)
    assert compatible_root(1, 13) == 1
    with pytest.raises(ValueError):
        compatible_root(4, 21)
    # compatibility: (zeta_21^7)^3 = 1 and matches zeta_3 raised from level 3
    assert Z(3).raise_level(21) == Z(21, 7)


def test_cross_level_arithmetic():
    x = Z(3) + Z(7)  # lives at level 21
    assert x.level == 21
    y = x - Z(7)
    assert y == Z(3)
    assert y.lower_level(3) == Z(3)
    with pytest.raises(ValueError):
        (Z(7) + 0).lower_level(3)


def test_level_cap(monkeypatch):
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "50")
    with pytest.raises(LevelBoundError):
        Z(91)
    monkeypatch.delenv("GFORM_LAB_MAX_LEVEL")
    Z(91)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_level_cap_rejects_malformed_value(monkeypatch, raw):
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", raw)
    for _ in range(2):  # a malformed setting is never cached
        with pytest.raises(ValueError, match=f"GFORM_LAB_MAX_LEVEL.*{raw!r}") as info:
            Z(7)
        assert not isinstance(info.value, LevelBoundError)


def test_level_cap_is_parsed_once_per_setting(monkeypatch):
    from gform_lab.cyclotomic import _parse_max_level, max_level

    _parse_max_level.cache_clear()
    parses = lambda: _parse_max_level.cache_info().misses  # noqa: E731
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "120")
    for _ in range(100):
        assert max_level() == 120
        Z(7) * Z(7)
    assert parses() == 1
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "60")
    with pytest.raises(LevelBoundError, match="level 91 exceeds cap 60"):
        Z(91)
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "120")
    assert max_level() == 120
    assert parses() == 2
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "abc")
    for count in (3, 4):
        with pytest.raises(ValueError):
            max_level()
        assert parses() == count


def test_power_rejects_a_non_integral_exponent():
    with pytest.raises(ValueError, match="expected an integer"):
        Z(7) ** 2.5
    assert Z(7) ** 2.0 == Z(7) ** Fraction(4, 2) == Z(7, 2)


def test_galois_action():
    assert Z(7).galois(2) == Z(7, 2)
    assert Q(5, 7).galois(2) == 5
    assert (Z(7) + Z(7, 6)).galois(3) == Z(7, 3) + Z(7, 4)
    with pytest.raises(ValueError):
        Z(9).galois(3)


def test_galois_is_ring_hom_randomized():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([7, 9, 12])
        k = rng.choice([k for k in range(1, n) if sympy.gcd(k, n) == 1])
        a = CyclotomicNumber(n, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(len(Z(n).coeffs))])
        b = CyclotomicNumber(n, [Fraction(rng.randrange(-5, 6)) for _ in range(len(Z(n).coeffs))])
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_traces():
    # Gaussian period: orbit of zeta_7 under <6>
    eta = trace_to_subfield(Z(7), [6])
    assert eta == Z(7) + Z(7, 6)
    assert trace_to_subfield(Q(1, 7), [3]).to_rational() == 6  # <3> = all units mod 7
    full = trace_to_subfield(Z(7), [3])
    assert full.to_rational() == -1
    assert Z(7).trace_to_rational() == -1
    assert Q(1, 7).trace_to_rational() == 6
    # trace is H-invariant
    assert eta.galois(6) == eta


def test_trace_linearity_and_invariance_randomized():
    rng = random.Random(9)
    for _ in range(10):
        a = CyclotomicNumber(9, [rng.randrange(-4, 5) for _ in range(6)])
        b = CyclotomicNumber(9, [rng.randrange(-4, 5) for _ in range(6)])
        q = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        t = trace_to_subfield(a * q + b, [2])  # <2> = (Z/9)^x
        assert t == trace_to_subfield(a, [2]) * q + trace_to_subfield(b, [2])
        assert t.galois(2) == t


def _reference_trace_to_subfield(x, subgroup_generators):
    """The trace as a sum of Galois conjugates, one CyclotomicNumber
    addition each: the oracle for `trace_to_subfield`."""
    acc = Q(0, x.level)
    for k in sorted(subgroup_closure(tuple(subgroup_generators), x.level)):
        acc = acc + x.galois(k if x.level > 1 else 1)
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 12, 13, 15, 21, 63, 91])
def test_trace_to_subfield_matches_the_sum_of_conjugates(n):
    rng = random.Random(n)
    units = [k for k in range(1, n) if gcd(k, n) == 1] or [1]
    for _ in range(12):
        x = CyclotomicNumber(n, [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
                                 for _ in range(euler_phi(n))])
        gens = rng.sample(units, rng.randint(0, min(2, len(units))))
        got, expected = trace_to_subfield(x, gens), _reference_trace_to_subfield(x, gens)
        assert (got.level, got.num, got.den) == (expected.level, expected.num, expected.den)
        assert got.to_json() == expected.to_json()


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_norm_of_one_minus_zeta(p):
    x = 1 - Z(p)
    assert x.norm_to_rational() == p


def test_norm_multiplicative():
    a = 1 + Z(9)
    b = 2 - Z(9, 4)
    assert (a * b).norm_to_rational() == a.norm_to_rational() * b.norm_to_rational()


def test_trace_against_sympy_minpoly():
    # trace of zeta_9 equals minus the second-highest coefficient of Phi_9
    assert Z(9).trace_to_rational() == 0
    assert Z(3).trace_to_rational() == -1
    assert Z(12).trace_to_rational() == 0


def test_integrality_and_rationality():
    assert (Z(7) / 2).is_integral() is False
    assert (Z(7) * 3).is_integral() is True
    assert Q(Fraction(3, 2), 7).is_rational()
    assert (Z(7) + 1).is_rational() is False
    assert Q(7, 9).to_rational() == 7


def test_json_roundtrip_shape():
    j = (Z(5) / 3).to_json()
    assert j["level"] == 5
    assert j["coeffs"][1] == "1/3"


# -- differential checks of the integer-numerator core against sympy --------

X = sympy.symbols("x")
LEVELS = [1, 3, 7, 9, 15, 21]
small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def cyclo(level):
    phi = euler_phi(level)
    return st.lists(small_fractions, min_size=phi, max_size=phi).map(
        lambda cs: CyclotomicNumber(level, cs)
    )


@st.composite
def same_level_pair(draw):
    n = draw(st.sampled_from(LEVELS))
    return draw(cyclo(n)), draw(cyclo(n))


def to_sympy(x):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(x.coeffs)], X, domain="QQ"
    )


def phi_poly(n):
    return sympy.Poly(list(reversed(cyclotomic_polynomial(n))), X, domain="QQ")


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.level)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1


# -- draws on both sides of the Kronecker crossover, up to 2^200 in size ------

# phi = 6, 6, 12, 30, 72, 198: levels 7 and 9 always take the schoolbook
# loop; above them dense operands take Kronecker substitution and sparse
# ones (zero, single-term) the schoolbook loop
PRODUCT_LEVELS = [7, 9, 13, 31, 91, 199]
COEFF_RANGES = {
    "unit": 1,  # in [-1, 1]
    "small": 9,
    "wide": 2**70,  # above 2^64
    "huge": 2**200,
}


@st.composite
def numerator_vector(draw, phi, kind):
    if kind == "zero":
        return [0] * phi
    if kind == "single":
        v = [0] * phi
        v[draw(st.integers(0, phi - 1))] = draw(st.integers(-2**70, 2**70).filter(bool))
        return v
    bound = COEFF_RANGES[kind]
    return draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi))


@st.composite
def product_operands(draw):
    """Two values at one level; a skewed pair has one operand of about 2^200
    and the other with coefficients in [-1, 1], in either order."""
    n = draw(st.sampled_from(PRODUCT_LEVELS))
    phi = euler_phi(n)
    kinds = ["zero", "single", "unit", "small", "wide", "huge"]
    if draw(st.booleans()):
        pair = draw(st.permutations(["huge", "unit"]))
    else:
        pair = [draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))]
    a, b = (draw(numerator_vector(phi, kind)) for kind in pair)
    da, db = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return (CyclotomicNumber(n, [Fraction(c, da) for c in a]),
            CyclotomicNumber(n, [Fraction(c, db) for c in b]))


def from_sympy_poly(poly, n):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (euler_phi(n) - len(coeffs)))


@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(same_level_pair(), product_operands()))
def test_product_matches_sympy_remainder(pair):
    a, b = pair
    n = a.level
    got = a * b
    assert got.coeffs == from_sympy_poly(sympy.rem(to_sympy(a) * to_sympy(b), phi_poly(n)), n)
    assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(LEVELS))
def test_norm_matches_sympy_resultant(data, n):
    a = data.draw(cyclo(n))
    res = sympy.resultant(phi_poly(n), to_sympy(a))
    assert a.norm_to_rational() == Fraction(int(res.p), int(res.q))


@settings(max_examples=60, deadline=None)
@given(pair=same_level_pair(), q=small_fractions)
def test_results_are_in_canonical_form(pair, q):
    a, b = pair
    n = a.level
    for x in (a, b, a + b, a - b, a - a, a * b, a * q, a + q, -a):
        assert_canonical(x)
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    for k in units:
        assert_canonical(a.galois(k))
    for m in (2, 3):
        assert_canonical(a.raise_level(n * m))
    if not a.is_zero():
        assert_canonical(a.inverse())
    assert_canonical(CyclotomicNumber(n, [Fraction(2, 4)] * euler_phi(n)))


@settings(max_examples=40, deadline=None)
@given(a=cyclo(3), b=cyclo(7), c=cyclo(21))
def test_one_value_by_two_routes_has_one_representation(a, b, c):
    left, right = (a * b) * c, a * (b * c)
    assert (left.level, left.num, left.den) == (right.level, right.num, right.den)
    left, right = (a + b) + c, a + (b + c)
    assert (left.level, left.num, left.den) == (right.level, right.num, right.den)
    mixed = (a * 3 + b) * Fraction(1, 6)
    again = a * Fraction(1, 2) + b * Fraction(1, 6)
    assert (mixed.level, mixed.num, mixed.den) == (again.level, again.num, again.den)


def test_coeffs_view_is_the_fraction_vector():
    x = CyclotomicNumber(7, [Fraction(1, 2), 0, Fraction(-3, 4), 2, 0, Fraction(5, 6)])
    assert (x.num, x.den) == ((6, 0, -9, 24, 0, 10), 12)
    assert x.coeffs == (Fraction(1, 2), 0, Fraction(-3, 4), 2, 0, Fraction(5, 6))
    assert all(type(c) is Fraction for c in x.coeffs)
    assert (Q(0, 7).num, Q(0, 7).den) == ((0,) * 6, 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from(LEVELS), q=small_fractions.filter(bool))
def test_division_by_a_rational_scalar(data, n, q):
    x = data.draw(cyclo(n))
    for scalar in (q, q.numerator):
        got = x / scalar
        assert got == x * CyclotomicNumber.rational(scalar).inverse()
        assert got.level == n
        assert_canonical(got)
    if not x.is_zero():
        got = q / x
        assert got == CyclotomicNumber.rational(q) * x.inverse()
        assert got.level == n
        assert_canonical(got)


def test_scalar_division_takes_no_inverse_of_the_scalar(monkeypatch):
    x = Z(91) + 3
    expected = CyclotomicNumber(91, [Fraction(c, 3) for c in x.coeffs])

    def no_inverse(self):
        raise AssertionError("scalar division took an inverse")

    monkeypatch.setattr(CyclotomicNumber, "inverse", no_inverse)
    assert x / 3 == expected
    assert x / Fraction(-3, 2) == expected * -2
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


@settings(max_examples=10, deadline=None)
@given(data=st.data(), n=st.sampled_from([91, 105]))
def test_inverse_matches_sympy_invert(data, n):
    # sympy's extended Euclid takes seconds on dense level-91 values with
    # coefficients up to 9, so those are drawn at level 105 only
    phi = euler_phi(n)
    kind = data.draw(st.sampled_from(["single", "unit"] + (["small"] if n == 105 else [])))
    a = CyclotomicNumber(n, data.draw(numerator_vector(phi, kind)))
    assume(not a.is_zero())
    expected = from_sympy_poly(sympy.invert(to_sympy(a), phi_poly(n)), n)
    assert a.inverse().coeffs == expected


@pytest.mark.parametrize("n", [21, 57, 93])
@pytest.mark.parametrize("c", [Fraction(-1), Fraction(5, 3), Fraction(-7, 4)], ids=str)
def test_single_term_inverse_takes_no_conjugates(n, c, monkeypatch):
    # (c/den) zeta^k inverts to (den/c) zeta^(n-k) without the conjugate
    # product, for every power-basis index k, with the result still verified
    import gform_lab.cyclotomic as cyclotomic

    def no_product(*args):
        raise AssertionError("a single-term value took the conjugate product")

    monkeypatch.setattr(cyclotomic, "_balanced_product", no_product)
    phi = euler_phi(n)
    for k in sorted({1, 2, phi // 2, phi - 1}):
        a = CyclotomicNumber(n, [c if j == k else 0 for j in range(phi)])
        inv = a.inverse()
        assert_canonical(inv)
        assert (inv * a).is_one()
        assert inv.coeffs == from_sympy_poly(sympy.invert(to_sympy(a), phi_poly(n)), n)


@pytest.mark.parametrize("n", [3, 7, 9, 21, 91])
def test_adjugate_is_the_conjugate_product_over_the_norm(n, monkeypatch):
    # N = conj * num is the norm of num, Res(Phi_n, num) by sympy, and
    # conj / N is the inverse of num
    rng = random.Random(n)
    phi = euler_phi(n)
    shapes = ["dense", "sparse", "single"]
    for shape in shapes * (2 if n == 91 else 4):
        while True:
            if shape == "single":
                k = rng.randrange(phi)
                coeffs = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4)) if j == k
                          else 0 for j in range(phi)]
            else:
                density = 1.0 if shape == "dense" else 0.3
                coeffs = [Fraction(rng.randint(-6, 6), rng.randrange(1, 5))
                          if rng.random() < density else 0 for _ in range(phi)]
            x = CyclotomicNumber(n, coeffs)
            if not x.is_zero():
                break
        conj, norm = _adjugate(n, x.num)
        assert isinstance(norm, int) and len(conj) == phi
        assert norm == sympy.resultant(phi_poly(n), to_sympy(CyclotomicNumber._raw(n, x.num)))
        assert CyclotomicNumber._raw(n, conj) * CyclotomicNumber._raw(n, x.num) == norm
        assert x.inverse() == CyclotomicNumber._raw(n, conj) * Fraction(x.den, norm)
    with pytest.raises(ArithmeticError, match="nonzero rational"):
        _adjugate(n, (0,) * phi)
    assert CyclotomicNumber._raw(n, (0,) * phi).norm_to_rational() == 0
    # with every conjugate replaced by the value itself the product is
    # x^phi, not rational, and the check must see it
    import gform_lab.cyclotomic as cyclotomic

    monkeypatch.setattr(cyclotomic, "_conjugate", lambda n, num, k: num)
    with pytest.raises(ArithmeticError, match="nonzero rational"):
        _adjugate(n, Z(n).num)


# the first element of norm +/- ell in the search order, before the residue
# prefilter skipped candidates whose norm ell cannot divide
PINNED_PRIME_ELEMENTS = {
    (7, 3): (-2, 1),
    (13, 3): (-3, 1),
    (19, 3): (-3, 2),
    (31, 3): (-5, 1),
    (37, 3): (-4, 3),
    (11, 5): (-1, -1, -1, 1),
    (31, 5): (-2, -2, 1, 1),
}


@pytest.mark.parametrize("ell, level", sorted(PINNED_PRIME_ELEMENTS), ids=str)
def test_prime_element_above_is_pinned(ell, level):
    x = prime_element_above(ell, level)
    assert x.level == level and x.den == 1
    assert x.num == PINNED_PRIME_ELEMENTS[ell, level]
    assert abs(x.norm_to_rational()) == ell


def test_prime_element_above_rejects_bad_primes():
    with pytest.raises(ValueError, match="not prime"):
        prime_element_above(91, 3)
    with pytest.raises(ValueError, match="not 1 mod"):
        prime_element_above(11, 3)
    assert prime_element_above(7, 1) == 7
