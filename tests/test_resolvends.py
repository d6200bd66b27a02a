import random
from fractions import Fraction

import pytest

from gform_lab import linalg
from gform_lab import number_fields as nf
from gform_lab.arith import units_mod
from gform_lab.cyclotomic import CyclotomicNumber
from gform_lab.group_ring import (
    GroupRingElement,
    NotInvertible,
    fourier,
    invert_by_linear_solve,
    try_invert,
)
from gform_lab.gforms import product_law, self_dual_generator, verify_inverse_law
from gform_lab.groups import FiniteAbelianGroup, group_tables
from gform_lab.number_fields import HomToG, build_field
from gform_lab.resolvends import (
    AlgebraElement,
    _resolvend_product_is,
    _trace_table,
    ReducedResolvend,
    inverse_resolvend,
    is_normal_basis_generator,
    is_self_dual,
    product_resolvend,
    reduced_resolvend,
    resolvend,
    resolvend_pairing_identity,
    resolvent_values,
)
from gform_lab.suites import sieve_conductors

C3 = FiniteAbelianGroup((3,))
# every admissible field of degree 3, 5 and 7 with conductor at most 200
SMALL_FIELDS = [(p, f) for p in (3, 5, 7) for f in sieve_conductors(p, 200)]


@pytest.fixture(scope="module")
def k7():
    return build_field(3, 7)


@pytest.fixture(scope="module")
def h7(k7):
    return HomToG.standard(k7)


def rand_element(hom, rng, span=6):
    K = hom.field
    coords = [Fraction(rng.randrange(-span, span + 1)) for _ in range(K.degree)]
    return AlgebraElement(hom, K.element(coords))


def test_resolvend_of_period_reads_off_conjugates(k7, h7):
    a = AlgebraElement(h7, k7.periods[0])
    r = resolvend(a)
    G = h7.group
    # coefficient at (gen^j)^{-1} is sigma^j(eta_0) = eta_j
    for j in range(3):
        s = G.element((j,))
        assert r.coefficient(s.inverse()) == k7.periods[j]


def test_resolvend_linear(k7, h7):
    rng = random.Random(1)
    a = rand_element(h7, rng)
    b = rand_element(h7, rng)
    ab = AlgebraElement(h7, a.alpha + b.alpha)
    assert resolvend(ab) == resolvend(a) + resolvend(b)


def test_group_action_shifts_resolvend(k7, h7):
    rng = random.Random(12)
    a = rand_element(h7, rng)
    G = h7.group
    for s in G.elements():
        lhs = resolvend(a.act(s))
        rhs = resolvend(a) * GroupRingElement.from_element(s)
        assert lhs == rhs


def test_split_identity_resolvend():
    a = AlgebraElement.split_identity(C3)
    assert resolvend(a) == GroupRingElement.one(C3)
    assert is_self_dual(a)
    assert inverse_resolvend(a) is a


def test_normal_basis_generator(k7, h7):
    assert is_normal_basis_generator(AlgebraElement(h7, k7.periods[0]))
    # constants are killed by nontrivial characters
    assert not is_normal_basis_generator(AlgebraElement(h7, CyclotomicNumber.rational(1, 7)))
    assert not is_normal_basis_generator(AlgebraElement(h7, CyclotomicNumber.rational(0, 7)))


def test_pairing_identity_on_period(k7, h7):
    a = AlgebraElement(h7, k7.periods[0])
    assert resolvend_pairing_identity(a, a)
    lhs = resolvend(a) * resolvend(a).involute()
    # coefficients are the Gram row (5, -2, -2) of the period basis
    G = h7.group
    assert lhs.demoted().coefficient(G.identity()) == 5
    assert lhs.demoted().coefficient(G.element((1,))) == -2
    b = AlgebraElement(h7, CyclotomicNumber.rational(0, 7))
    assert resolvend_pairing_identity(a, b)  # both sides zero


def test_pairing_identity_random_sweep(k7, h7):
    rng = random.Random(2)
    for _ in range(20):
        a = rand_element(h7, rng)
        b = rand_element(h7, rng)
        assert resolvend_pairing_identity(a, b)


def test_self_duality_routes_agree(k7, h7):
    # is_self_dual raises when its Gram and resolvend routes disagree
    rng = random.Random(3)
    a = AlgebraElement(h7, k7.periods[0])
    assert not is_self_dual(a)  # Tr(eta_0^2) = 5
    for _ in range(10):
        assert not is_self_dual(rand_element(h7, rng))
    for f in (7, 13, 19):
        _, w = self_dual_generator(build_field(3, f))
        for x in [w, *(w.act(s) for s in w.group.elements()), inverse_resolvend(w)]:
            assert is_self_dual(x), (f, x)


def test_self_duality_routes_disagreeing_raise(k7, h7, monkeypatch):
    import gform_lab.resolvends as rsv

    monkeypatch.setattr(rsv, "_trace_table", lambda a, b: GroupRingElement.one(a.group))
    with pytest.raises(AssertionError):
        is_self_dual(AlgebraElement(h7, k7.periods[0]))


def homomorphism_property_check(a: AlgebraElement) -> bool:
    """Exhaustive check over the finite acting group that applying any
    ambient automorphism to the resolvend coefficients multiplies the
    resolvend by the corresponding group element."""
    if a.is_split:
        return True
    K = a.hom.field
    r = resolvend(a)
    index = group_tables(a.group).element_index
    for k in units_mod(K.conductor):
        twisted = r.map_coefficients(
            lambda c: c.galois(k) if isinstance(c, CyclotomicNumber) else c
        )
        h_omega = a.hom.sigma_image ** K.character[k]
        if twisted != r.translate(index[h_omega]):
            return False
    return True


def test_homomorphism_property(k7, h7):
    rng = random.Random(4)
    for _ in range(5):
        a = rand_element(h7, rng)
        assert homomorphism_property_check(a)


def test_inverse_resolvend(k7, h7):
    rng = random.Random(5)
    while True:
        a = rand_element(h7, rng)
        if is_normal_basis_generator(a):
            break
    a_inv = inverse_resolvend(a)
    assert resolvend(a_inv) * resolvend(a) == GroupRingElement.one(C3)
    assert a_inv.hom.sigma_image == h7.sigma_image.inverse()
    with pytest.raises(NotInvertible):
        inverse_resolvend(AlgebraElement(h7, CyclotomicNumber.rational(1, 7)))


def test_inverse_of_trivial_resolvend(k7, h7):
    # element with resolvend equal to a group element: a(s) = delta-like via
    # rational multiples of the all-ones... use the split algebra instead
    a = AlgebraElement.split_identity(C3)
    assert inverse_resolvend(a) is a


def test_product_with_split_identity(k7, h7):
    rng = random.Random(6)
    a = rand_element(h7, rng)
    e = AlgebraElement.split_identity(C3)
    assert product_resolvend(a, e) is a
    assert product_resolvend(e, a) is a


def test_a_split_factor_scales_the_product(k7, h7):
    rng = random.Random(15)
    a = rand_element(h7, rng)
    five, third = AlgebraElement(None, 5, group=C3), AlgebraElement(None, Fraction(-1, 3), group=C3)
    for c in (five, third, AlgebraElement(None, 0, group=C3)):
        for x, y in ((c, a), (a, c), (c, five), (five, c)):
            out = product_resolvend(x, y)
            assert out.is_split == (x.is_split and y.is_split)
            assert resolvend(out) == resolvend(x) * resolvend(y)
    assert product_resolvend(five, five) == AlgebraElement(None, 25, group=C3)
    assert product_resolvend(five, a) == AlgebraElement(h7, a.alpha * 5)


def test_the_inverse_of_a_split_element_is_its_reciprocal():
    one = GroupRingElement.one(C3)
    for c in (5, Fraction(-2, 7)):
        a = AlgebraElement(None, c, group=C3)
        inv = inverse_resolvend(a)
        assert inv == AlgebraElement(None, 1 / Fraction(c), group=C3)
        assert resolvend(a) * resolvend(inv) == one
    with pytest.raises(NotInvertible):
        inverse_resolvend(AlgebraElement(None, 0, group=C3))


def test_product_rejects_conductor_clash(k7, h7):
    rng = random.Random(7)
    a = rand_element(h7, rng)
    b = rand_element(h7, rng)
    with pytest.raises(Exception):
        product_resolvend(a, b)


def test_product_resolvend_composite(k7, h7):
    k13 = build_field(3, 13)
    h13 = HomToG.standard(k13)
    a1 = AlgebraElement(h7, k7.periods[0])
    a2 = AlgebraElement(h13, k13.periods[0])
    a = product_resolvend(a1, a2)
    assert a.hom.field.conductor == 91
    assert resolvend(a) == resolvend(a1) * resolvend(a2)
    # self-duality multiplies: neither factor is self-dual here, but the
    # resolvend identity itself was verified inside product_resolvend
    assert a.hom.sigma_image == h7.group.element((1,))


def test_reduced_resolvend_orbits(k7, h7):
    rng = random.Random(8)
    G = h7.group
    for _ in range(5):
        a = rand_element(h7, rng)
        r = resolvend(a)
        red = ReducedResolvend(r)
        for t in G.elements():
            shifted = r * GroupRingElement.from_element(t)
            assert ReducedResolvend(shifted) == red
        b = rand_element(h7, rng)
        if not (resolvend(b) == r):
            rb = ReducedResolvend(resolvend(b))
            in_same_orbit = any(
                resolvend(b) == r * GroupRingElement.from_element(t) for t in G.elements()
            )
            assert (rb == red) == in_same_orbit


def test_reduction_commutes_with_inverse(k7, h7):
    rng = random.Random(9)
    while True:
        a = rand_element(h7, rng)
        if is_normal_basis_generator(a):
            break
    G = h7.group
    reductions = []
    for t in G.elements():
        at = AlgebraElement(h7, a.value_at(t))  # same right-orbit as a
        reductions.append(reduced_resolvend(inverse_resolvend(at)))
    assert all(r == reductions[0] for r in reductions)


def test_zero_element_edge_cases(k7, h7):
    zero = AlgebraElement(h7, CyclotomicNumber.rational(0, 7))
    assert not is_self_dual(zero)
    assert not is_normal_basis_generator(zero)


def test_resolvend_is_injective_spot(k7, h7):
    rng = random.Random(10)
    seen = []
    for _ in range(10):
        a = rand_element(h7, rng)
        r = resolvend(a)
        for b_alpha, rb in seen:
            if not (a.alpha == b_alpha):
                assert not (r == rb)
        seen.append((a.alpha, r))


def test_reduction_commutes_with_product(k7, h7):
    k13 = build_field(3, 13)
    h13 = HomToG.standard(k13)
    G = h7.group
    a1 = AlgebraElement(h7, k7.periods[0])
    a2 = AlgebraElement(h13, k13.periods[0])
    base = reduced_resolvend(product_resolvend(a1, a2))
    for t in G.elements():
        shifted = AlgebraElement(h7, a1.value_at(t))  # same reduced class as a1
        assert reduced_resolvend(product_resolvend(shifted, a2)) == base


def resolvent_norms(a: AlgebraElement) -> dict:
    """Rational norms of the character resolvents; the only primes allowed to
    divide them for an integral generator are the ramified ones."""
    return {chi: v.norm_to_rational() for chi, v in resolvent_values(a).items()}


def test_resolvent_norms_divisibility(k7, h7):
    # an integral generator of the maximal order only meets the ramified prime
    a = AlgebraElement(h7, k7.periods[0])
    norms = resolvent_norms(a)
    for chi, nrm in norms.items():
        assert nrm.denominator == 1
        n = int(nrm)
        if not chi.is_trivial:
            assert n != 0
            while n % 7 == 0:
                n //= 7
            assert abs(n) == 1, "resolvent norm has a prime outside the ramified set"


def test_linear_solve_inverts_a_cyclotomic_resolvend():
    # the regular-representation solve on coefficients at level 13 agrees with
    # the character-transform inverse
    K = build_field(3, 13)
    hom = HomToG.standard(K)
    for coords in ([1, 0, 0], [2, -1, 3]):
        r = resolvend(AlgebraElement(hom, K.element(coords)))
        assert any(isinstance(c, CyclotomicNumber) and not c.is_rational()
                   for c in r.coeffs.values())
        inv = invert_by_linear_solve(r)
        assert inv == try_invert(r)
        assert inv * r == GroupRingElement.one(r.group)
    singular = resolvend(AlgebraElement(hom, K.element([1, 1, 1])))
    with pytest.raises(NotInvertible):
        invert_by_linear_solve(singular)


def _differential_elements(K, rng):
    """Zero, constants (killed by every nontrivial character), trace-zero
    elements (killed by the trivial one) and random elements of K."""
    f, p = K.conductor, K.degree
    out = [CyclotomicNumber.rational(c, f) for c in (0, 1, -3)]
    out.append(K.periods[0] - K.periods[1])
    for _ in range(4):
        coords = [rng.randint(-3, 3) for _ in range(p)]
        out.append(K.element(coords))
        coords[-1] -= sum(coords)
        out.append(K.element(coords))
    return out


@pytest.mark.parametrize("p, f", [(3, 7), (3, 13), (3, 19), (5, 11), (7, 29)])
def test_trace_table_route_matches_the_character_route(p, f, monkeypatch):
    # C7 at conductor 29 has Fourier values at level 203, above the default cap
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "203")
    K = build_field(p, f)
    hom = HomToG.standard(K)
    rng = random.Random(f)
    kinds = set()
    for alpha in _differential_elements(K, rng):
        a = AlgebraElement(hom, alpha)
        r = resolvend(a)
        values = fourier(r).values
        nbg = is_normal_basis_generator(a)
        assert nbg == all(not v.is_zero() for v in values.values())
        kinds.add(nbg)
        if not nbg:
            with pytest.raises(NotInvertible):
                inverse_resolvend(a)
            with pytest.raises(NotInvertible):
                try_invert(r)
        else:
            assert resolvend(inverse_resolvend(a)) == try_invert(r)
    assert kinds == {True, False}


# -- the trace table from the integer Gram ---------------------------------------


def _galois_conjugate(a, s):
    """a(s) = sigma^j(alpha), j = h^-1(s), conjugated in Q(zeta_f) without
    `sigma_coords`: the reference for `value_at`."""
    K = a.hom.field
    return a.alpha.galois(pow(K.generator, a.hom.galois_power(s), K.conductor))


def _trace_table_by_definition(a, b):
    """sum_s Tr((s.a) b) s^-1 through the cyclotomic trace."""
    K = a.hom.field
    return GroupRingElement(
        a.group, {s.inverse(): K.trace(_galois_conjugate(a, s) * b.alpha)
                  for s in a.group.elements()})


@pytest.mark.parametrize("p, f", [(3, 7), (3, 13), (3, 91), (3, 133), (5, 11), (5, 31)])
def test_trace_table_is_the_cyclotomic_trace_definition(p, f):
    K = build_field(p, f)
    G = FiniteAbelianGroup((p,))
    rng = random.Random(p * f)
    for u in range(1, p):  # every identification of Gal(K/Q) with G
        hom = HomToG(K, G, G.element((u,)))
        elements = [AlgebraElement(hom, K.periods[0])]
        for _ in range(3):
            coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
            elements.append(AlgebraElement(hom, K.element(coords)))
        for a in elements:
            for b in elements:
                assert _trace_table(a, b) == _trace_table_by_definition(a, b), (u, a, b)


def test_trace_table_takes_no_cyclotomic_product_or_conjugate(monkeypatch):
    K = build_field(3, 13)
    hom = HomToG.standard(K)
    a = AlgebraElement(hom, K.element([1, -2, 3]))
    b = AlgebraElement(hom, K.element([Fraction(1, 2), 0, Fraction(5, 3)]))
    calls = []
    for name in ("__mul__", "__rmul__", "galois"):
        def counting(*args, _original=getattr(CyclotomicNumber, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(CyclotomicNumber, name, counting)
    table = _trace_table(a, b)
    assert calls == []
    # the counters are live: the definition multiplies and conjugates
    assert table == _trace_table_by_definition(a, b)
    assert {"__mul__", "galois"} <= set(calls)


# -- period coordinates against the cyclotomic route ---------------------------


@pytest.mark.parametrize("p, f", SMALL_FIELDS)
def test_value_at_and_resolvend_are_the_galois_conjugates(p, f):
    K = build_field(p, f)
    G = FiniteAbelianGroup((p,))
    rng = random.Random(p * f)
    for u in (1, p - 1):
        hom = HomToG(K, G, G.element((u,)))
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
        for alpha in (K.periods[0], K.element(coords)):
            a = AlgebraElement(hom, alpha)
            assert a.alpha == alpha
            conjugates = {s: _galois_conjugate(a, s) for s in G.elements()}
            for s, value in conjugates.items():
                assert a.value_at(s) == value, (u, s)
                assert a.act(s) == AlgebraElement(hom, value), (u, s)
            assert resolvend(a) == GroupRingElement(
                G, {s.inverse(): value for s, value in conjugates.items()})


@pytest.mark.parametrize("p, f", SMALL_FIELDS)
def test_witness_element_is_the_element_of_its_coordinates(p, f):
    K = build_field(p, f)
    G = FiniteAbelianGroup((p,))
    for u in range(1, p):
        hom = HomToG(K, G, G.element((u,)))
        w, a = self_dual_generator(K, hom)
        num = linalg.mat_vec(linalg.transpose(w.form.basis_num), w.coords)
        assert a == AlgebraElement(hom, K.element(num, w.form.basis_den)), u


# -- resolvend products on the certified table against Q(zeta_f) -----------------

# every admissible field of degree 3 and 5 with conductor at most 200, the
# composites 91 and 133 among them, and two fields of degree 7
CERTIFIED_FIELDS = [(p, f) for p in (3, 5) for f in sieve_conductors(p, 200)]
CERTIFIED_FIELDS += [(7, 29), (7, 43)]


def _inverse_by_cyclotomic_products(a):
    """The Q(zeta_f) construction of the inverse element: r(a)^[-1] T(a)^-1,
    multiplied back against r(a), read off at the identity and its resolvend
    recomputed."""
    r = resolvend(a)
    r_inv = r.involute() * try_invert(_trace_table(a, a))
    assert r * r_inv == GroupRingElement.one(a.group)
    out = AlgebraElement(a.hom.inverse_hom(), r_inv.coefficient(a.group.identity()))
    assert resolvend(out) == r_inv
    return out


def _random_coordinates(hom, rng):
    p = hom.field.degree
    return AlgebraElement._from_coordinates(
        hom, [rng.randint(-9, 9) for _ in range(p)], rng.randint(1, 6))


@pytest.mark.parametrize("p, f", CERTIFIED_FIELDS)
def test_certified_resolvend_products_match_the_cyclotomic_route(p, f):
    K = build_field(p, f)
    G = FiniteAbelianGroup((p,))
    one = GroupRingElement.one(G)
    rng = random.Random(7 * f + p)
    for u in (1, p - 1):
        hom = HomToG(K, G, G.element((u,)))
        elements = [self_dual_generator(K, hom)[1]]
        elements += [_random_coordinates(hom, rng) for _ in range(3)]
        for a in elements:
            for b in elements[:2]:
                left = (resolvend(a) * resolvend(b).involute()).demoted()
                assert left.is_rational()
                assert _resolvend_product_is(a, b, left, involute=True)
                assert not _resolvend_product_is(a, b, left + one, involute=True)
                assert resolvend_pairing_identity(a, b)
            assert is_self_dual(a) == (resolvend(a) * resolvend(a).involute() == one)
            if not is_normal_basis_generator(a):
                with pytest.raises(NotInvertible):
                    inverse_resolvend(a)
                continue
            a_inv = inverse_resolvend(a)
            assert a_inv == _inverse_by_cyclotomic_products(a)
            for s in G.elements():
                moved = a_inv.act(s)
                left = (resolvend(a) * resolvend(moved)).demoted()
                assert left.is_rational() and not left.is_zero()
                assert _resolvend_product_is(a, moved, left, involute=False)
                assert _resolvend_product_is(a, moved, one, involute=False) == (left == one)
            # r(a) r(c) is a rational trace table for c in the inverse
            # algebra, and not rational for c in the same algebra
            c = _random_coordinates(hom.inverse_hom(), rng)
            left = (resolvend(a) * resolvend(c)).demoted()
            assert _resolvend_product_is(a, c, left, involute=False)
            assert not _resolvend_product_is(a, c, left + one, involute=False)
            c = _random_coordinates(hom, rng)
            assert not (resolvend(a) * resolvend(c)).demoted().is_rational()
            assert not _resolvend_product_is(a, c, one, involute=False)


def test_pairing_identity_fails_on_a_wrong_trace_table(k7, h7, monkeypatch):
    import gform_lab.resolvends as rsv

    rng = random.Random(12)
    pairs = [(rand_element(h7, rng), rand_element(h7, rng)) for _ in range(5)]
    tables = {id(a): _trace_table(a, b) for a, b in pairs}
    assert all(resolvend_pairing_identity(a, b) for a, b in pairs)
    one = GroupRingElement.one(C3)
    monkeypatch.setattr(rsv, "_trace_table", lambda a, b: tables[id(a)] + one)
    assert not any(resolvend_pairing_identity(a, b) for a, b in pairs)
    monkeypatch.setattr(rsv, "_trace_table", lambda a, b: one)
    assert not any(resolvend_pairing_identity(a, b) for a, b in pairs)


def test_any_coordinate_size_decides():
    # no bound and no modulus: coordinates near 2^45 and 2^90 at (3, 13) get
    # the verdict of the Q(zeta_13) products, for every check
    K = build_field(3, 13)
    hom = HomToG.standard(K)
    one = GroupRingElement.one(C3)
    rng = random.Random(29)

    def near(bits, inverse=False):
        num = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(3)]
        return AlgebraElement._from_coordinates(
            hom.inverse_hom() if inverse else hom, num, rng.randint(1, 1 << 20))

    a = AlgebraElement._from_coordinates(hom, [2**45, 1, -(2**45)], 1)
    elements = [a, near(90), near(90)]
    for x in elements:
        r = resolvend(x)
        assert is_self_dual(x) is (r * r.involute() == one) is False
        for y in elements:
            left = (r * resolvend(y).involute()).demoted()
            assert left == _trace_table(x, y)
            assert resolvend_pairing_identity(x, y)
            assert _resolvend_product_is(x, y, left, involute=True)
            assert not _resolvend_product_is(x, y, left + one, involute=True)
            # r(x) r(y) is not rational within one algebra
            assert not (r * resolvend(y)).demoted().is_rational()
            assert not _resolvend_product_is(x, y, one, involute=False)
        c = near(90, inverse=True)
        left = (r * resolvend(c)).demoted()
        assert left.is_rational()
        assert _resolvend_product_is(x, c, left, involute=False)
        assert not _resolvend_product_is(x, c, left + one, involute=False)
    # the inverse law on the 2^45 element: a true verdict at that size
    assert inverse_resolvend(a) == _inverse_by_cyclotomic_products(a)


def test_resolvend_checks_build_no_cyclotomic_number(monkeypatch):
    # from fresh fields to the verdicts of is_self_dual, the pairing identity,
    # the inverse law, product_resolvend and the product law, no
    # CyclotomicNumber is constructed
    monkeypatch.setattr(nf, "_FIELDS", {})
    made = []

    def spy(name, original):
        def counting(*args, **kwargs):
            made.append(name)
            return original(*args, **kwargs)
        return counting

    for name in ("_raw", "from_powers"):
        original = getattr(CyclotomicNumber, name)
        monkeypatch.setattr(CyclotomicNumber, name, staticmethod(spy(name, original)))
    monkeypatch.setattr(CyclotomicNumber, "__init__",
                        spy("__init__", CyclotomicNumber.__init__))
    rng = random.Random(14)
    for p, f in [(3, 7), (3, 91), (5, 11)]:
        K = build_field(p, f)
        hom = HomToG.standard(K)
        a, b = _random_coordinates(hom, rng), _random_coordinates(hom, rng)
        _, w = self_dual_generator(K)
        assert is_self_dual(w) and not is_self_dual(a)
        assert resolvend_pairing_identity(a, b)
        assert verify_inverse_law(K)
    # the product law, also above the level cap (7 * 31 = 217, 11 * 31 = 341)
    for p, f1, f2 in [(3, 7, 13), (3, 7, 31), (5, 11, 31)]:
        K1, K2 = build_field(p, f1), build_field(p, f2)
        G = FiniteAbelianGroup((p,))
        h1, h2 = HomToG(K1, G, G.element((1,))), HomToG(K2, G, G.element((p - 1,)))
        ab = product_resolvend(_random_coordinates(h1, rng), _random_coordinates(h2, rng))
        assert ab.hom.field.conductor == f1 * f2
        assert product_law(K1, K2).holds
    assert made == []
    # the counters are live: the cyclotomic route builds values
    resolvend(a)
    assert made


# -- the product law on period coordinates against Q(zeta_(f1 f2)) ----------------


def _product_by_cyclotomic_products(a1, a2):
    """The Q(zeta_(f1 f2)) construction of the product element: r(a1) r(a2)
    read off at the identity in the composite, and its resolvend
    recomputed."""
    G = a1.group
    composite = nf.compose_fields(a1.hom.field, a2.hom.field,
                                  weights=a1.hom.product_weights(a2.hom))
    r = resolvend(a1) * resolvend(a2)
    out = AlgebraElement(HomToG(composite, G, G.element((1,))), r.coefficient(G.identity()))
    assert resolvend(out) == r
    return out


def _coordinates_over(hom, rng, den):
    p = hom.field.degree
    while True:
        num = [rng.randint(-9, 9) for _ in range(p)]
        if any(x % den for x in num):
            return AlgebraElement._from_coordinates(hom, num, den)


# degree 3 with every identification pair; degrees 5 and 7 with three each
PRODUCT_PAIRS = [(3, f1, f2, [(1, 1), (1, 2), (2, 1), (2, 2)])
                 for f1, f2 in [(7, 13), (7, 19), (13, 19), (7, 31), (19, 31), (7, 37), (13, 37)]]
PRODUCT_PAIRS += [(5, 11, 31, [(1, 1), (2, 4), (3, 2)]), (5, 11, 41, [(1, 3), (4, 4), (2, 1)]),
                  (7, 29, 43, [(1, 1), (3, 5), (6, 2)])]


@pytest.mark.parametrize("p, f1, f2, weights", PRODUCT_PAIRS)
def test_product_resolvend_matches_the_cyclotomic_route(p, f1, f2, weights, monkeypatch):
    monkeypatch.delenv("GFORM_LAB_MAX_LEVEL", raising=False)
    G = FiniteAbelianGroup((p,))
    K1, K2 = build_field(p, f1), build_field(p, f2)
    rng = random.Random(f1 * f2 + p)
    for u1, u2 in weights:
        h1, h2 = HomToG(K1, G, G.element((u1,))), HomToG(K2, G, G.element((u2,)))
        w1, w2 = self_dual_generator(K1, h1)[1], self_dual_generator(K2, h2)[1]
        r1, r2 = _coordinates_over(h1, rng, 5), _coordinates_over(h2, rng, 6)
        pairs = [(w1, w2), (w1, r2), (r1, w2), (r1, r2),
                 (_coordinates_over(h1, rng, 4), _coordinates_over(h2, rng, 9))]
        # under the default cap, above it for f1 f2 > 200
        products = [product_resolvend(a1, a2) for a1, a2 in pairs]
        with monkeypatch.context() as m:
            m.setenv("GFORM_LAB_MAX_LEVEL", "5000")
            for (a1, a2), a in zip(pairs, products):
                assert a == _product_by_cyclotomic_products(a1, a2), (u1, u2)
                assert a.hom.sigma_image == G.element((1,))


def test_the_product_certificate_rejects_a_wrong_composite(monkeypatch):
    import gform_lab.resolvends as rsv

    G = FiniteAbelianGroup((3,))
    K7, K13 = build_field(3, 7), build_field(3, 13)
    a1 = self_dual_generator(K7, HomToG(K7, G, G.element((1,))))[1]
    a2 = self_dual_generator(K13, HomToG(K13, G, G.element((2,))))[1]
    assert product_resolvend(a1, a2) == _product_by_cyclotomic_products(a1, a2)
    # the composite of the swapped weights: its cosets are not the lines
    swapped = nf.compose_fields(K7, K13, weights=(2, 1))
    with monkeypatch.context() as m:
        m.setattr(rsv, "compose_fields", lambda *args, **kwargs: swapped)
        with pytest.raises(ArithmeticError, match="cosets"):
            product_resolvend(a1, a2)
    # the right composite under h12 = (h1 h2)^-1: no function table fits
    with monkeypatch.context() as m:
        m.setattr(rsv, "HomToG", lambda K, G, s: HomToG(K, G, s.inverse()))
        with pytest.raises(ArithmeticError, match="not an element"):
            product_resolvend(a1, a2)
