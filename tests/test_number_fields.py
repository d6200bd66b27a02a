import itertools
import random
from fractions import Fraction

import pytest

import gform_lab.number_fields as nf
from gform_lab import linalg
from gform_lab.arith import euler_phi, factorize, is_squarefree, moebius, units_mod
from gform_lab.cyclotomic import CyclotomicNumber
from gform_lab.gforms import gform_from_A, product_law, self_dual_generator
from gform_lab.suites import sieve_conductors
from gform_lab.groups import FiniteAbelianGroup
from gform_lab.number_fields import (
    FieldConstructionError,
    FractionalIdeal,
    HomToG,
    build_field,
    compose_fields,
    different,
    dual_lattice,
    prime_above,
    sqrt_inverse_different,
    trace_gram,
)

Z = CyclotomicNumber.zeta


def sigma(K, x, power=1):
    """sigma^power(x) for the Galois generator of K, the restriction of
    zeta_f -> zeta_f^g, on a Q(zeta_f) value: the reference for
    `sigma_coords`."""
    return x.raise_level(K.conductor).galois(pow(K.generator, power % K.degree, K.conductor))


@pytest.fixture(scope="module")
def k7():
    return build_field(3, 7)


@pytest.fixture(scope="module")
def k13():
    return build_field(3, 13)


@pytest.fixture(scope="module")
def k91(k7, k13):
    return compose_fields(k7, k13)


def test_conductor7_periods(k7):
    assert k7.periods[0] == Z(7) + Z(7, 6)
    assert k7.periods[1] == Z(7, 3) + Z(7, 4)
    assert k7.periods[2] == Z(7, 2) + Z(7, 5)
    assert k7.discriminant == 49
    assert k7.gram == ((5, -2, -2), (-2, 5, -2), (-2, -2, 5))


def test_conductor7_gram_against_bruteforce(k7):
    # oracle: trace of x = sum of the three Galois conjugates, computed in the
    # ambient cyclotomic field without the degree shortcut
    def tr(x):
        acc = CyclotomicNumber.rational(0, 7)
        for j in range(3):
            acc = acc + sigma(k7, x, j)
        return acc.to_rational()

    for i in range(3):
        for j in range(3):
            assert tr(k7.periods[i] * k7.periods[j]) == k7.gram[i][j]


def test_trace_gram_function(k7):
    M = trace_gram(k7, list(k7.periods))
    assert [[int(x) for x in row] for row in M] == [list(r) for r in k7.gram]
    one = CyclotomicNumber.rational(1, 7)
    assert trace_gram(k7, [one])[0][0] == 3


def test_field_rejections():
    with pytest.raises(FieldConstructionError):
        build_field(3, 9)  # wild and non-squarefree
    with pytest.raises(FieldConstructionError):
        build_field(2, 7)  # even degree
    with pytest.raises(FieldConstructionError):
        build_field(3, 11)  # 11 is not 1 mod 3
    with pytest.raises(FieldConstructionError):
        build_field(3, 14)  # 2 is not 1 mod 3


def test_degree5_conductor11():
    k = build_field(5, 11)
    assert k.discriminant == 11**4
    assert len(k.periods) == 5
    A = sqrt_inverse_different(k)
    assert A.norm() == Fraction(1, 11**2)
    # A = L^{-2} for the ramified prime
    L = prime_above(k, 11)
    assert (L**2) * A == k.maximal_order()


def test_sigma_permutes_periods(k7):
    for j in range(3):
        assert sigma(k7, k7.periods[j]) == k7.periods[(j + 1) % 3]
    # coordinate action matches
    assert k7.sigma_coords((1, 2, 3)) == (3, 1, 2)


def test_gram_is_sigma_invariant(k7, k13):
    for K in (k7, k13):
        p = K.degree
        for i in range(p):
            for j in range(p):
                assert K.gram[(i + 1) % p][(j + 1) % p] == K.gram[i][j]


def test_coordinates_roundtrip(k7):
    x = k7.element((1, -2, 5), 3)
    assert k7.coordinates(x) == (Fraction(1, 3), Fraction(-2, 3), Fraction(5, 3))
    with pytest.raises(ValueError):
        k7.coordinates(Z(7))  # zeta_7 itself is not in the cubic field


@pytest.mark.parametrize("p, f", [(3, 7), (5, 11), (3, 91)])
def test_element_inverts_coordinates(p, f):
    K = build_field(p, f)
    rng = random.Random(f)
    for den in (1, 2, 7):
        for _ in range(4):
            c = [rng.randint(-30, 30) for _ in range(p)]
            x = K.element(c, den)
            assert K.coordinates(x) == tuple(Fraction(v, den) for v in c)
            assert x == sum((eta * Fraction(v, den) for v, eta in zip(c, K.periods)),
                         CyclotomicNumber.rational(0, f))
    q = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(p))
    assert K.coordinates(K.element(q)) == q
    assert K.coordinates(K.element(q, 7)) == tuple(v / 7 for v in q)


@pytest.mark.parametrize("p, f", [(3, 7), (3, 13), (3, 91), (5, 11)])
def test_coordinates_accept_only_the_field_among_power_basis_vectors(p, f):
    # z^i / 5 lies in the field only for i = 0: every other power-basis
    # vector is refused, and the rational one comes back from its coordinates
    K = build_field(p, f)
    phi = euler_phi(f)
    accepted = []
    for i in range(phi):
        x = CyclotomicNumber(f, [Fraction(int(j == i), 5) for j in range(phi)])
        try:
            coords = K.coordinates(x)
        except ValueError as exc:
            assert str(exc) == "value does not lie in the period field"
            continue
        assert K.element(coords) == x
        accepted.append(i)
    assert accepted == [0]


def test_prime_above_and_ramification(k7):
    L = prime_above(k7, 7)
    assert L.norm() == 7
    assert L.is_integral()
    with pytest.raises(ValueError):
        prime_above(k7, 5)


def test_different_conductor7(k7):
    d = different(k7)
    L = prime_above(k7, 7)
    assert d == L * L
    assert d.norm() == 49  # norm of the different = |disc|


def test_sqrt_inverse_different_conductor7(k7):
    A = sqrt_inverse_different(k7)
    L = prime_above(k7, 7)
    assert A == L.inverse()
    assert A * A == different(k7).inverse()
    assert dual_lattice(A) == A
    # Gram determinant of an A-basis is 1 (unimodular)
    M = trace_gram(k7, A.basis_elements())
    assert linalg.det(M) == 1


def test_dual_lattice_properties(k7):
    O = k7.maximal_order()
    dinv = different(k7).inverse()
    assert dual_lattice(O) == dinv
    assert dual_lattice(dual_lattice(dinv)) == dinv
    A = sqrt_inverse_different(k7)
    assert dual_lattice(dual_lattice(A)) == A


def test_ideal_arithmetic_basics(k7):
    L = prime_above(k7, 7)
    O = k7.maximal_order()
    assert L * L.inverse() == O
    assert L**0 == O
    assert (L**3).norm() == 343
    seven = FractionalIdeal(k7, [[7 if i == j else 0 for j in range(3)] for i in range(3)], 1)
    assert L**3 == seven
    assert L.is_integral() and L != O  # a proper ideal of the maximal order
    # totally ramified primes are Galois stable
    assert FractionalIdeal(k7, [k7.sigma_coords(row) for row in L.num], L.den) == L


def test_fractional_ideal_rejects_non_integral_rows(k7):
    # int() would truncate 3/2 to 1 and give O
    with pytest.raises(ValueError, match=r"expected an integer, got Fraction\(3, 2\)"):
        FractionalIdeal(k7, [[Fraction(3, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    rows = [[Fraction(7), 0, 0], [0, 7, 0], [0, 0, 7]]
    assert FractionalIdeal(k7, rows, 7) == k7.maximal_order()


def test_every_named_ideal_is_an_o_module():
    """I * O == I for O, each P, R, the different, A, dual(O) and the
    inverse different, on every admissible field of degree 3, 5 and 7 up to
    conductor 200; a lattice that is not an ideal fails it, as
    `test_a_radical_that_is_not_an_ideal_is_refused` shows."""
    fields = 0
    for p in (3, 5, 7):
        for f in sieve_conductors(p, 200):
            K = build_field(p, f)
            O, d = K.maximal_order(), different(K)
            named = [O, *(prime_above(K, ell) for ell in K.ramified_primes), nf._sum_kernel(K, f),
                     d, sqrt_inverse_different(K), dual_lattice(O), d.inverse()]
            for I in named:
                assert I * O == I, (p, f, I)
            fields += 1
    assert fields == 39


def test_composite_field(k7, k13, k91):
    assert k91.conductor == 91
    assert k91.degree == 3
    assert k91.discriminant == 91**2
    d = different(k91)
    L7 = prime_above(k91, 7)
    L13 = prime_above(k91, 13)
    assert d == (L7 * L13) ** 2
    A = sqrt_inverse_different(k91)
    assert A == (L7 * L13).inverse()
    assert dual_lattice(A) == A
    assert linalg.det(trace_gram(k91, A.basis_elements())) == 1


def test_compose_rejections(k7, k13):
    with pytest.raises(FieldConstructionError):
        compose_fields(k7, k7)  # conductor clash
    with pytest.raises(FieldConstructionError):
        compose_fields(k7, k13, weights=(1, 3))  # weight 0 mod 3 drops the order


def test_a_repeated_composite_builds_no_character(k7, k13, monkeypatch):
    first = compose_fields(k7, k13, weights=(1, 2))
    law = product_law(k7, k13)
    made = []
    monkeypatch.setattr(nf, "units_mod", lambda f: made.append(f) or units_mod(f))
    # weights (4, 5) are (1, 2) mod 3: the same request
    assert compose_fields(k7, k13, weights=(4, 5)) is first
    assert product_law(k7, k13).composite is law.composite
    # the checks run before the store is read
    with pytest.raises(FieldConstructionError):
        compose_fields(k7, k7)
    with pytest.raises(FieldConstructionError):
        compose_fields(k7, k13, weights=(1, 3))
    assert made == []
    # an emptied field store builds and interns the composite again
    monkeypatch.setattr(nf, "_FIELDS", {})
    fresh = compose_fields(k7, k13, weights=(1, 2))
    assert made == [91] and fresh == first and fresh is not first
    assert compose_fields(k7, k13, weights=(1, 2)) is fresh
    assert made == [91]


def test_hom_to_g(k7):
    h = HomToG.standard(k7)
    G = h.group
    assert h.galois_power(G.element((1,))) == 1
    assert h.galois_power(G.element((2,))) == 2
    hinv = h.inverse_hom()
    assert hinv.galois_power(G.element((1,))) == 2  # sigma^2 maps to gen under h^{-1}
    with pytest.raises(ValueError):
        HomToG(k7, FiniteAbelianGroup((9,)), FiniteAbelianGroup((9,)).element((1,)))
    assert h.product_weights(hinv) == (1, 2)


def _moved_generator(p, f):
    # the field of the default character, presented by its largest
    # generator instead of the least one
    character = build_field(p, f).character
    return build_field(p, f, generator=max(x for x, v in character.items() if v == 1))


FROBENIUS_CASES = {
    "7": (lambda: build_field(3, 7), 7),
    "13": (lambda: build_field(3, 13), 13),
    "91-7": (lambda: build_field(3, 91), 7),
    "91-13": (lambda: build_field(3, 91), 13),
    "composite-7": (lambda: compose_fields(build_field(3, 7), build_field(3, 13), (1, 2)), 7),
    "composite-13": (lambda: compose_fields(build_field(3, 7), build_field(3, 13), (1, 2)), 13),
    "moved-generator-13": (lambda: _moved_generator(3, 13), 13),
    "moved-generator-91-7": (lambda: _moved_generator(3, 91), 7),
}


@pytest.mark.parametrize("case", sorted(FROBENIUS_CASES))
def test_prime_above_is_the_frobenius_kernel_mod_ell(case):
    # brute force: the prime over ell is {v : Frob(v) = 0 mod ell} + ell Z^p,
    # where Frob(v) = sum v_t eta_t^ell is linear mod ell
    make_field, ell = FROBENIUS_CASES[case]
    K = make_field()
    p = K.degree
    frob = [[int(c) % ell for c in K.coordinates(eta**ell)] for eta in K.periods]
    kernel = [
        list(v)
        for v in itertools.product(range(ell), repeat=p)
        if all(sum(v[t] * frob[t][k] for t in range(p)) % ell == 0 for k in range(p))
    ]
    assert len(kernel) == ell ** (p - 1)
    ell_rows = [[ell * int(i == j) for j in range(p)] for i in range(p)]
    assert prime_above(K, ell) == FractionalIdeal(K, kernel + ell_rows, 1)


def _admissible_fields(degrees=(3, 5, 7), max_conductor=200):
    for p in degrees:
        for f in range(3, max_conductor + 1):
            if f % p and is_squarefree(f) and all((ell - 1) % p == 0 for ell, _ in factorize(f)):
                yield p, f


def test_every_prime_above_lies_in_the_frobenius_kernel():
    # all 41 ramified primes of the 39 fields of degree 3, 5, 7 with f <= 200:
    # every row v of P maps to 0 under Frob(v) = sum v_t coords(eta_t^ell)
    # mod ell. The kernel is an ideal containing ell*O, and Frob(1) = 1, so it
    # is a proper ideal containing P; P has index ell, a prime, so they are
    # equal. The norm read off the HNF diagonal is checked against det too.
    fields = list(_admissible_fields())
    assert len(fields) == 39
    primes = 0
    for p, f in fields:
        K = build_field(p, f)
        for ell in K.ramified_primes:
            frob = [[int(c) % ell for c in K.coordinates(eta**ell)] for eta in K.periods]
            one = [moebius(f)] * p  # 1 = mu(f) * sum of the periods
            assert [sum(v * row[k] for v, row in zip(one, frob)) % ell for k in range(p)] \
                == [c % ell for c in one]
            P = prime_above(K, ell)
            for row in P.num:
                assert all(sum(v * fr[k] for v, fr in zip(row, frob)) % ell == 0
                           for k in range(p))
            assert P.norm() == ell
            primes += 1
        A = sqrt_inverse_different(K)
        assert A.norm() == abs(Fraction(linalg.det([list(r) for r in A.num]), A.den**p))
    assert primes == 41


@pytest.mark.parametrize("ell", [13, 19, 29])
def test_sum_kernel_over_an_unramified_prime_is_not_totally_ramified(ell, k7):
    # the coordinate-sum kernel has index ell for any ell, but only a
    # ramified ell makes it a prime with P^p = ell*O
    P = nf._sum_kernel(k7, ell)
    assert P.norm() == ell
    ell_O = FractionalIdeal(k7, [[ell * int(i == j) for j in range(3)] for i in range(3)], 1)
    assert P**3 != ell_O
    # prime_above itself refuses it when told ell ramifies, and keeps nothing
    K = nf.PeriodField(3, 7, k7.character, k7.generator)
    K.ramified_primes = (7, ell)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="not totally ramified"):
            prime_above(K, ell)
    assert ell not in K._ideal_memo


def test_a_wrong_radical_is_refused_and_stores_nothing(monkeypatch, k13):
    K = nf.PeriodField(3, 13, k13.character, k13.generator)
    original = nf._sum_kernel
    # the kernel mod 1 is O itself, not rad(13 O)
    monkeypatch.setattr(nf, "_sum_kernel", lambda field, n: original(field, 1))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"rad\(13O\) is not the ideal \(13, eta_0 - eta_1\)"):
            sqrt_inverse_different(K)
        assert "hilbert" not in K._ideal_memo
    monkeypatch.undo()
    assert sqrt_inverse_different(K) == sqrt_inverse_different(k13)


def test_degree_seven_square_root_of_the_inverse_different():
    # degree 7 meets the largest preimage lattices of the ideal arithmetic
    K = build_field(7, 29)
    A = sqrt_inverse_different(K)  # verifies A * A == different(K).inverse()
    assert A.den == 29
    assert dual_lattice(A) == A
    assert linalg.det(trace_gram(K, A.basis_elements())) == 1


@pytest.mark.parametrize("p, f", [(3, 7), (3, 13), (5, 11), (3, 91)])
def test_period_minimal_polynomial_matches_sympy(p, f):
    # prod_i (x - sigma^i(eta_0)) computed on period coordinates: 1 is
    # mu(f) * (eta_0 + ... + eta_{p-1}), and multiplication by eta_t is row
    # t of the multiplication matrix; every coefficient must come out rational
    import sympy

    K = build_field(p, f)
    mu = moebius(f)
    conjugates = [K.coordinates(sigma(K, K.periods[0], i)) for i in range(p)]
    poly = [[mu] * p]  # ascending powers of x
    for eta in conjugates:
        shifted = [[0] * p] + poly
        for k, c in enumerate(poly):
            times_eta = [sum(e * row[j] for e, row in zip(eta, K.multiplication_matrix(c)))
                         for j in range(p)]
            shifted[k] = [x - y for x, y in zip(shifted[k], times_eta)]
        poly = shifted
    assert all(len(set(c)) == 1 for c in poly)
    ours = [mu * c[0] for c in reversed(poly)]

    # sympy: the norm Res_y(Phi_f(y), x - eta_0(y)) of x - eta_0 down from
    # Q(zeta_f) is the minimal polynomial to the power phi(f)/p
    x, y = sympy.symbols("x y")
    eta0 = sum(y**k for k in sorted(K.subgroup))
    norm = sympy.resultant(sympy.cyclotomic_poly(f, y), x - eta0, y)
    _, factors = sympy.factor_list(norm)
    assert [e for _, e in factors] == [euler_phi(f) // p]
    expected = sympy.Poly(factors[0][0], x).all_coeffs()
    assert ours == [int(c) for c in expected]


# -- the per-field memo of the ideal layer ----------------------------------

HILBERT_FIELDS = [(3, 7), (3, 91), (5, 11), (7, 29), (7, 43)]


@pytest.mark.parametrize("p, f", HILBERT_FIELDS)
def test_closed_form_ideals_match_the_inverse_route(p, f):
    # the old route, through ideal inversion: A = (prod P^((p-1)/2))^-1 and
    # the different is the ideal whose inverse is the trace dual of O
    K = build_field(p, f)
    primes = [prime_above(K, ell) for ell in K.ramified_primes]
    half = K.maximal_order()
    full = K.maximal_order()
    for P in primes:
        half = half * P ** ((p - 1) // 2)
        full = full * P ** (p - 1)
    assert sqrt_inverse_different(K) == half.inverse()
    assert different(K) == full
    assert full.inverse() == dual_lattice(K.maximal_order())
    assert sqrt_inverse_different(K).den == f


def test_ideal_layer_is_built_once_per_field(monkeypatch):
    # an empty field store for this test, as in a fresh process
    monkeypatch.setattr(nf, "_FIELDS", {})
    kernels = []
    original = nf._sum_kernel

    def spy(field, n):
        kernels.append(n)
        return original(field, n)

    monkeypatch.setattr(nf, "_sum_kernel", spy)
    K = build_field(3, 91)
    A = sqrt_inverse_different(K)
    d = different(K)
    assert sqrt_inverse_different(K) is A
    assert different(K) is d
    assert kernels == [91]  # one radical for the different and A
    assert prime_above(K, 7) is prime_above(K, 7)
    assert prime_above(K, 13) is prime_above(K, 13)
    assert sorted(kernels) == [7, 13, 91]  # and one kernel per ramified prime
    # the same request returns the same field, whose memo is already filled
    assert build_field(3, 91) is K
    assert sqrt_inverse_different(build_field(3, 91)) is A
    assert prime_above(build_field(3, 91), 7) is prime_above(K, 7)
    assert sorted(kernels) == [7, 13, 91]


def test_failed_ideal_checks_store_nothing(monkeypatch):
    # built directly, not interned: an interned K13 may already hold a memo
    K13 = build_field(3, 13)
    K = nf.PeriodField(3, 13, K13.character, K13.generator)
    O = K.maximal_order()
    wrong = FractionalIdeal(K, O.num, 2)  # (1/2) O is not the trace dual
    monkeypatch.setattr(nf, "dual_lattice", lambda lattice: wrong)
    # the different is checked against the trace dual before A is, and the
    # second call raises again because the first stored nothing
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="different disagrees with the trace dual"):
            different(K)
        with pytest.raises(ArithmeticError, match="different disagrees with the trace dual"):
            sqrt_inverse_different(K)
    monkeypatch.undo()
    assert sqrt_inverse_different(K) * sqrt_inverse_different(K) == dual_lattice(O)


def test_level_cap_holds_on_a_cache_hit(monkeypatch):
    from gform_lab.cyclotomic import LevelBoundError
    from gform_lab.resolvends import AlgebraElement, resolvend

    K = build_field(3, 91)
    a = AlgebraElement(HomToG.standard(K), K.element([1, -2, 4]))
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "50")
    # the field layer builds no cyclotomic value, so the cap binds only the
    # calls that do, whatever ran before them
    fields = {
        "build": lambda: build_field(3, 91),
        "compose": lambda: compose_fields(build_field(3, 7), build_field(3, 13)),
    }
    values = {
        "element": lambda: K.element([1, 0, 0]),
        "periods": lambda: K.periods,
        "resolvend": lambda: resolvend(a),
    }
    for order in itertools.permutations({**fields, **values}):
        for name in order:
            if name in fields:
                assert fields[name]() is K
            else:
                with pytest.raises(LevelBoundError, match="level 91 exceeds cap 50"):
                    values[name]()


def test_shared_field_character_is_read_only(k7, k13, k91):
    assert k7.character[3] == 1
    with pytest.raises(TypeError):
        k7.character[3] = 2
    with pytest.raises(TypeError):
        del k91.character[1]
    assert k7.character[3] == 1
    # a field keeps its own copy of the character it was built from
    character = dict(k13.character)
    K = build_field(3, 13, character=character)
    assert K is k13
    character[2] = 0
    assert K.character[2] == k13.character[2] != 0


def test_equal_requests_share_one_field(k7, k13, k91):
    assert build_field(3, 91) is k91
    assert build_field(3, 7, generator=k7.generator, character=dict(k7.character)) is k7
    # another product character or another generator is another field
    other = compose_fields(k7, k13, weights=(1, 2))
    assert other is not k91 and other != k91
    assert compose_fields(k7, k13, weights=(1, 2)) is other
    g = next(x for x, v in k91.character.items() if v == 1 and other.character[x] == 1)
    assert build_field(3, 91, generator=g) is not build_field(3, 91, g, dict(other.character))
    moved = build_field(3, 7, generator=pow(k7.generator, 4, 7))
    assert moved is not k7 and moved.generator != k7.generator
    # a generator names its residue mod f: the same cosets, the same field
    for g in (k7.generator + 7, k7.generator - 7):
        assert build_field(3, 7, generator=g) is k7
    P = prime_above(k7, 7)
    assert prime_above(build_field(3, 7, generator=k7.generator + 7), 7) * P == P * P


@pytest.mark.parametrize("p, f", [(3, 7), (3, 91), (5, 11)])
def test_preimage_ideals_equal_the_validating_constructor(p, f, monkeypatch):
    # the prime over ell, an inverse and a trace dual are taken from
    # preimage_lattice as they are; re-running the HNF and the gcd
    # normalization of FractionalIdeal.__init__ must change nothing
    K = build_field(p, f)
    primes = [prime_above(K, ell) for ell in K.ramified_primes]
    ideals = primes + [P.inverse() for P in primes]
    ideals += [dual_lattice(K.maximal_order()), dual_lattice(sqrt_inverse_different(K))]
    # O and f*O are written down as their canonical HNF, with no HNF run
    hnf_calls = []
    monkeypatch.setattr(linalg, "hnf", lambda rows: hnf_calls.append(rows))
    ideals += [K.maximal_order(), nf._scalar_ideal(K, f)]
    assert hnf_calls == []
    monkeypatch.undo()
    for ideal in ideals:
        assert FractionalIdeal(K, ideal.num, ideal.den) == ideal


def test_default_character_is_resolved_once_per_conductor(monkeypatch):
    K = build_field(3, 91)
    calls = []
    for name in ("discrete_log_table", "units_mod"):
        def counting(*args, _original=getattr(nf, name)):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(nf, name, counting)
    for _ in range(3):
        assert build_field(3, 91) is K
        assert build_field(3, 91, generator=K.generator) is K
    assert calls == []


# -- the closed forms: coset-counted tables and two-element ideals ----------

# all admissible fields of degree 3 to 13 with f <= 200, and with f <= 400
CLOSED_FORM_DEGREES = (3, 5, 7, 11, 13)


def _product_table(K):
    """The multiplication table from products in Q(zeta_f): the period
    coordinates of eta_i * eta_j, required integral."""
    p = K.degree
    periods = K.periods
    table = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            coords = K.coordinates(periods[i] * periods[j])
            assert all(c.denominator == 1 for c in coords)
            table[i][j] = table[j][i] = tuple(int(c) for c in coords)
    return tuple(tuple(row) for row in table)


def _check_tables_against_cyclotomic_products(fields):
    for p, f in fields:
        K = build_field(p, f)
        assert K.mult_table == _product_table(K)
        # the Gram against the cyclotomic trace of each product
        periods = K.periods
        assert K.gram == tuple(tuple(K.trace(a * b) for b in periods) for a in periods)


def test_coset_table_matches_the_cyclotomic_products():
    fields = list(_admissible_fields(CLOSED_FORM_DEGREES, 200))
    assert len(fields) == 47
    _check_tables_against_cyclotomic_products(fields)


@pytest.mark.slow
def test_coset_table_matches_the_cyclotomic_products_to_level_400(monkeypatch):
    monkeypatch.setenv("GFORM_LAB_MAX_LEVEL", "400")
    fields = list(_admissible_fields(CLOSED_FORM_DEGREES, 400))
    assert len(fields) == 84
    _check_tables_against_cyclotomic_products(fields)


def test_two_element_ideals_match_repeated_products():
    # R^k = (f, alpha^k) for 1 <= k <= p, against R * R * ... through
    # FractionalIdeal.__mul__, and P = (ell, alpha) for every ramified prime
    fields = list(_admissible_fields(CLOSED_FORM_DEGREES, 200))
    primes = 0
    for p, f in fields:
        K = build_field(p, f)
        O = K.maximal_order()
        R = nf._sum_kernel(K, f)
        power = R
        for k, alpha_k in enumerate(nf._uniformizer_powers(K, p), start=1):
            assert nf._span_products(K, nf._two_element(K, f, alpha_k), 1, O) == power
            power = power * R
        assert power == nf._scalar_ideal(K, f) * R
        alpha = nf._uniformizer(K)
        for ell in K.ramified_primes:
            assert nf._span_products(K, nf._two_element(K, ell, alpha), 1, O) == prime_above(K, ell)
            primes += 1
    assert primes == 49


def _fresh_field(K):
    """K built again, outside the field store, with an empty ideal memo."""
    return nf.PeriodField(K.degree, K.conductor, K.character, K.generator)


@pytest.mark.parametrize("mutation, message", [
    ("nonunit", "does not sum to mu"),
    ("shift", "does not commute with sigma"),
    ("det", "discriminant"),
])
def test_every_table_certificate_refuses_and_interns_nothing(mutation, message, monkeypatch):
    monkeypatch.setattr(nf, "_FIELDS", {})
    if mutation == "nonunit":
        original = nf._nonunit_period
        monkeypatch.setattr(nf, "_nonunit_period", lambda p, f, d: original(p, f, d) + 1)
    elif mutation == "shift":
        original = nf.PeriodField.sigma_coords
        monkeypatch.setattr(nf.PeriodField, "sigma_coords",
                            lambda self, coords, power=1: original(self, coords, -power))
    else:
        original = linalg.det
        monkeypatch.setattr(linalg, "det", lambda mat: 2 * original(mat))
    for p, f in [(3, 13), (3, 91), (5, 11)]:
        for _ in range(2):
            with pytest.raises(FieldConstructionError, match=message):
                build_field(p, f)
    assert nf._FIELDS == {}
    monkeypatch.undo()
    assert build_field(3, 91).discriminant == 91**2


@pytest.mark.parametrize("small, f", [(7, 91), (13, 91), (7, 133)])
def test_a_character_of_smaller_conductor_is_refused(small, f, monkeypatch):
    # the coset rule needs chi nontrivial at every prime of f: a character of
    # conductor 7 presented at conductor 91 cuts out the conductor-7 field,
    # whose periods in Q(zeta_91) the table does not describe
    chi = build_field(3, small).character
    lifted = {x: chi[x % small] for x in units_mod(f)}
    monkeypatch.setattr(nf, "_FIELDS", {})
    with pytest.raises(FieldConstructionError):
        build_field(3, f, character=lifted)
    assert nf._FIELDS == {}


def test_alpha_without_valuation_one_is_refused_and_stores_nothing(monkeypatch, k91):
    # eta_0 is a unit at every ramified prime, so (f, eta_0) = O, not R, and
    # (ell, eta_0) = O, not P
    K = _fresh_field(k91)
    monkeypatch.setattr(nf, "_uniformizer", lambda field: (1,) + (0,) * (field.degree - 1))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"rad\(91O\) is not the ideal"):
            sqrt_inverse_different(K)
        with pytest.raises(ArithmeticError, match=r"rad\(91O\) is not the ideal"):
            different(K)
        for ell in (7, 13):
            with pytest.raises(ArithmeticError, match=rf"the prime over {ell} is not the ideal"):
                prime_above(K, ell)
    assert K._ideal_memo == {}
    monkeypatch.undo()
    assert sqrt_inverse_different(K) == sqrt_inverse_different(k91)
    assert prime_above(K, 7) == prime_above(k91, 7)


def test_a_radical_that_is_not_an_ideal_is_refused(monkeypatch, k13):
    # the coordinate-sum kernel mod 7 * 13 is a lattice, not an O-ideal, and
    # its cube is 13 O all the same: only (13, alpha) == R refuses it
    K = _fresh_field(k13)
    original = nf._sum_kernel
    L = original(K, 91)
    assert L**3 == nf._scalar_ideal(K, 13)
    assert L * K.maximal_order() != L
    monkeypatch.setattr(nf, "_sum_kernel", lambda field, n: original(field, 7 * n))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"rad\(13O\) is not the ideal \(13, eta_0 - eta_1\)"):
            sqrt_inverse_different(K)
        # the prime over 13 is refused as well, at its norm
        with pytest.raises(ArithmeticError, match="has norm 91, expected 13"):
            prime_above(K, 13)
    assert K._ideal_memo == {}
    monkeypatch.undo()
    assert sqrt_inverse_different(K) == sqrt_inverse_different(k13)


def test_a_wrong_power_of_alpha_is_refused_at_the_radical_power(monkeypatch, k13):
    # alpha itself is right, so (13, alpha) == R holds; alpha^2 replaced by
    # alpha makes the candidate different R, and R * R is not 13 O
    K = _fresh_field(k13)
    original = nf._uniformizer_powers
    monkeypatch.setattr(nf, "_uniformizer_powers", lambda field, n: original(field, 1) * n)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"rad\(13O\)\^3 is not 13O"):
            different(K)
    assert K._ideal_memo == {}
    monkeypatch.undo()
    assert different(K) == different(k13)


def test_field_and_hilbert_ideals_make_no_cyclotomic_product(monkeypatch):
    monkeypatch.setattr(nf, "_FIELDS", {})
    calls = []

    def spy(name, original):
        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counting

    for cls, name in [(CyclotomicNumber, "__mul__"), (CyclotomicNumber, "__rmul__"),
                      (nf.PeriodField, "coordinates"), (nf.PeriodField, "trace")]:
        monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    for p, f in [(3, 7), (3, 91), (5, 11), (7, 29)]:
        K = build_field(p, f)
        different(K)
        sqrt_inverse_different(K)
    assert calls == []


def test_field_ideal_and_form_layers_make_no_cyclotomic_value(monkeypatch):
    # from a fresh field to the self-dual generator of its A-form and that
    # generator's algebra element, every step runs on integers: no
    # CyclotomicNumber is constructed, so no level cap applies, even at
    # conductors above the default cap of 200
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
    for p, f in [(3, 7), (5, 11), (3, 91), (7, 29), (3, 133), (3, 211), (5, 211), (7, 239)]:
        K = build_field(p, f)
        different(K)
        sqrt_inverse_different(K)
        self_dual_generator(K)
    assert made == []


def test_ideal_power_rejects_a_non_integral_exponent(k7):
    P = prime_above(k7, 7)
    with pytest.raises(ValueError, match="expected an integer"):
        P ** 1.5
    assert P ** 2.0 == P * P
