import copy
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from gform_lab import linalg
from gform_lab import stickelberger as stk
from gform_lab.arith import euler_phi, unit_group_generators
from gform_lab.cyclotomic import CyclotomicNumber
from gform_lab.groups import (
    FiniteAbelianGroup,
    GroupElement,
    character_value_exponent,
    group_tables,
)
from gform_lab.stickelberger import (
    DualLatticeElement,
    EquivariantMap,
    StickelbergerVector,
    _image_exponents,
    det_kernel_basis,
    equivariance_check,
    image_selfdual_check,
    integrality_certificate,
    integrality_check,
    pairing_char,
    stickelberger_map,
    transpose_value,
    upsilon,
)
from gform_lab.suites import ACCEPTANCE_GROUPS, SuiteConfig, run_check

C3 = FiniteAbelianGroup((3,))
C5 = FiniteAbelianGroup((5,))
C7 = FiniteAbelianGroup((7,))
C9 = FiniteAbelianGroup((9,))
C33 = FiniteAbelianGroup((3, 3))


def dual(G, coeffs):
    return DualLatticeElement(G, tuple(coeffs))


def pairing(psi, alpha, group: FiniteAbelianGroup | None = None) -> Fraction:
    """The centered pairing extended bilinearly, an oracle for the library:
    psi is a DualLatticeElement or a rational coefficient sequence over the
    characters, alpha a GroupElement, a StickelbergerVector, or a rational
    coefficient sequence over G."""
    if isinstance(psi, DualLatticeElement):
        G = psi.group
        psi_coeffs = [Fraction(c) for c in psi.coeffs]
    else:
        if group is None:
            raise ValueError("raw coefficient vectors need an explicit group")
        G = group
        psi_coeffs = [Fraction(c) for c in psi]
    stk._require_odd(G)
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


def test_upsilon_examples():
    chi = C3.character((1,))
    s = C3.element((1,))
    assert upsilon(chi, s) == 1
    assert upsilon(chi**2, s) == -1
    # C7: chi(g^3) = zeta_7^3, centered value 3 stays inside [-3, 3]
    chi7 = C7.character((1,))
    g3 = C7.element((3,))
    u = upsilon(chi7, g3)
    assert -3 <= u <= 3
    # oracle: search the window for the exponent matching chi(s)
    o = g3.order()
    e = character_value_exponent(chi7, g3)
    matches = [v for v in range(-(o - 1) // 2, (o - 1) // 2 + 1) if v % o == (e * o // 7) % o]
    assert matches == [u]
    assert upsilon(chi7, C7.identity()) == 0


def test_upsilon_rejects_even_order():
    c4 = FiniteAbelianGroup((4,))
    with pytest.raises(ValueError):
        upsilon(c4.character((1,)), c4.element((1,)))


@pytest.mark.parametrize("facs", [(3,), (9,), (5,), (7,), (3, 3), (63,), (3, 9)])
def test_upsilon_laws_exhaustive(facs):
    G = FiniteAbelianGroup(facs)
    for chi in G.characters():
        for s in G.elements():
            u = upsilon(chi, s)
            o = s.order()
            assert 2 * abs(u) <= o - 1
            assert upsilon(chi.inverse(), s) == -u
            assert upsilon(chi, s.inverse()) == -u


def test_pairing_examples():
    chi = C3.character((1,))
    s = C3.element((1,))
    assert pairing_char(chi, C3.identity()) == 0
    assert pairing_char(chi, s) == Fraction(1, 3)
    psi = dual(C3, (0, 1, 1))  # chi + chi^2
    assert pairing(psi, s) == 0


def test_pairing_full_bilinearity():
    # rational coefficients on both sides
    psi = [Fraction(1, 2), Fraction(0), Fraction(0)]
    alpha = [Fraction(0), Fraction(2, 5), Fraction(0)]
    assert pairing(psi, alpha, group=C3) == 0  # trivial character pairs to 0
    psi2 = [0, Fraction(3, 2), 0]  # (3/2) * chi
    assert pairing(psi2, C3.element((1,)), group=C3) == Fraction(1, 2)
    assert pairing(psi2, alpha, group=C3) == Fraction(3, 2) * Fraction(2, 5) * Fraction(1, 3)
    vec = stickelberger_map(dual(C3, (0, 3, 0)))
    assert pairing(dual(C3, (0, 1, 0)), vec) == Fraction(2, 3)  # <chi, sigma - sigma^2>


def test_stickelberger_map_examples():
    psi = dual(C3, (0, 1, 1))
    assert stickelberger_map(psi).coeffs == (0, 0, 0)
    psi3 = dual(C3, (0, 3, 0))
    assert stickelberger_map(psi3).coeffs == (0, 1, -1)  # sigma - sigma^2
    psi1 = dual(C3, (0, 1, 0))
    vec = stickelberger_map(psi1)
    assert vec.coeffs == (0, Fraction(1, 3), Fraction(-1, 3))
    assert not vec.is_integral()


def test_image_denominators_divide_exponent():
    rng = random.Random(31)
    for G in (C3, C9, C33):
        m = G.exponent
        for _ in range(10):
            psi = dual(G, [rng.randrange(-5, 6) for _ in range(G.order)])
            for c in stickelberger_map(psi).coeffs:
                assert m % c.denominator == 0


def test_stickelberger_map_linear_randomized():
    rng = random.Random(11)
    for G in (C3, C7, C33):
        n = G.order
        for _ in range(10):
            a = dual(G, [rng.randrange(-4, 5) for _ in range(n)])
            b = dual(G, [rng.randrange(-4, 5) for _ in range(n)])
            va = stickelberger_map(a)
            vb = stickelberger_map(b)
            s = stickelberger_map(a + b)
            assert s.coeffs == tuple(x + y for x, y in zip(va.coeffs, vb.coeffs))
            assert stickelberger_map(2 * a).coeffs == tuple(2 * x for x in va.coeffs)


def test_det_kernel_basis_c3():
    basis = det_kernel_basis(C3)
    rows = [psi.coeffs for psi in basis]
    assert rows == [(1, 0, 0), (0, 1, 1), (0, 0, 3)]
    # membership of the standard kernel vectors
    for target in [(1, 0, 0), (0, 1, 1), (0, 3, 0)]:
        psi = dual(C3, target)
        assert psi.det().is_trivial
        assert integrality_check(psi) == psi.det().is_trivial


def test_det_kernel_trivial_group():
    c1 = FiniteAbelianGroup(())
    basis = det_kernel_basis(c1)
    assert len(basis) == 1 and basis[0].coeffs == (1,)


@pytest.mark.parametrize("facs", [(3,), (5,), (9,), (3, 3)])
def test_det_kernel_index_is_group_order(facs):
    G = FiniteAbelianGroup(facs)
    basis = det_kernel_basis(G)
    assert len(basis) == G.order
    index = 1
    for i, psi in enumerate(basis):
        index *= psi.coeffs[i]
    assert index == G.order


def test_integrality_examples():
    for coeffs, integral in [((0, 1, 1), True), ((0, 1, 0), False), ((1, 0, 0), True)]:
        psi = dual(C3, coeffs)
        assert integrality_check(psi) == psi.det().is_trivial == integral


def numpy_oracle(G):
    """An int64 numpy oracle over rows of psi: asserts that an integral
    Stickelberger image, det(psi) = 1 and membership in the certified
    lattice (psi @ B^-1 integral) agree on every row, and returns the number
    of kernel rows."""
    cert = integrality_certificate(G)
    assert cert.holds
    T = group_tables(G)
    ups = np.array(T.upsilon, dtype=np.int64)
    orders = np.array(T.orders, dtype=np.int64)
    char_exps = np.array([chi.exponents for chi in T.characters], dtype=np.int64)
    facs = np.array(G.invariant_factors, dtype=np.int64)
    binv, bden = linalg.inverse([list(row) for row in cert.lattice])
    binv = np.array(binv, dtype=np.int64)

    def kernel_hits(psis):
        integral = np.all((psis @ ups) % orders == 0, axis=1)
        trivial = np.all((psis @ char_exps) % facs == 0, axis=1)
        member = np.all((psis @ binv) % bden == 0, axis=1)
        bad = np.nonzero((integral != trivial) | (member != trivial))[0]
        assert not len(bad), f"mismatch at psi = {psis[bad[0]].tolist()}"
        return int(trivial.sum())

    return kernel_hits


def numpy_box_sweep(G, bound, chunk=1 << 18):
    """(total, kernel hits) of the numpy oracle over every psi in
    [-bound, bound]^|G|, enumerated in int64 chunks."""
    kernel_hits = numpy_oracle(G)
    width = 2 * bound + 1
    total = width**G.order
    powers = width ** np.arange(G.order, dtype=np.int64)
    hits = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        hits += kernel_hits((idx[:, None] // powers[None, :]) % width - bound)
    return total, hits


@pytest.mark.parametrize("facs", [(3,), (5,), (7,)])
def test_integrality_equivalence_exhaustive_box3(facs):
    G = FiniteAbelianGroup(facs)
    total, hits = numpy_box_sweep(G, 3)
    assert total == 7**G.order
    assert 0 < hits < total


def test_exhaustive_sweep_balanced_box():
    # a box aligned with the kernel index: width 3 box over C3 splits evenly
    assert numpy_box_sweep(C3, 1) == (27, 9)


@pytest.mark.parametrize("facs", [(9,), (3, 3)])
def test_integrality_equivalence_random_box3(facs):
    G = FiniteAbelianGroup(facs)
    rng = random.Random(17)
    psis = np.array(
        [[rng.randrange(-3, 4) for _ in range(G.order)] for _ in range(5000)], dtype=np.int64
    )
    assert numpy_oracle(G)(psis) >= 1  # zero vector shows up with overwhelming probability


@pytest.mark.slow
@pytest.mark.parametrize("facs", [(9,), (3, 3)])
def test_integrality_equivalence_exhaustive_box3_rank9(facs):
    # the full 7^9 = 40M-vector box through the numpy oracle
    G = FiniteAbelianGroup(facs)
    total, hits = numpy_box_sweep(G, 3, chunk=1 << 19)
    assert total == 7**9
    assert 0 < hits < total


def test_conjugate_stabilizes_kernel():
    for G in (C3, C9, C33):
        for psi in det_kernel_basis(G):
            conj = psi.conjugate()
            assert conj.det().is_trivial
            assert integrality_check(conj)


def test_equivariance_full_unit_group():
    assert equivariance_check(C7, [3])  # 3 generates (Z/7)^x
    assert equivariance_check(C9, [2])  # 2 generates (Z/9)^x
    assert equivariance_check(C33, [2])
    assert equivariance_check(C3, [])  # vacuous


def identity_map(group: FiniteAbelianGroup) -> EquivariantMap:
    """The equivariant map with value 1 at every group element."""
    gens = unit_group_generators(group.exponent)
    return EquivariantMap(group, [1] * group.order, acting_generators=gens)


def test_transpose_value_examples():
    f1 = identity_map(C3)
    for psi in det_kernel_basis(C3):
        assert transpose_value(f1, psi) == 1
    s = C3.element((1,))
    f = EquivariantMap.prime_map(C3, 7, s)
    psi3 = dual(C3, (0, 3, 0))  # image sigma - sigma^2
    assert transpose_value(f, psi3) == 7
    f2 = EquivariantMap.prime_map(C3, 7, C3.element((2,)))
    assert transpose_value(f2, psi3) == Fraction(1, 7)
    # multiplicativity in psi
    psi_a = dual(C3, (1, 0, 0))
    both = psi_a + psi3
    assert transpose_value(f, both) == transpose_value(f, psi_a) * transpose_value(f, psi3)
    with pytest.raises(ValueError):
        transpose_value(f, dual(C3, (0, 1, 0)))  # not in the kernel


def test_prime_map_validation():
    with pytest.raises(ValueError):
        EquivariantMap.prime_map(C3, 7, C3.identity())
    with pytest.raises(ValueError):
        EquivariantMap.prime_map(C3, 5, C3.element((1,)))  # 3 does not divide 4


def test_equivariant_map_rejects_non_equivariant():
    values = {s: Fraction(1) for s in C3.elements()}
    values[C3.element((1,))] = Fraction(2)
    with pytest.raises(ValueError):
        EquivariantMap(C3, values, acting_generators=(2,))
    with pytest.raises(ValueError):
        EquivariantMap(C3, {s: Fraction(0) for s in C3.elements()})


def test_image_selfdual_sweep():
    rng = random.Random(23)
    for G in (C3, C7):
        assert image_selfdual_check(identity_map(G))
        for _ in range(10):
            f = EquivariantMap.random_map(G, rng)
            assert image_selfdual_check(f)
    s = C3.element((1,))
    assert image_selfdual_check(EquivariantMap.prime_map(C3, 7, s))


def test_random_map_is_checked_equivariant():
    rng = random.Random(29)
    f = EquivariantMap.random_map(C9, rng)
    # spot check the defining property once more by hand
    m = 9
    for u in (2, 4, 7):
        for s in C9.elements():
            from gform_lab.groups import galois_twist

            t = galois_twist(s, u, -1)
            assert f(t) == f(s).galois(u % f.level if f.level > 1 else 1)


def per_exponent_transpose(f, psi):
    """The transpose value as prod_s f(s)^(n_s), one inverse per negative
    exponent: the reference for the split products."""
    acc = CyclotomicNumber.rational(1, 1)
    for s, c in zip(f.group.elements(), stickelberger_map(psi).coeffs):
        e = int(c)
        if e:
            acc = acc * f(s) ** e
    return acc


@pytest.mark.parametrize("G", [C3, C7, C9], ids=str)
def test_transpose_value_matches_per_exponent_product(G):
    rng = random.Random(31)
    basis = det_kernel_basis(G)
    for _ in range(4):
        f = EquivariantMap.random_map(G, rng)
        psis = list(basis)
        for _ in range(4):
            psi = dual(G, (0,) * G.order)
            for b in basis:
                psi = psi + rng.randint(-2, 2) * b
            psis.append(psi)
        for psi in psis:
            assert transpose_value(f, psi) == per_exponent_transpose(f, psi)


def pair_with_itself(G, monkeypatch):
    """Make the character conjugation of G the identity permutation, for the
    rest of the test: the integer rows of the self-duality check and
    DualLatticeElement.conjugate both read it from the group's tables."""
    T = group_tables(G)
    T.conjugate  # built and cached first, so that the patch replaces it
    monkeypatch.setitem(T.__dict__, "conjugate", tuple(range(G.order)))
    psi = det_kernel_basis(G)[-1]
    assert psi.conjugate() == psi


def test_image_selfdual_check_decides_without_division(monkeypatch):
    # no acting residues, so the values need not be equivariant
    values = {
        C3.identity(): Fraction(2),
        C3.element((1,)): Fraction(3),
        C3.element((2,)): CyclotomicNumber.zeta(3) + 2,
    }
    f = EquivariantMap(C3, values, acting_generators=())
    # upsilon is odd in chi, so the image of the conjugate is minus the
    # image, and v(psi) * v(conj psi) = 1 holds for every nonvanishing map
    for psi in det_kernel_basis(C3):
        image = stickelberger_map(psi).coeffs
        assert stickelberger_map(psi.conjugate()).coeffs == tuple(-c for c in image)
    assert image_selfdual_check(f)
    # pairing psi with itself asks v(psi)^2 = 1 instead, which fails here;
    # the comparison p1 * p2 == n1 * n2 must see it
    pair_with_itself(C3, monkeypatch)
    assert not image_selfdual_check(f)


# -- the transpose as a lattice homomorphism ---------------------------------


def odd_abelian_groups(bound):
    """Every abelian group of odd order at most bound, as invariant-factor
    chains d_1 | d_2 | ... (the trivial group included)."""

    def chains(order, smallest):
        # chains of factors >= smallest with each dividing the next
        if order == 1:
            yield ()
        for d in range(smallest, order + 1):
            if order % d == 0:
                for rest in chains(order // d, d):
                    if not rest or rest[0] % d == 0:
                        yield (d,) + rest

    return [FiniteAbelianGroup(c) for n in range(1, bound + 1, 2) for c in chains(n, 2)]


ODD_GROUPS = odd_abelian_groups(35)
HOM_GROUPS = [C3, C7, C9, C33]


def test_odd_group_list_is_complete():
    # one group for each of the 18 odd orders up to 35, except two of order
    # 9, two of order 25 and three of order 27
    assert len(ODD_GROUPS) == 18 + 1 + 1 + 2
    assert FiniteAbelianGroup((3, 3, 3)) in ODD_GROUPS
    assert FiniteAbelianGroup((3, 9)) in ODD_GROUPS


@pytest.mark.parametrize("G", ODD_GROUPS, ids=str)
def test_upsilon_is_odd_in_the_character(G):
    # upsilon(chi^-1, s) = -upsilon(chi, s), read off the tables: the reason
    # the transpose of every nonvanishing map is self-dual
    T = group_tables(G)
    for c, chi in enumerate(T.characters):
        assert T.characters[T.conjugate[c]] == chi.inverse()
        assert T.conjugate[T.conjugate[c]] == c
        assert T.upsilon[T.conjugate[c]] == tuple(-u for u in T.upsilon[c])


@pytest.mark.parametrize("G", ODD_GROUPS, ids=str)
def test_psi_plus_its_conjugate_has_zero_exponents(G):
    for psi in det_kernel_basis(G):
        assert _image_exponents(G, (psi + psi.conjugate()).coeffs) == [0] * G.order


def scrambled_map(G, rng, span=4):
    """A map with one random nonzero value in Q(zeta_|s|) per element and no
    acting residues, so nothing ties the values of one twist orbit."""
    values = {}
    for s in G.elements():
        o = s.order()
        while True:
            x = CyclotomicNumber(o, [rng.randint(-span, span) for _ in range(euler_phi(o))])
            if not x.is_zero():
                break
        values[s] = x
    return EquivariantMap(G, values, acting_generators=())


def sample_maps(G, rng):
    return [EquivariantMap.random_map(G, rng) for _ in range(2)] + [
        scrambled_map(G, rng) for _ in range(2)
    ]


def random_kernel_element(basis, rng):
    psi = 0 * basis[0]
    for b in basis:
        psi = psi + rng.randint(-2, 2) * b
    return psi


@pytest.mark.parametrize("G", HOM_GROUPS, ids=str)
def test_transpose_value_is_a_homomorphism(G):
    rng = random.Random(37)
    basis = det_kernel_basis(G)
    for f in sample_maps(G, rng):
        for _ in range(3):
            psi1 = random_kernel_element(basis, rng)
            psi2 = random_kernel_element(basis, rng)
            assert transpose_value(f, psi1 + psi2) == (
                transpose_value(f, psi1) * transpose_value(f, psi2)
            )


def split_products(f, psi):
    """(prod of f(s)^n_s over n_s > 0, prod of f(s)^-n_s over n_s < 0),
    with the exponents read off stickelberger_map."""
    pos = neg = CyclotomicNumber.rational(1, 1)
    for s, c in zip(f.group.elements(), stickelberger_map(psi).coeffs):
        assert c.denominator == 1
        if c > 0:
            pos = pos * f(s) ** int(c)
        elif c < 0:
            neg = neg * f(s) ** int(-c)
    return pos, neg


def reference_selfdual_check(f):
    """v(psi) * v(conj psi) = 1 on the kernel basis, with psi and its
    conjugate split separately and compared as p1 * p2 == n1 * n2."""
    for psi in det_kernel_basis(f.group):
        p1, n1 = split_products(f, psi)
        p2, n2 = split_products(f, psi.conjugate())
        if not (p1 * p2 == n1 * n2):
            return False
    return True


@pytest.mark.parametrize("G", HOM_GROUPS, ids=str)
def test_image_selfdual_check_matches_the_two_product_route(G, monkeypatch):
    rng = random.Random(41)
    maps = sample_maps(G, rng)
    for f in maps:
        assert image_selfdual_check(f) == reference_selfdual_check(f)
    # with psi paired with itself both routes decide v(psi)^2 = 1, which
    # fails on most maps: they must agree there too
    pair_with_itself(G, monkeypatch)
    verdicts = [image_selfdual_check(f) for f in maps]
    assert verdicts == [reference_selfdual_check(f) for f in maps]
    assert not all(verdicts)


@pytest.mark.parametrize("G", [C3, C7, C9], ids=str)
def test_image_selfdual_check_takes_no_cyclotomic_product(G, monkeypatch):
    rng = random.Random(43)
    maps = [EquivariantMap.random_map(G, rng) for _ in range(3)] + [scrambled_map(G, rng)]
    calls = []
    original = CyclotomicNumber.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counting)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counting)
    for f in maps:
        assert image_selfdual_check(f)
    assert calls == []
    # the guard sees products when the exponents do not vanish
    transpose_value(maps[0], det_kernel_basis(G)[-1])
    assert calls


# -- C1: the lattice of integrality equals the determinant kernel ------------


@pytest.mark.parametrize("G", ODD_GROUPS, ids=str)
def test_integrality_certificate_holds_on_odd_groups(G):
    cert = integrality_certificate(G)
    assert cert.holds
    assert cert.lattice == group_tables(G).kernel_basis
    assert cert.to_json() == {"lattice_equals_kernel": True, "index": G.order}


def in_hnf_span(basis, v):
    """Whether the integer vector v lies in the lattice of a full-rank HNF
    basis, by clearing the pivots in turn."""
    v = list(v)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("G", [C3, C5, C7, C9, C33], ids=str)
def test_lattice_membership_integrality_and_det_agree(G):
    # the whole box [-1, 1]^|G| up to order 7, a seeded sample above
    if G.order <= 7:
        psis = itertools.product((-1, 0, 1), repeat=G.order)
    else:
        rng = random.Random(29)
        psis = [[rng.randint(-3, 3) for _ in range(G.order)] for _ in range(400)]
    lattice = integrality_certificate(G).lattice
    hits = 0
    for coeffs in psis:
        psi = dual(G, coeffs)
        member = in_hnf_span(lattice, coeffs)
        assert member == integrality_check(psi) == psi.det().is_trivial, coeffs
        hits += member
    assert hits > 1


@pytest.mark.parametrize("facs", ACCEPTANCE_GROUPS, ids=str)
def test_c1_reports_a_perturbed_upsilon_with_a_counterexample(facs, monkeypatch):
    # one upsilon entry off by 1, on a copy of the tables that the
    # stickelberger module reads for this group only
    G = FiniteAbelianGroup(facs)
    T = group_tables(G)
    ups = [list(row) for row in T.upsilon]
    ups[1][1] += 1
    mutated = copy.copy(T)
    mutated.__dict__["upsilon"] = tuple(tuple(row) for row in ups)
    monkeypatch.setattr(stk, "group_tables", lambda H: mutated if H == G else group_tables(H))
    result = run_check("C1", SuiteConfig(groups=(facs,)))
    assert result.status == "fail"
    entry = result.details[str(G)]
    assert entry["lattice_equals_kernel"] is False
    psi = dual(G, entry["counterexample"])
    integral, trivial = integrality_check(psi), psi.det().is_trivial
    assert integral != trivial
    assert (entry["integral"], entry["det_trivial"]) == (integral, trivial)


def test_equivariant_map_is_index_keyed(monkeypatch):
    rng = random.Random(37)
    for G in (C3, C9, C33):
        f = EquivariantMap.random_map(G, rng)
        T = group_tables(G)
        by_element = dict(zip(T.elements, f.values))
        assert all(f(s) == v for s, v in by_element.items())
        g = EquivariantMap(G, by_element, acting_generators=f.acting_generators)
        assert g.values == f.values and g.level == f.level
        # the equivariance check permutes indices and hashes no element
        hashed = []
        original = GroupElement.__hash__
        monkeypatch.setattr(GroupElement, "__hash__", lambda s: hashed.append(s) or original(s))
        h = EquivariantMap(G, list(f.values), acting_generators=f.acting_generators)
        monkeypatch.undo()
        assert hashed == [] and h.values == f.values
    # a twist orbit with unequal values fails through the permutation
    values = [1] * C9.order
    values[group_tables(C9).element_index[C9.element((3,))]] = 2
    with pytest.raises(ValueError, match="not equivariant"):
        EquivariantMap(C9, values, acting_generators=(2,))
    with pytest.raises(ValueError, match="need 9 values"):
        EquivariantMap(C9, values[:8])


def test_dual_lattice_element_rejects_non_integral_coefficients():
    # int() would truncate 1/2 to 0 and give (0, 0, 1)
    with pytest.raises(ValueError, match=r"expected an integer, got Fraction\(1, 2\)"):
        DualLatticeElement(C3, [Fraction(1, 2), 0, 1])


def test_scaling_rejects_a_non_integral_scalar():
    psi = DualLatticeElement(C3, (1, 0, 1))
    # int() would truncate 1/2 to 0 and give (0, 0, 0)
    with pytest.raises(ValueError, match="expected an integer"):
        Fraction(1, 2) * psi
    assert (2.0 * psi).coeffs == (2, 0, 2)


def test_acting_residues_must_be_integers():
    # int() would truncate 2.5 to the generator 2 of (Z/9)^x
    with pytest.raises(ValueError, match="expected an integer"):
        EquivariantMap(C9, [1] * 9, acting_generators=(2.5,))
    with pytest.raises(ValueError, match="expected an integer"):
        equivariance_check(C9, (2.5,))
    assert EquivariantMap(C9, [1] * 9, acting_generators=(2.0,)).acting_generators == (2,)
    assert equivariance_check(C9, (Fraction(4, 2),))
