import re

import pytest

from gform_lab import linalg
from gform_lab.gforms import (
    GForm,
    IsometryResult,
    IsometryWitness,
    WitnessNotFound,
    find_self_dual_generator,
    gform_from_A,
    is_self_dual_generator,
    isometry_equivalence,
    product_law,
    self_dual_generator,
    standard_form,
    verify_inverse_law,
    verify_weak_multiplicativity,
    witness_element,
)
from gform_lab.groups import FiniteAbelianGroup
from gform_lab.number_fields import HomToG, build_field, compose_fields, sqrt_inverse_different
from gform_lab.resolvends import is_self_dual, stickelberger_factorization_check

C3 = FiniteAbelianGroup((3,))
C5 = FiniteAbelianGroup((5,))
C7 = FiniteAbelianGroup((7,))
C9 = FiniteAbelianGroup((9,))
C33 = FiniteAbelianGroup((3, 3))


@pytest.fixture(scope="module")
def k7():
    return build_field(3, 7)


@pytest.fixture(scope="module")
def k13():
    return build_field(3, 13)


@pytest.mark.parametrize("G", [C3, C5, C7])
def test_standard_form_witness_is_identity(G):
    form = standard_form(G)
    w = find_self_dual_generator(form)
    assert w is not None
    assert w.coords == tuple(1 if i == 0 else 0 for i in range(G.order))  # the identity
    assert w.verify()
    # norm-one vectors are exactly the group elements up to sign
    vecs = linalg.quadratic_solutions([list(r) for r in form.gram], 1)
    assert len(vecs) == G.order
    assert all(sum(abs(x) for x in v) == 1 for v in vecs)


def test_gform_from_A_conductor7(k7):
    form = gform_from_A(k7)
    assert form.rank == 3
    assert abs(form.determinant()) == 1
    assert linalg._definite_minors(form.gram) is not None
    w = find_self_dual_generator(form)
    assert w is not None and w.verify()


def test_witness_element_is_self_dual_generator(k7):
    w, a = self_dual_generator(k7)
    assert w.verify()
    assert a == witness_element(w.form, w)
    assert is_self_dual(a)
    assert is_self_dual_generator(a, sqrt_inverse_different(k7))


def _orbit_is_orthonormal(form, coords):
    """Oracle: all |G| x |G| pairings of the orbit. An orthonormal orbit of a
    unimodular form has unit determinant, so no determinant is needed."""
    orbit = [form.act(coords, s) for s in form.group.elements()]
    return all(
        form.pair(v, w) == (1 if i == j else 0)
        for i, v in enumerate(orbit)
        for j, w in enumerate(orbit)
    )


@pytest.mark.parametrize(
    "kind,spec",
    [("standard", 3), ("standard", 5), ("standard", 7),
     ("A", (3, 7)), ("A", (3, 13)), ("A", (5, 11))],
    ids=["C3", "C5", "C7", "A_deg3_f7", "A_deg3_f13", "A_deg5_f11"],
)
def test_witness_verification_matches_the_full_pairing_oracle(kind, spec):
    if kind == "standard":
        form = standard_form(FiniteAbelianGroup((spec,)))
    else:
        form = gform_from_A(build_field(*spec))
    vectors = linalg.quadratic_solutions([list(r) for r in form.gram], 1)
    assert vectors
    verdicts = set()
    for v in vectors:
        for coords in (v, tuple(-x for x in v)):
            verdict = IsometryWitness.of(form, coords).verify()
            assert verdict == _orbit_is_orthonormal(form, coords), coords
            verdicts.add(verdict)
    assert True in verdicts


def test_verify_rejects_tampered_witnesses():
    form = standard_form(C5)
    w = find_self_dual_generator(form)
    rows = list(w.orbit_matrix)
    rows[1], rows[2] = rows[2], rows[1]  # same pairings with v, unit det, not the orbit
    assert not IsometryWitness(form, w.coords, tuple(rows)).verify()
    # -1 + g + g^4 is a unit of Z[C5]: its orbit is a basis, but not orthonormal
    unit = IsometryWitness.of(form, (-1, 1, 0, 0, 1))
    assert abs(linalg.det([list(r) for r in unit.orbit_matrix])) == 1
    assert form.pair(unit.coords, unit.coords) == 3
    assert not unit.verify()


def test_maximal_order_form_is_rejected(k7):
    # the maximal order has Gram determinant 49: fails the unimodular gate
    from gform_lab.groups import FiniteAbelianGroup

    shift = [[int(j == (i + 1) % 3) for j in range(3)] for i in range(3)]
    actions = {
        C3.element((0,)): linalg.identity_matrix(3),
        C3.element((1,)): shift,
        C3.element((2,)): linalg.mat_mul(shift, shift),
    }
    form = GForm(C3, k7.gram, actions, label="(O_K, trace)")
    with pytest.raises(ValueError):
        find_self_dual_generator(form)


def test_witness_corpus_degree3():
    for f in (7, 13, 19, 31):
        K = build_field(3, f)
        form = gform_from_A(K)
        w = find_self_dual_generator(form)
        assert w is not None and w.verify(), f"no witness at conductor {f}"


@pytest.mark.parametrize("f", [37, 43, 61, 67, 73, 79, 97])
def test_witness_full_prime_corpus_to_100(f):
    # witness existence across every prime conductor up to 100
    K = build_field(3, f)
    w = find_self_dual_generator(gform_from_A(K))
    assert w is not None and w.verify()


def test_gform_composite_conductor91(k7, k13):
    from gform_lab.number_fields import compose_fields

    K91 = compose_fields(k7, k13)
    form = gform_from_A(K91)
    assert abs(form.determinant()) == 1
    assert linalg._definite_minors(form.gram) is not None


def test_witness_degree5_conductor11():
    K = build_field(5, 11)
    form = gform_from_A(K)
    assert form.rank == 5
    w = find_self_dual_generator(form)
    assert w is not None and w.verify()


def test_verify_inverse_law(k7, k13):
    assert verify_inverse_law(k7)
    assert verify_inverse_law(k13)


def test_verify_inverse_law_nonstandard_hom(k7):
    h = HomToG(k7, C3, C3.element((2,)))
    assert verify_inverse_law(k7, h)


def test_weak_multiplicativity_7_13(k7, k13):
    assert verify_weak_multiplicativity(k7, k13)


def test_weak_multiplicativity_rejects_same_conductor(k7):
    with pytest.raises(Exception):
        verify_weak_multiplicativity(k7, k7)


def test_factorization_check_conductor7(k7):
    form = gform_from_A(k7)
    w = find_self_dual_generator(form)
    a = witness_element(form, w)
    result = stickelberger_factorization_check(a)
    assert result.passed
    assert result.witness is not None and not result.witness.is_identity
    # the identity branch (dividing by nothing) must fail for a ramified field
    trivial = stickelberger_factorization_check(a, branch=a.group.identity())
    assert not trivial.passed


def test_one_field_construction_per_field(monkeypatch):
    import gform_lab.number_fields as nf

    # an empty field store for this test, as in a fresh process
    monkeypatch.setattr(nf, "_FIELDS", {})
    built = []
    init = nf.PeriodField.__init__

    def counting_init(self, degree, conductor, character, generator):
        built.append((degree, conductor))
        init(self, degree, conductor, character, generator)

    monkeypatch.setattr(nf.PeriodField, "__init__", counting_init)
    assert verify_inverse_law(build_field(3, 91))
    assert verify_weak_multiplicativity(build_field(3, 7), build_field(3, 13))
    form = gform_from_A(build_field(3, 7))
    result = stickelberger_factorization_check(witness_element(form, find_self_dual_generator(form)))
    assert result.passed
    # the composite of 7 and 13 is the field of conductor 91 built first
    assert built == [(3, 91), (3, 7), (3, 13)]
    K7, K13 = build_field(3, 7), build_field(3, 13)
    assert product_law(K7, K13).composite is build_field(3, 91)
    # weights (1, 2) cut out another field of conductor 91
    assert compose_fields(K7, K13, weights=(1, 2)) is not build_field(3, 91)
    assert built == [(3, 91), (3, 7), (3, 13), (3, 91)]


def test_gform_from_A_is_built_once_per_identification(monkeypatch):
    import gform_lab.gforms as gf
    import gform_lab.number_fields as nf

    # built directly, not interned, so that its memo starts empty
    K7 = build_field(3, 7)
    K = nf.PeriodField(3, 7, K7.character, K7.generator)
    hom = HomToG.standard(K)
    A = sqrt_inverse_different(K)
    # a lattice whose trace form has determinant 7^2, not a unit
    wrong = A * nf.prime_above(K, 7)
    monkeypatch.setattr(gf, "sqrt_inverse_different", lambda field: wrong)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="determinant"):
            gform_from_A(K, hom)
    assert hom not in K._ideal_memo
    monkeypatch.undo()
    form = gform_from_A(K, hom)
    assert gform_from_A(K) is form
    assert gform_from_A(K, HomToG.standard(K)) is form
    inverse = gform_from_A(K, hom.inverse_hom())
    assert inverse is not form and gform_from_A(K, hom.inverse_hom()) is inverse
    assert inverse.gram == form.gram and inverse.actions != form.actions


@pytest.mark.parametrize("p, f", [(3, 7), (3, 13), (5, 11)])
def test_a_form_gram_is_eliminated_once_for_its_determinant(p, f, monkeypatch):
    # built directly, not interned, so that no form is memoized yet
    import gform_lab.number_fields as nf

    interned = build_field(p, f)
    K = nf.PeriodField(p, f, interned.character, interned.generator)
    grams = []
    eliminate = linalg._eliminate

    def recording(mat, ncols):
        grams.append([list(row) for row in mat])
        return eliminate(mat, ncols)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    form = gform_from_A(K)
    gram = [list(row) for row in form._gram_num]
    assert grams.count(gram) == 1  # the determinant, once, at construction
    assert abs(form.determinant()) == 1
    assert grams.count(gram) == 1  # reading it eliminates nothing
    witness = find_self_dual_generator(form)
    assert witness is not None and witness.verify()
    # the Fincke-Pohst set-up is the only other elimination of the Gram
    assert grams.count(gram) == 2
    assert form.determinant() == linalg.det(gram)


def test_isometry_equivalence(k7):
    std = standard_form(C3)
    formA = gform_from_A(k7)
    assert isometry_equivalence(std, std) is IsometryResult.ISOMETRIC
    assert isometry_equivalence(formA, std) is IsometryResult.ISOMETRIC
    assert bool(isometry_equivalence(formA, std))
    std5 = standard_form(C5)
    with pytest.raises(ValueError):
        isometry_equivalence(std, std5)  # different groups


def test_even_order_group_rejected():
    from gform_lab import linalg

    C2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError):
        GForm(
            C2,
            linalg.identity_matrix(2),
            {s: linalg.identity_matrix(2) for s in C2.elements()},
        )


def test_isometry_rank_mismatch_detected():
    # two forms over the same group with different determinants
    form = standard_form(C3)
    doubled = GForm(
        C3,
        [[2 if i == j else 0 for j in range(3)] for i in range(3)],
        {s: form.actions[s] for s in C3.elements()},
        label="scaled",
    )
    assert isometry_equivalence(form, doubled) is IsometryResult.NOT_ISOMETRIC
    assert not bool(IsometryResult.INCONCLUSIVE)


def test_invariance_is_decided_on_a_non_integral_gram(k7):
    # a unimodular Gram scaled by 1/3 is no longer integral; invariance is
    # checked on its numerators over their lcm and must not change verdict
    from fractions import Fraction

    form = gform_from_A(k7)
    third = [[x * Fraction(1, 3) for x in row] for row in form.gram]
    assert any(x.denominator == 3 for row in third for x in row)
    scaled = GForm(C3, third, form.actions, label="A-form / 3")
    assert scaled.gram == tuple(tuple(row) for row in third)
    assert scaled.determinant() == Fraction(1, 27)
    # the cyclic shift of period coordinates is a group action but does not
    # preserve the A-basis Gram
    shift = [[int(j == (i + 1) % 3) for j in range(3)] for i in range(3)]
    actions = {C3.element((j,)): linalg.identity_matrix(3) for j in range(3)}
    actions[C3.element((1,))] = shift
    actions[C3.element((2,))] = linalg.mat_mul(shift, shift)
    with pytest.raises(ValueError, match="not invariant"):
        GForm(C3, third, actions)


def _generators(G):
    return [G.element(tuple(int(j == k) for j in range(G.rank))) for k in range(G.rank)]


def _swap_rows(m):
    m = [list(r) for r in m]
    m[0], m[1] = m[1], m[0]
    return m


@pytest.mark.parametrize("G", [C3, C9, C33], ids=["C3", "C9", "C3xC3"])
def test_gform_validation_on_generators_rejects_every_broken_action(G):
    # _validate checks invariance and composition on the generators only;
    # each broken action below must still be caught
    std = standard_form(G)
    gens = _generators(G)
    others = [s for s in G.elements() if not s.is_identity and s not in gens]
    assert GForm(G, std.gram, std.actions).actions == std.actions
    # an altered matrix of a non-generator: only composing each generator
    # with every t (not just t = e) reaches it
    for s in {others[0], others[-1]}:
        actions = dict(std.actions)
        actions[s] = _swap_rows(actions[s])
        with pytest.raises(ValueError, match="do not compose"):
            GForm(G, std.gram, actions)
    # an altered matrix of a generator; still a permutation, so still invariant
    for g in gens:
        actions = dict(std.actions)
        actions[g] = _swap_rows(actions[g])
        with pytest.raises(ValueError, match="do not compose"):
            GForm(G, std.gram, actions)
    # M_e != I where every invariance and composition holds: the idempotent
    # P = diag(1, 0, ..., 0) for every element, on the Gram P
    n = G.order
    P = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="identity"):
        GForm(G, P, {s: P for s in G.elements()})
    # a Gram that depends on the last exponent: a valid action, invariant
    # under every generator but the last
    gram = [[(1 + s.exponents[-1]) * int(i == j) for j in range(n)]
            for i, s in enumerate(G.elements())]
    with pytest.raises(ValueError, match=re.escape(f"not invariant under {gens[-1]}")):
        GForm(G, gram, std.actions)


def test_gform_positive_definiteness_on_controls():
    from fractions import Fraction

    trivial = FiniteAbelianGroup(())
    identity = {trivial.identity(): linalg.identity_matrix(2)}
    # [[0, 1], [1, 0]] needs a row swap, after which every pivot is positive
    for gram in ([[0, 1], [1, 0]], [[1, 2], [2, 1]], [[1, 0], [0, 0]]):
        assert linalg._definite_minors(GForm(trivial, gram, identity).gram) is None
    third = GForm(trivial, [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
                  identity)
    assert linalg._definite_minors(third.gram) is not None
    assert third.pair((1, 0), (1, 1)) == 1 and third.determinant() == Fraction(1, 3)
