import itertools
import random
import sys
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form

from gform_lab import linalg
from gform_lab.cyclotomic import CyclotomicNumber


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 9), (4, 0), (1, 1), (-6, -10)]:
        g, x, y = linalg.xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        assert a % g == 0 and b % g == 0 if g else (a == b == 0)


def test_hnf_canonical_under_row_ops():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if linalg.det(rows) == 0:
            continue
        h1 = linalg.hnf(rows)
        # shuffle plus unimodular row mixes must not change the HNF
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        mixed[0] = [a + 3 * b for a, b in zip(mixed[0], mixed[1])]
        mixed[1] = [-a for a in mixed[1]]
        h2 = linalg.hnf(mixed)
        assert h1 == h2


def test_hnf_known():
    assert linalg.hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    assert linalg.hnf([[0, 0], [0, 0]]) == []


def test_hnf_with_transform():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        H, U, r = linalg.hnf_with_transform(A)
        assert abs(linalg.det(U)) == 1
        prod = linalg.mat_mul(U, A)
        assert prod[:r] == H
        assert all(not any(row) for row in prod[r:])
        assert H == linalg.hnf(A)


def test_preimage_lattice_simple():
    # {x in Q^2 : x/2 in Z^2} = 2Z^2
    rows, den = linalg.preimage_lattice([[1, 0], [0, 1]], 2)
    assert den == 1
    assert rows == [[2, 0], [0, 2]]
    # {x : 2x in Z^2} = (1/2) Z^2
    assert linalg.preimage_lattice([[2, 0], [0, 2]], 1) == ([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError):
        linalg.preimage_lattice([[1, 0], [0, 1]], 0)


def test_preimage_lattice_membership():
    # both directions on a box: with delta = |det| of the top minor, the
    # preimage lies in (1/delta) Z^n, so x = y/delta for integer y, and x is
    # in the preimage exactly when M @ y = 0 mod (den * delta)
    rng = random.Random(3)
    box = range(-7, 8)
    for _ in range(15):
        n = 3
        M = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n + 1)]
        den = rng.randrange(1, 7)
        delta = abs(linalg.det(M[:n]))
        if delta == 0:
            continue
        rows, d = linalg.preimage_lattice(M, den)
        assert d > 0 and linalg.hnf(rows) == rows
        for row in rows:
            assert all(v % (den * d) == 0 for v in linalg.mat_vec(M, row))
        for y in itertools.product(box, repeat=n):
            in_preimage = all(v % (den * delta) == 0 for v in linalg.mat_vec(M, y))
            # y/delta = v/d with v integral, and v in the row span
            in_lattice = all(c * d % delta == 0 for c in y) and (
                linalg.hnf(rows + [[c * d // delta for c in y]]) == rows)
            assert in_preimage == in_lattice, (M, den, y)


def test_triangular_back_substitution_inverts_an_hnf():
    # preimage_lattice inverts its HNF by back-substitution alone, scaled by
    # the product of the diagonal; that must be det * H^-1 as sympy has it,
    # and, reduced, what the Bareiss inverse returns
    rng = random.Random(11)
    done = 0
    while done < 40:
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n + rng.randrange(2))]
        H = linalg.hnf(rows)
        if len(H) < n:
            continue
        D = prod(H[i][i] for i in range(n))
        cols, d = linalg._back_substitute([row + [int(i == j) for j in range(n)]
                                           for i, row in enumerate(H)], n, D)
        assert d == D == sympy.Matrix(H).det()
        assert sympy.Matrix(cols).T == D * sympy.Matrix(H).inv()
        g = gcd(D, *(c for col in cols for c in col))
        assert linalg.inverse(H) == ([[c // g for c in row] for row in zip(*cols)], D // g)
        done += 1


def test_det_and_inverse():
    M = [[2, 1], [1, 1]]
    assert linalg.det(M) == 1
    assert linalg.inverse(M) == ([[1, -1], [-1, 2]], 1)
    # a row swap, and a negative last pivot (det -3), still give a positive
    # denominator
    assert linalg.inverse([[0, 2], [3, 0]]) == ([[0, 2], [3, 0]], 6)
    assert linalg.inverse([[2, 1], [1, -1]]) == ([[1, 1], [1, -2]], 3)
    M = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    rows, den = linalg.inverse(M)
    assert den > 0 and gcd(den, *(c for row in rows for c in row)) == 1
    assert linalg.mat_mul(M, rows) == [[den * int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(ZeroDivisionError):
        linalg.inverse([[1, 2], [2, 4]])


def test_solve_overdetermined():
    M = [[1, 0], [0, 1], [1, 1]]
    x = linalg.solve(M, [2, 3, 5])
    assert x == [2, 3]
    with pytest.raises(ValueError):
        linalg.solve(M, [2, 3, 6])


def test_kernel_mod_prime():
    # {v : A @ v = 0 mod p} is the preimage lattice of [p*I ; A] over p
    A = [[1, 1, 0], [0, 0, 1]]
    lattice, den = linalg.preimage_lattice(
        [[5 * int(i == j) for j in range(3)] for i in range(3)] + A, 5)
    assert den == 1
    assert lattice == [[1, 4, 0], [0, 5, 0], [0, 0, 5]]
    for v in itertools.product(range(5), repeat=3):
        in_kernel = all(sum(a * b for a, b in zip(row, v)) % 5 == 0 for row in A)
        assert in_kernel == (linalg.hnf(lattice + [list(v)]) == lattice)


def test_quadratic_solutions_identity_form():
    gram = linalg.identity_matrix(4)
    sols = linalg.quadratic_solutions(gram, 1)
    assert sorted(sols) == sorted(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    sols2 = linalg.quadratic_solutions(gram, 2)
    assert len(sols2) == 12  # e_i ± e_j up to sign


def test_quadratic_solutions_nontrivial():
    gram = [[2, 1], [1, 2]]  # x^2+xy+y^2 scaled: v Q v^T = 2x^2+2xy+2y^2
    sols = linalg.quadratic_solutions(gram, 2)
    assert (1, 0) in sols and (0, 1) in sols and (1, -1) in sols
    assert len(sols) == 3
    # no nonzero vector has length 0, and none has negative length
    assert linalg.quadratic_solutions(gram, 0) == []
    assert linalg.quadratic_solutions(gram, -1) == []


# -- differential checks of the two elimination cores against sympy ---------


def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _rand_matrix(rng, m, n, rank_deficient=False):
    mat = [[_rand_fraction(rng) for _ in range(n)] for _ in range(m)]
    if rank_deficient and m > 1:
        # the last row is a combination of the others
        k = _rand_fraction(rng)
        mat[-1] = [k * x + y for x, y in zip(mat[0], mat[m - 2])]
    return mat


def _sympy_matrix(mat):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat])


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def test_hnf_matches_sympy():
    # sympy's hermite_normal_form is the column HNF with pivots at the bottom
    # right; reversing the columns and transposing turns it into ours
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        if not any(any(r) for r in rows):
            assert linalg.hnf(rows) == []
            continue
        H = hermite_normal_form(sympy.Matrix([r[::-1] for r in rows]).T).T
        expected = [[int(x) for x in H.row(i)][::-1] for i in range(H.rows)][::-1]
        assert linalg.hnf(rows) == [r for r in expected if any(r)]


F = Fraction

# zero pivots that force one or two row swaps (which fix the sign of det),
# large coprime denominators and rank deficiency
EDGE_SQUARE = [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[1, 2, 3], [2, 4, 7], [1, 3, 2]],
    [[0, 2, 1, 4], [0, 0, 3, 1], [5, 1, 0, 0], [0, 0, 0, 7]],
    [[F(1, 7), F(2, 9)], [F(3, 11), F(5, 13)]],
    [[0, F(1, 97), F(2, 3)], [F(5, 89), 0, F(1, 2)], [0, F(3, 83), F(7, 5)]],
    [[1, 2, 3], [2, 4, 6], [0, 0, 0]],
    [[0, 0], [0, 3]],
    [[F(1, 2), F(1, 3)], [F(3, 2), 1]],
]

# (mat, rhs): tall, square and rank-deficient systems with zero pivots
EDGE_SYSTEMS = [
    ([[0, 1], [0, 2], [3, 0]], [5, 10, 6]),
    ([[0, 1], [0, 2], [3, 0]], [5, 11, 6]),
    ([[0, 0, 2], [0, 5, 1], [F(1, 3), 0, 0], [1, 1, 1]], [4, 7, 1, F(13, 2)]),
    ([[F(1, 6), F(1, 10)], [F(1, 15), F(1, 21)]], [1, F(1, 35)]),
    ([[0, 1], [0, 3]], [1, 3]),
    ([[1, 2], [2, 4], [3, 6]], [1, 2, 3]),
    ([[F(2, 7)]], [F(3, 11)]),
]

def _check_det_and_inverse(M):
    n = len(M)
    S = _sympy_matrix(M)
    d = linalg.det(M)
    assert isinstance(d, Fraction)
    assert d == _from_sympy(S.det())
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(M)
    else:
        rows, den = linalg.inverse(M)
        assert den > 0
        assert gcd(den, *(c for row in rows for c in row)) == 1
        assert [[Fraction(c, den) for c in row] for row in rows] == [
            [_from_sympy(x) for x in S.inv().row(i)] for i in range(n)
        ]


def test_det_and_inverse_match_sympy():
    rng = random.Random(12)
    for trial in range(120):
        n = rng.randint(1, 5)
        _check_det_and_inverse(_rand_matrix(rng, n, n, rank_deficient=trial % 3 == 0))
    for M in EDGE_SQUARE:
        _check_det_and_inverse(M)


def _check_solve(M, rhs, kinds):
    n = len(M[0])
    S = _sympy_matrix(M)
    if S.rank() < n:
        kinds["rank"] += 1
        with pytest.raises(ValueError):
            linalg.solve(M, rhs)
    elif S.row_join(_sympy_matrix([[b] for b in rhs])).rank() > n:
        kinds["inconsistent"] += 1
        with pytest.raises(ValueError):
            linalg.solve(M, rhs)
    else:
        kinds["unique"] += 1
        x = linalg.solve(M, rhs)
        assert linalg.mat_vec(M, x) == rhs
        sol, _params = S.gauss_jordan_solve(_sympy_matrix([[b] for b in rhs]))
        assert x == [_from_sympy(v) for v in sol]
        # the integer form behind solve: numerators over a positive den
        num, den = linalg._solve(M, rhs)
        assert all(isinstance(c, int) for c in num) and isinstance(den, int) and den > 0
        assert [Fraction(c, den) for c in num] == x


def test_solve_matches_sympy():
    rng = random.Random(13)
    kinds = {"unique": 0, "rank": 0, "inconsistent": 0}
    for trial in range(150):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 3)
        M = _rand_matrix(rng, m, n, rank_deficient=trial % 3 == 0)
        if trial % 2:
            rhs = linalg.mat_vec(M, [_rand_fraction(rng) for _ in range(n)])
        else:
            rhs = [_rand_fraction(rng) for _ in range(m)]
        _check_solve(M, rhs, kinds)
    assert all(kinds.values()), kinds
    edge = dict.fromkeys(kinds, 0)
    for M, rhs in EDGE_SYSTEMS:
        _check_solve(M, rhs, edge)
    assert all(edge.values()), edge


def test_det_and_solve_on_int_mixed_and_bool_entries_match_sympy():
    # all-int rows enter the elimination as they are, rows holding a Fraction
    # get their denominators cleared, and bools count as the ints 0 and 1.
    # Up to 7 unknowns, so the back-substitution runs through several levels;
    # every shape meets unique, rank-deficient and inconsistent systems
    rng = random.Random(15)
    kinds = [{"unique": 0, "rank": 0, "inconsistent": 0} for _ in range(3)]
    for trial in range(240):
        n = rng.randint(1, 7)
        m = n + rng.randint(0, 2)
        shape = trial % 3
        if shape == 0:
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        elif shape == 1:
            M = [[_rand_fraction(rng) if rng.random() < 0.3 else rng.randint(-9, 9)
                  for _ in range(n)] for _ in range(m)]
        else:
            M = [[rng.random() < 0.5 for _ in range(n)] for _ in range(m)]
        if trial % 4 == 0 and m > 1:
            M[-1] = list(M[0])
        _check_det_and_inverse(M[:n])
        if trial % 2 and shape < 2:
            rhs = linalg.mat_vec(M, [rng.randint(-3, 3) for _ in range(n)])
        else:
            rhs = [rng.randint(-3, 3) if shape < 2 else rng.random() < 0.5 for _ in range(m)]
        _check_solve(M, rhs, kinds[shape])
    assert all(all(k.values()) for k in kinds), kinds


def test_elimination_rejects_entries_outside_q():
    # a cyclotomic entry is refused with one line, never eliminated as if it
    # were a field element
    z = CyclotomicNumber.zeta(7)
    for call in (lambda: linalg.det([[1, z], [0, 1]]),
                 lambda: linalg.solve([[z, 0], [0, 1]], [1, 1]),
                 lambda: linalg.solve([[1, 0], [0, 1]], [z, 1]),
                 # all-int rows skip denominator clearing, but not the type check
                 lambda: linalg.det([[1, 2, 3], [4, z, 6], [7, 8, 10]]),
                 lambda: linalg.inverse([[2, 0], [0, z]]),
                 lambda: linalg.solve([[1, 0], [0, 1], [1, 1]], [1, 2, z])):
        with pytest.raises(TypeError) as exc:
            call()
        assert "\n" not in str(exc.value)
        assert "CyclotomicNumber" in str(exc.value)


@st.composite
def small_definite_forms(draw):
    """B^T B + diag(d) for small integer B and d >= 0, kept when positive
    definite."""
    n = draw(st.integers(2, 4))
    B = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    d = [draw(st.integers(0, 2)) for _ in range(n)]
    gram = [[sum(row[i] * row[j] for row in B) + (d[i] if i == j else 0) for j in range(n)]
            for i in range(n)]
    assume(linalg._definite_minors(gram) is not None)
    return gram


@settings(max_examples=150, deadline=None)
@given(gram=small_definite_forms(), target=st.integers(1, 9), k=st.integers(1, 3))
def test_quadratic_solutions_match_box_enumeration(gram, target, k):
    # on v^T gram v <= t, |v_i| <= sqrt(t * (gram^-1)_ii) (Cauchy-Schwarz for
    # the form), so that box holds every solution; sympy gives gram^-1.
    # Dividing the form and the target by k keeps the solutions and puts a
    # denominator into the enumeration's weights.
    n = len(gram)
    inv = sympy.Matrix(gram).inv()
    bounds = [isqrt(int(sympy.floor(target * inv[i, i]))) for i in range(n)]
    assume(prod(2 * b + 1 for b in bounds) <= 20000)
    expected = set()
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)) == target:
            lead = next(x for x in v if x)
            expected.add(v if lead > 0 else tuple(-x for x in v))
    scaled = [[Fraction(x, k) for x in row] for row in gram]
    assert set(linalg.quadratic_solutions(scaled, Fraction(target, k))) == expected


def _fraction_constructions(call) -> int:
    """How many Fractions `call()` builds: calls of Fraction.__new__ (and of
    the constructor behind it where the Python version has one)."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
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


def test_elimination_back_substitution_and_fincke_pohst_build_no_fraction():
    # the counter does see Fractions: solve returns them
    assert _fraction_constructions(lambda: linalg.solve([[2, 1], [1, 1]], [1, 0])) == 2
    M = [[2, 1, 0, 3], [1, 3, 1, 0], [0, 1, 4, 1], [5, 0, 1, 1]]
    Mq = [[F(1, 2), 1, 0, F(3, 7)], [1, 3, F(1, 5), 0], [0, 1, 4, 1], [5, 0, 1, 1]]
    tall = Mq + [[1, 1, 1, 1]]
    rhs = linalg.mat_vec(tall, [1, F(2, 3), 0, -1])
    gram = [[2, 1, 0], [1, 2, 1], [0, 1, 3]]
    gram_q = [[F(x, 3) for x in row] for row in gram]
    two_thirds = F(2, 3)
    calls = [
        lambda: linalg._eliminate(M, 4),
        lambda: linalg._eliminate(Mq, 4),
        lambda: linalg._back_substitute(linalg._eliminate(
            [row + [int(i == j) for j in range(4)] for i, row in enumerate(M)], 4)[0], 4),
        lambda: linalg.inverse(M),
        lambda: linalg.inverse(Mq),
        lambda: linalg._solve(tall, rhs),
        lambda: linalg._definite_minors(gram_q),
        lambda: linalg.quadratic_solutions(gram, 2),
        lambda: linalg.quadratic_solutions(gram_q, two_thirds),
    ]
    for call in calls:
        assert _fraction_constructions(call) == 0
    assert linalg.quadratic_solutions(gram_q, two_thirds) == linalg.quadratic_solutions(gram, 2) != []


# negative controls for positive-definiteness: each fails Sylvester's
# criterion, and the first and last need row swaps after which every pivot is
# positive, so a test that let the elimination swap rows would pass them
NOT_DEFINITE = [
    [[0, 1], [1, 0]],
    [[1, 2], [2, 1]],
    [[1, 0], [0, 0]],
    [[0, 0], [0, 0]],
    [[2, 1], [1, F(1, 2)]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
]


@pytest.mark.parametrize("gram", NOT_DEFINITE)
def test_positive_definiteness_rejects_swaps_and_nonpositive_minors(gram):
    assert linalg._definite_minors(gram) is None
    assert not sympy.Matrix(gram).is_positive_definite
    with pytest.raises(ValueError, match="not positive definite"):
        linalg.quadratic_solutions(gram, 1)


def test_positive_definiteness_is_scale_invariant_for_positive_scales():
    gram = [[2, 1, 0], [1, 2, 1], [0, 1, 3]]
    for k in (F(1, 7), F(5, 3), 4):
        scaled = [[x * k for x in row] for row in gram]
        assert linalg._definite_minors(scaled) is not None
        assert linalg._definite_minors([[-x for x in row] for row in scaled]) is None
        assert linalg.quadratic_solutions(scaled, 2 * k) == linalg.quadratic_solutions(gram, 2)


def test_positive_definiteness_matches_sympy():
    rng = random.Random(16)
    verdicts = set()
    for trial in range(300):
        n = rng.randint(1, 4)
        if trial % 2:
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            gram = [[sum(r[i] * r[j] for r in B) + (rng.randint(0, 1) if i == j else 0)
                     for j in range(n)] for i in range(n)]
        else:
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3) + (3 if i == j else 0)
        if trial % 5 == 0:
            gram = [[F(x, 3) for x in row] for row in gram]
        expected = bool(_sympy_matrix([[F(x) for x in row] for row in gram]).is_positive_definite)
        assert (linalg._definite_minors(gram) is not None) == expected, gram
        verdicts.add(expected)
    assert verdicts == {True, False}
