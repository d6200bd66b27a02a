import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form

from gform_lab import linalg


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


def test_integer_kernel():
    rng = random.Random(12)
    A = [[1, 2, 3], [2, 4, 6]]
    K = linalg.integer_kernel(A)
    assert len(K) == 2
    for v in K:
        assert linalg.mat_vec(A, v) == [0, 0]
    # kernel contains (3, 0, -1) and (2, -1, 0) combinations
    for _ in range(15):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        K = linalg.integer_kernel(A)
        for v in K:
            assert all(x == 0 for x in linalg.mat_vec(A, v))


def test_preimage_lattice_simple():
    # {x in Q^2 : x/2 in Z^2} = 2Z^2
    M = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    rows, den = linalg.preimage_lattice(M)
    assert den == 1
    assert rows == [[2, 0], [0, 2]]


def test_preimage_lattice_membership():
    rng = random.Random(3)
    for _ in range(15):
        n = 3
        M = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)] for _ in range(n + 1)]
        if linalg.det([row[:n] for row in M[:n]]) == 0:
            continue
        rows, den = linalg.preimage_lattice(M)
        for row in rows:
            img = linalg.mat_vec(M, [Fraction(c, den) for c in row])
            assert all(v.denominator == 1 for v in img)


def test_det_and_inverse():
    M = [[2, 1], [1, 1]]
    assert linalg.det(M) == 1
    inv = linalg.inverse(M)
    assert linalg.mat_eq(linalg.mat_mul(M, inv), linalg.identity_matrix(2))
    with pytest.raises(ZeroDivisionError):
        linalg.inverse([[1, 2], [2, 4]])


def test_solve_overdetermined():
    M = [[1, 0], [0, 1], [1, 1]]
    x = linalg.solve(M, [2, 3, 5])
    assert x == [2, 3]
    with pytest.raises(ValueError):
        linalg.solve(M, [2, 3, 6])


def test_kernel_mod_prime():
    # {v : A @ v = 0 mod p} is the projection of the integer kernel of [A | p*I]
    A = [[1, 1, 0], [0, 0, 1]]
    kernel = linalg.integer_kernel([row + [5 * int(i == j) for j in range(2)]
                                    for i, row in enumerate(A)])
    lattice = linalg.hnf([row[:3] for row in kernel])
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


def test_det_and_inverse_match_sympy():
    rng = random.Random(12)
    for trial in range(120):
        n = rng.randint(1, 5)
        M = _rand_matrix(rng, n, n, rank_deficient=trial % 3 == 0)
        S = _sympy_matrix(M)
        d = linalg.det(M)
        assert d == _from_sympy(S.det())
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(M)
        else:
            inv = linalg.inverse(M)
            assert inv == [[_from_sympy(x) for x in S.inv().row(i)] for i in range(n)]


def test_solve_matches_sympy():
    rng = random.Random(13)
    kinds = {"unique": 0, "rank": 0, "inconsistent": 0}
    for trial in range(150):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 3)
        M = _rand_matrix(rng, m, n, rank_deficient=trial % 3 == 0)
        S = _sympy_matrix(M)
        if trial % 2:
            rhs = linalg.mat_vec(M, [_rand_fraction(rng) for _ in range(n)])
        else:
            rhs = [_rand_fraction(rng) for _ in range(m)]
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
    assert all(kinds.values()), kinds


def test_independent_rows_are_the_greedy_first_basis():
    rng = random.Random(14)
    for trial in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 4)
        M = _rand_matrix(rng, m, n, rank_deficient=trial % 2 == 0)
        if trial % 5 == 0:
            M[0] = [Fraction(0)] * n
        expected, rank = [], 0
        for i in range(m):
            if _sympy_matrix([M[j] for j in expected + [i]]).rank() > rank:
                expected.append(i)
                rank += 1
        assert linalg.independent_rows(M) == expected
        if len(expected) == n:
            assert linalg.det([M[i] for i in expected]) != 0
