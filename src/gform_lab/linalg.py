"""Exact dense linear algebra over Z and Q.

Matrices are lists of row lists; entries are python ints or Fractions.
Everything is small (rank <= ~100) and exact. Two cores do all the
elimination, both on integer rows:

- `_hnf_in_place`, the integer row Hermite normal form by unimodular row
  operations (Cohen, GTM 138, section 2.4). `hnf` and `hnf_with_transform`
  are thin entry points over it.
- `_eliminate`, forward fraction-free Gaussian elimination (Bareiss 1968;
  Cohen, GTM 138, section 2.2) on rows whose denominators were cleared
  first, so every division is exact. It clears below the pivots only, and
  only right of each pivot column. `det` reads its pivots; `inverse` and
  `solve` finish with an exact integer back-substitution, Y = D * A^-1 B
  for the last pivot D. An entry outside Q, such as a CyclotomicNumber, is
  a TypeError.

Lattices are integer rows over one positive denominator. `inverse` returns
its result that way, as (rows, den) with gcd(den, *rows) = 1, and builds no
Fraction. `preimage_lattice(rows, den)` is the one lattice constructor: every
lattice the package builds is {x : (rows/den) @ x integral} for an integer
matrix and a den its caller knows, returned as (rows, den) in canonical form.
It takes an HNF, inverts that triangular matrix by back-substitution alone,
and takes an HNF again.

`quadratic_solutions` enumerates the vectors of a given length by
Fincke-Pohst on the same elimination: the Bareiss rows U of the Gram scaled
to integers carry its leading principal minors D_i on their diagonal, and
level i of the walk has the weight 1 / (D_{i-1} D_i). Positive-definiteness
is Sylvester's criterion on those minors. The set-up and the walk run on
integers, so no Fraction is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# integer normal forms


def _hnf_in_place(mat: list[list[int]], ncols: int) -> int:
    """Bring the first ncols columns of the integer rows of mat to canonical
    row HNF in place, carrying any trailing columns along; returns the rank.

    Pivots are positive and entries above a pivot are reduced into [0, pivot)
    as soon as it is found, which tames entry growth. The pivot rows come
    first, the rows below them are zero in the first ncols columns.
    """
    m = len(mat)
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        rp = mat[r]
        # rows from r on are zero left of col, so only the tail changes
        for i in range(r + 1, m):
            ri = mat[i]
            b = ri[col]
            if b == 0:
                continue
            a = rp[col]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            for j in range(col, len(rp)):
                rj, sj = rp[j], ri[j]
                rp[j] = x * rj + y * sj
                ri[j] = -v * rj + u * sj
        if rp[col] < 0:
            mat[r] = rp = [-x for x in rp]
        p = rp[col]
        for i in range(r):
            q = mat[i][col] // p
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], rp)]
        r += 1
    return r


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped. The output depends only on the row span.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    return mat[: _hnf_in_place(mat, len(mat[0]))]


def hnf_with_transform(rows: list[list[int]]):
    """(H, U, r) with U unimodular, U @ rows stacking the canonical HNF H (r
    rows) over zero rows."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    mat = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    r = _hnf_in_place(mat, ncols)
    return [row[:ncols] for row in mat[:r]], [row[ncols:] for row in mat], r


def preimage_lattice(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Basis of {x in Q^n : (rows/den) @ x in Z^m} for an integer matrix of
    full column rank and a positive den, returned in canonical form as
    (basis, d): the lattice is (1/d) * rowspan(basis), basis in HNF and
    gcd(d, *basis) = 1.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    n = len(rows[0])
    # rows and their HNF H span the same lattice, so the preimage is
    # {x : H @ x in den * Z^n}, spanned by the columns of den * H^-1
    H = hnf(rows)
    if len(H) != n:
        raise ValueError("matrix does not have full column rank")
    # H is upper triangular with a positive diagonal: back-substitution
    # alone gives D * H^-1 for D = det H, the product of the diagonal
    D = 1
    for i in range(n):
        D *= H[i][i]
    cols, _ = _back_substitute([row + [int(i == j) for j in range(n)] for i, row in enumerate(H)],
                               n, D)
    g = gcd(D, *(c for col in cols for c in col))
    hden = D // g
    basis = hnf([[den * (c // g) for c in col] for col in cols])
    g = gcd(hden, *(c for row in basis for c in row))
    return [[c // g for c in row] for row in basis], hden // g


# ---------------------------------------------------------------------------
# fraction-free elimination over Q


def _eliminate(mat, ncols: int):
    """Forward fraction-free (Bareiss) elimination on the first ncols columns
    of the rational rows of mat, carrying any trailing columns along; returns
    (integer rows, pivot columns, d, row swaps).

    All-int rows are taken as they are; a row holding a Fraction is first
    scaled by the lcm of its denominators (an entry outside Q is a
    TypeError), and d is the product of those multipliers. The pivot is the
    first nonzero entry at or below the current row. With pivot p in column c
    after pivot q, each row x below it becomes (p*x - x[c]*pivot row)/q right
    of c, and 0 at c. Entries stay minors of the scaled, swapped rows, so the
    division is exact (Sylvester's identity): with no swap, row i's pivot is
    the leading principal minor D_i, and det = (-1)^swaps * last pivot / d.
    """
    a = []
    d = 1
    for row in mat:
        if not all(isinstance(x, int) for x in row):
            for x in row:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"linalg eliminates over Q only, got a {type(x).__name__} entry")
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
            d *= den
        a.append(list(row))
    m = len(a)
    pivots = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        p = a[r][c]
        tail = a[r][c + 1:]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
                row[c] = 0
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        pivots.append(c)
        prev = p
        r += 1
    return a, pivots, d, swaps


def _back_substitute(a, n: int, D: int | None = None) -> tuple[list[list[int]], int]:
    """(Y, D) for rows a of [A | B] with A upper triangular and nonsingular,
    as `_eliminate` leaves them with pivots in columns 0..n-1: Y, one list
    per column of B, is D * A^-1 B, which is integral (Cramer) for D the
    determinant of A. D defaults to the last pivot, which is that
    determinant for the Bareiss rows. Row k gives a[k][k] * Y_k exactly,
    from the bottom up."""
    if D is None:
        D = a[n - 1][n - 1]
    cols = []
    for c in range(n, len(a[0])):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = a[k]
            y[k] = (D * row[c] - sum(map(mul, row[k + 1:n], y[k + 1:]))) // row[k]
        cols.append(y)
    return cols, D


def det(mat) -> Fraction:
    n = len(mat)
    a, pivots, d, swaps = _eliminate(mat, n)
    if len(pivots) < n:
        return Fraction(0)
    last = a[n - 1][n - 1] if n else 1
    return Fraction(-last if swaps % 2 else last, d)


def inverse(mat) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular square matrix over Q as (rows, den):
    integer rows over one positive den with gcd(den, *rows) = 1, read off
    D * mat^-1 from the back-substitution of [mat | I] (the row scalings
    cancel)."""
    n = len(mat)
    if not n:
        return [], 1
    a, pivots, _, _ = _eliminate([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    cols, D = _back_substitute(a, n)
    g = gcd(D, *(x for col in cols for x in col))
    if D < 0:
        g = -g
    return [[x // g for x in row] for row in zip(*cols)], D // g


def _solve(mat, rhs) -> tuple[list[int], int]:
    """`solve` on integers: (numerators, den) with den > 0 and
    x = numerators / den, not reduced."""
    n = len(mat[0])
    a, pivots, _, _ = _eliminate([list(row) + [b] for row, b in zip(mat, rhs, strict=True)], n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    if any(row[n] for row in a[n:]):
        raise ValueError("inconsistent overdetermined system")
    (y,), D = _back_substitute(a, n)
    return ([-x for x in y], -D) if D < 0 else (y, D)


def solve(mat, rhs) -> list[Fraction]:
    """The x with mat @ x = rhs, where mat (m x n, m >= n) has full column
    rank; raises ValueError if the rank is short or the system inconsistent.
    Entries are ints or Fractions."""
    y, den = _solve(mat, rhs)
    return [Fraction(x, den) for x in y]


# ---------------------------------------------------------------------------
# quadratic form enumeration


def _definite_minors(gram):
    """(U, L) for a symmetric rational gram: L is the lcm of its
    denominators and U the Bareiss rows of the integer L * gram, whose pivot
    U[i][i] is the leading principal minor D_i. None unless the form is
    positive definite, which by Sylvester's criterion is every D_i > 0; a row
    swap means some D_i = 0."""
    n = len(gram)
    L = lcm(*(x.denominator for row in gram for x in row))
    rows = [[x.numerator * (L // x.denominator) for x in row] for row in gram]
    u, pivots, _, swaps = _eliminate(rows, n)
    if swaps or len(pivots) < n or any(u[i][i] <= 0 for i in range(n)):
        return None
    return u, L


def quadratic_solutions(gram, target) -> list[tuple[int, ...]]:
    """All nonzero integer vectors v with v^T gram v == target, up to sign.

    Representatives are normalized so the first nonzero coordinate is
    positive, and returned sorted descending-lexicographically. Exact
    Fincke-Pohst enumeration on the integer Bareiss rows U of L * gram.

    With leading principal minors D_i = U[i][i] and D_{-1} = 1,
    L * gram = U^T diag(1 / (D_{i-1} D_i)) U, so level i contributes
    x_i^2 / (D_{i-1} D_i) with the integer x_i = sum_{j>=i} U[i][j] v_j.
    Scaling those weights and L * target by the lcm M of their denominators
    makes them integers w_i and t, and w_i x_i^2 <= rem holds exactly when
    |x_i| <= isqrt(rem // w_i).
    """
    n = len(gram)
    if (minors := _definite_minors(gram)) is None:
        raise ValueError("form is not positive definite")
    u, L = minors
    dens = [(u[i - 1][i - 1] if i else 1) * u[i][i] for i in range(n)]
    tnum, tden = target.numerator, target.denominator
    scale = lcm(tden, *dens)
    weights = [scale // den for den in dens]
    t = L * tnum * (scale // tden)
    if t < 0:
        return []
    sols = []
    v = [0] * n

    def recurse(i: int, rem: int):
        if i < 0:
            if rem == 0 and any(v):
                sols.append(tuple(v))
            return
        row, w = u[i], weights[i]
        p = row[i]
        c = sum(map(mul, row[i + 1:], v[i + 1:]))
        # p * v_i + c must lie in [-s, s]
        s = isqrt(rem // w)
        for vi in range(-((s + c) // p), (s - c) // p + 1):
            x = p * vi + c
            v[i] = vi
            recurse(i - 1, rem - w * x * x)
        v[i] = 0

    recurse(n - 1, t)
    canon = set()
    for s in sols:
        lead = next(x for x in s if x)
        canon.add(s if lead > 0 else tuple(-x for x in s))
    return sorted(canon, key=lambda s: tuple(-x for x in s))
