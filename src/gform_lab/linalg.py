"""Exact dense linear algebra over Z and Q.

Matrices are lists of row lists; entries are python ints or Fractions.
Everything is small (rank <= ~100) and exact. Two cores do all the
elimination, both on integer rows:

- `_hnf_in_place`, the integer row Hermite normal form by unimodular row
  operations (Cohen, GTM 138, section 2.4). `hnf` and `hnf_with_transform`
  are thin entry points over it.
- `_eliminate`, fraction-free Gaussian elimination (Bareiss 1968; Cohen,
  GTM 138, section 2.2) on rows whose denominators were cleared first, so
  every division is exact. `det` and `independent_rows` clear below the
  pivots only; `inverse` and `solve` clear above them too (Gauss-Jordan).
  An entry outside Q, such as a CyclotomicNumber, is a TypeError.

Lattices are integer rows over one positive denominator. `inverse` returns
its result that way, as (rows, den) with gcd(den, *rows) = 1, and builds no
Fraction. `preimage_lattice(rows, den)` is the one lattice constructor: every
lattice the package builds is {x : (rows/den) @ x integral} for an integer
matrix and a den its caller knows, returned as (rows, den) in canonical form.
It uses both cores: an HNF, its integer inverse, and an HNF again.

`quadratic_solutions` enumerates the vectors of a given length over an exact
LDL decomposition (Fincke-Pohst). The walk itself runs on integers: the
rows of R and the level weights are scaled to integers once, so every
coordinate window is exact and no Fraction is built per node.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


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
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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
    hinv, hden = inverse(H)
    basis = hnf([[den * c for c in col] for col in zip(*hinv)])
    g = gcd(hden, *(c for row in basis for c in row))
    return [[c // g for c in row] for row in basis], hden // g


# ---------------------------------------------------------------------------
# fraction-free elimination over Q


def _eliminate(mat, ncols: int, above: bool = True):
    """Fraction-free (Bareiss) elimination on the first ncols columns of the
    rational rows of mat, carrying any trailing columns along; returns
    (integer rows, pivot columns, d).

    All-int rows are taken as they are; a row holding a Fraction is first
    scaled by the lcm of its denominators (an entry outside Q is a
    TypeError). d is the product of those multipliers, negated once per row
    swap. The pivot is the first nonzero entry at or below the
    current row. With pivot p after pivot q, every other row x becomes
    (p*x - x[c]*pivot row)/q: below the pivot only, or above it too when
    `above` is set (Gauss-Jordan). Entries stay minors of the scaled rows, so
    the division is exact (Sylvester's identity), and every pivot entry ends
    equal to the last pivot: for a square nonsingular mat, det = last pivot/d.
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
            d = -d
        row = a[r]
        p = row[c]
        for i in range(0 if above else r + 1, m):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        pivots.append(c)
        prev = p
        r += 1
    return a, pivots, d


def independent_rows(mat) -> list[int]:
    """Indices of the greedy-first rows of mat that form a basis of its row
    span: the pivot columns of the transpose."""
    return _eliminate(transpose(mat), len(mat), above=False)[1]


def det(mat) -> Fraction:
    n = len(mat)
    a, pivots, d = _eliminate(mat, n, above=False)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(a[n - 1][n - 1] if n else 1, d)


def inverse(mat) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular square matrix over Q as (rows, den):
    integer rows over one positive den with gcd(den, *rows) = 1.

    Gauss-Jordan leaves every pivot equal to the last one, p, so the
    eliminated row i of [mat | I] is p*e_i | p*mat^-1 (the row scalings
    cancel): the inverse is read off the integer rows, divided by p.
    """
    n = len(mat)
    a, pivots, _ = _eliminate([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    p = a[-1][n - 1] if n else 1
    g = gcd(p, *(x for row in a for x in row[n:]))
    if p < 0:
        g = -g
    return [[x // g for x in row[n:]] for row in a], p // g


def solve(mat, rhs) -> list[Fraction]:
    """The x with mat @ x = rhs, where mat (m x n, m >= n) has full column
    rank; raises ValueError if the rank is short or the system inconsistent.
    Entries are ints or Fractions."""
    n = len(mat[0])
    a, pivots, _ = _eliminate([list(row) + [b] for row, b in zip(mat, rhs, strict=True)], n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    if any(row[n] for row in a[n:]):
        raise ValueError("inconsistent overdetermined system")
    return [Fraction(row[n], row[i]) for i, row in enumerate(a[:n])]


# ---------------------------------------------------------------------------
# quadratic form enumeration


def ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose a symmetric matrix as Q = R^T D R with R unit upper
    triangular; returns (diag of D, R). Raises if Q is not positive definite.
    """
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    r = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        acc = q[i][i] - sum(d[k] * r[k][i] * r[k][i] for k in range(i))
        if acc <= 0:
            raise ValueError("form is not positive definite")
        d[i] = acc
        for j in range(i + 1, n):
            acc = q[i][j] - sum(d[k] * r[k][i] * r[k][j] for k in range(i))
            r[i][j] = acc / d[i]
    return d, r


def quadratic_solutions(gram, target) -> list[tuple[int, ...]]:
    """All nonzero integer vectors v with v^T gram v == target, up to sign.

    Representatives are normalized so the first nonzero coordinate is
    positive, and returned sorted descending-lexicographically. Exact
    Fincke-Pohst enumeration over the LDL decomposition, on integers.

    With Q = R^T D R, v^T Q v = sum_i d_i (v_i + sum_{j>i} r_ij v_j)^2. Row i
    of R is written over one denominator D_i, as integers n_ij with
    n_ii = D_i, so level i contributes (d_i / D_i^2) x_i^2 with the integer
    x_i = sum_{j>=i} n_ij v_j. Scaling every weight d_i / D_i^2 and the target
    by the lcm L of their denominators makes them integers w_i and t, and
    w_i x_i^2 <= rem holds exactly when |x_i| <= isqrt(rem // w_i).
    """
    n = len(gram)
    d, r = ldl(gram)
    dens = [lcm(*(x.denominator for x in row)) for row in r]
    rows = [[x.numerator * (den // x.denominator) for x in row] for row, den in zip(r, dens)]
    weights = [di / (den * den) for di, den in zip(d, dens)]
    q = Fraction(target)
    scale = lcm(q.denominator, *(w.denominator for w in weights))
    weights = [w.numerator * (scale // w.denominator) for w in weights]
    t = q.numerator * (scale // q.denominator)
    if t < 0:
        return []
    sols = []
    v = [0] * n

    def recurse(i: int, rem: int):
        if i < 0:
            if rem == 0 and any(v):
                sols.append(tuple(v))
            return
        row, den, w = rows[i], dens[i], weights[i]
        c = sum(row[j] * v[j] for j in range(i + 1, n))
        # den * v_i + c must lie in [-s, s]
        s = isqrt(rem // w)
        for vi in range(-((s + c) // den), (s - c) // den + 1):
            x = den * vi + c
            v[i] = vi
            recurse(i - 1, rem - w * x * x)
        v[i] = 0

    recurse(n - 1, t)
    canon = set()
    for s in sols:
        lead = next(x for x in s if x)
        canon.add(s if lead > 0 else tuple(-x for x in s))
    return sorted(canon, key=lambda s: tuple(-x for x in s))
