"""Exact linear algebra over the rationals.

A rational matrix is held as integer rows over one positive denominator
(`over_lcm` reads Fractions onto that form).  Every solve, rank, inverse and
null space runs one integer elimination (`_gauss`) whose reduced row echelon
form, being unique, fixes the answer; `solve_map` (an `snf.LatticeMap`,
an inverse when a is invertible) and `nullspace_over_lcm` return integer
rows over one denominator.  Only `qmat`, `qvec` (read by `constant_models`),
`qsolve` and `qmat_mul` build Fractions, and only the tests and perfbench's tracer
call the last two.  A X - X A + m X = R is solved in A's eigenbasis by integer
mat-vecs, with no elimination (`sylvester_solver`).  Also the characteristic
polynomial and integer roots of the spectral layer, and the p-adic valuation
shared by the series and connection modules.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .snf import LatticeMap, mat_vec, primitive

QMatrix = tuple[tuple[Fraction, ...], ...]
QVector = tuple[Fraction, ...]

INF = math.inf  # valuation of 0; compares correctly against Fractions


def qmat(rows: Sequence[Sequence]) -> QMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def qvec(entries: Sequence) -> QVector:
    return tuple(Fraction(x) for x in entries)


def over_lcm(a: Sequence[Sequence]) -> tuple[Sequence[Sequence[int]], int]:
    """(integer rows, d) with a = rows / d, d the lcm of a's denominators;
    integer rows come back as they are, over 1."""
    if set(map(type, chain.from_iterable(a))) <= {int}:
        return a, 1
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def qmat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    if not a or not b:
        return tuple(tuple() for _ in a)
    ia, da = over_lcm(a)
    ib, db = over_lcm(b)
    den = da * db
    cols = list(zip(*ib))
    return tuple(tuple(Fraction(sum(map(operator.mul, row, col)), den) for col in cols) for row in ia)


def _gauss(rows: Sequence[Sequence], ncols: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Gauss-Jordan elimination of rows whose first ncols entries are the
    matrix (pivots are sought there) and the rest right-hand sides.

    Each row is scaled to integers and kept primitive (divided by the gcd
    of its entries), so no Fraction is built.  Returns (rows, pivot columns): row i < len(pivots) is zero at
    every other pivot column, and divided by its entry at pivots[i] it is
    row i of the reduced row echelon form; the later rows are zero on the
    first ncols entries."""
    m = [primitive(row) for row in over_lcm(rows)[0]]
    nrows = len(m)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, nrows) if m[i][col]), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        prow = m[row]
        for i in range(nrows):
            if i != row and m[i][col]:
                g = math.gcd(prow[col], m[i][col])
                p, f = prow[col] // g, m[i][col] // g
                m[i] = primitive([p * x - f * y for x, y in zip(m[i], prow)])
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def qrank(a: Sequence[Sequence]) -> int:
    if not a:
        return 0
    return len(_gauss(a, len(a[0]))[1])


def qsolve(a: Sequence[Sequence], b: Sequence) -> Optional[QVector]:
    """A particular solution of a*x = b over Q, or None if inconsistent.

    Deterministic: free variables are set to zero.
    """
    ncols = len(a[0]) if a else 0
    m, pivots = _gauss([tuple(row) + (x,) for row, x in zip(a, b)], ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = Fraction(row[ncols], row[col])
    return tuple(x)


def solve_map(a: Sequence[Sequence]) -> LatticeMap:
    """The map b -> x for the systems a*x = b: one is solvable iff checks*b =
    0, and then rows*b / den is the solution qsolve(a, b) returns, den the
    lcm of the pivots (a's inverse when a is invertible).  One elimination
    of [a | I] serves every b: its rows are [R | E] with E*a = R, so E*b is
    the last column of the reduced row echelon form of [a | b]."""
    n, ncols = len(a), len(a[0]) if a else 0
    m, pivots = _gauss([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)], ncols)
    den = math.lcm(*(row[col] for row, col in zip(m, pivots)))
    s = [(0,) * n] * ncols
    for row, col in zip(m, pivots):
        s[col] = tuple([x * (den // row[col]) for x in row[ncols:]])
    return LatticeMap(tuple(s), den, tuple(row[ncols:] for row in m[len(pivots):]))


def nullspace_over_lcm(a: Sequence[Sequence], ncols: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(vectors, d): a basis of the null space of the ncols-column matrix a as
    integer vectors over one denominator d, one per non-pivot column j in
    order: e_j minus column j of the reduced row echelon form at the pivots."""
    m, pivots = _gauss(a, ncols)
    den = math.lcm(*(row[col] for row, col in zip(m, pivots)))
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = den
        for row, col in zip(m, pivots):
            v[col] = -row[j] * (den // row[col])
        basis.append(tuple(v))
    return tuple(basis), den


def vec_rows(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> list[list[int]]:
    """X -> left X right on row-major vec(X), as n^2 x n^2 integer rows."""
    ix = range(len(left))
    return [[left[i][k] * right[l][j] for k in ix for l in ix] for i in ix for j in ix]


def commutator_rows(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """X -> a X - X a, the same way."""
    ix = range(len(a))
    return [[a[i][k] * (l == j) - a[l][j] * (k == i) for k in ix for l in ix] for i in ix for j in ix]


def eigenbasis_sylvester(d: int, pmat: tuple, pinv: tuple, nil: Sequence[Sequence[int]], steps: int) -> tuple:
    """What every m shares in solving A X - X A + m X = R for A = b / d =
    P (D + N) P^-1, P = p / den and P^-1 = q / dinv given as (rows, den) and
    (rows, dinv), D = diag(y) / d and N = nil / (dinv d), ad(N)^steps = 0."""
    (p, den), (q, dinv) = pmat, pinv
    return vec_rows(q, p), commutator_rows(nil), vec_rows(p, q), d, dinv, steps, den * den * dinv ** (steps + 1)


def sylvester_solver(basis: tuple, divisors: Sequence[int]) -> Optional[tuple]:
    """The solver for one m from the divisors e_ab = y_a - y_b + m d, or None
    if one is 0 (the operator is singular).  In the eigenbasis E Y + ad(N) Y
    = P^-1 R P, E scaling Y_ab by e_ab / d and commuting with ad(N), so Y =
    sum_(k < steps) (-1)^k E^-(k+1) ad(N)^k P^-1 R P; over L =
    lcm(e_ab^steps), factor k scales Y_ab by d (-1)^k dinv^(steps-1-k) L / e_ab^(k+1)."""
    into, ad, back, d, dinv, steps, den = basis
    if 0 in divisors:
        return None
    lcm = math.lcm(*(e ** steps for e in divisors))
    factors = [[(-1) ** k * d * dinv ** (steps - 1 - k) * lcm // e ** (k + 1) for e in divisors] for k in range(steps)]
    return into, ad, back, factors, den * lcm


def sylvester_solve(solver: tuple, rhs: tuple) -> tuple[list[int], int]:
    """X with A X - X A + m X = x / dx, rhs = (x, dx), as integers over a
    denominator: W = q x p, Y = sum_k factor_k ad(nil)^k W entrywise and
    X = p Y q / (den^2 dinv^(steps+1) L dx), steps + 1 mat-vecs."""
    (into, ad, back, factors, den), (x, dx) = solver, rhs
    w = mat_vec(into, x)
    y = list(map(operator.mul, factors[0], w))
    for f in factors[1:]:
        w = mat_vec(ad, w)
        y = list(map(operator.add, y, map(operator.mul, f, w)))
    return mat_vec(back, y), den * dx


def int_charpoly(b: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients [c_0, ..., c_n] of det(x*I - b) for an integer matrix b
    (Faddeev-LeVerrier: M_k = b M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(b M_k)/k,
    every division exact since the c_k are integers)."""
    n = len(b)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        m = [[sum(map(operator.mul, row, col)) + c * (i == j) for j, col in enumerate(zip(*m))]
             for i, row in enumerate(b)]
        coeffs[n - k] = -sum(sum(map(operator.mul, row, col)) for row, col in zip(b, zip(*m))) // k
    return coeffs


def integer_roots(poly: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """All roots with multiplicity, ascending, of a monic integer polynomial
    [c_0, ..., c_n], or None if it does not split over Q.  Its rational roots
    are integers, and once the roots 0 are split off each divides c_0.  The
    candidates +-q, +-c_0/q are tried for q = 1, 2, ... by integer Horner
    evaluation, which also gives the quotient by (y - root).  Every root
    below q is then split off, so while the quotient has degree >= 2 and
    splits, q^2 <= |c_0| of the quotient; a linear quotient is its root."""
    zeros = next(k for k, c in enumerate(poly) if c)
    roots = {0: zeros} if zeros else {}
    poly = list(poly[zeros:])
    q = 0
    while len(poly) > 2:
        const = abs(poly[0])
        q = next((k for k in range(q + 1, math.isqrt(const) + 1) if const % k == 0), None)
        if q is None:
            break
        for y in (q, -q, const // q, -const // q):
            while len(poly) > 1:
                acc, quotient = 0, []
                for c in reversed(poly):
                    acc = acc * y + c
                    quotient.append(acc)
                if quotient.pop():
                    break
                poly = quotient[::-1]
                roots[y] = roots.get(y, 0) + 1
    if len(poly) == 2:
        roots[-poly[0]] = roots.get(-poly[0], 0) + 1
        poly = poly[1:]
    return sorted(roots.items()) if len(poly) == 1 else None


def padic_valuation(x: Fraction, p: int):
    """v_p(x) as an int, or INF for x = 0."""
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    d = x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v
