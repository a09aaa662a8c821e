"""Exact integer matrix normal forms and lattice computations.

Matrices are tuples of tuples of Python ints (rows).  All transforms are
unimodular, so every result is exact.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import NamedTuple, Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in a])


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u*a*v = d diagonal, d_1 | d_2 | ..., u, v unimodular.

    Step t moves the first entry of least nonzero |value| (in row order) of
    the block past t to (t, t) and makes it positive, then subtracts floor
    multiples of row t from the rows below and of column t from the columns
    to its right.  While a remainder is left the step repeats; then, if the
    pivot does not divide some entry of the block, that entry's row is added
    to row t and the step repeats, else t advances.  Rows are lists changed
    in place or rebuilt whole."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[0] * i + [1] + [0] * (rows - i - 1) for i in range(rows)]
    v = [[0] * i + [1] + [0] * (cols - i - 1) for i in range(cols)]
    t = 0
    while t < rows and t < cols:
        best = 0
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if not best or x < best:
                        best, pi, pj = x, i, j
                        if x == 1:
                            break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in m:
                r[t], r[pj] = r[pj], r[t]
            for r in v:
                r[t], r[pj] = r[pj], r[t]
        prow = m[t]
        if prow[t] < 0:
            m[t] = prow = [-x for x in prow]
            u[t] = [-x for x in u[t]]
        urow = u[t]
        p = prow[t]
        dirty = False
        for i in range(t + 1, rows):
            x = m[i][t]
            if x:
                q = x // p
                if q:
                    m[i] = row = [x - q * y for x, y in zip(m[i], prow)]
                    u[i] = [x - q * y for x, y in zip(u[i], urow)]
                    if row[t]:
                        dirty = True
                else:
                    dirty = True
        for j in range(t + 1, cols):
            x = prow[j]
            if x:
                q = x // p
                if q:
                    for r in m:
                        r[j] -= q * r[t]
                    for r in v:
                        r[j] -= q * r[t]
                if prow[j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: m[t][t] must divide the rest of the block
        if p != 1:
            for i in range(t + 1, rows):
                if any(x % p for x in m[i][t + 1:]):
                    m[t] = [x + y for x, y in zip(prow, m[i])]
                    u[t] = [x + y for x, y in zip(urow, u[i])]
                    break
            else:
                t += 1
        else:
            t += 1
    return (
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


def cokernel_is_torsion_free(cols: Sequence[Sequence[int]]) -> bool:
    """Whether Z^n / <cols> is torsion-free: one integer elimination of the
    matrix with these columns, keeping no transforms.  The pivot is the first
    entry of least |value|; floor multiples of its row clear its column, and
    of its column (a non-unit pivot's only) its row, until no remainder is left."""
    m = [list(row) for row in zip(*cols)]
    while m:
        nonzero = [(abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not nonzero:
            return True
        best, pi, pj = min(nonzero)
        prow, p = m[pi], m[pi][pj]
        for i, row in enumerate(m):
            if row[pj] and i != pi:
                m[i] = [a - row[pj] // p * b for a, b in zip(row, prow)]
        if best == 1:
            m = [row[:pj] + row[pj + 1:] for i, row in enumerate(m) if i != pi]
            continue
        for j, x in enumerate(prow):
            if x and j != pj:
                for row in m:
                    row[j] -= x // p * row[pj]
        if sum(map(bool, prow)) == 1 and sum(bool(row[pj]) for row in m) == 1:
            # row and column are cleared: up to order the matrix is diag(p, R), so Z/|p| splits off
            return False
    return True


class _LatticeMapFields(NamedTuple):
    rows: IntMatrix
    den: int
    checks: IntMatrix


class LatticeMap(_LatticeMapFields):
    """The exact integer map b -> rows b / den on {b : checks b = 0}: a
    solution map (`SmithForm.solution_map`, `qlin.solve_map`), an embedded
    monoid's ambient coordinates (`monoid_core.from_embedded`) or an
    embedding phi (`log_connection.Embedding.phi`).  Only its methods apply it."""

    # no __slots__: the instance dict holds the cached inverse

    def __call__(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """rows b / den when checks b = 0 and den divides rows b, else None."""
        if any(mat_vec(self.checks, b)):
            return None
        x = mat_vec(self.rows, b)
        if any(y % self.den for y in x):
            return None
        return tuple(y // self.den for y in x)

    def rational(self, b: Sequence[int], bden: int = 1) -> Optional[tuple[tuple[int, ...], int]]:
        """The image of b / bden as (rows b, den bden) when checks b = 0, else None."""
        if any(mat_vec(self.checks, b)):
            return None
        return mat_vec(self.rows, b), self.den * bden

    @cached_property
    def inverse(self) -> LatticeMap:
        """y -> the b with rows b = den y and checks b = 0, from one solve of
        the rows stacked on the checks (`qlin.solve_map`): rows den S[:, :n]
        over the solve's d, checks K[:, :n].  When the stacked matrix has
        full column rank, inverse(self(b)) = b on the lattice."""
        from . import qlin

        n = len(self.rows)
        s, d, k = qlin.solve_map(self.rows + self.checks)
        return LatticeMap(tuple(tuple(self.den * x for x in row[:n]) for row in s), d, tuple(row[:n] for row in k))


class SmithForm:
    """The Smith form u*a*v = d of one matrix, kept to answer many solves:
    the one reader of `smith_normal_form`.  A matrix with no rows or no
    columns is its own Smith form, with identities for u and v."""

    def __init__(self, a: IntMatrix, cols: Optional[int] = None):
        rows = len(a)
        self.cols = len(a[0]) if rows else (cols or 0)
        if rows and self.cols:
            d, self.u, self.v = smith_normal_form(a)
        else:
            d, self.u, self.v = (), identity(rows), identity(self.cols)
        r = min(rows, self.cols)
        self.diagonal = tuple(d[i][i] if i < r else 0 for i in range(rows))
        self.rank = sum(1 for x in self.diagonal if x != 0)

    @cached_property
    def solution_map(self) -> LatticeMap:
        """The map b -> x for the systems a*x = b: with r the rank and den =
        lcm(d_1..d_r), rows = v[:, :r] diag(den / d_i) u[:r] and checks =
        u[r:].  a*x = b is solvable iff checks*b = 0 and den divides rows*b
        (v is unimodular, so den | rows*b iff every Smith coordinate
        (u b)_i / d_i is an integer), and rows*b / den is then the solution
        with zero Smith coordinates past the rank.  When checks*b = 0,
        rows*b / den is a rational solution."""
        r, d = self.rank, self.diagonal
        den = math.lcm(*d[:r])
        if r:
            scaled = tuple(tuple(den // di * x for x in row) for row, di in zip(self.u[:r], d))
            rows = mat_mul(tuple(row[:r] for row in self.v), scaled)
        else:
            rows = ((0,) * len(self.u),) * self.cols
        return LatticeMap(rows, den, self.u[r:])

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """A particular integer solution x of a*x = b, or None: the one with
        zero Smith coordinates past the rank (`solution_map`)."""
        return self.solution_map(b)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel {x : a*x = 0} (columns of v past the rank)."""
        return [
            tuple(self.v[i][j] for i in range(self.cols)) for j in range(self.rank, self.cols)
        ]
