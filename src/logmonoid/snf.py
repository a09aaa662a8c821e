"""Exact integer matrix normal forms and lattice computations.

Matrices are tuples of tuples of Python ints (rows).  All transforms are
unimodular, so every result is exact.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a or not b:
        return tuple(tuple() for _ in a)
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(inner)) for j in range(cols))
        for arow in a
    )


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u*a*v = d diagonal, d_1 | d_2 | ..., u, v unimodular."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row[dst] += q*row[src]
        for k in range(cols):
            m[dst][k] += q * m[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for r in m:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find pivot: smallest nonzero |entry| in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        if m[t][t] < 0:
            negate_row(t)
        # clear row and column
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: m[t][t] must divide the rest of the block
        ok = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    add_row(i, t, 1)
                    ok = False
                    break
            if not ok:
                break
        if ok:
            t += 1

    return (
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


class SmithForm:
    """The Smith form u*a*v = d of one matrix, kept to answer many solves."""

    def __init__(self, a: IntMatrix, cols: Optional[int] = None):
        rows = len(a)
        self.cols = len(a[0]) if rows else (cols or 0)
        if rows:
            d, self.u, self.v = smith_normal_form(a)
        else:
            d, self.u, self.v = (), (), identity(self.cols)
        r = min(rows, self.cols)
        self.diagonal = tuple(d[i][i] if i < r else 0 for i in range(rows))
        self.rank = sum(1 for x in self.diagonal if x != 0)

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """A particular integer solution x of a*x = b, or None.

        Deterministic: the solution with zero coordinates along the kernel
        directions of the Smith basis (lexicographically-first lift).
        """
        y = self.smith_coordinates(b)
        return None if y is None else mat_vec(self.v, y)

    def smith_coordinates(self, b: Sequence[int]) -> Optional[list[int]]:
        """y with a*(v*y) = b and y zero past the rank, or None."""
        c = mat_vec(self.u, tuple(b))
        y = [0] * self.cols
        for i, (ci, di) in enumerate(zip(c, self.diagonal)):
            if di == 0:
                if ci != 0:
                    return None
            elif ci % di != 0:
                return None
            else:
                y[i] = ci // di
        return y

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel {x : a*x = 0} (columns of v past the rank)."""
        return [
            tuple(self.v[i][j] for i in range(self.cols)) for j in range(self.rank, self.cols)
        ]


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A particular integer solution x of a*x = b, or None (see SmithForm.solve)."""
    return SmithForm(a).solve(b)


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : a*x = 0}."""
    return SmithForm(a).kernel_basis()
