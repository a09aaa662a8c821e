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
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


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
