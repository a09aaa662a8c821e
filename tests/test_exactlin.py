"""The exact linear-algebra kernels: Smith normal form, rational solves,
characteristic polynomials, simplex feasibility, Hilbert bases."""

import itertools
import operator
import random
from fractions import Fraction
from pathlib import Path

from logmonoid import cone, documents, qlin, snf
from logmonoid import monoid_core as mc
from logmonoid.abelian import AbelianGroup, group_quotient, quotient_presented

from conftest import cone_member

F = Fraction


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_snf_randomized():
    rng = random.Random(42)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = snf.as_matrix(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = snf.smith_normal_form(a)
        assert snf.mat_mul(snf.mat_mul(u, a), v) == d
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def _reference_smith_normal_form(a):
    """The Smith kernel as it was written before its rows became lists
    updated in place: one closure per row or column operation, applied entry
    by entry."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in snf.identity(rows)]
    v = [list(r) for r in snf.identity(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
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
    return tuple(tuple(r) for r in m), tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def _smith_grid():
    """Every shape 0..6 x 0..6 with entries in -9..9 (dense, sparse and
    rank-deficient draws), rows of 10^12-sized entries, and zero and empty
    matrices."""
    rng = random.Random(20261018)
    cases = [(), ((),), ((), (), ())]
    for rows in range(7):
        for cols in range(7):
            cases.append(tuple(tuple([0] * cols) for _ in range(rows)))
            for density in (1.0, 0.5, 0.2):
                for _ in range(6):
                    cases.append(tuple(
                        tuple(rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols))
                        for _ in range(rows)))
            if rows and cols:
                base = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
                # a repeated row: the form has a zero past the rank
                cases.append(tuple(tuple(row) for row in base[:-1] + base[:1]))
                cases.append(tuple(
                    tuple(rng.randint(-10 ** 12, 10 ** 12) for _ in range(cols)) for _ in range(rows)))
                mixed = [list(row) for row in base]
                mixed[rng.randrange(rows)] = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(cols)]
                cases.append(tuple(tuple(row) for row in mixed))
    return cases


def test_smith_form_matches_the_reference_kernel():
    """(d, u, v) are the reference kernel's, entry for entry, so every
    Smith-derived coordinate the program prints is unchanged; and u a v = d."""
    for a in _smith_grid():
        d, u, v = snf.smith_normal_form(a)
        assert (d, u, v) == _reference_smith_normal_form(a), a
        assert snf.mat_mul(snf.mat_mul(u, a), v) == d, a
        assert all(isinstance(row, tuple) for part in (d, u, v) for row in part)


def test_torsion_free_cokernel_matches_the_smith_diagonal():
    """Z^n / <cols> is torsion-free exactly when every diagonal entry of the
    Smith form of the matrix with those columns is 0 or 1: seeded 1..5 x
    1..5 matrices with entries in -6..6, some with zero columns, and the
    empty column list; both answers occur."""
    rng = random.Random(20261019)
    assert snf.cokernel_is_torsion_free([])
    answers = set()
    for rows in range(1, 6):
        for cols in range(1, 6):
            for trial in range(40):
                columns = [[rng.randint(-6, 6) for _ in range(rows)] for _ in range(cols)]
                if trial % 4 == 0:
                    columns[rng.randrange(cols)] = [0] * rows
                d, _, _ = snf.smith_normal_form(snf.as_matrix(zip(*columns)))
                want = all(d[i][i] in (0, 1) for i in range(min(rows, cols)))
                assert snf.cokernel_is_torsion_free(columns) is want, columns
                answers.add(want)
    assert answers == {True, False}


def test_a_matrix_with_no_rows_or_no_columns_takes_no_smith_form(monkeypatch):
    """Such a matrix is its own Smith form, with identities for u and v: a
    presented monoid with no relations, and a torsion-free group modulo
    nothing, take no Smith form, and the quotient map is the identity."""
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", lambda a: calls.append(a) or smith(a))
    for n in (0, 1, 3):
        form = snf.SmithForm(snf.as_matrix([()] * n))
        assert (form.u, form.v, form.diagonal, form.rank) == (snf.identity(n), (), (0,) * n, 0)
        form = snf.SmithForm((), n)
        assert (form.u, form.v, form.diagonal, form.rank) == ((), snf.identity(n), (), 0)
        g, qmap = quotient_presented(n, [])
        assert (g, qmap.rows) == (AbelianGroup(n), snf.identity(n))
        m = mc.from_presentation(n, [])
        assert m.gp == AbelianGroup(n) and m.generators == tuple((e, ()) for e in snf.identity(n))
        q, project = group_quotient(AbelianGroup(n), [])
        assert q == AbelianGroup(n) and project(((2,) * n, ())) == ((2,) * n, ())
    assert calls == []


def test_a_quotient_map_reads_the_group_off_the_smith_diagonal():
    """Z^3 / <(2, 0, 0), (0, 3, 0)> is Z + Z/6: the invariants 1 and 6 of
    the relations, the coordinate at 1 dropped and the torsion reduced."""
    g, qmap = quotient_presented(3, [(2, 0, 0), (0, 3, 0)])
    assert g == AbelianGroup(1, (6,)) and len(qmap.rows) == 2
    for x in itertools.product(range(-4, 5), repeat=3):
        y = qmap(x)
        assert y == g.element(*y) and abs(y[0][0]) == abs(x[2]), x
        assert g.is_zero(y) == (x[0] % 2 == 0 and x[1] % 3 == 0 and x[2] == 0), x


def test_integer_solve_and_kernel():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = snf.as_matrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        x = tuple(rng.randint(-4, 4) for _ in range(cols))
        b = snf.mat_vec(a, x)
        smith = snf.SmithForm(a)
        sol = smith.solve(b)
        assert sol is not None and snf.mat_vec(a, sol) == tuple(b)
        for k in smith.kernel_basis():
            assert all(v == 0 for v in snf.mat_vec(a, k))


def test_charpoly_and_roots():
    # det(xI - b) = (x-2)^2 = x^2 - 4x + 4
    assert qlin.int_charpoly(((2, 1), (0, 2))) == [4, -4, 1]
    assert qlin.integer_roots([4, -4, 1]) == [(2, 2)]
    assert qlin.integer_roots([-2, 0, 1]) is None  # x^2 - 2
    # the roots of a = b / d are y / d for the roots y of det(yI - b)
    b, d = qlin.over_lcm(qlin.qmat(((0, 1, 0), (F(1, 6), 0, 0), (0, 0, 0))))
    assert (qlin.int_charpoly(b), d) == ([0, -6, 0, 1], 6)  # x(x^2 - 1/6) in y = 6x
    assert qlin.integer_roots([0, -6, 0, 1]) is None
    b, d = qlin.over_lcm(qlin.qmat(((F(1, 2), 0, 0), (0, 0, 0), (0, 0, F(-1, 2)))))
    assert (qlin.int_charpoly(b), d) == ([0, -1, 0, 1], 2)  # x(x - 1/2)(x + 1/2) in y = 2x
    assert qlin.integer_roots([0, -1, 0, 1]) == [(-1, 1), (0, 1), (1, 1)]


def test_qsolve_and_nullspace():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = qlin.qmat(
            [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        x = qlin.qvec([F(rng.randint(-4, 4)) for _ in range(cols)])
        b = _ref_mat_vec(a, x)
        sol = qlin.qsolve(a, b)
        assert sol is not None and _ref_mat_vec(a, sol) == tuple(b)
        null, den = qlin.nullspace_over_lcm(a, cols)
        for k in null:
            assert den > 0 and any(k) and all(v == 0 for v in _ref_mat_vec(a, k))
        assert qlin.qrank(a) + len(null) == cols


# -- the integer kernels against per-entry Fraction references ------------------

def _ref_mat_vec(a, v):
    return tuple(sum((row[k] * v[k] for k in range(len(v))), F(0)) for row in a)


def _ref_mat_mul(a, b):
    if not a or not b:
        return tuple(tuple() for _ in a)
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0])))
        for row in a
    )


def _ref_gauss(a, rhs=None):
    """Gauss-Jordan over Fractions, one division per pivot row."""
    m = [list(row) for row in a]
    r = [list(row) for row in rhs] if rhs is not None else None
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, row = [], 0
    for col in range(ncols):
        sel = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        if r is not None:
            r[row], r[sel] = r[sel], r[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        if r is not None:
            r[row] = [x * inv for x in r[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
                if r is not None:
                    r[i] = [x - f * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, r, pivots


def _ref_solve(a, b):
    ncols = len(a[0]) if a else 0
    m, r, pivots = _ref_gauss(a, [[F(x)] for x in b])
    if any(r[i][0] != 0 for i in range(len(pivots), len(a))):
        return None
    x = [F(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = r[i][0]
    return tuple(x)


def _ref_nullspace(a):
    ncols = len(a[0]) if a else 0
    if not a:
        return [tuple(F(1 if i == j else 0) for i in range(ncols)) for j in range(ncols)]
    m, _, pivots = _ref_gauss(a)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[j] = F(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][j]
        basis.append(tuple(v))
    return basis


def _ref_inverse(a):
    n = len(a)
    _, r, pivots = _ref_gauss(a, [[F(int(i == j)) for j in range(n)] for i in range(n)])
    return tuple(tuple(row) for row in r) if len(pivots) == n else None


def _rational_matrix(rng, rows, cols, zero_rows=(), rank=None):
    """Seeded small rationals; rows listed in zero_rows are zero, and with
    rank given every row is a combination of the first `rank` rows."""
    def entry():
        return F(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 4, 6, 9)))

    base = [[entry() for _ in range(cols)] for _ in range(rank if rank is not None else rows)]
    out = []
    for i in range(rows):
        if i in zero_rows:
            out.append([F(0)] * cols)
        elif rank is None or i < rank:
            out.append(base[i])
        else:
            coeffs = [entry() for _ in range(rank)]
            out.append([sum((c * r[j] for c, r in zip(coeffs, base)), F(0)) for j in range(cols)])
    return qlin.qmat(out)


def _sylvester_system(rng, n):
    """The n^2 x n^2 system of A0 X - X A0 + m X = RHS that shear solves,
    for a triangular A0; m = 0 makes it singular."""
    a0 = [[F(rng.randint(0, 2), 2) if i == j else (F(rng.randint(-3, 3), rng.randint(1, 3))
                                                  if j > i else F(0)) for j in range(n)]
          for i in range(n)]
    mi = rng.choice((F(0), F(1), F(2), F(-1, 2)))
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += a0[i][k]
                row[i * n + k] -= a0[k][j]
            row[i * n + j] += mi
            rows.append(row)
    return qlin.qmat(rows)


def _kernel_grid():
    """(a, b) pairs: empty, non-square, zero-row, rank-deficient, inconsistent
    and Sylvester-shaped systems."""
    rng = random.Random(20)
    grid = [((), ()), (((),), (F(0),)), (((), ()), (F(0), F(1)))]
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        zero_rows = {i for i in range(rows) if rng.random() < 0.15}
        rank = rng.choice((None, None, rng.randint(0, min(rows, cols))))
        a = _rational_matrix(rng, rows, cols, zero_rows, rank)
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        consistent = qlin.qvec(sum((r * v for r, v in zip(row, x)), F(0)) for row in a)
        arbitrary = qlin.qvec(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows))
        grid += [(a, consistent), (a, arbitrary)]
    for n in (1, 2, 3):
        for _ in range(4):
            a = _sylvester_system(rng, n)
            grid.append((a, qlin.qvec(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n * n))))
    return grid


def test_integer_kernels_match_fraction_references():
    grid = _kernel_grid()
    inconsistent = singular = 0
    for a, b in grid:
        sol = qlin.qsolve(a, b)
        assert sol == _ref_solve(a, b)
        inconsistent += sol is None
        null, den = qlin.nullspace_over_lcm(a, len(a[0]) if a else 0)
        assert [tuple(F(x, den) for x in v) for v in null] == _ref_nullspace(a)
        assert qlin.qrank(a) == (len(_ref_gauss(a)[2]) if a else 0)
        if a and len(a) == len(a[0]):
            inv = qlin.inverse_over_lcm(a)
            assert (None if inv is None else tuple(tuple(F(x, inv[1]) for x in row) for row in inv[0])) == _ref_inverse(a)
            singular += inv is None
    assert inconsistent > 5 and singular > 5  # the grid reaches both outcomes


def test_solve_map_answers_every_right_hand_side_as_qsolve():
    for a, b in _kernel_grid():
        if not a:
            continue
        to_solution, checks = qlin.solve_map(a)
        sol = qlin.qsolve(a, b)
        assert any(sum(map(operator.mul, row, b)) for row in checks) == (sol is None)
        if sol is not None:
            assert tuple(sum(map(operator.mul, row, b), F(0)) for row in to_solution) == sol


def test_qmat_mul_matches_fraction_reference():
    rng = random.Random(21)
    shapes = [(0, 0, 0), (2, 0, 3), (1, 1, 1), (1, 3, 1), (3, 1, 2), (2, 3, 4), (3, 3, 3), (4, 2, 1)]
    for rows, inner, cols in shapes + [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(30)]:
        zero_rows = {i for i in range(rows) if rng.random() < 0.2}
        a = _rational_matrix(rng, rows, inner, zero_rows)
        b = _rational_matrix(rng, inner, cols)
        assert qlin.qmat_mul(a, b) == _ref_mat_mul(a, b)


def test_padic_valuation():
    assert qlin.padic_valuation(F(50), 5) == 2
    assert qlin.padic_valuation(F(3, 25), 5) == -2
    assert qlin.padic_valuation(F(0), 5) is qlin.INF


def _ref_simplex(a, b, seen=None):
    """The phase-1 simplex on a Fraction tableau, Bland's rule, one division
    per pivot row.  Counts ratio ties and artificials left basic at 0 in
    `seen`."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [F(0)] * n
    rows = [[F(x) for x in row] for row in a]
    rhs = [F(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    total = n + m
    tab = [rows[i] + [F(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [sum((tab[i][j] for i in range(m)), F(0)) for j in range(total + 1)]
    seen = {} if seen is None else seen
    while True:
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is not None and ratio == best:
                    seen["ties"] = seen.get("ties", 0) + 1
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if cost[total] != 0:
        return None
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
        elif tab[i][total] != 0:
            return None
        else:
            seen["artificial_at_0"] = seen.get("artificial_at_0", 0) + 1
    return x


def _simplex_grid():
    """(a, b): m = 0, integer and Fraction entries, negative right-hand
    sides, planted solutions with many zeros (degenerate ratio ties),
    repeated and summed rows (redundant), and arbitrary, often infeasible,
    right-hand sides."""
    rng = random.Random(17)
    grid = [([], []), ([[]], [F(0)]), ([[]], [F(1)])]
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        dens = rng.choice(((1,), (1, 1, 2, 3), (1, 2, 5, 6)))
        a = [[F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)] for _ in range(m)]
        kind = rng.choice(("planted", "redundant", "arbitrary"))
        if kind == "arbitrary":
            b = [F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(m)]
        else:
            x0 = [F(rng.randint(1, 3), rng.choice(dens)) if rng.random() < 0.4 else F(0) for _ in range(n)]
            if kind == "redundant":
                i, j = rng.randrange(m), rng.randrange(m)
                a.append([p + q for p, q in zip(a[i], a[j])])
                a.append([-p for p in a[i]])
            b = [sum((p * q for p, q in zip(row, x0)), F(0)) for row in a]
        grid.append((a, b))
    return grid


def test_simplex_matches_the_fraction_tableau():
    seen = {}
    feasible = infeasible = negative = 0
    for a, b in _simplex_grid():
        ref = _ref_simplex(a, b, seen)
        assert cone.simplex_feasible(a, b) == ref, (a, b)
        feasible += ref is not None
        infeasible += ref is None
        negative += any(v < 0 for v in b)
    # a degenerate tie where leaving by the smaller basic index (Bland) and
    # by the first row reach different vertices
    a, b = [[1, -1, 0, -2, -1], [0, 2, 0, 1, -1], [0, 0, -2, 0, 2]], [-2, 1, 2]
    assert cone.simplex_feasible(a, b) == _ref_simplex(a, b) == [3, 0, 0, 2, 1]
    # the grid reaches every branch: both outcomes, flipped rows, ties and
    # artificials that stay basic at 0 on redundant rows
    assert min(feasible, infeasible, negative, seen["ties"], seen["artificial_at_0"]) > 20, (
        feasible, infeasible, negative, seen)


def test_support_functional_matches_the_fraction_tableau(monkeypatch):
    """Every tests/data monoid: the default weighting's LP, and the LP of
    each face of its sharp quotient, against the Fraction tableau."""
    cases = []
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        doc = documents.load_json(path)
        if "elements" in doc:
            continue
        mbar = documents.parse_monoid(doc.get("monoid", doc)).monoid.index.sharp[0]
        vecs = [g[0] for g in mbar.generators]
        zero = [i for i, g in enumerate(mbar.generators) if mbar.gp.is_zero(g)]
        supports = [zero]
        if len(vecs) <= 8:  # the Fraction tableau takes ~0.1 s per LP on moment_curve_20
            # every face, feasible, and every single generator, infeasible off the extreme rays
            supports += [sorted(f) for f in mbar.index.cone.faces()] + [[i] for i in range(len(vecs))]
        for t in supports:
            rest = [i for i in range(len(vecs)) if i not in t]
            cases.append((vecs, t, rest, mbar.gp.free_rank))
    found = [cone.support_functional(*case) for case in cases]
    monkeypatch.setattr(cone, "simplex_feasible", _ref_simplex)
    assert found == [cone.support_functional(*case) for case in cases]
    assert len(cases) > 20 and any(lam is None for lam in found)


def test_simplex_soundness_randomized():
    rng = random.Random(3)
    feasible_hits = 0
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-6, 6)) for _ in range(m)]
        x = cone.simplex_feasible(a, b)
        if x is not None:
            feasible_hits += 1
            assert all(v >= 0 for v in x)
            for i in range(m):
                assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
    assert feasible_hits > 5


def test_simplex_completeness_small():
    # certified-feasible instances: b built from a known nonnegative solution
    rng = random.Random(9)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        assert cone.simplex_feasible(a, b) is not None


def _lattice_points_in_cone(rays, bound):
    dim = len(rays[0])
    pts = []
    for cand in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(v == 0 for v in cand):
            continue
        if cone_member([qlin.qvec(r) for r in rays], qlin.qvec(cand)) is not None:
            pts.append(cand)
    return pts


def test_hilbert_basis_simplicial_rank2():
    rays = [(1, 0), (1, 3)]
    hb = cone.hilbert_basis(cone.Cone(rays, 2))
    assert hb == [(1, 0), (1, 1), (1, 2), (1, 3)]


def test_hilbert_basis_square_cone():
    rays = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    hb = cone.hilbert_basis(cone.Cone(rays, 3))
    assert hb == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


def test_hilbert_basis_generates_cone_points():
    rays = [(2, 1), (1, 3)]
    hb = cone.hilbert_basis(cone.Cone(rays, 2))
    assert hb == [(1, 1), (1, 2), (1, 3), (2, 1)]
    pts = _lattice_points_in_cone(rays, 4)
    # every small cone point decomposes over the basis (greedy exhaustion)
    reachable = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        cur = frontier.pop()
        for h in hb:
            nxt = (cur[0] + h[0], cur[1] + h[1])
            if max(map(abs, nxt)) <= 4 and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    for p in pts:
        assert p in reachable


def test_hilbert_basis_pentagon_cone():
    """Five extreme rays force a triangulation; the interior lattice point at
    height 1 joins the basis."""
    rays = [(0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)]
    hb = cone.hilbert_basis(cone.Cone(rays, 3))
    assert hb == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1)]


def test_extreme_rays_prune_redundant():
    rays = [(1, 0), (0, 1), (1, 1), (3, 1)]
    c = cone.Cone(rays, 2)
    assert [c.vectors[i] for i in c.extreme] == [(1, 0), (0, 1)]
