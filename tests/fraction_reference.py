"""The series product, the spectral layer and the D_l operators as they were
computed on `Fraction`s: the product of two series by every pair of terms,
the characteristic polynomial, rational roots by a divisor search,
generalized eigenspaces, the joint decomposition by restriction, the
eigenbasis data, the filtration ranks, (S-D), the face images, the
embedding's rational coordinates and inverse, the D_l projection
polynomials, projection and limit, and twist_reduce; and the `Fraction`
matrix helpers they are written with.  The tests compare the integer-row
code of `logmonoid.log_connection` and `logmonoid.qlin` against it."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from logmonoid import log_connection as lc
from logmonoid import weighted_series as ws
from logmonoid.abelian import group_quotient
from logmonoid.monoid_core import is_semi_saturated
from logmonoid.errors import DenominatorVanishes, ZeroProjection
from logmonoid.qlin import INF, padic_valuation, qmat, qmat_mul, qsolve, qvec


# -- Fraction matrices -----------------------------------------------------------

def qidentity(n):
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))


def qmat_vec(a, v):
    return tuple(sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a)


def qmat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def qmat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def qmat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def qrref(a, ncols):
    """Gauss-Jordan over Fractions, pivots sought in the first ncols entries:
    (the reduced row echelon form as lists, the pivot columns)."""
    m = [list(row) for row in qmat(a)]
    nrows = len(m)
    pivots, row = [], 0
    for col in range(ncols):
        sel = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def qnullspace(a):
    """The null-space basis of the reduced row echelon form, one vector per
    non-pivot column j: e_j minus column j at the pivots."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if nrows == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(ncols)) for j in range(ncols)]
    m, pivots = qrref(a, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][j]
        basis.append(tuple(v))
    return basis


def qinverse(a):
    """a^-1 from the reduced row echelon form of [a | I], or None if a is singular."""
    n = len(a)
    m, pivots = qrref([tuple(row) + e for row, e in zip(a, qidentity(n))], n)
    return tuple(tuple(row[n:]) for row in m) if len(pivots) == n else None


def matrix_valuation(a, p):
    """min of entry valuations (so |a| = p^{-val}); INF for the zero matrix."""
    return min((padic_valuation(x, p) for row in a for x in row if x != 0), default=INF)


def series_mul(f, g):
    """f g by every pair of terms, kept when |h| of the sum is within the
    common truncation."""
    t = min(f.truncation, g.truncation)
    out = {}
    for k1, c1 in f.terms:
        for k2, c2 in g.terms:
            k = f.monoid.gp.add(k1, k2)
            if ws.h_abs(f.monoid, f.weighting, k) <= t:
                out[k] = out.get(k, Fraction(0)) + c1 * c2
    return ws.series(f.monoid, f.weighting, out, t, f.annulus or g.annulus)


def charpoly(a):
    """[c_0, ..., c_n] of det(x I - a), Faddeev-LeVerrier on Fraction matrices."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    c = Fraction(1)
    for k in range(1, n + 1):
        m = qmat_mul(a, m)
        m = tuple(tuple(m[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n))
        am = qmat_mul(a, m)
        c = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
    return coeffs


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs):
    """Roots with multiplicity, or None: every p/q with p | c_0 and q | c_n
    tried by Fraction Horner evaluation."""
    poly = [Fraction(x) for x in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    roots: dict = {}
    while poly[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        poly = poly[1:]
    while len(poly) > 1:
        den = math.lcm(*(c.denominator for c in poly))
        ipoly = [int(c * den) for c in poly]
        g = math.gcd(*ipoly)
        ipoly = [c // g for c in ipoly]
        found = None
        for q in _divisors(ipoly[-1]):
            for p in _divisors(ipoly[0]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    val = Fraction(0)
                    for c in reversed(poly):
                        val = val * cand + c
                    if val == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        n = len(poly) - 1
        q = [Fraction(0)] * n
        q[n - 1] = poly[n]
        for k in range(n - 2, -1, -1):
            q[k] = poly[k + 1] + found * q[k + 1]
        poly = q
        roots[found] = roots.get(found, 0) + 1
    return sorted(roots.items())


def restrict(a, basis):
    """Matrix of a on span(basis) in that basis, by one solve per vector."""
    n, k = len(basis[0]), len(basis)
    bmat = qmat([[basis[j][i] for j in range(k)] for i in range(n)])
    cols = [qsolve(bmat, qmat_vec(a, b)) for b in basis]
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def generalized_eigenspaces(a):
    n = len(a)
    roots = rational_roots(charpoly(a))
    if roots is None:
        return None
    out = []
    for xi, _ in roots:
        shifted = qmat_sub(a, qmat_scale(xi, qidentity(n)))
        power = qidentity(n)
        for _ in range(n):
            power = qmat_mul(power, shifted)
        out.append((xi, [qvec(v) for v in qnullspace(power)]))
    return out


def joint_decomposition(mats, n):
    """Blocks by restricting each residue to each block and decomposing it."""
    blocks = [((), [qvec([1 if i == j else 0 for i in range(n)]) for j in range(n)])]
    for a in mats:
        new = []
        for eigs, basis in blocks:
            for xi, null in generalized_eigenspaces(restrict(a, basis)):
                vectors = [tuple(sum((w[j] * basis[j][i] for j in range(len(basis))), Fraction(0)) for i in range(n))
                           for w in null]
                new.append((eigs + (xi,), vectors))
        blocks = new
    blocks.sort(key=lambda t: t[0])
    return blocks


def decomposition(model, embedding, rank):
    blocks = joint_decomposition(model, rank)
    return lc.ResidueDecomposition(
        rank,
        tuple(eigs for eigs, _ in blocks),
        tuple(inverse_coords(embedding, qvec(eigs)) for eigs, _ in blocks),
        tuple(tuple(b) for _, b in blocks),
    )


def eigenbasis_data(a):
    cols, eigs = [], []
    for xi, vecs in generalized_eigenspaces(a):
        cols += vecs
        eigs += [xi] * len(vecs)
    n = len(a)
    pmat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    pinv = qinverse(pmat)
    conj = qmat_mul(qmat_mul(pinv, a), pmat)
    nil = tuple(tuple(conj[i][j] - (eigs[i] if i == j else 0) for j in range(n)) for i in range(n))
    return eigs, pmat, pinv, nil


def nilpotent_part(a, basis, xi):
    return qmat_sub(restrict(a, basis), qmat_scale(xi, qidentity(len(basis))))


def nilpotency_index(nil):
    index, power = 1, nil
    while any(x != 0 for row in power for x in row):
        power = qmat_mul(power, nil)
        index += 1
    return index


def nilpotency_indices(decomp, res):
    return tuple(tuple(nilpotency_index(nilpotent_part(a, basis, x)) for a, x in zip(res, eigs))
                 for eigs, basis in zip(decomp.eigentuples, decomp.blocks))


def filtration_ranks(decomp, res):
    """Dimensions of the common kernels of all ordered degree-j products."""
    ranks = []
    for eigs, basis in zip(decomp.eigentuples, decomp.blocks):
        k = len(basis)
        nils = [nilpotent_part(a, basis, x) for a, x in zip(res, eigs)]
        prev_dim, j = 0, 1
        while prev_dim < k:
            rows = []
            for combo in itertools.product(range(len(res)), repeat=j):
                prod = qidentity(k)
                for i in combo:
                    prod = qmat_mul(prod, nils[i])
                rows.extend(prod)
            dim = len(qnullspace(qmat(rows))) if rows else k
            if dim > prev_dim:
                ranks.append(dim - prev_dim)
                prev_dim = dim
            j += 1
    return tuple(ranks)


def check_sd(sigma):
    """Every pair of facet images, differenced as Fractions."""
    assert is_semi_saturated(sigma.monoid)
    for row in lc._facet_rows(sigma.monoid):
        images = [sum((Fraction(row[k]) * xi[k] for k in range(len(row))), Fraction(0)) for xi in sigma.elements]
        for x, y in itertools.product(images, repeat=2):
            if x != y and (x - y).denominator == 1:
                return False
    return True


def face_projection(m, face):
    q, project = group_quotient(m.gp, face.generators())
    d = m.gp.free_rank
    return tuple(tuple(Fraction(project(m.gp.element(tuple(int(x == k) for x in range(d))))[0][i]) for k in range(d))
                 for i in range(q.free_rank))


def unipotence(decomp, sigma, face, modulo):
    """(verdict, face images) with Fraction mat-vecs and comparisons."""
    proj = face_projection(sigma.monoid, face)
    images = tuple(qmat_vec(proj, qvec(xi)) for xi in decomp.exponents)
    targets = [qmat_vec(proj, qvec(s)) for s in sigma.elements]

    def match(a, b):
        return all((x - y).denominator == 1 for x, y in zip(a, b)) if modulo else a == b

    return all(any(match(x, s) for s in targets) for x in images), images


# -- the embedding, D_l and the twist ---------------------------------------------

def rational_coords(embedding, xi):
    return tuple(sum((Fraction(row[k]) * xi[k] for k in range(len(row))), Fraction(0)) for row in embedding.matrix)


def inverse_coords(embedding, v):
    return qmat_vec(qinverse(qmat(embedding.matrix)), v)


def twist_reduce(embedding, xi):
    """Canonical representative of xi modulo M^gp: shift by
    phi^-1(floor(phi(xi))) when that lies in M^gp."""
    phi_xi = rational_coords(embedding, qvec(xi))
    floors = tuple(Fraction(x.numerator // x.denominator) for x in phi_xi)
    y = inverse_coords(embedding, floors)
    if all(c.denominator == 1 for c in y):
        gp = embedding.monoid.gp
        shift = gp.element(tuple(int(c) for c in y))
        reduced = tuple(a - b for a, b in zip(qvec(xi), y))
        return reduced, shift
    return qvec(xi), embedding.monoid.gp.zero()


def _analysis(e):
    """The residues, their decomposition and nilpotency indices, all computed
    here on Fractions."""
    res = lc.residue(e)
    decomp = decomposition(res, e.embedding, e.rank)
    return res, decomp, nilpotency_indices(decomp, res)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def default_projection_polynomials(e):
    """Q_i = (minimal polynomial of res_i) / (x - xi_{i,target}), the target
    the first block."""
    res, decomp, indices_per_block = _analysis(e)
    target = decomp.eigentuples[0]
    polys = []
    for i in range(len(res)):
        factors = {}
        for eigs, indices in zip(decomp.eigentuples, indices_per_block):
            factors[eigs[i]] = max(factors.get(eigs[i], 1), indices[i])
        poly = [Fraction(1)]
        for xi, idx in factors.items():
            mult = idx - 1 if xi == target[i] else idx
            for _ in range(mult):
                poly = _poly_mul(poly, [-xi, Fraction(1)])
        polys.append(poly)
    return polys


def _poly_eval_matrix(coeffs, a):
    n = len(a)
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    power = qidentity(n)
    for c in coeffs:
        if c != 0:
            acc = tuple(tuple(acc[i][j] + c * power[i][j] for j in range(n)) for i in range(n))
        power = qmat_mul(power, a)
    return acc


def dl_projection(e, v, q_polys, l):
    """D_l termwise: on t^m w the operator d_i acts as res_i + m_i."""
    res, decomp, indices_per_block = _analysis(e)
    n = e.rank
    emb = e.embedding
    q = max((max(indices, default=1) for indices in indices_per_block), default=1)
    target = decomp.eigentuples[0]
    sections = [dict(f.terms) for f in v]
    out_coeffs = [dict() for _ in range(n)]
    for k in sorted(set().union(*sections)):
        vec = qvec([f.get(k, 0) for f in sections])
        coords = emb.coords(k)
        op = qidentity(n)
        for i in range(emb.r):
            shifted = tuple(tuple(res[i][a][b] + (coords[i] if a == b else 0) for b in range(n)) for a in range(n))
            op = qmat_mul(op, _poly_eval_matrix(q_polys[i], shifted))
            for eigs in decomp.eigentuples:
                xik = eigs[i]
                for j in range(1, l + 1):
                    den1 = Fraction(j) - (target[i] - xik)
                    den2 = Fraction(j) + (target[i] - xik)
                    if den1 == 0 or den2 == 0:
                        raise DenominatorVanishes("j +- (xi_1 - xi_k) vanishes: NI hypothesis violated")
                    num1 = qmat_sub(qmat_scale(Fraction(j) + xik, qidentity(n)), shifted)
                    num2 = qmat_add(qmat_scale(Fraction(j) - xik, qidentity(n)), shifted)
                    pair = qmat_scale(Fraction(1) / (den1 * den2), qmat_mul(num1, num2))
                    for _ in range(q):
                        op = qmat_mul(op, pair)
        for comp, x in enumerate(qmat_vec(op, vec)):
            out_coeffs[comp][k] = x
    w0 = v[0]
    return tuple(ws.series(w0.monoid, w0.weighting, x, w0.truncation, w0.annulus) for x in out_coeffs)


def dl_limit(e, v, q_polys):
    """prod_i Q_i(res_i)(v_0), checked to be a residue eigenvector that the
    projection stabilizes to."""
    res, decomp, _ = _analysis(e)
    n = e.rank
    zero = e.monoid.gp.zero()
    v0 = qvec([f.coeff(zero) for f in v])
    op = qidentity(n)
    for i in range(e.embedding.r):
        op = qmat_mul(op, _poly_eval_matrix(q_polys[i], res[i]))
    if all(x == 0 for row in op for x in row):
        raise ZeroProjection("projection polynomials annihilate the whole module")
    w = qmat_vec(op, v0)
    target = decomp.eigentuples[0]
    for i in range(e.embedding.r):
        img = qmat_vec(res[i], w)
        if any(img[a] != target[i] * w[a] for a in range(n)):
            raise AssertionError("dl_limit output is not a residue eigenvector")
    lmax = 0
    for f in v:
        for k, _ in f.terms:
            lmax = max(lmax, max((abs(c) for c in e.embedding.coords(k)), default=0))
    proj = dl_projection(e, v, q_polys, lmax)
    for comp in range(n):
        expected = {zero: w[comp]} if w[comp] != 0 else {}
        if {k: c for k, c in proj[comp].terms} != expected:
            raise AssertionError("dl_projection does not stabilize to the limit")
    return w
