"""The series product and the spectral layer as they were computed on
`Fraction`s: the product of two series by every pair of terms, the characteristic
polynomial, rational roots by a divisor search, generalized eigenspaces,
the joint decomposition by restriction, the eigenbasis data, the filtration
ranks, (S-D) and the face images.  The tests compare the integer-row code of
`logmonoid.log_connection` and `logmonoid.qlin` against it."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from logmonoid import log_connection as lc
from logmonoid import weighted_series as ws
from logmonoid.monoid_core import face_quotient_group, is_semi_saturated
from logmonoid.qlin import qidentity, qinverse, qmat, qmat_mul, qmat_scale, qmat_sub, qmat_vec, qnullspace, qsolve, qvec


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
        tuple(embedding.inverse_coords(qvec(eigs)) for eigs, _ in blocks),
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
    q, project = face_quotient_group(m, face)
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
