"""Exact cones, described by their facets.

`Cone` takes integer vectors generating a cone in Q^dim and finds its
facets once, by an integer double description of the dual cone
{lam : lam*v >= 0 for every generator v} (Fukuda-Prodon, "Double
description method revisited", 1996).  The extreme rays of the dual are
the facet normals, one primitive integer vector per facet; the forms that
vanish on every generator are kept as an integer basis.  Everything else
is an integer dot product away:

* a point lies in the cone iff every normal is >= 0 on it and every
  vanishing form is 0 on it;
* the faces, each as the set of generators it contains, are the whole set
  and every intersection of facet supports (the generators a normal
  vanishes on);
* the lineality space holds the generators on which every normal vanishes.

Hilbert bases of pointed cones, in any rank, come from a pulling
triangulation read from the face lattice plus the lattice points of each
simplicial cone's fundamental parallelepiped, listed from its Smith form
(Bruns-Ichim, "Normaliz: algorithms for affine monoids and rational
cones", J. Algebra 2010).

A phase-1 simplex over Fractions with Bland's rule remains for questions
about cones known only by generators: a functional positive on given
vectors (the default weighting) and membership (verticality), each answer
a certificate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from . import snf as _snf
from .qlin import QVector, qvec


def simplex_feasible(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Find x >= 0 with a*x = b, or None.  Exact phase-1 simplex, Bland's rule."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    total = n + m
    tab = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the sum of artificials
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] += tab[i][j]
    while True:
        enter = None
        for j in range(n):  # Bland: first original variable with positive reduced cost
            if cost[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
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
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
        elif tab[i][total] != 0:
            return None
    return x


def cone_member(rays: Sequence[QVector], target: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Nonnegative rational coefficients expressing target in cone(rays), or None."""
    target = qvec(target)
    if not rays:
        return [] if all(x == 0 for x in target) else None
    d = len(target)
    a = [[rays[j][i] for j in range(len(rays))] for i in range(d)]
    return simplex_feasible(a, list(target))


def support_functional(
    vectors: Sequence[QVector],
    zero_set: Sequence[int],
    positive_set: Sequence[int],
    dim: int,
) -> Optional[QVector]:
    """Rational lam in Q^dim with lam*v = 0 on zero_set and lam*v >= 1 on positive_set."""
    npos = len(positive_set)
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    for idx in zero_set:
        v = vectors[idx]
        a.append([Fraction(x) for x in v] + [Fraction(-x) for x in v] + [Fraction(0)] * npos)
        b.append(Fraction(0))
    for k, idx in enumerate(positive_set):
        v = vectors[idx]
        row = [Fraction(x) for x in v] + [Fraction(-x) for x in v] + [Fraction(0)] * npos
        row[2 * dim + k] = Fraction(-1)
        a.append(row)
        b.append(Fraction(1))
    if not a:
        return tuple(Fraction(0) for _ in range(dim))
    sol = simplex_feasible(a, b)
    if sol is None:
        return None
    return tuple(sol[i] - sol[dim + i] for i in range(dim))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _double_description(
    vectors: Sequence[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(extreme rays, lineality basis) of {lam in Q^dim : lam*v >= 0 for v in
    vectors}, as primitive integer vectors, the rays taken modulo the lines.

    The constraints are added one at a time.  A constraint that some line
    does not vanish on turns that line into a ray and moves the rest onto
    its hyperplane.  Otherwise the rays on its negative side are replaced by
    the combinations of a positive and a negative ray that span an edge:
    those whose common tight constraints no third ray is tight on.
    """
    lines = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []  # bit i set: the ray is 0 on vectors[i]
    for i, a in enumerate(vectors):
        bit = 1 << i
        k = next((k for k, line in enumerate(lines) if _dot(a, line)), None)
        if k is not None:
            pivot = lines.pop(k)
            s = _dot(a, pivot)
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s

            def onto(w):
                t = _dot(a, w)
                return _primitive([s * x - t * y for x, y in zip(w, pivot)])

            lines = [onto(line) for line in lines]
            rays = [onto(r) for r in rays] + [pivot]
            tight = [t | bit for t in tight] + [bit - 1]
            continue
        vals = [_dot(a, r) for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_tight = [t | bit if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for n, vn in enumerate(vals):
                if vn >= 0:
                    continue
                common = tight[p] & tight[n]
                if any(t & common == common for j, t in enumerate(tight) if j != p and j != n):
                    continue
                new_rays.append(_primitive([vp * x - vn * y for x, y in zip(rays[n], rays[p])]))
                new_tight.append(common | bit)
        rays, tight = new_rays, new_tight
    return rays, lines


class Cone:
    """cone(vectors) in Q^dim, described by its facets."""

    def __init__(self, vectors: Sequence[Sequence[int]], dim: int):
        self.vectors = tuple(tuple(int(x) for x in v) for v in vectors)
        self.dim = dim
        self.normals, self.lines = _double_description(self.vectors, dim)
        self.supports = tuple(
            frozenset(i for i, v in enumerate(self.vectors) if _dot(lam, v) == 0)
            for lam in self.normals
        )
        self.lineality = frozenset(range(len(self.vectors))).intersection(*self.supports)

    def faces(self) -> set[frozenset[int]]:
        """Every face as the set of generators it contains."""
        found = {frozenset(range(len(self.vectors)))}
        todo = list(found)
        while todo:
            face = todo.pop()
            for s in self.supports:
                cut = face & s
                if cut not in found:
                    found.add(cut)
                    todo.append(cut)
        return found

    def _facets_of(self, face: frozenset[int]) -> list[frozenset[int]]:
        """The maximal faces strictly inside a face."""
        cuts = {face & s for s in self.supports if not face <= s}
        return [f for f in cuts if not any(f < g for g in cuts)]

    @cached_property
    def extreme(self) -> tuple[int, ...]:
        """For a pointed cone: the first generator on each extreme ray."""
        out, seen = [], set()
        everything = frozenset(range(len(self.vectors)))
        for i, v in enumerate(self.vectors):
            ray = _primitive(v)
            if i in self.lineality or ray in seen:
                continue
            seen.add(ray)
            smallest = everything.intersection(*(s for s in self.supports if i in s))
            if all(j in self.lineality or _primitive(self.vectors[j]) == ray for j in smallest):
                out.append(i)
        return tuple(out)

    def triangulation(self) -> list[tuple[int, ...]]:
        """A pulling triangulation of a pointed cone into simplicial cones,
        each a tuple of indices from `extreme`: a face's first extreme ray is
        coned over the triangulated facets of the face that miss it."""

        def pull(face: frozenset[int], rank: int) -> list[tuple[int, ...]]:
            rays = [i for i in self.extreme if i in face]
            if len(rays) == rank:
                return [tuple(rays)]
            apex = rays[0]
            return [
                (apex,) + simplex
                for facet in self._facets_of(face)
                if apex not in facet
                for simplex in pull(facet, rank - 1)
            ]

        return pull(frozenset(range(len(self.vectors))), self.dim - len(self.lines))


def _parallelepiped_points(rays: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Lattice points of {sum c_j u_j : 0 <= c_j < 1} for linearly independent
    integer rays u_j.  With s*A*t = D the Smith form of A = (u_1 ... u_k), they
    are A * frac(t * (y / D)) for 0 <= y_i < D_i, one per class of the
    lattice points of span(A) modulo A Z^k."""
    d = len(rays[0])
    k = len(rays)
    diag, _s, t = _snf.smith_normal_form(tuple(tuple(u[i] for u in rays) for i in range(d)))
    steps = [diag[i][i] for i in range(k)]
    den = math.lcm(*steps)
    points = []
    for y in itertools.product(*(range(x) for x in steps)):
        c = [sum(t[j][i] * y[i] * (den // steps[i]) for i in range(k)) % den for j in range(k)]
        points.append(tuple(sum(cj * u[r] for cj, u in zip(c, rays)) // den for r in range(d)))
    return points


def hilbert_basis(cone: Cone) -> list[tuple[int, ...]]:
    """Hilbert basis of a pointed cone cap Z^dim, sorted.

    The candidates are the primitive extreme rays and the parallelepiped
    points of a triangulation.  Taken by increasing total normal value, a
    candidate c joins the basis unless c - b lies in the cone for a basis
    element b found before it (no normal is larger on b than on c); a
    reducible c always has such a b, of smaller total value."""
    if not cone.extreme:
        return []
    prim = {i: _primitive(cone.vectors[i]) for i in cone.extreme}
    candidates = set(prim.values())
    for simplex in cone.triangulation():
        candidates.update(_parallelepiped_points([prim[i] for i in simplex]))
    candidates.discard(tuple([0] * cone.dim))
    values = {c: [_dot(lam, c) for lam in cone.normals] for c in candidates}
    # each value vector packed into one integer, one field per normal with a
    # spare top bit: c - b is in the cone iff (c + guards) - b borrows no guard
    width = 1 + max(max(v) for v in values.values()).bit_length()
    guards = sum(1 << (width * k + width - 1) for k in range(len(cone.normals)))
    packed = {c: sum(x << (width * k) for k, x in enumerate(v)) for c, v in values.items()}
    basis: list[tuple[int, ...]] = []
    reducers: list[int] = []
    for c in sorted(candidates, key=lambda c: (sum(values[c]), c)):
        top = packed[c] | guards
        if not any((top - b) & guards == guards for b in reducers):
            basis.append(c)
            reducers.append(packed[c])
    return sorted(basis)
