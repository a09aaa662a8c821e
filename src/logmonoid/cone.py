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

The monoid of lattice points of a pointed cone, in any rank, is generated
by its candidates (`candidates`): the primitive extreme rays and the
lattice points of each simplicial cone's fundamental parallelepiped in a
pulling triangulation read from the face lattice, listed from the
simplex's Smith form (Bruns-Ichim, "Normaliz: algorithms for affine
monoids and rational cones", J. Algebra 2010).  They are produced lazily,
simplex by simplex.  The saturation verdict
(`monoid_core.is_saturated_bounded`) reads them and stops at the first
one outside the monoid, without building the Hilbert basis; it still
ignores its `weight_bound`.  `hilbert_basis` reads them all and keeps the
irreducible ones.

A phase-1 simplex with Bland's rule remains for questions about cones
known only by generators: a functional positive on given vectors (the
default weighting) and, in the tests' independent reference, membership
(verticality reads the facet normals), each answer a certificate.  Its
tableau rows are primitive integer rows, so it pivots without Fractions
and builds one Fraction per basic value at the end.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from math import gcd
from numbers import Rational
from operator import mul
from typing import Iterator, Optional, Sequence

from . import snf as _snf
from .qlin import QVector


def simplex_feasible(
    a: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """Find x >= 0 with a*x = b, or None.  Exact phase-1 simplex, Bland's rule.

    Each row of the tableau, the cost row too, is kept as a primitive
    integer row, a positive multiple of the row of the rational tableau.
    Signs and ratios of entries do not see a positive scale, so the pivots
    are the rational tableau's, and a basic value is the row's right-hand
    side over the row's entry in its basic column."""
    m = len(a)
    n = len(a[0]) if m else 0
    total = n + m
    tab = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        den = math.lcm(rhs.denominator, *(x.denominator for x in row))
        sign = -1 if rhs < 0 else 1
        ints = [sign * den // x.denominator * x.numerator for x in row] + [0] * (m + 1)
        ints[n + i] = den
        ints[total] = sign * den // rhs.denominator * rhs.numerator
        tab.append(_primitive(ints))
    # phase-1 objective: minimize the sum of artificials
    scale = math.lcm(*(row[n + i] for i, row in enumerate(tab)))
    cost = _primitive([sum(scale // row[n + i] * row[j] for i, row in enumerate(tab)) for j in range(total + 1)])
    basis = list(range(n, total))
    while True:
        # Bland: first original variable with positive reduced cost
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # d < 0 iff rhs_i / a_i < rhs_leave / a_leave, as both a > 0
                d = row[total] * tab[leave][enter] - tab[leave][total] * row[enter]
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            break
        pivot = tab[leave]
        p = pivot[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f:
                tab[i] = _primitive([p * x - f * y for x, y in zip(row, pivot)])
        f = cost[enter]
        cost = _primitive([p * x - f * y for x, y in zip(cost, pivot)])
        basis[leave] = enter
    if cost[total]:
        return None
    x = [Fraction(0)] * n
    for row, j in zip(tab, basis):
        if j < n:
            x[j] = Fraction(row[total], row[j])
        elif row[total]:
            return None
    return x


def support_functional(
    vectors: Sequence[Sequence[Rational]],
    zero_set: Sequence[int],
    positive_set: Sequence[int],
    dim: int,
) -> Optional[QVector]:
    """Rational lam in Q^dim with lam*v = 0 on zero_set and lam*v >= 1 on positive_set."""
    npos = len(positive_set)
    a: list[list[Rational]] = []
    for idx in zero_set:
        v = vectors[idx]
        a.append([*v, *(-x for x in v)] + [0] * npos)
    for k, idx in enumerate(positive_set):
        v = vectors[idx]
        row = [*v, *(-x for x in v)] + [0] * npos
        row[2 * dim + k] = -1
        a.append(row)
    if not a:
        return tuple(Fraction(0) for _ in range(dim))
    sol = simplex_feasible(a, [0] * len(zero_set) + [1] * npos)
    if sol is None:
        return None
    return tuple(sol[i] - sol[dim + i] for i in range(dim))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


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


def _parallelepiped_points(rays: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Lattice points of {sum c_j u_j : 0 <= c_j < 1} for linearly independent
    integer rays u_j, 0 first.  With s*A*t = D the Smith form of
    A = (u_1 ... u_k), they are A * frac(t * (y / D)) for 0 <= y_i < D_i, one
    per class of the lattice points of span(A) modulo A Z^k."""
    d = len(rays[0])
    k = len(rays)
    smith = _snf.SmithForm(tuple(tuple(u[i] for u in rays) for i in range(d)))
    steps, t = smith.diagonal[:k], smith.v
    den = math.lcm(*steps)
    for y in itertools.product(*(range(x) for x in steps)):
        c = [sum(t[j][i] * y[i] * (den // steps[i]) for i in range(k)) % den for j in range(k)]
        yield tuple(sum(cj * u[r] for cj, u in zip(c, rays)) // den for r in range(d))


def candidates(cone: Cone) -> Iterator[tuple[int, ...]]:
    """A generating set of the monoid cone cap Z^dim of a pointed cone, in
    the order it is produced: the primitive extreme rays, then the nonzero
    parallelepiped points of each simplex of the triangulation, simplex by
    simplex (a point may repeat).  Nothing past the point a caller stops at
    is computed."""
    if not cone.extreme:
        return
    prim = {i: _primitive(cone.vectors[i]) for i in cone.extreme}
    yield from prim.values()
    for simplex in cone.triangulation():
        yield from itertools.islice(_parallelepiped_points([prim[i] for i in simplex]), 1, None)


def hilbert_basis(cone: Cone) -> list[tuple[int, ...]]:
    """Hilbert basis of a pointed cone cap Z^dim, sorted.

    Taken by increasing total normal value, a candidate c joins the basis
    unless c - b lies in the cone for a basis element b found before it (no
    normal is larger on b than on c); a reducible c always has such a b, of
    smaller total value."""
    values = {c: [_dot(lam, c) for lam in cone.normals] for c in candidates(cone)}
    if not values:
        return []
    # each value vector packed into one integer, one field per normal with a
    # spare top bit: c - b is in the cone iff (c + guards) - b borrows no guard
    width = 1 + max(max(v) for v in values.values()).bit_length()
    guards = sum(1 << (width * k + width - 1) for k in range(len(cone.normals)))
    packed = {c: sum(x << (width * k) for k, x in enumerate(v)) for c, v in values.items()}
    basis: list[tuple[int, ...]] = []
    reducers: list[int] = []
    for c in sorted(values, key=lambda c: (sum(values[c]), c)):
        top = packed[c] | guards
        if not any((top - b) & guards == guards for b in reducers):
            basis.append(c)
            reducers.append(packed[c])
    return sorted(basis)
