"""Finitely generated abelian groups in Smith normal coordinates.

A group is Z^free_rank + Z/d_1 + ... + Z/d_s with d_1 | d_2 | ... and each
d_i >= 2.  Elements are pairs (free, torsion) of int tuples; torsion
coordinates are kept reduced to [0, d_i).
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional, Sequence

from . import snf
from .errors import checked_make

Elt = tuple[tuple[int, ...], tuple[int, ...]]


class _AbelianGroupFields(NamedTuple):
    free_rank: int
    torsion_invariants: tuple[int, ...] = ()


class AbelianGroup(_AbelianGroupFields):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for i, d in enumerate(self.torsion_invariants):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and d % self.torsion_invariants[i - 1] != 0:
                raise ValueError("torsion invariants must form a divisibility chain")
        return self

    # -- element helpers -------------------------------------------------
    def element(self, free: Sequence[int], torsion: Sequence[int] = ()) -> Elt:
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion) or tuple([0] * len(self.torsion_invariants))
        if len(free) != self.free_rank or len(torsion) != len(self.torsion_invariants):
            raise ValueError("element has wrong shape for this group")
        return (free, tuple(t % d for t, d in zip(torsion, self.torsion_invariants)))

    def zero(self) -> Elt:
        return (tuple([0] * self.free_rank), tuple([0] * len(self.torsion_invariants)))

    def add(self, x: Elt, y: Elt) -> Elt:
        free = tuple(map(operator.add, x[0], y[0]))
        if not self.torsion_invariants:
            return (free, ())
        return (free, tuple((a + b) % d for a, b, d in zip(x[1], y[1], self.torsion_invariants)))

    def neg(self, x: Elt) -> Elt:
        free = tuple(map(operator.neg, x[0]))
        if not self.torsion_invariants:
            return (free, ())
        return (free, tuple(-a % d for a, d in zip(x[1], self.torsion_invariants)))

    def sub(self, x: Elt, y: Elt) -> Elt:
        free = tuple(map(operator.sub, x[0], y[0]))
        if not self.torsion_invariants:
            return (free, ())
        return (free, tuple((a - b) % d for a, b, d in zip(x[1], y[1], self.torsion_invariants)))

    def scale(self, k: int, x: Elt) -> Elt:
        free = tuple([k * a for a in x[0]])
        if not self.torsion_invariants:
            return (free, ())
        return (free, tuple((k * a) % d for a, d in zip(x[1], self.torsion_invariants)))

    def is_zero(self, x: Elt) -> bool:
        return all(a == 0 for a in x[0]) and all(a == 0 for a in x[1])

    def torsion_generators(self) -> list[Elt]:
        out = []
        for i in range(len(self.torsion_invariants)):
            t = [0] * len(self.torsion_invariants)
            t[i] = 1
            out.append((tuple([0] * self.free_rank), tuple(t)))
        return out

    # -- lifting to a free cover -----------------------------------------
    @property
    def cover_dim(self) -> int:
        """Dimension of the free cover Z^{free_rank + s}."""
        return self.free_rank + len(self.torsion_invariants)

    def lift(self, x: Elt) -> tuple[int, ...]:
        return tuple(x[0]) + tuple(x[1])

    def cover_relations(self) -> list[tuple[int, ...]]:
        """Columns d_i * e_{free_rank + i} presenting this group as Z^cover/relations."""
        cols = []
        for i, d in enumerate(self.torsion_invariants):
            col = [0] * self.cover_dim
            col[self.free_rank + i] = d
            cols.append(tuple(col))
        return cols

    def from_cover(self, v: Sequence[int]) -> Elt:
        free = tuple(int(x) for x in v[: self.free_rank])
        tor = tuple(
            int(v[self.free_rank + i]) % d for i, d in enumerate(self.torsion_invariants)
        )
        return (free, tor)


class QuotientMap(NamedTuple):
    """Projection Z^n -> G computed from a Smith normal form."""

    source_dim: int
    group: AbelianGroup
    u: snf.IntMatrix  # unimodular: w = u * x
    free_rows: tuple[int, ...]
    torsion_rows: tuple[int, ...]

    def __call__(self, x: Sequence[int]) -> Elt:
        w = snf.mat_vec(self.u, tuple(int(v) for v in x))
        free = tuple(w[i] for i in self.free_rows)
        tor = tuple(
            w[i] % d for i, d in zip(self.torsion_rows, self.group.torsion_invariants)
        )
        return (free, tor)


def quotient_presented(n: int, relation_columns: Sequence[Sequence[int]]) -> tuple[AbelianGroup, QuotientMap]:
    """Z^n modulo the lattice spanned by the given columns."""
    if not relation_columns:
        g = AbelianGroup(n, ())
        return g, QuotientMap(n, g, snf.identity(n), tuple(range(n)), ())
    a = snf.as_matrix([[col[i] for col in relation_columns] for i in range(n)])
    d, u, _v = snf.smith_normal_form(a)
    r = min(n, len(relation_columns))
    torsion_rows = []
    invariants = []
    free_rows = []
    for i in range(n):
        di = d[i][i] if i < r else 0
        if di == 0:
            free_rows.append(i)
        elif di >= 2:
            torsion_rows.append(i)
            invariants.append(di)
        # di == 1: coordinate dies
    g = AbelianGroup(len(free_rows), tuple(invariants))
    return g, QuotientMap(n, g, u, tuple(free_rows), tuple(torsion_rows))


def group_quotient(g: AbelianGroup, elements: Sequence[Elt]) -> tuple[AbelianGroup, Callable[[Elt], Elt]]:
    """Quotient of g by the subgroup generated by `elements`, with projection."""
    cols = [g.lift(e) for e in elements] + g.cover_relations()
    q, qmap = quotient_presented(g.cover_dim, cols)

    def project(x: Elt) -> Elt:
        return qmap(g.lift(x))

    return q, project


class GroupSpan:
    """The subgroup of g spanned by gens, compiled once: one Smith form of the
    cover matrix [lifted gens | torsion relations] answers every solve."""

    def __init__(self, g: AbelianGroup, gens: Sequence[Elt]):
        self.group = g
        self.count = len(gens)
        cols = [g.lift(e) for e in gens] + g.cover_relations()
        a = snf.as_matrix([[col[i] for col in cols] for i in range(g.cover_dim)])
        self.smith = snf.SmithForm(a, len(cols))

    def coefficients(self, target: Elt) -> Optional[tuple[int, ...]]:
        """Integer c with sum c_i gens_i = target in g, or None."""
        sol = self.smith.solve(self.group.lift(target))
        return None if sol is None else sol[: self.count]

    def relations(self) -> list[tuple[int, ...]]:
        """Generating set of {c in Z^k : sum c_i gens_i = 0 in g}."""
        return [v[: self.count] for v in self.smith.kernel_basis()]


def solve_in_group(g: AbelianGroup, gens: Sequence[Elt], target: Elt):
    """Integer coefficients c with sum c_i gens_i = target in g, or None."""
    return GroupSpan(g, gens).coefficients(target)
