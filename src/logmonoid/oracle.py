"""Naive brute-force reference implementations.

These certify the derived constants used in the tests and cross-check the
fast algorithms on small instances.  They deliberately share no search
logic with the main modules: plain breadth-first closure, no pruning, and
one Smith form of the whole dense shear system; no solve runs `qlin`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .abelian import Elt
from .errors import BudgetExceeded, SingularSystem, checked_make
from .monoid_core import FineMonoid, default_weighting as _weights
from .snf import SmithForm


class _EnumerationBudgetFields(NamedTuple):
    weight_bound: int
    element_cap: int = 100000


class EnumerationBudget(_EnumerationBudgetFields):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.weight_bound <= 0 or self.element_cap <= 0:
            raise ValueError("budget entries must be positive")
        return self


@lru_cache(maxsize=64)
def _weight_map(m: FineMonoid):
    values = _weights(m)
    lam, den = SmithForm(tuple(g[0] for g in m.generators), m.gp.free_rank).solution_map.rational(values)

    def weight(g: Elt) -> Fraction:
        return Fraction(sum(x * y for x, y in zip(lam, g[0])), den)

    return values, weight


def enumerate_monoid(m: FineMonoid, budget: EnumerationBudget) -> list[Elt]:
    """Every element with weight <= bound, by repeated generator addition."""
    return sorted(_ball(m, budget))


@lru_cache(maxsize=64)
def _ball(m: FineMonoid, budget: EnumerationBudget) -> MappingProxyType:
    """Read-only {element: weight} for the ball of enumerate_monoid,
    enumerated once per (monoid, budget) however many probes read it."""
    values, weight = _weight_map(m)
    for g, v in zip(m.generators, values):
        if v == 0 and not m.gp.is_zero(g):
            raise ValueError("enumerate_monoid requires a sharp monoid")
    elements = {m.gp.zero()}
    changed = True
    while changed:
        changed = False
        for e in list(elements):
            for g in m.generators:
                cand = m.gp.add(e, g)
                if cand in elements:
                    continue
                if weight(cand) <= budget.weight_bound:
                    elements.add(cand)
                    changed = True
                    if len(elements) > budget.element_cap:
                        raise BudgetExceeded(
                            f"element_cap={budget.element_cap} exceeded: {len(elements)} elements "
                            f"of weight <= weight_bound={budget.weight_bound}"
                        )
    return MappingProxyType({e: weight(e) for e in elements})


def brute_membership(m: FineMonoid, g: Elt, budget: EnumerationBudget) -> bool:
    _, weight = _weight_map(m)
    w = weight(g)
    if w > budget.weight_bound:
        raise BudgetExceeded(f"weight_bound={budget.weight_bound} is below the element's weight {w}")
    return g in _ball(m, budget)


def _closure_in_ball(m: FineMonoid, gens, ball_set) -> set[Elt]:
    """Closure of {0} under adding gens, never leaving the ball.  Complete for
    the submonoid intersected with the ball (partial sums divide the total)."""
    elems = {m.gp.zero()}
    changed = True
    while changed:
        changed = False
        for e in list(elems):
            for g in gens:
                cand = m.gp.add(e, g)
                if cand not in elems and cand in ball_set:
                    elems.add(cand)
                    changed = True
    return elems


def brute_faces(m: FineMonoid, budget: EnumerationBudget) -> list[frozenset[Elt]]:
    """Faces as element sets inside the enumerated ball.

    Candidates are the submonoids generated by generator subsets; the face
    axiom (a+b in F implies a, b in F) is tested on every pair of ball
    elements whose sum stays in the ball, listed once as (a, b, a+b)
    triples.  The verdict is certified only within the budget: a violation
    whose witnessing sum has weight above the bound goes unseen (e.g.
    generators 2 and 3 of N need weight 6 to separate the candidate <2>), so
    censuses must be compared at a sufficient bound.
    """
    ball = enumerate_monoid(m, budget)
    ball_set = set(ball)
    triples = [(a, b, s) for a in ball for b in ball if (s := m.gp.add(a, b)) in ball_set]
    n = len(m.generators)
    found: list[frozenset[Elt]] = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            f_elems = _closure_in_ball(m, [m.generators[i] for i in subset], ball_set)
            if all(a in f_elems and b in f_elems for a, b, s in triples if s in f_elems):
                fs = frozenset(f_elems)
                if fs not in found:
                    found.append(fs)
    return found


def brute_h_plus(m: FineMonoid, g: Elt, budget: EnumerationBudget) -> int:
    """Exhaustive min over {h(y) : y in ball, y - g in M}."""
    _, weight = _weight_map(m)
    wg = weight(g)
    big = EnumerationBudget(
        budget.weight_bound + max(0, -int(wg)), budget.element_cap
    )
    ball = _ball(m, big)
    best = None
    for y, wy in ball.items():
        if wy > budget.weight_bound:
            continue
        if m.gp.sub(y, g) in ball:
            if best is None or wy < best:
                best = int(wy)
    if best is None:
        raise BudgetExceeded(
            f"weight_bound={budget.weight_bound}: no y of weight <= {budget.weight_bound} with "
            f"y - g in M, for g of weight {wg}"
        )
    return best


def brute_shear_order(e, k: int):
    """Solve the full order-<= k shear system at once (all equations, all i),
    without the single-index selection trick.  Returns {m: B_m}."""
    from .coefficient_maps import coefficient

    m = e.monoid
    emb = e.embedding
    n = e.rank
    _, weight = _weight_map(m)
    ball = enumerate_monoid(m, EnumerationBudget(k))
    keys = sorted((key for key in ball if not m.gp.is_zero(key)), key=lambda key: (weight(key), key))
    index = {key: idx for idx, key in enumerate(keys)}
    nun = len(keys) * n * n
    a0 = [coefficient(a, m.gp.zero(), n) for a in e.matrices]
    acoeff = [{key: coefficient(a, key, n) for key in keys} for a in e.matrices]

    rows = []
    rhs = []
    for key in keys:
        coords = emb.coords(key)
        for i in range(emb.r):
            for r_i in range(n):
                for c_i in range(n):
                    row = [Fraction(0)] * nun
                    base = index[key] * n * n
                    for t in range(n):
                        row[base + t * n + c_i] += a0[i][r_i][t]
                        row[base + r_i * n + t] -= a0[i][t][c_i]
                    row[base + r_i * n + c_i] += Fraction(coords[i])
                    target = Fraction(0)
                    # convolution terms: A^i_{m'} B_{m''} with m', m'' nonzero
                    for kp in keys:
                        rest = m.gp.sub(key, kp)
                        if m.gp.is_zero(rest):
                            # m'' = 0: B_0 = I contributes A^i_{m} directly
                            target -= acoeff[i][kp][r_i][c_i]
                            continue
                        if rest not in index:
                            continue
                        amat = acoeff[i][kp]
                        rbase = index[rest] * n * n
                        for t in range(n):
                            row[rbase + t * n + c_i] += amat[r_i][t]
                    rows.append(row)
                    rhs.append(target)
    den = math.lcm(*(x.denominator for row in (*rows, rhs) for x in row))
    smith = SmithForm(tuple(tuple(int(x * den) for x in row) for row in rows), nun)
    sol = smith.solution_map.rational([int(x * den) for x in rhs])
    if sol is None:
        raise SingularSystem("full shear system inconsistent")
    if smith.rank < nun:
        raise SingularSystem("full shear system underdetermined")
    out = {}
    for key in keys:
        base = index[key] * n * n
        out[key] = tuple(tuple(Fraction(sol[0][base + i * n + j], sol[1]) for j in range(n)) for i in range(n))
    return out
