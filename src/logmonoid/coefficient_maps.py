"""Coefficient maps: a matrix of truncated series stored by its nonzero
coefficients, integer numerators at each key over one denominator, with
their sums, products and p-adic Gauss valuations.  A product is a symbolic
phase, the pair plan of its two key supports (`PairPlan`), which the
weighted index keeps among its PLAN_CACHE_SIZE most recent plans, and a
numeric phase of gathers over flat integer planes; the shear's weight-order
recursion (`weight_order`) gathers alike.  Radii are powers p^{-q} with q
rational (q = None encodes radius 0), so every norm comparison happens in
valuation form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, mul
from typing import Callable, NamedTuple, Optional

from .abelian import Elt
from .monoid_core import FineMonoid, Weighting
from .qlin import INF, QMatrix, over_lcm, padic_valuation

DEFAULT_PRIME = 5


class Radius(NamedTuple):
    """The radius p^{-q}; q = None encodes radius 0.  All four orderings
    are by radius, never the tuple order of q."""

    q: Optional[Fraction]

    @staticmethod
    def p_power(q) -> "Radius":
        return Radius(Fraction(q))

    @staticmethod
    def one() -> "Radius":
        return Radius(Fraction(0))

    @staticmethod
    def zero() -> "Radius":
        return Radius(None)

    @property
    def is_zero(self) -> bool:
        return self.q is None

    def value_exponent(self) -> Fraction:
        if self.q is None:
            raise ValueError("radius 0 has no finite exponent")
        return self.q

    def __le__(self, other: "Radius") -> bool:
        if self.q is None:
            return True
        if other.q is None:
            return False
        return self.q >= other.q

    def __lt__(self, other: "Radius") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "Radius") -> bool:
        return other <= self

    def __gt__(self, other: "Radius") -> bool:
        return other < self

    def mix(self, other: "Radius", c: Fraction) -> "Radius":
        """self^c * other^(1-c) for 0 <= c <= 1."""
        if self.q is None or other.q is None:
            if c == 0:
                return other
            if c == 1:
                return self
            return Radius(None)
        return Radius(c * self.q + (1 - c) * other.q)


# (key, row-major integer matrix) pairs in key order over one denominator,
# the numerators and the denominator coprime as a whole
CoefficientMap = tuple[tuple[tuple[Elt, tuple[int, ...]], ...], int]


def coefficient_map(w: Weighting, t: int, coeffs: dict, annulus: bool = False, den: int = 1) -> CoefficientMap:
    """The stored form of the matrix with coefficient coeffs[key] / den at
    each key, coeffs[key] row-major rationals (a document's are integer
    numerators over their lcm den): zero matrices and keys with |h| > t are
    dropped, and a disk matrix may carry no term with h^-(m) > 0."""
    index = w.monoid.index.weighted(w.values)
    h, scaled, room = index.h, index.scaled_weight, t * index.denominator
    kept = {}
    for k, x in coeffs.items():
        # |h| >= |h(k)|: a key heavier than t is dropped before h+ is searched
        if not any(x) or abs(scaled(k)) > room:
            continue
        hk, hp, habs = h(k)
        if habs > t:
            continue
        if not annulus and hp > hk:
            raise ValueError("disk series cannot carry terms with h^-(m) > 0")
        kept[k] = x
    rows, d = over_lcm(list(kept.values()))
    return _canonical(dict(zip(kept, rows)), d * den)


def _canonical(x: dict, den: int) -> CoefficientMap:
    """{key: integer matrix} / den as a stored map: its nonzero matrices in
    key order, the numerators and den divided by their common gcd."""
    terms = sorted((k, v) for k, v in x.items() if any(v))
    g = math.gcd(den, *(c for _, v in terms for c in v))
    return tuple((k, tuple(c // g for c in v)) for k, v in terms), den // g


def coefficient(a: CoefficientMap, key: Elt, n: int) -> QMatrix:
    """The coefficient of the n x n coefficient map a at key."""
    terms, den = a
    x = next((x for k, x in terms if k == key), (0,) * (n * n))
    return tuple(tuple(Fraction(v, den) for v in x[r : r + n]) for r in range(0, n * n, n))


def map_sum(a: CoefficientMap, b: CoefficientMap) -> CoefficientMap:
    """a + b for coefficient maps of one shape."""
    (ax, da), (bx, db) = a, b
    out = {k: [v * db for v in x] for k, x in ax}
    for k, x in bx:
        _add_into(out, k, [v * da for v in x])
    return _canonical(out, da * db)


# How many plans a weighted index keeps, the least recently used dropped first.
PLAN_CACHE_SIZE = 16


def _blocks(count: int, inner: int) -> list[list[int]]:
    """The offsets of count blocks of `inner` entries, one int object each."""
    at = list(range(count * inner))
    return [at[i : i + inner] for i in range(0, len(at), inner)]


def _getter(blocks) -> itemgetter:
    """The gather of the blocks' offsets; a single one is paired with a
    plane's trailing 0, so that every gather returns a tuple."""
    offsets = tuple(chain.from_iterable(blocks))
    return itemgetter(*offsets) if len(offsets) > 1 else itemgetter(offsets[0], -1)


def _rows(terms, rows: int, inner: int) -> list[list[int]]:
    """Per row r, row r of each (key, row-major matrix) pair's matrix end to end, and a 0."""
    return [[*chain.from_iterable(x[r * inner : r * inner + inner] for _, x in terms), 0] for r in range(rows)]


def _columns(terms, cols: int) -> list[list[int]]:
    """Per column c, column c of each matrix end to end, and a 0."""
    return [[*chain.from_iterable(x[c::cols] for _, x in terms), 0] for c in range(cols)]


class PairPlan:
    """The symbolic phase of the products of maps on two key supports
    (Gustavson, ACM TOMS 4, 1978): per key k with |h| <= t, one gather of
    the left rows and one of the right columns of the pairs summing to k.
    With the right keys in h order every pair after the first with
    h(k1) + h(k2) > t drops out; |h| = 2 h+ - h and h+ is subadditive, so
    |h| of a sum is looked up only beside a key with |h| != h (annulus)."""

    def __init__(self, index, t: int, inner: int, left: tuple, right: tuple):
        h, add = index.h, index.index.monoid.gp.add
        ordered = sorted(((h(k)[0], q, k) for q, k in enumerate(right)), key=lambda term: term[0])
        lookup = any(hk != habs for hk, _, habs in map(h, chain(left, right)))
        lb, rb = _blocks(len(left), inner), _blocks(len(right), inner)
        pairs: dict[Elt, tuple[list, list]] = {}
        for p, k1 in enumerate(left):
            room = t - h(k1)[0]
            for h2, q, k2 in ordered:
                if h2 > room:
                    break
                k = add(k1, k2)
                if not lookup or h(k)[2] <= t:
                    lefts, rights = pairs.get(k) or pairs.setdefault(k, ([], []))
                    lefts.append(lb[p])
                    rights.append(rb[q])
        self.entries = [(k, _getter(lefts), _getter(rights)) for k, (lefts, rights) in pairs.items()]

    def product(self, a: list[list[int]], b: list[list[int]]) -> dict[Elt, list[int]]:
        """{key: row-major matrix} of the row planes a times the column planes b."""
        out = {}
        for key, left, right in self.entries:
            ys = list(map(right, b))
            out[key] = [sum(map(mul, x, y)) for x in map(left, a) for y in ys]
        return out


def _map_mul(m: FineMonoid, w: Weighting, t: int, a, b, cols: int) -> dict[Elt, list[int]]:
    """The product of two maps as (key, row-major integer matrix) pairs, b's
    matrices with `cols` columns, at the keys with |h| <= t, as {key:
    integer matrix} over the product of the two denominators, through the
    pair plan of their keys; the index keeps the most recent plans."""
    a, b = tuple(a), tuple(b)
    if not a or not b:
        return {}
    inner = len(b[0][1]) // cols
    key = (t, inner, tuple(k for k, _ in a), tuple(k for k, _ in b))
    index = m.index.weighted(w.values)
    plans = index.plans
    plan = plans[key] = plans.pop(key, None) or PairPlan(index, *key)
    if len(plans) > PLAN_CACHE_SIZE:
        del plans[next(iter(plans))]
    return plan.product(_rows(a, len(a[0][1]) // inner, inner), _columns(b, cols))


def weight_order(index, t: int, n: int, left: list, flats, solve) -> tuple[dict[Elt, list[int]], int]:
    """n x n integer matrices X over the keys of weight <= t (`upto`) and
    one denominator den: X_0 = I, then in weight order X_m = solve(m, rhs),
    rhs = [(-sum L_k X_q over k + q = m, d den) for each (L, d) of flats],
    L the row planes (`_rows`) of the matrices at the keys of left,
    lightest first.  A nonzero X_q goes to the pairs of q + k for each k of
    left with h(q) + h(k) <= t (a row-wise sparse product, Gustavson 1978);
    each k weighs >= 1, so a key's pairs are all in before it is solved,
    and they make one pair of gathers for every flat.  X is column planes
    over the lcm of the solved denominators, rescaled by a new factor.
    Returns {m: row-major X_m} for the nonzero X_m, and den."""
    keys, ball, add = index.upto(t), index.ball(t), index.index.monoid.gp.add
    slot = {k: s for s, k in enumerate(keys)}
    xs = [[int(c == r) for r in range(n)] + [0] * ((len(keys) - 1) * n + 1) for c in range(n)]
    den, solved, pending = 1, [0], {}
    left_blocks, x_blocks = _blocks(len(left), n), _blocks(len(keys), n)
    partners = [(ball[k], p, k) for p, k in enumerate(left)]
    for s in range(len(keys)):
        if s:  # X_0 = I is fixed; every other X_m is solved from its pairs, if it has any
            pairs = pending.pop(s, None)
            if pairs is None:
                continue
            lg, rg = map(_getter, pairs)
            ys = list(map(rg, xs))
            rhs = [([-sum(map(mul, x, y)) for x in map(lg, a) for y in ys], d * den) for a, d in flats]
            xm, dm = solve(keys[s], rhs)
            if not any(xm):
                continue
            scale = dm // math.gcd(den, dm)
            if scale > 1:
                xs, den = [[v * scale for v in plane] for plane in xs], den * scale
            for c, plane in enumerate(xs):
                plane[s * n : s * n + n] = [v * (den // dm) for v in xm[c::n]]
            solved.append(s)
        room = t - ball[keys[s]]
        for hk, p, k in partners:
            if hk > room:
                break
            lefts, rights = pending.get(target := slot[add(keys[s], k)]) or pending.setdefault(target, ([], []))
            lefts.append(left_blocks[p])
            rights.append(x_blocks[s])
    return {keys[s]: [plane[s * n + r] for r in range(n) for plane in xs] for s in solved}, den


def _add_into(acc: dict, key, x: list[int]) -> None:
    """acc[key] += x, for the fresh list x."""
    y = acc.get(key)
    acc[key] = x if y is None else list(map(add, y, x))


def _restricted(w: Weighting, t: int, a: CoefficientMap) -> CoefficientMap:
    """The terms of a at the keys with |h| <= t."""
    h = w.monoid.index.weighted(w.values).h
    terms, den = a
    return _canonical({k: x for k, x in terms if h(k)[2] <= t}, den)


def gauss_valuation(terms, den: int, p: int, radius: Callable[[Elt], int] = lambda key: 0, scale: int = 1):
    """The Gauss valuation of the coefficient map (terms, den), on integers:
    min over its keys of v_p(gcd of x) - v_p(den) + radius(key) / scale, x
    the key's integer matrix and radius(key) / scale the key's radius term
    (q h(key) at the radius p^-q); INF for the zero map."""
    best = min((scale * padic_valuation(math.gcd(*x), p) + radius(k) for k, x in terms), default=None)
    return INF if best is None else Fraction(best, scale) - padic_valuation(den, p)
