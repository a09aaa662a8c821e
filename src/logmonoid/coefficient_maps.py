"""Coefficient maps: a matrix of truncated series stored by its nonzero
coefficients, integer numerators at each key over one denominator, with
their sums, products and p-adic Gauss valuations.  Radii are powers p^{-q}
with q rational (q = None encodes radius 0), so every norm comparison
happens in valuation form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Callable, NamedTuple, Optional

from .abelian import AbelianGroup, Elt
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


class KeySums:
    """Sums of keys of the group gp through small int ids: `id` numbers a key
    on first sight and `keys[i]` is the key of id i; `rows[i]` maps a
    partner's id j to the id of keys[i] + keys[j], computed by gp.add on the
    first visit of either order (`sum`).  A module owns one
    (`LogNablaModule.key_sums`), freed with it."""

    def __init__(self, gp: AbelianGroup):
        self.gp = gp
        self.ids: dict[Elt, int] = {}
        self.keys: list[Elt] = []
        self.rows: list[dict[int, int]] = []

    def id(self, key: Elt) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append({})
        return i

    def sum(self, i: int, j: int) -> int:
        s = self.rows[i].get(j)
        if s is None:
            s = self.rows[i][j] = self.rows[j][i] = self.id(self.gp.add(self.keys[i], self.keys[j]))
        return s


def _map_mul(m: FineMonoid, w: Weighting, t: int, a, b, cols: int, sums: KeySums) -> dict[Elt, list[int]]:
    """The product of two coefficient maps, given as (key, row-major integer
    matrix) pairs, b's matrices with `cols` columns, kept at the keys with
    |h| <= t: one integer matrix product per pair of keys, the numerators
    over the product of the two denominators.  Key sums come from the table
    `sums` and accumulate under their ids; each key is read back once."""
    if not a or not b:
        return {}
    h = m.index.weighted(w.values).h
    key_id, keys, rows = sums.id, sums.keys, sums.rows
    # h is additive and h <= |h|, so with b's keys in h order every pair
    # after the first with h(k1) + h(k2) > t leaves the truncation too
    right = sorted(((h(k)[0], key_id(k), [x[j::cols] for j in range(cols)]) for k, x in b), key=lambda term: term[0])
    # |h| = 2 h+ - h and h+ is subadditive, so when every key has |h| = h a
    # pair the break keeps has |h|(k1 + k2) = h(k1) + h(k2) <= t: no lookup
    lookup = any(hk != habs for hk, _, habs in (h(k) for k, _ in chain(a, b)))
    inner = len(right[0][2][0])
    out: dict[int, list[int]] = {}
    for k1, x in a:
        room = t - h(k1)[0]
        i1 = key_id(k1)
        partners = rows[i1]
        left = [x[r : r + inner] for r in range(0, len(x), inner)]
        for h2, i2, cb in right:
            if h2 > room:
                break
            k = partners.get(i2)
            if k is None:
                k = sums.sum(i1, i2)
            if lookup and h(keys[k])[2] > t:
                continue
            _add_into(out, k, [sum(map(mul, ra, c)) for ra in left for c in cb])
    return {keys[k]: x for k, x in out.items()}


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
