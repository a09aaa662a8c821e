"""Weighted monoids, truncated monoid-graded series, Gauss norms, polyannuli.

Coefficients are exact rationals, stored as coefficient maps: integer
numerators at each key over one denominator, a series being the 1 x 1
case.  Valuations are p-adic for a configurable prime; radii are powers
p^{-q} with q rational (q = None encodes radius 0), so every norm
comparison happens in valuation form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import add, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .abelian import Elt, checked_make
from .errors import NonInvertibleConstantTerm, NotTorsionFree
from .monoid_core import (
    FineMonoid,
    default_weighting as _default_values,
    membership,
    saturation,
)
from .qlin import INF, QMatrix, over_lcm, padic_valuation, qmat, qsolve, qvec

DEFAULT_PRIME = 5


class _WeightingFields(NamedTuple):
    monoid: FineMonoid
    values: tuple[int, ...]


class Weighting(_WeightingFields):
    """h: M -> N vanishing exactly on the units."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        m = self.monoid
        if len(self.values) != len(m.generators):
            raise ValueError("one weight per generator required")
        if any(v < 0 for v in self.values):
            raise ValueError("weights must be non-negative")
        m.index.weighted(self.values)  # raises if not a homomorphism
        units_idx = m.index.unit_indices
        for i, v in enumerate(self.values):
            if (v == 0) != (i in units_idx):
                raise ValueError("weights must vanish exactly on unit generators")
        return self

    def __call__(self, g: Elt) -> Fraction:
        """Group extension of h (integral on gp, may be negative off M)."""
        return self.monoid.index.weighted(self.values).weight(g)


def default_weighting(m: FineMonoid) -> Weighting:
    """A weighting synthesized from an interior point of the dual cone."""
    return Weighting(m, _default_values(m))


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
            if self.q is None or other.q is None:
                return Radius(None)
        return Radius(c * self.q + (1 - c) * other.q)


# ---------------------------------------------------------------------------
# h+, h-, |h|
# ---------------------------------------------------------------------------

def h_plus(m: FineMonoid, h: Weighting, g: Elt) -> int:
    """min{h(y) : y in M, y - g in M} by weight-ordered search."""
    return m.index.weighted(h.values).h(g)[1]


def h_minus(m: FineMonoid, h: Weighting, g: Elt) -> int:
    hg, hp, _ = m.index.weighted(h.values).h(g)
    return hp - hg


def h_abs(m: FineMonoid, h: Weighting, g: Elt) -> int:
    return m.index.weighted(h.values).h(g)[2]


# ---------------------------------------------------------------------------
# coefficient maps: a matrix of truncated series by its nonzero coefficients
# ---------------------------------------------------------------------------

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


def _map_mul(m: FineMonoid, w: Weighting, t: int, a, b, cols: int) -> dict[Elt, list[int]]:
    """The product of two coefficient maps, given as (key, row-major integer
    matrix) pairs, b's matrices with `cols` columns, kept at the keys with
    |h| <= t: one integer matrix product per pair of keys, the numerators
    over the product of the two denominators."""
    if not a or not b:
        return {}
    plus = m.gp.add
    h = m.index.weighted(w.values).h
    # h is additive and h <= |h|, so with b's keys in h order every pair
    # after the first with h(k1) + h(k2) > t leaves the truncation too
    right = sorted(((h(k)[0], k, [x[j::cols] for j in range(cols)]) for k, x in b), key=lambda term: term[0])
    inner = len(right[0][2][0])
    out: dict[Elt, list[int]] = {}
    for k1, x in a:
        room = t - h(k1)[0]
        rows = [x[r : r + inner] for r in range(0, len(x), inner)]
        for h2, k2, cb in right:
            if h2 > room:
                break
            k = plus(k1, k2)
            if h(k)[2] > t:
                continue
            _add_into(out, k, [sum(map(mul, ra, c)) for ra in rows for c in cb])
    return out


def _add_into(acc: dict, key: Elt, x: list[int]) -> None:
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
    min over its keys of v_p(x) - v_p(den) + radius(key) / scale, x the
    key's integer matrix and radius(key) / scale the key's radius term
    (q h(key) at the radius p^-q); INF for the zero map."""
    best = min((scale * min(padic_valuation(c, p) for c in x if c) + radius(k) for k, x in terms), default=None)
    return INF if best is None else Fraction(best, scale) - padic_valuation(den, p)


# ---------------------------------------------------------------------------
# truncated series: the 1 x 1 coefficient maps
# ---------------------------------------------------------------------------

class TruncatedSeries(NamedTuple):
    """Finitely supported coefficient map M^gp -> Q, exact up to |h| <= truncation:
    a 1 x 1 coefficient map."""

    monoid: FineMonoid
    weighting: Weighting
    coefficients: CoefficientMap
    truncation: int
    annulus: bool = False

    @property
    def terms(self) -> tuple[tuple[Elt, Fraction], ...]:
        terms, den = self.coefficients
        return tuple((k, Fraction(x, den)) for k, (x,) in terms)

    def coeff(self, g: Elt) -> Fraction:
        return coefficient(self.coefficients, g, 1)[0][0]

    def as_dict(self) -> dict[Elt, Fraction]:
        return dict(self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.coeff(self.monoid.gp.zero())

    def is_zero(self) -> bool:
        return not self.coefficients[0]


SeriesMatrix = tuple[tuple[TruncatedSeries, ...], ...]


def series(
    monoid: FineMonoid,
    weighting: Weighting,
    coefficients: dict[Elt, Fraction] | Sequence[tuple[Elt, Fraction]],
    truncation: int,
    annulus: bool = False,
) -> TruncatedSeries:
    items = coefficients.items() if isinstance(coefficients, dict) else coefficients
    a = coefficient_map(weighting, truncation, {k: (Fraction(c),) for k, c in items}, annulus)
    return TruncatedSeries(monoid, weighting, a, truncation, annulus)


def series_matrix(w: Weighting, t: int, a: CoefficientMap, n: int) -> SeriesMatrix:
    """The n x n coefficient map a as a matrix of disk series truncated at t,
    each entry built by `series`, so a key with h^-(m) > 0 raises its check."""
    terms, den = a
    return tuple(
        tuple(series(w.monoid, w, {k: Fraction(x[i * n + j], den) for k, x in terms}, t) for j in range(n))
        for i in range(n)
    )


def constant_series(monoid, weighting, c, truncation, annulus=False) -> TruncatedSeries:
    return series(monoid, weighting, {monoid.gp.zero(): Fraction(c)}, truncation, annulus)


def monomial(monoid, weighting, g: Elt, truncation, c=1, annulus=False) -> TruncatedSeries:
    return series(monoid, weighting, {g: Fraction(c)}, truncation, annulus)


def _combined(f: TruncatedSeries, g: TruncatedSeries, a: CoefficientMap) -> TruncatedSeries:
    """The map a, computed from f and g and kept at |h| <= their common
    truncation, as their series."""
    if f.monoid != g.monoid or f.weighting != g.weighting:
        raise ValueError("series live on different weighted monoids")
    return TruncatedSeries(f.monoid, f.weighting, a, min(f.truncation, g.truncation), f.annulus or g.annulus)


def series_add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    a = map_sum(f.coefficients, g.coefficients)
    if f.truncation != g.truncation:
        a = _restricted(f.weighting, min(f.truncation, g.truncation), a)
    return _combined(f, g, a)


def series_scale(c, f: TruncatedSeries) -> TruncatedSeries:
    c = Fraction(c)
    terms, den = f.coefficients
    return f._replace(coefficients=_canonical({k: (x * c.numerator,) for k, (x,) in terms}, den * c.denominator))


def series_sub(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return series_add(f, series_scale(-1, g))


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    (a, da), (b, db) = f.coefficients, g.coefficients
    t = min(f.truncation, g.truncation)
    return _combined(f, g, _canonical(_map_mul(f.monoid, f.weighting, t, a, b, 1), da * db))


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    """Inverse by Neumann series in the positive-weight part.

    Requires the weight-zero part of f to be a single invertible monomial
    c*t^u (u a unit of M); on sharp monoids that means a nonzero constant term.
    """
    m, w, t = f.monoid, f.weighting, f.truncation
    zero_part = [(k, c) for k, c in f.terms if h_abs(m, w, k) == 0]
    if len(zero_part) != 1 or zero_part[0][1] == 0:
        raise NonInvertibleConstantTerm("weight-zero part must be a single nonzero monomial")
    u, c = zero_part[0]
    # normalized = (t^-u / c) * f = 1 + (positive weight terms)
    unit_inverse = monomial(m, w, m.gp.neg(u), t, 1 / c, f.annulus)
    shifted = series_mul(unit_inverse, f)
    one = constant_series(m, w, 1, t, f.annulus)
    g = series_sub(one, shifted)  # g has min weight >= 1
    acc = one
    power = one
    for _ in range(t):
        power = series_mul(power, g)
        if power.is_zero():
            break
        acc = series_add(acc, power)
    return series_mul(unit_inverse, acc)


def series_equal(f: TruncatedSeries, g: TruncatedSeries) -> bool:
    """Equality of all tracked coefficients up to the common truncation."""
    t = min(f.truncation, g.truncation)
    return _restricted(f.weighting, t, f.coefficients) == _restricted(f.weighting, t, g.coefficients)


# ---------------------------------------------------------------------------
# Gauss norms
# ---------------------------------------------------------------------------

class NormResult(NamedTuple):
    """Norm p^{-exponent}; exponent INF means the zero series."""

    exponent: object  # Fraction or INF
    stale: bool


def gauss_norm(f: TruncatedSeries, a: Radius, p: int = DEFAULT_PRIME) -> NormResult:
    """|f|_a = sup |c_m| a^{h(m)} with h the group extension of the weighting:
    the interval norm on [a, a], since h = h^+ - h^-."""
    return gauss_norm_interval(f, a, a, p)


def gauss_norm_interval(
    f: TruncatedSeries, a: Radius, b: Radius, p: int = DEFAULT_PRIME
) -> NormResult:
    """sup |c_m| a^{-h^-(m)} b^{h^+(m)} (the annulus seminorm of the section
    ring); stale when a term at |h| = truncation attains it."""
    if a.is_zero or b.is_zero:
        raise ValueError("interval norm needs positive radii")
    qa, qb = a.value_exponent(), b.value_exponent()
    scale = math.lcm(qa.denominator, qb.denominator)
    sa, sb = qa.numerator * (scale // qa.denominator), qb.numerator * (scale // qb.denominator)
    h = f.monoid.index.weighted(f.weighting.values).h

    def radius(k: Elt) -> int:
        hk, hp, _ = h(k)
        return sb * hp - sa * (hp - hk)

    terms, den = f.coefficients
    best = gauss_valuation(terms, den, p, radius, scale)
    stale = any(h(k)[2] == f.truncation and gauss_valuation(((k, x),), den, p, radius, scale) == best
                for k, x in terms)
    return NormResult(best, stale)


# ---------------------------------------------------------------------------
# valuation points and polyannuli
# ---------------------------------------------------------------------------

def _inf_sum(pairs) -> object:
    """Sum of c*v with INF-absorbing arithmetic (c > 0 throughout)."""
    acc = Fraction(0)
    for c, v in pairs:
        if v is INF or v == INF:
            return INF
        acc += Fraction(c) * v
    return acc


class _ValuationPointFields(NamedTuple):
    monoid: FineMonoid
    log_values: tuple[object, ...]  # Fraction or INF


class ValuationPoint(_ValuationPointFields):
    """-log_p |t^g(x)| per generator; INF encodes t^g(x) = 0."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        m = self.monoid
        if len(self.log_values) != len(m.generators):
            raise ValueError("one valuation per generator required")
        for rel in m.index.span.relations():
            lhs = _inf_sum((c, v) for c, v in zip(rel, self.log_values) if c > 0)
            rhs = _inf_sum((-c, v) for c, v in zip(rel, self.log_values) if c < 0)
            if (lhs is INF) != (rhs is INF):
                raise ValueError("valuations inconsistent with a monoid relation")
            if lhs is not INF and lhs != rhs:
                raise ValueError("valuations inconsistent with a monoid relation")
        return self


def valuation_point(m: FineMonoid, values: Sequence) -> ValuationPoint:
    vals = tuple(INF if v is INF or v == INF else Fraction(v) for v in values)
    return ValuationPoint(m, vals)


def vertex_point(m: FineMonoid, h: Weighting) -> ValuationPoint:
    vals = [Fraction(0) if v == 0 else INF for v in h.values]
    return ValuationPoint(m, tuple(vals))


def point_in_polyannulus(x: ValuationPoint, h: Weighting, a: Radius, b: Radius) -> bool:
    """a^{h(g)} <= |t^g(x)| <= b^{h(g)} on generators (sufficient by the
    generator remark)."""
    if not a <= b:
        raise ValueError("interval must satisfy a <= b")
    for v, hv in zip(x.log_values, h.values):
        if hv == 0:
            if v is INF or v != 0:
                return False
            continue
        # upper bound |t^g| <= b^h: v >= q_b * h
        if b.is_zero:
            if v is not INF:
                return False
        else:
            if v is not INF and v < b.value_exponent() * hv:
                return False
        # lower bound a^h <= |t^g|: v <= q_a * h (INF fails for a > 0)
        if not a.is_zero:
            if v is INF or v > a.value_exponent() * hv:
                return False
    return True


# ---------------------------------------------------------------------------
# saturation invariance of polyannuli
# ---------------------------------------------------------------------------

def saturation_invariance_check(
    m: FineMonoid,
    a: Radius,
    b: Radius,
    sample_points: Sequence[ValuationPoint],
) -> bool:
    """A_M[a,b] = A_{M^sat}[a,b] for 0 < a <= b, plus the h+ comparison
    h^{sat,+}(m) <= h^+(m) <= h^{sat,+}(m) + h(s) with the correction
    element s of `_correction_weight`.  M^gp must be torsion-free
    (NotTorsionFree otherwise)."""
    if a.is_zero:
        raise ValueError("saturation invariance needs 0 < a")
    if not a <= b:
        raise ValueError("interval must satisfy a <= b")
    if m.gp.torsion_invariants:
        torsion = " + ".join(f"Z/{d}" for d in m.gp.torsion_invariants)
        raise NotTorsionFree(f"saturation invariance needs a torsion-free M^gp, got torsion {torsion}: "
                             "M^sat holds the torsion as units, so it is not sharp")
    sat = saturation(m)
    h = Weighting(m, _default_values(m))
    hsat = Weighting(sat, sat.weighting)

    # membership agreement on the sample points
    for x in sample_points:
        in_m = point_in_polyannulus(x, h, a, b)
        if any(v is INF for v in x.log_values):
            in_sat = False  # a > 0 excludes vanishing coordinates on both sides
        else:
            lam = _valuation_functional(m, x)
            vals = tuple(
                sum((lam[i] * g[0][i] for i in range(len(lam))), Fraction(0))
                for g in sat.generators
            )
            in_sat = point_in_polyannulus(ValuationPoint(sat, vals), hsat, a, b)
        if in_m != in_sat:
            return False

    # h+ comparison on the differences of the weight-4 ball of M^sat
    hs = _correction_weight(m, sat, h)
    sat_ball = sat.index.weighted(sat.weighting).upto(4)
    seen = set()
    for x in sat_ball:
        for y in sat_ball:
            g = m.gp.sub(x, y)
            if g in seen:
                continue
            seen.add(g)
            hp_m = h_plus(m, h, g)
            hp_sat = h_plus(sat, hsat, g)
            if not (hp_sat <= hp_m <= hp_sat + hs):
                return False
    return True


def _correction_weight(m: FineMonoid, sat: FineMonoid, h: Weighting) -> int:
    """h(s) for the correction element s = sum (n_g - 1) m'_g over the
    generators g of M^sat outside M: n_g is the least n >= 2 with n g in M,
    which exists as M^sat/M is torsion, and m'_g is a y in M with g + y in M
    of least weight, so h(m'_g) = h^+(-g)."""
    gp, total = m.gp, 0
    for g in sat.generators:
        if not membership(m, g):
            n_g = next(n for n in count(2) if membership(m, gp.scale(n, g)))
            total += (n_g - 1) * h_plus(m, h, gp.neg(g))
    return total


def _valuation_functional(m: FineMonoid, x: ValuationPoint):
    rows = [[Fraction(v) for v in g[0]] for g in m.generators]
    sol = qsolve(qmat(rows), qvec([Fraction(v) for v in x.log_values]))
    if sol is None:
        raise ValueError("point valuations are not induced by a linear functional")
    return sol
