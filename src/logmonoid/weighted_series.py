"""Truncated monoid-graded series, h+/h-/|h|, Gauss norms, polyannuli.

A series is a 1 x 1 coefficient map (`coefficient_maps`), exact up to
|h| <= its truncation, for a `monoid_core.Weighting` h.  Valuations are
p-adic for a configurable prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Sequence

from .abelian import Elt
from .coefficient_maps import (
    DEFAULT_PRIME, CoefficientMap, Radius, _canonical, _map_mul, _restricted, coefficient, coefficient_map,
    gauss_valuation,
)
from .errors import NotTorsionFree, checked_make
from .monoid_core import FineMonoid, Weighting, default_weighting as _default_values, membership, saturation
from .qlin import INF, qsolve


def default_weighting(m: FineMonoid) -> Weighting:
    """A weighting synthesized from an interior point of the dual cone."""
    return Weighting(m, _default_values(m))


# ---------------------------------------------------------------------------
# h+, h-, |h|
# ---------------------------------------------------------------------------

def h_plus(m: FineMonoid, h: Weighting, g: Elt) -> int:
    """min{h(y) : y in M, y - g in M} by weight-ordered search."""
    return m.index.weighted(h.values).h(g)[1]


def h_abs(m: FineMonoid, h: Weighting, g: Elt) -> int:
    return m.index.weighted(h.values).h(g)[2]


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


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f g, kept at |h| <= their common truncation."""
    if f.monoid != g.monoid or f.weighting != g.weighting:
        raise ValueError("series live on different weighted monoids")
    (a, da), (b, db) = f.coefficients, g.coefficients
    t = min(f.truncation, g.truncation)
    return TruncatedSeries(f.monoid, f.weighting, _canonical(_map_mul(f.monoid, f.weighting, t, a, b, 1), da * db),
                           t, f.annulus or g.annulus)


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
    sol = qsolve([g[0] for g in m.generators], x.log_values)
    if sol is None:
        raise ValueError("point valuations are not induced by a linear functional")
    return sol
